"""Benchmark command for tristage.

Run from the repository root::

    python3 perfbench/run.py --workload cli-sessions --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One run measures one workload (``all`` runs the four one after another,
each in a child process of its own, so that its peak memory is its own)
for about ``--seconds`` seconds of whole rounds, checks every output
against references computed apart from the program, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
timed with nothing wrapped; with ``--trace 1`` the program's public
functions are wrapped in spans and the metrics are the per-layer ones.
Each run also writes a record (and, when traced, its spans) under
``perfbench/out/``, with the git SHA, a digest of ``src/``, the machine and
the Python and numpy versions.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Timed cold starts before each round; one more, untimed, before the first
#: fills the bytecode cache.  Spreading them over the run keeps the median
#: from resting on one moment of the machine's speed.
COLD_STARTS_PER_ROUND = 1
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha() -> str | None:
    """HEAD's commit, when the repository root is a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _provenance() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _cold_start(workload: str, env: dict) -> float:
    """Wall time of a fresh interpreter running ``coldstart.py``."""
    start = perf_counter()
    subprocess.run([sys.executable, str(HERE / "coldstart.py"), workload],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """Run one workload; write its record and return the result object."""
    import scenarios
    from spans import Tracer
    from workloads import WorkloadRun, per_layer

    scenarios.prepare(scenarios.round_ops(workload))
    run = WorkloadRun(workload, seed, in_process=trace, root=ROOT, env=env)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "provenance": _provenance()}
    if trace:
        tracer = Tracer()
        with tracer.patch():
            elapsed = run.run(seconds)
        record["spans"] = tracer.totals()
        metrics = per_layer(record["spans"], run.rounds, run.totals["blocks"] + run.totals["runs"])
    else:
        _cold_start(workload, env)
        setup_times = []
        record["setup_times_s"] = setup_times
        elapsed = run.run(seconds, lambda: setup_times.extend(
            _cold_start(workload, env) for _ in range(COLD_STARTS_PER_ROUND)))
        metrics = run.end_to_end()
        metrics["setup_s"] = (statistics.median(setup_times), "s")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(rounds=run.rounds, elapsed_s=elapsed, totals=dict(run.totals),
                  failure_count=run.failure_count, failures=run.messages, result=result)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}-{record['provenance']['utc']}".replace(":", "")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if trace:
        tracer.write(OUT / f"{stem}.spans.json.gz")
    for message in run.messages:
        print(f"FAILED {message}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    if not (SRC / "tristage" / "__init__.py").is_file():
        print(f"error: no tristage sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    import scenarios
    import tristage

    if Path(tristage.__file__).resolve().parent != SRC / "tristage":
        print(f"error: imported tristage from {tristage.__file__}, not {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*scenarios.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: wrap the program's functions and report per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), env)
        for metric, entry in result["metrics"].items():
            print(f"{args.workload:16} {metric:48} {entry['value']:.6g} {entry['unit']}")
        print(json.dumps(result))
        return 0
    results = {}
    for name in scenarios.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
