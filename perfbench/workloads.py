"""One benchmark run: whole rounds of a workload's operations, timed and checked.

Every call into the program goes through its module attribute
(``analysis.exact_analysis``, ``protocol.run_three_stage``, ...) at call
time, so that the traced run's wrappers see it.  Only the program call is
inside a timed region; input generation and checks are not.

Each timed region is a sample of its place in the round (operation and
call within it), which does the same work in every round.  A throughput is
the work of a round divided by the sum, over those places, of the median
time each took across the rounds, so that a slow spell of the machine in
one round moves no more than that round's samples.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import scenarios
from peakrss import peak_rss_mb, split_marker
from reference import reference_rates
from scenarios import CliSpec, Exact, MonteCarlo, Runs, Sift
from tristage import analysis, basis_state, cli, get_family, protocol, sift
from tristage.opsets import operator_catalog

HERE = Path(__file__).resolve().parent

#: Failure messages kept per run; the rest are only counted.
MAX_MESSAGES = 50

#: End-to-end metrics: name -> (numerator total, denominator total, unit).
THROUGHPUT = {
    "blocks_per_s": ("blocks", "cli_s", "blocks/s"),
    "mc_trials_per_s": ("trials", "mc_s", "trials/s"),
    "exact_scenarios_per_s": ("scenarios", "exact_s", "scenarios/s"),
    "sift_bits_per_s": ("bits", "sift_s", "bits/s"),
    "runs_per_s": ("runs", "runs_s", "runs/s"),
}


class WorkloadRun:
    """State of one run: totals, counters, failures and reference cache.

    With ``in_process`` set, CLI invocations go through `tristage.cli.main`
    in this process (the traced run) instead of a ``python -m tristage``
    child process, started through ``peakrss.py`` so that it reports its
    own peak memory.
    """

    def __init__(self, workload: str, seed: int, in_process: bool, root, env):
        self.workload = workload
        self.seed = seed
        self.in_process = in_process
        self.root = root
        self.env = env
        self.totals = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self._place = (0, 0)
        self._samples = defaultdict(list)
        self._work = {}
        self.messages: list[str] = []
        self.failure_count = 0
        self.cli_peak_rss_mb = 0.0
        self._references = {}
        self._groups = defaultdict(lambda: np.zeros(4))
        self._dispatch = {CliSpec: self._cli, Exact: self._exact, MonteCarlo: self._monte_carlo,
                          Sift: self._sift, Runs: self._runs}

    @property
    def correct(self) -> bool:
        return self.failure_count == 0

    def run(self, seconds: float, between_rounds=None) -> float:
        """Run whole rounds, as many as bring their total time closest to
        ``seconds`` (at least one); return that time.

        ``between_rounds``, when given, is called before each round, outside
        the rounds' time.
        """
        ops = scenarios.round_ops(self.workload)
        elapsed = 0.0
        while self.rounds == 0 or elapsed + elapsed / self.rounds / 2 < seconds:
            if between_rounds is not None:
                between_rounds()
            start = perf_counter()
            for index, op in enumerate(ops):
                self._place = (index, 0)
                sequence = np.random.SeedSequence([self.seed, self.rounds, index])
                self._dispatch[type(op)](op, int(sequence.generate_state(1)[0]))
            self.rounds += 1
            elapsed += perf_counter() - start
        self._check_groups()
        return elapsed

    def end_to_end(self) -> dict:
        metrics = {}
        for name, (num, den, unit) in THROUGHPUT.items():
            places = [key for key in self._samples if key[0] == den]
            seconds = sum(statistics.median(self._samples[key]) for key in places)
            work = sum(self._work[key] for key in places)
            metrics[name] = (work / seconds if seconds else 0.0, unit)
        peak = self.cli_peak_rss_mb if self.workload == "cli-sessions" else peak_rss_mb()
        metrics["peak_rss_mb"] = (peak, "MB")
        return metrics

    # -- bookkeeping ---------------------------------------------------------

    def _keep(self, message: str) -> None:
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def _fail(self, where: str, messages) -> None:
        """Record failed checks; any of them makes the run incorrect."""
        for message in messages:
            self.failure_count += 1
            self._keep(f"{where}: {message}")

    def _record(self, total: str, seconds: float, unit: str, work: float) -> None:
        """Add one timed region of ``work`` units to the totals and to the
        samples of its place in the round."""
        self.totals[total] += seconds
        self.totals[unit] += work
        key = (total, *self._next_place())
        self._samples[key].append(seconds)
        self._work[key] = work

    def _next_place(self) -> tuple:
        """The current place in the round; the next call takes the one after.
        A failed call takes its place too, so later calls keep theirs."""
        index, call = self._place
        self._place = (index, call + 1)
        return index, call

    def _operation_failed(self, where: str, message: str) -> None:
        """Count a call that raised or exited non-zero.  Checks speak only of
        the calls that returned, so this does not make the run incorrect."""
        self.failed += 1
        self._keep(f"{where}: failed: {message.strip()}")

    def _timed(self, total: str, unit: str, work: float, label: str, fn, *args):
        """Call the program once and record its duration as ``work`` units.

        An exception is a failed operation: it is counted and reported, and
        the run goes on.
        """
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            self._operation_failed(label, "".join(traceback.format_exception_only(exc)))
            self._next_place()
            return None
        self._record(total, perf_counter() - start, unit, work)
        return result

    def _reference(self, family_name: str, stages, basis, noise: float):
        key = (family_name, tuple(stages), basis, noise)
        if key not in self._references:
            family = get_family(family_name)
            rotation = None if basis is None else operator_catalog(family.dim)[basis].matrix
            self._references[key] = reference_rates(
                [m.matrix for m in family.members], stages, rotation, noise)
        return self._references[key]

    # -- operations ----------------------------------------------------------

    def _invoke(self, argv: list[str]):
        """Run ``tristage`` once; return (exit status, stdout, stderr)."""
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
            return status, out.getvalue(), err.getvalue()
        child = subprocess.run(
            [sys.executable, str(HERE / "peakrss.py"), "tristage", *argv], cwd=self.root,
            env=self.env, capture_output=True, text=True)
        err, peak = split_marker(child.stderr)
        if peak is not None:
            self.cli_peak_rss_mb = max(self.cli_peak_rss_mb, peak)
        return child.returncode, child.stdout, err

    def _cli(self, spec: CliSpec, seed: int) -> None:
        argv = spec.argv(seed)
        where = "tristage " + " ".join(argv)
        reports = []
        for _ in range(2 if spec.repeat else 1):
            self.attempted += 1
            start = perf_counter()
            status, out, err = self._invoke(argv)
            seconds = perf_counter() - start
            if status != 0:
                self._operation_failed(where, f"exit status {status}: {err}")
                self._next_place()
                continue
            self._record("cli_s", seconds, "blocks", spec.blocks * spec.trials)
            reports.append(out)
        if not reports:
            return
        ref = self._reference(spec.family, spec.eve_stages, spec.eve_basis, spec.noise)
        self._fail(where, checks.cli_report_failures(reports[0], spec.echoed_config(seed), ref))
        if len({checks.strip_wall_time(text) for text in reports}) > 1:
            self._fail(where, ["repeated invocation differs beyond wall_time_seconds"])

    def _exact(self, op: Exact, seed: int) -> None:
        family = get_family(op.family)
        qubits = family.dim.bit_length() - 1
        eve = scenarios.channel(op.family, op.eve_stages, op.eve_basis, 0.0).eve
        ref = self._reference(op.family, op.eve_stages, op.eve_basis, 0.0)
        guess = []
        for s in range(family.dim):
            result = self._timed("exact_s", "scenarios", 1, "exact_analysis",
                                 analysis.exact_analysis, family, eve, basis_state(s, qubits))
            if result is None:
                continue
            self._fail(f"exact_analysis {op} secret {s}", checks.exact_failures(
                "bit_error_rate", result.bit_error_rate, ref.bit_error_rate[s])
                + checks.exact_failures("detection_relevant_disturbance",
                                        result.detection_relevant_disturbance,
                                        ref.disturbance[s]))
            guess.append(result.eve_guess_success_rate)
        if len(guess) == family.dim:
            self._fail(f"exact_analysis {op}", checks.exact_failures(
                "eve_guess_success_rate averaged over secrets", float(np.mean(guess)),
                ref.aware_guess_rate))

    def _monte_carlo(self, op: MonteCarlo, seed: int) -> None:
        family = get_family(op.family)
        qubits = family.dim.bit_length() - 1
        ctx = scenarios.channel(op.family, op.eve_stages, op.eve_basis, op.noise)
        ref = self._reference(op.family, op.eve_stages, op.eve_basis, op.noise)
        seeds = np.random.SeedSequence(seed).generate_state(family.dim)
        guess = []
        for s in range(family.dim):
            result = self._timed("mc_s", "trials", op.trials, "monte_carlo_analysis",
                                 analysis.monte_carlo_analysis, family, ctx,
                                 basis_state(s, qubits), op.trials, int(seeds[s]))
            if result is None:
                continue
            self._fail(f"monte_carlo_analysis {op} secret {s}", checks.rate_failures(
                "bit_error_rate", result.bit_error_rate, ref.bit_error_rate[s], op.trials)
                + checks.rate_failures("detection_relevant_disturbance",
                                       result.detection_relevant_disturbance,
                                       ref.disturbance[s], op.trials))
            guess.append(result.eve_guess_success_rate)
        if len(guess) == family.dim:
            self._fail(f"monte_carlo_analysis {op}", checks.guess_failures(
                "eve_guess_success_rate averaged over secrets", float(np.mean(guess)), ref,
                op.trials * family.dim))

    def _sift(self, op: Sift, seed: int) -> None:
        rng = np.random.default_rng(seed)
        alice = rng.integers(0, 2, op.length, dtype=np.uint8)
        bob = alice.copy()
        bob[rng.choice(op.length, op.errors, replace=False)] ^= 1
        report = self._timed("sift_s", "bits", op.length, "parity_check", sift.parity_check,
                             alice.tolist(), bob.tolist(), op.rounds,
                             np.random.default_rng(rng.integers(2**63)))
        if report is None:
            return
        failures = checks.sift_failures(alice, bob, report)
        if len(report.rounds) != op.rounds:
            failures.append(f"{len(report.rounds)} rounds, expected {op.rounds}")
        self._fail(f"parity_check {op}", failures)

    def _runs(self, op: Runs, seed: int) -> None:
        family = get_family(op.family)
        qubits = family.dim.bit_length() - 1
        stages, basis, noise = scenarios.transcript_channel(op.family, op.channel)
        ctx = scenarios.channel(op.family, stages, basis, noise)
        secrets = [basis_state(s, qubits) for s in range(family.dim)]
        jobs = [(s, a, b) for _ in range(op.reps) for s in range(family.dim)
                for a in family.members for b in family.members]
        rng = np.random.default_rng(seed)
        run_three_stage, verify_recovery = protocol.run_three_stage, protocol.verify_recovery
        done = []
        self.attempted += len(jobs)
        start = perf_counter()
        for s, a, b in jobs:
            try:
                transcript = run_three_stage(secrets[s], a, b, ctx, rng)
                done.append((s, transcript, verify_recovery(transcript)))
            except Exception as exc:
                self._operation_failed(f"run_three_stage {op}",
                                       "".join(traceback.format_exception_only(exc)))
        self._record("runs_s", perf_counter() - start, "runs", len(done))

        ref = self._reference(op.family, stages, basis, noise)
        clean = not stages and not noise
        group = self._groups[(op.family, op.channel)]
        for s, transcript, verified in done:
            self._fail(f"run_three_stage {op} secret {s}", checks.transcript_failures(
                transcript, s, verified, len(stages), clean))
            measured = transcript.measured.index
            right = 0
            if ref.guess_table is not None:
                code = 0
                for _, record in transcript.eve_records:
                    code = code * family.dim + record.index
                right = int(ref.guess_table[code] == s)
            group += (1, bin(measured ^ s).count("1") / qubits, measured != s, right)

    def _check_groups(self) -> None:
        """Rates of all transcript runs per family and channel, against the
        reference.  Each round covers every member pair and secret equally
        often, so the exact rates are the expected values."""
        for (family_name, channel), (n, errors, disturbed, right) in self._groups.items():
            stages, basis, noise = scenarios.transcript_channel(family_name, channel)
            ref = self._reference(family_name, stages, basis, noise)
            n = int(n)
            if n == 0:
                continue
            failures = checks.rate_failures(
                "bit_error_rate", errors / n, ref.mean_bit_error_rate, n)
            failures += checks.rate_failures(
                "whole-block disturbance", disturbed / n, ref.mean_disturbance, n)
            if ref.guess_table is not None:
                failures += checks.rate_failures(
                    "MAP guess rate of Eve's records", right / n, ref.aware_guess_rate, n)
            self._fail(f"transcript runs {family_name}/{channel}", failures)


def per_layer(totals: dict, rounds: int, protocol_runs: float) -> dict:
    """Per-layer metrics from the traced run's span totals.

    ``.calls``, ``.s`` and ``.self_s`` are per round, except the ``qcore``
    call counts, which are per protocol run (session block or transcript
    run).  The other metrics divide a layer's time by its own work units:
    calls, blocks, scenarios, trials or key bits.
    """

    metrics = {}
    for name, metric, field, denominator, scale, unit in (
        ("protocol.run_key_session", "us_per_block", "s", "units", 1e6, "us"),
        ("protocol.run_key_session", "self_us_per_block", "self_s", "units", 1e6, "us"),
        ("protocol.run_three_stage", "us_per_run", "s", "calls", 1e6, "us"),
        ("adversary.transmit", "us_per_call", "s", "calls", 1e6, "us"),
        ("qcore.measure", "us_per_call", "s", "calls", 1e6, "us"),
        ("analysis.exact_analysis", "ms_per_scenario", "s", "calls", 1e3, "ms"),
        ("analysis.exact_analysis", "self_ms_per_scenario", "self_s", "calls", 1e3, "ms"),
        ("analysis.exact_analysis", "branches", "units", "calls", 1.0, "count"),
        ("analysis.monte_carlo_analysis", "ns_per_trial", "s", "units", 1e9, "ns"),
        ("sift.parity_check", "ns_per_bit", "s", "units", 1e9, "ns"),
    ):
        count = totals[name][denominator]
        metrics[f"{name}.{metric}"] = (scale * totals[name][field] / count if count else 0.0, unit)
    for name in ("protocol.run_three_stage", "adversary.transmit", "opsets.commutation_phase",
                 "analysis.map_decision_table", "sift.parity_check"):
        metrics[f"{name}.calls"] = (totals[name]["calls"] / rounds, "count")
    for name in ("qcore.apply", "qcore.adjoint", "qcore.measure"):
        metrics[f"{name}.calls"] = (totals[name]["calls"] / protocol_runs, "count")
    for name in ("cli.run_experiment", "opsets.commutation_phase", "analysis.map_decision_table"):
        metrics[f"{name}.s"] = (totals[name]["s"] / rounds, "s")
    metrics["cli.run_experiment.self_s"] = (totals["cli.run_experiment"]["self_s"] / rounds, "s")
    return metrics
