"""Command-line experiment runner.

Subcommands:

* ``run`` (the default when the first argument is a flag): simulate key
  sessions under a configurable channel and print a report.
* ``list-families``: show the operator family catalog.
* ``verify-families``: run the algebraic verification report on all five
  catalog families.

Reports are reproducible: everything except the wall-time field is a pure
function of the flags, byte for byte.  JSON output nests per-trial results;
CSV output flattens them to one row per trial.  Both carry a top-level
``schema_version`` (currently 1).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .adversary import EveStrategy, NoiseModel
from .analysis import ExactAnalysis, exact_analysis
from .opsets import family_names, get_family, operator_catalog, verify_family
from .protocol import SessionConfig, StageLabel, run_key_session
from .qcore import basis_state
from .sift import parity_check

SCHEMA_VERSION = 1

_COMMANDS = ("run", "list-families", "verify-families")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run parameters, echoed verbatim into every report."""

    family: str
    blocks: int
    trials: int
    eve_stages: tuple
    eve_basis: str | None
    noise: float
    parity_rounds: int
    seed: int
    mode: str
    output: str


@dataclass(frozen=True)
class PerTrialResult:
    trial: int
    bit_error_rate: float
    parity_detected: bool
    eve_guess_success_rate: float | None


@dataclass(frozen=True)
class DeltaSummary:
    """Empirical minus exact, where both sides exist."""

    bit_error_rate: float
    eve_guess_success_rate: float | None


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one invocation produces."""

    schema_version: int
    config: ExperimentConfig
    per_trial: tuple
    bit_error_rate_mean: float
    bit_error_rate_stderr: float | None
    eve_guess_success_rate: float | None
    exact: ExactAnalysis | None
    deltas: DeltaSummary | None
    wall_time_seconds: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tristage",
        description="Simulate and analyze three-stage quantum key distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser(
        "run", help="run key-distribution sessions and print a report"
    )
    run_parser.add_argument(
        "--family",
        required=True,
        choices=family_names(),
        help="operator family both parties draw from",
    )
    run_parser.add_argument(
        "--blocks", type=int, default=100, help="protocol runs per session (default 100)"
    )
    run_parser.add_argument(
        "--trials",
        type=int,
        default=1,
        help="independent sessions to run (default 1; forced to 1 in exact mode)",
    )
    run_parser.add_argument(
        "--eve-stages",
        default="",
        metavar="LIST",
        help="comma-separated stages the eavesdropper intercepts, from 1,2,3 "
        "(default: none)",
    )
    run_parser.add_argument(
        "--eve-basis",
        default=None,
        metavar="LABEL",
        help="operator label defining the eavesdropper's measurement basis "
        "(default: computational)",
    )
    run_parser.add_argument(
        "--noise",
        type=float,
        default=0.0,
        help="per-qubit bit-flip probability per transmission (default 0)",
    )
    run_parser.add_argument(
        "--parity-rounds",
        type=int,
        default=5,
        help="parity comparison rounds per session (default 5)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=0, help="master seed (default 0)"
    )
    run_parser.add_argument(
        "--mode",
        choices=("monte-carlo", "exact"),
        default="monte-carlo",
        help="monte-carlo: sessions only; exact: add closed-form reference rates",
    )
    run_parser.add_argument(
        "--output", choices=("json", "csv"), default="json", help="report format"
    )
    sub.add_parser("list-families", help="print the operator family catalog")
    sub.add_parser(
        "verify-families",
        help="check commutation and closure for all catalog families",
    )
    return parser


def _parse_eve_stages(raw: str, parser: argparse.ArgumentParser) -> tuple:
    stages = set()
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = int(token)
        except ValueError:
            parser.error(f"--eve-stages: {token!r} is not a stage number")
        if value not in (1, 2, 3):
            parser.error(f"--eve-stages: stage must be 1, 2, or 3, got {value}")
        stages.add(value)
    return tuple(sorted(stages))


def _config_from_namespace(
    ns: argparse.Namespace, parser: argparse.ArgumentParser
) -> ExperimentConfig:
    if ns.blocks < 1:
        parser.error(f"--blocks must be >= 1, got {ns.blocks}")
    if ns.trials < 1:
        parser.error(f"--trials must be >= 1, got {ns.trials}")
    if ns.parity_rounds < 1:
        parser.error(f"--parity-rounds must be >= 1, got {ns.parity_rounds}")
    if ns.seed < 0:
        parser.error(f"--seed must be non-negative, got {ns.seed}")
    if not 0.0 <= ns.noise <= 1.0:
        parser.error(f"--noise must lie in [0, 1], got {ns.noise}")
    eve_stages = _parse_eve_stages(ns.eve_stages, parser)
    if ns.eve_basis is not None:
        if not eve_stages:
            parser.error("--eve-basis requires --eve-stages")
        catalog = operator_catalog(get_family(ns.family).dim)
        if ns.eve_basis not in catalog:
            known = ", ".join(sorted(catalog))
            parser.error(
                f"--eve-basis: unknown label {ns.eve_basis!r} for this family's "
                f"dimension (choose from: {known})"
            )
    return ExperimentConfig(
        family=ns.family,
        blocks=ns.blocks,
        trials=1 if ns.mode == "exact" else ns.trials,
        eve_stages=eve_stages,
        eve_basis=ns.eve_basis,
        noise=ns.noise,
        parity_rounds=ns.parity_rounds,
        seed=ns.seed,
        mode=ns.mode,
        output=ns.output,
    )


def _inject_default_command(args: list) -> list:
    if not args:
        return ["run"]
    if args[0] not in _COMMANDS and args[0] not in ("-h", "--help"):
        return ["run", *args]
    return args


def parse_arguments(argv) -> ExperimentConfig:
    """Parse run-command flags into a validated `ExperimentConfig`.

    The leading ``run`` token is optional.

    Raises:
        SystemExit: With status 2 on any usage error (argparse convention).
    """
    parser = build_parser()
    ns = parser.parse_args(_inject_default_command(list(argv)))
    if ns.command != "run":
        parser.error(f"expected run flags, got the {ns.command!r} command")
    return _config_from_namespace(ns, parser)


def _trial_seed(seed: int, trial: int) -> int:
    return int(
        np.random.SeedSequence(entropy=seed, spawn_key=(trial,)).generate_state(
            2, np.uint64
        )[0]
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the configured sessions (plus exact reference rates in exact mode)."""
    start = time.perf_counter()
    family = get_family(config.family)
    num_qubits = family.dim.bit_length() - 1
    eve = None
    if config.eve_stages:
        rotation = (
            operator_catalog(family.dim)[config.eve_basis]
            if config.eve_basis is not None
            else None
        )
        eve = EveStrategy(
            stages=frozenset(StageLabel(s) for s in config.eve_stages),
            pre_rotation=rotation,
        )
    noise = NoiseModel(config.noise) if config.noise > 0.0 else None
    per_trial = []
    for trial in range(config.trials):
        session = run_key_session(
            SessionConfig(
                family_name=config.family,
                blocks=config.blocks,
                eve_strategy=eve,
                noise=noise,
                seed=_trial_seed(config.seed, trial),
            )
        )
        parity_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(trial, 1))
        )
        sift = parity_check(
            session.alice_bits, session.bob_bits, config.parity_rounds, parity_rng
        )
        per_trial.append(
            PerTrialResult(
                trial=trial,
                bit_error_rate=session.bit_error_rate,
                parity_detected=sift.detected,
                eve_guess_success_rate=session.eve_guess_success_rate,
            )
        )
    rates = [row.bit_error_rate for row in per_trial]
    mean = sum(rates) / len(rates)
    stderr = (
        statistics.stdev(rates) / len(rates) ** 0.5 if len(rates) > 1 else None
    )
    success = None
    if eve is not None:
        success = sum(row.eve_guess_success_rate for row in per_trial) / len(per_trial)
    exact = None
    deltas = None
    if config.mode == "exact":
        per_secret = [
            exact_analysis(family, eve, basis_state(index, num_qubits), noise=noise)
            for index in range(family.dim)
        ]
        *rates, branch_counts = zip(*map(astuple, per_secret))
        means = (None if None in column else sum(column) / family.dim for column in rates)
        exact = ExactAnalysis(*means, sum(branch_counts))
        deltas = DeltaSummary(
            bit_error_rate=mean - exact.bit_error_rate,
            eve_guess_success_rate=(
                None if success is None else success - exact.eve_guess_success_rate),
        )
    return ExperimentReport(
        schema_version=SCHEMA_VERSION,
        config=config,
        per_trial=tuple(per_trial),
        bit_error_rate_mean=mean,
        bit_error_rate_stderr=stderr,
        eve_guess_success_rate=success,
        exact=exact,
        deltas=deltas,
        wall_time_seconds=time.perf_counter() - start,
    )


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return value


def render_csv(report: ExperimentReport) -> str:
    """Flatten the report to one CSV row per trial."""
    config = asdict(report.config)
    del config["output"]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["schema_version", *config, *(f.name for f in fields(PerTrialResult))])
    for row in report.per_trial:
        cells = [report.schema_version, *config.values(), *astuple(row)]
        writer.writerow([_csv_cell(cell) for cell in cells])
    return buffer.getvalue()


def _list_families() -> int:
    for name in family_names():
        family = get_family(name)
        print(f"{name:<16} dim {family.dim}  members {', '.join(family.labels)}")
    return 0


def _verify_families() -> int:
    all_passed = True
    for name in family_names():
        report = verify_family(get_family(name))
        print(report.format())
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def main(argv=None) -> int:
    """Entry point; returns the process exit status."""
    args = _inject_default_command(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    ns = parser.parse_args(args)
    if ns.command == "list-families":
        return _list_families()
    if ns.command == "verify-families":
        return _verify_families()
    config = _config_from_namespace(ns, parser)
    try:
        report = run_experiment(config)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if config.output == "json":
        print(report.to_json())
    else:
        print(render_csv(report), end="")
    return 0
