"""Make-up of the benchmark workloads, and the set-up each one needs.

A workload repeats whole rounds.  A round is a fixed list of operations:
the workload's own operations, with a small slice of each other kind spread
between them, so that every run exercises every layer and reports every
metric.  The seed given to the benchmark only picks the random inputs (CLI
seeds, keys, error positions, sampling streams), never the make-up, so
every round of every run does the same kinds and amounts of work.

This module imports nothing but ``tristage``, because the cold-start
measurement (``coldstart.py``) runs `prepare` in a fresh interpreter.
"""

from __future__ import annotations

from typing import NamedTuple

import tristage
from tristage import ChannelContext, EveStrategy, NoiseModel, StageLabel, get_family
from tristage.opsets import operator_catalog


class CliSpec(NamedTuple):
    """One ``tristage run`` invocation; the seed is added per round."""

    family: str
    blocks: int
    trials: int = 1
    eve_stages: tuple = ()
    eve_basis: str | None = None
    noise: float = 0.0
    mode: str = "monte-carlo"
    repeat: bool = False  # run twice with one seed; reports must match

    def argv(self, seed: int) -> list[str]:
        argv = ["run", "--family", self.family, "--blocks", str(self.blocks),
                "--trials", str(self.trials), "--seed", str(seed), "--mode", self.mode]
        if self.eve_stages:
            argv += ["--eve-stages", ",".join(map(str, self.eve_stages))]
        if self.eve_basis is not None:
            argv += ["--eve-basis", self.eve_basis]
        if self.noise:
            argv += ["--noise", repr(self.noise)]
        return argv

    def echoed_config(self, seed: int) -> dict:
        """The report's ``config`` fields this invocation must echo."""
        return {"family": self.family, "blocks": self.blocks, "trials": self.trials,
                "eve_stages": list(self.eve_stages), "eve_basis": self.eve_basis,
                "noise": self.noise, "mode": self.mode, "seed": seed}


class Exact(NamedTuple):
    """`exact_analysis` for every basis secret of one family and Eve."""

    family: str
    eve_stages: tuple
    eve_basis: str | None


class MonteCarlo(NamedTuple):
    """`monte_carlo_analysis` for every basis secret of one family and channel."""

    family: str
    eve_stages: tuple
    eve_basis: str | None
    noise: float
    trials: int


class Sift(NamedTuple):
    """One `parity_check` on a random key pair with ``errors`` differing bits."""

    length: int
    errors: int
    rounds: int


class Runs(NamedTuple):
    """`run_three_stage` + `verify_recovery` over every member pair and basis
    secret of one family, ``reps`` times, on one channel."""

    family: str
    channel: str
    reps: int


WORKLOADS = ("cli-sessions", "leakage-table", "long-key-sift", "transcript-runs")

#: Rotation used for "rotated" channels, per dimension.
ROTATION = {2: "H", 4: "DFT4"}

#: Transcript channels: name -> (Eve's stages, rotated basis?, noise).
TRANSCRIPT_CHANNELS = {
    "clean": ((), False, 0.0),
    "eavesdropped": ((1,), False, 0.0),
    "rotated": ((1, 2, 3), True, 0.0),
    "noisy": ((2,), False, 0.05),
}

CLI_SESSIONS = (
    CliSpec("hadamard", 2000, eve_stages=(1,)),
    CliSpec("pauli", 600, trials=2, eve_stages=(1, 2, 3)),
    CliSpec("dft", 1000, eve_stages=(1, 2, 3), repeat=True),
    CliSpec("quaternion", 600, eve_stages=(2,), eve_basis="DFT4", noise=0.05),
    CliSpec("controlled-pair", 500, trials=2, eve_stages=(1, 3), noise=0.02),
    CliSpec("pauli", 800, eve_stages=(1,), eve_basis="H", mode="exact"),
    CliSpec("controlled-pair", 600),
)

EXACT_STAGE_SETS = ((1,), (2,), (1, 3), (1, 2, 3))

MC_TRIALS = 100_000
#: One sampled channel per family, in catalog order.
MC_CHANNELS = (
    MonteCarlo("pauli", (1, 2, 3), None, 0.05, MC_TRIALS),
    MonteCarlo("hadamard", (1,), None, 0.1, MC_TRIALS),
    MonteCarlo("controlled-pair", (1, 2, 3), "DFT4", 0.05, MC_TRIALS),
    MonteCarlo("dft", (1, 2, 3), None, 0.05, MC_TRIALS),
    MonteCarlo("quaternion", (2,), "DFT4", 0.02, MC_TRIALS),
)

#: The CLI's default round count (5) and a higher one; zero and nonzero errors.
SIFT_KEYS = (
    Sift(10_000, 0, 5),
    Sift(10_000, 1, 20),
    Sift(25_000, 25, 5),
    Sift(50_000, 0, 10),
    Sift(50_000, 500, 5),
    Sift(75_000, 0, 5),
    Sift(100_000, 10, 5),
)

TRANSCRIPT_REPS = 16

#: Small operations of each kind that ride along in the other workloads'
#: rounds, spread evenly over them so that every metric samples the whole
#: run.
SLICES = {
    "cli": (CliSpec("hadamard", 500, eve_stages=(1,)),
            CliSpec("dft", 300, eve_stages=(1, 2, 3)),
            CliSpec("pauli", 400, eve_stages=(2,))),
    "leakage": tuple(op for stages in EXACT_STAGE_SETS for op in (
        *(Exact(name, stages, basis) for name in ("dft", "quaternion")
          for basis in (None, *operator_catalog(4))),
        MonteCarlo("dft", (1, 2, 3), None, 0.05, 20_000))),
    "sift": (Sift(10_000, 2, 5),) * 8,
    "runs": (Runs("controlled-pair", "rotated", 2),) * 8,
}


def _leakage_table() -> tuple:
    """Per family: the exact sweep over Eve's stage sets and bases, then the
    family's sampled channel."""
    ops = []
    for name, sampled in zip(tristage.family_names(), MC_CHANNELS):
        bases = (None, *operator_catalog(get_family(name).dim))
        ops += [Exact(name, stages, basis) for stages in EXACT_STAGE_SETS for basis in bases]
        ops.append(sampled)
    return tuple(ops)


def round_ops(workload: str) -> tuple:
    """The operations of one round: the workload's own and the other kinds'
    slices, each kind spread evenly over the round.

    Timings of one kind then sample many moments of the round rather than a
    few stretches, which matters on a machine whose speed changes from one
    fraction of a second to the next."""
    own = {
        "cli-sessions": ("cli", CLI_SESSIONS),
        "leakage-table": ("leakage", _leakage_table()),
        "long-key-sift": ("sift", SIFT_KEYS),
        "transcript-runs": ("runs", tuple(
            Runs(name, channel, TRANSCRIPT_REPS)
            for name in tristage.family_names() for channel in TRANSCRIPT_CHANNELS)),
    }
    kind, ops = own[workload]
    kinds = [ops, *(sliced for other, sliced in SLICES.items() if other != kind)]
    placed = sorted(((i + 0.5) / len(group), k, i)
                    for k, group in enumerate(kinds) for i in range(len(group)))
    return tuple(kinds[k][i] for _, k, i in placed)


def channel(family_name: str, eve_stages, eve_basis, noise: float) -> ChannelContext:
    """The program's channel object for one scenario."""
    eve = None
    if eve_stages:
        rotation = None
        if eve_basis is not None:
            rotation = operator_catalog(get_family(family_name).dim)[eve_basis]
        eve = EveStrategy(stages={StageLabel(s) for s in eve_stages}, pre_rotation=rotation)
    return ChannelContext(eve=eve, noise=NoiseModel(noise) if noise else None)


def transcript_channel(family_name: str, channel_name: str) -> tuple:
    """(Eve's stages, basis label, noise) of a transcript channel for a family."""
    stages, rotated, noise = TRANSCRIPT_CHANNELS[channel_name]
    basis = ROTATION[get_family(family_name).dim] if rotated else None
    return stages, basis, noise


def prepare(ops) -> None:
    """Build what the operations use before the first timed call.

    That is the operator families, the channels, the MAP decision tables of
    every eavesdropped scenario, and the CLI parser with its validated
    configurations.
    """
    from tristage import analysis, cli

    for op in ops:
        if isinstance(op, CliSpec):
            config = cli.parse_arguments(op.argv(0))
            scenario = channel(config.family, config.eve_stages, config.eve_basis, config.noise)
            if scenario.eve is not None:
                analysis.map_guesser(get_family(config.family), scenario.eve)
        elif isinstance(op, (Exact, MonteCarlo)):
            noise = op.noise if isinstance(op, MonteCarlo) else 0.0
            scenario = channel(op.family, op.eve_stages, op.eve_basis, noise)
            analysis.map_decision_table(get_family(op.family), scenario.eve)
        elif isinstance(op, Runs):
            channel(op.family, *transcript_channel(op.family, op.channel))
