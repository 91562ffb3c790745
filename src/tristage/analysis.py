"""Exact and sampled statistics for eavesdropped protocol runs.

Both routes read values the protocol module computes from its pipeline.
`exact_analysis` reads the exact law `protocol._law`: every operator pair,
basis secret and eavesdropper measurement branch with its Born-rule weight,
giving closed-form rates.  `monte_carlo_analysis` reads the outcomes and
record codes of `protocol.sample_passes`, one draw per random event of a
per-run simulation, without per-run overhead.  Tests drive both against
each other and against the per-run reference `protocol.run_three_stage`.

One enumeration covers every basis secret at once, and the law keeps the
last one: calls whose family and Eve equal those of the call before (a
sweep over secrets, a MAP table followed by exact rates, or sessions)
reuse it, whether the objects are the same or were built separately.  The
per-secret exact rates are kept the same way and computed only when
`exact_analysis` asks for them, so MAP tables, sessions and Monte Carlo
runs never pay for them.

The eavesdropper's guess is maximum-a-posteriori on a noise-free channel:
from the exact joint distribution of (secret, records) under uniform
secrets and operator choices, each observable record tuple maps to the most
likely secret index (lowest index on ties).  The table ignores noise, so on
a noisy channel it under-reports leakage: for ``dft`` with Eve at stages
1,2,3 and flip probability 0.1 its guess rate, averaged over secrets, is
0.554 where the noise-aware MAP rate is 0.625.

Rates reported:

* ``bit_error_rate``: expected fraction of secret bits Bob reads wrongly.
* ``detection_relevant_disturbance``: probability Bob's whole outcome
  differs from the secret, i.e. the per-block chance of a detectable error.
* ``eve_guess_success_rate``: probability the MAP guess equals the whole
  secret.

For one-qubit families the first two coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable

import numpy as np

from .adversary import ChannelContext, EveStrategy
from .opsets import OperatorFamily
from .protocol import _Branches, _law, sample_passes
from .qcore import StateVector, is_basis_state

#: Conservation tolerance for the enumerated branch probabilities.
_CONSERVATION_TOL = 1e-12


@cache
def _hamming_table(dim: int) -> np.ndarray:
    return np.array([[(i ^ j).bit_count() for j in range(dim)] for i in range(dim)])


@dataclass(frozen=True)
class ExactAnalysis:
    """Closed-form rates for one (family, strategy, secret) scenario.

    A CLI report averages them over the basis secrets and sums the branch
    counts; there the guess rate is None on a channel without Eve.
    """

    bit_error_rate: float
    detection_relevant_disturbance: float
    eve_guess_success_rate: float | None
    branch_count: int


@dataclass(frozen=True)
class MonteCarloAnalysis:
    """Sampled rates with standard errors for the same scenario."""

    trials: int
    bit_error_rate: float
    bit_error_rate_stderr: float
    detection_relevant_disturbance: float
    detection_relevant_disturbance_stderr: float
    eve_guess_success_rate: float | None
    eve_guess_success_rate_stderr: float | None


def _require_eve(eve: EveStrategy | None) -> None:
    if eve is None:
        raise ValueError("no eavesdropper: pass an EveStrategy, not None")


def _secret_index(family: OperatorFamily, secret: StateVector) -> int:
    if family.dim != secret.dim:
        raise ValueError(f"family dim {family.dim} does not match secret dim {secret.dim}")
    index = is_basis_state(secret)
    if index is None:
        raise ValueError("the analysis needs a computational basis secret")
    return index


def _rates(family: OperatorFamily, branches: _Branches) -> tuple[ExactAnalysis, ...]:
    """`ExactAnalysis` of every basis secret, from one enumeration."""
    num_qubits = family.dim.bit_length() - 1
    rates = []
    for index, hamming in enumerate(_hamming_table(family.dim)):
        mine = branches.secrets == index
        probs, dists = branches.probs[mine], branches.dists[mine]
        total = float(probs.sum())
        if abs(total - 1.0) > _CONSERVATION_TOL:
            raise RuntimeError(
                f"branch probabilities of secret {index} sum to {total!r}, expected 1")
        guessed = branches.guess_by_code[branches.codes[mine]] == index
        rates.append(ExactAnalysis(
            bit_error_rate=float(probs @ (dists @ hamming)) / num_qubits,
            detection_relevant_disturbance=float(probs @ (1.0 - dists[:, index])),
            eve_guess_success_rate=float(probs[guessed].sum()),
            branch_count=int(mine.sum()),
        ))
    return tuple(rates)


@lru_cache(maxsize=1)
def _exact(family: OperatorFamily, eve: EveStrategy) -> tuple[ExactAnalysis, ...]:
    """Every basis secret's rates, filled only when exact rates are asked for."""
    return _rates(family, _law(family, eve))


def map_decision_table(family: OperatorFamily, eve: EveStrategy) -> dict:
    """MAP guess per observable record tuple, from the exact joint law.

    Built by enumerating every basis secret with uniform prior; ties break
    toward the lowest secret index, making the table deterministic.

    Raises:
        ValueError: If ``eve`` is None.
    """
    _require_eve(eve)
    branches = _law(family, eve)
    dim, count = family.dim, len(eve.stages)
    return {tuple(int(c) // dim ** (count - 1 - i) % dim for i in range(count)):
            int(branches.guess_by_code[c]) for c in np.unique(branches.codes)}


def map_guesser(family: OperatorFamily, eve: EveStrategy) -> Callable[[tuple], int]:
    """Callable form of `map_decision_table`; unseen records guess index 0."""
    table = map_decision_table(family, eve)
    return lambda records: table.get(tuple(records), 0)


def exact_analysis(
    family: OperatorFamily, eve: EveStrategy, secret: StateVector
) -> ExactAnalysis:
    """Compute disturbance and leakage rates by exhaustive enumeration.

    Enumerates all operator pairs with uniform weights and, inside each, the
    full tree of eavesdropper collapse outcomes with exact probabilities.

    Args:
        secret: A computational basis state of the family's dimension.

    Raises:
        ValueError: If ``eve`` is None, dimensions disagree or the secret is
            not a basis state.
        RuntimeError: If the enumerated branch probabilities of any basis
            secret fail to sum to one, which would indicate a broken
            enumeration.
    """
    _require_eve(eve)
    secret_index = _secret_index(family, secret)
    return _exact(family, eve)[secret_index]


def monte_carlo_analysis(
    family: OperatorFamily,
    ctx: ChannelContext,
    secret: StateVector,
    trials: int,
    seed: int,
) -> MonteCarloAnalysis:
    """Estimate the scenario rates by simulating many independent runs.

    Each trial draws the two operators, collapses the state at every
    intercepted stage, applies per-qubit noise flips per transmission, and
    measures the recovered state, all from one seeded stream.  Trials are
    simulated together in chunks of rows that share a table of states,
    which changes nothing statistically.

    Standard errors: the bit-error rate uses the sample standard error of
    the per-trial bit-error fractions; the whole-block rates use the
    binomial formula.

    Raises:
        ValueError: If dimensions disagree, the secret is not a basis
            state, or ``trials`` < 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    secret_index = _secret_index(family, secret)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    secrets = np.broadcast_to(secret_index, trials)
    outcomes, record_codes = sample_passes(family, ctx, secrets, rng)
    bit_fractions = _hamming_table(family.dim)[secret_index][outcomes] / secret.num_qubits
    bit_error = float(bit_fractions.mean())
    bit_error_stderr = (
        float(bit_fractions.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    )
    wrong_block = outcomes != secret_index
    disturbance = float(wrong_block.mean())
    disturbance_stderr = math.sqrt(disturbance * (1.0 - disturbance) / trials)
    success = success_stderr = None
    if ctx.eve is not None:
        right = _law(family, ctx.eve).guess_by_code[record_codes] == secret_index
        success = float(right.mean())
        success_stderr = math.sqrt(success * (1.0 - success) / trials)
    return MonteCarloAnalysis(
        trials=trials,
        bit_error_rate=bit_error,
        bit_error_rate_stderr=bit_error_stderr,
        detection_relevant_disturbance=disturbance,
        detection_relevant_disturbance_stderr=disturbance_stderr,
        eve_guess_success_rate=success,
        eve_guess_success_rate_stderr=success_stderr,
    )
