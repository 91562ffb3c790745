"""Exact and sampled statistics for eavesdropped protocol runs.

Both routes read the exact law `protocol._law`, which enumerates every
operator pair, basis secret, eavesdropper measurement branch and noise flip
pattern with its exact weight.  `exact_analysis` reads its closed-form
rates; `monte_carlo_analysis` draws each trial's record code and Bob's
outcome from its joint law, one uniform per trial, and estimates the same
rates from the draws.  Tests check the law against independent per-run
simulations: `protocol.run_three_stage` and a per-row numpy reference.

One enumeration covers every basis secret at once, and the law keeps the
last one: calls whose channel (family, Eve and noise) equals that of the
call before (a sweep over secrets, a MAP table followed by exact rates, or
sessions) reuse it, whether the objects are the same or were built
separately.  The law carries every basis secret's exact rates, and every
enumeration checks that each secret's branch probabilities sum to one.

The eavesdropper's guess is maximum-a-posteriori on the channel as
configured, noise included: from the exact joint law of (secret, records),
each observable record tuple maps to the most likely secret index (lowest
index on ties).

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
from typing import Callable

import numpy as np

from .adversary import ChannelContext, EveStrategy, NoiseModel
from .opsets import OperatorFamily
from .protocol import _draw, _hamming_table, _law
from .qcore import StateVector, is_basis_state

@dataclass(frozen=True)
class ExactAnalysis:
    """Closed-form rates for one (family, strategy, secret) scenario.

    The guess rate is None on a channel without Eve.  A CLI report averages
    the rates over the basis secrets and sums the branch counts.
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


def _secret_index(family: OperatorFamily, secret: StateVector) -> int:
    if family.dim != secret.dim:
        raise ValueError(f"family dim {family.dim} does not match secret dim {secret.dim}")
    index = is_basis_state(secret)
    if index is None:
        raise ValueError("the analysis needs a computational basis secret")
    return index


def map_decision_table(family: OperatorFamily, eve: EveStrategy, *,
                       noise: NoiseModel | None = None) -> dict:
    """MAP guess per observable record tuple, from the exact joint law of
    the channel with Eve and ``noise``, the bit-flip noise after her.

    Built by enumerating every basis secret with uniform prior; ties break
    toward the lowest secret index, making the table deterministic.

    Raises:
        ValueError: If ``eve`` is None.
        RuntimeError: If the enumerated branch probabilities of any basis
            secret fail to sum to one.
    """
    if eve is None:
        raise ValueError("no eavesdropper: pass an EveStrategy, not None")
    law = _law(family, eve, noise)
    dim, count = family.dim, len(eve.stages)
    return {tuple(int(c) // dim ** (count - 1 - i) % dim for i in range(count)):
            int(law.guess_by_code[c]) for c in law.codes}


def map_guesser(family: OperatorFamily, eve: EveStrategy, *,
                noise: NoiseModel | None = None) -> Callable[[tuple], int]:
    """Callable form of `map_decision_table`; unseen records guess index 0."""
    table = map_decision_table(family, eve, noise=noise)
    return lambda records: table.get(tuple(records), 0)


def exact_analysis(family: OperatorFamily, eve: EveStrategy | None, secret: StateVector, *,
                   noise: NoiseModel | None = None) -> ExactAnalysis:
    """Compute disturbance and leakage rates by exhaustive enumeration.

    Enumerates all operator pairs with uniform weights and, inside each, the
    full tree of eavesdropper collapse outcomes and noise flip patterns with
    exact probabilities.

    Args:
        secret: A computational basis state of the family's dimension.
        noise: The bit-flip noise after Eve on every pass, or None.

    Raises:
        ValueError: If dimensions disagree or the secret is not a basis state.
        RuntimeError: If the enumerated branch probabilities of any basis
            secret fail to sum to one, which would indicate a broken
            enumeration.
    """
    secret_index = _secret_index(family, secret)
    return ExactAnalysis(*_law(family, eve, noise).rates[secret_index])


def monte_carlo_analysis(
    family: OperatorFamily,
    ctx: ChannelContext,
    secret: StateVector,
    trials: int,
    seed: int,
) -> MonteCarloAnalysis:
    """Estimate the scenario rates by simulating many independent runs.

    Each trial draws its record code and Bob's outcome together from the
    exact joint law of the channel given the secret, with one uniform from a
    seeded stream; the law covers the two operators, the collapse at every
    intercepted stage and the per-qubit noise flips of every transmission.

    Standard errors: the bit-error rate uses the sample standard error of
    the per-trial bit-error fractions; the whole-block rates use the
    binomial formula.

    Raises:
        ValueError: If dimensions disagree, the secret is not a basis
            state, or ``trials`` < 1.
        RuntimeError: If the enumerated branch probabilities of any basis
            secret fail to sum to one.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    secret_index = _secret_index(family, secret)
    law = _law(family, ctx.eve, ctx.noise)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    record_codes, outcomes = divmod(_draw(law.joint[secret_index], trials, rng), family.dim)
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
        right = law.guess_by_code[record_codes] == secret_index
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
