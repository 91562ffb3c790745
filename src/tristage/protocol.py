"""The three-stage exchange, the exact law of a channel and key sessions.

One protocol run moves a secret basis state across the channel three times:
Alice applies her secret operator and sends, Bob applies his and sends back,
Alice undoes hers and forwards, and Bob undoes his before measuring.  When
the two operators commute up to a global phase the recovered state equals
the secret up to that phase, so Bob's computational measurement reads the
secret bits exactly on a clean channel.

`run_three_stage` executes one run on state objects and keeps its
transcript.  `_enumerate` runs the same passes on every operator pair and
basis secret at once and expands every branch of the random events, Eve's
collapses and the noise flips, with its exact weight.  A row is an integer
id into a small table of the distinct states the rows can reach, so the
operators, Eve's re-preparation and the noise flips act on the table, never
row by row.

Eve's record of a run is an integer code, her outcomes in base ``dim``,
first intercepted stage most significant.  `_enumerate` folds its branches
into the exact law of a channel (family, Eve and noise): her MAP guess for
every code, the codes that occur, every basis secret's exact rates and the
joint law of (record code, Bob's outcome) per secret.  `_law` keeps the law
of the last channel, compared by value.  Key sessions and Monte Carlo
analysis draw their runs from the joint law with `_draw`, one uniform per
run, and score Eve by its ``guess_by_code``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .adversary import STAGES, ChannelContext, EveStrategy, NoiseModel, StageLabel, transmit
from .opsets import OperatorFamily, commutation_phase, get_family
from .qcore import (
    DEFAULT_TOL,
    Outcome,
    StateVector,
    UnitaryOperator,
    adjoint,
    apply,
    equal_up_to_global_phase,
    measure,
)


class NonCommutingOperatorsError(ValueError):
    """Raised when a run pairs operators that do not commute up to phase."""


@dataclass(frozen=True)
class Transcript:
    """Complete record of one protocol run.

    ``wire_states`` holds the state as it left the sender at each stage,
    ``delivered_states`` the state after channel interference.  Treat all
    fields as read-only.
    """

    secret: StateVector
    alice_op: UnitaryOperator
    bob_op: UnitaryOperator
    wire_states: dict
    delivered_states: dict
    recovered: StateVector
    measured: Outcome
    eve_records: tuple


def run_three_stage(
    secret: StateVector,
    alice_op: UnitaryOperator,
    bob_op: UnitaryOperator,
    channel: ChannelContext,
    rng: np.random.Generator,
) -> Transcript:
    """Execute one three-stage exchange and measure the recovered state.

    Args:
        secret: The state Alice wants to convey (normally a basis state).
        alice_op: Alice's secret operator, undone at stage three.
        bob_op: Bob's secret operator, undone before the final measurement.
        channel: Interference applied to each of the three transmissions.
        rng: Random stream for channel randomness and the final measurement.

    Returns:
        A `Transcript` of every intermediate state plus the final outcome.

    Raises:
        NonCommutingOperatorsError: If the operator pair does not commute up
            to a global phase, which the protocol requires.
        ValueError: If dimensions disagree.
    """
    if not secret.dim == alice_op.dim == bob_op.dim:
        raise ValueError(
            f"dims disagree: secret {secret.dim}, "
            f"alice {alice_op.dim}, bob {bob_op.dim}"
        )
    if commutation_phase(alice_op, bob_op) is None:
        raise NonCommutingOperatorsError(
            f"operators {alice_op.label or '<alice>'} and {bob_op.label or '<bob>'} "
            "do not commute up to a global phase"
        )
    wire: dict = {}
    delivered: dict = {}
    records = []

    def send(stage: StageLabel, psi: StateVector) -> StateVector:
        wire[stage] = psi
        arrived, record = transmit(stage, psi, channel, rng)
        delivered[stage] = arrived
        if record is not None:
            records.append((stage, record))
        return arrived

    state = send(StageLabel.ALICE_TO_BOB_1, apply(alice_op, secret))
    state = send(StageLabel.BOB_TO_ALICE_2, apply(bob_op, state))
    state = send(StageLabel.ALICE_TO_BOB_3, apply(adjoint(alice_op), state))
    recovered = apply(adjoint(bob_op), state)
    measured, _ = measure(recovered, rng)
    return Transcript(
        secret=secret,
        alice_op=alice_op,
        bob_op=bob_op,
        wire_states=wire,
        delivered_states=delivered,
        recovered=recovered,
        measured=measured,
        eve_records=tuple(records),
    )


def verify_recovery(transcript: Transcript, tol: float = DEFAULT_TOL) -> bool:
    """True when the recovered state equals the secret up to a global phase."""
    return equal_up_to_global_phase(transcript.recovered, transcript.secret, tol)


def _compact(table: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep only the table rows some row refers to, once the table outgrows the rows."""
    if len(table) > len(ids):
        kept, ids = np.unique(ids, return_inverse=True)
        table = table[kept]
    return table, ids


#: Branches below this probability are dropped from the enumeration.
_PRUNE = 1e-15


def _branches(branch: np.ndarray):
    """Every (row, outcome) of ``branch`` above `_PRUNE`, with its weight."""
    take, outcomes = np.nonzero(branch > _PRUNE)
    return take, outcomes, branch[take, outcomes]


#: Branch probabilities of each secret must sum to one within this tolerance.
_CONSERVATION_TOL = 1e-12


@cache
def _hamming_table(dim: int) -> np.ndarray:
    return np.array([[(i ^ j).bit_count() for j in range(dim)] for i in range(dim)])


class _Law(NamedTuple):
    """The exact law of one channel, over every basis secret.

    ``guess_by_code`` holds Eve's MAP guess for every record code, ``codes``
    the codes that occur (only 0 without Eve), ``rates[s]`` basis secret
    s's bit error rate, detection-relevant disturbance, Eve's guess success
    rate (None without Eve) and branch count, and ``joint[s, c, k]`` the
    probability of record code c and Bob's outcome k given secret s.
    """

    guess_by_code: np.ndarray
    codes: np.ndarray
    rates: tuple
    joint: np.ndarray


def _enumerate(family: OperatorFamily, eve: EveStrategy | None, noise: NoiseModel | None) -> _Law:
    """Run the three passes on every (Alice, Bob, basis secret) row, with exact weights.

    Each row starts with weight 1/count^2 and holds only an integer id into
    a table of the distinct states the rows can reach: operators, Eve's
    re-preparation and noise flips act on the table, and per row the
    passes only move ids and weights.  At each stage Eve intercepts, a row
    branches into her outcomes, weighted by their Born probabilities in her
    basis, and carries on from her re-prepared state; her outcomes
    accumulate into a record code.  On a noisy channel a row then branches
    into every flip mask (first qubit most significant), weighted p^k
    (1-p)^(q-k) for a flip of k of q qubits.  Branches below `_PRUNE` are
    dropped.  Once a flip has come, each collapse merges the rows with
    equal input row and record code, which share their whole future.

    The rows fold into the (record code, secret) likelihood, whose row
    maximum is the MAP guess (lowest index on ties), into Bob's outcome law
    per secret and into the joint law of record code and outcome.

    Raises:
        ValueError: If Eve's pre-rotation does not match the family dimension.
        RuntimeError: If the branch probabilities of a basis secret fail to
            sum to one, which would indicate a broken enumeration.
    """
    dim, count = family.dim, len(family)
    rotation = eve.pre_rotation if eve is not None else None
    if rotation is not None and rotation.dim != dim:
        raise ValueError(f"pre-rotation dim {rotation.dim} does not match family dim {dim}")
    # Table rows are transposed states: applying U maps row -> row @ U.T.  Eve
    # reads row @ R.T and forwards row k of conj(R), the transposed R†|k>.
    measure_t = rotation.matrix.T if rotation is not None else None
    reprep = rotation.matrix.conj() if rotation is not None else np.eye(dim, dtype=complex)
    attacked = [eve is not None and eve.attacks(stage) for stage in STAGES]
    code_range = dim ** sum(attacked)
    members = np.stack([m.matrix for m in family.members])
    # Stage k's member m maps table row t to row t*count + m of
    # (table @ post).reshape(-1, dim): Bob's B, Alice's A†, Bob's B†.
    posts = [
        np.ascontiguousarray(post.transpose(1, 0, 2).reshape(dim, -1))
        for post in (members.transpose(0, 2, 1), members.conj(), members.conj())
    ]
    # flips[m] permutes a row's entries as flipping the qubits set in mask m.
    flips = np.arange(dim) ^ np.arange(dim)[:, None]
    if noise is not None:
        p, k = noise.bit_flip_probability, _hamming_table(dim)[0]
        flip_law = p**k * (1.0 - p) ** (dim.bit_length() - 1 - k)
    alice_idx, bob_idx, secrets = np.indices((count, count, dim)).reshape(3, -1)
    rows, weights = np.arange(secrets.size), np.full(secrets.size, 1.0 / count**2)
    codes = np.zeros(secrets.size, dtype=np.int64)
    table, ids = _compact(members.transpose(0, 2, 1).reshape(-1, dim), alice_idx * dim + secrets)
    for stage, (hit, post, member_idx) in enumerate(
        zip(attacked, posts, (bob_idx, alice_idx, bob_idx))
    ):
        if hit:
            amps = table @ measure_t if measure_t is not None else table
            take, outcomes, weights = _branches(weights[:, None] * (np.abs(amps) ** 2)[ids])
            rows, codes = rows[take], codes[take] * dim + outcomes
            if noise is not None and stage > 0:
                keys, merged = np.unique(rows * code_range + codes, return_inverse=True)
                weights = np.bincount(merged, weights=weights)
                rows, codes = np.divmod(keys, code_range)
                outcomes = codes % dim
            table, ids = _compact(reprep, outcomes)
        if noise is not None:
            take, masks, weights = _branches(weights[:, None] * flip_law)
            rows, codes, ids = rows[take], codes[take], ids[take]
            if masks.any():
                ids = masks * len(table) + ids
                table, ids = _compact(table[:, flips].swapaxes(0, 1).reshape(-1, dim), ids)
        ids = ids * count + member_idx[rows]
        table, ids = _compact((table @ post).reshape(-1, dim), ids)
    final, secrets = np.abs(table) ** 2, secrets[rows]
    likelihood = np.bincount(codes * dim + secrets, weights=weights,
                             minlength=code_range * dim).reshape(-1, dim)
    total = likelihood.sum(axis=0)
    for index, mass in enumerate(total.tolist()):
        if abs(mass - 1.0) > _CONSERVATION_TOL:
            raise RuntimeError(
                f"branch probabilities of secret {index} sum to {mass!r}, expected 1")
    # Row s: each outcome's probability given secret s.
    outcome_law = np.bincount(secrets * len(final) + ids, weights=weights,
                              minlength=dim * len(final)).reshape(dim, -1) @ final
    joint = np.bincount((secrets * code_range + codes) * len(final) + ids, weights=weights,
                        minlength=dim * code_range * len(final)).reshape(-1, len(final)) @ final
    joint = joint.reshape(dim, code_range, dim)
    joint /= joint.sum(axis=(1, 2), keepdims=True)
    joint.setflags(write=False)  # `_law` hands the same array to every caller
    guess_by_code = likelihood.argmax(axis=1)
    # Each rate is part of a secret's mass over the whole, summed alike, so it is in [0, 1].
    hamming, outcome_mass = _hamming_table(dim), outcome_law.sum(axis=1)
    guessed = guess_by_code[:, None] == np.arange(dim)
    rates = zip(
        ((outcome_law * hamming).sum(axis=1) / (dim.bit_length() - 1) / outcome_mass).tolist(),
        ((outcome_law * (hamming > 0)).sum(axis=1) / outcome_mass).tolist(),
        ((likelihood * guessed).sum(axis=0) / total).tolist() if eve else [None] * dim,
        np.bincount(secrets, minlength=dim).tolist(),
    )
    return _Law(guess_by_code, np.flatnonzero(likelihood.any(axis=1)), tuple(rates), joint)


def _draw(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` flat indices into ``probs``, each from one uniform: the first
    cell whose running total, over the whole, exceeds the uniform.  The last
    total is exactly one, so a cell of zero probability is never drawn."""
    cumulative = np.cumsum(probs)
    return np.searchsorted(cumulative / cumulative[-1], rng.random(n), side="right")


@lru_cache(maxsize=1)
def _law(family: OperatorFamily, eve: EveStrategy | None, noise: NoiseModel | None) -> _Law:
    """The enumeration of the last channel, compared by value."""
    return _enumerate(family, eve, noise)


@dataclass(frozen=True)
class SessionConfig:
    """Configuration of a multi-block key session."""

    family_name: str
    blocks: int
    eve_strategy: EveStrategy | None = None
    noise: NoiseModel | None = None
    seed: int = 0

    def __post_init__(self):
        if self.blocks < 1:
            raise ValueError(f"blocks must be >= 1, got {self.blocks}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SessionReport:
    """Result of a key session: both bit strings and the derived rates."""

    alice_bits: tuple
    bob_bits: tuple
    bit_error_rate: float
    eve_guess_success_rate: float | None


def run_key_session(config: SessionConfig) -> SessionReport:
    """Run a session of independent protocol blocks and collect key bits.

    Per block: Alice draws a uniformly random basis secret (one bit for
    dimension-2 families, two bits for dimension-4), both parties draw
    family members uniformly and independently, and one three-stage run
    executes.  Bob's bits come from measuring each recovered state.  Use
    `run_three_stage` for the transcript of a single run.

    Each block draws its secret, Eve's record code and Bob's outcome
    together from the exact law of the channel, with one uniform from a
    stream seeded by the session seed, so identical configs reproduce
    identical reports bit for bit.  When Eve is active, each block's record
    code is scored with her MAP guess from the same law, as Monte Carlo
    analysis scores it, and the report carries her empirical guess success
    rate; otherwise that rate is None.

    Raises:
        ValueError: If the family name is unknown, or Eve's pre-rotation
            does not match the family dimension.
        RuntimeError: If the enumerated branch probabilities of any basis
            secret fail to sum to one.
    """
    family = get_family(config.family_name)
    dim = family.dim
    law = _law(family, config.eve_strategy, config.noise)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed))
    secrets, codes, outcomes = np.unravel_index(
        _draw(law.joint, config.blocks, rng), law.joint.shape)
    # Bits of each index, most significant (qubit 0) first.
    shifts = np.arange(dim.bit_length() - 2, -1, -1)
    alice_bits = (secrets[:, None] >> shifts & 1).ravel()
    bob_bits = (outcomes[:, None] >> shifts & 1).ravel()
    success_rate = None
    if config.eve_strategy is not None:
        success_rate = int((law.guess_by_code[codes] == secrets).sum()) / config.blocks
    return SessionReport(
        alice_bits=tuple(alice_bits.tolist()),
        bob_bits=tuple(bob_bits.tolist()),
        bit_error_rate=int((alice_bits != bob_bits).sum()) / alice_bits.size,
        eve_guess_success_rate=success_rate,
    )
