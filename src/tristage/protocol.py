"""The three-stage exchange, the exact law of a channel and key sessions.

One protocol run moves a secret basis state across the channel three times:
Alice applies her secret operator and sends, Bob applies his and sends back,
Alice undoes hers and forwards, and Bob undoes his before measuring.  When
the two operators commute up to a global phase the recovered state equals
the secret up to that phase, so Bob's computational measurement reads the
secret bits exactly on a clean channel.

`run_three_stage` executes one run on state objects and keeps its
transcript.  `_enumerate` runs the same passes on density matrices, for
every operator pair and basis secret at once.  Eve's intercept-resend
measures and re-prepares, so for each operator pair a run is a Markov chain
through her outcomes: each stretch between two measurements is a
``dim x dim`` stochastic matrix, and the bit-flip noise is a fixed linear
map inside it that does not branch.

Eve's record of a run is an integer code, her outcomes in base ``dim``,
first intercepted stage most significant.  `_enumerate` multiplies the
matrices along every record code into the exact law of a channel (family,
Eve and noise): her MAP guess for every code, the codes that occur, every
basis secret's exact rates and the joint law of (record code, Bob's
outcome) per secret.  Nothing is pruned, so every event of positive
probability can be drawn.  `_law` keeps the law of the last channel,
compared by value.  Key sessions and Monte Carlo analysis draw their runs
from the joint law, one uniform per run, and score Eve by its
``guess_by_code``: sessions take each run's cell from `_draw`, a chunk of
runs at a time, and Monte Carlo takes only how many runs fell in each cell,
from `_draw_counts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .adversary import STAGES, ChannelContext, EveStrategy, NoiseModel, StageLabel, transmit
from .opsets import OperatorFamily, commutation_phase, get_family
from .qcore import (
    Outcome,
    StateVector,
    UnitaryOperator,
    _check_count,
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


def verify_recovery(transcript: Transcript) -> bool:
    """True when the recovered state equals the secret up to a global phase."""
    return equal_up_to_global_phase(transcript.recovered, transcript.secret)


#: Branch probabilities of each secret must sum to one within this tolerance.
_CONSERVATION_TOL = 1e-12

#: Likelihoods within this of a record code's maximum tie; the lowest secret wins.
_TIE_TOL = 1e-12

#: Paths above this probability count as branches.
_BRANCH_FLOOR = 1e-15

#: Uniforms per chunk of `_draw_counts` and `run_key_session`: 64 KiB of doubles.
_CHUNK = 8192


@cache
def _hamming_table(dim: int) -> np.ndarray:
    table = np.array([[(i ^ j).bit_count() for j in range(dim)] for i in range(dim)])
    table.setflags(write=False)  # the cache hands the same array to every caller
    return table


def _superops(u: np.ndarray) -> np.ndarray:
    """``kron(U, conj(U))`` for each U of a stack: vec(ρ) -> vec(U ρ U†) on row-major vec."""
    count, dim = u.shape[0], u.shape[-1]
    return np.einsum("nij,nkl->nikjl", u, u.conj()).reshape(count, dim * dim, dim * dim)


@lru_cache(maxsize=8)
def _member_superops(family: OperatorFamily) -> np.ndarray:
    """Each member's superoperator, compared by value."""
    ops = _superops(np.stack([m.matrix for m in family.members]))
    ops.setflags(write=False)
    return ops


@lru_cache(maxsize=16)
def _frame(rotation: UnitaryOperator | None, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eve's measurement rows, vec(ρ) -> P(outcome k), and her re-prepared
    columns vec(R†|k><k|R), in the basis of ``rotation``, compared by value."""
    r = rotation.matrix if rotation is not None else np.eye(dim)
    rows = _superops(r[None])[0, :: dim + 1]
    rows.setflags(write=False)
    return rows, rows.conj().T


class _Law(NamedTuple):
    """The exact law of one channel, over every basis secret.

    ``guess_by_code`` holds Eve's MAP guess for every record code, ``codes``
    the codes of positive likelihood (only 0 without Eve), ``rates[s]``
    basis secret s's bit error rate, detection-relevant disturbance, Eve's
    guess success rate (None without Eve) and branch count, and
    ``joint[s, c, k]`` the probability of record code c and Bob's outcome k
    given secret s.
    """

    guess_by_code: np.ndarray
    codes: np.ndarray
    rates: tuple
    joint: np.ndarray


def _enumerate(family: OperatorFamily, eve: EveStrategy | None, noise: NoiseModel | None) -> _Law:
    """The exact law of a channel, as a chain of transfer matrices per operator pair.

    A state is its density matrix as a row-major vector, and each operator
    U acts on it as ``kron(U, conj(U))``.  Eve measures and re-prepares, so
    she cuts every run into segments: a segment carries its input, the
    secret or her last outcome, through the operators and the noise to her
    next outcome, or to Bob's at the end, as a ``dim x dim`` stochastic
    matrix per (Alice, Bob) pair.  Noise is one linear map, the flip of
    every mask weighted p^k (1-p)^(q-k) for k of q qubits, so it does not
    branch.  A record code's path is the product of Eve's segments along
    it, and the joint law sums each path times Bob's segment over the
    pairs, each of weight 1/count^2.  Nothing is pruned; each segment is
    clipped at 0 against round-off.

    The joint folds into the (record code, secret) likelihood, whose
    lowest index within `_TIE_TOL` of the maximum is the MAP guess, and
    into Bob's outcome law per secret.  A secret's branch count is its
    (pair, record code) paths above `_BRANCH_FLOOR`.

    Raises:
        ValueError: If Eve's pre-rotation does not match the family dimension.
        RuntimeError: If the branch probabilities of a basis secret fail to
            sum to one, which would indicate a broken enumeration.
    """
    dim, count = family.dim, len(family)
    rotation = eve.pre_rotation if eve is not None else None
    if rotation is not None and rotation.dim != dim:
        raise ValueError(f"pre-rotation dim {rotation.dim} does not match family dim {dim}")
    measure_rows, reprepared = _frame(rotation, dim)
    forward = _member_superops(family)
    inverse = forward.conj().swapaxes(1, 2)
    if noise is not None:
        p, k = noise.bit_flip_probability, _hamming_table(dim)[0]
        flips = np.eye(dim)[np.arange(dim) ^ np.arange(dim)[:, None]]
        noise_op = np.einsum("m,mij,mkl->ikjl", p**k * (1.0 - p) ** (dim.bit_length() - 1 - k),
                             flips, flips).reshape(dim * dim, dim * dim)
    # Axes (Alice, Bob, vec(ρ), input); Alice's A|s><s|A† is column s*(dim+1).
    state, segments = forward[:, None, :, :: dim + 1], []
    for stage, post in zip(STAGES, (forward[None], inverse[:, None], inverse[None])):
        if eve is not None and eve.attacks(stage):
            segments.append(np.maximum((measure_rows @ state).real, 0.0))
            state = reprepared
        if noise is not None:
            state = noise_op @ state
        state = post @ state
    final = np.maximum(state[..., :: dim + 1, :].real, 0.0)
    # paths[a, b, s, k1, ..., km]: the pair's probability of Eve's outcomes k1..km.
    paths = np.ones((count, count, dim))
    for segment in segments:
        paths = np.einsum("ab...i,aboi->ab...io", paths, segment)
    joint = np.einsum("ab...i,abki->...ik", paths, final).reshape(dim, -1, dim) / count**2
    # Contiguous, so that the whole and each part below are summed in one order.
    likelihood = np.ascontiguousarray(joint.sum(axis=2).T)
    total = likelihood.sum(axis=0)
    for index, mass in enumerate(total.tolist()):
        if abs(mass - 1.0) > _CONSERVATION_TOL:
            raise RuntimeError(
                f"branch probabilities of secret {index} sum to {mass!r}, expected 1")
    outcome_law = joint.sum(axis=1)  # row s: each outcome's probability given secret s
    joint /= joint.sum(axis=(1, 2), keepdims=True)
    joint.setflags(write=False)  # `_law` hands the same array to every caller
    guess_by_code = (likelihood >= likelihood.max(axis=1, keepdims=True) - _TIE_TOL).argmax(axis=1)
    branches = (paths > _BRANCH_FLOOR * count**2).reshape(count * count, dim, -1)
    # Each rate is part of a secret's mass over the whole, summed alike, so it is in [0, 1].
    hamming, outcome_mass = _hamming_table(dim), outcome_law.sum(axis=1)
    guessed = guess_by_code[:, None] == np.arange(dim)
    rates = zip(
        ((outcome_law * hamming).sum(axis=1) / (dim.bit_length() - 1) / outcome_mass).tolist(),
        ((outcome_law * (hamming > 0)).sum(axis=1) / outcome_mass).tolist(),
        ((likelihood * guessed).sum(axis=0) / total).tolist() if eve else [None] * dim,
        np.count_nonzero(branches, axis=(0, 2)).tolist(),
    )
    return _Law(guess_by_code, np.flatnonzero(likelihood.any(axis=1)), tuple(rates), joint)


def _draw(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` flat indices into ``probs``, each from one uniform: the first
    cell whose running total, over the whole, exceeds the uniform.  The last
    total is exactly one, so a cell of zero probability is never drawn."""
    cumulative = np.cumsum(probs)
    return np.searchsorted(cumulative / cumulative[-1], rng.random(n), side="right")


def _draw_counts(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """How many of ``_draw(probs, n, rng)``'s cells fall in each cell of
    ``probs``, in its shape, from the same uniforms.

    The uniforms come `_CHUNK` at a time, and the generator's doubles
    form one stream however the calls cut it, so the counts, and the state
    the generator is left in, are those of the single draw.  A chunk's
    arrays take 64 KiB each, half of glibc's default threshold for giving an
    allocation its own mapping, so every chunk reuses heap memory, where the
    per-trial arrays of one draw of 10^5 trials are mapped afresh, and
    faulted in page by page, on every call."""
    counts = np.zeros(probs.size, dtype=np.int64)
    for start in range(0, n, _CHUNK):
        counts += np.bincount(_draw(probs, min(_CHUNK, n - start), rng), minlength=probs.size)
    return counts.reshape(probs.shape)


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
        _check_count("blocks", self.blocks, 1)
        _check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class SessionReport:
    """Result of a key session: both bit strings and the derived rates.

    The keys are read-only ``uint8`` arrays of 0 and 1, so compare them with
    `np.array_equal`; ``==`` on two reports is ambiguous."""

    alice_bits: np.ndarray
    bob_bits: np.ndarray
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
    identical reports bit for bit, and a longer session extends a shorter
    one.  The uniforms come `_CHUNK` at a time, as in `_draw_counts`, and
    each chunk's bits are written into the keys and its errors and Eve's
    hits counted, so beyond the keys memory does not grow with the blocks.
    When Eve is active, each block's record code is scored with her MAP
    guess from the same law, as Monte Carlo analysis scores it, and the
    report carries her empirical guess success rate; otherwise that rate is
    None.

    Raises:
        ValueError: If the family name is unknown, or Eve's pre-rotation
            does not match the family dimension.
        RuntimeError: If the enumerated branch probabilities of any basis
            secret fail to sum to one.
    """
    family = get_family(config.family_name)
    dim, blocks = family.dim, int(config.blocks)
    law = _law(family, config.eve_strategy, config.noise)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed))
    # Per cell of the joint: the bits of its secret and of Bob's outcome,
    # most significant (qubit 0) first, their Hamming distance and whether
    # Eve's guess from its record code is right.
    secrets, codes, outcomes = np.unravel_index(np.arange(law.joint.size), law.joint.shape)
    shifts = np.arange(dim.bit_length() - 2, -1, -1)
    alice_of_cell = (secrets[:, None] >> shifts & 1).astype(np.uint8)
    bob_of_cell = (outcomes[:, None] >> shifts & 1).astype(np.uint8)
    errors_of_cell = _hamming_table(dim)[secrets, outcomes]
    hit_of_cell = law.guess_by_code[codes] == secrets
    alice_bits = np.empty((blocks, shifts.size), np.uint8)
    bob_bits = np.empty((blocks, shifts.size), np.uint8)
    errors = hits = 0
    for start in range(0, blocks, _CHUNK):
        cells = _draw(law.joint, min(_CHUNK, blocks - start), rng)
        alice_bits[start:start + cells.size] = alice_of_cell[cells]
        bob_bits[start:start + cells.size] = bob_of_cell[cells]
        errors += int(errors_of_cell[cells].sum())
        hits += int(np.count_nonzero(hit_of_cell[cells]))
    for bits in (alice_bits, bob_bits):
        bits.setflags(write=False)
    return SessionReport(
        alice_bits=alice_bits.ravel(),
        bob_bits=bob_bits.ravel(),
        bit_error_rate=errors / alice_bits.size,
        eve_guess_success_rate=hits / blocks if config.eve_strategy is not None else None,
    )
