"""The three-stage exchange and multi-block key-distribution sessions.

One protocol run moves a secret basis state across the channel three times:
Alice applies her secret operator and sends, Bob applies his and sends back,
Alice undoes hers and forwards, and Bob undoes his before measuring.  When
the two operators commute up to a global phase the recovered state equals
the secret up to that phase, so Bob's computational measurement reads the
secret bits exactly on a clean channel.

`run_three_stage` executes one run on state objects and keeps its
transcript.  `run_passes` is the same pipeline on rows of states, run by
sampling in `run_key_session` and Monte Carlo analysis or by enumeration in
exact analysis.  A session draws everything from one stream seeded by the
session seed, so identical configs reproduce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

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


def run_passes(
    family: OperatorFamily,
    ctx: ChannelContext,
    secrets: np.ndarray,
    alice_idx: np.ndarray,
    bob_idx: np.ndarray,
    collapse: Callable,
    rng: np.random.Generator | None = None,
    weights: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]:
    """Run the three passes on rows of basis secrets, one operator pair at a time.

    Row i starts as basis secret ``secrets[i]`` with Alice's member
    ``alice_idx[i]`` and Bob's member ``bob_idx[i]``.  Pairs are taken in
    member order, Alice's index first, each with its rows in input order.
    At each stage Eve intercepts, ``collapse(probs, weights)`` resolves her
    measurement from the rows' Born probabilities in her basis and their
    weights; it returns the source row of each resulting row (None: one
    each), their outcomes and their weights.  The rows carry on from her
    re-prepared states, and her outcomes accumulate into a record code in
    base ``family.dim``, first intercepted stage most significant.  On a
    noisy channel every stage then flips qubits, drawing ``num_qubits``
    uniforms per row from ``rng``.

    Yields:
        Per operator pair that has rows: the input row of each resulting
        row, the Born probabilities of Bob's final measurement, Eve's record
        codes and the row weights.

    Raises:
        ValueError: If Eve's pre-rotation does not match the family dimension.
    """
    dim = family.dim
    num_qubits = dim.bit_length() - 1
    eve = ctx.eve
    rotation = eve.pre_rotation if eve is not None else None
    if rotation is not None and rotation.dim != dim:
        raise ValueError(f"pre-rotation dim {rotation.dim} does not match family dim {dim}")
    # Rows are transposed states: applying U maps row -> row @ U.T.  Eve
    # reads row @ R.T and forwards row k of conj(R), the transposed R†|k>.
    measure_t = rotation.matrix.T if rotation is not None else None
    reprep = rotation.matrix.conj() if rotation is not None else np.eye(dim, dtype=complex)
    attacked = [eve is not None and eve.attacks(stage) for stage in STAGES]
    noise_p = ctx.noise.bit_flip_probability if ctx.noise is not None else None
    flip_weights = 1 << np.arange(num_qubits - 1, -1, -1)
    columns = np.arange(dim)
    for ai, alice in enumerate(family.members):
        for bi, bob in enumerate(family.members):
            rows = np.flatnonzero((alice_idx == ai) & (bob_idx == bi))
            if rows.size == 0:
                continue
            a, b = alice.matrix, bob.matrix
            batch = a.T[secrets[rows]]
            codes = np.zeros(rows.size, dtype=np.int64)
            row_weights = weights[rows] if weights is not None else None
            for hit, post in zip(attacked, (b.T, a.conj(), b.conj())):
                if hit:
                    amps = batch @ measure_t if measure_t is not None else batch
                    take, outcomes, row_weights = collapse(np.abs(amps) ** 2, row_weights)
                    if take is not None:
                        rows, codes = rows[take], codes[take]
                    batch = reprep[outcomes]
                    codes = codes * dim + outcomes
                if noise_p is not None:
                    masks = (rng.random((len(batch), num_qubits)) < noise_p) @ flip_weights
                    if masks.any():
                        batch = np.take_along_axis(batch, columns ^ masks[:, None], axis=1)
                batch = batch @ post
            yield rows, np.abs(batch) ** 2, codes, row_weights


def _born_draw(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One outcome per row of Born probabilities, from one uniform per row."""
    cumulative = np.cumsum(probs, axis=1)
    u = rng.random(len(probs))
    return np.minimum((cumulative < u[:, None]).sum(axis=1), probs.shape[1] - 1)


def sample_passes(
    family: OperatorFamily,
    ctx: ChannelContext,
    secrets: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample `run_passes` once per basis secret, every draw from ``rng``.

    ``rng`` draws Alice's member for every row, then Bob's, then pair by
    pair one uniform per row for each of Eve's collapses, ``num_qubits`` per
    row for each noisy stage, and one per row for Bob's measurement.

    Returns:
        Bob's outcome index and Eve's record code per row, in row order.
    """
    alice_idx = rng.integers(0, len(family), size=len(secrets))
    bob_idx = rng.integers(0, len(family), size=len(secrets))
    outcomes = np.empty(len(secrets), dtype=np.int64)
    codes = np.zeros(len(secrets), dtype=np.int64)

    def collapse(probs, weights):
        return None, _born_draw(probs, rng), None

    for rows, final, row_codes, _ in run_passes(
        family, ctx, secrets, alice_idx, bob_idx, collapse, rng
    ):
        outcomes[rows] = _born_draw(final, rng)
        codes[rows] = row_codes
    return outcomes, codes


def decode_records(code: int, count: int, dim: int) -> tuple:
    """Eve's outcome per intercepted stage, in stage order, from a record code."""
    return tuple(code // dim ** (count - 1 - i) % dim for i in range(count))


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


def run_key_session(
    config: SessionConfig,
    eve_guesser: Callable[[tuple], int] | None = None,
) -> SessionReport:
    """Run a session of independent protocol blocks and collect key bits.

    Per block: Alice draws a uniformly random basis secret (one bit for
    dimension-2 families, two bits for dimension-4), both parties draw
    family members uniformly and independently, and one three-stage run
    executes.  Bob's bits come from measuring each recovered state.  Use
    `run_three_stage` for the transcript of a single run.

    One stream seeded by the session seed draws every block's secret and
    then everything `sample_passes` draws, so identical configs reproduce
    identical reports bit for bit.

    Args:
        config: Session parameters; the family name must be in the catalog.
        eve_guesser: Optional map from the eavesdropper's per-block record
            tuple to a guessed secret index.  When given and Eve is active,
            the report includes her empirical guess success rate.

    Raises:
        ValueError: If the family name is unknown.
    """
    family = get_family(config.family_name)
    dim = family.dim
    eve = config.eve_strategy
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed))
    secrets = rng.integers(0, dim, size=config.blocks)
    channel = ChannelContext(eve=eve, noise=config.noise)
    outcomes, codes = sample_passes(family, channel, secrets, rng)
    # Bits of each index, most significant (qubit 0) first.
    shifts = np.arange(dim.bit_length() - 2, -1, -1)
    alice_bits = (secrets[:, None] >> shifts & 1).ravel()
    bob_bits = (outcomes[:, None] >> shifts & 1).ravel()
    success_rate = None
    if eve_guesser is not None and eve is not None:
        count = sum(eve.attacks(stage) for stage in STAGES)
        seen, inverse = np.unique(codes, return_inverse=True)
        guesses = np.array([eve_guesser(decode_records(int(c), count, dim)) for c in seen])
        success_rate = int((guesses[inverse] == secrets).sum()) / config.blocks
    return SessionReport(
        alice_bits=tuple(alice_bits.tolist()),
        bob_bits=tuple(bob_bits.tolist()),
        bit_error_rate=int((alice_bits != bob_bits).sum()) / alice_bits.size,
        eve_guess_success_rate=success_rate,
    )
