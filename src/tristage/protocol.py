"""The three-stage exchange, its batched pipeline and key sessions.

One protocol run moves a secret basis state across the channel three times:
Alice applies her secret operator and sends, Bob applies his and sends back,
Alice undoes hers and forwards, and Bob undoes his before measuring.  When
the two operators commute up to a global phase the recovered state equals
the secret up to that phase, so Bob's computational measurement reads the
secret bits exactly on a clean channel.

`run_three_stage` executes one run on state objects and keeps its
transcript.  `run_passes` is the same pipeline on many runs at once, and
only this module runs it: `sample_passes` samples it (for key sessions and
Monte Carlo analysis), and `_enumerate` walks every branch of it with exact
weights.  The runs go in chunks of `_CHUNK` rows; a row is an integer id
into a small table of the distinct states its chunk can reach, so the
operators, Eve's re-preparation and the noise flips act on the table, never
row by row.

Eve's record of a run is an integer code, her outcomes in base ``dim``,
first intercepted stage most significant.  `_law` keeps the enumeration of
the last (family, Eve) pair, compared by value; its ``guess_by_code`` maps
every code to her MAP guess, and sessions and Monte Carlo analysis both
score her by it.  A session draws everything from one stream seeded by the
session seed, so identical configs reproduce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

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


#: Input rows per pass through the pipeline.  The draws go chunk by chunk,
#: in row order within each chunk, so this size is part of the RNG layout.
_CHUNK = 8192


def _compact(table: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep only the table rows some row refers to, once the table outgrows the rows."""
    if len(table) > len(ids):
        kept, ids = np.unique(ids, return_inverse=True)
        table = table[kept]
    return table, ids


def run_passes(
    family: OperatorFamily,
    ctx: ChannelContext,
    secrets: np.ndarray,
    alice_idx: np.ndarray,
    bob_idx: np.ndarray,
    collapse: Callable,
    rng: np.random.Generator | None = None,
    weights: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]:
    """Run the three passes on rows of basis secrets, in chunks of `_CHUNK` rows.

    Row i starts as basis secret ``secrets[i]`` with Alice's member
    ``alice_idx[i]`` and Bob's member ``bob_idx[i]``.  Each row holds only
    an integer id into a table of the distinct states its chunk can reach:
    operators, Eve's re-preparation and noise flips act on the table, and
    per row the pipeline only moves ids, gathers and draws.  At each stage
    Eve intercepts, ``collapse(probs, ids, weights)`` resolves her
    measurement from the table's Born probabilities in her basis, the rows'
    ids and their weights; it returns the source row of each resulting row
    (None: one each), their outcomes and their weights.  The rows carry on
    from her re-prepared states, and her outcomes accumulate into a record
    code in base ``family.dim``, first intercepted stage most significant.
    On a noisy channel every stage then flips qubits, drawing
    ``num_qubits`` uniforms per row from ``rng``.

    Yields:
        Per chunk: the input row of each resulting row, the Born
        probabilities of Bob's final measurement per table row, each row's
        table id, Eve's record codes and the row weights.  The table never
        has more rows than the chunk's resulting rows.

    Raises:
        ValueError: If Eve's pre-rotation does not match the family dimension.
    """
    dim, count = family.dim, len(family)
    num_qubits = dim.bit_length() - 1
    eve = ctx.eve
    rotation = eve.pre_rotation if eve is not None else None
    if rotation is not None and rotation.dim != dim:
        raise ValueError(f"pre-rotation dim {rotation.dim} does not match family dim {dim}")
    # Table rows are transposed states: applying U maps row -> row @ U.T.  Eve
    # reads row @ R.T and forwards row k of conj(R), the transposed R†|k>.
    measure_t = rotation.matrix.T if rotation is not None else None
    reprep = rotation.matrix.conj() if rotation is not None else np.eye(dim, dtype=complex)
    attacked = [eve is not None and eve.attacks(stage) for stage in STAGES]
    noise_p = ctx.noise.bit_flip_probability if ctx.noise is not None else None
    members = np.stack([m.matrix for m in family.members])
    start_table = members.transpose(0, 2, 1).reshape(-1, dim)
    # Stage k's member m maps table row t to row t*count + m of
    # (table @ post).reshape(-1, dim): Bob's B, Alice's A†, Bob's B†.
    posts = [
        np.ascontiguousarray(post.transpose(1, 0, 2).reshape(dim, -1))
        for post in (members.transpose(0, 2, 1), members.conj(), members.conj())
    ]
    # flips[m] permutes a row's entries as flipping the qubits set in mask m.
    flips = np.arange(dim) ^ np.arange(dim)[:, None]
    for start in range(0, len(secrets), _CHUNK):
        rows = np.arange(start, min(start + _CHUNK, len(secrets)))
        row_weights = weights[rows] if weights is not None else None
        codes = np.zeros(len(rows), dtype=np.int64)
        table, ids = _compact(start_table, alice_idx[rows] * dim + secrets[rows])
        for hit, post, member_idx in zip(attacked, posts, (bob_idx, alice_idx, bob_idx)):
            if hit:
                amps = table @ measure_t if measure_t is not None else table
                take, outcomes, row_weights = collapse(np.abs(amps) ** 2, ids, row_weights)
                if take is not None:
                    rows, codes = rows[take], codes[take]
                table, ids = _compact(reprep, outcomes)
                codes = codes * dim + outcomes
            if noise_p is not None:
                masks = np.zeros(len(ids), dtype=np.int64)
                for flipped in (rng.random((len(ids), num_qubits)) < noise_p).T:
                    masks = masks << 1 | flipped
                if masks.any():
                    ids = masks * len(table) + ids
                    table, ids = _compact(table[:, flips].swapaxes(0, 1).reshape(-1, dim), ids)
            ids = ids * count + member_idx[rows]
            table, ids = _compact((table @ post).reshape(-1, dim), ids)
        yield rows, np.abs(table) ** 2, ids, codes, row_weights


def _born_draw(probs: np.ndarray, ids: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One outcome per row from the Born probabilities of its table row and
    one uniform: the first outcome whose cumulative total exceeds the draw,
    as in `qcore.measure`.  Only the first ``dim - 1`` totals are counted,
    so a draw at or above the last total picks the last outcome."""
    cumulative = np.cumsum(probs, axis=1)
    u = rng.random(len(ids))
    outcomes = np.zeros(len(ids), dtype=np.int64)
    for column in cumulative.T[:-1]:
        outcomes += column[ids] <= u
    return outcomes


def sample_passes(
    family: OperatorFamily,
    ctx: ChannelContext,
    secrets: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample `run_passes` once per basis secret, every draw from ``rng``.

    ``rng`` draws Alice's member for every row, then Bob's.  Then, chunk by
    chunk and in row order within each draw: at each stage one uniform per
    row for Eve's collapse and ``num_qubits`` per row for the noise, and
    last one per row for Bob's measurement.

    Returns:
        Bob's outcome index and Eve's record code per row, in row order.
    """
    alice_idx = rng.integers(0, len(family), size=len(secrets))
    bob_idx = rng.integers(0, len(family), size=len(secrets))
    outcomes = np.empty(len(secrets), dtype=np.int64)
    codes = np.zeros(len(secrets), dtype=np.int64)

    def collapse(probs, ids, weights):
        return None, _born_draw(probs, ids, rng), None

    for rows, final, ids, row_codes, _ in run_passes(
        family, ctx, secrets, alice_idx, bob_idx, collapse, rng
    ):
        outcomes[rows] = _born_draw(final, ids, rng)
        codes[rows] = row_codes
    return outcomes, codes


#: Branches below this probability are dropped from the enumeration.
_PRUNE = 1e-15


def _every_outcome(probs: np.ndarray, ids: np.ndarray, weights: np.ndarray):
    """Enumeration rule: every outcome of every row, with its weight."""
    branch = weights[:, None] * probs[ids]
    take, outcomes = np.nonzero(branch > _PRUNE)
    return take, outcomes, branch[take, outcomes]


class _Branches(NamedTuple):
    """Every measurement branch over all operator pairs and basis secrets."""

    secrets: np.ndarray
    codes: np.ndarray
    probs: np.ndarray
    dists: np.ndarray
    guess_by_code: np.ndarray


def _enumerate(family: OperatorFamily, eve: EveStrategy) -> _Branches:
    """One enumeration pass over every (Alice, Bob, basis secret) row.

    Per branch: its secret, Eve's record code, its probability given the
    secret (operator pairs weigh uniformly) and Bob's final outcome
    distribution; plus the MAP guess for every record code.
    """
    dim, count = family.dim, len(family)
    alice_idx, bob_idx, secrets = np.indices((count, count, dim)).reshape(3, -1)
    weights = np.full(secrets.size, 1.0 / count**2)
    passes = run_passes(family, ChannelContext(eve=eve), secrets, alice_idx, bob_idx,
                        _every_outcome, weights=weights)
    chunks = [(rows, final[ids], codes, probs) for rows, final, ids, codes, probs in passes]
    rows, dists, codes, probs = map(np.concatenate, zip(*chunks))
    secrets = secrets[rows]
    likelihood = np.bincount(
        codes * dim + secrets, weights=probs, minlength=dim ** (len(eve.stages) + 1)
    ).reshape(-1, dim)
    return _Branches(secrets, codes, probs, dists, likelihood.argmax(axis=1))


@lru_cache(maxsize=1)
def _law(family: OperatorFamily, eve: EveStrategy) -> _Branches:
    """The enumeration of the last (family, Eve) pair, compared by value."""
    return _enumerate(family, eve)


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

    When Eve is active, each block's record code is scored with her MAP
    guess from the exact law, as Monte Carlo analysis scores it, and the
    report carries her empirical guess success rate; otherwise that rate
    is None.  One stream seeded by the session seed draws every block's
    secret and then everything `sample_passes` draws, so identical configs
    reproduce identical reports bit for bit.

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
    if eve is not None:
        guesses = _law(family, eve).guess_by_code[codes]
        success_rate = int((guesses == secrets).sum()) / config.blocks
    return SessionReport(
        alice_bits=tuple(alice_bits.tolist()),
        bob_bits=tuple(bob_bits.tolist()),
        bit_error_rate=int((alice_bits != bob_bits).sum()) / alice_bits.size,
        eve_guess_success_rate=success_rate,
    )
