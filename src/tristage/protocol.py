"""The three-stage exchange, its batched pipeline and key sessions.

One protocol run moves a secret basis state across the channel three times:
Alice applies her secret operator and sends, Bob applies his and sends back,
Alice undoes hers and forwards, and Bob undoes his before measuring.  When
the two operators commute up to a global phase the recovered state equals
the secret up to that phase, so Bob's computational measurement reads the
secret bits exactly on a clean channel.

`run_three_stage` executes one run on state objects and keeps its
transcript.  `run_passes` is the same pipeline on many runs at once, and
only this module runs it: `sample_passes` draws its random events, Eve's
collapses and the noise flips (for key sessions and Monte Carlo analysis),
and `_enumerate` expands every branch of them with exact weights.  The runs
go in chunks of `_CHUNK` rows; a row is an integer id into a small table of
the distinct states its chunk can reach, so the operators, Eve's
re-preparation and the noise flips act on the table, never row by row.

Eve's record of a run is an integer code, her outcomes in base ``dim``,
first intercepted stage most significant.  `_enumerate` folds its branches
into the exact law of a channel (family, Eve and noise): her MAP guess for
every code, the codes that occur and every basis secret's exact rates.
`_law` keeps the law of the last channel, compared by value; sessions and
Monte Carlo analysis score her by its ``guess_by_code``.  A session draws
everything from one stream seeded by the session seed, so identical
configs reproduce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
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
    flip: Callable,
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
    (``slice(None)``: one each), their outcomes and their weights.  The rows carry on
    from her re-prepared states, and her outcomes accumulate into a record
    code in base ``family.dim``, first intercepted stage most significant.
    On a noisy channel ``flip(ids, weights)`` then returns rows, flip masks
    (first qubit most significant) and weights as ``collapse`` does.  Once
    a flip has come, each collapse merges the weighted rows with equal input
    row and record code, which share their whole future.

    Yields:
        Per chunk: the input row of each resulting row, the Born
        probabilities of Bob's final measurement per table row, each row's
        table id, Eve's record codes and the row weights.  The table never
        has more rows than the chunk's resulting rows.

    Raises:
        ValueError: If Eve's pre-rotation does not match the family dimension.
    """
    dim, count = family.dim, len(family)
    eve = ctx.eve
    rotation = eve.pre_rotation if eve is not None else None
    if rotation is not None and rotation.dim != dim:
        raise ValueError(f"pre-rotation dim {rotation.dim} does not match family dim {dim}")
    # Table rows are transposed states: applying U maps row -> row @ U.T.  Eve
    # reads row @ R.T and forwards row k of conj(R), the transposed R†|k>.
    measure_t = rotation.matrix.T if rotation is not None else None
    reprep = rotation.matrix.conj() if rotation is not None else np.eye(dim, dtype=complex)
    attacked = [eve is not None and eve.attacks(stage) for stage in STAGES]
    noisy, code_range = ctx.noise is not None, dim ** sum(attacked)
    merge = noisy and weights is not None
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
    stages = list(zip(attacked, (False, merge, merge), posts, (bob_idx, alice_idx, bob_idx)))
    for start in range(0, len(secrets), _CHUNK):
        rows = np.arange(start, min(start + _CHUNK, len(secrets)))
        row_weights = weights[rows] if weights is not None else None
        codes = np.zeros(len(rows), dtype=np.int64)
        table, ids = _compact(start_table, alice_idx[rows] * dim + secrets[rows])
        for hit, merging, post, member_idx in stages:
            if hit:
                amps = table @ measure_t if measure_t is not None else table
                take, outcomes, row_weights = collapse(np.abs(amps) ** 2, ids, row_weights)
                rows, codes = rows[take], codes[take] * dim + outcomes
                if merging:
                    keys, merged = np.unique(rows * code_range + codes, return_inverse=True)
                    row_weights = np.bincount(merged, weights=row_weights)
                    rows, codes = np.divmod(keys, code_range)
                    outcomes = codes % dim
                table, ids = _compact(reprep, outcomes)
            if noisy:
                take, masks, row_weights = flip(ids, row_weights)
                rows, codes, ids = rows[take], codes[take], ids[take]
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
    num_qubits = family.dim.bit_length() - 1
    outcomes = np.empty(len(secrets), dtype=np.int64)
    codes = np.zeros(len(secrets), dtype=np.int64)

    def collapse(probs, ids, weights):
        return slice(None), _born_draw(probs, ids, rng), None

    def flip(ids, weights):
        masks = np.zeros(len(ids), dtype=np.int64)
        for flipped in (rng.random((len(ids), num_qubits)) < ctx.noise.bit_flip_probability).T:
            masks = masks << 1 | flipped
        return slice(None), masks, None

    for rows, final, ids, row_codes, _ in run_passes(
        family, ctx, secrets, alice_idx, bob_idx, collapse, flip
    ):
        outcomes[rows] = _born_draw(final, ids, rng)
        codes[rows] = row_codes
    return outcomes, codes


#: Branches below this probability are dropped from the enumeration.
_PRUNE = 1e-15


def _branches(branch: np.ndarray):
    """Enumeration rule: every (row, outcome) of ``branch``, with its weight."""
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
    the codes that occur (only 0 without Eve), and ``rates[s]`` basis secret
    s's bit error rate, detection-relevant disturbance, Eve's guess success
    rate (None without Eve) and branch count.
    """

    guess_by_code: np.ndarray
    codes: np.ndarray
    rates: tuple


def _enumerate(family: OperatorFamily, eve: EveStrategy | None, noise: NoiseModel | None) -> _Law:
    """One enumeration pass over every (Alice, Bob, basis secret) row.

    Every branch weighs its probability given the secret (uniform operator
    pairs; p^k (1-p)^(q-k) for a flip of k of q qubits).  Each chunk folds
    into the (record code, secret) likelihood, whose row maximum is the MAP
    guess (lowest index on ties), and into Bob's outcome law per secret.

    Raises:
        RuntimeError: If the branch probabilities of a basis secret fail to
            sum to one, which would indicate a broken enumeration.
    """
    dim, count = family.dim, len(family)
    alice_idx, bob_idx, secrets = np.indices((count, count, dim)).reshape(3, -1)

    def flip(ids, weights):
        p, k = noise.bit_flip_probability, _hamming_table(dim)[0]
        return _branches(weights[:, None] * (p**k * (1.0 - p) ** (dim.bit_length() - 1 - k)))

    likelihood = np.zeros((dim ** (len(eve.stages) if eve is not None else 0), dim))
    outcome_law = np.zeros((dim, dim))  # row s: each outcome's probability given secret s
    branch_count = np.zeros(dim, dtype=np.int64)
    for rows, final, ids, codes, probs in run_passes(
        family, ChannelContext(eve=eve, noise=noise), secrets, alice_idx, bob_idx,
        lambda probs, ids, weights: _branches(weights[:, None] * probs[ids]),
        flip, np.full(secrets.size, 1.0 / count**2),
    ):
        row_secrets = secrets[rows]
        likelihood += np.bincount(codes * dim + row_secrets, weights=probs,
                                  minlength=likelihood.size).reshape(-1, dim)
        outcome_law += np.bincount(row_secrets * len(final) + ids, weights=probs,
                                   minlength=dim * len(final)).reshape(dim, -1) @ final
        branch_count += np.bincount(row_secrets, minlength=dim)
    total = likelihood.sum(axis=0)
    for index, mass in enumerate(total.tolist()):
        if abs(mass - 1.0) > _CONSERVATION_TOL:
            raise RuntimeError(
                f"branch probabilities of secret {index} sum to {mass!r}, expected 1")
    guess_by_code = likelihood.argmax(axis=1)
    # Each rate is part of a secret's mass over the whole, summed alike, so it is in [0, 1].
    hamming, outcome_mass = _hamming_table(dim), outcome_law.sum(axis=1)
    guessed = guess_by_code[:, None] == np.arange(dim)
    rates = zip(
        ((outcome_law * hamming).sum(axis=1) / (dim.bit_length() - 1) / outcome_mass).tolist(),
        ((outcome_law * (hamming > 0)).sum(axis=1) / outcome_mass).tolist(),
        ((likelihood * guessed).sum(axis=0) / total).tolist() if eve else [None] * dim,
        branch_count.tolist(),
    )
    return _Law(guess_by_code, np.flatnonzero(likelihood.any(axis=1)), tuple(rates))


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

    When Eve is active, each block's record code is scored with her MAP
    guess from the exact law, as Monte Carlo analysis scores it, and the
    report carries her empirical guess success rate; otherwise that rate
    is None.  One stream seeded by the session seed draws every block's
    secret and then everything `sample_passes` draws, so identical configs
    reproduce identical reports bit for bit.

    Raises:
        ValueError: If the family name is unknown.
        RuntimeError: If Eve is active and the enumerated branch
            probabilities of any basis secret fail to sum to one.
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
        guesses = _law(family, eve, config.noise).guess_by_code[codes]
        success_rate = int((guesses == secrets).sum()) / config.blocks
    return SessionReport(
        alice_bits=tuple(alice_bits.tolist()),
        bob_bits=tuple(bob_bits.tolist()),
        bit_error_rate=int((alice_bits != bob_bits).sum()) / alice_bits.size,
        eve_guess_success_rate=success_rate,
    )
