"""The chunked three-pass pipeline: draws, RNG layout, table size and rates."""

import math

import numpy as np
import pytest

from tristage import (
    ChannelContext,
    EveStrategy,
    NoiseModel,
    SessionConfig,
    StageLabel,
    basis_state,
    exact_analysis,
    family_names,
    get_family,
    map_guesser,
    monte_carlo_analysis,
    run_key_session,
)
from tristage.opsets import operator_catalog
from tristage.protocol import STAGES, _CHUNK, _born_draw, run_passes, sample_passes


class _Draws:
    """Stand-in generator that hands out fixed uniforms and counts them."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = 0

    def random(self, size):
        out = self.values[self.used:self.used + size]
        self.used += size
        return out


def _loop_pick(probs, draw):
    """Reference rule: the first outcome whose running total exceeds the
    draw, else the last outcome."""
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if draw < acc:
            return k
    return len(probs) - 1


def _loop_picks(probs, draws):
    return np.array([_loop_pick(p, d) for p, d in zip(probs, draws)], dtype=np.int64)


def _dense_sample(family, ctx, secrets, rng):
    """Per-row reference for `sample_passes`: every row carries its own
    state vector, and the draws follow the documented layout (members for
    all rows, then chunk by chunk: per stage Eve's collapse and the noise,
    then Bob's measurement).

    Returns Bob's outcomes, Eve's record codes and Bob's final Born
    probabilities per row."""
    dim, count = family.dim, len(family)
    num_qubits = dim.bit_length() - 1
    mats = np.stack([m.matrix for m in family.members])
    alice = rng.integers(0, count, size=len(secrets))
    bob = rng.integers(0, count, size=len(secrets))
    eve = ctx.eve
    rotation = np.eye(dim)
    if eve is not None and eve.pre_rotation is not None:
        rotation = eve.pre_rotation.matrix
    outcomes = np.empty(len(secrets), dtype=np.int64)
    codes = np.zeros(len(secrets), dtype=np.int64)
    finals = np.empty((len(secrets), dim))
    for start in range(0, len(secrets), _CHUNK):
        rows = np.arange(start, min(start + _CHUNK, len(secrets)))
        a, b = mats[alice[rows]], mats[bob[rows]]
        psi = a[np.arange(len(rows)), :, secrets[rows]]
        adjoints = (b, a.conj().transpose(0, 2, 1), b.conj().transpose(0, 2, 1))
        for stage, op in zip(STAGES, adjoints):
            if eve is not None and eve.attacks(stage):
                probs = np.abs(psi @ rotation.T) ** 2
                seen = _loop_picks(probs, rng.random(len(rows)))
                psi = rotation.conj()[seen]
                codes[rows] = codes[rows] * dim + seen
            if ctx.noise is not None:
                flipped = rng.random((len(rows), num_qubits)) < ctx.noise.bit_flip_probability
                for qubit in range(num_qubits):
                    permuted = psi[:, np.arange(dim) ^ (1 << (num_qubits - 1 - qubit))]
                    psi = np.where(flipped[:, qubit, None], permuted, psi)
            psi = np.einsum("ijk,ik->ij", op, psi)
        finals[rows] = np.abs(psi) ** 2
        outcomes[rows] = _loop_picks(finals[rows], rng.random(len(rows)))
    return outcomes, codes, finals


def _eve(*numbers, basis=None, dim=4):
    rotation = operator_catalog(dim)[basis] if basis is not None else None
    return EveStrategy(stages={StageLabel(n) for n in numbers}, pre_rotation=rotation)


#: Channels for the layout checks: (family, channel).
_CHANNELS = (
    ("controlled-pair", ChannelContext(noise=NoiseModel(0.2))),
    ("dft", ChannelContext(eve=_eve(1, 3, basis="DFT4"), noise=NoiseModel(0.1))),
    ("quaternion", ChannelContext(eve=_eve(2), noise=NoiseModel(0.3))),
    ("hadamard", ChannelContext(eve=_eve(1, 2, 3, dim=2), noise=NoiseModel(0.1))),
)


class TestBornDraw:
    PROBS = np.array([
        [0.5, 0.0, 0.5, 0.0],
        [0.0, 0.25, 0.75, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.1, 0.2, 0.3, 0.4],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.5],
    ])

    def test_matches_loop_and_skips_zero_probabilities(self):
        """Draws at every cumulative total, just above the last one and at
        random points, through ids that revisit the table rows in a mixed
        order.  Every row consumes exactly one uniform."""
        cumulative = np.cumsum(self.PROBS, axis=1)
        ids, draws = [], []
        for row, totals in enumerate(cumulative):
            points = [0.0, *totals, np.nextafter(totals[-1], 2.0)]
            points += list(np.random.default_rng(row).random(50))
            ids += [row] * len(points)
            draws += points
        order = np.random.default_rng(3).permutation(len(ids))
        ids, draws = np.array(ids)[order], np.array(draws)[order]
        stub = _Draws(draws)
        picked = _born_draw(self.PROBS, ids, stub)
        assert stub.used == len(ids)
        np.testing.assert_array_equal(picked, _loop_picks(self.PROBS[ids], draws))
        below = draws < cumulative[ids, -1]
        assert (self.PROBS[ids, picked][below] > 0).all()

    def test_draw_above_total_picks_last_outcome(self):
        short = np.array([[0.3, 0.3, 0.3, 0.0]])
        for draw in (0.9, 0.95, np.nextafter(1.0, 0.0)):
            assert _born_draw(short, np.array([0]), _Draws([draw]))[0] == 3


class TestLayout:
    @pytest.mark.parametrize("name, ctx", _CHANNELS)
    def test_sampling_matches_per_row_reference(self, name, ctx):
        """Two full chunks and a short one: the same outcomes and records
        as a per-row simulation drawing in the documented order."""
        family = get_family(name)
        secrets = np.random.default_rng(1).integers(0, family.dim, size=2 * _CHUNK + 3)
        outcomes, codes = sample_passes(family, ctx, secrets, np.random.default_rng(2))
        want_outcomes, want_codes, _ = _dense_sample(
            family, ctx, secrets, np.random.default_rng(2))
        np.testing.assert_array_equal(outcomes, want_outcomes)
        np.testing.assert_array_equal(codes, want_codes)

    @pytest.mark.parametrize("blocks", (1, 3, _CHUNK + 37))
    def test_table_never_outgrows_its_rows(self, blocks):
        """A clean, noisy controlled-pair channel grows the table fastest.
        Every final table has no more rows than the rows it serves, and
        gives each row the state the per-row simulation reaches."""
        family = get_family("controlled-pair")
        ctx = ChannelContext(noise=NoiseModel(0.2))
        secrets = np.random.default_rng(blocks).integers(0, family.dim, size=blocks)
        rng = np.random.default_rng(4)
        alice = rng.integers(0, len(family), size=blocks)
        bob = rng.integers(0, len(family), size=blocks)
        finals = np.empty((blocks, family.dim))
        for rows, final, ids, _, _ in run_passes(
            family, ctx, secrets, alice, bob, None, rng
        ):
            assert len(final) <= len(rows) == len(ids)
            finals[rows] = final[ids]
            rng.random(len(rows))  # Bob's draws, as `sample_passes` takes them
        _, _, want = _dense_sample(family, ctx, secrets, np.random.default_rng(4))
        np.testing.assert_allclose(finals, want, atol=1e-12)


def _session_rates(name, eve, blocks, seed):
    return run_key_session(
        SessionConfig(family_name=name, blocks=blocks, eve_strategy=eve, seed=seed)
    )


def _decode(code, count, dim):
    """Eve's outcome per intercepted stage, first stage first, from a code."""
    return tuple(code // dim ** (count - 1 - i) % dim for i in range(count))


class TestSessionGuessRate:
    @pytest.mark.parametrize("name", family_names())
    def test_equals_replayed_map_guesses(self, name):
        """The session's guess rate equals, exactly, the rate of scoring
        each block's record tuple with `map_guesser` after replaying the
        session's draws: its secrets, then `sample_passes`."""
        family = get_family(name)
        blocks = _CHUNK + 5
        rotated = {2: "H", 4: "DFT4"}[family.dim]
        for stages in ((1,), (2,), (1, 2, 3)):
            for basis in (None, rotated):
                eve = _eve(*stages, basis=basis, dim=family.dim)
                guess = map_guesser(family, eve)
                for noise in (None, NoiseModel(0.05)):
                    config = SessionConfig(family_name=name, blocks=blocks,
                                           eve_strategy=eve, noise=noise, seed=21)
                    rng = np.random.default_rng(np.random.SeedSequence(entropy=21))
                    secrets = rng.integers(0, family.dim, size=blocks)
                    _, codes = sample_passes(
                        family, ChannelContext(eve=eve, noise=noise), secrets, rng)
                    right = sum(guess(_decode(int(code), len(stages), family.dim)) == secret
                                for code, secret in zip(codes, secrets))
                    observed = run_key_session(config).eve_guess_success_rate
                    assert observed == right / blocks, (name, stages, basis, noise)


class TestAcrossChunks:
    """Runs longer than one chunk reproduce for equal seeds and sit within
    5 standard errors of the exact rates."""

    def test_sessions(self):
        blocks = 2 * _CHUNK + 3
        for name, eve in (("dft", _eve(1, 2, 3, basis="DFT4")), ("hadamard", _eve(2, dim=2))):
            report = _session_rates(name, eve, blocks, seed=12)
            assert report == _session_rates(name, eve, blocks, seed=12)
            family = get_family(name)
            num_qubits = family.dim.bit_length() - 1
            exact = [exact_analysis(family, eve, basis_state(i, num_qubits))
                     for i in range(family.dim)]
            for rate in ("bit_error_rate", "eve_guess_success_rate"):
                expected = np.mean([getattr(r, rate) for r in exact])
                stderr = math.sqrt(expected * (1.0 - expected) / blocks)
                assert abs(getattr(report, rate) - expected) <= 5 * stderr + 1e-12, (name, rate)

    def test_monte_carlo(self):
        trials = _CHUNK + 1
        family = get_family("controlled-pair")
        eve = _eve(1, 3, basis="DFT4")
        ctx = ChannelContext(eve=eve)
        for index in range(family.dim):
            secret = basis_state(index, 2)
            mc = monte_carlo_analysis(family, ctx, secret, trials, seed=index)
            assert mc == monte_carlo_analysis(family, ctx, secret, trials, seed=index)
            exact = exact_analysis(family, eve, secret)
            for rate in ("bit_error_rate", "detection_relevant_disturbance",
                         "eve_guess_success_rate"):
                expected = getattr(exact, rate)
                stderr = math.sqrt(expected * (1.0 - expected) / trials)
                assert abs(getattr(mc, rate) - expected) <= 5 * stderr + 1e-12, (index, rate)
