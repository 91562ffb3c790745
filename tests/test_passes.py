"""The law's joint and the draws from it: one uniform per run, an unpruned
per-pair reference for the joint, and the joint against a per-row
simulation."""

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
    protocol,
    run_key_session,
)
from tristage.opsets import operator_catalog
from tristage.protocol import STAGES, _draw, _draw_counts, _hamming_table, _law


class _Draws:
    """Stand-in generator that hands out fixed uniforms and counts them."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = self.calls = 0

    def random(self, size):
        self.calls += 1
        out = self.values[self.used:self.used + size]
        self.used += size
        return out


def _loop_pick(probs, draw):
    """Reference rule: the first cell whose running total, over the whole,
    exceeds the draw."""
    total = sum(probs)
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if draw < acc / total:
            return k
    raise AssertionError(f"draw {draw} is not below 1")


def _pick(probs, draws):
    """Per row, the first outcome whose cumulative Born probability exceeds
    the row's draw, else the last outcome."""
    below = np.cumsum(probs, axis=1) <= draws[:, None]
    return np.minimum(below.sum(axis=1), probs.shape[1] - 1)


def _dense_sample(family, ctx, rows, rng):
    """Per-row reference for the joint law: every row draws its secret and
    both members uniformly and carries its own state vector through the
    three passes, drawing Eve's collapses, the per-qubit noise flips and
    Bob's measurement from ``rng``.

    Returns each row's secret, Eve's record code (first intercepted stage
    most significant) and Bob's outcome."""
    dim, count = family.dim, len(family)
    num_qubits = dim.bit_length() - 1
    mats = np.stack([m.matrix for m in family.members])
    secrets = rng.integers(0, dim, size=rows)
    a = mats[rng.integers(0, count, size=rows)]
    b = mats[rng.integers(0, count, size=rows)]
    eve = ctx.eve
    rotation = np.eye(dim)
    if eve is not None and eve.pre_rotation is not None:
        rotation = eve.pre_rotation.matrix
    codes = np.zeros(rows, dtype=np.int64)
    psi = a[np.arange(rows), :, secrets]
    adjoints = (b, a.conj().transpose(0, 2, 1), b.conj().transpose(0, 2, 1))
    for stage, op in zip(STAGES, adjoints):
        if eve is not None and eve.attacks(stage):
            seen = _pick(np.abs(psi @ rotation.T) ** 2, rng.random(rows))
            psi = rotation.conj()[seen]
            codes = codes * dim + seen
        if ctx.noise is not None:
            flipped = rng.random((rows, num_qubits)) < ctx.noise.bit_flip_probability
            for qubit in range(num_qubits):
                permuted = psi[:, np.arange(dim) ^ (1 << (num_qubits - 1 - qubit))]
                psi = np.where(flipped[:, qubit, None], permuted, psi)
        psi = np.einsum("ijk,ik->ij", op, psi)
    return secrets, codes, _pick(np.abs(psi) ** 2, rng.random(rows))


def reference_joint(family, eve, noise):
    """``joint[s, c, k]``, enumerated one operator pair at a time with every
    branch kept: the rows of ``psi`` are the branches of every secret, each
    collapse of Eve's branches them into her outcomes and each noisy pass
    into every flip pattern (first qubit most significant)."""
    dim, count = family.dim, len(family)
    rotation = np.eye(dim)
    if eve is not None and eve.pre_rotation is not None:
        rotation = eve.pre_rotation.matrix
    hits = [eve is not None and eve.attacks(stage) for stage in STAGES]
    patterns = np.arange(dim)
    flips = np.array([bin(m).count("1") for m in patterns])
    p = noise.bit_flip_probability if noise is not None else 0.0
    pattern_weight = p**flips * (1.0 - p) ** (dim.bit_length() - 1 - flips)
    joint = np.zeros((dim, dim ** sum(hits), dim))
    for ua in (m.matrix for m in family.members):
        for ub in (m.matrix for m in family.members):
            secret, code = np.arange(dim), np.zeros(dim, dtype=np.int64)
            weight = np.full(dim, 1.0 / count**2)
            psi = ua.T  # row s is U_a |s>
            for hit, post in zip(hits, (ub, ua.conj().T, ub.conj().T)):
                if hit:
                    weight = (weight[:, None] * np.abs(psi @ rotation.T) ** 2).ravel()
                    code = (code[:, None] * dim + patterns).ravel()
                    psi = np.tile(rotation.conj(), (secret.size, 1))
                    secret = np.repeat(secret, dim)
                if noise is not None:
                    weight = (weight[:, None] * pattern_weight).ravel()
                    psi = psi[:, patterns[None, :] ^ patterns[:, None]].reshape(-1, dim)
                    code, secret = np.repeat(code, dim), np.repeat(secret, dim)
                psi = psi @ post.T
            np.add.at(joint, (secret, code), weight[:, None] * np.abs(psi) ** 2)
    return joint


def reference_table(joint, stage_count):
    """The MAP table of `reference_joint`: every record tuple of positive
    likelihood maps to the lowest secret within 1e-12 of its maximum."""
    likelihood = joint.sum(axis=2)
    tied = likelihood >= likelihood.max(axis=0) - 1e-12
    return {_decode(int(c), stage_count, len(joint)): int(tied[:, c].argmax())
            for c in np.flatnonzero(likelihood.any(axis=0))}


#: Standard normal quantile at 1 - 1e-6, for the chi-square bound below.
_Z = 4.753


def assert_sample_fits_joint_law(family, ctx, sample):
    """Pearson's chi-square of a sample's (secret, code, outcome) counts
    against ``rows * law.joint / dim``, over the cells expected at least 5
    times with the rest pooled into one cell, stays below its
    Wilson-Hilferty quantile at 1 - 1e-6."""
    joint = _law(family, ctx.eve, ctx.noise).joint
    cells = np.ravel_multi_index(sample, joint.shape)
    observed = np.bincount(cells, minlength=joint.size)
    expected = cells.size * joint.ravel() / family.dim
    big = expected >= 5
    observed_rest, expected_rest = observed[~big].sum(), expected[~big].sum()
    observed, expected = observed[big], expected[big]
    if expected_rest > 0:
        observed = np.append(observed, observed_rest)
        expected = np.append(expected, expected_rest)
    else:
        assert observed_rest == 0, "the simulation reached cells the law rules out"
    statistic = float(((observed - expected) ** 2 / expected).sum())
    df = len(expected) - 1
    bound = df * (1 - 2 / (9 * df) + _Z * math.sqrt(2 / (9 * df))) ** 3
    assert statistic <= bound, (statistic, bound, df)


def assert_dense_sample_fits_joint_law(family, ctx, seed, rows=2**15):
    """`_dense_sample` fits the joint law, by `assert_sample_fits_joint_law`."""
    sample = _dense_sample(family, ctx, rows, np.random.default_rng(seed))
    assert_sample_fits_joint_law(family, ctx, sample)


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
        [0.3, 0.3, 0.3, 0.0],
        [0.0, 2.0, 0.0, 6.0],
    ])

    def test_matches_loop_and_skips_zero_probabilities(self):
        """Draws at zero, at every normalised running total, just below one
        and at random points, from every row and from the whole table as
        one law.  Every draw consumes exactly one uniform."""
        for index, probs in enumerate([*self.PROBS, self.PROBS]):
            totals = np.cumsum(probs) / probs.sum()
            draws = [0.0, *totals[totals < 1.0], np.nextafter(1.0, 0.0)]
            draws += list(np.random.default_rng(index).random(50))
            stub = _Draws(draws)
            picked = _draw(probs, len(draws), stub)
            assert stub.used == len(draws)
            np.testing.assert_array_equal(
                picked, [_loop_pick(probs.ravel().tolist(), d) for d in draws])
            assert (probs.ravel()[picked] > 0).all()

    def test_draw_just_below_one_picks_last_positive_cell(self):
        short = np.array([[0.3, 0.3], [0.3, 0.0]])
        for draw in (0.9, 0.95, np.nextafter(1.0, 0.0)):
            assert _draw(short, 1, _Draws([draw]))[0] == 2

    @pytest.mark.parametrize("chunk", [1, 7, protocol._CHUNK])
    def test_counts_are_those_of_one_draw(self, chunk, monkeypatch):
        """Counting takes the uniforms ``chunk`` at a time from the stream
        that one `_draw` takes at once, so it counts that draw's cells and
        leaves the generator where the draw leaves it.  Draws at zero, at
        and just below every running total and just below one count in the
        cell a right-sided search picks, and a stub sees one ``random`` call
        per chunk, the last one short, and n uniforms in all."""
        monkeypatch.setattr(protocol, "_CHUNK", chunk)
        noisy = _law(get_family("dft"), _eve(1, 2, 3), NoiseModel(0.05)).joint[1]
        for index, probs in enumerate([*self.PROBS, self.PROBS, noisy]):
            cumulative = np.cumsum(probs)
            totals = cumulative / cumulative[-1]
            edges = np.concatenate([[0.0], totals[totals < 1.0], np.nextafter(totals, 0.0),
                                    [np.nextafter(1.0, 0.0)]])
            for n in sorted({1, chunk - 1, chunk, chunk + 1, 3 * chunk + 2} - {0}):
                drawn, counted = np.random.default_rng(index), np.random.default_rng(index)
                cells = np.bincount(_draw(probs, n, drawn), minlength=probs.size)
                np.testing.assert_array_equal(
                    _draw_counts(probs, n, counted), cells.reshape(probs.shape))
                assert counted.bit_generator.state == drawn.bit_generator.state
                draws = np.concatenate([edges, np.random.default_rng(n).random(n)])[:n]
                stub = _Draws(draws)
                searched = np.bincount(np.searchsorted(totals, draws, side="right"),
                                       minlength=probs.size)
                np.testing.assert_array_equal(
                    _draw_counts(probs, n, stub), searched.reshape(probs.shape))
                assert (stub.calls, stub.used) == (-(-n // chunk), n)


def _per_trial_rates(family, ctx, index, trials, seed):
    """Monte Carlo rates from per-trial arrays: each trial's record code,
    outcome and bit-error fraction from `_draw`'s cells, then the sample
    mean and standard deviation over the trials."""
    law = _law(family, ctx.eve, ctx.noise)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    codes, outcomes = divmod(_draw(law.joint[index], trials, rng), family.dim)
    num_qubits = family.dim.bit_length() - 1
    fractions = np.array([bin(index ^ int(k)).count("1") for k in outcomes]) / num_qubits
    wrong = float((outcomes != index).mean())
    rates = {
        "trials": trials,
        "bit_error_rate": float(fractions.mean()),
        "bit_error_rate_stderr": (
            float(fractions.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0),
        "detection_relevant_disturbance": wrong,
        "detection_relevant_disturbance_stderr": math.sqrt(wrong * (1.0 - wrong) / trials),
        "eve_guess_success_rate": None,
        "eve_guess_success_rate_stderr": None,
    }
    if ctx.eve is not None:
        right = float((law.guess_by_code[codes] == index).mean())
        rates["eve_guess_success_rate"] = right
        rates["eve_guess_success_rate_stderr"] = math.sqrt(right * (1.0 - right) / trials)
    return rates


class TestMonteCarloCounts:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_shared_hamming_table_is_read_only(self, dim):
        """Every exact and sampled result reads the one cached table."""
        with pytest.raises(ValueError, match="read-only"):
            _hamming_table(dim)[0, 0] = 9
        assert _hamming_table(dim)[0, 0] == 0

    @pytest.mark.parametrize("name", family_names())
    def test_counts_give_the_per_trial_rates(self, name, monkeypatch):
        """Estimates from the counts of drawn cells equal, bit for bit, those
        from per-trial arrays of the same draws; the bit error's standard
        error, summed in another order, agrees within 1e-15 relative.  The
        counts come in chunks of 64 uniforms, so 777 trials take 13 chunks,
        the last one short."""
        monkeypatch.setattr(protocol, "_CHUNK", 64)
        family = get_family(name)
        dim = family.dim
        rotated = {2: "H", 4: "DFT4"}[dim]
        channels = (
            ChannelContext(),
            ChannelContext(noise=NoiseModel(0.02)),
            ChannelContext(eve=_eve(1, 2, 3, basis=rotated, dim=dim)),
            ChannelContext(eve=_eve(2, dim=dim), noise=NoiseModel(0.3)),
        )
        for ctx in channels:
            for index in range(dim):
                secret = basis_state(index, dim.bit_length() - 1)
                for trials in (1, 2, 777):
                    seed = 31 * index + trials
                    mc = monte_carlo_analysis(family, ctx, secret, trials, seed)
                    expected = _per_trial_rates(family, ctx, index, trials, seed)
                    stderr = expected.pop("bit_error_rate_stderr")
                    assert mc.bit_error_rate_stderr == pytest.approx(stderr, rel=1e-15, abs=0)
                    assert {k: getattr(mc, k) for k in expected} == expected, (ctx, index, trials)


class TestLayout:
    @pytest.mark.parametrize("name, ctx", _CHANNELS)
    def test_sampling_matches_per_row_reference(self, name, ctx):
        """The joint law gives the (secret, record code, outcome) frequencies
        of a per-row simulation that never enumerates."""
        assert_dense_sample_fits_joint_law(get_family(name), ctx, seed=2)


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
        session's draw: one uniform per block into the joint law."""
        family = get_family(name)
        blocks = 8197
        rotated = {2: "H", 4: "DFT4"}[family.dim]
        for stages in ((1,), (2,), (1, 2, 3)):
            for basis in (None, rotated):
                eve = _eve(*stages, basis=basis, dim=family.dim)
                for noise in (None, NoiseModel(0.05)):
                    guess = map_guesser(family, eve, noise=noise)
                    config = SessionConfig(family_name=name, blocks=blocks,
                                           eve_strategy=eve, noise=noise, seed=21)
                    rng = np.random.default_rng(np.random.SeedSequence(entropy=21))
                    joint = _law(family, eve, noise).joint
                    secrets, codes, _ = np.unravel_index(_draw(joint, blocks, rng), joint.shape)
                    right = sum(guess(_decode(int(code), len(stages), family.dim)) == secret
                                for code, secret in zip(codes, secrets))
                    observed = run_key_session(config).eve_guess_success_rate
                    assert observed == right / blocks, (name, stages, basis, noise)


class TestAcrossChunks:
    """Long runs reproduce for equal seeds and sit within 5 standard errors
    of the exact rates."""

    def test_sessions(self):
        blocks = 16387
        for name, eve in (("dft", _eve(1, 2, 3, basis="DFT4")), ("hadamard", _eve(2, dim=2))):
            report = _session_rates(name, eve, blocks, seed=12)
            again = _session_rates(name, eve, blocks, seed=12)
            np.testing.assert_array_equal(report.alice_bits, again.alice_bits)
            np.testing.assert_array_equal(report.bob_bits, again.bob_bits)
            assert (report.bit_error_rate, report.eve_guess_success_rate) == (
                again.bit_error_rate, again.eve_guess_success_rate)
            family = get_family(name)
            num_qubits = family.dim.bit_length() - 1
            exact = [exact_analysis(family, eve, basis_state(i, num_qubits))
                     for i in range(family.dim)]
            for rate in ("bit_error_rate", "eve_guess_success_rate"):
                expected = np.mean([getattr(r, rate) for r in exact])
                stderr = math.sqrt(expected * (1.0 - expected) / blocks)
                assert abs(getattr(report, rate) - expected) <= 5 * stderr + 1e-12, (name, rate)

    def test_monte_carlo(self):
        trials = 8193
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
