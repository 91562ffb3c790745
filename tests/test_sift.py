"""Tests for parity-based tamper detection on sifted keys."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from test_passes import _Z
from tristage import ParityRound, SiftReport, detection_probability, parity_check


def flip(key, positions):
    out = list(key)
    for i in positions:
        out[i] ^= 1
    return tuple(out)


class TestParityCheck:
    def test_identical_keys_never_detect(self):
        rng = np.random.default_rng(0)
        key = tuple(int(b) for b in rng.integers(0, 2, size=16))
        report = parity_check(key, key, rounds=50, rng=np.random.default_rng(1))
        assert not report.detected
        assert all(r.alice_parity == r.bob_parity for r in report.rounds)

    def test_parities_match_recomputation(self):
        rng = np.random.default_rng(7)
        for length, rounds in ((12, 40), (100_000, 5)):
            alice = tuple(int(b) for b in rng.integers(0, 2, size=length))
            bob = flip(alice, [3, 8])
            report = parity_check(alice, bob, rounds=rounds, rng=rng)
            for rnd in report.rounds:
                assert rnd.indices
                want_a = 0
                want_b = 0
                for i in rnd.indices:
                    want_a ^= alice[i]
                    want_b ^= bob[i]
                assert rnd.alice_parity == want_a
                assert rnd.bob_parity == want_b
                assert rnd.mismatch == (want_a != want_b)

    def test_detected_iff_some_round_mismatches(self):
        rng = np.random.default_rng(11)
        alice = (0,) * 10
        bob = flip(alice, [4])
        report = parity_check(alice, bob, rounds=8, rng=rng)
        assert report.detected == any(r.mismatch for r in report.rounds)

    def test_disclosed_indices_union_of_rounds(self):
        rng = np.random.default_rng(21)
        for key in ((0, 1) * 5, (0, 1) * 50_000):
            report = parity_check(key, key, rounds=6, rng=rng)
            union = set()
            for rnd in report.rounds:
                union.update(rnd.indices)
            assert report.disclosed_indices == frozenset(union)

    def test_numpy_keys_match_list_keys(self):
        for length in (50, 200):
            alice, bob = np.random.default_rng(length).integers(0, 2, size=(2, length)).tolist()
            want = parity_check(alice, bob, rounds=8, rng=np.random.default_rng(3))
            for dtype in (np.uint8, np.int64, bool):
                got = parity_check(
                    np.array(alice, dtype), np.array(bob, dtype), rounds=8,
                    rng=np.random.default_rng(3),
                )
                assert got == want, (length, dtype)

    def test_single_round_detection_rate_matches_formula(self):
        # One flipped bit, one round: detection chance is 2^(n-1)/(2^n - 1).
        n = 6
        alice = (0,) * n
        bob = flip(alice, [2])
        rng = np.random.default_rng(2026)
        trials = 20000
        hits = sum(
            parity_check(alice, bob, rounds=1, rng=rng).detected
            for _ in range(trials)
        )
        q = detection_probability(n, 1, 1)
        stderr = np.sqrt(q * (1.0 - q) / trials)
        assert abs(hits / trials - q) < 4.0 * stderr

    def test_long_keys_use_every_index(self):
        # Masks span every byte of the key, the last one partly.
        length = 100
        key = (0,) * length
        rng = np.random.default_rng(5)
        report = parity_check(key, key, rounds=200, rng=rng)
        assert not report.detected
        assert report.disclosed_indices == frozenset(range(length))

    def test_long_keys_detect_differences(self):
        length = 80
        alice = (1,) * length
        bob = flip(alice, [79])
        rng = np.random.default_rng(9)
        detected = any(
            parity_check(alice, bob, rounds=10, rng=rng).detected
            for _ in range(20)
        )
        assert detected


class TestParityCheckValidation:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            parity_check((0, 1), (0, 1, 0), rounds=1, rng=np.random.default_rng(0))

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            parity_check((), (), rounds=1, rng=np.random.default_rng(0))

    def test_nonpositive_rounds_rejected(self):
        with pytest.raises(ValueError):
            parity_check((0, 1), (0, 1), rounds=0, rng=np.random.default_rng(0))

    def test_keys_that_are_not_one_dimensional_rejected(self):
        alice = np.zeros((2, 3), np.uint8)
        bob = alice.copy()
        bob[1, 2] = 1
        for keys in ((alice, bob), (np.array(1), np.array(1))):
            with pytest.raises(ValueError, match="one-dimensional"):
                parity_check(*keys, rounds=20, rng=np.random.default_rng(0))

    def test_non_bit_entries_rejected(self):
        with pytest.raises(ValueError):
            parity_check((0, 2), (0, 1), rounds=1, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("key", [
        [0, 2], (0, -1), [1, 256], [0, 1.5], [0, 2**70], [True, 2],
        [np.True_, np.int64(3)], np.array([0, 2]), np.array([0.0, 0.5]), np.array([0, -1])])
    def test_first_non_bit_entry_named(self, key):
        """Lists and tuples read through `bytes` or through `np.asarray`
        alike name the first entry that is not a bit."""
        message = f"alice key must contain bits, got {key[1]!r} at index 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            parity_check(key, [0, 1], rounds=1, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("length", [10, 100])
    @pytest.mark.parametrize("rounds", [True, False, 2.5, 1.0, "3", None])
    def test_rounds_must_be_an_integer(self, length, rounds):
        """On either mask path, short keys and long, a count that is not an
        integer is rejected before any draw."""
        key = (0, 1) * (length // 2)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="rounds must be an integer"):
            parity_check(key, key, rounds=rounds, rng=rng)
        assert rng.bit_generator.state == state

    def test_numpy_integer_rounds_accepted(self):
        key = (0, 1) * 40
        want = parity_check(key, key, rounds=3, rng=np.random.default_rng(4))
        assert parity_check(key, key, rounds=np.int64(3), rng=np.random.default_rng(4)) == want


class TestDetectionProbability:
    @pytest.mark.parametrize("field", ["key_length", "error_weight", "rounds"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_counts_must_be_integers(self, field, value):
        counts = {"key_length": 8, "error_weight": 1, "rounds": 2, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            detection_probability(**counts)

    @pytest.mark.parametrize("counts, message", [
        ((0, 0, 1), "key_length must be >= 1, got 0"),
        ((8, -1, 1), "error_weight must be non-negative, got -1"),
        ((8, 9, 1), r"error_weight must lie in \[0, 8\], got 9"),
        ((8, 1, 0), "rounds must be >= 1, got 0"),
    ])
    def test_counts_must_be_in_range(self, counts, message):
        with pytest.raises(ValueError, match=message):
            detection_probability(*counts)

    def test_numpy_integer_counts_accepted(self):
        """A numpy key length does not wrap 2**n: at 100 bits the chance is
        that of Python integers."""
        for n in (8, 100):
            assert detection_probability(np.int64(n), np.int32(1), np.uint8(3)) == (
                detection_probability(n, 1, 3))
        assert detection_probability(np.int64(100), 1, 1) == pytest.approx(0.5, abs=1e-15)

    def test_zero_weight_is_never_detected(self):
        for n in (1, 4, 16):
            for rounds in (1, 5, 50):
                assert detection_probability(n, 0, rounds) == 0.0

    def test_single_round_closed_form(self):
        # q = 2^(n-1) / (2^n - 1), independent of the error weight.
        for n in (2, 5, 8):
            q = Fraction(2 ** (n - 1), 2**n - 1)
            for weight in range(1, n + 1):
                got = detection_probability(n, weight, 1)
                assert got == pytest.approx(float(q), abs=1e-15)

    def test_pinned_eight_bit_value(self):
        assert detection_probability(8, 1, 1) == pytest.approx(128 / 255, abs=1e-15)

    def test_multi_round_compounding(self):
        q = Fraction(128, 255)
        want = 1.0 - float((1 - q) ** 4)
        assert detection_probability(8, 3, 4) == pytest.approx(want, abs=1e-12)

    def test_monotone_in_rounds(self):
        values = [detection_probability(10, 2, r) for r in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.999

    def test_matches_exhaustive_subset_count(self):
        # Enumerate all non-empty subsets of a small key and count the ones
        # with odd overlap against the error pattern.
        n = 5
        for weight in (1, 2, 3):
            error = (1 << weight) - 1
            odd = sum(
                1
                for mask in range(1, 2**n)
                if bin(mask & error).count("1") % 2 == 1
            )
            want = odd / (2**n - 1)
            assert detection_probability(n, weight, 1) == pytest.approx(want, abs=1e-15)


class TestReportShapes:
    def test_round_and_report_types(self):
        rng = np.random.default_rng(3)
        report = parity_check((1, 0, 1), (1, 0, 1), rounds=4, rng=rng)
        assert isinstance(report, SiftReport)
        assert len(report.rounds) == 4
        assert all(isinstance(r, ParityRound) for r in report.rounds)

    def test_report_is_frozen(self):
        rng = np.random.default_rng(3)
        report = parity_check((1, 0), (1, 0), rounds=1, rng=rng)
        with pytest.raises(AttributeError):
            report.detected = True


class TestLazyDisclosure:
    """``disclosed_indices`` is built from the union mask on first read."""

    @pytest.mark.parametrize("length", (10, 62, 63, 100_000))
    def test_union_of_round_indices_for_list_and_uint8_keys(self, length):
        alice = np.random.default_rng(length).integers(0, 2, size=length, dtype=np.uint8)
        bob = alice.copy()
        bob[length // 2] ^= 1
        for key_a, key_b in ((alice.tolist(), bob.tolist()), (alice, bob)):
            report = parity_check(key_a, key_b, rounds=4, rng=np.random.default_rng(8))
            union = set()
            for rnd in report.rounds:
                union.update(rnd.indices)
            assert report.disclosed_indices == frozenset(union)
            assert type(report.disclosed_indices) is frozenset

    def test_second_read_returns_the_same_object(self):
        report = parity_check((0, 1) * 40, (0, 1) * 40, rounds=3, rng=np.random.default_rng(2))
        assert report.disclosed_indices is report.disclosed_indices

    def test_assigning_to_any_field_raises(self):
        report = parity_check((0, 1) * 40, (1, 1) * 40, rounds=3, rng=np.random.default_rng(2))
        report.disclosed_indices
        for name, value in (("rounds", ()), ("detected", False), ("disclosed_mask", 0),
                            ("disclosed_indices", frozenset())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, name, value)

    def test_replaced_indices_set_the_mask(self):
        report = parity_check((0, 1) * 40, (0, 1) * 40, rounds=3, rng=np.random.default_rng(2))
        first = min(report.disclosed_indices)
        fewer = report.disclosed_indices - {first}
        changed = dataclasses.replace(report, disclosed_indices=fewer)
        assert changed.disclosed_indices == fewer
        assert changed.disclosed_mask == report.disclosed_mask ^ (1 << first)
        assert changed != report
        assert dataclasses.replace(report, detected=False) == report

    @pytest.mark.parametrize("indices", ({5, -1}, {-1}))
    def test_negative_replaced_index_rejected(self, indices):
        report = parity_check((0, 1) * 40, (0, 1) * 40, rounds=3, rng=np.random.default_rng(2))
        with pytest.raises(ValueError, match="disclosed indices must be >= 0"):
            dataclasses.replace(report, disclosed_indices=indices)


class _ZeroFirst:
    """Generator stand-in that hands out a real generator's bytes with the
    first ``zeros`` of them set to zero, and records each draw's size."""

    def __init__(self, zeros, seed):
        self.zeros, self.rng = zeros, np.random.default_rng(seed)
        self.sizes = []

    def integers(self, low, high, size, dtype):
        self.sizes.append(size)
        drawn = self.rng.integers(low, high, size=size, dtype=dtype)
        cleared = min(self.zeros, size)
        drawn[:cleared] = 0
        self.zeros -= cleared
        return drawn


def _as_int(bits):
    """The integer whose bit i is ``bits[i]``, read digit by digit."""
    return int("".join(str(int(b)) for b in reversed(bits)), 2)


def _reference_masks(length, rounds, rng):
    """Each mask from ``ceil(length / 8)`` bytes of one ``rng.integers(0,
    256, dtype=np.uint8)`` draw for all rounds, unpacked bit by bit with the
    bits at and past ``length`` dropped; while some masks are empty, one
    draw for all of those again."""
    width = (length + 7) // 8
    masks = [0] * rounds
    while 0 in masks:
        empty = [i for i, mask in enumerate(masks) if mask == 0]
        drawn = rng.integers(0, 256, size=len(empty) * width, dtype=np.uint8)
        bits = np.unpackbits(drawn, bitorder="little").reshape(len(empty), 8 * width)
        for i, row in zip(empty, bits[:, :length]):
            masks[i] = _as_int(row)
    return masks


def _reference_parity_check(alice, bob, rounds, rng):
    """`parity_check` from `_reference_masks`, with parities read bit by bit."""
    masks = _reference_masks(len(alice), rounds, rng)
    alice, bob = _as_int(alice), _as_int(bob)
    rows = [ParityRound(m, (m & alice).bit_count() % 2, (m & bob).bit_count() % 2) for m in masks]
    union = 0
    for m in masks:
        union |= m
    return SiftReport(tuple(rows), any(r.mismatch for r in rows), union)


class TestMaskStream:
    """All masks of a check come from one draw of bytes, and the empty ones
    from one more draw each time some are left."""

    KEY_TYPES = {
        "list": lambda bits: bits.tolist(),
        "tuple": lambda bits: tuple(bits.tolist()),
        "uint8": lambda bits: bits,
        "int64": lambda bits: bits.astype(np.int64),
        "bool": lambda bits: bits.astype(bool),
    }

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 62, 63, 64, 65, 8191, 8192, 8193, 100_001])
    @pytest.mark.parametrize("key_type", list(KEY_TYPES))
    def test_reports_and_stream_are_those_of_one_draw(self, length, key_type):
        alice = np.random.default_rng(length).integers(0, 2, size=length, dtype=np.uint8)
        bob = alice.copy()
        bob[[0, length // 3, length - 1]] ^= 1
        convert = self.KEY_TYPES[key_type]
        drawn, reference = np.random.default_rng(length + 1), np.random.default_rng(length + 1)
        got = parity_check(convert(alice), convert(bob), rounds=8, rng=drawn)
        assert got == _reference_parity_check(alice, bob, 8, reference)
        assert drawn.random() == reference.random()

    @pytest.mark.parametrize("length", [9, 63, 8192, 16389])
    def test_empty_mask_is_drawn_again_whole(self, length):
        """An empty mask is drawn again whole, into its own place; masks left
        empty together are drawn again in one draw."""
        width = (length + 7) // 8
        key = (1,) * length
        keep = (1 << length) - 1

        def real_masks(*slices):
            """Masks from the real stream's first draws of the given byte counts."""
            real = np.random.default_rng(3)
            draws = [real.integers(0, 256, size=n, dtype=np.uint8).tobytes() for n in slices]
            raw = b"".join(draws)
            return [int.from_bytes(raw[i:i + width], "little") & keep
                    for i in range(0, len(raw), width)]

        # The first two masks are empty and drawn again together; the third
        # keeps its bytes.
        stub = _ZeroFirst(zeros=2 * width, seed=3)
        report = parity_check(key, key, rounds=3, rng=stub)
        assert stub.sizes == [3 * width, 2 * width]
        _, _, third, again_first, again_second = real_masks(3 * width, 2 * width)
        assert [r.subset_mask for r in report.rounds] == [again_first, again_second, third]
        # The first two draws are empty: all three masks are drawn again, twice.
        stub = _ZeroFirst(zeros=6 * width, seed=3)
        report = parity_check(key, key, rounds=3, rng=stub)
        assert stub.sizes == [3 * width] * 3
        assert [r.subset_mask for r in report.rounds] == real_masks(*[3 * width] * 3)[6:]


class TestSubsetLaw:
    """Masks are uniform over the non-empty subsets, so each round detects
    any non-zero error pattern with chance 2^(n-1) / (2^n - 1)."""

    @pytest.mark.parametrize("length", [1, 3, 4, 9])
    def test_masks_are_uniform_over_non_empty_subsets(self, length):
        """Pearson's chi-square of the subset counts against the uniform law
        on the 2^n - 1 non-empty subsets stays below its Wilson-Hilferty
        quantile at 1 - 1e-6.  Nine bits span two bytes, so the tail of the
        second is cleared."""
        cells, per_cell = 2**length - 1, 64
        key = (0,) * length
        report = parity_check(key, key, rounds=cells * per_cell, rng=np.random.default_rng(length))
        counts = np.bincount([r.subset_mask for r in report.rounds], minlength=cells + 1)
        assert counts.size == cells + 1 and counts[0] == 0
        statistic = float(((counts[1:] - per_cell) ** 2 / per_cell).sum())
        df = cells - 1
        bound = df * (1 - 2 / (9 * df) + _Z * math.sqrt(2 / (9 * df))) ** 3 if df else 0.0
        assert statistic <= bound, (statistic, bound, df)

    @pytest.mark.parametrize("length", [63, 65, 8193])
    def test_masks_stay_within_the_key(self, length):
        key = (0,) * length
        report = parity_check(key, key, rounds=200, rng=np.random.default_rng(length))
        assert all(r.subset_mask >> length == 0 for r in report.rounds)
        assert report.disclosed_mask >> (length - 1) == 1
