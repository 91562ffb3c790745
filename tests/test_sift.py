"""Tests for parity-based tamper detection on sifted keys."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

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
        # Lengths beyond the 62-bit mask fast path still draw full-range subsets.
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


class TestDetectionProbability:
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
