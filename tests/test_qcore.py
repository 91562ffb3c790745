"""Core state/operator layer: construction rules, algebra, measurement."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from tristage import qcore
from tristage import (
    Outcome,
    StateVector,
    UnitaryOperator,
    adjoint,
    apply,
    basis_state,
    dft_family,
    equal_up_to_global_phase,
    hadamard_family,
    is_basis_state,
    measure,
    outcome_distribution,
    pauli_family,
    proportional_phase,
    tensor,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _random_state(rng, num_qubits, zeros=()):
    """A random normalized state, with the amplitudes at ``zeros`` set to 0."""
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    amps[list(zeros)] = 0.0
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def _loop_pick(probs, draw):
    """Reference selection rule: the first index whose running total exceeds
    the draw, else the last index."""
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if draw < acc:
            return k
    return len(probs) - 1


def _measure_with_draw(psi, draw):
    """Measure ``psi`` with a stand-in generator that holds one draw, and
    check that exactly that one draw was consumed."""
    draws = iter([draw])
    outcome, collapsed = measure(psi, SimpleNamespace(random=draws.__next__))
    assert next(draws, "spent") == "spent"
    return outcome, collapsed


class TestStateVector:
    def test_valid_construction(self):
        psi = StateVector(1, np.array([INV_SQRT2, INV_SQRT2]))
        assert psi.dim == 2
        np.testing.assert_allclose(psi.amplitudes, [INV_SQRT2, INV_SQRT2])

    def test_amplitudes_are_read_only(self):
        """Basis states and measured collapses skip the constructor, which
        is what marks amplitudes read-only elsewhere."""
        rng = np.random.default_rng(4)
        for num_qubits in (1, 2):
            states = [basis_state(i, num_qubits) for i in range(2**num_qubits)]
            states.append(measure(_random_state(rng, num_qubits), rng)[1])
            for state in states:
                with pytest.raises(ValueError):
                    state.amplitudes[0] = 0.5

    def test_norm_violation_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_norm_tolerance_is_1e_9(self):
        StateVector(1, np.array([math.sqrt(1.0 + 5e-10), 0.0]))
        with pytest.raises(ValueError, match="norm squared is"):
            StateVector(1, np.array([math.sqrt(1.0 + 2e-9), 0.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("num_qubits, values", [(2, [1.0, 0.0]), (1, [[1.0, 0.0]]),
                                                    (1, [[1.0], [0.0]])])
    def test_shape_error_names_the_amplitude_count(self, num_qubits, values):
        with pytest.raises(ValueError, match="amplitudes, got shape"):
            StateVector(num_qubits, np.array(values))

    def test_unsupported_qubit_count_rejected(self):
        with pytest.raises(ValueError):
            StateVector(3, np.zeros(8))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector(1, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("num_qubits, values", [
        (1, [1.0, complex(0.0, np.nan)]), (2, [np.nan, 0.0]),
        (1, [np.inf, 0.0]), (1, [-np.inf, 0.0]), (1, [complex(0.0, np.inf), 0.0]),
        (2, [[np.inf, 0.0]]),
    ])
    def test_non_finite_checked_before_shape_and_norm(self, num_qubits, values):
        with pytest.raises(ValueError, match="finite"):
            StateVector(num_qubits, np.array(values))

    def test_scalar_amplitudes_fail_the_shape_check(self):
        with pytest.raises(ValueError, match=r"needs 2 amplitudes, got shape \(\)"):
            StateVector(1, 1.0)

    @pytest.mark.parametrize("num_qubits", [True, False, 1.0, "1", None])
    def test_qubit_count_must_be_an_integer(self, num_qubits):
        with pytest.raises(ValueError, match="num_qubits"):
            StateVector(num_qubits, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="num_qubits"):
            basis_state(0, num_qubits)
        with pytest.raises(ValueError, match="num_qubits"):
            Outcome.from_index(0, num_qubits)

    def test_numpy_integer_qubit_counts_accepted(self):
        assert StateVector(np.int64(1), np.array([1.0, 0.0])) == basis_state(0, 1)
        assert basis_state(3, np.int32(2)) == basis_state(3, 2)
        assert Outcome.from_index(2, np.uint8(2)) == Outcome.from_index(2, 2)

    def test_equality_is_exact(self):
        assert basis_state(1, 1) == basis_state(1, 1)
        assert basis_state(1, 1) != basis_state(0, 1)


class TestUnitaryOperator:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            UnitaryOperator(np.array([[1, 1], [0, 1]], dtype=complex), "bad")

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            UnitaryOperator(np.ones((2, 3), dtype=complex))

    def test_scalar_matrix_fails_the_square_check(self):
        with pytest.raises(ValueError, match=r"square, got shape \(\)"):
            UnitaryOperator(np.array(1.0))

    def test_unsupported_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            UnitaryOperator(np.eye(3, dtype=complex))

    def test_matrix_is_read_only(self):
        x = pauli_family().member("X")
        with pytest.raises(ValueError):
            x.matrix[0, 0] = 5.0

    def test_equal_operators_hash_equal(self):
        """Equal operators built separately hash alike, so families and
        strategies holding them can key a cache by value."""
        h = hadamard_family().member("H")
        again = UnitaryOperator(h.matrix.copy(), "H")
        assert again == h and again is not h
        assert hash(again) == hash(h)
        assert len({h, again}) == 1

    def test_transposed_input_accepted(self):
        """Non-contiguous input (e.g. a transpose view) is copied and checked."""
        h = hadamard_family().member("H")
        again = UnitaryOperator(h.matrix.conj().T, "H†")
        np.testing.assert_allclose(again.matrix, h.matrix, atol=1e-15)


#: (index, num_qubits, error message) that `Outcome.from_index` and
#: `basis_state` reject.
_BAD_INDICES = [
    (4, 2, "index 4 out of range for 2 qubit(s)"),
    (-1, 1, "index must be non-negative, got -1"),
    (0, 0, "num_qubits must be >= 1, got 0"),
    (5, 3, "num_qubits must be 1 or 2, got 3"),
    (True, 1, "index must be an integer, got True"),
    (1.0, 1, "index must be an integer, got 1.0"),
]


class TestOutcome:
    def test_bits_are_most_significant_first(self):
        """Index 2 over two qubits means qubit 0 reads 1 and qubit 1 reads 0."""
        assert Outcome.from_index(2, 2).bits == (1, 0)
        assert Outcome.from_index(1, 2).bits == (0, 1)

    def test_single_qubit_bits(self):
        assert Outcome.from_index(1, 1).bits == (1,)

    @pytest.mark.parametrize(
        "index, num_qubits, bits",
        [(0, 1, (0,)), (1, 1, (1,)),
         (0, 2, (0, 0)), (1, 2, (0, 1)), (2, 2, (1, 0)), (3, 2, (1, 1))],
    )
    def test_from_index_matches_constructor(self, index, num_qubits, bits):
        """from_index skips the constructor checks; its result must equal
        the checked one, with plain int bits."""
        outcome = Outcome.from_index(index, num_qubits)
        assert outcome == Outcome(index, bits)
        assert all(type(b) is int for b in outcome.bits)

    def test_inconsistent_bits_rejected(self):
        with pytest.raises(ValueError):
            Outcome(index=2, bits=(0, 1))

    @pytest.mark.parametrize("bits", [(True,), (1.0,), (2,), ()])
    def test_bits_that_are_not_0_1_ints_rejected(self, bits):
        with pytest.raises(ValueError, match="bits must be"):
            Outcome(1, bits)

    def test_out_of_range_index_rejected(self):
        for index, num_qubits, message in _BAD_INDICES:
            with pytest.raises(ValueError, match=re.escape(message)):
                Outcome.from_index(index, num_qubits)


class TestBasisStates:
    def test_basis_state_amplitudes(self):
        np.testing.assert_array_equal(
            basis_state(2, 2).amplitudes, [0, 0, 1, 0]
        )

    def test_basis_state_range_check(self):
        for index, num_qubits, message in [(2, 1, "index 2 out of range for 1 qubit(s)"),
                                           *_BAD_INDICES]:
            with pytest.raises(ValueError, match=re.escape(message)):
                basis_state(index, num_qubits)

    def test_is_basis_state_recognizes_phased_basis_states(self):
        psi = StateVector(1, np.array([0.0, 1j]))
        assert is_basis_state(psi) == 1

    def test_is_basis_state_rejects_superpositions(self):
        psi = StateVector(1, np.array([INV_SQRT2, INV_SQRT2]))
        assert is_basis_state(psi) is None


class TestProportionalPhase:
    def test_identical_arrays_give_unit_phase(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        assert proportional_phase(a, a) == pytest.approx(1.0)

    def test_pure_phase_is_recovered(self):
        a = np.array([1.0, 1j], dtype=complex)
        phase = proportional_phase(1j * a, a)
        assert phase == pytest.approx(1j)

    def test_non_proportional_returns_none(self):
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
        assert proportional_phase(a, b) is None

    def test_scaling_by_non_unit_modulus_returns_none(self):
        a = np.array([1.0, 1.0], dtype=complex)
        assert proportional_phase(2.0 * a, a) is None


class TestDefaultTolerance:
    """The three comparisons every other tolerance test goes through accept
    a deviation of half `DEFAULT_TOL` and reject one of twice it."""

    @staticmethod
    def _tilted(deviation):
        return StateVector(1, [math.sqrt(1.0 - deviation**2), deviation])

    @pytest.mark.parametrize("scale, accepted", [(0.5, True), (2.0, False)])
    def test_proportional_phase(self, scale, accepted):
        b = np.array([1.0, 0.0, 0.5j, -0.5])
        a = b + np.array([0.0, scale * qcore.DEFAULT_TOL, 0.0, 0.0])
        assert (proportional_phase(a, b) is not None) is accepted

    @pytest.mark.parametrize("scale, accepted", [(0.5, True), (2.0, False)])
    def test_is_basis_state(self, scale, accepted):
        assert (is_basis_state(self._tilted(scale * qcore.DEFAULT_TOL)) == 0) is accepted

    @pytest.mark.parametrize("scale, accepted", [(0.5, True), (2.0, False)])
    def test_equal_up_to_global_phase(self, scale, accepted):
        tilted = self._tilted(scale * qcore.DEFAULT_TOL)
        assert equal_up_to_global_phase(tilted, basis_state(0, 1)) is accepted


class TestOperatorAlgebra:
    def test_apply_checks_the_norm_of_every_product(self):
        """An operator let past the unitarity check still cannot make an
        unnormalized state."""
        shrink = qcore._trusted(UnitaryOperator, matrix=0.9 * np.eye(2), label="0.9I")
        with pytest.raises(ValueError, match="norm squared is"):
            apply(shrink, basis_state(0, 1))

    def test_apply_bit_flip(self):
        """X|0> = |1>."""
        x = pauli_family().member("X")
        assert apply(x, basis_state(0, 1)) == basis_state(1, 1)

    def test_adjoint_conjugates_and_transposes(self):
        """The Fourier member's (1,1) entry i/2 conjugates to -i/2."""
        f = dft_family().member("DFT4")
        assert f.matrix[1, 1] == pytest.approx(0.5j)
        assert adjoint(f).matrix[1, 1] == pytest.approx(-0.5j)

    def test_adjoint_of_equal_operators_built_separately(self):
        """adjoint is cached by value: equal inputs give equal, read-only
        results, and a different matrix under the same label does not hit
        the cache."""
        h = hadamard_family().member("H")
        twin = UnitaryOperator(h.matrix.copy(), "H")
        first, second = adjoint(h), adjoint(twin)
        assert first == second
        np.testing.assert_array_equal(first.matrix, h.matrix.conj().T)
        for result in (first, second):
            with pytest.raises(ValueError):
                result.matrix[0, 0] = 0.0
        z = pauli_family().member("Z")
        impostor = UnitaryOperator(z.matrix, "H")
        assert adjoint(impostor).matrix.tolist() == z.matrix.tolist()

    def test_adjoint_inverts(self):
        f = dft_family().member("DFT4")
        np.testing.assert_allclose(
            adjoint(f).matrix @ f.matrix, np.eye(4), atol=1e-12
        )

    def test_tensor_matches_kron(self):
        x = pauli_family().member("X")
        z = pauli_family().member("Z")
        np.testing.assert_allclose(
            tensor(x, z).matrix, np.kron(x.matrix, z.matrix), atol=1e-15
        )

    def test_tensor_rejects_four_dimensional_factors(self):
        with pytest.raises(ValueError):
            tensor(dft_family().member("DFT4"), pauli_family().member("X"))


class TestMeasurement:
    def test_outcome_distribution_of_equal_superposition(self):
        h = hadamard_family().member("H")
        np.testing.assert_allclose(
            outcome_distribution(apply(h, basis_state(0, 1))), [0.5, 0.5], atol=1e-12
        )

    def test_measure_is_deterministic_given_seed(self):
        h = hadamard_family().member("H")
        psi = apply(h, basis_state(0, 1))
        first = [measure(psi, np.random.default_rng(123))[0].index for _ in range(5)]
        second = [measure(psi, np.random.default_rng(123))[0].index for _ in range(5)]
        assert first == second

    def test_measure_collapses_to_sampled_basis_state(self):
        h = hadamard_family().member("H")
        psi = apply(h, basis_state(0, 1))
        outcome, collapsed = measure(psi, np.random.default_rng(9))
        assert collapsed == basis_state(outcome.index, 1)

    def test_measure_frequencies_follow_born_rule(self):
        """H|0> measured 10^4 times lands on each outcome half the time."""
        h = hadamard_family().member("H")
        psi = apply(h, basis_state(0, 1))
        rng = np.random.default_rng(7)
        ones = sum(measure(psi, rng)[0].index for _ in range(10_000))
        # 3 sigma of a fair coin over 10^4 draws
        assert abs(ones / 10_000 - 0.5) < 3 * 0.005

    def test_draw_at_or_above_total_picks_last_index(self):
        """Round-off can leave the running total at or below a draw; the last
        index is then the answer, as in the loop rule."""
        rng = np.random.default_rng(17)
        for num_qubits in (1, 2):
            for _ in range(50):
                psi = _random_state(rng, num_qubits)
                total = np.cumsum(outcome_distribution(psi))[-1]
                for draw in (total, np.nextafter(total, 2.0)):
                    outcome, collapsed = _measure_with_draw(psi, draw)
                    assert outcome.index == psi.dim - 1
                    assert collapsed == basis_state(psi.dim - 1, num_qubits)

    @pytest.mark.parametrize("zeros", [(0,), (1,), (0, 2), (1, 2), (0, 1, 3)])
    def test_selection_matches_loop_and_skips_zero_probabilities(self, zeros):
        """Every draw, including draws exactly on a running total, picks what
        the loop rule picks; below the total it never picks an outcome of
        probability zero."""
        rng = np.random.default_rng(23)
        psi = _random_state(rng, 2, zeros)
        probs = outcome_distribution(psi)
        cumulative = np.cumsum(probs)
        for draw in [*rng.random(2000), 0.0, *cumulative]:
            outcome, _ = _measure_with_draw(psi, draw)
            assert outcome.index == _loop_pick(probs, draw)
            if draw < cumulative[-1]:
                assert probs[outcome.index] > 0

    def test_collapsed_outcomes_are_shared_per_index_and_qubit_count(self):
        """Measuring a basis state gives its index; equal results are the
        same read-only objects, and one index over one and two qubits
        gives two different results."""
        results = {}
        for num_qubits in (1, 2, 1, 2):
            for index in range(2):
                outcome, collapsed = measure(basis_state(index, num_qubits),
                                             np.random.default_rng(index))
                assert outcome == Outcome.from_index(index, num_qubits)
                assert collapsed == basis_state(index, num_qubits)
                assert not collapsed.amplitudes.flags.writeable
                first = results.setdefault((index, num_qubits), (outcome, collapsed))
                assert first[0] is outcome and first[1] is collapsed
        for index in range(2):
            assert results[index, 1][0] != results[index, 2][0]
            assert results[index, 1][1] != results[index, 2][1]

    def test_measure_consumes_one_uniform(self):
        psi = _random_state(np.random.default_rng(29), 2)
        rng, twin = np.random.default_rng(31), np.random.default_rng(31)
        for _ in range(10):
            measure(psi, rng)
            twin.random()
        assert rng.random() == twin.random()


class TestGlobalPhaseEquality:
    def test_phase_multiple_is_equal(self):
        psi = basis_state(1, 1)
        phased = StateVector(1, 1j * psi.amplitudes)
        assert equal_up_to_global_phase(psi, phased)

    def test_orthogonal_states_are_not_equal(self):
        assert not equal_up_to_global_phase(basis_state(0, 1), basis_state(1, 1))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            equal_up_to_global_phase(basis_state(0, 1), basis_state(0, 2))
