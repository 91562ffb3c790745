"""Core state/operator layer: construction rules, algebra, measurement."""

import math

import numpy as np
import pytest

from tristage import (
    Outcome,
    StateVector,
    UnitaryOperator,
    adjoint,
    apply,
    basis_state,
    compose,
    dft_family,
    equal_up_to_global_phase,
    hadamard_family,
    is_basis_state,
    measure,
    measure_qubit,
    outcome_distribution,
    pauli_family,
    proportional_phase,
    tensor,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestStateVector:
    def test_valid_construction(self):
        psi = StateVector(1, np.array([INV_SQRT2, INV_SQRT2]))
        assert psi.dim == 2
        np.testing.assert_allclose(psi.amplitudes, [INV_SQRT2, INV_SQRT2])

    def test_amplitudes_are_read_only(self):
        psi = basis_state(0, 1)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_norm_violation_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_unsupported_qubit_count_rejected(self):
        with pytest.raises(ValueError):
            StateVector(3, np.zeros(8))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector(1, np.array([np.nan, 0.0]))

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


class TestOutcome:
    def test_bits_are_most_significant_first(self):
        """Index 2 over two qubits means qubit 0 reads 1 and qubit 1 reads 0."""
        assert Outcome.from_index(2, 2).bits == (1, 0)
        assert Outcome.from_index(1, 2).bits == (0, 1)

    def test_single_qubit_bits(self):
        assert Outcome.from_index(1, 1).bits == (1,)

    def test_inconsistent_bits_rejected(self):
        with pytest.raises(ValueError):
            Outcome(index=2, bits=(0, 1))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            Outcome.from_index(4, 2)


class TestBasisStates:
    def test_basis_state_amplitudes(self):
        np.testing.assert_array_equal(
            basis_state(2, 2).amplitudes, [0, 0, 1, 0]
        )

    def test_basis_state_range_check(self):
        with pytest.raises(ValueError):
            basis_state(2, 1)

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


class TestOperatorAlgebra:
    def test_apply_bit_flip(self):
        """X|0> = |1>."""
        x = pauli_family().member("X")
        assert apply(x, basis_state(0, 1)) == basis_state(1, 1)

    def test_compose_applies_right_factor_first(self):
        """X·Z as a matrix product."""
        x = pauli_family().member("X")
        z = pauli_family().member("Z")
        np.testing.assert_allclose(
            compose(x, z).matrix, [[0, -1], [1, 0]], atol=1e-15
        )

    def test_compose_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose(pauli_family().member("X"), dft_family().member("DFT4"))

    def test_adjoint_conjugates_and_transposes(self):
        """The Fourier member's (1,1) entry i/2 conjugates to -i/2."""
        f = dft_family().member("DFT4")
        assert f.matrix[1, 1] == pytest.approx(0.5j)
        assert adjoint(f).matrix[1, 1] == pytest.approx(-0.5j)

    def test_adjoint_inverts(self):
        f = dft_family().member("DFT4")
        np.testing.assert_allclose(
            compose(adjoint(f), f).matrix, np.eye(4), atol=1e-12
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

    def test_measure_qubit_on_correlated_state(self):
        """Measuring qubit 0 of (|00>+|11>)/sqrt(2) collapses both qubits."""
        psi = StateVector(2, np.array([INV_SQRT2, 0.0, 0.0, INV_SQRT2]))
        rng = np.random.default_rng(21)
        for _ in range(20):
            bit, collapsed = measure_qubit(psi, 0, rng)
            assert collapsed == basis_state(3 if bit else 0, 2)

    def test_measure_qubit_marginal(self):
        """Qubit 1 of |10> always reads 0 and leaves the state unchanged."""
        psi = basis_state(2, 2)
        bit, collapsed = measure_qubit(psi, 1, np.random.default_rng(0))
        assert bit == 0
        assert collapsed == psi

    def test_measure_qubit_range_check(self):
        with pytest.raises(ValueError):
            measure_qubit(basis_state(0, 1), 1, np.random.default_rng(0))


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
