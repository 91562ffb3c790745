"""Operator family catalog: matrices, commutation, closure, decomposition."""

import math

import numpy as np
import pytest

from tristage import (
    OperatorFamily,
    StateVector,
    UnitaryOperator,
    aggregate_outcome_distribution,
    basis_preserving,
    basis_state,
    commutation_phase,
    controlled_pair_family,
    dft_family,
    family_names,
    get_family,
    hadamard_family,
    operator_catalog,
    pauli_family,
    pauli_tensor_decompose,
    quaternion_family,
    superposition_probability,
    tensor,
    verify_family,
)
from tristage.opsets import QUARTER_PHASES

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestCatalog:
    def test_names_and_dimensions(self):
        assert family_names() == (
            "pauli",
            "hadamard",
            "controlled-pair",
            "dft",
            "quaternion",
        )
        assert [get_family(n).dim for n in family_names()] == [2, 2, 4, 4, 4]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            get_family("clifford")

    def test_member_lookup(self):
        assert pauli_family().member("Y").label == "Y"
        with pytest.raises(ValueError, match="no member"):
            pauli_family().member("W")

    def test_operator_catalog_collects_by_dimension(self):
        two = operator_catalog(2)
        four = operator_catalog(4)
        assert {"I", "X", "Y", "Z", "H"} == set(two)
        assert {"I4", "CNOT", "OCNOT", "IX", "DFT4", "Qi", "Qj", "Qk", "Q1"} == set(four)


class TestFamilyConstruction:
    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            OperatorFamily(name="empty", members=())

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="mixes dimensions"):
            OperatorFamily(
                name="mixed",
                members=(pauli_family().member("X"), dft_family().member("DFT4")),
            )

    def test_duplicate_labels_rejected(self):
        x = pauli_family().member("X")
        with pytest.raises(ValueError, match="duplicate"):
            OperatorFamily(name="dup", members=(x, x))

    def test_algebraically_broken_family_is_constructible(self):
        """Construction checks structure only; verify_family judges algebra."""
        bad = OperatorFamily(
            name="ad-hoc",
            members=(pauli_family().member("X"), hadamard_family().member("H")),
        )
        assert bad.labels == ("X", "H")


class TestPinnedMatrices:
    def test_pauli_entries(self):
        fam = pauli_family()
        assert fam.member("Y").matrix[0, 1] == pytest.approx(-1j)
        assert fam.member("Z").matrix[1, 1] == pytest.approx(-1)
        np.testing.assert_array_equal(fam.member("I").matrix, np.eye(2))

    def test_hadamard_entries(self):
        h = hadamard_family().member("H")
        assert h.matrix[1, 1] == pytest.approx(-INV_SQRT2)
        np.testing.assert_allclose(h.matrix @ h.matrix, np.eye(2), atol=1e-12)

    def test_controlled_pair_entries(self):
        fam = controlled_pair_family()
        np.testing.assert_array_equal(fam.member("CNOT").matrix[2], [0, 0, 0, 1])
        np.testing.assert_array_equal(fam.member("OCNOT").matrix[0], [0, 1, 0, 0])

    def test_controlled_pair_product_maps_01_to_00(self):
        """The completed product flips the second qubit unconditionally."""
        product = controlled_pair_family().member("IX")
        image = product.matrix @ basis_state(1, 2).amplitudes
        np.testing.assert_allclose(image, basis_state(0, 2).amplitudes, atol=1e-12)

    def test_dft_entries(self):
        f = dft_family().member("DFT4")
        assert f.matrix[1, 1] == pytest.approx(0.5j)
        assert f.matrix[3, 3] == pytest.approx(0.5j)
        np.testing.assert_allclose(
            f.matrix.conj().T @ f.matrix, np.eye(4), atol=1e-12
        )

    def test_quaternion_entries(self):
        fam = quaternion_family()
        np.testing.assert_array_equal(fam.member("Qi").matrix[1], [-1, 0, 0, 0])
        np.testing.assert_array_equal(fam.member("Qj").matrix[3], [1, 0, 0, 0])
        np.testing.assert_array_equal(fam.member("Q1").matrix, np.eye(4))

    def test_quaternion_multiplication_rules(self):
        """Qi·Qj = Qk cyclically, and each non-identity member squares to -1."""
        qi = quaternion_family().member("Qi").matrix
        qj = quaternion_family().member("Qj").matrix
        qk = quaternion_family().member("Qk").matrix
        np.testing.assert_allclose(qi @ qj, qk, atol=1e-12)
        np.testing.assert_allclose(qj @ qk, qi, atol=1e-12)
        np.testing.assert_allclose(qk @ qi, qj, atol=1e-12)
        for q in (qi, qj, qk):
            np.testing.assert_allclose(q @ q, -np.eye(4), atol=1e-12)


class TestCommutationPhase:
    def test_identity_commutes_with_unit_phase(self):
        fam = pauli_family()
        assert commutation_phase(fam.member("I"), fam.member("X")) == pytest.approx(1.0)

    def test_anticommuting_pair_gives_minus_one(self):
        fam = pauli_family()
        assert commutation_phase(fam.member("X"), fam.member("Z")) == pytest.approx(-1.0)

    def test_quaternion_pair_gives_minus_one(self):
        fam = quaternion_family()
        assert commutation_phase(fam.member("Qi"), fam.member("Qj")) == pytest.approx(-1.0)

    def test_non_commuting_pair_returns_none(self):
        assert commutation_phase(
            pauli_family().member("X"), hadamard_family().member("H")
        ) is None

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            commutation_phase(pauli_family().member("X"), dft_family().member("DFT4"))

    def test_one_cache_entry_per_pair(self):
        """`verify_family` and `run_three_stage` call with the same arguments,
        so the catalog's 54 distinct ordered pairs (the identities are shared
        between families) take 54 entries, whichever caller came first."""
        commutation_phase.cache_clear()
        families = [get_family(name) for name in family_names()]
        for family in families:
            verify_family(family)
        for family in families:
            for left in family.members:
                for right in family.members:
                    commutation_phase(left, right)
        info = commutation_phase.cache_info()
        assert (info.misses, info.currsize) == (54, 54)


class TestVerifyFamily:
    def test_all_catalog_families_pass(self):
        for name in family_names():
            report = verify_family(get_family(name))
            assert report.passed, report.format()
            assert report.commuting and report.has_identity

    def test_pauli_phases_are_real_signs(self):
        report = verify_family(pauli_family())
        phases = {p.commutation for p in report.pairs}
        for phase in phases:
            assert min(abs(phase - 1), abs(phase + 1)) < 1e-9

    def test_pauli_closure_witnesses(self):
        """X·Y = iZ and cyclic variants, entrywise to 1e-12."""
        fam = pauli_family()
        for left, right, product in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
            np.testing.assert_allclose(
                fam.member(left).matrix @ fam.member(right).matrix,
                1j * fam.member(product).matrix,
                atol=1e-12,
            )

    def test_quaternion_off_diagonal_pairs_anticommute(self):
        report = verify_family(quaternion_family())
        for pair in report.pairs:
            if pair.left != pair.right and "Q1" not in (pair.left, pair.right):
                assert pair.commutation == pytest.approx(-1.0)

    def test_dft_family_commutes_but_is_not_closed(self):
        """The Fourier member squared is the index-reversal permutation,
        which is not a member, so closure fails while commutation holds."""
        report = verify_family(dft_family())
        assert report.passed and report.commuting
        assert not report.closed
        missing = {(p.left, p.right) for p in report.missing_products()}
        assert missing == {("DFT4", "DFT4")}
        f = dft_family().member("DFT4").matrix
        reversal = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        np.testing.assert_allclose(f @ f, reversal, atol=1e-12)

    def test_ad_hoc_family_fails_with_reported_pair(self):
        bad = OperatorFamily(
            name="ad-hoc",
            members=(pauli_family().member("X"), hadamard_family().member("H")),
        )
        report = verify_family(bad)
        assert not report.passed
        assert {("X", "H"), ("H", "X")} <= {
            (p.left, p.right) for p in report.failures()
        }
        assert "FAIL" in report.format()

    def test_closure_witnesses_recorded_for_closed_family(self):
        report = verify_family(pauli_family())
        for pair in report.pairs:
            assert pair.closure_member is not None
            assert min(abs(pair.closure_phase - c) for c in QUARTER_PHASES) < 1e-9


class TestAggregateDistribution:
    def test_pauli_on_zero_is_uniform(self):
        np.testing.assert_allclose(
            aggregate_outcome_distribution(pauli_family(), basis_state(0, 1)),
            [0.5, 0.5],
            atol=1e-12,
        )

    def test_hadamard_on_zero_is_biased(self):
        np.testing.assert_allclose(
            aggregate_outcome_distribution(hadamard_family(), basis_state(0, 1)),
            [0.75, 0.25],
            atol=1e-12,
        )

    def test_dft_on_zero_is_biased(self):
        np.testing.assert_allclose(
            aggregate_outcome_distribution(dft_family(), basis_state(0, 2)),
            [0.625, 0.125, 0.125, 0.125],
            atol=1e-12,
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate_outcome_distribution(pauli_family(), basis_state(0, 2))


class TestSuperpositionProbability:
    def test_hadamard_value(self):
        assert superposition_probability(hadamard_family(), basis_state(0, 1)) == 0.5

    def test_pauli_value(self):
        assert superposition_probability(pauli_family(), basis_state(0, 1)) == 0.0

    def test_dft_value(self):
        assert superposition_probability(dft_family(), basis_state(0, 2)) == 0.5

    def test_superposition_input_rejected(self):
        plus = StateVector(1, np.array([INV_SQRT2, INV_SQRT2]))
        with pytest.raises(ValueError, match="basis state"):
            superposition_probability(hadamard_family(), plus)


class TestBasisPreserving:
    def test_permutation_like_families(self):
        assert basis_preserving(pauli_family())
        assert basis_preserving(controlled_pair_family())
        assert basis_preserving(quaternion_family())

    def test_superposing_families(self):
        assert not basis_preserving(hadamard_family())
        assert not basis_preserving(dft_family())


class TestPauliTensorDecomposition:
    def test_identity_decomposition(self):
        dec = pauli_tensor_decompose(quaternion_family().member("Q1"))
        assert (dec.left, dec.right, dec.phase) == ("I", "I", 1.0)

    def test_quaternion_decompositions(self):
        """Each quaternion member factors as a phased product of one-qubit
        operators; the scan is deterministic so the labels are pinned."""
        expected = {
            "Qi": ("I", "Y", 1j),
            "Qj": ("Y", "X", -1j),
            "Qk": ("Y", "Z", -1j),
            "Q1": ("I", "I", 1.0 + 0j),
        }
        for label, (left, right, phase) in expected.items():
            dec = pauli_tensor_decompose(quaternion_family().member(label))
            assert (dec.left, dec.right) == (left, right)
            assert dec.phase == pytest.approx(phase)
            np.testing.assert_allclose(
                dec.reconstruct(),
                quaternion_family().member(label).matrix,
                atol=1e-9,
            )

    def test_entangling_permutation_has_no_decomposition(self):
        assert pauli_tensor_decompose(controlled_pair_family().member("CNOT")) is None

    def test_round_trip_over_all_candidates(self):
        """Every phase * (P tensor Q) candidate decomposes back to itself."""
        fam = pauli_family()
        for left in fam.members:
            for right in fam.members:
                for phase in QUARTER_PHASES:
                    candidate = UnitaryOperator(
                        phase * tensor(left, right).matrix, "cand"
                    )
                    dec = pauli_tensor_decompose(candidate)
                    assert dec is not None
                    np.testing.assert_allclose(
                        dec.reconstruct(), candidate.matrix, atol=1e-9
                    )

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            pauli_tensor_decompose(pauli_family().member("X"))
