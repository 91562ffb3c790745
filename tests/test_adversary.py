"""Channel interference: intercept-resend mechanics and bit-flip noise."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from tristage import (
    ChannelContext,
    EveStrategy,
    NoiseModel,
    StageLabel,
    StateVector,
    apply,
    basis_state,
    hadamard_family,
    pauli_family,
    tensor,
    transmit,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
STAGE_1 = StageLabel.ALICE_TO_BOB_1


def _plus() -> StateVector:
    return StateVector(1, np.array([INV_SQRT2, INV_SQRT2]))


def _random_state(num_qubits: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


class TestStrategyValidation:
    def test_empty_stage_set_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            EveStrategy(stages=frozenset())

    def test_stage_collection_is_normalized(self):
        eve = EveStrategy(stages=[STAGE_1, STAGE_1])
        assert eve.stages == frozenset({STAGE_1})
        assert eve.attacks(STAGE_1)
        assert not eve.attacks(StageLabel.BOB_TO_ALICE_2)

    def test_stages_must_be_stage_labels(self):
        """Plain stage numbers would never match a StageLabel, leaving an
        eavesdropper who intercepts nothing."""
        with pytest.raises(ValueError, match="stage 2 is not a StageLabel"):
            EveStrategy(stages={STAGE_1, 2})

    def test_noise_probability_range_checked(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            NoiseModel(bit_flip_probability=1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            NoiseModel(bit_flip_probability=-0.1)

    @pytest.mark.parametrize("rotation", [np.eye(2), "H"])
    def test_pre_rotation_must_be_an_operator(self, rotation):
        """An array or a label would fail only later, in the law's cache or
        in `transmit`; construction rejects it."""
        with pytest.raises(ValueError, match="pre_rotation must be a UnitaryOperator or None"):
            EveStrategy(stages={STAGE_1}, pre_rotation=rotation)

    @pytest.mark.parametrize("p", ["0.1", True, False, None, float("nan")])
    def test_noise_probability_must_be_a_number(self, p):
        """A string would fail only at the first comparison, and True would
        read as a probability of 1."""
        with pytest.raises(ValueError, match=r"must be a number in \[0, 1\]"):
            NoiseModel(p)

    @pytest.mark.parametrize("p", [0, 1, 0.25, np.float64(0.25), np.float32(0.5), np.int64(1)])
    def test_python_and_numpy_numbers_accepted(self, p):
        assert NoiseModel(p).bit_flip_probability == p


class TestTransmit:
    def test_clean_channel_delivers_unchanged(self):
        psi = _plus()
        delivered, record = transmit(STAGE_1, psi, ChannelContext(), np.random.default_rng(0))
        assert record is None
        assert delivered == psi

    def test_unattacked_stage_passes_through(self):
        ctx = ChannelContext(eve=EveStrategy(stages={StageLabel.BOB_TO_ALICE_2}))
        delivered, record = transmit(STAGE_1, _plus(), ctx, np.random.default_rng(0))
        assert record is None
        assert delivered == _plus()

    def test_basis_state_is_transparent_to_interception(self):
        """Collapse of a basis state records the index and changes nothing."""
        ctx = ChannelContext(eve=EveStrategy(stages={STAGE_1}))
        delivered, record = transmit(
            STAGE_1, basis_state(1, 1), ctx, np.random.default_rng(0)
        )
        assert record.index == 1
        assert delivered == basis_state(1, 1)

    def test_superposition_collapses_to_uniform_outcomes(self):
        """An equal superposition collapses to each basis state half the
        time over 10^5 interceptions."""
        ctx = ChannelContext(eve=EveStrategy(stages={STAGE_1}))
        rng = np.random.default_rng(13)
        psi = _plus()
        ones = 0
        for _ in range(100_000):
            delivered, record = transmit(STAGE_1, psi, ctx, rng)
            assert delivered == basis_state(record.index, 1)
            ones += record.index
        assert abs(ones / 100_000 - 0.5) < 0.005

    def test_pre_rotation_defines_the_measurement_basis(self):
        """Measuring |0> after a Hadamard rotation is a fair coin, and the
        resent state is the un-rotated basis state."""
        h = hadamard_family().member("H")
        ctx = ChannelContext(eve=EveStrategy(stages={STAGE_1}, pre_rotation=h))
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(200):
            delivered, record = transmit(STAGE_1, basis_state(0, 1), ctx, rng)
            seen.add(record.index)
            expected = apply(h, basis_state(record.index, 1))
            np.testing.assert_allclose(
                delivered.amplitudes, expected.amplitudes, atol=1e-12
            )
        assert seen == {0, 1}

    def test_pre_rotation_dimension_checked(self):
        h = hadamard_family().member("H")
        ctx = ChannelContext(eve=EveStrategy(stages={STAGE_1}, pre_rotation=h))
        with pytest.raises(ValueError, match="pre-rotation"):
            transmit(STAGE_1, basis_state(0, 2), ctx, np.random.default_rng(0))


class TestNoise:
    def test_certain_flip_on_one_qubit(self):
        ctx = ChannelContext(noise=NoiseModel(1.0))
        delivered, _ = transmit(STAGE_1, basis_state(0, 1), ctx, np.random.default_rng(0))
        assert delivered == basis_state(1, 1)

    def test_certain_flip_on_both_qubits(self):
        ctx = ChannelContext(noise=NoiseModel(1.0))
        delivered, _ = transmit(STAGE_1, basis_state(0, 2), ctx, np.random.default_rng(0))
        assert delivered == basis_state(3, 2)

    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_certain_flips_match_x_on_every_qubit(self, num_qubits):
        """Flipping by index permutation equals applying X (X⊗X on two
        qubits) to a superposition."""
        x = pauli_family().member("X")
        flip_all = x if num_qubits == 1 else tensor(x, x)
        psi = _random_state(num_qubits, seed=num_qubits)
        ctx = ChannelContext(noise=NoiseModel(1.0))
        delivered, _ = transmit(STAGE_1, psi, ctx, np.random.default_rng(0))
        np.testing.assert_array_equal(delivered.amplitudes, apply(flip_all, psi).amplitudes)

    @pytest.mark.parametrize(
        "draws, left, right", [((0.0, 0.9), "X", "I"), ((0.9, 0.0), "I", "X")]
    )
    def test_single_flip_matches_x_on_that_qubit(self, draws, left, right):
        """Draws that flip only qubit 0 give X⊗I; only qubit 1, I⊗X."""
        paulis = pauli_family()
        psi = _random_state(2, seed=3)
        ctx = ChannelContext(noise=NoiseModel(0.5))
        stub = SimpleNamespace(random=iter(draws).__next__)
        delivered, _ = transmit(STAGE_1, psi, ctx, stub)
        expected = apply(tensor(paulis.member(left), paulis.member(right)), psi)
        np.testing.assert_array_equal(delivered.amplitudes, expected.amplitudes)

    def test_zero_probability_never_flips(self):
        ctx = ChannelContext(noise=NoiseModel(0.0))
        rng = np.random.default_rng(5)
        for index in range(4):
            delivered, _ = transmit(STAGE_1, basis_state(index, 2), ctx, rng)
            assert delivered == basis_state(index, 2)

    def test_flip_frequency_matches_probability(self):
        ctx = ChannelContext(noise=NoiseModel(0.2))
        rng = np.random.default_rng(11)
        flips = 0
        for _ in range(10_000):
            delivered, _ = transmit(STAGE_1, basis_state(0, 1), ctx, rng)
            flips += delivered == basis_state(1, 1)
        assert abs(flips / 10_000 - 0.2) < 3 * math.sqrt(0.2 * 0.8 / 10_000)

    def test_noise_applies_after_interception(self):
        """With certain flips and an intercept, the record shows the state
        before noise."""
        ctx = ChannelContext(
            eve=EveStrategy(stages={STAGE_1}), noise=NoiseModel(1.0)
        )
        delivered, record = transmit(
            STAGE_1, basis_state(0, 1), ctx, np.random.default_rng(0)
        )
        assert record.index == 0
        assert delivered == basis_state(1, 1)
