"""Three-stage exchange: recovery, phase identity, sessions, determinism."""

import math

import numpy as np
import pytest

from tristage import (
    ChannelContext,
    EveStrategy,
    NoiseModel,
    NonCommutingOperatorsError,
    SessionConfig,
    StageLabel,
    UnitaryOperator,
    adjoint,
    apply,
    basis_state,
    commutation_phase,
    equal_up_to_global_phase,
    exact_analysis,
    family_names,
    get_family,
    hadamard_family,
    pauli_family,
    run_key_session,
    run_three_stage,
    verify_recovery,
)
from tristage.opsets import operator_catalog
from tristage import protocol
from tristage.protocol import STAGES, Transcript, _draw, _law

INV_SQRT2 = 1.0 / math.sqrt(2.0)
CLEAN = ChannelContext()


def _clean_run(secret, alice_op, bob_op, seed=0):
    return run_three_stage(secret, alice_op, bob_op, CLEAN, np.random.default_rng(seed))


def _random_runs(name, runs, channel, seed):
    """Transcripts of runs with a uniform basis secret and uniform members."""
    fam = get_family(name)
    num_qubits = fam.dim.bit_length() - 1
    rng = np.random.default_rng(seed)
    for _ in range(runs):
        secret = basis_state(int(rng.integers(0, fam.dim)), num_qubits)
        alice_op = fam.members[int(rng.integers(0, len(fam)))]
        bob_op = fam.members[int(rng.integers(0, len(fam)))]
        yield run_three_stage(secret, alice_op, bob_op, channel, rng)


def _fields(report):
    """A session report's fields with the keys as bytes, which compare with ``==``."""
    return (report.alice_bits.tobytes(), report.bob_bits.tobytes(),
            report.bit_error_rate, report.eve_guess_success_rate)


class TestSingleRuns:
    def test_identity_pair_is_transparent(self):
        fam = pauli_family()
        t = _clean_run(basis_state(0, 1), fam.member("I"), fam.member("I"))
        for stage in STAGES:
            assert t.wire_states[stage] == basis_state(0, 1)
        assert t.recovered == basis_state(0, 1)
        assert t.measured.index == 0

    def test_bit_flip_and_y_pair_traced_by_hand(self):
        """Secret |0>, X then Y: wires |1>, -i|0>, -i|1>; recovered -|0>."""
        fam = pauli_family()
        t = _clean_run(basis_state(0, 1), fam.member("X"), fam.member("Y"))
        np.testing.assert_allclose(
            t.wire_states[StageLabel.ALICE_TO_BOB_1].amplitudes, [0, 1], atol=1e-12
        )
        np.testing.assert_allclose(
            t.wire_states[StageLabel.BOB_TO_ALICE_2].amplitudes, [-1j, 0], atol=1e-12
        )
        np.testing.assert_allclose(
            t.wire_states[StageLabel.ALICE_TO_BOB_3].amplitudes, [0, -1j], atol=1e-12
        )
        np.testing.assert_allclose(t.recovered.amplitudes, [-1, 0], atol=1e-12)
        assert verify_recovery(t)

    def test_double_hadamard_traced_by_hand(self):
        """Secret |1> under H twice: superposition out, |1> back."""
        h = hadamard_family().member("H")
        t = _clean_run(basis_state(1, 1), h, h)
        np.testing.assert_allclose(
            t.wire_states[StageLabel.ALICE_TO_BOB_1].amplitudes,
            [INV_SQRT2, -INV_SQRT2],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            t.wire_states[StageLabel.BOB_TO_ALICE_2].amplitudes, [0, 1], atol=1e-12
        )
        np.testing.assert_allclose(
            t.wire_states[StageLabel.ALICE_TO_BOB_3].amplitudes,
            [INV_SQRT2, -INV_SQRT2],
            atol=1e-12,
        )
        np.testing.assert_allclose(t.recovered.amplitudes, [0, 1], atol=1e-12)
        assert t.measured.index == 1

    def test_wire_state_is_alice_image_of_secret(self):
        fam = get_family("quaternion")
        secret = basis_state(2, 2)
        t = _clean_run(secret, fam.member("Qj"), fam.member("Qk"))
        expected = apply(fam.member("Qj"), secret)
        assert t.wire_states[StageLabel.ALICE_TO_BOB_1] == expected

    def test_non_commuting_pair_refused(self):
        """Refused again when the pair repeats, and when an equal pair built
        anew hits the commutation cache: a cached None still refuses."""
        x, h = pauli_family().member("X"), hadamard_family().member("H")
        twins = (UnitaryOperator(x.matrix.copy(), "X"), UnitaryOperator(h.matrix.copy(), "H"))
        for alice_op, bob_op in [(x, h), (x, h), twins]:
            with pytest.raises(NonCommutingOperatorsError):
                run_three_stage(
                    basis_state(0, 1), alice_op, bob_op, CLEAN, np.random.default_rng(0)
                )

    def test_dimension_mismatch_refused(self):
        with pytest.raises(ValueError, match="dims"):
            run_three_stage(
                basis_state(0, 2),
                pauli_family().member("X"),
                pauli_family().member("X"),
                CLEAN,
                np.random.default_rng(0),
            )


class TestRecoveryProperties:
    def test_exhaustive_clean_recovery(self):
        """Every family pair and basis secret recovers cleanly."""
        rng = np.random.default_rng(1)
        for name in family_names():
            fam = get_family(name)
            num_qubits = fam.dim.bit_length() - 1
            for alice_op in fam.members:
                for bob_op in fam.members:
                    for index in range(fam.dim):
                        t = run_three_stage(
                            basis_state(index, num_qubits), alice_op, bob_op, CLEAN, rng
                        )
                        assert verify_recovery(t), (
                            name,
                            alice_op.label,
                            bob_op.label,
                            index,
                        )

    def test_phase_identity(self):
        """B†·A†·B·A equals conj(c)·I where c is the commutation phase."""
        for name in family_names():
            fam = get_family(name)
            identity = np.eye(fam.dim)
            for alice_op in fam.members:
                for bob_op in fam.members:
                    c = commutation_phase(alice_op, bob_op)
                    chain = (adjoint(bob_op).matrix @ adjoint(alice_op).matrix
                             @ bob_op.matrix @ alice_op.matrix)
                    np.testing.assert_allclose(
                        chain,
                        np.conj(c) * identity,
                        atol=1e-9,
                        err_msg=f"{name}: {alice_op.label},{bob_op.label}",
                    )

    def test_verify_recovery_detects_wrong_state(self):
        fam = pauli_family()
        t = _clean_run(basis_state(0, 1), fam.member("X"), fam.member("Z"))
        broken = Transcript(
            secret=t.secret,
            alice_op=t.alice_op,
            bob_op=t.bob_op,
            wire_states=t.wire_states,
            delivered_states=t.delivered_states,
            recovered=basis_state(1, 1),
            measured=t.measured,
            eve_records=t.eve_records,
        )
        assert verify_recovery(t)
        assert not verify_recovery(broken)


class TestKeySessions:
    def test_clean_sessions_have_zero_error(self):
        for name in family_names():
            for seed in (0, 17):
                report = run_key_session(
                    SessionConfig(family_name=name, blocks=60, seed=seed)
                )
                assert report.bit_error_rate == 0.0
                np.testing.assert_array_equal(report.alice_bits, report.bob_bits)
                assert report.eve_guess_success_rate is None

    def test_two_qubit_families_carry_two_bits_per_block(self):
        report = run_key_session(SessionConfig(family_name="dft", blocks=100, seed=4))
        assert len(report.bob_bits) == 200

    def test_sessions_are_deterministic(self):
        eve = EveStrategy(stages={StageLabel.ALICE_TO_BOB_1})
        config = SessionConfig(
            family_name="hadamard", blocks=40, eve_strategy=eve, seed=99
        )
        first = run_key_session(config)
        second = run_key_session(config)
        np.testing.assert_array_equal(first.alice_bits, second.alice_bits)
        np.testing.assert_array_equal(first.bob_bits, second.bob_bits)
        assert first.bit_error_rate == second.bit_error_rate

    def test_eavesdropped_session_rates_match_enumeration(self):
        """Intercept-resend at stage one of the superposing one-qubit family:
        error rate near 1/4 and MAP guessing near 3/4."""
        eve = EveStrategy(stages={StageLabel.ALICE_TO_BOB_1})
        report = run_key_session(
            SessionConfig(family_name="hadamard", blocks=4000, eve_strategy=eve, seed=5)
        )
        # 3 sigma bounds at 4000 blocks
        assert abs(report.bit_error_rate - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 4000)
        assert abs(report.eve_guess_success_rate - 0.75) < 3 * math.sqrt(
            0.75 * 0.25 / 4000
        )

    def test_eve_records_present_in_transcripts(self):
        eve = EveStrategy(stages={StageLabel.BOB_TO_ALICE_2, StageLabel.ALICE_TO_BOB_3})
        for t in _random_runs("pauli", 3, ChannelContext(eve=eve), seed=1):
            stages = [stage for stage, _ in t.eve_records]
            assert stages == [StageLabel.BOB_TO_ALICE_2, StageLabel.ALICE_TO_BOB_3]

    def test_recovery_holds_up_to_phase_despite_global_factor(self):
        for t in _random_runs("quaternion", 30, CLEAN, seed=8):
            assert equal_up_to_global_phase(t.recovered, t.secret)

    def test_session_rates_match_exact_average_over_secrets(self):
        """Each block draws its own secret.  With Eve at every stage, in the
        computational basis and in one rotated basis per dimension, the
        session's rates lie within 4 standard errors of the exact rates
        averaged over secrets."""
        blocks = 4000
        for name in family_names():
            fam = get_family(name)
            num_qubits = fam.dim.bit_length() - 1
            rotated = operator_catalog(fam.dim)[{2: "H", 4: "DFT4"}[fam.dim]]
            for rotation in (None, rotated):
                eve = EveStrategy(stages=set(STAGES), pre_rotation=rotation)
                report = run_key_session(
                    SessionConfig(
                        family_name=name, blocks=blocks, eve_strategy=eve, seed=31
                    )
                )
                exact = [
                    exact_analysis(fam, eve, basis_state(index, num_qubits))
                    for index in range(fam.dim)
                ]
                for rate, observed in [
                    ("bit_error_rate", report.bit_error_rate),
                    ("eve_guess_success_rate", report.eve_guess_success_rate),
                ]:
                    expected = np.mean([getattr(r, rate) for r in exact])
                    stderr = math.sqrt(expected * (1.0 - expected) / blocks)
                    assert abs(observed - expected) <= 4 * stderr + 1e-12, (
                        name, rotation and rotation.label, rate, observed, expected
                    )

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            run_key_session(SessionConfig(family_name="nope", blocks=1))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="blocks"):
            SessionConfig(family_name="pauli", blocks=0)
        with pytest.raises(ValueError, match="seed"):
            SessionConfig(family_name="pauli", blocks=1, seed=-3)

    @pytest.mark.parametrize("field, value", [("blocks", 2.5), ("blocks", True), ("blocks", "3"),
                                              ("seed", 1.0), ("seed", False), ("seed", None)])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SessionConfig(**{"family_name": "dft", "blocks": 3, "seed": 1, field: value})

    def test_numpy_integer_counts_accepted(self):
        config = SessionConfig(family_name="dft", blocks=np.int64(30), seed=np.uint32(7))
        assert _fields(run_key_session(config)) == _fields(run_key_session(
            SessionConfig(family_name="dft", blocks=30, seed=7)))


class TestChunkedSessions:
    """Sessions draw their blocks `protocol._CHUNK` at a time from one
    uniform stream."""

    @pytest.mark.parametrize("chunk", [7, protocol._CHUNK])
    @pytest.mark.parametrize("name, stages, noise", [
        ("dft", (1, 2, 3), 0.05), ("hadamard", (1,), None), ("pauli", (), None)])
    def test_chunked_sessions_are_the_one_shot_draw(self, chunk, name, stages, noise, monkeypatch):
        """At chunk-1, chunk, chunk+1 and 2*chunk+3 blocks the keys are
        read-only uint8 arrays of the bits that one `_draw` of every block
        gives, most significant bit first, the rates are counted from that
        draw, and each session extends the shorter ones."""
        monkeypatch.setattr(protocol, "_CHUNK", chunk)
        family = get_family(name)
        num_qubits = family.dim.bit_length() - 1
        eve = EveStrategy(stages={StageLabel(s) for s in stages}) if stages else None
        channel = NoiseModel(noise) if noise else None
        law = _law(family, eve, channel)
        longest = None
        for blocks in (2 * chunk + 3, chunk + 1, chunk, chunk - 1):
            report = run_key_session(SessionConfig(name, blocks, eve, channel, seed=12))
            rng = np.random.default_rng(np.random.SeedSequence(entropy=12))
            secrets, codes, outcomes = np.unravel_index(
                _draw(law.joint, blocks, rng), law.joint.shape)
            alice = [int(bit) for s in secrets for bit in format(s, f"0{num_qubits}b")]
            bob = [int(bit) for k in outcomes for bit in format(k, f"0{num_qubits}b")]
            for bits, want in ((report.alice_bits, alice), (report.bob_bits, bob)):
                assert bits.dtype == np.uint8
                with pytest.raises(ValueError, match="read-only"):
                    bits[0] = 1
                np.testing.assert_array_equal(bits, want)
            assert report.bit_error_rate == sum(a != b for a, b in zip(alice, bob)) / len(alice)
            if eve is None:
                assert report.eve_guess_success_rate is None
            else:
                hits = int(np.count_nonzero(law.guess_by_code[codes] == secrets))
                assert report.eve_guess_success_rate == hits / blocks
            if longest is None:
                longest = report
            for bits, longer in ((report.alice_bits, longest.alice_bits),
                                 (report.bob_bits, longest.bob_bits)):
                np.testing.assert_array_equal(longer[:bits.size], bits)
