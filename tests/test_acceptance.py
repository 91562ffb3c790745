"""Acceptance suite: one test per release criterion.

Each test records a single ``CRITERION n: PASS/FAIL`` line; the conftest
terminal-summary hook echoes them after the run so the verdicts can be
skimmed from any pytest invocation.  Runtime budgets are asserted where a
criterion carries one.  All seeds are fixed; every check here is
deterministic.
"""

import json
import math
import re
import time
from contextlib import contextmanager

import numpy as np

from tristage import (
    ChannelContext,
    EveStrategy,
    STAGES,
    SessionConfig,
    aggregate_outcome_distribution,
    apply,
    basis_state,
    detection_probability,
    exact_analysis,
    family_names,
    get_family,
    hadamard_family,
    measure,
    monte_carlo_analysis,
    parity_check,
    pauli_family,
    pauli_tensor_decompose,
    quaternion_family,
    run_key_session,
    run_three_stage,
    superposition_probability,
    verify_family,
    verify_recovery,
)
from tristage.cli import main as cli_main


VERDICTS: dict[int, str] = {}


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        VERDICTS[number] = f"CRITERION {number}: FAIL - {label}"
        raise
    VERDICTS[number] = f"CRITERION {number}: PASS - {label}"


def sampled_rate_close(sampled, exact, trials, label):
    """3-sigma binomial check; degenerate rates must match exactly."""
    if exact == 0.0 or exact == 1.0:
        assert sampled == exact, f"{label}: got {sampled}, want exactly {exact}"
        return
    bound = 3.0 * math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(sampled - exact) <= bound, (
        f"{label}: got {sampled}, want {exact} +- {bound}"
    )


def test_criterion_1_exhaustive_clean_recovery():
    with criterion(1, "clean channel recovers every secret"):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        channel = ChannelContext()
        total = 0
        for name in family_names():
            family = get_family(name)
            num_qubits = family.dim.bit_length() - 1
            cases = 0
            for alice_op in family.members:
                for bob_op in family.members:
                    for index in range(family.dim):
                        secret = basis_state(index, num_qubits)
                        transcript = run_three_stage(
                            secret, alice_op, bob_op, channel, rng
                        )
                        assert verify_recovery(transcript), (
                            f"{name}: pair ({alice_op.label}, {bob_op.label}) "
                            f"failed to recover basis state {index}"
                        )
                        cases += 1
            assert cases == len(family) ** 2 * family.dim
            total += cases
        assert total == 184
        assert time.perf_counter() - start < 1.0


def test_criterion_2_family_commutation_reports():
    with criterion(2, "all catalog families commute up to phase"):
        start = time.perf_counter()
        for name in family_names():
            report = verify_family(get_family(name))
            assert report.passed, f"{name} failed verification"
        pauli_phases = {
            pair.commutation for pair in verify_family(pauli_family()).pairs
        }
        assert all(
            min(abs(p - 1.0), abs(p + 1.0)) < 1e-12 for p in pauli_phases
        )
        assert any(abs(p + 1.0) < 1e-12 for p in pauli_phases)
        for pair in verify_family(quaternion_family()).pairs:
            if pair.left == pair.right or "Q1" in (pair.left, pair.right):
                continue
            assert abs(pair.commutation + 1.0) < 1e-12, (
                f"({pair.left}, {pair.right}) should anticommute"
            )
        assert time.perf_counter() - start < 1.0


def test_criterion_3_uniform_outcome_statistics():
    with criterion(3, "random single-qubit flips hit half rate"):
        family = pauli_family()
        zero = basis_state(0, 1)
        distribution = aggregate_outcome_distribution(family, zero)
        assert distribution[0] == 0.5 and distribution[1] == 0.5

        session = run_key_session(
            SessionConfig(family_name="pauli", blocks=1000, seed=1)
        )
        assert session.bit_error_rate == 0.0

        rng = np.random.default_rng(42)
        samples = 10**5
        ones = 0
        for _ in range(samples):
            member = family.members[int(rng.integers(0, len(family)))]
            outcome, _ = measure(apply(member, zero), rng)
            ones += outcome.index
        assert abs(ones / samples - 0.5) < 0.005


def test_criterion_4_superposition_probability():
    with criterion(4, "half of the coin-flip family superposes"):
        probability = superposition_probability(hadamard_family(), basis_state(0, 1))
        assert probability == 0.5


def test_criterion_5_tensor_decomposition_round_trip():
    with criterion(5, "quaternion members factor over single-qubit flips"):
        start = time.perf_counter()
        for member in quaternion_family().members:
            decomposition = pauli_tensor_decompose(member)
            assert decomposition is not None, f"{member.label} did not factor"
            assert decomposition.phase in (1, -1, 1j, -1j)
            np.testing.assert_allclose(
                decomposition.reconstruct(),
                member.matrix,
                atol=1e-9,
                err_msg=f"reconstruction mismatch for {member.label}",
            )
        assert time.perf_counter() - start < 1.0


def test_criterion_6_sampled_rates_match_enumeration():
    with criterion(6, "sampling agrees with exact enumeration"):
        start = time.perf_counter()
        trials = 10**5
        combo = 0
        for name in family_names():
            family = get_family(name)
            num_qubits = family.dim.bit_length() - 1
            for stage in STAGES:
                eve = EveStrategy(stages=frozenset({stage}))
                for index in range(family.dim):
                    secret = basis_state(index, num_qubits)
                    exact = exact_analysis(family, eve, secret)
                    sampled = monte_carlo_analysis(
                        family,
                        ChannelContext(eve=eve),
                        secret,
                        trials=trials,
                        seed=combo + 11,
                    )
                    tag = f"{name}/stage{stage.number}/secret{index}"
                    sampled_rate_close(
                        sampled.bit_error_rate,
                        exact.bit_error_rate,
                        trials,
                        f"{tag} bit error rate",
                    )
                    sampled_rate_close(
                        sampled.detection_relevant_disturbance,
                        exact.detection_relevant_disturbance,
                        trials,
                        f"{tag} disturbance",
                    )
                    sampled_rate_close(
                        sampled.eve_guess_success_rate,
                        exact.eve_guess_success_rate,
                        trials,
                        f"{tag} guess success",
                    )
                    combo += 1
        assert combo == 48
        hadamard_reference = exact_analysis(
            hadamard_family(),
            EveStrategy(stages=frozenset({STAGES[0]})),
            basis_state(0, 1),
        )
        assert abs(hadamard_reference.bit_error_rate - 0.25) < 1e-12
        assert time.perf_counter() - start < 60.0


def test_criterion_7_parity_detection_statistics():
    with criterion(7, "parity detection matches its closed form"):
        start = time.perf_counter()
        seeds = 10**4
        cell = 0
        for length in (4, 8, 16):
            for weight in (1, 2, 3):
                alice = (0,) * length
                bob = tuple(1 if i < weight else 0 for i in range(length))
                for rounds in (1, 5, 20):
                    rng = np.random.default_rng(
                        np.random.SeedSequence(entropy=20260823, spawn_key=(cell,))
                    )
                    hits = sum(
                        parity_check(alice, bob, rounds, rng).detected
                        for _ in range(seeds)
                    )
                    expected = detection_probability(length, weight, rounds)
                    sigma = math.sqrt(expected * (1.0 - expected) / seeds)
                    deviation = abs(hits / seeds - expected)
                    assert deviation <= 3.0 * sigma, (
                        f"length {length}, weight {weight}, rounds {rounds}: "
                        f"frequency {hits / seeds} vs {expected}"
                    )
                    cell += 1
        assert cell == 27

        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=20260823, spawn_key=(27,))
        )
        key = (0, 1, 1, 0, 1, 0, 0, 1)
        assert not any(
            parity_check(key, key, rounds=20, rng=rng).detected for _ in range(200)
        )
        for rounds in (1, 5, 20):
            assert detection_probability(8, 0, rounds) == 0.0
        assert time.perf_counter() - start < 30.0


def test_criterion_8_deterministic_reports(capsys):
    with criterion(8, "reports are byte-identical for equal seeds"):
        start = time.perf_counter()
        configs = {
            "pauli": ["--eve-stages", "1", "--eve-basis", "H"],
            "hadamard": ["--eve-stages", "2"],
            "controlled-pair": ["--eve-stages", "1,3"],
            "dft": ["--noise", "0.05"],
            "quaternion": [],
        }
        for name, extra in configs.items():
            argv = [
                "run",
                "--family",
                name,
                "--blocks",
                "40",
                "--trials",
                "2",
                "--seed",
                "9",
                *extra,
            ]
            outputs = []
            for _ in range(2):
                code = cli_main(argv)
                assert code == 0
                outputs.append(capsys.readouterr().out)
            scrubbed = [
                re.sub(r'"wall_time_seconds": [^\n,}]+', '"wall_time_seconds": 0', text)
                for text in outputs
            ]
            assert scrubbed[0] == scrubbed[1], f"{name}: reports differ"
            payload = json.loads(outputs[0])
            assert payload["schema_version"] == 1
        assert time.perf_counter() - start < 10.0
