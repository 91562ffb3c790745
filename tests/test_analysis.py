"""Exact enumeration vs Monte Carlo: pinned rates and cross-validation."""

import math

import numpy as np
import pytest

from tristage import (
    ChannelContext,
    EveStrategy,
    ExactAnalysis,
    NoiseModel,
    OperatorFamily,
    SessionConfig,
    StageLabel,
    StateVector,
    UnitaryOperator,
    basis_preserving,
    basis_state,
    exact_analysis,
    family_names,
    get_family,
    map_decision_table,
    map_guesser,
    monte_carlo_analysis,
    run_key_session,
    run_three_stage,
)
from tristage import cli, protocol

STAGE_1 = StageLabel.ALICE_TO_BOB_1
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _stage_eve(*numbers):
    return EveStrategy(stages={StageLabel(n) for n in numbers})


class TestExactPinnedValues:
    def test_superposing_family_stage_one(self):
        """Stage-one interception of the Hadamard-style family: disturbance
        only when Alice superposed (prob 1/2), then error prob 1/2."""
        result = exact_analysis(get_family("hadamard"), _stage_eve(1), basis_state(0, 1))
        assert result.bit_error_rate == pytest.approx(0.25, abs=1e-12)
        assert result.detection_relevant_disturbance == pytest.approx(0.25, abs=1e-12)
        assert result.eve_guess_success_rate == pytest.approx(0.75, abs=1e-12)

    def test_superposing_family_all_secrets_and_stages(self):
        """The same 1/4 and 3/4 rates hold for every secret and every stage."""
        fam = get_family("hadamard")
        for stage in (1, 2, 3):
            for index in range(2):
                result = exact_analysis(fam, _stage_eve(stage), basis_state(index, 1))
                assert result.bit_error_rate == pytest.approx(0.25, abs=1e-12)
                assert result.eve_guess_success_rate == pytest.approx(0.75, abs=1e-12)

    def test_full_interception_of_permutation_family_leaks_everything(self):
        """Intercepting all three stages of the sign-flip family: no
        disturbance, and the three records determine the secret exactly."""
        fam = get_family("pauli")
        for index in range(2):
            result = exact_analysis(fam, _stage_eve(1, 2, 3), basis_state(index, 1))
            assert result.bit_error_rate == pytest.approx(0.0, abs=1e-12)
            assert result.eve_guess_success_rate == pytest.approx(1.0, abs=1e-12)

    def test_fourier_family_stage_one(self):
        """Stage-one interception of the Fourier family on |00>: half the
        runs collapse a uniform superposition, leaving the final outcome
        uniform over four values."""
        result = exact_analysis(get_family("dft"), _stage_eve(1), basis_state(0, 2))
        assert result.bit_error_rate == pytest.approx(0.25, abs=1e-12)
        assert result.detection_relevant_disturbance == pytest.approx(0.375, abs=1e-12)
        assert result.eve_guess_success_rate == pytest.approx(0.625, abs=1e-12)

    def test_basis_preserving_families_are_transparent(self):
        """Computational intercept-resend never disturbs a family whose
        members map basis states to basis states."""
        for name in family_names():
            fam = get_family(name)
            if not basis_preserving(fam):
                continue
            num_qubits = fam.dim.bit_length() - 1
            for stage in (1, 2, 3):
                for index in range(fam.dim):
                    result = exact_analysis(
                        fam, _stage_eve(stage), basis_state(index, num_qubits)
                    )
                    assert result.bit_error_rate == pytest.approx(0.0, abs=1e-12)
                    assert result.detection_relevant_disturbance == pytest.approx(
                        0.0, abs=1e-12
                    )

    def test_branch_count_reflects_collapse_tree(self):
        """Two members, one attacked stage: one branch per deterministic
        pair plus two per superposing branch."""
        result = exact_analysis(get_family("hadamard"), _stage_eve(1), basis_state(0, 1))
        assert result.branch_count == 6


class TestExactValidation:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            exact_analysis(get_family("pauli"), _stage_eve(1), basis_state(0, 2))

    def test_superposition_secret_rejected(self):
        plus = StateVector(1, np.array([INV_SQRT2, INV_SQRT2]))
        with pytest.raises(ValueError, match="basis"):
            exact_analysis(get_family("pauli"), _stage_eve(1), plus)

    def test_pre_rotation_dimension_checked(self):
        h = get_family("hadamard").member("H")
        eve = EveStrategy(stages={STAGE_1}, pre_rotation=h)
        with pytest.raises(ValueError, match="pre-rotation"):
            exact_analysis(get_family("dft"), eve, basis_state(0, 2))


class TestDecisionTable:
    def test_guesser_follows_table(self):
        fam = get_family("hadamard")
        eve = _stage_eve(1)
        table = map_decision_table(fam, eve)
        guess = map_guesser(fam, eve)
        for records, value in table.items():
            assert guess(records) == value

    def test_guesser_defaults_to_zero_on_unseen_records(self):
        guess = map_guesser(get_family("hadamard"), _stage_eve(1))
        assert guess((7,)) == 0

    def test_table_guesses_the_observed_value_for_superposing_family(self):
        """With one observation the best guess is the observed index."""
        table = map_decision_table(get_family("hadamard"), _stage_eve(1))
        assert table[(0,)] == 0
        assert table[(1,)] == 1

    def test_records_are_keyed_in_stage_order(self):
        """Stages 1 and 2 of the superposing family: the stage-one outcome
        is the secret whenever Alice did not superpose, so every guess
        follows it, whatever stage two read."""
        table = map_decision_table(get_family("hadamard"), _stage_eve(1, 2))
        assert table == {(first, second): first for first in (0, 1) for second in (0, 1)}


class TestMonteCarlo:
    def test_agrees_with_enumeration(self):
        fam = get_family("hadamard")
        eve = _stage_eve(1)
        exact = exact_analysis(fam, eve, basis_state(0, 1))
        mc = monte_carlo_analysis(
            fam, ChannelContext(eve=eve), basis_state(0, 1), trials=20_000, seed=2
        )
        for p, phat in [
            (exact.bit_error_rate, mc.bit_error_rate),
            (exact.detection_relevant_disturbance, mc.detection_relevant_disturbance),
            (exact.eve_guess_success_rate, mc.eve_guess_success_rate),
        ]:
            assert abs(phat - p) < 3 * math.sqrt(p * (1 - p) / 20_000)

    def test_clean_channel_error_is_exactly_zero(self):
        for name in family_names():
            fam = get_family(name)
            num_qubits = fam.dim.bit_length() - 1
            mc = monte_carlo_analysis(
                fam, ChannelContext(), basis_state(fam.dim - 1, num_qubits),
                trials=5_000, seed=6,
            )
            assert mc.bit_error_rate == 0.0
            assert mc.detection_relevant_disturbance == 0.0
            assert mc.eve_guess_success_rate is None

    def test_noise_matches_flip_pattern_enumeration(self):
        """One-qubit family, flip probability p, no interception: an error
        needs an odd number of flips over the three transmissions, i.e.
        3p(1-p)^2 + p^3."""
        p = 0.1
        expected = 3 * p * (1 - p) ** 2 + p**3
        mc = monte_carlo_analysis(
            get_family("pauli"),
            ChannelContext(noise=NoiseModel(p)),
            basis_state(0, 1),
            trials=100_000,
            seed=5,
        )
        sigma = math.sqrt(expected * (1 - expected) / 100_000)
        assert abs(mc.bit_error_rate - expected) < 3 * sigma
        exact = exact_analysis(get_family("pauli"), None, basis_state(0, 1), noise=NoiseModel(p))
        assert expected == pytest.approx(0.244, abs=1e-12)
        assert exact.bit_error_rate == pytest.approx(expected, abs=1e-12)
        assert exact.detection_relevant_disturbance == pytest.approx(expected, abs=1e-12)
        assert exact.eve_guess_success_rate is None

    def test_deterministic_given_seed(self):
        fam = get_family("dft")
        ctx = ChannelContext(eve=_stage_eve(1, 2))
        first = monte_carlo_analysis(fam, ctx, basis_state(1, 2), trials=4_000, seed=44)
        second = monte_carlo_analysis(fam, ctx, basis_state(1, 2), trials=4_000, seed=44)
        assert first == second

    def test_cross_validates_against_per_run_simulation(self):
        """Literal per-run protocol execution is independent of enumeration,
        and Monte Carlo draws from the enumerated law; both must sit within
        3 sigma of the exact rate."""
        fam = get_family("hadamard")
        eve = _stage_eve(1)
        ctx = ChannelContext(eve=eve)
        exact = exact_analysis(fam, eve, basis_state(0, 1))
        trials = 3_000
        rng = np.random.default_rng(77)
        errors = 0
        for _ in range(trials):
            t = run_three_stage(
                basis_state(0, 1), fam.members[int(rng.integers(0, 2))],
                fam.members[int(rng.integers(0, 2))], ctx, rng,
            )
            errors += t.measured.index != 0
        per_run_rate = errors / trials
        mc = monte_carlo_analysis(fam, ctx, basis_state(0, 1), trials=trials, seed=78)
        sigma = math.sqrt(0.25 * 0.75 / trials)
        assert abs(per_run_rate - exact.bit_error_rate) < 3 * sigma
        assert abs(mc.bit_error_rate - exact.bit_error_rate) < 3 * sigma

    def test_standard_errors_scale_with_trials(self):
        fam = get_family("hadamard")
        ctx = ChannelContext(eve=_stage_eve(1))
        small = monte_carlo_analysis(fam, ctx, basis_state(0, 1), trials=1_000, seed=9)
        large = monte_carlo_analysis(fam, ctx, basis_state(0, 1), trials=16_000, seed=9)
        assert large.bit_error_rate_stderr < small.bit_error_rate_stderr
        assert large.eve_guess_success_rate_stderr < small.eve_guess_success_rate_stderr

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_analysis(
                get_family("pauli"), ChannelContext(), basis_state(0, 1), trials=0, seed=0
            )


class TestEveRequired:
    """A channel without Eve has no records: a MAP table names the missing
    eavesdropper at the entry point, before any enumeration starts, while
    exact rates exist and carry no guess rate."""

    @pytest.mark.parametrize("call", [
        lambda fam: map_decision_table(fam, None),
        lambda fam: map_guesser(fam, None),
    ])
    def test_none_rejected(self, call, monkeypatch):
        monkeypatch.setattr(protocol, "_enumerate", None)
        with pytest.raises(ValueError, match="eavesdropper"):
            call(get_family("hadamard"))

    def test_exact_rates_without_eve_are_clean_channel_rates(self):
        """Recovery is exact on a clean channel: no error, no guess, and one
        branch per operator pair."""
        fam = get_family("hadamard")
        result = exact_analysis(fam, None, basis_state(0, 1))
        assert result.bit_error_rate == pytest.approx(0.0, abs=1e-15)
        assert result.detection_relevant_disturbance == pytest.approx(0.0, abs=1e-15)
        assert result.eve_guess_success_rate is None
        assert result.branch_count == len(fam) ** 2


@pytest.fixture
def enumerations(monkeypatch):
    """Count the calls to `protocol._enumerate` made during a test.

    The kept law is dropped first, so that an equal family and Eve from an
    earlier test cannot serve the first call.
    """
    protocol._law.cache_clear()
    calls = []
    enumerate_all = protocol._enumerate

    def counted(family, eve, noise):
        calls.append((family, eve, noise))
        return enumerate_all(family, eve, noise)

    monkeypatch.setattr(protocol, "_enumerate", counted)
    return calls


def _secrets(fam):
    num_qubits = fam.dim.bit_length() - 1
    return [basis_state(index, num_qubits) for index in range(fam.dim)]


def _dft_eve():
    rotation = get_family("dft").member("DFT4")
    return EveStrategy(stages={StageLabel(n) for n in (1, 2, 3)}, pre_rotation=rotation)


def _fresh(fam, eve, noise=None):
    """Every secret's rates from a new enumeration, bypassing the cache."""
    return tuple(ExactAnalysis(*rates) for rates in protocol._enumerate(fam, eve, noise).rates)


class TestEnumerationReuse:
    def test_exact_sweep_enumerates_once(self, enumerations):
        fam, eve = get_family("dft"), _dft_eve()
        results = [exact_analysis(fam, eve, secret) for secret in _secrets(fam)]
        assert len(enumerations) == 1
        assert tuple(results) == _fresh(fam, eve)

    def test_monte_carlo_sweep_enumerates_once(self, enumerations):
        fam, ctx = get_family("dft"), ChannelContext(eve=_dft_eve())
        for index, secret in enumerate(_secrets(fam)):
            monte_carlo_analysis(fam, ctx, secret, trials=200, seed=index)
        assert len(enumerations) == 1

    @pytest.mark.parametrize("noise", [[], ["--noise", "0.05"]], ids=["clean", "noisy"])
    def test_cli_exact_mode_enumerates_once(self, enumerations, noise):
        """The sessions and the exact rates share the law of one channel,
        noise included."""
        config = cli.parse_arguments(["run", "--family", "quaternion", "--mode", "exact",
                                      "--eve-stages", "1,3", "--blocks", "20", *noise])
        cli.run_experiment(config)
        assert len(enumerations) == 1

    def test_cli_sessions_enumerate_once(self, enumerations):
        config = cli.parse_arguments(["run", "--family", "quaternion", "--trials", "3",
                                      "--eve-stages", "1,3", "--blocks", "20"])
        report = cli.run_experiment(config)
        assert len(enumerations) == 1
        assert all(row.eve_guess_success_rate is not None for row in report.per_trial)

    def test_clean_cli_sessions_enumerate_once(self, enumerations):
        """Sessions draw from the law on every channel, one without Eve or
        noise included."""
        config = cli.parse_arguments(["run", "--family", "quaternion", "--trials", "3",
                                      "--blocks", "20"])
        report = cli.run_experiment(config)
        assert len(enumerations) == 1
        assert all(row.eve_guess_success_rate is None for row in report.per_trial)
        assert all(row.bit_error_rate == 0.0 for row in report.per_trial)

    def test_alternating_strategies_match_fresh_results(self, enumerations):
        """A, B, A enumerates three times; the twin equals the last A, so it
        reuses that enumeration and adds none."""
        fam = get_family("dft")
        a, b, a_twin = _stage_eve(1), _stage_eve(2, 3), _stage_eve(1)
        assert a == a_twin and a is not a_twin
        expected = {id(a): _fresh(fam, a), id(b): _fresh(fam, b), id(a_twin): _fresh(fam, a)}
        enumerations.clear()
        for eve in (a, b, a, a_twin):
            for index, secret in reversed(list(enumerate(_secrets(fam)))):
                assert exact_analysis(fam, eve, secret) == expected[id(eve)][index]
        assert len(enumerations) == 3

    def test_equal_objects_built_separately_share_one_enumeration(self, enumerations):
        def build():
            rotation = UnitaryOperator(get_family("dft").member("DFT4").matrix.copy(), "DFT4")
            members = tuple(UnitaryOperator(m.matrix.copy(), m.label)
                            for m in get_family("dft").members)
            return (OperatorFamily("dft", members),
                    EveStrategy(stages={StageLabel(n) for n in (1, 2, 3)},
                                pre_rotation=rotation))

        (fam, eve), (fam_twin, eve_twin) = build(), build()
        assert fam is not fam_twin and eve is not eve_twin
        expected = _fresh(fam, eve)
        enumerations.clear()
        table = map_decision_table(fam, eve)
        rates = [exact_analysis(fam_twin, eve_twin, secret) for secret in _secrets(fam)]
        assert map_decision_table(fam_twin, eve_twin) == table
        assert tuple(rates) == expected
        assert len(enumerations) == 1

    def test_validation_runs_on_every_call(self):
        pauli, eve = get_family("pauli"), _stage_eve(1)
        plus = StateVector(1, np.array([INV_SQRT2, INV_SQRT2]))
        h = get_family("hadamard").member("H")
        rotated = EveStrategy(stages={STAGE_1}, pre_rotation=h)
        for _ in range(2):
            exact_analysis(pauli, eve, basis_state(1, 1))
            with pytest.raises(ValueError, match="dim"):
                exact_analysis(pauli, eve, basis_state(0, 2))
            exact_analysis(pauli, eve, basis_state(0, 1))
            with pytest.raises(ValueError, match="basis"):
                exact_analysis(pauli, eve, plus)
            exact_analysis(get_family("hadamard"), rotated, basis_state(0, 1))
            with pytest.raises(ValueError, match="pre-rotation"):
                exact_analysis(get_family("dft"), rotated, basis_state(0, 2))


class TestConservationCheck:
    """Every enumeration checks that each secret's branch probabilities sum
    to one, so a broken enumeration stops every route that reads the law.
    Pruning at 0.05 drops real branches and breaks conservation."""

    @pytest.fixture(autouse=True)
    def lossy_enumeration(self, monkeypatch):
        monkeypatch.setattr(protocol, "_PRUNE", 0.05)
        protocol._law.cache_clear()
        yield
        protocol._law.cache_clear()

    @pytest.mark.parametrize("call", [
        lambda fam, eve: map_decision_table(fam, eve),
        lambda fam, eve: monte_carlo_analysis(fam, ChannelContext(eve=eve), basis_state(0, 2),
                                              trials=10, seed=1),
        lambda fam, eve: run_key_session(SessionConfig(family_name="dft", blocks=10,
                                                       eve_strategy=eve, seed=1)),
        lambda fam, eve: exact_analysis(fam, eve, basis_state(2, 2)),
    ], ids=["map_decision_table", "monte_carlo_analysis", "run_key_session", "exact_analysis"])
    def test_every_route_raises_naming_the_secret(self, call):
        with pytest.raises(RuntimeError,
                           match=r"branch probabilities of secret 0 sum to .*, expected 1"):
            call(get_family("dft"), _stage_eve(1, 2, 3))

    @pytest.mark.parametrize("call", [
        lambda fam, noise: run_key_session(SessionConfig(family_name="dft", blocks=10,
                                                         noise=noise, seed=1)),
        lambda fam, noise: monte_carlo_analysis(fam, ChannelContext(noise=noise),
                                                basis_state(0, 2), trials=10, seed=1),
    ], ids=["run_key_session", "monte_carlo_analysis"])
    def test_routes_without_eve_raise(self, call):
        """Sessions and Monte Carlo read the law without Eve too.  Only noise
        branches there: flipping both qubits at 0.1 has weight 0.01, which
        the lossy enumeration drops."""
        with pytest.raises(RuntimeError,
                           match=r"branch probabilities of secret 0 sum to .*, expected 1"):
            call(get_family("dft"), NoiseModel(0.1))

    def test_cli_exact_mode_exits_1(self, capsys):
        status = cli.main(["run", "--mode", "exact", "--eve-stages", "1,2,3", "--family", "dft"])
        assert status == 1
        assert "error: branch probabilities" in capsys.readouterr().err
