"""Property tests of exact enumeration: over random commuting families, and
over the inputs the CLI accepts, noise included, against sessions and Monte
Carlo analysis, which draw from its law, and against a per-row simulation,
which is independent of it."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tristage import (
    ChannelContext,
    EveStrategy,
    NoiseModel,
    OperatorFamily,
    SessionConfig,
    StageLabel,
    UnitaryOperator,
    basis_state,
    exact_analysis,
    family_names,
    get_family,
    monte_carlo_analysis,
    operator_catalog,
    run_key_session,
    run_three_stage,
    verify_recovery,
)
from test_passes import assert_dense_sample_fits_joint_law


def _random_unitary(rng, dim):
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(gauss)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def scenarios(draw):
    """A commuting family (unit phases diagonal in a random basis), an Eve
    with a random stage set and basis, and a random order of the secrets."""
    dim = draw(st.sampled_from((2, 4)))
    count = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = _random_unitary(rng, dim)
    members = tuple(
        UnitaryOperator(frame @ np.diag(np.exp(2j * np.pi * rng.random(dim))) @ frame.conj().T,
                        f"m{k}")
        for k in range(count)
    )
    stages = draw(st.sets(st.sampled_from((1, 2, 3)), min_size=1))
    rotated = draw(st.booleans())
    rotation = UnitaryOperator(_random_unitary(rng, dim), "R") if rotated else None
    order = draw(st.permutations(range(dim)))
    return OperatorFamily("random", members), stages, rotation, order


def _eve(stages, rotation):
    return EveStrategy(stages={StageLabel(n) for n in stages}, pre_rotation=rotation)


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_secret_order_does_not_change_results(scenario):
    family, stages, rotation, order = scenario
    num_qubits = family.dim.bit_length() - 1
    secrets = [basis_state(index, num_qubits) for index in range(family.dim)]
    shuffled_eve = _eve(stages, rotation)
    shuffled = {index: exact_analysis(family, shuffled_eve, secrets[index]) for index in order}
    fresh_eve = _eve(stages, rotation)
    fresh = [exact_analysis(family, fresh_eve, secret) for secret in secrets]
    assert [shuffled[index] for index in range(family.dim)] == fresh
    mean_guess = sum(r.eve_guess_success_rate for r in fresh) / family.dim
    assert mean_guess >= 1.0 / family.dim - 1e-12


@st.composite
def cli_inputs(draw, noise_levels=(0.0, 0.02, 0.1, 0.3)):
    """A catalog family, a stage set (empty: no Eve), no basis or a catalog
    label of the family's dimension when Eve is present, and a flip
    probability: the inputs of `tristage run`."""
    name = draw(st.sampled_from(family_names()))
    stages = draw(st.sets(st.sampled_from((1, 2, 3))))
    labels = sorted(operator_catalog(get_family(name).dim)) if stages else []
    return name, stages, draw(st.sampled_from([None, *labels])), draw(
        st.sampled_from(noise_levels))


def _channel(family, stages, basis, p):
    """Eve and noise as `tristage run` builds them from its flags."""
    rotation = operator_catalog(family.dim)[basis] if basis is not None else None
    eve = _eve(stages, rotation) if stages else None
    return eve, NoiseModel(p) if p > 0.0 else None


def _within(observed, expected, n):
    """Within 5 standard errors plus 3/n, so that rates at 0 or 1 keep a margin."""
    return abs(observed - expected) <= 5 * math.sqrt(expected * (1 - expected) / n) + 3 / n


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cli_inputs())
def test_sessions_and_monte_carlo_match_exact_rates(cli_input):
    """Sessions and Monte Carlo draw from the joint law; their estimates
    must agree with the closed-form rates folded from the same enumeration.
    A session draws its secret per block and Monte Carlo runs every secret,
    so both are compared with the exact rates averaged over secrets."""
    name, stages, basis, p = cli_input
    family = get_family(name)
    num_qubits = family.dim.bit_length() - 1
    eve, noise = _channel(family, stages, basis, p)
    secrets = [basis_state(index, num_qubits) for index in range(family.dim)]
    guessed = ("eve_guess_success_rate",) if eve is not None else ()
    rates = ("bit_error_rate", "detection_relevant_disturbance", *guessed)
    exact = {rate: np.mean([getattr(exact_analysis(family, eve, s, noise=noise), rate)
                            for s in secrets])
             for rate in rates}
    blocks, trials = 4_000, 4_000
    session = run_key_session(SessionConfig(family_name=name, blocks=blocks,
                                            eve_strategy=eve, noise=noise, seed=3))
    for rate in ("bit_error_rate", *guessed):
        assert _within(getattr(session, rate), exact[rate], blocks), ("session", rate)
    ctx = ChannelContext(eve=eve, noise=noise)
    sampled = [monte_carlo_analysis(family, ctx, s, trials, seed=i)
               for i, s in enumerate(secrets)]
    for rate in rates:
        mean = np.mean([getattr(mc, rate) for mc in sampled])
        assert _within(mean, exact[rate], trials * family.dim), ("monte carlo", rate)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cli_inputs(noise_levels=(0.0, 1e-12, 1e-7, 1e-3, 0.05, 0.5, 0.9, 1.0)))
def test_exact_rates_exist_for_every_cli_input(cli_input):
    """Every channel the CLI can configure, extreme flip probabilities
    included, enumerates within the conservation check and gives rates in
    [0, 1].  The clean channel recovers every secret, up to phase, for
    every member pair."""
    name, stages, basis, p = cli_input
    family = get_family(name)
    num_qubits = family.dim.bit_length() - 1
    eve, noise = _channel(family, stages, basis, p)
    clean = eve is None and noise is None
    for index in range(family.dim):
        secret = basis_state(index, num_qubits)
        result = exact_analysis(family, eve, secret, noise=noise)
        rates = [result.bit_error_rate, result.detection_relevant_disturbance]
        if eve is None:
            assert result.eve_guess_success_rate is None
        else:
            rates.append(result.eve_guess_success_rate)
        assert all(0.0 <= rate <= 1.0 for rate in rates), (index, rates)
        if clean:
            assert all(rate <= 1e-15 for rate in rates), (index, rates)
            rng = np.random.default_rng(index)
            for alice in family.members:
                for bob in family.members:
                    transcript = run_three_stage(secret, alice, bob, ChannelContext(), rng)
                    assert verify_recovery(transcript), (index, alice.label, bob.label)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cli_inputs())
def test_per_row_simulation_matches_joint_law(cli_input):
    """The joint law that sessions and Monte Carlo draw from gives the
    frequencies of a per-row simulation that never enumerates."""
    name, stages, basis, p = cli_input
    family = get_family(name)
    eve, noise = _channel(family, stages, basis, p)
    assert_dense_sample_fits_joint_law(family, ChannelContext(eve=eve, noise=noise), seed=5)
