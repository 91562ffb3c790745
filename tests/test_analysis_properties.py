"""Property tests of exact enumeration: over random commuting families, and
sampling against it over every noise-free input the CLI accepts."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tristage import (
    ChannelContext,
    EveStrategy,
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
)


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
def cli_inputs(draw):
    """A catalog family, a non-empty stage set and no basis or a catalog
    label of the family's dimension: the noise-free inputs of `tristage run`."""
    name = draw(st.sampled_from(family_names()))
    stages = draw(st.sets(st.sampled_from((1, 2, 3)), min_size=1))
    labels = sorted(operator_catalog(get_family(name).dim))
    return name, stages, draw(st.sampled_from([None, *labels]))


def _within(observed, expected, n):
    """Within 5 standard errors plus 3/n, so that rates at 0 or 1 keep a margin."""
    return abs(observed - expected) <= 5 * math.sqrt(expected * (1 - expected) / n) + 3 / n


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cli_inputs())
def test_sessions_and_monte_carlo_match_exact_rates(cli_input):
    """A session draws its secret per block and Monte Carlo runs every
    secret, so both are compared with the exact rates averaged over secrets."""
    name, stages, basis = cli_input
    family = get_family(name)
    num_qubits = family.dim.bit_length() - 1
    rotation = operator_catalog(family.dim)[basis] if basis is not None else None
    eve = _eve(stages, rotation)
    secrets = [basis_state(index, num_qubits) for index in range(family.dim)]
    rates = ("bit_error_rate", "detection_relevant_disturbance", "eve_guess_success_rate")
    exact = {rate: np.mean([getattr(exact_analysis(family, eve, s), rate) for s in secrets])
             for rate in rates}
    blocks, trials = 4_000, 4_000
    session = run_key_session(
        SessionConfig(family_name=name, blocks=blocks, eve_strategy=eve, seed=3))
    for rate in ("bit_error_rate", "eve_guess_success_rate"):
        assert _within(getattr(session, rate), exact[rate], blocks), ("session", rate)
    sampled = [monte_carlo_analysis(family, ChannelContext(eve=eve), s, trials, seed=i)
               for i, s in enumerate(secrets)]
    for rate in rates:
        mean = np.mean([getattr(mc, rate) for mc in sampled])
        assert _within(mean, exact[rate], trials * family.dim), ("monte carlo", rate)
