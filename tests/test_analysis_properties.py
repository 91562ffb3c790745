"""Property tests of exact enumeration over random commuting families."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tristage import (
    EveStrategy,
    OperatorFamily,
    StageLabel,
    UnitaryOperator,
    basis_state,
    exact_analysis,
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
