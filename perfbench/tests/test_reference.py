"""The reference enumerator against values derived by hand."""

import numpy as np
import pytest

from reference import reference_rates
from tristage import family_names, get_family

STAGE_SETS = ((1,), (2,), (3,), (1, 3), (1, 2, 3))


def _members(name):
    return [m.matrix for m in get_family(name).members]


def test_hadamard_eve_at_stage_one():
    """Alice's H (probability 1/2) puts the secret in superposition; Eve's
    collapse then leaves Bob a coin flip, while her record equals the secret
    with probability 1/2 + 1/4."""
    ref = reference_rates(_members("hadamard"), (1,))
    np.testing.assert_allclose(ref.bit_error_rate, [0.25, 0.25], atol=1e-12)
    np.testing.assert_allclose(ref.disturbance, [0.25, 0.25], atol=1e-12)
    np.testing.assert_allclose(ref.guess_rate, [0.75, 0.75], atol=1e-12)
    assert ref.aware_guess_rate == pytest.approx(0.75, abs=1e-12)
    assert ref.clean_table_guess_low == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("name", family_names())
def test_clean_channel_has_no_errors(name):
    ref = reference_rates(_members(name))
    assert np.all(np.abs(ref.bit_error_rate) < 1e-12)
    assert np.all(np.abs(ref.disturbance) < 1e-12)
    assert ref.guess_rate is None and ref.aware_guess_rate is None


@pytest.mark.parametrize("stages", STAGE_SETS)
def test_quaternion_preserves_the_computational_basis(stages):
    """Every quaternion member maps basis states to basis states, so a
    computational-basis Eve never disturbs the exchange."""
    ref = reference_rates(_members("quaternion"), stages)
    assert np.all(np.abs(ref.bit_error_rate) < 1e-12)
    assert np.all(np.abs(ref.disturbance) < 1e-12)


def test_noise_on_pauli_flips_the_bit_an_odd_number_of_times():
    """Pauli members map a bit flip to a bit flip up to sign, so Bob reads
    the secret flipped when an odd number of the three passes flipped it."""
    p = 0.1
    ref = reference_rates(_members("pauli"), noise=p)
    odd = 3 * p * (1 - p) ** 2 + p**3
    np.testing.assert_allclose(ref.bit_error_rate, [odd, odd], atol=1e-12)


def test_noise_aware_table_guesses_at_least_as_well():
    ref = reference_rates(_members("dft"), (1, 2, 3), noise=0.1)
    assert ref.clean_table_guess_low <= ref.clean_table_guess_rate <= ref.aware_guess_rate
    assert ref.clean_table_guess_rate < ref.aware_guess_rate - 0.01
