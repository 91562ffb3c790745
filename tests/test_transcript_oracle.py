"""`run_three_stage` against a plain reference loop on the same generator.

The reference works on bare amplitude arrays.  It checks every state it makes
in full (finite entries, then shape, then the norm as a sum of squared
moduli), picks outcomes with ``np.searchsorted`` and builds every collapsed
state afresh.  Each run must match it bit for bit and make the same draws.
"""

import numpy as np
import pytest

from tristage import adjoint, basis_state, family_names, get_family, run_three_stage
from tristage.adversary import STAGES, ChannelContext, EveStrategy, NoiseModel, StageLabel
from tristage.opsets import operator_catalog
from tristage.protocol import verify_recovery
from tristage.qcore import DEFAULT_TOL

#: name -> (Eve's stages, rotated basis?, noise), as the transcript channels
#: of the benchmark; each also runs at p = 0.3.
CHANNELS = {
    "clean": ((), False, 0.0),
    "eavesdropped": ((1,), False, 0.0),
    "rotated": ((1, 2, 3), True, 0.0),
    "noisy": ((2,), False, 0.05),
}
ROTATION = {2: "H", 4: "DFT4"}


def _checked(values, num_qubits):
    arr = np.array(values, dtype=complex)
    assert np.all(np.isfinite(arr.view(float)))
    assert arr.shape == (2**num_qubits,)
    assert abs(float(np.sum(np.abs(arr) ** 2)) - 1.0) <= DEFAULT_TOL
    return arr


def _measure(amps, rng):
    cumulative = np.cumsum(np.abs(amps) ** 2)
    index = min(int(np.searchsorted(cumulative, rng.random(), side="right")), amps.size - 1)
    collapsed = np.zeros(amps.size, dtype=complex)
    collapsed[index] = 1.0
    return index, collapsed


def _phase_equal(a, b, tol=DEFAULT_TOL):
    pivot = np.argmax(np.abs(b))
    if abs(b[pivot]) <= tol:
        return False
    c = a[pivot] / b[pivot]
    return abs(abs(c) - 1.0) <= tol and np.max(np.abs(a - c * b)) <= tol


def _bits(index, num_qubits):
    return tuple((index >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits))


def _reference_run(secret, alice, bob, stages, rotation, noise, num_qubits, rng):
    """(wire, delivered, recovered, measured index, Eve's records, recovered?)."""
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[secret] = 1.0
    wire, delivered, records = [], [], []
    for stage, op in zip(STAGES, (alice, bob, adjoint(alice))):
        amps = _checked(op.matrix @ amps, num_qubits)
        wire.append(amps)
        if stage.value in stages:
            if rotation is None:
                index, amps = _measure(amps, rng)
            else:
                index, collapsed = _measure(_checked(rotation.matrix @ amps, num_qubits), rng)
                amps = _checked(adjoint(rotation).matrix @ collapsed, num_qubits)
            records.append((stage, index))
        if noise:
            for qubit in range(num_qubits):
                if rng.random() < noise:
                    flipped = np.arange(amps.size) ^ (1 << (num_qubits - 1 - qubit))
                    amps = _checked(amps[flipped], num_qubits)
        delivered.append(amps)
    recovered = _checked(adjoint(bob).matrix @ amps, num_qubits)
    measured, _ = _measure(recovered, rng)
    secret_amps = np.zeros(2**num_qubits, dtype=complex)
    secret_amps[secret] = 1.0
    return wire, delivered, recovered, measured, records, _phase_equal(recovered, secret_amps)


@pytest.mark.parametrize("name", family_names())
def test_runs_match_reference_bit_for_bit(name):
    family = get_family(name)
    num_qubits = family.dim.bit_length() - 1
    secrets = [basis_state(s, num_qubits) for s in range(family.dim)]
    for channel, (stages, rotated, own_noise) in CHANNELS.items():
        rotation = operator_catalog(family.dim)[ROTATION[family.dim]] if rotated else None
        for noise in (own_noise, 0.3):
            eve = EveStrategy({StageLabel(s) for s in stages}, rotation) if stages else None
            ctx = ChannelContext(eve=eve, noise=NoiseModel(noise) if noise else None)
            rng, twin = np.random.default_rng(7), np.random.default_rng(7)
            for _ in range(2):
                for s in range(family.dim):
                    for a in family.members:
                        for b in family.members:
                            where = (channel, noise, s, a.label, b.label)
                            t = run_three_stage(secrets[s], a, b, ctx, rng)
                            wire, delivered, recovered, measured, records, ok = _reference_run(
                                s, a, b, stages, rotation, noise, num_qubits, twin)
                            assert t.measured.index == measured, where
                            assert t.measured.bits == _bits(measured, num_qubits), where
                            assert [(stage, r.index, r.bits) for stage, r in t.eve_records] == [
                                (stage, i, _bits(i, num_qubits)) for stage, i in records
                            ], where
                            assert verify_recovery(t) == ok, where
                            for got, want in ((t.wire_states, wire),
                                              (t.delivered_states, delivered)):
                                assert list(got) == list(STAGES), where
                                for stage, amps in zip(STAGES, want):
                                    assert got[stage].amplitudes.tobytes() == amps.tobytes(), where
                            assert t.recovered.amplitudes.tobytes() == recovered.tobytes(), where
            assert rng.bit_generator.state == twin.bit_generator.state, (channel, noise)
