"""Reference rates for the three-stage exchange, enumerated with numpy alone.

This module is the benchmark's yardstick and is written apart from
``tristage.analysis``: it imports nothing from the program and takes the
family members and Eve's rotation as plain matrices.  It keeps every branch
(no pruning) and enumerates channel noise as per-transmission flip
patterns.

The channel follows the protocol's order: Alice applies her member to the
basis secret, then for stages 1, 2, 3 the state crosses the channel (Eve
measures in her basis and re-prepares, then each qubit flips with the noise
probability) and Bob, Alice and Bob apply U_b, U_a^dagger and U_b^dagger.
Bob measures the final state in the computational basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Absolute tolerance under which two likelihoods count as a tie.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class ReferenceRates:
    """Exact rates for one family and channel, with uniform member choices.

    ``bit_error_rate``, ``disturbance`` and ``guess_rate`` hold one value per
    basis secret.  ``guess_table`` maps each record code (Eve's outcomes in
    stage order, read as base-dim digits) to the MAP guess of this channel,
    lowest index on ties, and ``guess_rate`` is that table's success; these
    and the fields below are None when Eve is absent.  ``aware_guess_rate``
    is that success averaged over uniform secrets, the noise-aware MAP rate.
    ``clean_table_guess_rate`` is the average success of the noise-free
    channel's MAP table (lowest index on ties) on this channel, and
    ``clean_table_guess_low`` is the lowest average success that any MAP
    table of the noise-free channel (any choice among its ties) reaches on
    this channel; with no noise both equal ``aware_guess_rate``.
    """

    bit_error_rate: np.ndarray
    disturbance: np.ndarray
    guess_table: np.ndarray | None
    guess_rate: np.ndarray | None
    aware_guess_rate: float | None
    clean_table_guess_rate: float | None
    clean_table_guess_low: float | None

    @property
    def mean_bit_error_rate(self) -> float:
        return float(self.bit_error_rate.mean())

    @property
    def mean_disturbance(self) -> float:
        return float(self.disturbance.mean())


def _popcount(values: np.ndarray) -> np.ndarray:
    counts = [bin(int(v)).count("1") for v in np.ravel(values)]
    return np.array(counts, dtype=np.int64).reshape(np.shape(values))


def _enumerate(members, eve_stages, rotation, noise):
    """Return (likelihood[secret, record code], ber[secret], disturbance[secret]).

    One operator pair at a time; within a pair, the rows of ``psi`` are the
    branches of every secret.
    """
    unitaries = [np.asarray(m, dtype=complex) for m in members]
    dim = unitaries[0].shape[0]
    qubits = dim.bit_length() - 1
    rot = np.eye(dim, dtype=complex) if rotation is None else np.asarray(rotation, complex)
    reprepare = rot.conj()  # row k is R^dagger |k>, the state Eve forwards
    patterns = np.arange(dim)
    flips = _popcount(patterns)
    pattern_weight = noise**flips * (1.0 - noise) ** (qubits - flips)
    hamming = _popcount(patterns[:, None] ^ patterns[None, :])
    likelihood = np.zeros((dim, dim ** len(eve_stages)))
    ber = np.zeros(dim)
    disturbance = np.zeros(dim)
    for ua in unitaries:
        for ub in unitaries:
            secret = np.arange(dim)
            weight = np.full(dim, 1.0 / len(unitaries) ** 2)
            code = np.zeros(dim, dtype=np.int64)
            psi = ua.T  # row s is U_a |s>
            for stage, post in ((1, ub), (2, ua.conj().T), (3, ub.conj().T)):
                if stage in eve_stages:
                    p = np.abs(psi @ rot.T) ** 2
                    weight = (weight[:, None] * p).ravel()
                    code = (code[:, None] * dim + patterns[None, :]).ravel()
                    psi = np.tile(reprepare, (secret.size, 1))
                    secret = np.repeat(secret, dim)
                if noise > 0.0:
                    weight = (weight[:, None] * pattern_weight[None, :]).ravel()
                    psi = psi[:, patterns[None, :] ^ patterns[:, None]].reshape(-1, dim)
                    code, secret = np.repeat(code, dim), np.repeat(secret, dim)
                psi = psi @ post.T
            final = np.abs(psi) ** 2
            np.add.at(likelihood, (secret, code), weight)
            errors = (final * hamming[secret]).sum(axis=1) / qubits
            ber += np.bincount(secret, weights=weight * errors, minlength=dim)
            missed = 1.0 - final[np.arange(secret.size), secret]
            disturbance += np.bincount(secret, weights=weight * missed, minlength=dim)
    mass = likelihood.sum(axis=1)
    if np.max(np.abs(mass - 1.0)) > 1e-9:
        raise RuntimeError(f"branch weights per secret sum to {mass}, expected 1")
    return likelihood, ber, disturbance


def _map_choices(decide: np.ndarray):
    """Tie mask of a MAP table and its lowest-index choice per record code."""
    tied = decide >= decide.max(axis=0, keepdims=True) - TIE_TOL
    return tied, np.argmax(tied, axis=0)


def reference_rates(members, eve_stages=(), rotation=None, noise=0.0) -> ReferenceRates:
    """Enumerate the exact rates of one family on one channel.

    Args:
        members: The family's unitaries, all of one dimension (2 or 4).
        eve_stages: Stage numbers (1, 2, 3) that Eve intercepts.
        rotation: Eve's measurement rotation, or None for the computational
            basis.
        noise: Per-qubit bit-flip probability per transmission.
    """
    eve_stages = frozenset(eve_stages)
    likelihood, ber, disturbance = _enumerate(members, eve_stages, rotation, noise)
    if not eve_stages:
        return ReferenceRates(ber, disturbance, None, None, None, None, None)
    dim, codes = likelihood.shape
    _, guess = _map_choices(likelihood)
    guess_rate = np.array([likelihood[s, guess == s].sum() for s in range(dim)])
    clean = likelihood if noise == 0.0 else _enumerate(members, eve_stages, rotation, 0.0)[0]
    tied, clean_guess = _map_choices(clean)
    clean_rate = likelihood[clean_guess, np.arange(codes)].sum() / dim
    clean_low = np.where(tied, likelihood, np.inf).min(axis=0).sum() / dim
    return ReferenceRates(
        bit_error_rate=ber,
        disturbance=disturbance,
        guess_table=guess,
        guess_rate=guess_rate,
        aware_guess_rate=float(guess_rate.mean()),
        clean_table_guess_rate=float(clean_rate),
        clean_table_guess_low=float(clean_low),
    )
