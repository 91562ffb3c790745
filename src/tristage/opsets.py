"""Catalog of commuting operator families used by the three-stage protocol.

Five built-in families are provided, addressable by name:

* ``pauli`` (dim 2): the single-qubit operators I, X, Y, Z.
* ``hadamard`` (dim 2): do-nothing and the Hadamard transformation.
* ``controlled-pair`` (dim 4): two controlled bit-flips acting on disjoint
  halves of the basis, completed with the identity and their product so the
  set is closed and every party has a nontrivial uniform choice.
* ``dft`` (dim 4): do-nothing and the four-point discrete Fourier transform.
* ``quaternion`` (dim 4): four real unitaries multiplying like the
  quaternion units i, j, k, 1.

What the protocol needs from a family is that every pair of members commutes
up to a global phase; `verify_family` checks exactly that (plus presence of
the identity) and additionally reports, without gating on it, whether the
family is closed under products up to phase.  The ``dft`` family is the one
catalog entry that is not product-closed: the DFT squared is the
index-reversal permutation, which is not a member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .qcore import (
    DEFAULT_TOL,
    StateVector,
    UnitaryOperator,
    apply,
    is_basis_state,
    outcome_distribution,
    proportional_phase,
    tensor,
)

_SQRT2 = math.sqrt(2.0)

#: The four candidate phases for products of the single-qubit operators.
QUARTER_PHASES = (1.0 + 0.0j, -1.0 + 0.0j, 0.0 + 1.0j, 0.0 - 1.0j)


@dataclass(frozen=True)
class OperatorFamily:
    """Named finite set of same-dimension unitaries with unique labels.

    Construction checks only structure (non-empty, shared dimension, unique
    labels); algebraic properties are checked by `verify_family`, so that
    deliberately broken families can be built and diagnosed.  The hash is
    computed once here: the analysis caches look a family up by value on
    every call.
    """

    name: str
    members: tuple[UnitaryOperator, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "_hash", hash((self.name, self.members)))
        if not self.members:
            raise ValueError("a family needs at least one member")
        dims = {m.dim for m in self.members}
        if len(dims) != 1:
            raise ValueError(f"family {self.name!r} mixes dimensions {sorted(dims)}")
        labels = [m.label for m in self.members]
        if len(set(labels)) != len(labels):
            raise ValueError(f"family {self.name!r} has duplicate labels {labels}")

    @property
    def dim(self) -> int:
        return self.members[0].dim

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.members)

    def member(self, label: str) -> UnitaryOperator:
        for m in self.members:
            if m.label == label:
                return m
        raise ValueError(f"family {self.name!r} has no member {label!r}")

    def __len__(self) -> int:
        return len(self.members)

    def __hash__(self) -> int:
        return self._hash


@cache
def pauli_family() -> OperatorFamily:
    """The single-qubit family {I, X, Y, Z}."""
    return OperatorFamily(
        name="pauli",
        members=(
            UnitaryOperator(np.array([[1, 0], [0, 1]], dtype=complex), "I"),
            UnitaryOperator(np.array([[0, 1], [1, 0]], dtype=complex), "X"),
            UnitaryOperator(np.array([[0, -1j], [1j, 0]], dtype=complex), "Y"),
            UnitaryOperator(np.array([[1, 0], [0, -1]], dtype=complex), "Z"),
        ),
    )


@cache
def hadamard_family() -> OperatorFamily:
    """The single-qubit family {I, H}: do-nothing and the Hadamard transform."""
    return OperatorFamily(
        name="hadamard",
        members=(
            UnitaryOperator(np.array([[1, 0], [0, 1]], dtype=complex), "I"),
            UnitaryOperator(np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2, "H"),
        ),
    )


@cache
def controlled_pair_family() -> OperatorFamily:
    """Two-qubit family built from a pair of complementary controlled NOTs.

    ``CNOT`` flips the second qubit when the first is 1, ``OCNOT`` (open
    control) flips it when the first is 0.  They act on disjoint halves of
    the basis and therefore commute exactly.  The identity and the product
    ``CNOT·OCNOT`` (= X on the second qubit, labelled ``IX``) complete the
    set into a closed group of four, so a uniformly drawn member carries a
    meaningful secret choice.
    """
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    ocnot = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    return OperatorFamily(
        name="controlled-pair",
        members=(
            UnitaryOperator(np.eye(4, dtype=complex), "I4"),
            UnitaryOperator(cnot, "CNOT"),
            UnitaryOperator(ocnot, "OCNOT"),
            UnitaryOperator(cnot @ ocnot, "IX"),
        ),
    )


@cache
def dft_family() -> OperatorFamily:
    """Two-qubit family {I4, DFT4}: do-nothing and the N=4 Fourier transform.

    The DFT entry at (j, k) is ``i**(j*k) / 2``.
    """
    omega = 1j
    dft = np.array(
        [[omega ** (j * k) for k in range(4)] for j in range(4)], dtype=complex
    ) / 2.0
    return OperatorFamily(
        name="dft",
        members=(
            UnitaryOperator(np.eye(4, dtype=complex), "I4"),
            UnitaryOperator(dft, "DFT4"),
        ),
    )


@cache
def quaternion_family() -> OperatorFamily:
    """Four real 4x4 unitaries multiplying like the quaternion units.

    Qi·Qj = Qk cyclically and Qi² = Qj² = Qk² = -Q1, so all pairs commute up
    to a sign and the set is closed up to phase.  Each member is a tensor
    product of single-qubit operators times a quarter phase (see
    `pauli_tensor_decompose`).
    """
    qi = np.array(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=complex
    )
    qj = np.array(
        [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex
    )
    qk = np.array(
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=complex
    )
    return OperatorFamily(
        name="quaternion",
        members=(
            UnitaryOperator(qi, "Qi"),
            UnitaryOperator(qj, "Qj"),
            UnitaryOperator(qk, "Qk"),
            UnitaryOperator(np.eye(4, dtype=complex), "Q1"),
        ),
    )


_FAMILY_BUILDERS = {
    "pauli": pauli_family,
    "hadamard": hadamard_family,
    "controlled-pair": controlled_pair_family,
    "dft": dft_family,
    "quaternion": quaternion_family,
}


def family_names() -> tuple[str, ...]:
    """Names of the built-in families, in catalog order."""
    return tuple(_FAMILY_BUILDERS)


def get_family(name: str) -> OperatorFamily:
    """Look up a built-in family by name.

    Raises:
        ValueError: If the name is not in the catalog.
    """
    try:
        return _FAMILY_BUILDERS[name]()
    except KeyError:
        known = ", ".join(family_names())
        raise ValueError(f"unknown family {name!r} (choose from: {known})") from None


def operator_catalog(dim: int) -> dict[str, UnitaryOperator]:
    """All catalog operators of the given dimension, keyed by label.

    Labels shared between families (the identities) resolve to the first
    occurrence in catalog order; all duplicates are the same matrix.
    """
    ops: dict[str, UnitaryOperator] = {}
    for name in family_names():
        family = get_family(name)
        if family.dim != dim:
            continue
        for member in family.members:
            ops.setdefault(member.label, member)
    return ops


@lru_cache(maxsize=64)
def commutation_phase(u: UnitaryOperator, v: UnitaryOperator):
    """Return the unit scalar ``c`` with ``U·V = c·(V·U)``, or None.

    The phase is extracted at the largest-modulus entry of ``V·U`` and
    verified entrywise within `DEFAULT_TOL`.  Returns None when the two
    products are not proportional, i.e. the operators do not commute even up
    to a global phase.  Cached by value; 64 entries hold the catalog's 54
    distinct ordered pairs.

    Raises:
        ValueError: If the operators have different dimensions.
    """
    if u.dim != v.dim:
        raise ValueError(f"operator dims differ: {u.dim} vs {v.dim}")
    return proportional_phase(u.matrix @ v.matrix, v.matrix @ u.matrix)


@dataclass(frozen=True)
class PhaseDecomposition:
    """Factorization of a 4x4 unitary as phase * (P tensor Q).

    ``left`` and ``right`` are labels from the single-qubit family {I,X,Y,Z};
    ``phase`` is one of the quarter phases 1, -1, i, -i.
    """

    left: str
    right: str
    phase: complex

    def reconstruct(self) -> np.ndarray:
        family = pauli_family()
        return self.phase * tensor(family.member(self.left), family.member(self.right)).matrix


def pauli_tensor_decompose(u: UnitaryOperator):
    """Search for a decomposition of a 4x4 unitary as c * (P tensor Q).

    Scans the 16 label pairs (left factor then right factor, each in order
    I, X, Y, Z) and for each pair the phases 1, -1, i, -i; the first match
    within `DEFAULT_TOL` wins, which makes the result deterministic.

    Returns:
        A `PhaseDecomposition`, or None if no candidate matches.

    Raises:
        ValueError: If the operator is not 4x4.
    """
    if u.dim != 4:
        raise ValueError(f"decomposition needs a 4x4 operator, got dim {u.dim}")
    family = pauli_family()
    for left in family.members:
        for right in family.members:
            product = np.kron(left.matrix, right.matrix)
            for phase in QUARTER_PHASES:
                if np.max(np.abs(u.matrix - phase * product)) <= DEFAULT_TOL:
                    return PhaseDecomposition(left=left.label, right=right.label, phase=phase)
    return None


@dataclass(frozen=True)
class PairCheck:
    """Commutation and closure result for one ordered member pair."""

    left: str
    right: str
    commutation: complex | None
    closure_member: str | None
    closure_phase: complex | None


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of `verify_family`.

    ``passed`` requires every ordered pair to commute up to phase and the
    identity to be present up to phase -- the properties the protocol
    actually relies on.  ``closed`` records whether every pairwise product
    is a member up to phase; it is reported but does not gate ``passed``.
    """

    family: str
    dim: int
    labels: tuple[str, ...]
    pairs: tuple[PairCheck, ...]
    commuting: bool
    has_identity: bool
    closed: bool
    passed: bool

    def failures(self) -> tuple[PairCheck, ...]:
        return tuple(p for p in self.pairs if p.commutation is None)

    def missing_products(self) -> tuple[PairCheck, ...]:
        return tuple(p for p in self.pairs if p.closure_member is None)

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"{self.family} (dim {self.dim}, members {','.join(self.labels)}): {status}"
        ]
        if self.commuting:
            phases = sorted({_phase_name(p.commutation) for p in self.pairs})
            lines.append(f"  commutation: all pairs commute, phases {{{', '.join(phases)}}}")
        else:
            bad = ", ".join(f"({p.left},{p.right})" for p in self.failures())
            lines.append(f"  commutation: FAILED for pairs {bad}")
        lines.append(f"  identity member: {'present' if self.has_identity else 'MISSING'}")
        if self.closed:
            lines.append("  closure: every product is a member up to phase")
        else:
            missing = ", ".join(
                f"{p.left}·{p.right}" for p in self.missing_products()
            )
            lines.append(f"  closure: incomplete, products not in family: {missing}")
        return "\n".join(lines)


def _phase_name(phase: complex | None) -> str:
    if phase is None:
        return "none"
    for value, name in ((1, "+1"), (-1, "-1"), (1j, "+i"), (-1j, "-i")):
        if abs(phase - value) < 1e-6:
            return name
    return f"{phase:.3f}"


def verify_family(family: OperatorFamily) -> FamilyReport:
    """Check the algebraic properties a protocol family must satisfy.

    For every ordered member pair the commutation phase and a closure
    witness (which member the product equals, up to which phase) are
    computed.  Failures land in the report rather than raising.
    """
    identity = np.eye(family.dim)
    has_identity = any(
        proportional_phase(m.matrix, identity) is not None for m in family.members
    )
    pairs = []
    for left in family.members:
        for right in family.members:
            comm = commutation_phase(left, right)
            product = left.matrix @ right.matrix
            witness_label = None
            witness_phase = None
            for candidate in family.members:
                phase = proportional_phase(product, candidate.matrix)
                if phase is not None:
                    witness_label = candidate.label
                    witness_phase = phase
                    break
            pairs.append(
                PairCheck(
                    left=left.label,
                    right=right.label,
                    commutation=comm,
                    closure_member=witness_label,
                    closure_phase=witness_phase,
                )
            )
    commuting = all(p.commutation is not None for p in pairs)
    closed = all(p.closure_member is not None for p in pairs)
    return FamilyReport(
        family=family.name,
        dim=family.dim,
        labels=family.labels,
        pairs=tuple(pairs),
        commuting=commuting,
        has_identity=has_identity,
        closed=closed,
        passed=commuting and has_identity,
    )


def aggregate_outcome_distribution(family: OperatorFamily, psi: StateVector) -> np.ndarray:
    """Outcome distribution after applying a uniformly random family member.

    Averages ``outcome_distribution(apply(U, psi))`` over the members.

    Raises:
        ValueError: If the family dimension does not match the state.
    """
    if family.dim != psi.dim:
        raise ValueError(f"family dim {family.dim} does not match state dim {psi.dim}")
    total = np.zeros(psi.dim)
    for member in family.members:
        total += outcome_distribution(apply(member, psi))
    return total / len(family)


def basis_preserving(family: OperatorFamily) -> bool:
    """True when every member maps every basis state to a basis state up to phase.

    Equivalent to every member being a permutation matrix with unit-modulus
    entries.  Families with this property are transparent to a
    computational-basis intercept-resend attack: collapse changes nothing.
    """
    for member in family.members:
        moduli = np.abs(member.matrix)
        if np.any(np.sum(moduli > DEFAULT_TOL, axis=0) != 1):
            return False
    return True


def superposition_probability(family: OperatorFamily, psi: StateVector) -> float:
    """Fraction of members that map a basis state into a superposition.

    A member counts when its image of ``psi`` has at least two amplitudes
    exceeding `DEFAULT_TOL` in modulus.

    Raises:
        ValueError: If ``psi`` is not a computational basis state or the
            dimensions do not match.
    """
    if family.dim != psi.dim:
        raise ValueError(f"family dim {family.dim} does not match state dim {psi.dim}")
    if is_basis_state(psi) is None:
        raise ValueError("input must be a computational basis state")
    count = 0
    for member in family.members:
        moduli = np.abs(apply(member, psi).amplitudes)
        if int(np.sum(moduli > DEFAULT_TOL)) >= 2:
            count += 1
    return count / len(family)
