"""Dense complex linear algebra for one- and two-qubit pure states.

States are normalized amplitude vectors over the computational basis and
operators are unitary matrices of dimension 2 or 4.  Basis indices are read
with qubit 0 as the most significant bit, so for two qubits index 2 is |10>.

Two comparison notions are used throughout:

* exact representation equality (``==`` on the wrapper types), used by
  determinism checks, and
* equality up to a global phase (`equal_up_to_global_phase`), the physically
  meaningful notion, since a unit-modulus scalar in front of a state is
  unobservable.  Like every norm, unitarity and basis-state test here and in
  `opsets` and `protocol`, it compares within `DEFAULT_TOL`, the one tolerance.

All wrapper types are immutable after construction (the underlying numpy
buffers are marked read-only) and safe to share between threads.  Random
sampling goes through an explicit `numpy.random.Generator` so that every
stochastic operation is reproducible from a seed.

Values are checked once, where they enter.  `basis_state` and
`Outcome.from_index` check their arguments, not their exact 0/1 results, and
`adjoint` checks each distinct operator once, then caches by value.  `apply`
and `tensor` check every product: factors within 1e-9 can drift.  A state's
one norm test also rejects NaN and infinity.  Collapsed outcomes are shared.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

#: The one tolerance of state and operator comparisons (norms, phases, basis states).
DEFAULT_TOL = 1e-9

_SUPPORTED_NUM_QUBITS = (1, 2)
_SUPPORTED_DIMS = (2, 4)


def _check_finite(arr: np.ndarray, shape_kind: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{shape_kind} entries must be finite (no NaN or infinity)")


def _check_count(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "non-negative" if minimum == 0 else f">= {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def _check_num_qubits(num_qubits) -> None:
    _check_count("num_qubits", num_qubits, 1)
    if num_qubits not in _SUPPORTED_NUM_QUBITS:
        raise ValueError(f"num_qubits must be 1 or 2, got {num_qubits}")


def _check_index(index, num_qubits) -> None:
    """Check a basis index and, first, its qubit count."""
    _check_num_qubits(num_qubits)
    _check_count("index", index, 0)
    if index >= 2**num_qubits:
        raise ValueError(f"index {index} out of range for {num_qubits} qubit(s)")


def _trusted(cls, **fields):
    """Build a frozen value from fields valid by construction, skipping its checks."""
    value = object.__new__(cls)
    for name, field_value in fields.items():
        object.__setattr__(value, name, field_value)
    return value


def proportional_phase(a: np.ndarray, b: np.ndarray):
    """Return the unit scalar ``c`` with ``a = c * b``, or None if there is none.

    The candidate phase is extracted at the largest-modulus entry of ``b`` to
    avoid dividing by a near-zero amplitude, then checked entrywise.

    Args:
        a: Complex array.
        b: Complex array of the same shape.

    Returns:
        A complex scalar of modulus 1 (within `DEFAULT_TOL`), or None if
        ``a`` is not a unit-modulus multiple of ``b``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    pivot = np.abs(b).argmax()
    pivot_value = b.flat[pivot]
    if abs(pivot_value) <= DEFAULT_TOL:
        return None
    c = a.flat[pivot] / pivot_value
    if abs(abs(c) - 1.0) > DEFAULT_TOL or np.abs(a - c * b).max() > DEFAULT_TOL:
        return None
    return complex(c)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of one or two qubits as a normalized amplitude vector.

    Attributes:
        num_qubits: 1 or 2.
        amplitudes: Complex vector of length ``2**num_qubits`` with unit norm
            (within 1e-9); read-only after construction.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_num_qubits(self.num_qubits)
        arr = np.array(self.amplitudes, dtype=complex, order="C")
        norm = np.vdot(arr, arr).real if arr.ndim == 1 else None
        if arr.shape != (self.dim,) or not abs(norm - 1.0) <= DEFAULT_TOL:  # NaN fails
            _check_finite(arr, "state")
            if arr.shape != (self.dim,):
                raise ValueError(f"state over {self.num_qubits} qubit(s) needs "
                                 f"{self.dim} amplitudes, got shape {arr.shape}")
            raise ValueError(f"state norm squared is {norm}, expected 1 within {DEFAULT_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.num_qubits == other.num_qubits and bool(
            np.array_equal(self.amplitudes, other.amplitudes)
        )

    def __repr__(self) -> str:
        return f"StateVector({self.num_qubits}, {self.amplitudes.tolist()!r})"


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Square complex matrix with verified unitarity, dimension 2 or 4.

    Attributes:
        matrix: The operator entries; read-only after construction.
        label: Short display name, e.g. ``"X"`` or ``"DFT4"``.
    """

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=complex, order="C")
        _check_finite(arr, "operator")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator must be square, got shape {arr.shape}")
        if arr.shape[0] not in _SUPPORTED_DIMS:
            raise ValueError(f"operator dimension must be 2 or 4, got {arr.shape[0]}")
        deviation = np.max(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0])))
        if deviation > DEFAULT_TOL:
            raise ValueError(
                f"matrix {self.label!r} is not unitary: max |U†U - I| = {deviation:.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnitaryOperator):
            return NotImplemented
        return self.label == other.label and bool(np.array_equal(self.matrix, other.matrix))

    def __hash__(self) -> int:
        return hash(self.label)

    def __repr__(self) -> str:
        return f"UnitaryOperator({self.label!r}, dim={self.dim})"


@dataclass(frozen=True)
class Outcome:
    """Result of a computational-basis measurement.

    ``bits`` is the binary expansion of ``index`` with qubit 0 first
    (most significant).
    """

    index: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits or any(type(b) is not int or b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be a non-empty tuple of 0/1 ints, got {self.bits}")
        expected = sum(b << q for q, b in enumerate(reversed(self.bits)))
        if expected != self.index:
            raise ValueError(f"bits {self.bits} do not encode index {self.index}")

    @classmethod
    def from_index(cls, index: int, num_qubits: int) -> "Outcome":
        _check_index(index, num_qubits)
        bits = tuple(int((index >> (num_qubits - 1 - q)) & 1) for q in range(num_qubits))
        return _trusted(cls, index=index, bits=bits)


def basis_state(index: int, num_qubits: int) -> StateVector:
    """Return the computational basis state with the given index.

    Args:
        index: Basis index in ``[0, 2**num_qubits)``.
        num_qubits: 1 or 2.

    Raises:
        ValueError: If the index is not an integer in range, or num_qubits
            is unsupported.
    """
    _check_index(index, num_qubits)
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    amps.setflags(write=False)
    return _trusted(StateVector, num_qubits=num_qubits, amplitudes=amps)


def is_basis_state(psi: StateVector) -> int | None:
    """Return the basis index of ``psi`` if it is a basis state up to phase.

    Returns None when more than one amplitude exceeds `DEFAULT_TOL` in modulus.
    """
    moduli = np.abs(psi.amplitudes)
    large = np.flatnonzero(moduli > DEFAULT_TOL)
    if large.size != 1:
        return None
    return int(large[0])


def apply(u: UnitaryOperator, psi: StateVector) -> StateVector:
    """Apply a unitary to a state: the matrix-vector product ``U @ psi``.

    Raises:
        ValueError: If the operator dimension does not match the state.
    """
    if u.dim != psi.dim:
        raise ValueError(f"operator dim {u.dim} does not match state dim {psi.dim}")
    return StateVector(num_qubits=psi.num_qubits, amplitudes=u.matrix @ psi.amplitudes)


@lru_cache(maxsize=64)
def adjoint(u: UnitaryOperator) -> UnitaryOperator:
    """Return the conjugate transpose ``U†``, cached by operator value."""
    return UnitaryOperator(matrix=u.matrix.conj().T, label=f"{u.label}†")


def tensor(u: UnitaryOperator, v: UnitaryOperator) -> UnitaryOperator:
    """Return the 4x4 Kronecker product of two single-qubit operators."""
    if u.dim != 2 or v.dim != 2:
        raise ValueError(f"tensor expects two 2x2 operators, got dims {u.dim} and {v.dim}")
    return UnitaryOperator(matrix=np.kron(u.matrix, v.matrix), label=f"{u.label}⊗{v.label}")


def outcome_distribution(psi: StateVector) -> np.ndarray:
    """Return the Born-rule probabilities ``|amplitude[k]|**2`` as a float vector."""
    return np.abs(psi.amplitudes) ** 2


def measure(psi: StateVector, rng: np.random.Generator) -> tuple[Outcome, StateVector]:
    """Measure all qubits in the computational basis.

    Samples outcome ``k`` with probability ``|amplitude[k]|**2``: the first
    index whose running total exceeds one uniform draw, else the last index.
    Equal results share one immutable `Outcome` and collapsed basis state.

    Args:
        psi: State to measure.
        rng: Seeded random generator; consumes exactly one uniform draw.

    Returns:
        The sampled `Outcome` and the collapsed `StateVector`.
    """
    cumulative = np.cumsum(outcome_distribution(psi)).tolist()
    index = min(bisect_right(cumulative, rng.random()), psi.dim - 1)
    return _collapsed(index, psi.num_qubits)


@cache
def _collapsed(index: int, num_qubits: int) -> tuple[Outcome, StateVector]:
    return Outcome.from_index(index, num_qubits), basis_state(index, num_qubits)


def equal_up_to_global_phase(a: StateVector, b: StateVector) -> bool:
    """Return True iff ``a = c * b`` for some unit-modulus scalar ``c``.

    The phase is derived at the largest-modulus amplitude of ``b`` and then
    checked entrywise within `DEFAULT_TOL`.

    Raises:
        ValueError: If the states have different dimensions.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"state dims differ: {a.dim} vs {b.dim}")
    return proportional_phase(a.amplitudes, b.amplitudes) is not None
