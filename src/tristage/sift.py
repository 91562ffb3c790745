"""Parity-based disturbance detection over sifted keys.

After a session both parties hold bit strings that should be identical.
Comparing parities of random key subsets over the public channel reveals
disturbance: a subset with odd overlap with the error pattern flips exactly
one of the two parities.  Any uniformly random nonempty subset of an n-bit
key has odd overlap with any fixed nonzero error pattern with probability
2^(n-1) / (2^n - 1), slightly above one half, independent of the pattern.

Bits used in any parity round are publicly disclosed and flagged so callers
can discard them from the final key.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .qcore import _check_count


@dataclass(frozen=True)
class ParityRound:
    """One disclosed subset with both parties' parities over it."""

    subset_mask: int
    alice_parity: int
    bob_parity: int

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(_set_bits(self.subset_mask).tolist())

    @property
    def mismatch(self) -> bool:
        return self.alice_parity != self.bob_parity


def _disclosed_indices(report: "SiftReport") -> frozenset:
    return frozenset(_set_bits(report.disclosed_mask).tolist())


@dataclass(frozen=True)
class SiftReport:
    """Outcome of a parity comparison: rounds, verdict, and consumed bits.

    ``disclosed_mask`` is the union of the round masks.
    ``disclosed_indices``, its set bits, is built on first read and kept;
    passing it (as `dataclasses.replace` does) sets the mask from it.
    """

    rounds: tuple
    detected: bool
    disclosed_mask: int
    disclosed_indices: InitVar[frozenset] = cached_property(_disclosed_indices)

    def __post_init__(self, disclosed_indices):
        # Not passed, the default is the property itself, which builds the set.
        if not isinstance(disclosed_indices, cached_property):
            if min(disclosed_indices, default=0) < 0:
                raise ValueError(
                    f"disclosed indices must be >= 0, got {sorted(disclosed_indices)}")
            self.__dict__["disclosed_indices"] = frozenset(disclosed_indices)
            bits = np.zeros(max(disclosed_indices, default=-1) + 1, dtype=np.uint8)
            bits[list(disclosed_indices)] = 1
            object.__setattr__(self, "disclosed_mask", _bits_to_int(bits))


def _set_bits(mask: int) -> np.ndarray:
    """Positions of the set bits of ``mask``, ascending."""
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def _bits_to_int(bits: np.ndarray) -> int:
    """The integer whose bit i is ``bits[i]`` (entries 0 or 1)."""
    packed = np.packbits(bits.astype(np.uint8, copy=False), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _key_to_int(key, side: str) -> tuple[int, int]:
    """The key as the integer whose bit i is entry i, and its length.

    A list or tuple of small non-negative integers is read through `bytes`,
    which is several times faster than `np.asarray`; any other entries, and
    any other sequence, go through `np.asarray` as an array does."""
    bits = None
    if isinstance(key, (list, tuple)):
        try:
            bits = np.frombuffer(bytes(key), np.uint8)
        except (TypeError, ValueError):  # entries that are not integers in [0, 256)
            pass
    if bits is None:
        bits = np.asarray(key)
    if bits.ndim != 1:
        raise ValueError(f"{side} key must be one-dimensional, got shape {bits.shape}")
    # Unsigned and bool entries are bits unless above 1: one test, one temporary.
    bad = bits > 1 if bits.dtype.kind in "bu" else (bits != 0) & (bits != 1)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"{side} key must contain bits, got {key[i]!r} at index {i}")
    return _bits_to_int(bits), len(bits)


def _masks(length: int, rounds: int, rng: np.random.Generator) -> list[int]:
    """``rounds`` uniform non-empty subsets of ``length`` bits, as integer masks.

    The masks are read little-endian from the bytes of one
    ``rng.integers(0, 256, dtype=np.uint8)`` draw, ``ceil(length / 8)``
    bytes each, with their bits at and past ``length`` cleared.  The masks
    left empty are drawn again together, so each is uniform over the
    non-empty subsets."""
    width = (length + 7) // 8
    raw = rng.integers(0, 256, size=rounds * width, dtype=np.uint8).tobytes()
    keep = (1 << length) - 1
    masks = [int.from_bytes(raw[i:i + width], "little") & keep
             for i in range(0, len(raw), width)]
    empty = masks.count(0)
    if empty:
        redrawn = iter(_masks(length, empty, rng))
        masks = [mask or next(redrawn) for mask in masks]
    return masks


def parity_check(
    alice_key,
    bob_key,
    rounds: int,
    rng: np.random.Generator,
) -> SiftReport:
    """Compare parities of uniformly random nonempty key subsets.

    Args:
        alice_key: Alice's bits, as a sequence (a list or tuple of 0 and 1
            is read fastest) or a numpy array (a ``uint8`` array, as
            `run_key_session` returns, is taken as it is).
        bob_key: Bob's bits, same length.
        rounds: How many independent subsets to draw; each consumes the
            bits it touches (they become disclosed).
        rng: Random stream for the subset draws.

    Returns:
        A `SiftReport`; ``detected`` is true iff some round's parities
        disagree.

    Raises:
        ValueError: On length mismatch, empty keys, keys that are not
            one-dimensional or hold entries other than 0 and 1, or rounds
            that is not an integer >= 1.
    """
    _check_count("rounds", rounds, 1)
    alice_int, length = _key_to_int(alice_key, "alice")
    bob_int, bob_length = _key_to_int(bob_key, "bob")
    if length != bob_length:
        raise ValueError(f"key lengths differ: {length} vs {bob_length}")
    if length == 0:
        raise ValueError("keys must be non-empty")
    round_results = []
    union = 0
    for mask in _masks(length, rounds, rng):
        union |= mask
        round_results.append(
            ParityRound(
                subset_mask=mask,
                alice_parity=(mask & alice_int).bit_count() & 1,
                bob_parity=(mask & bob_int).bit_count() & 1,
            )
        )
    return SiftReport(
        rounds=tuple(round_results),
        detected=any(r.mismatch for r in round_results),
        disclosed_mask=union,
    )


def detection_probability(key_length: int, error_weight: int, rounds: int) -> float:
    """Exact chance that parity comparison catches an error pattern.

    For any nonzero pattern over a key of the given length, each round
    detects independently with probability 2^(n-1) / (2^n - 1); the result
    is one minus the chance that all rounds miss.  A zero-weight pattern is
    never detected.

    Raises:
        ValueError: If a count is not an integer or is out of range.
    """
    _check_count("key_length", key_length, 1)
    _check_count("error_weight", error_weight, 0)
    _check_count("rounds", rounds, 1)
    if error_weight > key_length:
        raise ValueError(f"error_weight must lie in [0, {key_length}], got {error_weight}")
    if error_weight == 0:
        return 0.0
    n = int(key_length)  # 2**n would wrap in a numpy integer
    per_round = 2 ** (n - 1) / (2**n - 1)
    return 1.0 - (1.0 - per_round) ** rounds
