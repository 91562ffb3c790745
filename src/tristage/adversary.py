"""Channel interference: eavesdropping and noise between transmissions.

Everything that can happen to a state in flight is collected in a
`ChannelContext`: an optional intercept-resend eavesdropper followed by
optional per-qubit bit-flip noise.  `transmit` pushes one state through the
context for a named stage and reports the eavesdropper's measurement record
when she intercepted.

The eavesdropper measures every qubit in the computational basis by default.
A pre-rotation unitary generalizes the attack basis: she rotates the
intercepted state, measures, re-prepares the observed basis state, and
un-rotates before forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qcore import Outcome, StateVector, UnitaryOperator, adjoint, apply, measure


class StageLabel(Enum):
    """The three transmissions of one protocol run, in order.

    Members are singletons that compare by identity, so they hash by
    identity too, in C, where Enum's own hash hashes the name in Python."""

    ALICE_TO_BOB_1 = 1
    BOB_TO_ALICE_2 = 2
    ALICE_TO_BOB_3 = 3

    __hash__ = object.__hash__

    @property
    def number(self) -> int:
        return self.value


#: The stages in transmission order.
STAGES: tuple[StageLabel, ...] = tuple(StageLabel)


@dataclass(frozen=True)
class EveStrategy:
    """Intercept-resend attack plan.

    Args:
        stages: Non-empty set of `StageLabel` values to intercept; any
            other value raises ValueError.
        pre_rotation: Optional `UnitaryOperator` defining the measurement
            basis; None means the computational basis.  Anything else
            raises ValueError.
    """

    stages: frozenset
    pre_rotation: UnitaryOperator | None = None

    def __post_init__(self):
        object.__setattr__(self, "stages", frozenset(self.stages))
        if not self.stages:
            raise ValueError("an eavesdropping strategy needs at least one stage")
        for stage in self.stages:
            if not isinstance(stage, StageLabel):
                raise ValueError(f"stage {stage!r} is not a StageLabel")
        if not isinstance(self.pre_rotation, (UnitaryOperator, type(None))):
            raise ValueError("pre_rotation must be a UnitaryOperator or None, "
                             f"got {type(self.pre_rotation).__name__}")

    def attacks(self, stage: StageLabel) -> bool:
        return stage in self.stages


@dataclass(frozen=True)
class NoiseModel:
    """Independent bit flip on each qubit of each transmission, with a
    probability that is an int or float (numpy's too, bool excluded) in [0, 1]."""

    bit_flip_probability: float

    def __post_init__(self):
        p = self.bit_flip_probability
        real = isinstance(p, (int, float, np.integer, np.floating)) and not isinstance(p, bool)
        if not (real and 0.0 <= p <= 1.0):
            raise ValueError(f"bit flip probability must be a number in [0, 1], got {p!r}")


@dataclass(frozen=True)
class ChannelContext:
    """What the channel does to a state: optional Eve, then optional noise."""

    eve: EveStrategy | None = None
    noise: NoiseModel | None = None


def transmit(
    stage: StageLabel,
    psi: StateVector,
    ctx: ChannelContext,
    rng: np.random.Generator,
) -> tuple[StateVector, Outcome | None]:
    """Send a state through the channel for one stage.

    If the eavesdropper intercepts this stage she applies her pre-rotation
    (when set), measures every qubit, re-prepares the collapsed basis state,
    and applies the adjoint rotation before forwarding.  Noise then flips
    each qubit independently with the configured probability.

    Args:
        stage: Which transmission this is; decides whether Eve intercepts.
        psi: The state as it left the sender.
        ctx: Channel configuration.
        rng: Random stream driving Eve's collapse and the noise flips.

    Returns:
        The delivered state and Eve's measurement record (None when she did
        not intercept this stage).

    Raises:
        ValueError: If the pre-rotation dimension does not match the state.
    """
    record = None
    if ctx.eve is not None and stage in ctx.eve.stages:
        rotation = ctx.eve.pre_rotation
        if rotation is not None:
            if rotation.dim != psi.dim:
                raise ValueError(
                    f"pre-rotation dim {rotation.dim} does not match state dim {psi.dim}"
                )
            record, collapsed = measure(apply(rotation, psi), rng)
            psi = apply(adjoint(rotation), collapsed)
        else:
            record, psi = measure(psi, rng)
    if ctx.noise is not None:
        n = psi.num_qubits
        for qubit in range(n):
            if rng.random() < ctx.noise.bit_flip_probability:
                flipped = np.arange(psi.dim) ^ (1 << (n - 1 - qubit))
                psi = StateVector(n, psi.amplitudes[flipped])
    return psi, record
