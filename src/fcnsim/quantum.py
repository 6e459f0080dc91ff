"""Two-level node energetics: resonance, decay lifetimes, state transitions.

A node is a two-level system. In its excited configuration it is an
unstable emitter destined to decay; in its ground configuration it is a
detector that a resonant signal can re-excite. The decay rate ``gamma``
is an energy-valued quantity; dividing the reduced Planck constant by it
yields the configuration's lifetime. All types here are immutable value
objects and all operations are pure functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .constants import CONSTANTS
from .errors import DegenerateLevels, NonPositiveEnergy, NotExcited, StableConfiguration


@dataclass(frozen=True)
class EnergyLevel:
    """One configuration level of a node, energy in eV."""

    label: str
    energy_ev: float

    def __post_init__(self) -> None:
        if not (self.energy_ev >= 0 and math.isfinite(self.energy_ev)):
            raise ValueError(f"level {self.label!r}: energy must be finite and >= 0, got {self.energy_ev}")


@dataclass(frozen=True)
class TwoLevelSpec:
    """Ground/excited level pair plus the decay rate of the excited state.

    ``gamma_ev`` is the energy-valued rate whose Planck division gives the
    excited state's lifetime. ``None`` marks a permanently stable node that
    can hold an excitation forever and never schedules a decay.
    """

    ground: EnergyLevel
    excited: EnergyLevel
    gamma_ev: float | None = None

    def __post_init__(self) -> None:
        if not self.excited.energy_ev > self.ground.energy_ev:
            raise DegenerateLevels(
                f"excited level ({self.excited.energy_ev} eV) must sit strictly above "
                f"ground ({self.ground.energy_ev} eV)"
            )
        if self.gamma_ev is not None and not (self.gamma_ev > 0 and math.isfinite(self.gamma_ev)):
            raise StableConfiguration(
                f"gamma must be finite and > 0 when present, got {self.gamma_ev}; "
                f"use None for a stable node"
            )

    @property
    def can_decay(self) -> bool:
        return self.gamma_ev is not None


@dataclass(frozen=True)
class ConfigurationState:
    """Ground, or excited tagged with the excitation instance that created it.

    Excitation ids are never reused: each absorption mints a fresh one, and
    a decay retires it for good. Holding the id on the state is what makes
    the decay-once rule checkable after the fact.
    """

    excitation_id: int | None = None

    @classmethod
    def in_ground(cls) -> "ConfigurationState":
        return cls(None)

    @classmethod
    def in_excited(cls, excitation_id: int) -> "ConfigurationState":
        return cls(excitation_id)

    @property
    def is_excited(self) -> bool:
        return self.excitation_id is not None

    @property
    def is_ground(self) -> bool:
        return self.excitation_id is None


class ExcitationIds:
    """Monotone allocator for excitation instance ids, one per engine run.

    Engine-scoped rather than process-global so identical runs label their
    excitations identically.
    """

    def __init__(self) -> None:
        self._counter = itertools.count()

    def fresh(self) -> int:
        return next(self._counter)


def signal_energy(spec: TwoLevelSpec) -> float:
    """Energy (eV) of the signal bridging the node's two levels."""
    return spec.excited.energy_ev - spec.ground.energy_ev


def wavelength_of(delta_e_ev: float) -> float:
    """Wavelength in nm of a signal with the given energy.

    Raises NonPositiveEnergy for delta_e_ev <= 0.
    """
    if not delta_e_ev > 0:
        raise NonPositiveEnergy(f"signal energy must be > 0 eV, got {delta_e_ev}")
    return CONSTANTS.hc_ev_nm / delta_e_ev


def lifetime(gamma_ev: float | None) -> float:
    """Lifetime in seconds of an excited state with decay rate ``gamma_ev``.

    Strictly decreasing in gamma. Raises StableConfiguration when gamma is
    absent or not positive: a node without a decay channel never decays.
    """
    if gamma_ev is None or not gamma_ev > 0:
        raise StableConfiguration(f"no decay channel (gamma={gamma_ev})")
    return CONSTANTS.hbar_ev_s / gamma_ev


def absorb(
    state: ConfigurationState,
    spec: TwoLevelSpec,
    signal_energy_ev: float,
    tolerance_ev: float,
    ids: ExcitationIds,
) -> ConfigurationState | None:
    """Attempt resonant absorption; return the excited state or None.

    Absorption happens only when the node is in its ground state and the
    incoming energy matches the level gap within ``tolerance_ev``. Every
    other case is a pass-through (None): the signal is unchanged and keeps
    going, and the node state is unchanged. An occupied node cannot hold a
    second excitation, and off-resonance signals do not couple.
    """
    if tolerance_ev < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance_ev}")
    if state.is_excited:
        return None
    # Written so a NaN energy compares as off-resonance, not as a match.
    if not abs(signal_energy_ev - signal_energy(spec)) <= tolerance_ev:
        return None
    return ConfigurationState.in_excited(ids.fresh())


def decay(state: ConfigurationState, spec: TwoLevelSpec) -> tuple[ConfigurationState, float]:
    """Irreversibly decay an excited state.

    Returns the ground state and the emitted signal energy (the full level
    gap). The excitation id carried by ``state`` is retired: the returned
    ground state cannot decay again, and no later state may reuse the id.
    Raises NotExcited when called on a ground state.
    """
    if not state.is_excited:
        raise NotExcited("cannot decay a ground-state node")
    return ConfigurationState.in_ground(), signal_energy(spec)
