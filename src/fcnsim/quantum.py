"""Two-level node energetics: resonance, decay lifetimes, state transitions.

A node is a two-level system. In its excited configuration it is an
unstable emitter destined to decay; in its ground configuration it is a
detector that a resonant signal can re-excite. The decay rate ``gamma``
is an energy-valued quantity; dividing the reduced Planck constant by it
yields the configuration's lifetime. A node's state is the id of the
excitation it holds, or None in its ground state. All types here are
immutable value objects, and every operation is a pure function except
that ``absorb`` takes the next id from the iterator it is given.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import Iterator

from .constants import CONSTANTS, Checked
from .errors import DegenerateLevels, NonPositiveEnergy, StableConfiguration


class EnergyLevel(Checked, namedtuple("EnergyLevel", "label energy_ev")):
    """One configuration level of a node, energy in eV."""

    __slots__ = ()

    def __new__(cls, label: str, energy_ev: float) -> EnergyLevel:
        if not (energy_ev >= 0 and math.isfinite(energy_ev)):
            raise ValueError(f"level {label!r}: energy must be finite and >= 0, got {energy_ev}")
        return tuple.__new__(cls, (label, energy_ev))


# A positive float in this range is finite and normal: no infinity, no subnormal.
_NORMAL_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max


class TwoLevelSpec(Checked, namedtuple("TwoLevelSpec", "ground excited gamma_ev")):
    """Ground/excited level pair plus the decay rate of the excited state.

    ``gamma_ev`` is the energy-valued rate whose Planck division gives the
    excited state's lifetime. ``None`` marks a permanently stable node that
    can hold an excitation forever and never schedules a decay. The
    lifetime and the wavelength of the signal the gap carries must be
    finite normal floats: a run writes both into its trace, whose writer
    refuses an infinity, and a subnormal lifetime makes the decay's
    production rate infinite.
    """

    __slots__ = ()

    def __new__(cls, ground: EnergyLevel, excited: EnergyLevel, gamma_ev: float | None = None) -> TwoLevelSpec:
        if not excited.energy_ev > ground.energy_ev:
            raise DegenerateLevels(
                f"excited level ({excited.energy_ev} eV) must sit strictly above "
                f"ground ({ground.energy_ev} eV)"
            )
        if gamma_ev is not None and not (gamma_ev > 0 and math.isfinite(gamma_ev)):
            raise StableConfiguration(
                f"gamma must be finite and > 0 when present, got {gamma_ev}; "
                f"use None for a stable node"
            )
        if gamma_ev is not None and not _NORMAL_MIN <= (tau := lifetime(gamma_ev)) <= _FLOAT_MAX:
            raise ValueError(f"gamma_ev {gamma_ev} gives a lifetime of {tau} s, not a finite normal float")
        gap = excited.energy_ev - ground.energy_ev
        if not _NORMAL_MIN <= (wavelength := wavelength_of(gap)) <= _FLOAT_MAX:
            raise ValueError(
                f"excited_ev - ground_ev = {gap} eV gives a wavelength of {wavelength} nm, not a finite normal float"
            )
        return tuple.__new__(cls, (ground, excited, gamma_ev))


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
    excitation: int | None,
    gap_ev: float,
    signal_energy_ev: float,
    tolerance_ev: float,
    ids: Iterator[int],
) -> int | None:
    """Attempt resonant absorption; return the new excitation id or None.

    A node's state is the id of the excitation it holds, or None in its
    ground state. Absorption happens only in the ground state and when the
    incoming energy matches the level gap ``gap_ev`` (``signal_energy`` of
    the node's spec) within ``tolerance_ev``; it takes the next id from
    ``ids``, so ids are never reused. Every other case is a pass-through
    (None): the signal is unchanged and keeps going, the node state is
    unchanged, and no id is taken. An occupied node cannot hold a second
    excitation, and off-resonance signals do not couple.
    """
    if tolerance_ev < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance_ev}")
    if excitation is not None:
        return None
    # Written so a NaN energy compares as off-resonance, not as a match.
    if not abs(signal_energy_ev - gap_ev) <= tolerance_ev:
        return None
    return next(ids)

