"""Physical constants in the simulator's working units.

Energies are in eV, durations in seconds, wavelengths in nm, distances
in m, temperatures in K. CODATA 2018 values.

Value types throughout fcnsim are immutable NamedTuples; those whose
fields have invariants also derive from ``Checked``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Iterable


class Checked:
    """Base of a NamedTuple whose ``__new__`` checks its fields: ``_make``,
    and so ``_replace``, call the constructor instead of filling the tuple."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields: Iterable[Any]) -> Any:
        return cls(*fields)


# Fixed conversion factors; ``CONSTANTS`` is the one instance fcnsim reads.
PhysicalConstants = namedtuple("PhysicalConstants", "hbar_ev_s hc_ev_nm c_m_per_s k_b_ev_per_k")

CONSTANTS = PhysicalConstants(hbar_ev_s=6.582119569e-16, hc_ev_nm=1239.841984, c_m_per_s=2.99792458e8,
                              k_b_ev_per_k=8.617333262e-5)
