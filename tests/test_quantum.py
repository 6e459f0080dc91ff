"""Two-level energetics: resonance, lifetimes, and what a spec refuses.

The decay-once rule and energy conservation on decay are trace invariants:
``tests/test_verify.py`` plants a defect in each.
"""

from __future__ import annotations

import itertools
import sys

import pytest
from hypothesis import given, strategies as st

from fcnsim import (
    DegenerateLevels,
    EnergyLevel,
    NonPositiveEnergy,
    StableConfiguration,
    TwoLevelSpec,
    absorb,
    lifetime,
    signal_energy,
    wavelength_of,
)
from fcnsim.constants import CONSTANTS
from helpers import two_level

HBAR = CONSTANTS.hbar_ev_s

gammas = st.floats(min_value=1e-20, max_value=1.0, allow_nan=False, allow_infinity=False)


class TestSignalEnergy:
    def test_gap(self):
        spec = TwoLevelSpec(EnergyLevel("g", 0.5), EnergyLevel("e", 2.0))
        assert signal_energy(spec) == 1.5

    def test_gap_from_zero_ground(self):
        spec = TwoLevelSpec(EnergyLevel("g", 0.0), EnergyLevel("e", 10.2))
        assert signal_energy(spec) == 10.2

    def test_degenerate_levels_rejected(self):
        with pytest.raises(DegenerateLevels):
            TwoLevelSpec(EnergyLevel("g", 1.0), EnergyLevel("e", 1.0))

    def test_inverted_levels_rejected(self):
        with pytest.raises(DegenerateLevels):
            TwoLevelSpec(EnergyLevel("g", 2.0), EnergyLevel("e", 1.0))

    def test_negative_level_energy_rejected(self):
        with pytest.raises(ValueError):
            EnergyLevel("g", -0.1)


class TestWavelength:
    def test_1000_nm(self):
        assert wavelength_of(1.239841984) == pytest.approx(1000.0, rel=1e-6)

    def test_500_nm(self):
        assert wavelength_of(2.479683968) == pytest.approx(500.0, rel=1e-6)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_energy(self, bad):
        with pytest.raises(NonPositiveEnergy):
            wavelength_of(bad)


class TestDerivedValues:
    """A spec's gamma must be > 0 and its lifetime a finite normal float (the
    network reader's tests cover a 1e300 gamma and an infinite wavelength)."""

    def test_largest_gamma_gives_a_subnormal_lifetime(self):
        with pytest.raises(ValueError, match=r"^gamma_ev 1\.7976931348623157e\+308 gives a lifetime of 5e-324 s"):
            two_level(1.5, sys.float_info.max)

    def test_smallest_normal_lifetime_accepted(self):
        gamma = HBAR / sys.float_info.min
        assert lifetime(two_level(1.5, gamma).gamma_ev) >= sys.float_info.min

    def test_gamma_zero_is_not_a_valid_spec(self):
        with pytest.raises(StableConfiguration):
            two_level(1.5, gamma=0.0)


class TestLifetime:
    def test_one_second(self):
        assert lifetime(6.582119569e-16) == pytest.approx(1.0, rel=1e-12)

    def test_one_nanosecond(self):
        assert lifetime(6.582119569e-7) == pytest.approx(1.0e-9, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1e-6, None])
    def test_stable_configuration(self, bad):
        with pytest.raises(StableConfiguration):
            lifetime(bad)

    @given(gammas)
    def test_round_trip(self, gamma):
        """lifetime(gamma) * gamma recovers the Planck constant."""
        assert lifetime(gamma) * gamma == pytest.approx(HBAR, rel=1e-12)

    @given(gammas, gammas)
    def test_monotone_decreasing(self, g1, g2):
        if g1 == g2:
            return
        lo, hi = sorted((g1, g2))
        assert lifetime(lo) > lifetime(hi)


class TestAbsorb:
    def test_resonant_absorption(self):
        ids = itertools.count()
        out = absorb(None, signal_energy(two_level(1.5)), 1.5, 1e-9, ids)
        assert out == 0

    def test_off_resonance_passes_through(self):
        ids = itertools.count()
        out = absorb(None, signal_energy(two_level(1.5)), 1.6, 1e-3, ids)
        assert out is None

    def test_occupied_node_passes_through(self):
        ids = itertools.count()
        excited = next(ids)
        assert absorb(excited, signal_energy(two_level(1.5)), 1.5, 1e-9, ids) is None

    def test_within_tolerance_absorbs(self):
        ids = itertools.count()
        out = absorb(None, signal_energy(two_level(1.5)), 1.5 + 5e-7, 1e-6, ids)
        assert out is not None

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            absorb(None, signal_energy(two_level(1.5)), 1.5, -1e-9, itertools.count())

    def test_nan_energy_passes_through(self):
        out = absorb(None, signal_energy(two_level(1.5)), float("nan"), 1e-3, itertools.count())
        assert out is None

    def test_fresh_ids_unique(self):
        ids = itertools.count()
        gap = signal_energy(two_level(1.5))
        seen = set()
        for _ in range(10):
            out = absorb(None, gap, 1.5, 1e-9, ids)
            assert out not in seen
            seen.add(out)

    def test_passthrough_mints_no_id(self):
        ids = itertools.count()
        gap = signal_energy(two_level(1.5))
        absorb(None, gap, 9.9, 1e-9, ids)
        out = absorb(None, gap, 1.5, 1e-9, ids)
        assert out == 0

