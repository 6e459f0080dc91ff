"""Entropy decomposition, the rate-path lifetime identity, and the ledger."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from fcnsim import (
    DuplicateEvent,
    EntropyBreakdown,
    EntropyLedger,
    EntropyModel,
    NonPositiveEnergy,
    breakdown_for_decay,
    entropy_lifetime,
    lifetime,
)
from fcnsim.constants import CONSTANTS

KB = CONSTANTS.k_b_ev_per_k
T_SRC = 300.0
# Energy whose internal entropy term is exactly -1 k_B at 300 K.
UNIT_DELTA_E = KB * T_SRC


class TestBreakdown:
    def test_stated_decomposition(self):
        model = EntropyModel(source_temperature_k=T_SRC, environment_temperature_k=T_SRC / 1.2,
                             vacuum_term_kb=0.3)
        b = breakdown_for_decay(UNIT_DELTA_E, model)
        assert b.ds_internal == pytest.approx(-1.0, rel=1e-12)
        assert b.ds_signal == pytest.approx(1.2, rel=1e-12)
        assert b.ds_vacuum == 0.3
        assert b.total() == pytest.approx(0.5, rel=1e-9)

    def test_reversible_limit_is_exact_zero(self):
        model = EntropyModel(source_temperature_k=T_SRC, environment_temperature_k=T_SRC,
                             vacuum_term_kb=0.0)
        assert breakdown_for_decay(UNIT_DELTA_E, model).total() == 0.0

    def test_hotter_environment_violates_second_law(self):
        model = EntropyModel(source_temperature_k=300.0, environment_temperature_k=600.0,
                             vacuum_term_kb=0.0)
        b = breakdown_for_decay(1.5, model)
        assert b.total() < 0
        assert not b.is_admissible

    @pytest.mark.parametrize("bad", [0.0, -1.5])
    def test_non_positive_energy(self, bad):
        with pytest.raises(NonPositiveEnergy):
            breakdown_for_decay(bad, EntropyModel())

    def test_total_is_the_component_sum(self):
        b = EntropyBreakdown(ds_internal=-0.25, ds_signal=0.5, ds_vacuum=0.125)
        assert b.total() == -0.25 + 0.5 + 0.125

    def test_components_must_be_finite(self):
        with pytest.raises(ValueError):
            EntropyBreakdown(ds_internal=float("-inf"), ds_signal=0.0, ds_vacuum=0.0)
        with pytest.raises(ValueError):
            breakdown_for_decay(float("inf"), EntropyModel())
        with pytest.raises(ValueError, match="vacuum term must be finite, got nan"):
            EntropyModel(vacuum_term_kb=float("nan"))

    @pytest.mark.parametrize("t_src,t_env", [(0.0, 1.0), (1.0, -3.0)])
    def test_temperatures_must_be_positive(self, t_src, t_env):
        with pytest.raises(ValueError):
            EntropyModel(source_temperature_k=t_src, environment_temperature_k=t_env)


class TestEntropyLifetime:
    def test_one_second(self):
        b = EntropyBreakdown(-1.0, 1.2, 0.3)
        result = entropy_lifetime(b, 6.582119569e-16)
        assert result.seconds == pytest.approx(1.0, rel=1e-9)
        assert not result.zero_entropy_change

    def test_one_nanosecond(self):
        b = EntropyBreakdown(-0.5, 1.0, 0.0)
        assert entropy_lifetime(b, 6.582119569e-7).seconds == pytest.approx(1.0e-9, rel=1e-9)

    def test_zero_total_falls_back_with_diagnostic(self):
        b = EntropyBreakdown(-1.0, 1.0, 0.0)
        assert b.total() == 0.0
        result = entropy_lifetime(b, 6.582119569e-16)
        assert result.zero_entropy_change
        assert result.seconds == pytest.approx(1.0, rel=1e-9)

    @given(
        st.floats(min_value=1e-20, max_value=1.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    )
    # Totals whose rate underflows: to zero (once ZeroDivisionError), and
    # to a subnormal (once off the lifetime by 2e-12 relative).
    @example(1e-20, 1.0, 1.0, 5e-324, 1.0)
    @example(1e-20, 1.0, 1.0, 2.225073858507e-311, 1.0)
    def test_rate_path_matches_decay_lifetime(self, gamma, t_src, t_env, vacuum, delta_e):
        """The duration recovered through the production rate is the lifetime."""
        model = EntropyModel(source_temperature_k=t_src, environment_temperature_k=t_env,
                             vacuum_term_kb=vacuum)
        b = breakdown_for_decay(delta_e, model)
        assert entropy_lifetime(b, gamma).seconds == pytest.approx(lifetime(gamma), rel=1e-9)


class TestLedger:
    def test_first_record_holds_invariant(self):
        ledger = EntropyLedger()
        entry = ledger.record_decay(1, 1.5, 6.582119569e-16, EntropyModel())
        assert entry.lifetime_s == pytest.approx(1.0, rel=1e-12)
        assert entry.production_rate_kb_per_s * entry.lifetime_s == pytest.approx(
            entry.breakdown.total(), rel=1e-9
        )

    def test_duplicate_event_rejected(self):
        ledger = EntropyLedger()
        ledger.record_decay(1, 1.5, 1e-16, EntropyModel())
        with pytest.raises(DuplicateEvent):
            ledger.record_decay(1, 2.0, 1e-16, EntropyModel())

    def test_snapshots_are_immutable(self):
        ledger = EntropyLedger()
        ledger.record_decay(1, 1.5, 1e-16, EntropyModel())
        before = ledger.entries()
        ledger.record_decay(2, 1.5, 1e-16, EntropyModel())
        assert len(before) == 1
        assert len(ledger.entries()) == 2
        assert ledger.entries()[0] == before[0]

    def test_default_model_never_violates(self):
        ledger = EntropyLedger()
        for i, delta_e in enumerate((0.1, 1.5, 10.2, 0.01)):
            ledger.record_decay(i, delta_e, 1e-16, EntropyModel())
        assert ledger.violation_count() == 0

    def test_violations_recorded_not_rejected(self):
        hot_env = EntropyModel(source_temperature_k=300.0, environment_temperature_k=900.0)
        ledger = EntropyLedger()
        ledger.record_decay(1, 1.5, 1e-16, hot_env)
        assert ledger.violation_count() == 1
        assert len(ledger) == 1

    def test_lookup(self):
        ledger = EntropyLedger()
        entry = ledger.record_decay(5, 1.5, 1e-16, EntropyModel())
        assert ledger.get(5) == entry
        assert ledger.get(6) is None
