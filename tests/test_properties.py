"""Cross-module invariants over randomized networks and runs."""

from __future__ import annotations

from dataclasses import replace

import pytest

from fcnsim import (
    Engine,
    EventKind,
    StandardClockSpec,
    build_timeline,
    clock_pulses,
    label_absorptions,
    resolution_report,
    wavelength_of,
)
from helpers import (
    check_causality,
    check_conservation,
    check_decay_once,
    check_decay_provenance,
    check_parent_order,
    random_run,
    reference_resolution,
    reference_violations,
)

CASES = range(40)


@pytest.mark.parametrize("case_seed", CASES)
def test_decay_once_and_provenance(case_seed):
    """An excitation decays at most once, and always traces back to an injection."""
    _, _, _, trace = random_run(case_seed)
    assert check_decay_once(trace) == []
    assert check_decay_provenance(trace) == []


@pytest.mark.parametrize("case_seed", CASES)
def test_causality_and_conservation(case_seed):
    network, _, _, trace = random_run(case_seed)
    assert check_causality(trace, network) == []
    assert check_conservation(trace) == []
    assert check_parent_order(trace) == []


@pytest.mark.parametrize("case_seed", CASES)
def test_trace_total_order(case_seed):
    _, _, _, trace = random_run(case_seed)
    assert [e.id for e in trace] == list(range(len(trace)))
    times = [e.engine_time for e in trace]
    assert times == sorted(times)


@pytest.mark.parametrize("case_seed", range(12))
def test_traces_are_a_pure_function_of_inputs(case_seed):
    network, injections, config, trace = random_run(case_seed)
    rerun = Engine(network, config, injections).run()
    assert rerun == trace


@pytest.mark.parametrize("case_seed", CASES)
def test_signal_wavelengths_match_energies(case_seed):
    _, _, _, trace = random_run(case_seed)
    for event in trace:
        if event.kind is EventKind.EMISSION:
            expected = wavelength_of(event.payload["energy_ev"])
            assert abs(event.payload["wavelength_nm"] - expected) <= 1e-9 * expected


@pytest.mark.parametrize("case_seed", CASES)
def test_entropy_rows_match_decays(case_seed):
    """Decay payloads carry a closed, rate-consistent entropy row."""
    _, _, _, trace = random_run(case_seed)
    for event in trace:
        if event.kind is not EventKind.DECAY:
            continue
        total = (
            event.payload["ds_internal"] + event.payload["ds_signal"] + event.payload["ds_vacuum"]
        )
        assert event.payload["total"] == total
        assert event.payload["lifetime_s"] > 0
        assert event.payload["production_rate"] * event.payload["lifetime_s"] == pytest.approx(
            total, rel=1e-9, abs=1e-30
        )


def _observer_clock(network):
    """The network's clock, or a synthetic one when none was generated.

    Pairing is pure post-processing, so any pulse history labels a trace;
    a fallback clock keeps every random case exercising the chronology.
    """
    if network.clocks:
        return network.clocks[0]
    return StandardClockSpec(id=network.nodes[0].id, period_s=0.25)


def _timeline_for(trace, network, period_scale=1.0):
    clock = _observer_clock(network)
    if period_scale != 1.0:
        clock = replace(clock, period_s=clock.period_s * period_scale)
    horizon = max((e.engine_time for e in trace), default=0.0)
    pulses = clock_pulses(clock, until_s=horizon)
    labels, _ = label_absorptions(trace, clock, pulses)
    return build_timeline(labels, trace, observer=clock.id)


@pytest.mark.parametrize("case_seed", CASES)
def test_labels_embed_causal_order(case_seed):
    """Per observer, ancestors never get a label after their descendants."""
    network, _, _, trace = random_run(case_seed)
    _, violations = _timeline_for(trace, network)
    assert violations == ()


@pytest.mark.parametrize("case_seed", CASES)
def test_chronology_matches_reference(case_seed):
    """The bitset ancestry pass agrees with the set-based reference."""
    network, _, _, trace = random_run(case_seed)
    for period_scale in (1.0, 0.5):
        timeline, violations = _timeline_for(trace, network, period_scale)
        assert violations == reference_violations(timeline, trace)
        assert resolution_report(timeline, trace) == reference_resolution(timeline, trace)


@pytest.mark.parametrize("case_seed", CASES)
def test_halving_period_never_coarsens(case_seed):
    network, _, _, trace = random_run(case_seed)
    coarse_tl, _ = _timeline_for(trace, network, period_scale=1.0)
    fine_tl, _ = _timeline_for(trace, network, period_scale=0.5)
    coarse = resolution_report(coarse_tl, trace)
    fine = resolution_report(fine_tl, trace)
    assert fine.indistinguishable_pairs <= coarse.indistinguishable_pairs


@pytest.mark.parametrize("case_seed", CASES)
def test_refinement_preserves_distinct_order(case_seed):
    """Halving the period only splits ties; it never reorders distinct labels."""
    network, _, _, trace = random_run(case_seed)
    coarse_tl, _ = _timeline_for(trace, network, period_scale=1.0)
    fine_tl, _ = _timeline_for(trace, network, period_scale=0.5)
    fine_times = {lb.event: lb.time_number_s for lb in fine_tl.entries}
    entries = [lb for lb in coarse_tl.entries if lb.event in fine_times]
    for a in entries:
        for b in entries:
            if a.time_number_s < b.time_number_s:
                assert fine_times[a.event] < fine_times[b.event]


@pytest.mark.parametrize("case_seed", CASES)
def test_label_monotone_in_engine_time_per_detector(case_seed):
    network, _, _, trace = random_run(case_seed)
    timeline, _ = _timeline_for(trace, network)
    by_event = {e.id: e for e in trace}
    per_node: dict[int, list] = {}
    for label in timeline.entries:
        per_node.setdefault(by_event[label.event].node, []).append(label)
    for labels in per_node.values():
        labels.sort(key=lambda lb: by_event[lb.event].engine_time)
        for prev, cur in zip(labels, labels[1:]):
            assert prev.time_number_s <= cur.time_number_s
