"""Cross-module invariants over randomized networks and runs."""

from __future__ import annotations

import pytest

from fcnsim import (
    Engine,
    EventKind,
    RunConfig,
    StandardClockSpec,
    TraceIndex,
    build_timeline,
    clock_pulses,
    label_absorptions,
    pulses_from_trace,
    resolution_report,
    wavelength_of,
    write_trace,
)
from fcnsim.cli import main
from helpers import (
    broadcast_network,
    check_causality,
    check_conservation,
    check_decay_once,
    check_decay_provenance,
    check_parent_order,
    four_clock_network,
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
        clock = clock._replace(period_s=clock.period_s * period_scale)
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


def _four_clock_run():
    network, injections = four_clock_network()
    return network, Engine(network, RunConfig(run_until_s=4.0), injections).run()


def _broadcast_run():
    network, injections = broadcast_network()
    return network, Engine(network, RunConfig(run_until_s=2.0), injections).run()


def _run(case):
    if case == "four-clocks":
        return _four_clock_run()
    if case == "broadcast":
        return _broadcast_run()
    network, _, _, trace = random_run(case)
    return network, trace


RUNS = [*CASES, "four-clocks", "broadcast"]


@pytest.mark.parametrize("case", RUNS)
def test_trace_index_matches_reference(case):
    """Each clock's pulses, labels and single ancestry pass from one index
    equal the per-clock functions and the set-based reference, for the
    recorded pulses and for a synthetic clock at half the period."""
    network, trace = _run(case)
    index = TraceIndex(trace)
    assert index.clocks == sorted({e.node for e in trace if e.kind is EventKind.CLOCK_TICK})
    horizon = max((e.engine_time for e in trace), default=0.0)
    for clock_id in index.clocks:
        pulses = index.pulses(clock_id)
        assert pulses == pulses_from_trace(trace, clock_id)
        declared = network.clock_by_node[clock_id]
        half = declared._replace(period_s=declared.period_s / 2)
        for spec, spec_pulses in ((declared, pulses), (half, clock_pulses(half, until_s=horizon))):
            labels, skipped = index.label(spec_pulses)
            assert (labels, skipped) == label_absorptions(trace, spec, spec_pulses)
            timeline, violations, resolution = index.check(labels, observer=clock_id)
            assert (timeline, violations) == build_timeline(labels, trace, observer=clock_id)
            assert resolution == resolution_report(timeline, trace)
            assert violations == reference_violations(timeline, trace)
            assert resolution == reference_resolution(timeline, trace)


@pytest.mark.parametrize("case", RUNS)
def test_streamed_index_matches_index_of_trace(case):
    """An index built from a one-pass iterator equals one built from the
    trace: the same absorptions, clocks, pulses, labels, timelines,
    violations and resolution, for the recorded pulses and at half the period."""
    network, trace = _run(case)
    index, streamed = TraceIndex(trace), TraceIndex(iter(trace))
    assert streamed.absorptions == index.absorptions
    assert streamed.clocks == index.clocks
    horizon = max((e.engine_time for e in trace), default=0.0)
    for clock_id in index.clocks:
        pulses = index.pulses(clock_id)
        assert streamed.pulses(clock_id) == pulses
        declared = network.clock_by_node[clock_id]
        half = declared._replace(period_s=declared.period_s / 2)
        for spec_pulses in (pulses, clock_pulses(half, until_s=horizon)):
            labels, skipped = index.label(spec_pulses)
            assert streamed.label(spec_pulses) == (labels, skipped)
            assert streamed.check(labels, observer=clock_id) == index.check(labels, observer=clock_id)


@pytest.mark.parametrize("case", RUNS)
def test_recorded_pulses_never_invert_causal_order(case):
    """Labels taken from a trace's own pulses never invert causal order:
    the floor label is monotone in engine_time, and engine_time never
    decreases along a parent edge."""
    _, trace = _run(case)
    index = TraceIndex(trace)
    for clock_id in index.clocks:
        labels, _ = index.label(index.pulses(clock_id))
        assert index.check(labels)[1] == ()


@pytest.mark.parametrize("case", RUNS)
def test_report_lines_match_reference(case, tmp_path, capsys):
    """``report`` prints, per clock, what the per-clock functions and the
    reference compute from the trace's own pulses, with the spacing of the
    first two pulses as the period."""
    network, trace = _run(case)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    assert main(["report", str(path)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("clock ")]
    expected = []
    for clock_id in sorted({e.node for e in trace if e.kind is EventKind.CLOCK_TICK}):
        pulses = pulses_from_trace(trace, clock_id)
        period = pulses[1].engine_time - pulses[0].engine_time if len(pulses) > 1 else 1.0
        labels, skipped = label_absorptions(trace, network.clock_by_node[clock_id])
        timeline, violations = build_timeline(labels, trace, observer=clock_id)
        resolution = resolution_report(timeline, trace)
        assert violations == reference_violations(timeline, trace)
        assert resolution == reference_resolution(timeline, trace)
        expected.append(
            f"clock {clock_id} (period {period}): {len(labels)} labels, "
            f"{skipped} skipped, {len(violations)} causal violations, "
            f"{resolution.indistinguishable_pairs} indistinguishable pairs"
        )
    assert printed == expected


def test_four_clock_network_exercises_the_report():
    """The multi-clock case is not vacuous: four clocks, skips and ties."""
    _, trace = _four_clock_run()
    index = TraceIndex(trace)
    assert index.clocks == [2, 3, 5, 8]
    counts = []
    for clock_id in index.clocks:
        labels, skipped = index.label(index.pulses(clock_id))
        _, _, resolution = index.check(labels)
        counts.append((len(labels), skipped, resolution.indistinguishable_pairs))
    assert counts == [(33, 9, 18), (42, 0, 14), (42, 0, 3), (42, 0, 0)]


@pytest.mark.parametrize("case", RUNS)
def test_index_keeps_the_descendants_of_absorptions(case):
    """The ancestry pass of each clock walks exactly the events with an
    absorption among their ancestors, in id order: no other event can
    carry a labeled ancestor."""
    _, trace = _run(case)
    absorptions = {e.id for e in trace if e.kind is EventKind.ABSORPTION}
    descends: set[int] = set()
    for event in trace:
        if any(p in absorptions or p in descends for p in event.parents):
            descends.add(event.id)
    assert [e.id for e in TraceIndex(trace)._steps] == sorted(descends)


def test_broadcast_network_exercises_the_index():
    """The broadcast case is not vacuous: three clocks label every
    absorption, and the index keeps only the few decays of absorptions."""
    _, trace = _broadcast_run()
    index = TraceIndex(trace)
    assert index.clocks == [3, 11, 26]
    steps = index._steps
    assert len(trace) == 890 and len(steps) == 27
    assert {e.kind for e in steps} == {EventKind.DECAY}
    for clock_id in index.clocks:
        labels, skipped = index.label(index.pulses(clock_id))
        assert (len(labels), skipped) == (50, 0)
