"""Cross-module invariants over randomized networks and runs."""

from __future__ import annotations

import pytest

from fcnsim import (
    Engine,
    EventKind,
    RunConfig,
    SimEvent,
    StandardClockSpec,
    TraceIndex,
    build_timeline,
    clock_pulses,
    label_absorptions,
    pulses_from_trace,
    resolution_report,
    verify_trace,
    wavelength_of,
    write_trace,
)
from fcnsim.cli import main
from helpers import (
    broadcast_network,
    four_clock_network,
    random_run,
    reference_absorption_edges,
    reference_resolution,
    reference_violations,
)

CASES = range(40)


@pytest.mark.parametrize("case_seed", CASES)
def test_decay_once_and_provenance(case_seed):
    """An excitation decays at most once, and always traces back to an
    injection: the rules ``verify_trace`` checks without a network hold."""
    _, _, _, trace = random_run(case_seed)
    assert verify_trace(trace) == []


@pytest.mark.parametrize("case_seed", CASES)
def test_causality_and_conservation(case_seed):
    """Arrivals are bitwise emission + distance / c with the emitted energy,
    and the pulses are the declared ticks: ``verify_trace`` with the network."""
    network, _, _, trace = random_run(case_seed)
    assert verify_trace(trace, network) == []


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
            assert index.counts(spec_pulses) == (len(labels), skipped, len(violations), resolution)


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


def _hand_trace(rows) -> list:
    """Events from (kind, node, engine_time, parent or None) rows, with ids
    in row order; each tick's pulse id and counter count its clock's ticks."""
    ticks: dict[int, int] = {}
    trace = []
    for eid, (kind, node, t, parent) in enumerate(rows):
        payload = {}
        if kind is EventKind.CLOCK_TICK:
            k = ticks[node] = ticks.get(node, -1) + 1
            payload = {"pulse_id": k, "counter": k}
        trace.append(SimEvent(eid, kind, node, t, () if parent is None else (parent,), payload))
    return trace


_TICK, _ABSORB, _EMIT, _PASS, _INJECT = (
    EventKind.CLOCK_TICK, EventKind.ABSORPTION, EventKind.EMISSION, EventKind.PASS_THROUGH, EventKind.EXTERNAL_EXCITATION
)
# Three clocks: node 10 ticks each second from 0 s, node 11 at 0 s and 4 s
# only, so its labels tie, and node 12 from 2.5 s, so it skips the early
# absorptions. Each trace has engine_time stepping back along parent edges,
# which no engine run writes and every reader accepts.
_CLOCK_ROWS = [
    *((_TICK, 10, float(k), None) for k in range(5)),
    (_TICK, 11, 0.0, None), (_TICK, 11, 4.0, None), (_TICK, 12, 2.5, None), (_TICK, 12, 3.5, None),
]
INVERTED = {
    # A chain with a signal and a pass-through between absorptions, and a branch.
    "chain": [
        *_CLOCK_ROWS,
        (_INJECT, 1, 0.0, None),  # 9
        (_ABSORB, 2, 3.2, 9),  # 10
        (_EMIT, 2, 3.2, 10),
        (_ABSORB, 3, 1.1, 11),  # 12: before its ancestor 10
        (_ABSORB, 4, 1.5, 12),
        (_PASS, 5, 2.9, 13),
        (_ABSORB, 5, 2.6, 14),  # 15
        (_ABSORB, 6, 0.5, 10),  # 16: a branch, before 10
        (_ABSORB, 7, 3.9, 16),
    ],
    # One absorption fans out to earlier ones; a second tree is disjoint.
    "fan": [
        (_INJECT, 1, 0.0, None),  # 0
        (_ABSORB, 2, 3.7, 0),
        *_CLOCK_ROWS,  # 2-10
        (_ABSORB, 3, 0.2, 1),  # 11
        (_ABSORB, 4, 1.0, 1),
        (_ABSORB, 5, 3.7, 1),
        (_EMIT, 3, 0.3, 11),
        (_ABSORB, 6, 0.1, 14),  # 15: before its parent's parent
        (_INJECT, 8, 2.0, None),
        (_ABSORB, 8, 2.7, 16),  # 17: a second root
        (_ABSORB, 9, 2.6, 17),
        (_ABSORB, 9, 4.5, 15),
    ],
}


@pytest.mark.parametrize("name", INVERTED)
def test_report_lines_match_reference_where_labels_invert(name, tmp_path, capsys):
    """On traces whose labels invert causal order, ``report`` prints, per
    clock, what ``label`` and ``check`` and the reference compute, and the
    clocks between them have violations, ties and skipped absorptions."""
    trace = _hand_trace(INVERTED[name])
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    assert main(["report", str(path)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("clock ")]
    index = TraceIndex(trace)
    assert index.clocks == [10, 11, 12]
    expected, found = [], []
    for clock_id in index.clocks:
        pulses = index.pulses(clock_id)
        labels, skipped = index.label(pulses)
        timeline, violations, resolution = index.check(labels, observer=clock_id)
        assert violations == reference_violations(timeline, trace)
        assert resolution == reference_resolution(timeline, trace)
        found.append((len(violations), resolution.indistinguishable_pairs, skipped))
        expected.append(
            f"clock {clock_id} (period {pulses[1].engine_time - pulses[0].engine_time}): {len(labels)} labels, "
            f"{skipped} skipped, {len(violations)} causal violations, "
            f"{resolution.indistinguishable_pairs} indistinguishable pairs"
        )
    assert printed == expected
    assert all(map(any, zip(*found)))


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
def test_index_keeps_the_nearest_absorption_edges(case):
    """The ancestry pass of each clock walks exactly one edge per absorption
    with an absorption among its ancestors, from it to the nearest such
    ancestor, in id order: in a forest these edges carry every labeled
    ancestor."""
    _, trace = _run(case)
    assert TraceIndex(trace)._edges == reference_absorption_edges(trace)


def test_broadcast_network_exercises_the_index():
    """The broadcast case is not vacuous: three clocks label every
    absorption, and the index keeps no edge, since no absorption descends
    from another."""
    _, trace = _broadcast_run()
    index = TraceIndex(trace)
    assert index.clocks == [3, 11, 26]
    edges = index._edges
    assert len(trace) == 890 and len(edges) == len(reference_absorption_edges(trace)) == 0
    for clock_id in index.clocks:
        labels, skipped = index.label(index.pulses(clock_id))
        assert (len(labels), skipped) == (50, 0)
