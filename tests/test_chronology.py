"""Triplet pairing, time numbers, timelines, and resolution counting."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from fcnsim import (
    ClockMismatch,
    Engine,
    EventKind,
    ParseError,
    RunConfig,
    SimEvent,
    StandardClockSpec,
    TimeLabel,
    Timeline,
    TraceIndex,
    TripletState,
    build_timeline,
    clock_pulses,
    label_absorptions,
    pulses_from_trace,
    resolution_report,
)
from fcnsim.io import iter_trace, parse_network, write_trace
from helpers import chain_network, reference_resolution, reference_violations


def absorption_at(event_id: int, t: float, node: int = 1, parents=()) -> SimEvent:
    return SimEvent(
        id=event_id,
        kind=EventKind.ABSORPTION,
        node=node,
        engine_time=t,
        parents=tuple(parents),
        payload={"arc": 1, "energy_ev": 1.5, "excitation_id": event_id},
    )


def unit_clock(period: float = 1.0, first: float = 0.0, counter: int = 0, node: int = 9):
    return StandardClockSpec(id=node, period_s=period, first_tick_s=first, counter_start=counter)


@pytest.fixture
def chain_trace(chain):
    net, injections = chain
    return Engine(net, RunConfig(run_until_s=5.0), injections).run()


def label_one(t: float, clock: StandardClockSpec, until_s: float = 5.0) -> tuple[tuple[TimeLabel, ...], int]:
    """``label_absorptions`` of a trace holding one absorption at ``t``."""
    return label_absorptions((absorption_at(10, t),), clock, clock_pulses(clock, until_s))


class TestFloorPairing:
    def test_floor_pairing(self):
        (label,), _ = label_one(2.3, unit_clock())
        assert label.triplet.label == 2
        assert label.triplet.signal_state == 10

    def test_arrival_on_tick_pairs_with_that_tick(self):
        (label,), _ = label_one(3.0, unit_clock())
        assert label.triplet.label == 3

    def test_absorption_before_first_pulse(self):
        assert label_one(0.5, unit_clock(first=1.0)) == ((), 1)

    def test_empty_pulse_history(self):
        assert label_absorptions((absorption_at(10, 0.5),), unit_clock(), ()) == ((), 1)

    def test_rejects_non_absorption(self):
        """Only absorptions are paired: a clock tick in the trace gets no label."""
        tick = SimEvent(
            id=0, kind=EventKind.CLOCK_TICK, node=9, engine_time=0.0,
            parents=(), payload={"pulse_id": 0, "counter": 0},
        )
        assert label_absorptions((tick,), unit_clock(), clock_pulses(unit_clock(), until_s=5.0)) == ((), 0)

    @given(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.sampled_from([0.0625, 0.125, 0.25, 0.5, 1.0, 2.0]),
    )
    def test_matches_linear_scan(self, t, period):
        """The bisect pairing agrees with a brute-force scan of the pulses."""
        clock = unit_clock(period=period)
        pulses = clock_pulses(clock, until_s=101.0)
        expected = max((p for p in pulses if p.engine_time <= t), key=lambda p: p.engine_time)
        (label,), _ = label_one(t, clock, until_s=101.0)
        assert label.triplet.pulse == expected.id


class TestExtractTime:
    """A time number is the paired pulse's recorded time, which is bitwise
    the clock's nominal time ``tick_time(label - counter_start)``."""

    @staticmethod
    def nominal(label: TimeLabel, clock: StandardClockSpec) -> float:
        return clock.tick_time(label.triplet.label - clock.counter_start)

    def test_unit_period(self):
        clock = unit_clock()
        (label,), _ = label_one(2.3, clock)
        assert label.time_number_s == self.nominal(label, clock) == 2.0

    def test_offset_clock(self):
        clock = unit_clock(period=0.5, first=0.25)
        (label,), _ = label_one(1.3, clock)
        assert label.triplet.label == 2
        assert label.time_number_s == self.nominal(label, clock) == 1.25

    def test_counter_start_offsets_label(self):
        clock = unit_clock(counter=5)
        (label,), _ = label_one(2.3, clock)
        assert label.triplet.label == 7
        assert label.time_number_s == self.nominal(label, clock) == 2.0

    def test_wrong_clock_rejected(self):
        """Labels carry their clock, so labels of two clocks are refused together."""
        (ours,), _ = label_one(2.3, unit_clock())
        (other,), _ = label_one(2.3, unit_clock(node=8))
        assert (ours.triplet.clock, other.triplet.clock) == (9, 8)
        with pytest.raises(ClockMismatch):
            build_timeline([ours, other], (absorption_at(10, 2.3),))

    def test_time_number_equals_pulse_time(self):
        """The time number is the paired pulse's engine time and the nominal time, bitwise."""
        clock = unit_clock(period=0.25, first=0.125)
        pulses = clock_pulses(clock, until_s=20.0)
        for t in (0.125, 3.3, 7.77, 19.9):
            (label,), _ = label_one(t, clock, until_s=20.0)
            paired = next(p for p in pulses if p.id == label.triplet.pulse)
            assert label.time_number_s == paired.engine_time == self.nominal(label, clock)


class TestBuildTimeline:
    def test_empty(self):
        timeline, violations = build_timeline([], ())
        assert timeline.entries == ()
        assert violations == ()

    def test_chain_fixture_labels(self, chain_trace):
        clock = chain_network()[0].clocks[0]
        labels, skipped = label_absorptions(chain_trace, clock)
        timeline, violations = build_timeline(labels, chain_trace)
        assert [lb.time_number_s for lb in timeline.entries] == [1.0, 3.0]
        assert skipped == 0
        assert violations == ()
        assert timeline.observer == 3

    def test_entries_sorted_by_time_then_event(self):
        trace = (absorption_at(3, 1.0), absorption_at(5, 1.0))
        labels = [
            TimeLabel(event=5, time_number_s=1.0, triplet=TripletState(5, 1, 1, clock=9)),
            TimeLabel(event=3, time_number_s=1.0, triplet=TripletState(3, 1, 1, clock=9)),
        ]
        timeline, _ = build_timeline(labels, trace)
        assert [lb.event for lb in timeline.entries] == [3, 5]

    def test_inverted_label_reported(self):
        parent = absorption_at(1, 1.0)
        child = absorption_at(2, 2.0, parents=(1,))
        labels = [
            TimeLabel(event=1, time_number_s=5.0, triplet=TripletState(1, 5, 5, clock=9)),
            TimeLabel(event=2, time_number_s=1.0, triplet=TripletState(2, 1, 1, clock=9)),
        ]
        timeline, violations = build_timeline(labels, (parent, child))
        assert len(violations) == 1
        assert violations[0].ancestor == 1 and violations[0].descendant == 2

    def test_equal_labels_are_not_violations(self):
        parent = absorption_at(1, 1.0)
        child = absorption_at(2, 1.2, parents=(1,))
        labels = [
            TimeLabel(event=1, time_number_s=1.0, triplet=TripletState(1, 1, 1, clock=9)),
            TimeLabel(event=2, time_number_s=1.0, triplet=TripletState(2, 1, 1, clock=9)),
        ]
        _, violations = build_timeline(labels, (parent, child))
        assert violations == ()

    def test_mixed_clocks_rejected(self):
        labels = [
            TimeLabel(event=1, time_number_s=1.0, triplet=TripletState(1, 1, 1, clock=9)),
            TimeLabel(event=2, time_number_s=2.0, triplet=TripletState(2, 2, 2, clock=8)),
        ]
        with pytest.raises(ClockMismatch):
            build_timeline(labels, ())

    def test_ancestry_is_transitive(self):
        a = absorption_at(1, 1.0)
        mid = SimEvent(
            id=2, kind=EventKind.EMISSION, node=1, engine_time=1.0,
            parents=(1,), payload={},
        )
        b = absorption_at(3, 2.0, parents=(2,))
        labels = [
            TimeLabel(event=1, time_number_s=4.0, triplet=TripletState(1, 4, 4, clock=9)),
            TimeLabel(event=3, time_number_s=2.0, triplet=TripletState(3, 2, 2, clock=9)),
        ]
        _, violations = build_timeline(labels, (a, mid, b))
        assert len(violations) == 1


class TestResolutionReport:
    def test_coarse_clock_cannot_separate_the_chain(self, chain_trace):
        coarse = unit_clock(period=10.0, node=3)
        labels, _ = label_absorptions(chain_trace, coarse, clock_pulses(coarse, until_s=5.0))
        timeline, _ = build_timeline(labels, chain_trace)
        report = resolution_report(timeline, chain_trace)
        assert report.causally_ordered_pairs == 1
        assert report.indistinguishable_pairs == 1

    def test_fine_clock_separates_the_chain(self, chain_trace):
        fine = unit_clock(period=0.1, node=3)
        labels, _ = label_absorptions(chain_trace, fine, clock_pulses(fine, until_s=5.0))
        timeline, _ = build_timeline(labels, chain_trace)
        report = resolution_report(timeline, chain_trace)
        assert report.indistinguishable_pairs == 0
        assert report.causally_ordered_pairs == 1

    def test_empty_timeline_zero_counts(self):
        timeline, _ = build_timeline([], ())
        report = resolution_report(timeline, ())
        assert report.causally_ordered_pairs == 0
        assert report.indistinguishable_pairs == 0
        assert report.distinct_labels == 0


def label(event_id: int, t: float) -> TimeLabel:
    return TimeLabel(event=event_id, time_number_s=t, triplet=TripletState(event_id, 0, 0, clock=9))


def event_of(kind: EventKind, event_id: int, parents=()) -> SimEvent:
    return SimEvent(
        id=event_id, kind=kind, node=1, engine_time=0.0, parents=tuple(parents), payload={}
    )


@st.composite
def _traces(draw, kinds=st.just(EventKind.ABSORPTION)) -> list[SimEvent]:
    """Events with unique ascending ids and gaps between them; each names at
    most one smaller id as its parent, some of them absent from the trace."""
    trace = []
    for eid in sorted(draw(st.sets(st.integers(min_value=0, max_value=24), max_size=24))):
        parents = draw(st.lists(st.integers(min_value=0, max_value=eid - 1), max_size=1)) if eid else ()
        trace.append(event_of(draw(kinds), eid, parents))
    return trace


@st.composite
def _labeled(draw, kinds=st.just(EventKind.ABSORPTION)) -> tuple[list[SimEvent], list[TimeLabel]]:
    """A trace and labels on its absorptions, with repeats; few distinct
    times make ties common."""
    trace = draw(_traces(kinds))
    absorbed = [e.id for e in trace if e.kind is EventKind.ABSORPTION]
    times = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.5])
    labels = draw(st.lists(st.builds(label, st.sampled_from(absorbed), times), max_size=24)) if absorbed else []
    return trace, labels


# Absorptions among kinds that never get a label from the index.
_KINDS = st.sampled_from([EventKind.ABSORPTION, EventKind.EMISSION, EventKind.DECAY, EventKind.PASS_THROUGH])


class TestAgainstReference:
    """The bitset ancestry pass agrees with the set-based reference."""

    @given(_labeled())
    def test_random_dag_traces(self, labeled):
        trace, labels = labeled
        timeline, violations = build_timeline(labels, trace)
        assert violations == reference_violations(timeline, trace)
        assert resolution_report(timeline, trace) == reference_resolution(timeline, trace)

    @given(_labeled())
    def test_unsorted_timeline_entries(self, labeled):
        trace, labels = labeled
        unique = list({lb.event: lb for lb in labels}.values())
        timeline = Timeline(observer=9, entries=tuple(reversed(unique)))
        assert resolution_report(timeline, trace) == reference_resolution(timeline, trace)

    @given(_labeled(_KINDS))
    def test_trace_index_check(self, labeled):
        """``TraceIndex.check`` agrees with the reference for labels on the
        absorptions of a trace that holds other kinds as well."""
        trace, labels = labeled
        timeline, violations, resolution = TraceIndex(trace).check(labels)
        assert violations == reference_violations(timeline, trace)
        assert resolution == reference_resolution(timeline, trace)
        # An index built from a one-pass iterator gives the same result.
        assert TraceIndex(iter(trace)).check(labels) == (timeline, violations, resolution)

    def test_closed_form_counts_on_a_long_chain(self):
        """n chained absorptions in label groups of sizes k: every pair is
        ordered, sum k(k-1)/2 share a label, and none is inverted."""
        sizes = [1 + g % 9 for g in range(999)] + [5]
        times = [float(g) for g, k in enumerate(sizes) for _ in range(k)]
        n = len(times)
        assert n == 5000
        trace = tuple(
            absorption_at(i, t, parents=(i - 1,) if i else ()) for i, t in enumerate(times)
        )
        labels = [label(i, t) for i, t in enumerate(times)]
        timeline, violations = build_timeline(labels, trace)
        report = resolution_report(timeline, trace)
        assert violations == ()
        assert report.causally_ordered_pairs == n * (n - 1) // 2
        assert report.indistinguishable_pairs == sum(k * (k - 1) // 2 for k in sizes)
        assert report.distinct_labels == len(sizes)


class TestIndexContract:
    """Events come in stream order with strictly ascending ids, and labels
    name absorptions of the trace."""

    @pytest.mark.parametrize("second", [1, 0], ids=["repeated", "descending"])
    @pytest.mark.parametrize("build", [
        TraceIndex,
        lambda trace: build_timeline([], trace),
        lambda trace: resolution_report(Timeline(observer=None, entries=()), trace),
        lambda trace: pulses_from_trace(trace, 9),
        lambda trace: label_absorptions(trace, unit_clock()),
    ], ids=["TraceIndex", "build_timeline", "resolution_report", "pulses_from_trace", "label_absorptions"])
    def test_id_that_does_not_ascend_raises(self, build, second):
        trace = (absorption_at(1, 0.0), absorption_at(second, 0.0))
        with pytest.raises(ParseError, match=f"^event id {second} is not greater than id 1 before it$"):
            build(trace)
        with pytest.raises(ParseError):
            build(iter(trace))

    @pytest.mark.parametrize("event, message", [
        (2, "label on event 2, which is not an absorption of the trace"),
        (7, "label on event 7, which is not an absorption of the trace"),
    ], ids=["emission", "absent"])
    def test_label_off_the_absorptions_raises(self, event, message):
        trace = (absorption_at(1, 0.0), event_of(EventKind.EMISSION, 2, parents=(1,)), absorption_at(3, 1.0, parents=(2,)))
        index = TraceIndex(trace)
        with pytest.raises(ValueError, match=f"^{message}$"):
            index.check([label(1, 0.0), label(event, 1.0)])
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_timeline([label(event, 1.0)], trace)

    def test_parent_absent_or_not_earlier_contributes_nothing(self):
        """Event 3 names an absent parent, itself or the later absorption 4:
        none of them is an ancestor, so only 1 -> 4 is ordered."""
        for bad in (2, 3, 4):
            trace = (absorption_at(1, 0.0), absorption_at(3, 0.0, parents=(bad,)), absorption_at(4, 0.0, parents=(1,)))
            _, _, resolution = TraceIndex(trace).check([label(e, 0.0) for e in (1, 3, 4)])
            assert resolution.causally_ordered_pairs == 1, bad


class TestLabelAbsorptions:
    def test_skips_absorptions_before_first_pulse(self, chain_trace):
        late = unit_clock(period=1.0, first=2.0, node=3)
        labels, skipped = label_absorptions(chain_trace, late, clock_pulses(late, until_s=5.0))
        assert skipped == 1  # the absorption at 1.5 precedes the first pulse
        assert [lb.time_number_s for lb in labels] == [3.0]

    def test_default_pulse_source_is_the_trace(self, chain_trace):
        clock = chain_network()[0].clocks[0]
        explicit, _ = label_absorptions(chain_trace, clock, pulses_from_trace(chain_trace, 3))
        implicit, _ = label_absorptions(chain_trace, clock)
        assert explicit == implicit

    @staticmethod
    def ticks_at(*times: float) -> tuple[SimEvent, ...]:
        return tuple(
            SimEvent(id=k, kind=EventKind.CLOCK_TICK, node=3, engine_time=t, parents=(),
                     payload={"pulse_id": k, "counter": k})
            for k, t in enumerate(times)
        )

    def test_pulses_going_back_in_time_rejected(self):
        """The floor rule bisects the pulse times, so a pulse earlier than the
        one before it is an error naming the clock and that pulse, never a
        label from the wrong pulse."""
        trace = (*self.ticks_at(0.0, 2.0, 1.0), absorption_at(3, 1.5))
        message = r"^clock 3: pulse 2 at engine_time 1\.0 is earlier than the pulse before it$"
        with pytest.raises(ParseError, match=message):
            label_absorptions(trace, unit_clock(node=3))
        index = TraceIndex(trace)
        with pytest.raises(ParseError, match=message):
            index.label(index.pulses(3))

    def test_pulses_at_one_time_pair_with_the_last(self):
        trace = (*self.ticks_at(0.0, 1.0, 1.0), absorption_at(3, 1.5))
        (label,), skipped = label_absorptions(trace, unit_clock(node=3))
        assert (label.time_number_s, label.triplet.pulse, skipped) == (1.0, 2, 0)


class TestPulseHelpers:
    def test_pulses_from_trace(self, chain_trace):
        pulses = pulses_from_trace(chain_trace, 3)
        assert [p.engine_time for p in pulses] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert [p.counter for p in pulses] == [0, 1, 2, 3, 4, 5]

    def test_consecutive_pulses_differ_by_the_period(self, chain_trace):
        pulses = pulses_from_trace(chain_trace, 3)
        for prev, cur in zip(pulses, pulses[1:]):
            assert cur.engine_time - prev.engine_time == 1.0
            assert cur.counter - prev.counter == 1

    def test_synthetic_pulses_match_trace_pulses(self, chain_trace):
        clock = chain_network()[0].clocks[0]
        synthetic = clock_pulses(clock, until_s=5.0)
        recorded = pulses_from_trace(chain_trace, 3)
        assert [p.engine_time for p in synthetic] == [p.engine_time for p in recorded]
        assert [p.counter for p in synthetic] == [p.counter for p in recorded]


class TestIndexPulses:
    def test_tick_without_counter_raises_when_the_index_is_built(self):
        """The index turns each tick into its pulse as it reads the trace, so
        a tick missing a field the pulse needs fails the build itself, also
        when the wrappers ask for another clock's pulses."""
        tick = SimEvent(id=0, kind=EventKind.CLOCK_TICK, node=3, engine_time=0.0,
                        parents=(), payload={"pulse_id": 0})
        with pytest.raises(KeyError, match="counter"):
            TraceIndex([tick])
        with pytest.raises(KeyError, match="counter"):
            pulses_from_trace([tick], 9)
        with pytest.raises(KeyError, match="counter"):
            label_absorptions([tick], unit_clock())

    def test_pulses_are_built_once(self, chain_trace):
        index = TraceIndex(chain_trace)
        assert index.pulses(3) is index.pulses(3)
        assert index.pulses(3) == pulses_from_trace(chain_trace, 3)

    def test_index_keeps_pulses_not_tick_events(self, tmp_path):
        """On an engine-written trace of one clock's 10,001 ticks, the index
        retains under 250 bytes per tick, about 170 for its pulse; no tick
        descends from an absorption, so the ancestry skeleton keeps none of
        them. A whole tick event with its payload dict takes about 960."""
        doc = parse_network('{"schema_version": "1", "nodes": [{"id": 1, "ground_ev": 0.0, "excited_ev": 1.5}], '
                            '"standard_clocks": [{"id": 1, "period_s": 0.001}]}')
        path = tmp_path / "clock.jsonl"
        write_trace(Engine(doc.network, RunConfig(run_until_s=10.0), doc.injections).events(), path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = TraceIndex(iter_trace(path))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        ticks = len(index.pulses(1))
        assert ticks == 10_001
        assert retained / ticks < 250
