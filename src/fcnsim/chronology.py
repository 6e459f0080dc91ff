"""Time numbers from trace post-processing.

Nothing in the engine is an observable time. A time number exists only
once a detection has been paired with a standard-clock pulse: the
absorption event, the pulse, and the pulse's counter form a triplet, and
the label extracted from the triplet is the time number. Pairing uses
the latest pulse at or before the absorption (the floor rule, how a
counter readout is actually read; rounding to the nearest pulse could
label an event with a pulse that has not happened yet).

Everything here is pure post-processing over immutable traces.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

from .engine import EventKind, EventTrace, SimEvent
from .errors import ClockMismatch, NoClockPulse
from .network import EventId, NodeId, PulseId, StandardClockSpec


@dataclass(frozen=True)
class ClockPulse:
    """One counted pulse of a standard clock."""

    id: PulseId
    clock: NodeId
    counter: int
    engine_time: float


@dataclass(frozen=True)
class TripletState:
    """Detector-resident pairing of a detection with a clock pulse.

    ``signal_state`` is the absorption event id, ``pulse`` the paired
    pulse id, ``label`` the pulse's counter at pairing. ``clock`` records
    which clock the pulse belongs to so a mismatched extraction is
    detectable from the triplet alone.
    """

    signal_state: EventId
    pulse: PulseId
    label: int
    clock: NodeId


@dataclass(frozen=True)
class TimeLabel:
    """A time number assigned to one event: derived, secondary information."""

    event: EventId
    time_number_s: float
    triplet: TripletState


@dataclass(frozen=True)
class CausalViolation:
    """A causal ancestor labeled strictly later than its descendant."""

    ancestor: EventId
    descendant: EventId
    ancestor_time_s: float
    descendant_time_s: float


@dataclass(frozen=True)
class Timeline:
    """Ordered time labels for one observer's clock.

    Entries ascend by (time_number, event id). ``observer`` is the node
    hosting the clock the labels came from; None only for an empty
    timeline.
    """

    observer: NodeId | None
    entries: tuple[TimeLabel, ...]


@dataclass(frozen=True)
class ResolutionReport:
    """How well one clock separates causally ordered events.

    ``indistinguishable_pairs`` counts causally ordered pairs that share a
    label; halving the clock period never increases it, because the finer
    buckets refine the coarser ones.
    """

    causally_ordered_pairs: int
    indistinguishable_pairs: int
    distinct_labels: int


def pulses_from_trace(trace: EventTrace, clock: NodeId) -> tuple[ClockPulse, ...]:
    """Extract the pulse history of the clock at ``clock`` from a trace."""
    return tuple(
        ClockPulse(
            id=e.payload["pulse_id"],
            clock=e.node,
            counter=e.payload["counter"],
            engine_time=e.engine_time,
        )
        for e in trace
        if e.kind is EventKind.CLOCK_TICK and e.node == clock
    )


def clock_pulses(
    spec: StandardClockSpec, until_s: float, start_pulse_id: PulseId = 0
) -> tuple[ClockPulse, ...]:
    """Synthesize the pulse history a clock would produce up to ``until_s``.

    Lets a trace be relabeled against hypothetical clocks (for example at
    half the period) without rerunning the engine.
    """
    pulses = []
    k = 0
    while spec.tick_time(k) <= until_s:
        pulses.append(
            ClockPulse(
                id=start_pulse_id + k,
                clock=spec.id,
                counter=spec.counter_start + k,
                engine_time=spec.tick_time(k),
            )
        )
        k += 1
    return tuple(pulses)


def form_triplet(absorption: SimEvent, pulses: tuple[ClockPulse, ...]) -> TripletState:
    """Pair an absorption with the latest pulse at or before it.

    ``pulses`` must be in time order, as the pulse helpers produce them.
    An arrival exactly on a tick pairs with that tick. Raises NoClockPulse
    when the absorption precedes the first pulse (or there are none).
    """
    if absorption.kind is not EventKind.ABSORPTION:
        raise ValueError(f"event {absorption.id} is {absorption.kind.value}, not an absorption")
    idx = bisect_right(pulses, absorption.engine_time, key=lambda p: p.engine_time) - 1
    if idx < 0:
        raise NoClockPulse(
            f"absorption {absorption.id} at engine_time {absorption.engine_time} "
            f"precedes the first clock pulse"
        )
    pulse = pulses[idx]
    return TripletState(
        signal_state=absorption.id, pulse=pulse.id, label=pulse.counter, clock=pulse.clock
    )


def extract_time(triplet: TripletState, clock: StandardClockSpec) -> TimeLabel:
    """Turn a triplet into a time number using its clock's spec.

    The time number is the paired pulse's nominal time,
    first_tick + (label - counter_start) * period, computed with the same
    expression the engine uses for tick times. Raises ClockMismatch when
    the triplet was formed against a different clock.
    """
    if triplet.clock != clock.id:
        raise ClockMismatch(
            f"triplet paired with clock at node {triplet.clock}, "
            f"asked to extract with clock at node {clock.id}"
        )
    return TimeLabel(
        event=triplet.signal_state,
        time_number_s=clock.tick_time(triplet.label - clock.counter_start),
        triplet=triplet,
    )


def _by_time_then_event(label: TimeLabel) -> tuple[float, EventId]:
    return (label.time_number_s, label.event)


def _check_ancestry(
    entries: tuple[TimeLabel, ...], trace: EventTrace
) -> tuple[list[CausalViolation], int, int]:
    """Compare sorted timeline entries with the causal ancestry of a trace.

    Returns the inversions (unsorted), the causally ordered entry pairs,
    and those among them that share a label. ``entries`` must ascend by
    (time number, event id).

    One forward pass over the trace in id order. Each event carries a
    Python-int bitset of its labeled ancestors, bit ``i`` standing for
    ``entries[i]``; an event's bitset is dropped once its last child has
    read it, so memory follows the live causal frontier. As entries
    ascend, the entries sharing a label fill one bit range ``[lo, hi)``
    and every later label sits at bit ``hi`` or above: inversions are the
    set bits of ``bits >> hi``, ordered pairs the popcount of ``bits``,
    and indistinguishable pairs the popcount of its ``[lo, hi)`` slice.

    A parent absent from the trace, or with an id not smaller than its
    child's, contributes only its own bit (when labeled). When an event id
    repeats in the trace or in the entries, the last record in sort order
    counts.
    """
    bit = {lb.event: i for i, lb in enumerate(entries)}
    label_range: dict[float, tuple[int, int]] = {}
    lo = 0
    for t, group in groupby(entries, key=attrgetter("time_number_s")):
        hi = lo + sum(1 for _ in group)
        label_range[t] = (lo, hi)
        lo = hi

    events = sorted(trace, key=attrgetter("id"))
    last_reader = {p: k for k, event in enumerate(events) for p in event.parents}

    live: dict[EventId, int] = {}
    violations: list[CausalViolation] = []
    ordered = indistinguishable = 0
    n = len(events)
    for k, event in enumerate(events):
        bits = 0
        for p in event.parents:
            bits |= live.pop(p, 0) if last_reader[p] == k else live.get(p, 0)
            i = bit.get(p)
            if i is not None:
                bits |= 1 << i
        eid = event.id
        if last_reader.get(eid, k) > k:
            live[eid] = bits
        i = bit.get(eid)
        if i is None or not bits or (k + 1 < n and events[k + 1].id == eid):
            continue
        t = entries[i].time_number_s
        lo, hi = label_range[t]
        later = bits >> hi
        ordered += bits.bit_count()
        indistinguishable += (bits >> lo).bit_count() - later.bit_count()
        while later:
            low = later & -later
            anc = entries[hi + low.bit_length() - 1]
            violations.append(
                CausalViolation(
                    ancestor=anc.event,
                    descendant=eid,
                    ancestor_time_s=anc.time_number_s,
                    descendant_time_s=t,
                )
            )
            later ^= low
    return violations, ordered, indistinguishable


def build_timeline(
    labels: tuple[TimeLabel, ...] | list[TimeLabel],
    trace: EventTrace,
    observer: NodeId | None = None,
) -> tuple[Timeline, tuple[CausalViolation, ...]]:
    """Order labels into a timeline and check them against causal order.

    Entries sort ascending by (time_number, event id). For every pair of
    labeled events where one is a causal ancestor of the other, the
    ancestor's time number must not exceed the descendant's; inversions
    are reported, not raised, because a coarse clock legitimately gives
    equal labels to causally ordered events and only inversions are
    defects. All labels must come from one clock.

    Cost: one pass over the trace in id order holding one bitset per live
    event; inversions are enumerated only for events that have one.
    """
    labels = tuple(labels)
    clocks = {lb.triplet.clock for lb in labels}
    if len(clocks) > 1:
        raise ClockMismatch(f"labels span several clocks: {sorted(clocks)}")
    if observer is None and clocks:
        observer = next(iter(clocks))

    entries = tuple(sorted(labels, key=_by_time_then_event))
    violations, _, _ = _check_ancestry(entries, trace)
    violations.sort(key=lambda v: (v.descendant, v.ancestor))
    return Timeline(observer=observer, entries=entries), tuple(violations)


def resolution_report(timeline: Timeline, trace: EventTrace) -> ResolutionReport:
    """Count causally ordered entry pairs the clock cannot tell apart.

    Cost: one pass over the trace in id order holding one bitset per live
    event; pairs are counted by popcount, not enumerated.
    """
    entries = tuple(sorted(timeline.entries, key=_by_time_then_event))
    _, ordered, indistinguishable = _check_ancestry(entries, trace)
    return ResolutionReport(
        causally_ordered_pairs=ordered,
        indistinguishable_pairs=indistinguishable,
        distinct_labels=len({lb.time_number_s for lb in entries}),
    )


def label_absorptions(
    trace: EventTrace, clock: StandardClockSpec, pulses: tuple[ClockPulse, ...] | None = None
) -> tuple[tuple[TimeLabel, ...], int]:
    """Label every absorption in a trace with one clock.

    Returns the labels plus the count of absorptions skipped because they
    precede the first pulse. ``pulses`` defaults to the clock's pulses as
    recorded in the trace.
    """
    if pulses is None:
        pulses = pulses_from_trace(trace, clock.id)
    labels = []
    skipped = 0
    for event in trace:
        if event.kind is not EventKind.ABSORPTION:
            continue
        try:
            triplet = form_triplet(event, pulses)
        except NoClockPulse:
            skipped += 1
            continue
        labels.append(extract_time(triplet, clock))
    return tuple(labels), skipped
