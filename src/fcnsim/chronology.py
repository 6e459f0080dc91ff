"""Time numbers from trace post-processing.

Nothing in the engine is an observable time. A time number exists only
once a detection has been paired with a standard-clock pulse: the
absorption event, the pulse, and the pulse's counter form a triplet, and
the time number is the paired pulse's recorded time, which depends on no
clock spec. Pairing uses the latest pulse at or before the absorption
(the floor rule, how a counter readout is actually read; rounding to the
nearest pulse could label an event with a pulse that has not happened
yet).

Everything here is pure post-processing over immutable traces.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import groupby, repeat
from operator import attrgetter, gt, itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .errors import ClockMismatch, ParseError, ValidationFailed
from .events import EventId, EventKind, EventTrace, NodeId, PulseId, SimEvent

if TYPE_CHECKING:
    from .network import StandardClockSpec


class ClockPulse(NamedTuple):
    """One counted pulse of a standard clock."""

    id: PulseId
    clock: NodeId
    counter: int
    engine_time: float


def _undeclared_pulses(
    pulses: Iterable[ClockPulse], spec: StandardClockSpec, declared_by: str
) -> Iterator[tuple[int, str]]:
    """Each of one clock's pulses, in order, that is not the tick ``spec``
    declares: pulse k must be the ``(engine_time, counter)`` that
    ``spec.ticks()`` yields k-th. Yields k and a message that names
    ``declared_by`` as where the spec comes from."""
    for k, (pulse, (t, counter)) in enumerate(zip(pulses, spec.ticks())):
        if (pulse.engine_time, pulse.counter) != (t, counter):
            yield k, (f"clock {spec.id}: pulse {pulse.id} (tick {k}) is at engine_time {pulse.engine_time} "
                      f"with counter {pulse.counter}; {declared_by} declares {t} with counter {counter}")


class TripletState(NamedTuple):
    """Detector-resident pairing of a detection with a clock pulse.

    ``signal_state`` is the absorption event id, ``pulse`` the paired
    pulse id, ``label`` the pulse's counter at pairing. ``clock`` records
    which clock the pulse belongs to, so labels from different clocks are
    detectable from the triplets alone (``TraceIndex.check`` rejects them).
    """

    signal_state: EventId
    pulse: PulseId
    label: int
    clock: NodeId


class TimeLabel(NamedTuple):
    """A time number assigned to one event: derived, secondary information."""

    event: EventId
    time_number_s: float
    triplet: TripletState


class CausalViolation(NamedTuple):
    """A causal ancestor labeled strictly later than its descendant."""

    ancestor: EventId
    descendant: EventId
    ancestor_time_s: float
    descendant_time_s: float


class Timeline(NamedTuple):
    """Ordered time labels for one observer's clock.

    Entries ascend by (time_number, event id). ``observer`` is the node
    hosting the clock the labels came from; None only for an empty
    timeline.
    """

    observer: NodeId | None
    entries: tuple[TimeLabel, ...]


class ResolutionReport(NamedTuple):
    """How well one clock separates causally ordered events.

    ``indistinguishable_pairs`` counts causally ordered pairs that share a
    label; halving the clock period never increases it, because the finer
    buckets refine the coarser ones.
    """

    causally_ordered_pairs: int
    indistinguishable_pairs: int
    distinct_labels: int


def pulses_from_trace(trace: EventTrace, clock: NodeId) -> tuple[ClockPulse, ...]:
    """Extract the pulse history of the clock at ``clock`` from a trace, a
    stream as ``TraceIndex`` takes it. Cost: as ``TraceIndex``."""
    return TraceIndex(trace).pulses(clock)


def clock_pulses(spec: StandardClockSpec, until_s: float) -> tuple[ClockPulse, ...]:
    """Synthesize the pulse history a clock would produce up to ``until_s``.

    Lets a trace be relabeled against hypothetical clocks (for example at
    half the period) without rerunning the engine: ``spec.ticks``, ids from
    0. A clock ``Engine`` refuses raises its ValidationFailed.
    """
    if problem := spec.tick_problem(until_s):
        raise ValidationFailed([problem])
    return tuple(ClockPulse(k, spec.id, counter, t) for k, (t, counter) in enumerate(spec.ticks(until_s)))


def _check_ancestry(
    keys: list[tuple[float, EventId]], edges: list[tuple[EventId, EventId]], last_reader: dict[EventId, int]
) -> tuple[list[tuple[int, int]], ResolutionReport]:
    """Compare sorted labels with the causal ancestry of a trace's absorptions.

    ``keys`` are the labels as (time number, event id), ascending, and must
    name absorptions of the index that built ``edges`` and ``last_reader``.
    Returns the inversions as (descendant, ancestor) positions in ``keys``,
    unsorted, and the resolution report: the causally ordered label pairs
    and those among them that share a label.

    One forward pass over ``edges``, each an absorption and its nearest
    absorption ancestor; in a forest, an absorption's labeled ancestors are
    that ancestor, if labeled, and that ancestor's labeled ancestors.
    Each edge carries a Python-int bitset of its labeled ancestors, bit
    ``i`` standing for ``keys[i]``; a bitset is dropped once the last edge
    that names its absorption has read it, so memory follows the live
    causal frontier. As keys ascend, the keys sharing a label fill one bit
    range ``[lo, hi)`` and every later label sits at bit ``hi`` or above:
    inversions are the set bits of ``bits >> hi``, ordered pairs the
    popcount of ``bits``, and indistinguishable pairs the popcount of its
    ``[lo, hi)`` slice.

    When an event id repeats in the keys, the last in sort order counts.
    """
    bit = {eid: i for i, (_, eid) in enumerate(keys)}
    label_range: dict[float, tuple[int, int]] = {}
    lo = 0
    for t, group in groupby(keys, key=itemgetter(0)):
        hi = lo + len(list(group))
        label_range[t] = (lo, hi)
        lo = hi

    live: dict[EventId, int] = {}
    found: list[tuple[int, int]] = []
    ordered = indistinguishable = 0
    for k, (eid, above) in enumerate(edges):
        bits = live.pop(above, 0) if last_reader[above] == k else live.get(above, 0)
        i = bit.get(above)
        if i is not None:
            bits |= 1 << i
        if eid in last_reader:  # a later edge reads it
            live[eid] = bits
        i = bit.get(eid)
        if i is None or not bits:
            continue
        lo, hi = label_range[keys[i][0]]
        later = bits >> hi
        ordered += bits.bit_count()
        indistinguishable += (bits >> lo).bit_count() - later.bit_count()
        while later:
            low = later & -later
            found.append((i, hi + low.bit_length() - 1))
            later ^= low
    return found, ResolutionReport(
        causally_ordered_pairs=ordered,
        indistinguishable_pairs=indistinguishable,
        distinct_labels=len(label_range),
    )


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
    defects. All labels must come from one clock and name absorptions of
    ``trace``, a stream as ``TraceIndex`` takes it. Cost: as
    ``TraceIndex`` plus one ``TraceIndex.check``.
    """
    return TraceIndex(trace).check(labels, observer)[:2]


def resolution_report(timeline: Timeline, trace: EventTrace) -> ResolutionReport:
    """Count causally ordered entry pairs the clock cannot tell apart.

    The entries must name absorptions of ``trace``, as for
    ``build_timeline``. Cost: as ``build_timeline``; pairs are counted by
    popcount, not enumerated.
    """
    return TraceIndex(trace).check(timeline.entries)[2]


def label_absorptions(
    trace: EventTrace, clock: StandardClockSpec, pulses: tuple[ClockPulse, ...] | None = None
) -> tuple[tuple[TimeLabel, ...], int]:
    """Label every absorption in a trace with one clock's pulses.

    Returns the labels plus the count of absorptions skipped because they
    precede the first pulse. Each time number is the paired pulse's
    ``engine_time``. ``pulses`` defaults to the pulses of ``clock`` as
    recorded in the trace; ``clock`` has no other use. ``trace`` is a
    stream as ``TraceIndex`` takes it. Cost: as ``TraceIndex`` plus one
    ``TraceIndex.label``, which raises ParseError if the pulse times ever
    decrease.
    """
    index = TraceIndex(trace)
    return index.label(index.pulses(clock.id) if pulses is None else pulses)


class _Absorption(NamedTuple):
    """What the index keeps of an absorption: enough to label it and to name its node."""

    id: EventId
    node: NodeId
    engine_time: float


# The index's fold of a run of events (``fold_index``): the absorptions as
# ``(id, node, engine_time)``, the ticks as ``ClockPulse`` fields, and
# ``(id, parent, is_absorption)`` of each event that may descend from an
# absorption, with -1 for no parent. Plain tuples and lists, so that
# ``marshal`` writes it; the fold of two consecutive runs is the item-wise
# sum of their folds.
IndexFold = tuple[
    list[tuple[EventId, NodeId, float]], list[tuple[PulseId, NodeId, int, float]], list[tuple[EventId, int, bool]]
]


def fold_index(trace: Iterable[SimEvent]) -> IndexFold:
    """The part of a ``TraceIndex`` that one run of events decides alone.

    An event may descend from an absorption when it is one, or when its
    parent is such an event of the run or comes before the run's first id
    (in an earlier run, where the join decides). Every other event has all
    its ancestors in the run and none is an absorption, so it leaves no
    record. Ids must ascend strictly within the run (ParseError otherwise),
    and a tick missing ``pulse_id`` or ``counter`` raises KeyError.
    """
    absorptions: list[tuple[EventId, NodeId, float]] = []
    pulses: list[tuple[PulseId, NodeId, int, float]] = []
    records: list[tuple[EventId, int, bool]] = []
    absorb, pulse, record = absorptions.append, pulses.append, records.append
    live: set[EventId] = set()  # the ids of the recorded events
    add = live.add
    absorption, tick = EventKind.ABSORPTION, EventKind.CLOCK_TICK  # one enum lookup, not one per event
    previous = first = -1
    for eid, kind, node, t, parents, payload in trace:
        if eid <= previous:
            raise ParseError(f"event id {eid} is not greater than id {previous} before it")
        if previous < 0:
            first = eid
        previous = eid
        if kind is absorption:
            absorb((eid, node, t))
            record((eid, parents[0] if parents else -1, True))
            add(eid)
            continue
        if parents and ((parent := parents[0]) in live or parent < first):
            record((eid, parent, False))
            add(eid)
        if kind is tick:
            pulse((payload["pulse_id"], node, payload["counter"], t))
    return absorptions, pulses, records


class TraceIndex:
    """One trace, indexed once for labeling and checking against many clocks.

    ``trace`` is any iterable of events in stream order with strictly
    ascending ids, as ``Engine.events``, ``iter_trace`` and ``parse_trace``
    give them; an id that does not ascend raises ParseError. One pass
    (``fold_index``) keeps ``absorptions`` (in trace order, each as its id,
    node and time), each clock's pulses (a tick missing ``pulse_id`` or
    ``counter`` raises KeyError here) and a record of each event that may
    descend from an absorption. Since only absorptions get labels and each
    event has at most one parent, the join then keeps one edge per
    absorption with an absorption among its ancestors: its id and its
    nearest absorption ancestor, found through each recorded event's nearest
    absorption at or above it. A parent that is absent, or not earlier in
    the stream, contributes nothing. Labeling costs one bisection per
    absorption and checking one pass over the edges. ``TraceIndex.joined``
    builds the index from a fold, such as the one ``fold.fold_trace`` reads
    from a file on two cores.
    """

    def __init__(self, trace: Iterable[SimEvent]):
        self._join(fold_index(trace))

    @classmethod
    def joined(cls, fold: IndexFold) -> TraceIndex:
        """The index of the events ``fold`` was folded from."""
        index = cls.__new__(cls)
        index._join(fold)
        return index

    def _join(self, fold: IndexFold) -> None:
        absorptions, pulses, records = fold
        new = tuple.__new__
        self.absorptions = [new(_Absorption, a) for a in absorptions]
        ticks: dict[NodeId, list[ClockPulse]] = {}
        for p in pulses:
            ticks.setdefault(p[1], []).append(new(ClockPulse, p))
        # ClockPulse is immutable, so ``pulses`` hands out these tuples as they are.
        self._pulses = {clock: tuple(clock_pulses) for clock, clock_pulses in ticks.items()}
        # The edges, and for each ancestor they name the last edge that names it.
        self._edges: list[tuple[EventId, EventId]] = []
        self._last_reader: dict[EventId, int] = {}
        edge, last_reader = self._edges.append, self._last_reader
        near: dict[EventId, EventId] = {}  # each recorded event's nearest absorption at or above it
        for eid, parent, absorbed in records:
            above = near.get(parent)
            if absorbed:
                if above is not None:
                    last_reader[above] = len(self._edges)
                    edge((eid, above))
                near[eid] = eid
            elif above is not None:
                near[eid] = above

    @property
    def clocks(self) -> list[NodeId]:
        """The hosts of the clocks that tick in the trace, ascending."""
        return sorted(self._pulses)

    def pulses(self, clock: NodeId) -> tuple[ClockPulse, ...]:
        """The pulse history of the clock at ``clock``, built as the index read the trace."""
        return self._pulses.get(clock, ())

    def _pairs(self, pulses: tuple[ClockPulse, ...]) -> list[tuple[_Absorption, ClockPulse]]:
        """Each absorption, in trace order, that has a pulse at or before it,
        with the latest such pulse, from one bisection of the pulse times per
        absorption: the floor rule. A pulse earlier than the one before it
        raises ParseError."""
        times = [p.engine_time for p in pulses]
        if any(map(gt, times, times[1:])):
            back = next(q for p, q in zip(pulses, pulses[1:]) if p.engine_time > q.engine_time)
            raise ParseError(f"pulse {back.id} at engine_time {back.engine_time} is earlier than the pulse before it",
                             f"clock {back.clock}")
        before = map(bisect_right, repeat(times), map(attrgetter("engine_time"), self.absorptions))
        return [(absorption, pulses[n - 1]) for absorption, n in zip(self.absorptions, before) if n]

    def label(self, pulses: tuple[ClockPulse, ...]) -> tuple[tuple[TimeLabel, ...], int]:
        """Pair each absorption with the latest pulse at or before it and
        label it with that pulse's recorded time, bisecting the pulse times
        once per absorption. Returns the labels, in trace order, and the
        count of absorptions before the first pulse, which are skipped. A
        pulse earlier than the one before it raises ParseError.
        """
        labels = tuple(TimeLabel(a.id, p.engine_time, TripletState(a.id, p.id, p.counter, p.clock))
                       for a, p in self._pairs(pulses))
        return labels, len(self.absorptions) - len(labels)

    def counts(self, pulses: tuple[ClockPulse, ...]) -> tuple[int, int, int, ResolutionReport]:
        """The numbers of labels, of skipped absorptions and of causal
        violations, and the resolution report, that ``label`` and ``check``
        give for ``pulses``, from the same pairing and ancestry pass but
        without building a label or a violation. Raises ParseError as
        ``label`` does.
        """
        keys = sorted([(p.engine_time, a.id) for a, p in self._pairs(pulses)])
        found, resolution = _check_ancestry(keys, self._edges, self._last_reader)
        return len(keys), len(self.absorptions) - len(keys), len(found), resolution

    def check(
        self, labels: tuple[TimeLabel, ...] | list[TimeLabel], observer: NodeId | None = None
    ) -> tuple[Timeline, tuple[CausalViolation, ...], ResolutionReport]:
        """The timeline of ``labels``, its inversions sorted by (descendant,
        ancestor), and its resolution report, from one ancestry pass.

        ``observer`` defaults to the labels' clock. Raises ClockMismatch
        when the labels come from more than one clock, and ValueError when
        a label names an event that is not one of ``absorptions``.
        """
        labels = tuple(labels)
        clocks = {lb.triplet.clock for lb in labels}
        if len(clocks) > 1:
            raise ClockMismatch(f"labels span several clocks: {sorted(clocks)}")
        if observer is None and clocks:
            observer = next(iter(clocks))
        ids = {a.id for a in self.absorptions}
        if not ids.issuperset(lb.event for lb in labels):
            other = next(lb.event for lb in labels if lb.event not in ids)
            raise ValueError(f"label on event {other}, which is not an absorption of the trace")
        key = attrgetter("time_number_s", "event")
        entries = tuple(sorted(labels, key=key))
        found, resolution = _check_ancestry(list(map(key, entries)), self._edges, self._last_reader)
        violations = []
        for d, a in found:
            descendant, ancestor = entries[d], entries[a]
            violations.append(
                CausalViolation(ancestor.event, descendant.event, ancestor.time_number_s, descendant.time_number_s)
            )
        violations.sort(key=lambda v: (v.descendant, v.ancestor))
        return Timeline(observer=observer, entries=entries), tuple(violations), resolution
