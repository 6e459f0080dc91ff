"""Deterministic discrete-event engine for causal clock networks.

The engine owns a priority queue of pending occurrences ordered by
(engine_time, scheduling sequence number); the sequence number breaks
ties so reruns are bit-identical. Popping an occurrence applies its
effect, produces exactly one event, and schedules any children. Event
ids are assigned in emission order, so the trace is totally ordered by
(engine_time, id).

``Engine.events`` is the loop: it yields each event as it is produced
and keeps none, so ``fcnsim run``, which writes each one out as it comes,
holds no trace whatever the horizon; its writer keeps only a bounded
table of float texts. ``run`` is ``tuple(events())``.

Occurrences are plain tuples ``(t, seq, tag, ...)``; ``(t, seq)`` is
unique, so no later field is ever compared. The int tag indexes the
handler table that the loop dispatches through. Per-node and per-arc
tables (spec, gap, tolerance, decay payload, wavelength, outgoing arcs)
are built by the constructor, which refuses a payload that is not finite.

engine_time is internal scheduler plumbing, not an observable: it never
leaves the engine except inside trace files, where it is named
``engine_time`` to keep the distinction legible. Observable time exists
only as the labels the chronology module derives from clock pulses.

Arithmetic path (relied on by the causality checks): an arrival time is
emission time plus the arc delay, where the delay is the one IEEE-754
division distance / c and the sum is one IEEE-754 addition. Recomputing
those two steps reproduces every absorption time bit for bit.

Stochastic mode draws decay delays from the exponential distribution by
inverse CDF, one uniform per delay, from a single PCG64 stream seeded
per run and computed in this module, bit for bit as numpy's
``Generator(PCG64(seed)).random()``, in blocks that hold the same values
in the same order as scalar draws. Deterministic mode uses the lifetime
itself as the delay.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import namedtuple
from enum import Enum
from typing import Any, Iterable, Iterator, NamedTuple

from .constants import Checked
from .entropy import DEFAULT_ENTROPY_MODEL, EntropyModel, decay_payloads
from .errors import UnknownNode, ValidationFailed
from .events import ArcId, EventId, EventKind, EventTrace, NodeId, SimEvent
from .network import Network, StandardClockSpec, propagation_delay
from .quantum import TwoLevelSpec, absorb, signal_energy, wavelength_of


class SamplingMode(Enum):
    DETERMINISTIC = "deterministic"
    STOCHASTIC = "stochastic"


class RunConfig(Checked, namedtuple("RunConfig", "run_until_s mode seed entropy_model")):
    """Per-run parameters; together with the network they fix the trace."""

    __slots__ = ()

    def __new__(
        cls, run_until_s: float, mode: SamplingMode = SamplingMode.DETERMINISTIC, seed: int = 0,
        entropy_model: EntropyModel = DEFAULT_ENTROPY_MODEL,
    ) -> RunConfig:
        # A non-finite horizon would schedule clock ticks forever.
        if not (run_until_s > 0 and math.isfinite(run_until_s)):
            raise ValueError(f"run_until must be > 0 s and finite, got {run_until_s}")
        return tuple.__new__(cls, (run_until_s, mode, seed, entropy_model))


def _exponential_delay(tau: float, u: float) -> float:
    """Inverse-CDF exponential draw with mean ``tau`` from one uniform in [0, 1)."""
    return tau * -math.log1p(-u)


_BLOCK = 1024  # uniforms computed per refill of the stream
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """The 128-bit PCG64 state and increment numpy derives from an int seed.

    numpy's SeedSequence splits the seed into 32-bit words and mixes them
    into a four-word pool; ``generate_state(4, uint64)`` hashes the pool
    into the words that ``pcg64_set_seed`` loads.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> shift & _M32 for shift in range(0, seed.bit_length() or 1, 32)]
    h, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(value: int) -> int:
        nonlocal h
        value = (value ^ h) * (h := h * mult & _M32) & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state hashes the pool as hashmix does, with its own constants.
    h, mult = 0x8B51F9DD, 0x58F38DED
    s = [hashmix(pool[i % 4]) for i in range(8)]
    # Little-endian uint64 words 0-1 seed the state, 2-3 pick the stream.
    init = s[1] << 96 | s[0] << 64 | s[3] << 32 | s[2]
    inc = (s[5] << 96 | s[4] << 64 | s[7] << 32 | s[6]) << 1 & _M128 | 1
    # pcg_setseq_128_srandom_r: one step from 0, add the seed, step again.
    return ((inc + init) * _PCG_MULT + inc) & _M128, inc


def _uniforms(state: int, inc: int) -> Iterator[float]:
    """PCG64 (O'Neill 2014): the 128-bit LCG with XSL-RR output, as numpy
    steps it, each output ``x`` giving the double ``(x >> 11) * 2**-53``."""
    while True:
        block = []
        for _ in range(_BLOCK):
            state = (state * _PCG_MULT + inc) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            block.append((((x >> rot | x << 64 - rot) & _M64) >> 11) * 2**-53)
        yield from block


class _NodeRow(NamedTuple):
    """What the loop reads about one node, looked up once per run."""

    spec: TwoLevelSpec
    gap_ev: float
    tolerance_ev: float
    can_detect: bool
    can_emit: bool
    decay: dict[str, float] | None  # a decay's payload after its excitation id; None: the node never decays
    wavelength_nm: float  # of a signal carrying the gap
    arcs: tuple[tuple[ArcId, NodeId, float], ...]  # (arc id, target, delay), by arc id


# Occurrence tags: the index of the handler in Engine._handlers. Fields
# after the tag, by kind:
#   injection  node
#   decay      node, excitation id, parent
#   emission   node, arc id, target, delay, energy, wavelength, parent
#   arrival    arc id, target, energy, parent
#   tick       clock spec, k, parent (None for the first tick)
_INJECTION, _DECAY, _EMISSION, _ARRIVAL, _TICK = range(5)

_NO_PARENTS: frozenset[EventId] = frozenset()


class Engine:
    """Single-threaded event loop over one validated network.

    All mutable state (node states, queue, RNG) is owned by the instance;
    separate instances share nothing and may run in parallel. Identical
    (network, config, injections) give bit-identical traces. The
    constructor refuses a clock whose ticks could share an engine_time
    and a decaying node whose payload would hold a value that is not finite.
    """

    def __init__(
        self,
        network: Network,
        config: RunConfig,
        injections: Iterable[tuple[NodeId, float]] = (),
    ):
        # Tick k is at first + k * period (tick_time), first >= 0. Up to the horizon u, k * period <= u, so it
        # and (k + 1) * period round to floats more than period - ulp(u) apart. When period > 2 * ulp(u), first
        # plus each are reals more than ulp(u) apart: too far apart to round to one float <= u, one engine_time.
        # Such a clock ticks fewer than 2**52 + 1 times up to u, far fewer than a trace's 64-bit event ids.
        until = config.run_until_s
        problems = [f"clock {c.id}: ticks every {c.period_s} s could share an engine_time: "
                    f"the period is within 2 ulps of the horizon {until}"
                    for c in network.clocks if c.first_tick_s <= until and c.period_s <= 2 * math.ulp(until)]
        self._config = config
        self._queue: list[tuple[Any, ...]] = []
        self._seq = itertools.count()
        self._event_ids = itertools.count()
        self._pulse_ids = itertools.count()
        self._excitations = itertools.count()
        # Per node, the id of the excitation it holds; None in the ground state.
        self._states: dict[NodeId, int | None] = dict.fromkeys(n.id for n in network.nodes)
        # Outgoing arcs in arc id order, so fan-out order is reproducible.
        arcs: dict[NodeId, list[tuple[ArcId, NodeId, float]]] = {n.id: [] for n in network.nodes}
        for arc in sorted(network.arcs, key=lambda a: a.id):
            arcs[arc.source].append((arc.id, arc.target, propagation_delay(arc)))
        payloads, node_problems = decay_payloads(network.nodes, config.entropy_model)
        problems += node_problems
        self._rows: dict[NodeId, _NodeRow] = {}
        for node_id, spec, _, tolerance, can_emit, can_detect in network.nodes:
            gap = signal_energy(spec)
            self._rows[node_id] = _NodeRow(spec, gap, tolerance, can_detect, can_emit, payloads.get(node_id),
                                           wavelength_of(gap), tuple(arcs[node_id]))
        if problems:
            raise ValidationFailed(problems)
        self._draws: Iterator[float] | None = None
        if config.mode is SamplingMode.STOCHASTIC:
            self._draws = _uniforms(*_pcg64_seed(config.seed))
        # Clock first ticks are scheduled before injections: at equal
        # engine_time a tick precedes the excitation it may later label.
        for clock in network.clocks:
            self._schedule_tick(clock, 0, None)
        # An injection becomes an external excitation if the node is in its
        # ground state when it is processed, or a pass-through if occupied.
        for node, at in injections:
            if node not in self._states:
                raise UnknownNode(f"no node with id {node}")
            if not (at >= 0 and math.isfinite(at)):
                raise ValueError(f"injection time must be finite and >= 0, got {at}")
            heapq.heappush(self._queue, (at, next(self._seq), _INJECTION, node))

    def events(self) -> Iterator[SimEvent]:
        """Apply pending occurrences in order until the horizon, yielding each event.

        Keeps no event, so a consumer that writes each one as it comes holds none.
        """
        queue, handlers, until = self._queue, self._handlers, self._config.run_until_s
        heappop = heapq.heappop
        while queue and queue[0][0] <= until:
            occ = heappop(queue)
            yield handlers[occ[2]](self, occ)

    def run(self) -> EventTrace:
        """The events of the remaining run, as a trace; a second call returns ()."""
        return tuple(self.events())

    # -- occurrence processing ------------------------------------------

    def _emit_event(
        self, kind: EventKind, node: NodeId, t: float, parents: frozenset[EventId], payload: dict[str, Any]
    ) -> SimEvent:
        return tuple.__new__(SimEvent, (next(self._event_ids), kind, node, t, parents, payload))

    def _schedule_decay(self, row: _NodeRow, node: NodeId, excitation_id: int, t: float, parent: EventId) -> None:
        if row.decay is None:
            return
        tau = row.decay["lifetime_s"]
        delay = tau if self._draws is None else _exponential_delay(tau, next(self._draws))
        heapq.heappush(self._queue, (t + delay, next(self._seq), _DECAY, node, excitation_id, parent))

    def _process_injection(self, occ: tuple[Any, ...]) -> SimEvent:
        t, _, _, node = occ
        row = self._rows[node]
        gap = row.gap_ev
        # An injection delivers exactly the gap energy, so it is resonant
        # by construction; absorb() still arbitrates occupancy.
        excitation = absorb(self._states[node], row.spec, gap, 0.0, self._excitations)
        if excitation is None:
            return self._emit_event(
                EventKind.PASS_THROUGH, node, t, _NO_PARENTS, {"reason": "occupied", "energy_ev": gap}
            )
        self._states[node] = excitation
        event = self._emit_event(
            EventKind.EXTERNAL_EXCITATION,
            node,
            t,
            _NO_PARENTS,
            {"excitation_id": excitation, "energy_ev": gap},
        )
        self._schedule_decay(row, node, excitation, t, event.id)
        return event

    def _process_decay(self, occ: tuple[Any, ...]) -> SimEvent:
        t, _, _, node, excitation_id, parent = occ
        row = self._rows[node]
        # Exactly one decay is scheduled per excitation and nothing else
        # de-excites a node, so the node must still hold this id.
        assert self._states[node] == excitation_id
        self._states[node] = None
        payload = {"excitation_id": excitation_id, **row.decay}
        event = self._emit_event(EventKind.DECAY, node, t, frozenset((parent,)), payload)
        if row.can_emit:
            queue, seq, gap, wavelength, event_id = self._queue, self._seq, row.gap_ev, row.wavelength_nm, event.id
            for arc, target, delay in row.arcs:
                heapq.heappush(queue, (t, next(seq), _EMISSION, node, arc, target, delay, gap, wavelength, event_id))
        return event

    def _process_emission(self, occ: tuple[Any, ...]) -> SimEvent:
        t, _, _, node, arc, target, delay, energy, wavelength, parent = occ
        event = self._emit_event(
            EventKind.EMISSION,
            node,
            t,
            frozenset((parent,)),
            {"arc": arc, "energy_ev": energy, "wavelength_nm": wavelength},
        )
        heapq.heappush(self._queue, (t + delay, next(self._seq), _ARRIVAL, arc, target, energy, event.id))
        return event

    def _process_arrival(self, occ: tuple[Any, ...]) -> SimEvent:
        t, _, _, arc, target, energy, parent = occ
        row = self._rows[target]
        parents = frozenset((parent,))
        if row.can_detect:
            held = self._states[target]
            excitation = absorb(held, row.spec, energy, row.tolerance_ev, self._excitations)
            if excitation is not None:
                self._states[target] = excitation
                event = self._emit_event(
                    EventKind.ABSORPTION,
                    target,
                    t,
                    parents,
                    {"arc": arc, "energy_ev": energy, "excitation_id": excitation},
                )
                self._schedule_decay(row, target, excitation, t, event.id)
                return event
            reason = "off_resonance" if held is None else "occupied"
        else:
            reason = "not_detector"
        return self._emit_event(
            EventKind.PASS_THROUGH, target, t, parents, {"reason": reason, "energy_ev": energy, "arc": arc}
        )

    def _schedule_tick(self, clock: StandardClockSpec, k: int, parent: EventId | None) -> None:
        t = clock.tick_time(k)
        if t <= self._config.run_until_s:
            heapq.heappush(self._queue, (t, next(self._seq), _TICK, clock, k, parent))

    def _process_tick(self, occ: tuple[Any, ...]) -> SimEvent:
        t, _, _, clock, k, parent = occ
        event = self._emit_event(
            EventKind.CLOCK_TICK,
            clock.id,
            t,
            _NO_PARENTS if parent is None else frozenset((parent,)),
            {"pulse_id": next(self._pulse_ids), "counter": clock.counter_start + k},
        )
        self._schedule_tick(clock, k + 1, event.id)
        return event

    # Indexed by occurrence tag; events() dispatches through it.
    _handlers = (_process_injection, _process_decay, _process_emission, _process_arrival, _process_tick)
