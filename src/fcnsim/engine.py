"""Deterministic discrete-event engine for causal clock networks.

The engine owns a priority queue of pending occurrences ordered by
(engine_time, scheduling sequence number); the sequence number breaks
ties so reruns are bit-identical. Popping an occurrence applies its
effect, appends exactly one event to the trace, and schedules any
children. Event ids are assigned in emission order, so the trace is
totally ordered by (engine_time, id).

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
per run. Deterministic mode uses the lifetime itself as the delay.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterable

from .constants import CONSTANTS, PhysicalConstants
from .entropy import DEFAULT_ENTROPY_MODEL, EntropyLedger, EntropyModel
from .errors import Exhausted, UnknownNode
from .network import (
    DEFAULT_COUPLING_FRACTION,
    ArcId,
    CouplingClassification,
    EventId,
    Network,
    NodeId,
    classify_coupling,
    propagation_delay,
)
from .quantum import (
    ConfigurationState,
    ExcitationIds,
    absorb,
    decay,
    lifetime,
    signal_energy,
    wavelength_of,
)

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)


class EventKind(str, Enum):
    EXTERNAL_EXCITATION = "external_excitation"
    ABSORPTION = "absorption"
    DECAY = "decay"
    EMISSION = "emission"
    CLOCK_TICK = "clock_tick"
    PASS_THROUGH = "pass_through"


@dataclass(frozen=True, slots=True)
class SimEvent:
    """One causal happening, as recorded in the trace.

    ``parents`` holds the ids of the events that caused this one; parents
    always precede their children in (engine_time, id) order. ``payload``
    is kind-specific and treated as immutable.
    """

    id: EventId
    kind: EventKind
    node: NodeId
    engine_time: float
    parents: frozenset[EventId]
    payload: dict[str, Any]


EventTrace = tuple[SimEvent, ...]


@dataclass(frozen=True)
class SignalInFlight:
    """A photon-like carrier traversing one arc."""

    energy_ev: float
    wavelength_nm: float
    arc: ArcId
    emitted_at: float
    arrives_at: float
    provenance: EventId


class SamplingMode(Enum):
    DETERMINISTIC = "deterministic"
    STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class RunConfig:
    """Per-run parameters; together with the network they fix the trace."""

    run_until_s: float
    mode: SamplingMode = SamplingMode.DETERMINISTIC
    seed: int = 0
    coupling_fraction: float = DEFAULT_COUPLING_FRACTION
    entropy_model: EntropyModel = DEFAULT_ENTROPY_MODEL

    def __post_init__(self) -> None:
        if not self.run_until_s > 0:
            raise ValueError(f"run_until must be > 0 s, got {self.run_until_s}")


def sample_decay_delay(
    gamma_ev: float | None,
    mode: SamplingMode,
    rng: np.random.Generator | None = None,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """Delay between excitation and decay for a node with rate ``gamma_ev``.

    Deterministic mode returns the lifetime exactly. Stochastic mode
    returns an exponential draw with the lifetime as its mean, computed by
    inverse CDF from exactly one uniform taken off ``rng``.
    """
    tau = lifetime(gamma_ev, constants)
    if mode is SamplingMode.DETERMINISTIC:
        return tau
    if rng is None:
        raise ValueError("stochastic sampling requires a generator")
    u = rng.random()
    return tau * -math.log1p(-u)


# Internal scheduler entries. Each kind produces exactly one trace event
# when popped; parent event ids are known at scheduling time because the
# parent has already been emitted.


@dataclass(frozen=True)
class _Injection:
    node: NodeId


@dataclass(frozen=True)
class _DecayDue:
    node: NodeId
    excitation_id: int
    parent: EventId


@dataclass(frozen=True)
class _Emit:
    node: NodeId
    arc: ArcId
    energy_ev: float
    parent: EventId


@dataclass(frozen=True)
class _Arrival:
    signal: SignalInFlight


@dataclass(frozen=True)
class _Tick:
    node: NodeId
    k: int
    parent: EventId | None


class Engine:
    """Single-threaded event loop over one validated network.

    All mutable state (node configurations, queue, trace, ledger, RNG)
    is owned by the instance; separate instances share nothing and may
    run in parallel. Identical (network, config, injections) give
    bit-identical traces.
    """

    def __init__(
        self,
        network: Network,
        config: RunConfig,
        injections: Iterable[tuple[NodeId, float]] = (),
        constants: PhysicalConstants = CONSTANTS,
    ):
        self._network = network
        self._config = config
        self._constants = constants
        self._queue: list[tuple[float, int, Any]] = []
        self._seq = itertools.count()
        self._event_ids = itertools.count()
        self._pulse_ids = itertools.count()
        self._excitations = ExcitationIds()
        self._states = {n.id: ConfigurationState.in_ground() for n in network.nodes}
        self._trace: list[SimEvent] = []
        self._ledger = EntropyLedger(constants)
        self._rng = None
        if config.mode is SamplingMode.STOCHASTIC:
            # numpy is imported here, not at module level, so that commands
            # that never draw (analysis, deterministic runs) do not load it.
            import numpy as np

            self._rng = np.random.Generator(np.random.PCG64(config.seed))
        # Clock first ticks are scheduled before injections: at equal
        # engine_time a tick precedes the excitation it may later label.
        for clock in network.clocks:
            if clock.tick_time(0) <= config.run_until_s:
                self._schedule(clock.tick_time(0), _Tick(node=clock.id, k=0, parent=None))
        for node, at in injections:
            self.inject_excitation(node, at)

    @property
    def network(self) -> Network:
        return self._network

    @property
    def config(self) -> RunConfig:
        return self._config

    @property
    def trace(self) -> EventTrace:
        return tuple(self._trace)

    @property
    def entropy_ledger(self) -> EntropyLedger:
        return self._ledger

    @property
    def coupling(self) -> CouplingClassification:
        return classify_coupling(self._network, self._config.coupling_fraction, self._constants)

    def inject_excitation(self, node: NodeId, at: float) -> int:
        """Schedule an external excitation of ``node`` at engine time ``at``.

        Returns the scheduling sequence number as a handle. The trace event
        materializes when the occurrence is processed: it becomes an
        external excitation if the node is then in its ground state, or a
        pass-through if the node is already occupied.
        """
        if node not in self._states:
            raise UnknownNode(f"no node with id {node}")
        if not (at >= 0 and math.isfinite(at)):
            raise ValueError(f"injection time must be finite and >= 0, got {at}")
        return self._schedule(at, _Injection(node=node))

    def step(self) -> SimEvent:
        """Pop the earliest pending occurrence and apply it.

        Ties in engine_time resolve by scheduling order. Raises Exhausted
        when nothing is pending within the run horizon.
        """
        if not self._queue or self._queue[0][0] > self._config.run_until_s:
            raise Exhausted("no pending occurrences within run_until")
        t, _, occ = heapq.heappop(self._queue)
        if isinstance(occ, _Injection):
            return self._process_injection(t, occ)
        if isinstance(occ, _DecayDue):
            return self._process_decay(t, occ)
        if isinstance(occ, _Emit):
            return self._process_emission(t, occ)
        if isinstance(occ, _Arrival):
            return self._process_arrival(t, occ)
        if isinstance(occ, _Tick):
            return self._process_tick(t, occ)
        raise AssertionError(f"unknown occurrence {occ!r}")

    def run(self) -> EventTrace:
        """Step until exhausted and return the trace snapshot."""
        while True:
            try:
                self.step()
            except Exhausted:
                break
        return self.trace

    # -- occurrence processing ------------------------------------------

    def _schedule(self, t: float, occ: Any) -> int:
        seq = next(self._seq)
        heapq.heappush(self._queue, (t, seq, occ))
        return seq

    def _emit_event(
        self,
        kind: EventKind,
        node: NodeId,
        t: float,
        parents: frozenset[EventId],
        payload: dict[str, Any],
    ) -> SimEvent:
        event = SimEvent(
            id=next(self._event_ids),
            kind=kind,
            node=node,
            engine_time=t,
            parents=parents,
            payload=payload,
        )
        self._trace.append(event)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("event %d %s node=%d t=%r", event.id, kind.value, node, t)
        return event

    def _schedule_decay(self, node_id: NodeId, excitation_id: int, t: float, parent: EventId) -> None:
        spec = self._network.node_by_id[node_id].spec
        if not spec.can_decay:
            return
        delay = sample_decay_delay(spec.gamma_ev, self._config.mode, self._rng, self._constants)
        self._schedule(t + delay, _DecayDue(node=node_id, excitation_id=excitation_id, parent=parent))

    def _process_injection(self, t: float, occ: _Injection) -> SimEvent:
        node = self._network.node_by_id[occ.node]
        gap = signal_energy(node.spec)
        # An injection delivers exactly the gap energy, so it is resonant
        # by construction; absorb() still arbitrates occupancy.
        outcome = absorb(self._states[occ.node], node.spec, gap, 0.0, self._excitations)
        if outcome is None:
            return self._emit_event(
                EventKind.PASS_THROUGH,
                occ.node,
                t,
                frozenset(),
                {"reason": "occupied", "energy_ev": gap},
            )
        self._states[occ.node] = outcome
        event = self._emit_event(
            EventKind.EXTERNAL_EXCITATION,
            occ.node,
            t,
            frozenset(),
            {"excitation_id": outcome.excitation_id, "energy_ev": gap},
        )
        self._schedule_decay(occ.node, outcome.excitation_id, t, event.id)
        return event

    def _process_decay(self, t: float, occ: _DecayDue) -> SimEvent:
        node = self._network.node_by_id[occ.node]
        state = self._states[occ.node]
        # Exactly one decay is scheduled per excitation and nothing else
        # de-excites a node, so the state must still carry this id.
        assert state.excitation_id == occ.excitation_id
        ground, emitted = decay(state, node.spec)
        self._states[occ.node] = ground
        event_id = next(self._event_ids)
        entry = self._ledger.record_decay(
            event_id, emitted, node.spec.gamma_ev, self._config.entropy_model
        )
        event = SimEvent(
            id=event_id,
            kind=EventKind.DECAY,
            node=occ.node,
            engine_time=t,
            parents=frozenset({occ.parent}),
            payload={
                "excitation_id": occ.excitation_id,
                "energy_ev": emitted,
                "gamma_ev": node.spec.gamma_ev,
                "ds_internal": entry.breakdown.ds_internal,
                "ds_signal": entry.breakdown.ds_signal,
                "ds_vacuum": entry.breakdown.ds_vacuum,
                "total": entry.breakdown.total(),
                "production_rate": entry.production_rate_kb_per_s,
                "lifetime_s": entry.lifetime_s,
            },
        )
        self._trace.append(event)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("event %d decay node=%d t=%r", event.id, occ.node, t)
        if node.can_emit:
            for arc in self._network.outgoing[occ.node]:
                self._schedule(t, _Emit(node=occ.node, arc=arc.id, energy_ev=emitted, parent=event.id))
        return event

    def _process_emission(self, t: float, occ: _Emit) -> SimEvent:
        arc = self._network.arc_by_id[occ.arc]
        wavelength = wavelength_of(occ.energy_ev, self._constants)
        event = self._emit_event(
            EventKind.EMISSION,
            occ.node,
            t,
            frozenset({occ.parent}),
            {"arc": occ.arc, "energy_ev": occ.energy_ev, "wavelength_nm": wavelength},
        )
        signal = SignalInFlight(
            energy_ev=occ.energy_ev,
            wavelength_nm=wavelength,
            arc=occ.arc,
            emitted_at=t,
            arrives_at=t + propagation_delay(arc, self._constants),
            provenance=event.id,
        )
        self._schedule(signal.arrives_at, _Arrival(signal=signal))
        return event

    def _process_arrival(self, t: float, occ: _Arrival) -> SimEvent:
        signal = occ.signal
        arc = self._network.arc_by_id[signal.arc]
        target = self._network.node_by_id[arc.target]
        parents = frozenset({signal.provenance})

        def pass_through(reason: str) -> SimEvent:
            return self._emit_event(
                EventKind.PASS_THROUGH,
                arc.target,
                t,
                parents,
                {"reason": reason, "energy_ev": signal.energy_ev, "arc": signal.arc},
            )

        if not target.can_detect:
            return pass_through("not_detector")
        state = self._states[arc.target]
        outcome = absorb(
            state, target.spec, signal.energy_ev, target.resonance_tolerance_ev, self._excitations
        )
        if outcome is None:
            return pass_through("occupied" if state.is_excited else "off_resonance")
        self._states[arc.target] = outcome
        event = self._emit_event(
            EventKind.ABSORPTION,
            arc.target,
            t,
            parents,
            {"arc": signal.arc, "energy_ev": signal.energy_ev, "excitation_id": outcome.excitation_id},
        )
        self._schedule_decay(arc.target, outcome.excitation_id, t, event.id)
        return event

    def _process_tick(self, t: float, occ: _Tick) -> SimEvent:
        clock = self._network.clock_by_node[occ.node]
        pulse_id = next(self._pulse_ids)
        event = self._emit_event(
            EventKind.CLOCK_TICK,
            occ.node,
            t,
            frozenset() if occ.parent is None else frozenset({occ.parent}),
            {"pulse_id": pulse_id, "counter": clock.counter_start + occ.k},
        )
        next_t = clock.tick_time(occ.k + 1)
        if next_t <= self._config.run_until_s:
            self._schedule(next_t, _Tick(node=occ.node, k=occ.k + 1, parent=event.id))
        return event
