"""Shared builders: the canonical chain fixture and random networks."""

from __future__ import annotations

import math
import random

from fcnsim import (
    Arc,
    ClockNode,
    Engine,
    EnergyLevel,
    Network,
    RunConfig,
    SamplingMode,
    StandardClockSpec,
    TwoLevelSpec,
    validate_network,
)
from fcnsim.constants import CONSTANTS

HBAR = CONSTANTS.hbar_ev_s
C = CONSTANTS.c_m_per_s


def two_level(gap: float = 1.5, gamma: float | None = None) -> TwoLevelSpec:
    return TwoLevelSpec(EnergyLevel("ground", 0.0), EnergyLevel("excited", gap), gamma_ev=gamma)


def make_node(node_id: int, gap: float = 1.5, tau: float | None = None, **kwargs) -> ClockNode:
    """Node with lifetime ``tau`` seconds (None for a stable node)."""
    gamma = None if tau is None else HBAR / tau
    return ClockNode(id=node_id, spec=two_level(gap, gamma), **kwargs)


def chain_network() -> tuple[Network, list[tuple[int, float]]]:
    """The shipped 3-node chain: A (tau 1 s) -> B (tau 2 s) -> C (stable).

    Signal transit is 0.5 s on A->B and 0.25 s on B->C; a period-1 s clock
    sits at C. All times in the resulting deterministic trace are exact
    binary64 values.
    """
    nodes = [
        make_node(1, tau=1.0),
        make_node(2, tau=2.0, position_m=(149896229.0, 0.0, 0.0)),
        make_node(3, position_m=(224844343.5, 0.0, 0.0), can_emit=False),
    ]
    arcs = [
        Arc(id=1, source=1, target=2, distance_m=149896229.0),
        Arc(id=2, source=2, target=3, distance_m=74948114.5),
    ]
    clocks = [StandardClockSpec(id=3, period_s=1.0, first_tick_s=0.0, counter_start=0)]
    return validate_network(nodes, arcs, clocks), [(1, 0.0)]


def four_clock_network() -> tuple[Network, list[tuple[int, float]]]:
    """Eight relays with fan-out and fan-in, watched by four clocks.

    The clocks differ in period and origin; the slowest starts after the
    first absorptions, so it skips some. Deterministic to 4 s the run has
    42 absorptions, 59 causally ordered pairs and ties at every clock
    but the finest.
    """
    taus = [0.3, 0.2, 0.25, 0.15, 0.2, 0.1, 0.3, None]
    nodes = [make_node(i, tau=tau) for i, tau in enumerate(taus, start=1)]
    links = [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (2, 5), (5, 6), (6, 7), (7, 8), (3, 7)]
    arcs = [
        Arc(id=k, source=s, target=d, distance_m=(0.05 + 0.01 * k) * C)
        for k, (s, d) in enumerate(links, start=1)
    ]
    clocks = [
        StandardClockSpec(id=host, period_s=period, first_tick_s=first)
        for host, period, first in zip((8, 5, 3, 2), (0.125, 0.3, 0.5, 0.7), (0.0, 0.05, 0.2, 1.0))
    ]
    return validate_network(nodes, arcs, clocks), [(1, t) for t in (0.0, 0.45, 0.9, 1.6, 2.2)]


def broadcast_network() -> tuple[Network, list[tuple[int, float]]]:
    """One hub fanning out to forty detectors that do not re-emit, and three clocks.

    Generated from a fixed seed. Every fifth detector is off resonance and
    every seventh is deaf; the detectors live 0.5-2 s, so most are still
    excited at the next shot and the arrival passes through. Only an
    absorption's decay descends from it, as in the benchmark's broadcast
    workload.
    """
    rng = random.Random(20261019)
    nodes = [make_node(1, tau=0.05)]
    for i in range(2, 42):
        nodes.append(
            make_node(
                i,
                gap=2.0 if i % 5 == 0 else 1.5,
                tau=rng.uniform(0.5, 2.0),
                position_m=(rng.uniform(1e6, 3e7), 0.0, 0.0),
                can_emit=False,
                can_detect=i % 7 != 0,
            )
        )
    arcs = [
        Arc(id=k, source=1, target=n.id, distance_m=n.position_m[0])
        for k, n in enumerate(nodes[1:], start=1)
    ]
    clocks = [
        StandardClockSpec(id=host, period_s=period, first_tick_s=0.001 * k)
        for k, (host, period) in enumerate(zip((3, 11, 26), (0.02, 0.03, 0.05)), start=1)
    ]
    return validate_network(nodes, arcs, clocks), [(1, 0.01 + 0.25 * k) for k in range(8)]


def mixed_network() -> tuple[Network, list[tuple[int, float]]]:
    """Thirty relays on two channels, some deaf and some stable, and three clocks.

    Generated from a fixed seed. A stochastic run to 5 s (seed 5) has more
    than a thousand decays and pass-throughs of all three kinds (occupied,
    off_resonance, not_detector).
    """
    rng = random.Random(20261018)
    nodes = [
        make_node(
            i,
            gap=2.0 if i % 7 == 0 else 1.5,
            tau=None if i % 11 == 0 else rng.uniform(0.005, 0.03),
            position_m=(rng.uniform(0, 3e7), rng.uniform(0, 3e7), 0.0),
            can_emit=i % 13 != 0,
            can_detect=i % 5 != 0,
        )
        for i in range(1, 31)
    ]
    arcs = []
    for k in range(1, 91):
        src, dst = rng.sample(range(1, 31), 2)
        arcs.append(Arc(id=k, source=src, target=dst, distance_m=rng.uniform(0.0, 0.05) * C))
    clocks = [
        StandardClockSpec(id=3, period_s=0.05),
        StandardClockSpec(id=10, period_s=0.07, first_tick_s=0.01, counter_start=5),
        StandardClockSpec(id=22, period_s=0.11, first_tick_s=0.2),
    ]
    injections = [(rng.randint(1, 30), rng.uniform(0.0, 2.0)) for _ in range(24)]
    return validate_network(nodes, arcs, clocks), injections


def network_document(network: Network, injections) -> dict:
    """The network document (``fcnsim run`` input) describing ``network``."""
    return {
        "schema_version": "1",
        "nodes": [
            {
                "id": n.id,
                "ground_ev": n.spec.ground.energy_ev,
                "excited_ev": n.spec.excited.energy_ev,
                **({} if n.spec.gamma_ev is None else {"gamma_ev": n.spec.gamma_ev}),
                "position_m": list(n.position_m),
                "resonance_tolerance_ev": n.resonance_tolerance_ev,
                "can_emit": n.can_emit,
                "can_detect": n.can_detect,
            }
            for n in network.nodes
        ],
        "arcs": [
            {"id": a.id, "source": a.source, "target": a.target, "distance_m": a.distance_m}
            for a in network.arcs
        ],
        "standard_clocks": [
            {
                "id": c.id,
                "period_s": c.period_s,
                "first_tick_s": c.first_tick_s,
                "counter_start": c.counter_start,
            }
            for c in network.clocks
        ],
        "injections": [{"node": node, "at_s": at} for node, at in injections],
    }


def random_network(rng: random.Random) -> tuple[Network, list[tuple[int, float]]]:
    """A small random network with enough resonant arcs to form chains."""
    n = rng.randint(2, 20)
    nodes = []
    for i in range(1, n + 1):
        tau = None if rng.random() < 0.15 else rng.uniform(0.1, 2.0)
        # Most nodes sit on one shared channel so resonant chains can form.
        gap = 1.5 if rng.random() < 0.65 else rng.choice((1.0, 2.0))
        nodes.append(
            make_node(
                i,
                gap=gap,
                tau=tau,
                position_m=(rng.uniform(0, 1e8), rng.uniform(0, 1e8), rng.uniform(0, 1e8)),
                can_emit=rng.random() < 0.9,
                can_detect=rng.random() < 0.9,
            )
        )
    arcs = []
    for k in range(1, rng.randint(2, min(3 * n, 40)) + 1):
        src, dst = rng.sample(range(1, n + 1), 2)
        distance = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 0.3) * C
        arcs.append(Arc(id=k, source=src, target=dst, distance_m=distance))
    clocks = []
    if rng.random() < 0.7:
        clocks.append(
            StandardClockSpec(id=rng.randint(1, n), period_s=rng.choice((0.125, 0.25, 0.5, 1.0)))
        )
    injections = [
        (rng.randint(1, n), rng.uniform(0.0, 2.0)) for _ in range(rng.randint(1, 6))
    ]
    return validate_network(nodes, arcs, clocks), injections


def random_config(rng: random.Random) -> RunConfig:
    stochastic = rng.random() < 0.5
    return RunConfig(
        run_until_s=rng.uniform(2.0, 4.0),
        mode=SamplingMode.STOCHASTIC if stochastic else SamplingMode.DETERMINISTIC,
        seed=rng.randrange(2**32),
    )


def random_run(case_seed: int) -> tuple[Network, list[tuple[int, float]], RunConfig, tuple]:
    """One seeded random network plus its executed trace."""
    rng = random.Random(case_seed)
    network, injections = random_network(rng)
    config = random_config(rng)
    trace = Engine(network, config, injections).run()
    return network, injections, config, trace


# -- trace checkers shared by the property and acceptance suites --------
#
# Each returns a list of problem strings; an empty list means the trace
# satisfies the invariant.

from fcnsim import EventKind  # noqa: E402  (import after builders for readability)


def check_decay_once(trace) -> list[str]:
    """No excitation id may appear in two decay events."""
    problems = []
    seen: dict[int, int] = {}
    for event in trace:
        if event.kind is not EventKind.DECAY:
            continue
        exc = event.payload["excitation_id"]
        if exc in seen:
            problems.append(f"excitation {exc} decayed in events {seen[exc]} and {event.id}")
        seen[exc] = event.id
    return problems


def check_decay_provenance(trace) -> list[str]:
    """Every decay chain must reach an injection through real excitations.

    The direct parent must be an absorption or external excitation
    carrying the same excitation id, and walking parents must terminate
    at an external excitation: nothing gets excited spontaneously.
    """
    problems = []
    by_id = {e.id: e for e in trace}
    exciting = (EventKind.ABSORPTION, EventKind.EXTERNAL_EXCITATION)
    for event in trace:
        if event.kind is not EventKind.DECAY:
            continue
        if len(event.parents) != 1:
            problems.append(f"decay {event.id} has {len(event.parents)} parents")
            continue
        parent = by_id[next(iter(event.parents))]
        if parent.kind not in exciting:
            problems.append(f"decay {event.id} parent {parent.id} is {parent.kind.value}")
        elif parent.payload["excitation_id"] != event.payload["excitation_id"]:
            problems.append(f"decay {event.id} excitation id differs from parent {parent.id}")
        cursor = event
        while cursor.kind is not EventKind.EXTERNAL_EXCITATION:
            if not cursor.parents:
                problems.append(f"decay {event.id} chain dead-ends at event {cursor.id}")
                break
            cursor = by_id[min(cursor.parents)]
    return problems


def check_causality(trace, network) -> list[str]:
    """Absorptions happen exactly one arc delay after their emission.

    The comparison recomputes distance / c and the addition, so it is
    bitwise, not approximate.
    """
    problems = []
    by_id = {e.id: e for e in trace}
    for event in trace:
        if event.kind is not EventKind.ABSORPTION:
            continue
        emission = by_id[next(iter(event.parents))]
        if emission.kind is not EventKind.EMISSION:
            problems.append(f"absorption {event.id} parent is {emission.kind.value}")
            continue
        arc = network.arc_by_id[event.payload["arc"]]
        expected = emission.engine_time + arc.distance_m / C
        if event.engine_time != expected:
            problems.append(
                f"absorption {event.id} at {event.engine_time!r}, expected {expected!r}"
            )
    return problems


def check_conservation(trace) -> list[str]:
    """Absorbed energy equals the provenance emission's energy exactly."""
    problems = []
    by_id = {e.id: e for e in trace}
    for event in trace:
        if event.kind is not EventKind.ABSORPTION:
            continue
        emission = by_id[next(iter(event.parents))]
        if event.payload["energy_ev"] != emission.payload["energy_ev"]:
            problems.append(f"absorption {event.id} energy differs from emission {emission.id}")
    return problems


def check_parent_order(trace) -> list[str]:
    """Parents precede children in (engine_time, event id) order."""
    problems = []
    by_id = {e.id: e for e in trace}
    for event in trace:
        for pid in event.parents:
            parent = by_id[pid]
            if (parent.engine_time, parent.id) >= (event.engine_time, event.id):
                problems.append(f"event {event.id} precedes its parent {pid}")
    return problems


# -- reference chronology: the set-based ancestry check -----------------
#
# The library counts ancestry with one bitset per live event; these copy
# every labeled ancestor into a per-event set instead. Quadratic on
# chains, but simple enough to trust as the oracle.

from fcnsim import CausalViolation, ResolutionReport  # noqa: E402


def reference_labeled_ancestors(targets, trace) -> dict[int, set[int]]:
    """For each event in ``targets``, the target events among its ancestors."""
    anc: dict[int, set[int]] = {}
    for event in sorted(trace, key=lambda e: e.id):
        found: set[int] = set()
        for p in event.parents:
            found |= anc.get(p, set())
            if p in targets:
                found.add(p)
        anc[event.id] = found
    return {t: anc.get(t, set()) for t in targets}


def reference_violations(timeline, trace) -> tuple:
    """Causal inversions among a timeline's entries, by descendant then ancestor."""
    by_event = {lb.event: lb for lb in timeline.entries}
    violations = []
    for descendant, ancestors in reference_labeled_ancestors(set(by_event), trace).items():
        for ancestor in ancestors:
            t_anc = by_event[ancestor].time_number_s
            t_desc = by_event[descendant].time_number_s
            if t_anc > t_desc:
                violations.append(CausalViolation(ancestor, descendant, t_anc, t_desc))
    violations.sort(key=lambda v: (v.descendant, v.ancestor))
    return tuple(violations)


def reference_resolution(timeline, trace):
    """Ordered and same-label entry pairs, counted pair by pair."""
    by_event = {lb.event: lb for lb in timeline.entries}
    ordered = indistinguishable = 0
    for descendant, ancestors in reference_labeled_ancestors(set(by_event), trace).items():
        for ancestor in ancestors:
            ordered += 1
            if by_event[ancestor].time_number_s == by_event[descendant].time_number_s:
                indistinguishable += 1
    return ResolutionReport(
        causally_ordered_pairs=ordered,
        indistinguishable_pairs=indistinguishable,
        distinct_labels=len({lb.time_number_s for lb in timeline.entries}),
    )


# -- reference trace record reader -----------------------------------------
#
# The record check the trace reader made before it decoded lines with the
# C scanner and checked types by identity, copied as it was, plus the later
# rejection of float literals beyond the range: the oracle for the reader's
# events and its messages.

from typing import Any  # noqa: E402

from fcnsim import ParseError, SimEvent  # noqa: E402
from fcnsim.io import ENTROPY_COLUMNS  # noqa: E402

_MAX_ID = 2**64 - 1
_BASE_KEYS = ("id", "kind", "node", "engine_time", "parents")
_BASE_KEY_SET = frozenset(_BASE_KEYS)
_KINDS = {kind.value: kind for kind in EventKind}
# The payload fields the analysis commands read, by kind, with their types:
# the clock pulse pairing reads the ticks, the entropy report the decays.
_READ_FIELDS: dict[EventKind, tuple[tuple[str, str], ...]] = {
    EventKind.CLOCK_TICK: (("pulse_id", "int"), ("counter", "int")),
    EventKind.DECAY: tuple((name, "number") for name in ENTROPY_COLUMNS[1:]),
}


def _check_payload(
    fields: tuple[tuple[str, str], ...], payload: dict[str, Any], where: str
) -> None:
    missing = [name for name, _ in fields if name not in payload]
    if missing:
        raise ParseError(f"missing field(s): {', '.join(missing)}", where)
    for name, type_name in fields:
        value = payload[name]
        if type_name == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParseError(f"{name!r} must be an integer", where)
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f"{name!r} must be a number", where)


def reference_record_to_event(record: dict[str, Any], where: str = "record") -> SimEvent:
    """Build an event from one decoded record.

    The event takes the record over: the base fields are removed from it
    and what is left becomes the payload. Raises ParseError, with
    ``where`` in the message, for a missing or mistyped base field, an
    unknown kind, or a missing or mistyped payload field that the
    analysis commands read.
    """
    if not isinstance(record, dict):
        raise ParseError("expected an object", where)
    if not record.keys() >= _BASE_KEY_SET:
        missing = [k for k in _BASE_KEYS if k not in record]
        raise ParseError(f"missing field(s): {', '.join(missing)}", where)
    try:
        kind = _KINDS[record["kind"]]
    except (KeyError, TypeError):  # TypeError: an unhashable kind, such as a list
        raise ParseError(f"unknown event kind {record['kind']!r}", where) from None
    del record["kind"]
    event_id, node, t = record.pop("id"), record.pop("node"), record.pop("engine_time")
    parents = record.pop("parents")
    # Ids follow the network reader's rule: unsigned 64-bit, never a bool.
    if type(event_id) is not int or type(node) is not int:
        raise ParseError("'id' and 'node' must be integers", where)
    if not (0 <= event_id <= _MAX_ID and 0 <= node <= _MAX_ID):
        name, value = ("node", node) if 0 <= event_id <= _MAX_ID else ("id", event_id)
        raise ParseError(f"{name!r} must be an unsigned 64-bit integer, got {value}", where)
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise ParseError("'engine_time' must be a number", where)
    if type(parents) is not list or not all(type(p) is int and 0 <= p <= _MAX_ID for p in parents):
        if type(parents) is list and all(type(p) is int for p in parents):
            raise ParseError("'parents' must be an array of unsigned 64-bit integers", where)
        raise ParseError("'parents' must be an array of integers", where)
    fields = _READ_FIELDS.get(kind)
    if fields:
        _check_payload(fields, record, where)
    try:
        engine_time = float(t)
    except OverflowError:  # an int beyond the float range
        raise ParseError("'engine_time' is beyond the float range", where) from None
    # A float literal beyond the range, such as 1e999, decodes to an infinity.
    for name, value in (("engine_time", t), *((name, record[name]) for name, _ in fields or ())):
        if isinstance(value, float) and math.isinf(value):
            raise ParseError(f"{name!r} is beyond the float range", where)
    return SimEvent(
        id=event_id,
        kind=kind,
        node=node,
        engine_time=engine_time,
        parents=frozenset(parents),
        payload=record,
    )
