"""Shared builders: the canonical chain fixture and random networks."""

from __future__ import annotations

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
