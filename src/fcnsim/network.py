"""Static causal-network description and analysis.

Nodes are two-level emitter/detector units placed in space; arcs are
directed signal channels with a propagation delay of distance over c.
Standard clocks attach to a host node and emit counted pulses. The
coupling classifier partitions nodes into collective groups (CENs, nodes
so close that signal transit is negligible against their lifetimes) and
sequential singletons (SENs, the classical step-by-step regime), with the
arcs between groups acting as sequential links.

The network is immutable once validated and safe to share across threads.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

from .constants import CONSTANTS, Checked
from .errors import ValidationFailed
from .events import ArcId, EventId, ExcitationId, NodeId, PulseId  # noqa: F401  (re-exported)
from .quantum import TwoLevelSpec, lifetime, signal_energy

# Fraction of the shorter lifetime that signal transit must stay under for
# two arc-joined nodes to count as collectively coupled.
DEFAULT_COUPLING_FRACTION = 0.01


class ClockNode(
    Checked,
    namedtuple("ClockNode", "id spec position_m resonance_tolerance_ev can_emit can_detect"),
):
    """A two-level node at a position in space.

    With ``can_detect`` the node acts as a detector while in its ground
    state and becomes an emitter once excited; ``can_emit`` gates whether
    its decays launch signals on outgoing arcs. ``resonance_tolerance_ev``
    defaults to 1e-6 of the level gap: exact float resonance would be
    untestable.
    """

    __slots__ = ()

    def __new__(
        cls, id: NodeId, spec: TwoLevelSpec, position_m: tuple[float, float, float] = (0.0, 0.0, 0.0),
        resonance_tolerance_ev: float | None = None, can_emit: bool = True, can_detect: bool = True,
    ) -> ClockNode:
        if resonance_tolerance_ev is None:
            resonance_tolerance_ev = 1e-6 * signal_energy(spec)
        if not (resonance_tolerance_ev >= 0 and math.isfinite(resonance_tolerance_ev)):
            raise ValueError(f"node {id}: resonance tolerance must be finite and >= 0")
        if not all(map(math.isfinite, position_m)):
            raise ValueError(f"node {id}: position must be finite")
        return tuple.__new__(cls, (id, spec, position_m, resonance_tolerance_ev, can_emit, can_detect))


class StandardClockSpec(Checked, namedtuple("StandardClockSpec", "id period_s first_tick_s counter_start")):
    """Cyclic reference clock attached to a host node.

    ``id`` names the node the clock lives at; its pulses happen there.
    Pulse k carries counter ``counter_start + k`` at engine time
    ``first_tick_s + k * period_s``.
    """

    __slots__ = ()

    def __new__(
        cls, id: NodeId, period_s: float, first_tick_s: float = 0.0, counter_start: int = 0
    ) -> StandardClockSpec:
        if not (period_s > 0 and math.isfinite(period_s)):
            raise ValueError(f"clock at node {id}: period must be finite and > 0 s")
        if not math.isfinite(first_tick_s):
            raise ValueError(f"clock at node {id}: first tick must be finite")
        return tuple.__new__(cls, (id, period_s, first_tick_s, counter_start))

    def tick_time(self, k: int) -> float:
        # Single shared expression so engine pulses and extracted time
        # numbers agree bitwise.
        return self.first_tick_s + k * self.period_s


class Arc(Checked, namedtuple("Arc", "id source target distance_m")):
    """Directed signal channel between two distinct nodes."""

    __slots__ = ()

    def __new__(cls, id: ArcId, source: NodeId, target: NodeId, distance_m: float) -> Arc:
        if source == target:
            raise ValueError(f"arc {id}: source and target must differ")
        if not (distance_m >= 0 and math.isfinite(distance_m)):
            raise ValueError(f"arc {id}: distance must be finite and >= 0 m")
        return tuple.__new__(cls, (id, source, target, distance_m))


class CouplingKind:
    """Class tags: CEN = collective excitation network, SEN = sequential."""

    CEN = "cen"
    SEN = "sen"


class CouplingClass(NamedTuple):
    """One element of the coupling partition.

    A CEN lists its member set (sorted); an SEN lists its nodes in order.
    Under the transit-versus-lifetime rule SEN classes are singletons: any
    two nodes fast enough to couple merge into a CEN instead.
    """

    kind: str
    members: tuple[NodeId, ...]


class CouplingClassification(NamedTuple):
    """Partition of all nodes plus the sequential links between classes."""

    classes: tuple[CouplingClass, ...]
    sen_links: tuple[ArcId, ...]


class Network(namedtuple("Network", "nodes arcs clocks", defaults=((),))):
    """Validated, immutable network: nodes, arcs, and standard clocks.

    Equal by value, as the tuple of those three. The id lookups are built
    on first use, or by ``validate_network`` as it checks the ids, and
    kept in the instance ``__dict__``: the class has no ``__slots__``.
    """

    @cached_property
    def node_by_id(self) -> dict[NodeId, ClockNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def arc_by_id(self) -> dict[ArcId, Arc]:
        return {a.id: a for a in self.arcs}

    @cached_property
    def clock_by_node(self) -> dict[NodeId, StandardClockSpec]:
        return {c.id: c for c in self.clocks}


def validate_network(
    nodes: tuple[ClockNode, ...] | list[ClockNode],
    arcs: tuple[Arc, ...] | list[Arc] = (),
    clocks: tuple[StandardClockSpec, ...] | list[StandardClockSpec] = (),
) -> Network:
    """Cross-check the network description and return the immutable Network.

    Collects every problem (duplicate ids, dangling arc endpoints, clocks
    on unknown or doubly-clocked nodes) and raises ValidationFailed with
    the full list; an empty network is vacuously valid. Per-object
    invariants (finite positions, nonnegative distances, level ordering)
    are enforced by the constructors before this point. The id tables
    built here become the network's lookups.
    """
    problems: list[str] = []

    node_by_id: dict[NodeId, ClockNode] = {}
    for node in nodes:
        if node.id in node_by_id:
            problems.append(f"duplicate node id {node.id}")
        node_by_id[node.id] = node

    arc_by_id: dict[ArcId, Arc] = {}
    for arc in arcs:
        arc_id, source, target, _ = arc
        if arc_id in arc_by_id:
            problems.append(f"duplicate arc id {arc_id}")
        arc_by_id[arc_id] = arc
        if source not in node_by_id:
            problems.append(f"arc {arc_id}: unknown source node {source}")
        if target not in node_by_id:
            problems.append(f"arc {arc_id}: unknown target node {target}")

    clock_by_node: dict[NodeId, StandardClockSpec] = {}
    for clock in clocks:
        if clock.id not in node_by_id:
            problems.append(f"clock declared at unknown node {clock.id}")
        if clock.id in clock_by_node:
            problems.append(f"node {clock.id} carries more than one standard clock")
        clock_by_node[clock.id] = clock

    if problems:
        raise ValidationFailed(problems)
    network = Network(tuple(nodes), tuple(arcs), tuple(clocks))
    vars(network).update(node_by_id=node_by_id, arc_by_id=arc_by_id, clock_by_node=clock_by_node)
    return network


def propagation_delay(arc: Arc) -> float:
    """Signal transit time along an arc: distance / c, in seconds.

    This division is the single arithmetic step defining arrival times;
    absorption times downstream are exactly emission time plus this value.
    """
    return arc.distance_m / CONSTANTS.c_m_per_s


def _node_lifetime(node: ClockNode) -> float:
    if node.spec.gamma_ev is None:
        return math.inf
    return lifetime(node.spec.gamma_ev)


def classify_coupling(
    network: Network, coupling_fraction: float = DEFAULT_COUPLING_FRACTION
) -> CouplingClassification:
    """Partition nodes into collective groups and sequential singletons.

    Two arc-joined nodes couple collectively when the signal transit time
    is under ``coupling_fraction`` of the shorter of their lifetimes
    (stable nodes count as infinitely long-lived). Connected components
    under that relation of size two or more are CENs; every remaining node
    is a sequential singleton. Arcs crossing class boundaries are the
    sequential links. Deterministic for a given network.
    """
    if not coupling_fraction > 0:
        raise ValueError(f"coupling fraction must be > 0, got {coupling_fraction}")

    parent: dict[NodeId, NodeId] = {n.id: n.id for n in network.nodes}

    def find(x: NodeId) -> NodeId:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: NodeId, b: NodeId) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    def coupled(arc: Arc) -> bool:
        src = network.node_by_id[arc.source]
        dst = network.node_by_id[arc.target]
        shorter = min(_node_lifetime(src), _node_lifetime(dst))
        return propagation_delay(arc) < coupling_fraction * shorter

    for arc in network.arcs:
        if coupled(arc):
            union(arc.source, arc.target)

    groups: dict[NodeId, list[NodeId]] = {}
    for node in network.nodes:
        groups.setdefault(find(node.id), []).append(node.id)

    classes = tuple(
        CouplingClass(
            kind=CouplingKind.CEN if len(members) > 1 else CouplingKind.SEN,
            members=tuple(sorted(members)),
        )
        for _, members in sorted(groups.items())
    )
    sen_links = tuple(
        arc.id for arc in sorted(network.arcs, key=lambda a: a.id) if find(arc.source) != find(arc.target)
    )
    return CouplingClassification(classes=classes, sen_links=sen_links)
