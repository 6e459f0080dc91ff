"""Static causal-network description and analysis.

Nodes are two-level emitter/detector units placed in space; arcs are
directed signal channels with a propagation delay of distance over c.
Standard clocks attach to a host node and emit counted pulses. The
coupling classifier partitions nodes into collective groups (CENs, nodes
so close that signal transit is negligible against their lifetimes) and
sequential singletons (SENs, the classical step-by-step regime), with the
arcs between groups acting as sequential links.

The network is immutable once validated and safe to share across threads.
``parse_network`` reads it from a network document: strict UTF-8 JSON with
unit-suffixed field names (energy_ev, distance_m, period_s), whose unknown
fields are rejected so unit mistakes cannot hide in ignored keys.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from functools import cached_property
from pathlib import Path
from typing import Any, NamedTuple

from .constants import CONSTANTS, Checked
from .errors import ParseError, ValidationFailed
from .events import _INFINITE, _MAX_ID, _NUMBER
from .events import ArcId, EventId, ExcitationId, NodeId, PulseId  # noqa: F401  (re-exported)
from .quantum import EnergyLevel, TwoLevelSpec, lifetime, signal_energy

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
        if not (first_tick_s >= 0 and math.isfinite(first_tick_s)):
            raise ValueError(f"clock at node {id}: first tick must be finite and >= 0 s")
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


# -- network document ----------------------------------------------------

SCHEMA_VERSION = "1"


class Injection(NamedTuple):
    """One external excitation request: node and engine time."""

    node: NodeId
    at_s: float


class NetworkDocument(NamedTuple):
    """Parsed and validated network description."""

    schema_version: str
    network: Network
    injections: tuple[Injection, ...]


# Fields each object may hold; any other is reported once the known ones pass.
_DOCUMENT_KEYS = frozenset(("schema_version", "nodes", "arcs", "standard_clocks", "injections"))
_NODE_KEYS = frozenset(
    ("id", "ground_ev", "excited_ev", "gamma_ev", "position_m", "resonance_tolerance_ev", "can_emit", "can_detect")
)
_ARC_KEYS = frozenset(("id", "source", "target", "distance_m"))
_CLOCK_KEYS = frozenset(("id", "period_s", "first_tick_s", "counter_start"))
_INJECTION_KEYS = frozenset(("node", "at_s"))
_U64 = "must be an unsigned 64-bit integer"


# The reader tests each field inline, by exact type, as the trace reader
# does. What follows builds the errors: the place (``nodes[12]``) and the
# message are made only when a check fails. ``i`` is None for the document.
def _place(section: str, i: int | None) -> str:
    return section if i is None else f"{section}[{i}]"


def _not_object(obj: Any, section: str, i: int | None) -> ParseError:
    return ParseError(f"expected an object, got {type(obj).__name__}", _place(section, i))


def _bad_field(obj: dict, name: str, must: str, section: str, i: int | None) -> ParseError:
    if name not in obj:
        return ParseError(f"missing required field {name!r}", _place(section, i))
    return ParseError(f"field {name!r} {must}", _place(section, i))


def _unknown(obj: dict, known: frozenset[str], section: str, i: int | None) -> ParseError:
    return ParseError(f"unknown field(s): {', '.join(sorted(obj.keys() - known))}", _place(section, i))


def _number(obj: dict, name: str, section: str, i: int) -> float:
    """A number field that is not a finite float: an int made a float, or the error."""
    value = obj.get(name)
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ParseError(f"field {name!r} is beyond the float range", _place(section, i)) from None
    if type(value) is float:  # an infinity, from a literal such as 1e999
        raise ParseError(f"field {name!r} must be finite", _place(section, i))
    raise _bad_field(obj, name, "must be a number", section, i)


def _position(value: Any, i: int) -> tuple[float, float, float]:
    if type(value) is not list:
        raise ParseError("field 'position_m' must be an array", f"nodes[{i}]")
    if len(value) != 3 or not (type(value[0]) in _NUMBER and type(value[1]) in _NUMBER and type(value[2]) in _NUMBER):
        raise ParseError("field 'position_m' must be an array of three numbers", f"nodes[{i}]")
    x, y, z = value
    try:
        position = (float(x), float(y), float(z))
    except OverflowError:  # an integer beyond the float range
        raise ParseError("field 'position_m' is beyond the float range", f"nodes[{i}]") from None
    if not _INFINITE.isdisjoint(position):  # from a literal such as 1e999
        raise ParseError("field 'position_m' must be finite", f"nodes[{i}]")
    return position


def _reject_constant(text: str) -> float:
    raise ParseError(f"non-finite number literal {text!r} is not allowed", "document")


def parse_network(data: bytes | str) -> NetworkDocument:
    """Parse and validate a network document.

    Raises ParseError for malformed JSON, wrong types, or unknown fields
    (with the offending JSON path), and ValidationFailed (with every
    problem found) when the parsed values violate network invariants.
    The first failed check is reported; within an object, unknown fields
    are looked for only once every known field has passed.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"document is not UTF-8: {exc}", "document") from exc
    try:
        raw = json.loads(data, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:  # an integer over the digit limit, or too deep nesting
        raise ParseError(f"invalid JSON: {exc}", "document") from exc

    if type(raw) is not dict:
        raise _not_object(raw, "document", None)
    version = raw.get("schema_version")
    if type(version) is not str:
        raise _bad_field(raw, "schema_version", "must be a string", "document", None)
    if version != SCHEMA_VERSION:
        raise ParseError(f"unrecognized schema_version {version!r}", "document")
    sections = []
    for name in ("nodes", "arcs", "standard_clocks", "injections"):
        entries = raw.get(name, [])
        if type(entries) is not list:
            raise _bad_field(raw, name, "must be an array", "document", None)
        sections.append(entries)
    if not raw.keys() <= _DOCUMENT_KEYS:
        raise _unknown(raw, _DOCUMENT_KEYS, "document", None)
    raw_nodes, raw_arcs, raw_clocks, raw_injections = sections

    problems: list[str] = []
    nodes: list[ClockNode] = []
    for i, obj in enumerate(raw_nodes):
        if type(obj) is not dict:
            raise _not_object(obj, "nodes", i)
        get = obj.get
        node_id, ground, excited = get("id"), get("ground_ev"), get("excited_ev")
        if type(node_id) is not int or not 0 <= node_id <= _MAX_ID:
            raise _bad_field(obj, "id", _U64, "nodes", i)
        if type(ground) is not float or ground in _INFINITE:
            ground = _number(obj, "ground_ev", "nodes", i)
        if type(excited) is not float or excited in _INFINITE:
            excited = _number(obj, "excited_ev", "nodes", i)
        gamma = get("gamma_ev")  # None when absent; an explicit null fails
        if (type(gamma) is not float or gamma in _INFINITE) and "gamma_ev" in obj:
            gamma = _number(obj, "gamma_ev", "nodes", i)
        position = get("position_m")
        position = (0.0, 0.0, 0.0) if position is None and "position_m" not in obj else _position(position, i)
        tolerance = get("resonance_tolerance_ev")
        if (type(tolerance) is not float or tolerance in _INFINITE) and "resonance_tolerance_ev" in obj:
            tolerance = _number(obj, "resonance_tolerance_ev", "nodes", i)
        can_emit, can_detect = get("can_emit", True), get("can_detect", True)
        if type(can_emit) is not bool:
            raise _bad_field(obj, "can_emit", "must be a boolean", "nodes", i)
        if type(can_detect) is not bool:
            raise _bad_field(obj, "can_detect", "must be a boolean", "nodes", i)
        if not obj.keys() <= _NODE_KEYS:
            raise _unknown(obj, _NODE_KEYS, "nodes", i)
        try:
            spec = TwoLevelSpec(EnergyLevel("ground", ground), EnergyLevel("excited", excited), gamma)
            nodes.append(ClockNode(node_id, spec, position, tolerance, can_emit, can_detect))
        except Exception as exc:
            problems.append(f"nodes[{i}]: {exc}")

    arcs: list[Arc] = []
    for i, obj in enumerate(raw_arcs):
        if type(obj) is not dict:
            raise _not_object(obj, "arcs", i)
        get = obj.get
        arc_id, source, target, distance = get("id"), get("source"), get("target"), get("distance_m")
        if type(arc_id) is not int or not 0 <= arc_id <= _MAX_ID:
            raise _bad_field(obj, "id", _U64, "arcs", i)
        if type(source) is not int or not 0 <= source <= _MAX_ID:
            raise _bad_field(obj, "source", _U64, "arcs", i)
        if type(target) is not int or not 0 <= target <= _MAX_ID:
            raise _bad_field(obj, "target", _U64, "arcs", i)
        if type(distance) is not float or distance in _INFINITE:
            distance = _number(obj, "distance_m", "arcs", i)
        if not obj.keys() <= _ARC_KEYS:
            raise _unknown(obj, _ARC_KEYS, "arcs", i)
        try:
            arcs.append(Arc(arc_id, source, target, distance))
        except Exception as exc:
            problems.append(f"arcs[{i}]: {exc}")

    clocks: list[StandardClockSpec] = []
    for i, obj in enumerate(raw_clocks):
        if type(obj) is not dict:
            raise _not_object(obj, "standard_clocks", i)
        get = obj.get
        clock_id, period = get("id"), get("period_s")
        first_tick, counter_start = get("first_tick_s", 0.0), get("counter_start", 0)
        if type(clock_id) is not int or not 0 <= clock_id <= _MAX_ID:
            raise _bad_field(obj, "id", _U64, "standard_clocks", i)
        if type(period) is not float or period in _INFINITE:
            period = _number(obj, "period_s", "standard_clocks", i)
        if type(first_tick) is not float or first_tick in _INFINITE:
            first_tick = _number(obj, "first_tick_s", "standard_clocks", i)
        if type(counter_start) is not int:
            raise _bad_field(obj, "counter_start", "must be an integer", "standard_clocks", i)
        if not obj.keys() <= _CLOCK_KEYS:
            raise _unknown(obj, _CLOCK_KEYS, "standard_clocks", i)
        try:
            clocks.append(StandardClockSpec(clock_id, period, first_tick, counter_start))
        except Exception as exc:
            problems.append(f"standard_clocks[{i}]: {exc}")

    injections: list[Injection] = []
    node_ids = {n.id for n in nodes}
    for i, obj in enumerate(raw_injections):
        if type(obj) is not dict:
            raise _not_object(obj, "injections", i)
        node, at = obj.get("node"), obj.get("at_s")
        if type(node) is not int or not 0 <= node <= _MAX_ID:
            raise _bad_field(obj, "node", _U64, "injections", i)
        if type(at) is not float or at in _INFINITE:
            at = _number(obj, "at_s", "injections", i)
        if not obj.keys() <= _INJECTION_KEYS:
            raise _unknown(obj, _INJECTION_KEYS, "injections", i)
        if node not in node_ids:
            problems.append(f"injections[{i}]: unknown node {node}")
        if at < 0:
            problems.append(f"injections[{i}]: at_s must be >= 0")
        injections.append(Injection(node, at))

    try:
        network = validate_network(nodes, arcs, clocks)
    except ValidationFailed as exc:
        problems.extend(exc.problems)
        raise ValidationFailed(problems) from None
    if problems:
        raise ValidationFailed(problems)
    return NetworkDocument(version, network, tuple(injections))


def parse_network_file(path: str | Path) -> NetworkDocument:
    return parse_network(Path(path).read_bytes())


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
