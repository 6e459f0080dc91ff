"""The trace invariants that the paper's claims about time rest on, each defined once."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Iterable

from .chronology import ClockPulse, _undeclared_pulses
from .entropy import EntropyBreakdown, decay_row, entropy_lifetime
from .errors import FcnError
from .events import EventKind
from .network import propagation_delay

if TYPE_CHECKING:
    from .events import SimEvent
    from .network import Network


# The fields of a decay row that ``decay_row`` derives, each with its derivation.
_DERIVED = (("lifetime_s", "lifetime(gamma_ev)"), ("total", "ds_internal + ds_signal + ds_vacuum"),
            ("production_rate", "total / lifetime_s"))


def _row_problem(row: dict[str, Any]) -> str | None:
    """Why a decay row is not what ``decay_row`` computes or breaks the entropy-lifetime identity, or None."""
    gamma, terms = row.get("gamma_ev"), (row.get("ds_internal"), row.get("ds_signal"), row.get("ds_vacuum"))
    try:
        breakdown = EntropyBreakdown(*terms)
    except (TypeError, ValueError, ArithmeticError):
        return f"entropy terms {terms!r} are not three finite numbers"
    try:
        expected = decay_row(row.get("energy_ev"), gamma, breakdown)
    except (FcnError, TypeError, ArithmeticError):
        return f"gamma_ev {gamma!r} gives no lifetime"
    except ValueError as exc:  # a total or rate that is not finite
        return str(exc)
    for name, derivation in _DERIVED:
        if row.get(name) != expected[name]:
            return f"{name} {row.get(name)!r} is not {derivation} = {expected[name]!r}"
    seconds, tau = entropy_lifetime(breakdown, gamma).seconds, expected["lifetime_s"]
    return None if abs(seconds - tau) <= 1e-9 * tau else f"entropy lifetime {seconds!r} is not {tau!r} to 1e-9"


def verify_trace(events: Iterable[SimEvent], network: Network | None = None) -> list[str]:
    """Every problem in one pass over ``events`` (``Engine.events``,
    ``iter_trace`` or a list), each as ``event N: ...``: ids ascend and
    parents are earlier events; ``engine_time`` never decreases; a decay's
    one parent excited its ``excitation_id`` at its node, and no excitation
    decays twice; an emission's one parent is a decay at its node with its
    ``energy_ev``; an arrival (an absorption, or a pass-through with an
    ``arc``) has one parent, an emission still in flight, on the same arc
    with the same energy; a decay's ``lifetime_s``, ``total`` and
    ``production_rate`` are exactly what ``decay_row`` computes from its
    ``gamma_ev`` and terms, and ``entropy_lifetime`` agrees to 1e-9
    relative. With ``network``, nodes and arcs are its own, an arrival is at
    its arc's target at exactly ``emission.engine_time +
    propagation_delay(arc)``, and each clock's pulses are its declared
    ticks. Raises nothing for a trace that ``iter_trace`` reads: a missing
    or mistyped payload field is a problem.
    """
    problems: list[str] = []
    nodes, arcs = (None, None) if network is None else (network.node_by_id, network.arc_by_id)
    seen: set[int] = set()
    excited: dict[int, tuple[int, int]] = {}  # excitation id -> (the event that excited it, node)
    decayed: dict[int, int] = {}  # excitation id -> its decay
    decays: dict[int, tuple[int, Any]] = {}  # decay -> (node, energy_ev)
    in_flight: dict[int, tuple[Any, Any, float]] = {}  # emission -> (arc, energy_ev, engine_time)
    ticks: dict[int, list[tuple[int, ClockPulse]]] = {}
    previous, previous_t = -1, -math.inf
    for eid, kind, node, t, parents, payload in events:
        found = [f"parent {p} is not an earlier event" for p in sorted(parents - seen)]
        if eid <= previous:
            found.append(f"id is not greater than id {previous} before it")
        if t < previous_t:
            found.append(f"engine_time {t!r} is earlier than {previous_t!r} of event {previous}")
        if nodes is not None and node not in nodes:
            found.append(f"node {node} is not a node of the network")
        parent = min(parents) if len(parents) == 1 else None
        exc, arc = payload.get("excitation_id"), payload.get("arc")
        if kind is EventKind.DECAY:
            if type(exc) is int and exc in decayed:
                found.append(f"excitation {exc} decays again; event {decayed[exc]} decayed it")
            elif (excited.pop(exc, None) if type(exc) is int else None) != (parent, node):
                found.append(f"its parent is not the event that excited excitation {exc!r} at node {node}")
            if type(exc) is int:
                decayed.setdefault(exc, eid)
            decays[eid] = (node, payload.get("energy_ev"))
            if row := _row_problem(payload):
                found.append(row)
        elif kind is EventKind.EMISSION:
            if (decay := decays.get(parent)) is None or decay[0] != node:
                found.append(f"its parent is not a decay at node {node}")
            elif payload.get("energy_ev") != decay[1]:
                found.append(f"its energy_ev {payload.get('energy_ev')!r} is not decay {parent}'s {decay[1]!r}")
            if arcs is not None and not (type(arc) is int and arc in arcs and arcs[arc].source == node):
                found.append(f"arc {arc!r} is not an arc of the network from node {node}")
            in_flight[eid] = (arc, payload.get("energy_ev"), t)
        elif kind is EventKind.ABSORPTION or kind is EventKind.PASS_THROUGH and "arc" in payload:
            sent = in_flight.pop(parent, None)
            if sent is None:
                found.append("its parent is not an emission whose signal is still in flight")
            elif (arc, payload.get("energy_ev")) != sent[:2]:
                found.append(f"its arc or energy_ev differs from emission {parent}'s")
            elif arcs is not None and type(arc) is int and arc in arcs:
                to, at = arcs[arc].target, sent[2] + propagation_delay(arcs[arc])
                if (node, t) != (to, at):
                    found.append(f"arrives at node {node} at engine_time {t!r}; arc {arc} from emission {parent} "
                                 f"arrives at node {to} at {at!r}")
        elif kind is EventKind.CLOCK_TICK and network is not None:
            pulse = ClockPulse(payload.get("pulse_id"), node, payload.get("counter"), t)
            ticks.setdefault(node, []).append((eid, pulse))
        if kind in (EventKind.ABSORPTION, EventKind.EXTERNAL_EXCITATION) and type(exc) is int:
            excited[exc] = (eid, node)
        problems += [f"event {eid}: {text}" for text in found]
        seen.add(eid)
        previous, previous_t = eid, t
    for node, recorded in ticks.items():
        spec = network.clock_by_node.get(node)
        if spec is None:
            problems.append(f"event {recorded[0][0]}: node {node} ticks, but the network declares no clock there")
            continue
        for k, text in _undeclared_pulses([pulse for _, pulse in recorded], spec, "the network"):
            problems.append(f"event {recorded[k][0]}: {text}")
    return problems
