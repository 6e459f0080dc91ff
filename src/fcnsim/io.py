"""File formats: network documents, trace JSONL, report CSVs.

The network document is strict UTF-8 JSON with unit-suffixed field names
(energy_ev, distance_m, period_s); unknown fields are rejected so unit
mistakes cannot hide in ignored keys. Traces are JSONL, one event per
line in trace order. Timelines and entropy reports are CSV with a header
row. All numeric output uses Python's shortest round-trip float
representation, so emitted files re-parse to identical values.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from operator import itemgetter
from typing import Any, IO, Iterable, Iterator

from .chronology import Timeline
from .engine import EventKind, EventTrace, SimEvent
from .errors import ParseError, ValidationFailed
from .network import (
    Arc,
    ClockNode,
    Network,
    NodeId,
    StandardClockSpec,
    validate_network,
)
from .quantum import EnergyLevel, TwoLevelSpec

SCHEMA_VERSION = "1"

TIMELINE_COLUMNS = ("event_id", "node", "pulse_id", "label", "time_number_s")
ENTROPY_COLUMNS = (
    "event_id",
    "ds_internal",
    "ds_signal",
    "ds_vacuum",
    "total",
    "production_rate",
    "lifetime_s",
)

_MAX_ID = 2**64 - 1


@dataclass(frozen=True)
class Injection:
    """One external excitation request: node and engine time."""

    node: NodeId
    at_s: float


@dataclass(frozen=True)
class NetworkDocument:
    """Parsed and validated network description."""

    schema_version: str
    network: Network
    injections: tuple[Injection, ...]


# -- network document parsing ------------------------------------------


class _Fields:
    """One JSON object with strict field accounting."""

    def __init__(self, obj: Any, where: str):
        if not isinstance(obj, dict):
            raise ParseError(f"expected an object, got {type(obj).__name__}", where)
        self.obj = obj
        self.where = where
        self.seen: set[str] = set()

    def take(self, name: str, kind: str, required: bool = True, default: Any = None) -> Any:
        self.seen.add(name)
        if name not in self.obj:
            if required:
                raise ParseError(f"missing required field {name!r}", self.where)
            return default
        value = self.obj[name]
        if kind == "id":
            if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= _MAX_ID:
                raise ParseError(f"field {name!r} must be an unsigned 64-bit integer", self.where)
        elif kind == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParseError(f"field {name!r} must be an integer", self.where)
        elif kind == "number":
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ParseError(f"field {name!r} must be a number", self.where)
            value = _float(value, name, self.where)
            if not math.isfinite(value):
                raise ParseError(f"field {name!r} must be finite", self.where)
        elif kind == "bool":
            if not isinstance(value, bool):
                raise ParseError(f"field {name!r} must be a boolean", self.where)
        elif kind == "str":
            if not isinstance(value, str):
                raise ParseError(f"field {name!r} must be a string", self.where)
        elif kind == "list":
            if not isinstance(value, list):
                raise ParseError(f"field {name!r} must be an array", self.where)
        else:
            raise AssertionError(kind)
        return value

    def finish(self) -> None:
        unknown = set(self.obj) - self.seen
        if unknown:
            raise ParseError(f"unknown field(s): {', '.join(sorted(unknown))}", self.where)


def _float(value: int | float, name: str, where: str) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ParseError(f"field {name!r} is beyond the float range", where) from None


def _reject_constant(text: str) -> float:
    raise ParseError(f"non-finite number literal {text!r} is not allowed", "document")


def _reject_line_constant(text: str) -> float:
    # Raised as a JSON error so that the trace reader names the line.
    raise json.JSONDecodeError(f"non-finite number literal {text!r} is not allowed", text, 0)


def _parse_position(value: Any, where: str) -> tuple[float, float, float]:
    if (
        not isinstance(value, list)
        or len(value) != 3
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ParseError("field 'position_m' must be an array of three numbers", where)
    x, y, z = (_float(v, "position_m", where) for v in value)
    return (x, y, z)


def parse_network(data: bytes | str) -> NetworkDocument:
    """Parse and validate a network document.

    Raises ParseError for malformed JSON, wrong types, or unknown fields
    (with the offending JSON path), and ValidationFailed (with every
    problem found) when the parsed values violate network invariants.
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

    top = _Fields(raw, "document")
    version = top.take("schema_version", "str")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unrecognized schema_version {version!r}", "document")
    raw_nodes = top.take("nodes", "list", required=False, default=[])
    raw_arcs = top.take("arcs", "list", required=False, default=[])
    raw_clocks = top.take("standard_clocks", "list", required=False, default=[])
    raw_injections = top.take("injections", "list", required=False, default=[])
    top.finish()

    problems: list[str] = []
    nodes: list[ClockNode] = []
    for i, obj in enumerate(raw_nodes):
        where = f"nodes[{i}]"
        f = _Fields(obj, where)
        node_id = f.take("id", "id")
        ground = f.take("ground_ev", "number")
        excited = f.take("excited_ev", "number")
        gamma = f.take("gamma_ev", "number", required=False)
        raw_pos = f.take("position_m", "list", required=False)
        position = _parse_position(raw_pos, where) if raw_pos is not None else (0.0, 0.0, 0.0)
        tolerance = f.take("resonance_tolerance_ev", "number", required=False)
        can_emit = f.take("can_emit", "bool", required=False, default=True)
        can_detect = f.take("can_detect", "bool", required=False, default=True)
        f.finish()
        try:
            nodes.append(
                ClockNode(
                    id=node_id,
                    spec=TwoLevelSpec(
                        ground=EnergyLevel("ground", ground),
                        excited=EnergyLevel("excited", excited),
                        gamma_ev=gamma,
                    ),
                    position_m=position,
                    resonance_tolerance_ev=tolerance,
                    can_emit=can_emit,
                    can_detect=can_detect,
                )
            )
        except Exception as exc:
            problems.append(f"{where}: {exc}")

    arcs: list[Arc] = []
    for i, obj in enumerate(raw_arcs):
        where = f"arcs[{i}]"
        f = _Fields(obj, where)
        arc_id = f.take("id", "id")
        source = f.take("source", "id")
        target = f.take("target", "id")
        distance = f.take("distance_m", "number")
        f.finish()
        try:
            arcs.append(Arc(id=arc_id, source=source, target=target, distance_m=distance))
        except Exception as exc:
            problems.append(f"{where}: {exc}")

    clocks: list[StandardClockSpec] = []
    for i, obj in enumerate(raw_clocks):
        where = f"standard_clocks[{i}]"
        f = _Fields(obj, where)
        clock_id = f.take("id", "id")
        period = f.take("period_s", "number")
        first_tick = f.take("first_tick_s", "number", required=False, default=0.0)
        counter_start = f.take("counter_start", "int", required=False, default=0)
        f.finish()
        if first_tick < 0:
            problems.append(f"{where}: first_tick_s must be >= 0")
            continue
        try:
            clocks.append(
                StandardClockSpec(
                    id=clock_id, period_s=period, first_tick_s=first_tick, counter_start=counter_start
                )
            )
        except Exception as exc:
            problems.append(f"{where}: {exc}")

    injections: list[Injection] = []
    node_ids = {n.id for n in nodes}
    for i, obj in enumerate(raw_injections):
        where = f"injections[{i}]"
        f = _Fields(obj, where)
        node = f.take("node", "id")
        at = f.take("at_s", "number")
        f.finish()
        if node not in node_ids:
            problems.append(f"{where}: unknown node {node}")
        if at < 0:
            problems.append(f"{where}: at_s must be >= 0")
        injections.append(Injection(node=node, at_s=at))

    try:
        network = validate_network(nodes, arcs, clocks)
    except ValidationFailed as exc:
        problems.extend(exc.problems)
        raise ValidationFailed(problems) from None
    if problems:
        raise ValidationFailed(problems)
    return NetworkDocument(
        schema_version=version, network=network, injections=tuple(injections)
    )


def parse_network_file(path: str | Path) -> NetworkDocument:
    return parse_network(Path(path).read_bytes())


# -- trace JSONL ---------------------------------------------------------

_BASE_KEYS = ("id", "kind", "node", "engine_time", "parents")
_BASE_KEY_SET = frozenset(_BASE_KEYS)
# JSON decoding yields exact ints and floats (booleans are their own type),
# so the reader tests types by identity.
_INT = (int,)
_NUMBER = (int, float)
# What a number literal beyond the float range, such as 1e999, decodes to.
_INFINITE = frozenset((math.inf, -math.inf))
# The payload fields the analysis commands read, by kind, with their types:
# the clock pulse pairing reads the ticks, the entropy report the decays.
_READ_FIELDS: dict[EventKind, tuple[tuple[str, tuple[type, ...]], ...]] = {
    EventKind.CLOCK_TICK: (("pulse_id", _INT), ("counter", _INT)),
    EventKind.DECAY: tuple((name, _NUMBER) for name in ENTROPY_COLUMNS[1:]),
}
# Kind name -> (kind, read fields): one lookup by the string the line holds.
_KINDS = {kind.value: (kind, _READ_FIELDS.get(kind, ())) for kind in EventKind}
_scan_once = json.JSONDecoder(parse_constant=_reject_line_constant).scan_once


def event_to_record(event: SimEvent) -> dict[str, Any]:
    """Flatten one event: base fields first, then the payload fields."""
    record: dict[str, Any] = {
        "id": event.id,
        "kind": event.kind.value,
        "node": event.node,
        "engine_time": event.engine_time,
        "parents": sorted(event.parents),
    }
    record.update(event.payload)
    return record


def _dumps(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"))


_encode_str = json.encoder.encode_basestring_ascii
# ',"kind":"<kind>","node":' per kind, and ',"<key>":' per payload key the
# engine writes; other keys are encoded as they come.
_KIND_FIELDS = {kind: f',"kind":{_encode_str(kind.value)},"node":' for kind in EventKind}
_PAYLOAD_KEYS = {
    key: f",{_encode_str(key)}:"
    for key in (
        "excitation_id", "energy_ev", "gamma_ev", *ENTROPY_COLUMNS[1:],
        "reason", "arc", "wavelength_nm", "pulse_id", "counter",
    )
}


def _json_value(value: Any) -> str:
    kind = type(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    if kind is str:
        return _encode_str(value)
    return _dumps(value)


def _json_parents(parents: frozenset[int]) -> str:
    if len(parents) == 1:
        (only,) = parents
        if type(only) is int:
            return f"[{only!r}]"
    ordered = sorted(parents)
    if all(type(p) is int for p in ordered):
        return f"[{','.join(map(repr, ordered))}]"
    return _dumps(ordered)


def serialize_event(event: SimEvent) -> str:
    """One trace line, without its newline.

    Byte-equal to ``json.dumps(event_to_record(event), separators=(",",
    ":"))``. Exact ints, finite floats and strings are written here, with
    the same ``int.__repr__``, ``float.__repr__`` and ASCII string escapes
    that ``json.dumps`` uses; any other value goes to ``json.dumps``, and
    so does an event whose payload reuses a base field name or has a key
    that is not a string.
    """
    event_id, node = event.id, event.node
    if type(event_id) is not int or type(node) is not int:
        return _dumps(event_to_record(event))
    parts = [
        f'{{"id":{event_id!r}{_KIND_FIELDS[event.kind]}{node!r},"engine_time":'
        f'{_json_value(event.engine_time)},"parents":{_json_parents(event.parents)}'
    ]
    for key, value in event.payload.items():
        name = _PAYLOAD_KEYS.get(key)
        if name is None:
            if type(key) is not str or key in _BASE_KEY_SET:
                return _dumps(event_to_record(event))
            name = f",{_encode_str(key)}:"
        parts.append(name + _json_value(value))
    parts.append("}")
    return "".join(parts)


def serialize_trace(trace: Iterable[SimEvent]) -> str:
    return "".join([serialize_event(e) + "\n" for e in trace])


def _event(record: Any) -> SimEvent | None:
    """The event one decoded record describes, or None if a check fails.

    Takes the record over: the base fields are popped off it and what is
    left becomes the payload.
    """
    if type(record) is not dict:
        return None
    try:
        kind, fields = _KINDS[record.pop("kind")]
        event_id, node = record.pop("id"), record.pop("node")
        t, parents = record.pop("engine_time"), record.pop("parents")
    except (KeyError, TypeError):  # TypeError: an unhashable kind, such as a list
        return None
    # Ids follow the network reader's rule: unsigned 64-bit, never a bool.
    if type(event_id) is not int or type(node) is not int:
        return None
    if not (0 <= event_id <= _MAX_ID and 0 <= node <= _MAX_ID):
        return None
    if type(t) not in _NUMBER or t in _INFINITE or type(parents) is not list:
        return None
    for parent in parents:
        if type(parent) is not int or not 0 <= parent <= _MAX_ID:
            return None
    for name, types in fields:
        value = record.get(name)
        if type(value) not in types or value in _INFINITE:
            return None
    try:
        return tuple.__new__(SimEvent, (event_id, kind, node, float(t), frozenset(parents), record))
    except OverflowError:  # an int engine_time beyond the float range
        return None


def _rejection(record: Any) -> str:
    """Why the reader rejects a decoded record: the first failed check."""
    if type(record) is not dict:
        return "expected an object"
    missing = [k for k in _BASE_KEYS if k not in record]
    if missing:
        return f"missing field(s): {', '.join(missing)}"
    kind = record["kind"]
    if type(kind) is not str or kind not in _KINDS:
        return f"unknown event kind {kind!r}"
    event_id, node, parents = record["id"], record["node"], record["parents"]
    if type(event_id) is not int or type(node) is not int:
        return "'id' and 'node' must be integers"
    for name, value in (("id", event_id), ("node", node)):
        if not 0 <= value <= _MAX_ID:
            return f"{name!r} must be an unsigned 64-bit integer, got {value}"
    if type(record["engine_time"]) not in _NUMBER:
        return "'engine_time' must be a number"
    if type(parents) is not list or any(type(p) is not int for p in parents):
        return "'parents' must be an array of integers"
    if any(not 0 <= p <= _MAX_ID for p in parents):
        return "'parents' must be an array of unsigned 64-bit integers"
    fields = _KINDS[kind][1]
    missing = [name for name, _ in fields if name not in record]
    if missing:
        return f"missing field(s): {', '.join(missing)}"
    for name, types in fields:
        if type(record[name]) not in types:
            return f"{name!r} must be {'an integer' if types is _INT else 'a number'}"
    try:
        float(record["engine_time"])
    except OverflowError:
        return "'engine_time' is beyond the float range"
    for name in ("engine_time", *(name for name, _ in fields)):
        if record[name] in _INFINITE:
            return f"{name!r} is beyond the float range"
    raise AssertionError(f"record passes every check: {record!r}")


def _line_event(line: str, where: str | int) -> SimEvent | None:
    """The checked event on one trace line, or None for a blank line.

    ``where`` is the line number, or the context, that an error names.
    The C scanner decodes one JSON value trailed by at most JSON whitespace
    (a CRLF file's ``\r``); any other line (blank, padded or malformed) goes
    to ``json.loads``, whose message a malformed line reports. Both reject
    the literals ``NaN``, ``Infinity`` and ``-Infinity``. The message of a
    failed check, and the context string, are built only on failure.
    Integers over CPython's digit limit and too deep nesting are invalid.
    """
    try:
        record, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(line) and (end < 0 or line[end:].strip(" \t\r")):
        if not line.strip():
            return None
        try:
            record = json.loads(line, parse_constant=_reject_line_constant)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", _context(where)) from exc
    event = _event(record)
    if event is None:
        raise ParseError(_rejection(json.loads(line)), _context(where))
    return event


def _context(where: str | int) -> str:
    return where if isinstance(where, str) else f"line {where}"


def parse_event_line(line: str, where: str = "line") -> SimEvent:
    """One event from one trace line; raises ParseError naming ``where``.

    Checks the line as ``parse_trace`` does: a missing or mistyped base
    field, an unknown kind, or a missing or mistyped payload field that
    the analysis commands read.
    """
    event = _line_event(line, where)
    if event is None:
        raise ParseError("invalid JSON: Expecting value", where)
    return event


def _checked(lines: Iterable[str]) -> Iterator[SimEvent]:
    """The checked events on the lines of a trace, each line without its line feed."""
    first_line: dict[int, int] = {}
    for lineno, line in enumerate(lines, start=1):
        event = _line_event(line, lineno)
        if event is None:
            continue
        if not first_line.keys() >= event.parents:
            parent = min(event.parents - first_line.keys())
            raise ParseError(f"parent {parent} is not the id of an earlier event", f"line {lineno}")
        seen = first_line.setdefault(event.id, lineno)
        if seen != lineno:
            raise ParseError(f"repeated event id {event.id} (first on line {seen})", f"line {lineno}")
        yield event


def parse_trace(text: str) -> EventTrace:
    """Parse a JSONL trace, one event per non-blank line.

    Lines end at line feeds only, as in JSON Lines: a raw U+2028, U+2029
    or U+0085 inside a string is part of its line, and a carriage return
    before the line feed is JSON whitespace. Raises ParseError naming the
    line for a malformed record, for an event id that an earlier line
    already used, and for a parent id that no earlier line's event has.
    ``parse_event_line`` reads one record without the last two checks.
    """
    return tuple(_checked(text.split("\n")))


def write_events(events: Iterable[SimEvent], fp: IO[str]) -> int:
    """Write each event as one whole JSONL line as it comes; returns the line count."""
    lines = 0
    for lines, event in enumerate(events, 1):
        fp.write(serialize_event(event) + "\n")
    return lines


def write_trace(trace: Iterable[SimEvent], path: str | Path) -> int:
    """Write the trace as JSONL, one line at a time; returns the line count.

    They go to a temporary file beside ``path`` that replaces it once the
    last is written; if ``trace`` raises, ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fp:
            lines = write_events(trace, fp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return lines


def _decoded(lines: Iterable[bytes]) -> Iterator[str]:
    for lineno, line in enumerate(lines, start=1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8: {exc.reason}", f"line {lineno}") from exc
        yield text.removesuffix("\n")


def iter_trace(path: str | Path) -> Iterator[SimEvent]:
    """The events of a trace file as ``parse_trace`` checks them, read one line at a time.

    The bytes must be strict UTF-8, and a bad byte is reported before any
    other error: after a failed check the rest of the file is decoded.
    """
    with open(path, "rb") as fp:
        lines = _decoded(fp)
        try:
            yield from _checked(lines)
        except ParseError:
            for _ in lines:  # raises at the first bad byte after the failed line
                pass
            raise


def read_trace(path: str | Path) -> EventTrace:
    """``parse_trace`` of a file, read as ``iter_trace`` reads it."""
    return tuple(iter_trace(path))


# -- CSV reports ---------------------------------------------------------


def write_csv(fp: IO[str], columns: Iterable[str], rows: list[Iterable[Any]]) -> int:
    """Write a header row and ``rows``; returns the row count."""
    # Fixed line terminator so files are byte-identical across platforms.
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return len(rows)


def write_timeline_csv(timeline: Timeline, trace: Iterable[SimEvent], fp: IO[str]) -> int:
    """Write one row per time label; ``trace`` need hold only the labeled events."""
    node_of = {e.id: e.node for e in trace}
    return write_csv(fp, TIMELINE_COLUMNS, [
        (lb.event, node_of.get(lb.event, ""), lb.triplet.pulse, lb.triplet.label, lb.time_number_s)
        for lb in timeline.entries
    ])


def entropy_rows(trace: Iterable[SimEvent]) -> list[tuple[Any, ...]]:
    """One ``ENTROPY_COLUMNS`` row per decay, straight from the decay payloads."""
    decay, columns = EventKind.DECAY, itemgetter(*ENTROPY_COLUMNS[1:])
    return [(e.id, *columns(e.payload)) for e in trace if e.kind is decay]


def write_entropy_csv(trace: Iterable[SimEvent], fp: IO[str]) -> int:
    """Write one row per decay, straight from the decay payloads."""
    return write_csv(fp, ENTROPY_COLUMNS, entropy_rows(trace))
