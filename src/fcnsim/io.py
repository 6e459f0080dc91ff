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
import errno
import json
import math
import os
from io import StringIO
from pathlib import Path
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, IO, Iterable, Iterator, NamedTuple

from .errors import ParseError, ValidationFailed
from .events import EventKind, EventTrace, NodeId, SimEvent

if TYPE_CHECKING:
    from .chronology import Timeline
    from .network import Network

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
# JSON decoding yields exact ints and floats (booleans are their own type),
# so the readers test types by identity.
_INT = (int,)
_NUMBER = (int, float)
# What a number literal beyond the float range, such as 1e999, decodes to.
_INFINITE = frozenset((math.inf, -math.inf))


class Injection(NamedTuple):
    """One external excitation request: node and engine time."""

    node: NodeId
    at_s: float


class NetworkDocument(NamedTuple):
    """Parsed and validated network description."""

    schema_version: str
    network: Network
    injections: tuple[Injection, ...]


# -- network document parsing ------------------------------------------


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


def _reject_line_constant(text: str) -> float:
    # Raised as a JSON error so that the trace reader names the line.
    raise json.JSONDecodeError(f"non-finite number literal {text!r} is not allowed", text, 0)


def parse_network(data: bytes | str) -> NetworkDocument:
    """Parse and validate a network document.

    Raises ParseError for malformed JSON, wrong types, or unknown fields
    (with the offending JSON path), and ValidationFailed (with every
    problem found) when the parsed values violate network invariants.
    The first failed check is reported; within an object, unknown fields
    are looked for only once every known field has passed.
    """
    # Imported here: the trace readers and writers need neither module.
    from .network import Arc, ClockNode, StandardClockSpec, validate_network
    from .quantum import EnergyLevel, TwoLevelSpec

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


# -- trace JSONL ---------------------------------------------------------

_BASE_KEYS = ("id", "kind", "node", "engine_time", "parents")
_BASE_KEY_SET = frozenset(_BASE_KEYS)
# The payload fields the analysis commands read, by kind, with their types:
# the clock pulse pairing reads the ticks, the entropy report the decays.
_READ_FIELDS: dict[EventKind, tuple[tuple[str, tuple[type, ...]], ...]] = {
    EventKind.CLOCK_TICK: (("pulse_id", _INT), ("counter", _INT)),
    EventKind.DECAY: tuple((name, _NUMBER) for name in ENTROPY_COLUMNS[1:]),
}
# Kind name -> (kind, read fields): one lookup by the string the line holds.
_KINDS = {kind.value: (kind, _READ_FIELDS.get(kind, ())) for kind in EventKind}
_scan_once = json.JSONDecoder(parse_constant=_reject_line_constant).scan_once


_encode_str = json.encoder.encode_basestring_ascii
# Per kind, ',"kind":"<kind>","node":' and the read fields the writer checks.
_KIND_FIELDS = {
    kind: (f',"kind":{_encode_str(kind.value)},"node":', fields) for kind, fields in _KINDS.values()
}
_FLOAT_TEXTS = 2**16  # the most payload float texts one stream keeps
_KEY_TEXTS = 2**10  # the most payload key texts one stream keeps


def _json_value(value: Any) -> str:
    kind = type(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    if kind is str:
        return _encode_str(value)
    text = json.dumps(value, separators=(",", ":"), allow_nan=False)
    if json.loads(text) != value:  # a tuple, or a dict with a key that is not a string
        raise ValueError(f"payload value {value!r} would read back as {text}")
    return text


def _json_parents(parents: tuple[int, ...]) -> str:
    if type(parents) is not tuple or len(parents) > 1:  # a frozenset({0}) would read back as (0,)
        raise ValueError(f"parents must be a tuple of at most one id, got {parents!r}")
    if not parents:
        return "[]"
    if type(only := parents[0]) is not int or not 0 <= only <= _MAX_ID:
        raise ValueError("parents must be unsigned 64-bit integers")
    return f"[{only!r}]"


def _fields_problem(record: dict, fields: tuple[tuple[str, tuple[type, ...]], ...]) -> str | None:
    """Why ``record`` fails its kind's read fields, or None: a missing field, then a mistyped one."""
    missing = [name for name, _ in fields if name not in record]
    if missing:
        return f"missing field(s): {', '.join(missing)}"
    for name, types in fields:
        if type(record[name]) not in types:
            return f"{name!r} must be {'an integer' if types is _INT else 'a number'}"
    return None


def _serializer() -> Callable[[SimEvent], str]:
    """``serialize_event`` for one stream. Most payload floats are per-node
    constants: it keeps the text of each finite, nonzero one of exact type
    float by value (0.0 and -0.0 are one key), up to ``_FLOAT_TEXTS``, and
    the text of each payload key it has checked, up to ``_KEY_TEXTS``."""
    texts: dict[float, str] = {}
    names: dict[str, str] = {}

    def serialize(event: SimEvent) -> str:
        event_id, kind, node, t, parents, payload = event
        try:
            if not (type(event_id) is int and 0 <= event_id <= _MAX_ID and type(node) is int and 0 <= node <= _MAX_ID):
                raise ValueError(f"id and node must be unsigned 64-bit integers, got node {node!r}")
            if type(t) is not float:
                if type(t) is not int:
                    raise ValueError(f"engine_time must be an int or a finite float, got {t!r}")
                try:
                    float(t)
                except OverflowError:
                    raise ValueError("'engine_time' is beyond the float range") from None
            head, fields = _KIND_FIELDS[kind]
            if fields:  # a tick or a decay
                for name, types in fields:
                    if type(payload.get(name)) not in types:
                        raise ValueError(_fields_problem(payload, fields))
            parts = [f'{{"id":{event_id!r}{head}{node!r},"engine_time":'
                     f'{_json_value(t)},"parents":{_json_parents(parents)}']
            for key, value in payload.items():
                name = names.get(key)
                if name is None:
                    if not isinstance(key, str) or key in _BASE_KEY_SET:
                        raise ValueError(f"payload key {key!r} is not a string or names a base field")
                    name = f",{_encode_str(key)}:"
                    if len(names) < _KEY_TEXTS:
                        names[key] = name
                if type(value) is not float:
                    text = _json_value(value)
                elif (text := texts.get(value)) is None:
                    text = _json_value(value)  # refuses a NaN or an infinity
                    if value and len(texts) < _FLOAT_TEXTS:
                        texts[value] = text
                parts.append(name + text)
        except KeyError:
            raise ValueError(f"event {event_id}: unknown event kind {kind!r}") from None
        except (TypeError, ValueError) as exc:  # TypeError: a value json.dumps cannot write
            raise ValueError(f"event {event_id}: {exc}") from None
        parts.append("}")
        return "".join(parts)

    return serialize


def serialize_event(event: SimEvent) -> str:
    """One trace line, without its newline.

    Byte-equal to ``json.dumps`` of the base fields and then the payload,
    with ``separators=(",", ":")``. Exact ints, finite floats and strings
    are written here, with the same ``int.__repr__``, ``float.__repr__``
    and ASCII string escapes that ``json.dumps`` uses; any other payload
    value goes to ``json.dumps``. It raises ValueError naming the event id
    for these events, which a trace reader would refuse or read back as
    other events: an id, node or parent that is not an unsigned 64-bit
    int, ``parents`` that is not a tuple of at most one parent (a
    ``frozenset({0})`` reads back as ``(0,)``), an ``engine_time`` that is
    not an int within the float range or a finite float, a payload key
    that is not a string or names a base field, a payload field that the
    reader requires of the kind (``_READ_FIELDS``) missing or of another
    type, a NaN or an infinity anywhere, a payload value ``json.dumps``
    cannot write, or one whose JSON text reads back as another value, such
    as a tuple or a dict with an int key.
    ``serialize_trace`` and ``write_events`` write each line the same way.
    """
    return _serializer()(event)


def serialize_trace(trace: Iterable[SimEvent]) -> str:
    return "".join([line + "\n" for line in map(_serializer(), trace)])


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
    if parents and (len(parents) > 1 or type(parent := parents[0]) is not int or not 0 <= parent <= _MAX_ID):
        return None
    for name, types in fields:
        value = record.get(name)
        if type(value) not in types or value in _INFINITE:
            return None
    try:
        return tuple.__new__(SimEvent, (event_id, kind, node, float(t), tuple(parents), record))
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
    if len(parents) > 1:
        return "'parents' must hold at most one id"
    fields = _KINDS[kind][1]
    problem = _fields_problem(record, fields)
    if problem:
        return problem
    try:
        float(record["engine_time"])
    except OverflowError:
        return "'engine_time' is beyond the float range"
    for name in ("engine_time", *(name for name, _ in fields)):
        if record[name] in _INFINITE:
            return f"{name!r} is beyond the float range"
    raise AssertionError(f"record passes every check: {record!r}")


def _line_event(line: str, lineno: int) -> SimEvent | None:
    """The checked event on one trace line, or None for a blank line.

    An error names the line number ``lineno``. The C scanner decodes one
    JSON value trailed by at most JSON whitespace (a CRLF file's ``\r``);
    any other line (blank, padded or malformed) goes to ``json.loads``,
    whose message a malformed line reports. Both reject the literals
    ``NaN``, ``Infinity`` and ``-Infinity``. The message of a failed check
    is built only on failure. Integers over CPython's digit limit and too
    deep nesting are invalid.
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
            raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", f"line {lineno}") from exc
    event = _event(record)
    if event is None:
        raise ParseError(_rejection(json.loads(line)), f"line {lineno}")
    return event


def _checked(lines: Iterable[str], seen: set[int] | None = None, outside: set[int] | None = None
             ) -> Iterator[SimEvent]:
    """The checked events on the lines of a trace, each line without its line feed.

    Event ids ascend strictly from line to line; ``seen``, the set of ids
    read so far, is the check of an event's one parent. With ``outside``,
    for the second half of a file, a parent not in ``seen`` is added to
    ``outside`` instead: the first half must hold it.
    """
    if seen is None:
        seen = set()
    add = seen.add
    previous, previous_line = -1, 0  # the id on the last non-blank line, and its number
    for lineno, line in enumerate(lines, start=1):
        event = _line_event(line, lineno)
        if event is None:
            continue
        if event.id <= previous:
            raise ParseError(f"event id {event.id} is not greater than id {previous} on line {previous_line}",
                             f"line {lineno}")
        if event.parents and (parent := event.parents[0]) not in seen:
            if outside is None:
                raise ParseError(f"parent {parent} is not the id of an earlier event", f"line {lineno}")
            outside.add(parent)
        add(previous := event.id)
        previous_line = lineno
        yield event


def parse_trace(text: str) -> EventTrace:
    """Parse a JSONL trace, one event per non-blank line.

    Lines end at line feeds only, as in JSON Lines: a raw U+2028, U+2029
    or U+0085 inside a string is part of its line, and a carriage return
    before the line feed is JSON whitespace. Raises ParseError naming the
    line for a malformed record (more than one parent is malformed), for an
    id not above the last line's id, and for a parent id that no earlier
    line's event has.
    """
    return tuple(_checked(text.split("\n")))


def write_events(events: Iterable[SimEvent], fp: IO[str]) -> int:
    """Write each event as one whole JSONL line as it comes; returns the line count."""
    lines = 0
    for lines, line in enumerate(map(_serializer(), events), 1):
        fp.write(line + "\n")
    return lines


def _refuse_directory(path: str | Path) -> None:
    """Raise IsADirectoryError naming ``path`` if it is a directory or ends
    in a separator, which ``Path`` would drop to write a file of that name."""
    shown = os.fspath(path)
    if os.path.isdir(shown) or not os.path.basename(shown):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), shown)


def write_trace(trace: Iterable[SimEvent], path: str | Path) -> int:
    """Write the trace as JSONL, one line at a time; returns the line count.

    They go to a temporary file beside ``path`` that replaces it once the
    last is written; if ``trace`` raises, ``path`` is left as it was. A
    directory, a path that ends in a separator, or a temporary file it
    cannot make, raises OSError naming ``path`` before the first event is
    drawn.
    """
    _refuse_directory(path)
    shown = os.fspath(path)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        try:
            fp = open(tmp, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, shown) from None
        with fp:
            lines = write_events(trace, fp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return lines


def _lines(fp: IO[bytes], size: int | None = None) -> Iterator[str]:
    """The next lines of ``fp``, each decoded without its line feed, up to
    ``size`` bytes that end at a line feed. A bad byte raises ParseError
    naming its line, counted from where ``fp`` was."""
    for lineno, line in enumerate(fp, start=1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8: {exc.reason}", f"line {lineno}") from exc
        yield text.removesuffix("\n")
        if size is not None and (size := size - len(line)) <= 0:
            return


def iter_trace(path: str | Path) -> Iterator[SimEvent]:
    """The events of a trace file as ``parse_trace`` checks them, read one line at a time.

    The bytes must be strict UTF-8, and a bad byte is reported before any
    other error: after a failed check the rest of the file is decoded.
    """
    with open(path, "rb") as fp:
        lines = _lines(fp)
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


def entropy_lines(trace: Iterable[SimEvent]) -> tuple[str, int, int]:
    """The entropy CSV's rows of a run of events, as ``write_entropy_csv``
    writes them after its header; the row count; and how many rows have a
    negative total. A fold for ``fold.fold_trace``."""
    rows = entropy_rows(trace)
    text = StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue(), len(rows), sum(1 for row in rows if row[4] < 0)  # row[4] is the total
