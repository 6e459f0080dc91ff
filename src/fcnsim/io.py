"""Trace JSONL and report CSVs; the network document is ``fcnsim.network``'s.

Traces are JSONL, one event per line in trace order. Timelines and entropy
reports are CSV with a header row. All numeric output uses Python's
shortest round-trip float representation, so emitted files re-parse to
identical values.
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
from typing import TYPE_CHECKING, Any, Callable, IO, Iterable, Iterator

from .errors import ParseError
from .events import _INFINITE, _MAX_ID, _NUMBER, EventKind, EventTrace, SimEvent

if TYPE_CHECKING:
    from .chronology import Timeline

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

_INT = (int,)  # an integer read field's types, as ``events._NUMBER`` is a number's


# The network document's names this module used to define, from ``network``
# on first use. The benchmark still imports them from here; ROADMAP item 3b
# moves those imports and deletes this hook.
def __getattr__(name: str) -> Any:
    if name not in ("Injection", "NetworkDocument", "parse_network", "parse_network_file"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import network
    return getattr(network, name)


def _reject_line_constant(text: str) -> float:
    # Raised as a JSON error so that the trace reader names the line.
    raise json.JSONDecodeError(f"non-finite number literal {text!r} is not allowed", text, 0)


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
    """The line writer of one stream. Most payload floats are per-node
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


def serialize_trace(trace: Iterable[SimEvent]) -> str:
    """The JSONL text of ``trace``: one line per event, each ending in a line feed.

    Each line is byte-equal to ``json.dumps`` of the base fields and then
    the payload, with ``separators=(",", ":")``. Raises ValueError naming
    the event's id for a NaN or an infinity anywhere, which JSON cannot
    hold, and for an event a trace reader would refuse or read back as
    another: an id, node or parent not an unsigned 64-bit int, ``parents``
    not a tuple of at most one id, ``engine_time`` neither a finite float
    nor an int within the float range, a payload key not a string or
    naming a base field, a ``_READ_FIELDS`` field missing or mistyped, or
    a value that ``json.dumps`` cannot write or reads back as another.
    ``write_events`` writes each line the same way.
    """
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
