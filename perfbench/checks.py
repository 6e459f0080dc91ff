"""Per-operation output checks against the summary expect.py computed.

Each ``check_*`` returns a list of problems; an empty list means the
operation passed. Files are compared by streamed SHA-256, so the
benchmark's own process never holds a trace in memory.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path


def file_sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_run(trace: Path, exp: dict) -> list[str]:
    if file_sha256(trace) != exp["trace_sha256"]:
        return ["trace differs from in-process serialize_trace(Engine(...).run())"]
    return list(exp["trace_problems"])


def check_timeline(csv_path: Path, exp: dict) -> list[str]:
    if file_sha256(csv_path) != exp["timeline_sha256"]:
        return ["timeline CSV differs from write_timeline_csv on the declared clock"]
    return list(exp["timeline_problems"])


def check_entropy(csv_path: Path, exp: dict) -> list[str]:
    if file_sha256(csv_path) != exp["entropy_sha256"]:
        return ["entropy rows differ from the decay payloads"]
    return list(exp["entropy_problems"])


_CLOCK_LINE = re.compile(
    r"clock (\d+) \(period (\S+)\): (\d+) labels, (\d+) skipped, "
    r"(\d+) causal violations, (\d+) indistinguishable pairs"
)


def check_report(text: str, exp: dict) -> tuple[list[str], list[str]]:
    """Counts and per-clock lines must match a recomputation from the declared clocks.

    Returns ``(problems, known_defects)``. A clock line that is right except
    that its period is exactly the one rebuilt from the first two pulses
    (``rebuilt_period_s``) shows the known clock-origin defect of
    ``report``: it is returned as a known defect, not as a problem, so it is
    counted and printed on every run without failing the operation. Any
    other difference is a problem.
    """
    want = [f"events: {exp['events']}"]
    want += [f"  {k}: {n}" for k, n in sorted(exp["kinds"].items())]
    want.append(f"entropy: {exp['decays']} decays, {exp['second_law']} second-law violations")
    lines = text.splitlines()
    problems, known = [], []
    if lines[: len(want)] != want:
        problems.append("event or entropy counts differ from the trace")
    clock_lines = lines[len(want):]
    if len(clock_lines) != len(exp["clocks"]):
        problems.append(f"{len(clock_lines)} clock lines, expected {len(exp['clocks'])}")
    for line, c in zip(clock_lines, exp["clocks"]):
        m = _CLOCK_LINE.fullmatch(line)
        if m is None:
            problems.append(f"unreadable clock line {line!r}")
            continue
        got = (int(m[1]), float(m[2]), int(m[3]), int(m[4]), int(m[5]), int(m[6]))
        want_line = (c["id"], c["period_s"], c["labels"], c["skipped"], c["violations"], c["indistinguishable"])
        if got == want_line:
            continue
        if got == (c["id"], c.get("rebuilt_period_s"), *want_line[2:]):
            known.append(
                f"report clock {c['id']}: printed period {got[1]!r} rebuilt from pulses, "
                f"declared {c['period_s']!r}"
            )
        else:
            problems.append(
                f"clock {c['id']}: printed {line!r}; the declared period {c['period_s']!r} gives "
                f"{c['labels']} labels, {c['skipped']} skipped, {c['violations']} causal violations, "
                f"{c['indistinguishable']} indistinguishable pairs"
            )
    return problems, known
