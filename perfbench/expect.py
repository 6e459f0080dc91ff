"""In-process recomputation of what each CLI command should output.

Run as a child process by ``run.py``, so the benchmark's own process stays
small (children inherit its peak RSS through fork and exec). It runs the
engine on the declared network, derives every expected output from the
in-process trace and the declared clocks, checks the paper's invariants on
that trace, and prints one JSON summary. A CLI output equal to the
in-process one byte for byte satisfies the same invariants.

    PYTHONPATH=src python3 perfbench/expect.py NET --until S --mode det|sto \
        --seed N --clock ID
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

from fcnsim.chronology import build_timeline, label_absorptions, pulses_from_trace, resolution_report
from fcnsim.constants import CONSTANTS
from fcnsim.engine import Engine, EventKind, RunConfig, SamplingMode
from fcnsim.entropy import EntropyBreakdown, entropy_lifetime
from fcnsim.io import ENTROPY_COLUMNS, parse_network, serialize_trace, write_timeline_csv

PASS_REASONS = ("occupied", "off_resonance", "not_detector")
MAX_PROBLEMS = 20


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_outputs(net_text: str, until_s: float, mode: str, seed: int, clock: int) -> dict:
    doc = parse_network(net_text)
    network = doc.network
    sampling = SamplingMode.STOCHASTIC if mode == "sto" else SamplingMode.DETERMINISTIC
    config = RunConfig(run_until_s=until_s, mode=sampling, seed=seed)
    injections = [(inj.node, inj.at_s) for inj in doc.injections]
    trace = Engine(network, config, injections).run()
    trace_text = serialize_trace(trace)

    kinds: dict[str, int] = {}
    pass_reasons = dict.fromkeys(PASS_REASONS, 0)
    for e in trace:
        kinds[e.kind.value] = kinds.get(e.kind.value, 0) + 1
        if e.kind is EventKind.PASS_THROUGH:
            pass_reasons[e.payload["reason"]] += 1
    decays = [e for e in trace if e.kind is EventKind.DECAY]

    clocks = []
    timeline_csv = ""
    timeline_problems = [f"clock {clock} has no pulses in the trace"]
    for clock_id in sorted({e.node for e in trace if e.kind is EventKind.CLOCK_TICK}):
        spec = network.clock_by_node[clock_id]
        pulses = pulses_from_trace(trace, clock_id)
        labels, skipped = label_absorptions(trace, spec, pulses)
        timeline, violations = build_timeline(labels, trace, observer=clock_id)
        resolution = resolution_report(timeline, trace)
        clocks.append(
            {
                "id": clock_id,
                "period_s": spec.period_s,
                # Known defect: `report` rebuilds the period from the first
                # two recorded pulses instead of using the declared spec, so
                # it can print a period that differs in the last bits. This
                # is that value, computed the way `report` computes it.
                "rebuilt_period_s": (
                    pulses[1].engine_time - pulses[0].engine_time if len(pulses) > 1 else 1.0
                ),
                "labels": len(labels),
                "skipped": skipped,
                "violations": len(violations),
                "indistinguishable": resolution.indistinguishable_pairs,
                "ordered_pairs": resolution.causally_ordered_pairs,
            }
        )
        if clock_id == clock:
            buf = io.StringIO()
            write_timeline_csv(timeline, trace, buf)
            timeline_csv = buf.getvalue()
            timeline_problems = floor_pairing_problems(labels, pulses, trace)
            timeline_problems += inversion_problems(labels, trace)
        del labels, timeline, violations

    return {
        "trace_sha256": _sha(trace_text),
        "trace_bytes": len(trace_text.encode("utf-8")),
        "timeline_sha256": _sha(timeline_csv),
        "entropy_sha256": _sha(entropy_csv_from_payloads(decays)),
        "events": len(trace),
        "kinds": dict(sorted(kinds.items())),
        "pass_through": pass_reasons,
        "decays": len(decays),
        "second_law": sum(1 for e in decays if e.payload["total"] < 0),
        "clocks": clocks,
        "trace_problems": trace_problems(trace, network),
        "timeline_problems": timeline_problems,
        "entropy_problems": entropy_identity_problems(decays),
    }


def trace_problems(trace, network) -> list[str]:
    """Decay-once, bitwise light-delay arrival, parents before children."""
    problems = []
    by_id = {}
    decayed: set[int] = set()
    c = CONSTANTS.c_m_per_s
    for e in trace:
        for p in e.parents:
            parent = by_id.get(p)
            if parent is None or (parent.engine_time, parent.id) >= (e.engine_time, e.id):
                problems.append(f"event {e.id}: parent {p} does not precede it")
        if e.kind is EventKind.DECAY:
            exc = e.payload["excitation_id"]
            if exc in decayed:
                problems.append(f"event {e.id}: excitation {exc} decays twice")
            decayed.add(exc)
        elif e.kind is EventKind.ABSORPTION:
            emission = by_id.get(min(e.parents, default=-1))
            arc = network.arc_by_id[e.payload["arc"]]
            if emission is None or e.engine_time != emission.engine_time + arc.distance_m / c:
                problems.append(f"event {e.id}: arrival is not emission + distance / c")
        by_id[e.id] = e
    return problems[:MAX_PROBLEMS]


def floor_pairing_problems(labels, pulses, trace) -> list[str]:
    """Each label's pulse is the latest pulse at or before its absorption."""
    time_of = {e.id: e.engine_time for e in trace}
    pulse_index = {p.id: i for i, p in enumerate(pulses)}
    problems = []
    for lb in labels:
        i = pulse_index[lb.triplet.pulse]
        t = time_of[lb.event]
        after = pulses[i + 1].engine_time if i + 1 < len(pulses) else math.inf
        if not pulses[i].engine_time <= t < after:
            problems.append(f"event {lb.event}: paired with pulse {lb.triplet.pulse}, not the floor")
    return problems[:MAX_PROBLEMS]


def inversion_problems(labels, trace) -> list[str]:
    """No labeled event carries a smaller time number than a labeled ancestor.

    One pass in id order carries, per event, the largest label among its
    labeled ancestors (parents always have smaller ids), so the check is
    linear where build_timeline's own check is quadratic on chains.
    """
    label_of = {lb.event: lb.time_number_s for lb in labels}
    high: dict[int, float] = {}
    problems = []
    for e in trace:
        m = max((high[p] for p in e.parents if p in high), default=None)
        own = label_of.get(e.id)
        if own is not None:
            if m is not None and m > own:
                problems.append(f"event {e.id}: labeled {own} after an ancestor labeled {m}")
            m = own if m is None else max(m, own)
        if m is not None:
            high[e.id] = m
    return problems[:MAX_PROBLEMS]


def entropy_csv_from_payloads(decays) -> str:
    """The entropy CSV built straight from the decay payloads."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ENTROPY_COLUMNS)
    for e in decays:
        writer.writerow([e.id] + [e.payload[k] for k in ENTROPY_COLUMNS[1:]])
    return buf.getvalue()


def entropy_identity_problems(decays) -> list[str]:
    """Entropy-production duration equals the decay lifetime to 1e-9."""
    problems = []
    for e in decays:
        p = e.payload
        breakdown = EntropyBreakdown(p["ds_internal"], p["ds_signal"], p["ds_vacuum"])
        seconds = entropy_lifetime(breakdown, p["gamma_ev"]).seconds
        if abs(seconds - p["lifetime_s"]) > 1e-9 * p["lifetime_s"]:
            problems.append(f"decay {e.id}: entropy lifetime {seconds} != {p['lifetime_s']}")
    return problems[:MAX_PROBLEMS]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("net")
    parser.add_argument("--until", type=float, required=True)
    parser.add_argument("--mode", choices=("det", "sto"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clock", type=int, required=True)
    args = parser.parse_args(argv)
    net_text = Path(args.net).read_text(encoding="utf-8")
    json.dump(expected_outputs(net_text, args.until, args.mode, args.seed, args.clock), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
