"""One in-process pass over every layer of fcnsim, optionally traced.

Run as a fresh child process by ``run.py --trace 1``. It calls the public
entry point of each layer in the order the CLI pipeline uses them (network
parse, engine run, trace serialize and parse, entropy, timeline, report)
and prints one JSON object: the spans (when traced), the layer counts, the
output digests the parent checks, and the total wall time of the pass.

The spans are recorded here, around the calls; nothing inside fcnsim is
instrumented. A fresh process per pass makes ``cli.import_s`` a cold
import and lets ``ru_maxrss`` show each layer's peak-memory growth.

    PYTHONPATH=src python3 perfbench/layers.py NET --until S --mode det|sto \
        --seed N --clock ID --traced 0|1 --trace-id ID
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

_NULL = nullcontext()


class Tracer:
    """Spans kept in memory: id, parent span, name, start, end, trace id."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "trace_id": self.trace_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    spans = ()

    def span(self, name: str):
        return _NULL


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def one_pass(net_bytes: bytes, args: argparse.Namespace, tracer) -> dict:
    """Run every layer once; return counts, digests and memory growth."""
    span = tracer.span
    with span("rep"):
        with span("cli.import"):
            import fcnsim.cli  # noqa: F401  (the CLI imports every layer)
        from fcnsim.chronology import (
            build_timeline,
            label_absorptions,
            pulses_from_trace,
            resolution_report,
        )
        from fcnsim.engine import Engine, EventKind, RunConfig, SamplingMode
        from fcnsim.entropy import DEFAULT_ENTROPY_MODEL, EntropyLedger, entropy_lifetime
        from fcnsim.io import (
            parse_network,
            parse_trace,
            serialize_trace,
            write_entropy_csv,
            write_timeline_csv,
        )
        from fcnsim.network import classify_coupling, validate_network

        with span("io.parse_network"):
            doc = parse_network(net_bytes)
        net = doc.network
        with span("network.validate_network"):
            validate_network(net.nodes, net.arcs, net.clocks)
        with span("network.classify_coupling"):
            classify_coupling(net)

        mode = SamplingMode.STOCHASTIC if args.mode == "sto" else SamplingMode.DETERMINISTIC
        config = RunConfig(run_until_s=args.until, mode=mode, seed=args.seed)
        injections = [(inj.node, inj.at_s) for inj in doc.injections]
        rss0 = _maxrss_mb()
        with span("engine.init"):
            engine = Engine(net, config, injections)
        with span("engine.run"):
            trace = engine.run()
        engine_rss = _maxrss_mb() - rss0
        with span("io.serialize_trace"):
            text = serialize_trace(trace)
        del engine, trace
        with span("io.parse_trace"):
            trace = parse_trace(text)

        with span("entropy.replay"):
            ledger = EntropyLedger()
            replay_mismatch = 0
            for e in trace:
                if e.kind is EventKind.DECAY:
                    p = e.payload
                    row = ledger.record_decay(e.id, p["energy_ev"], p["gamma_ev"], DEFAULT_ENTROPY_MODEL)
                    life = entropy_lifetime(row.breakdown, p["gamma_ev"])
                    replay_mismatch += (
                        row.breakdown.total() != p["total"]
                        or abs(life.seconds - p["lifetime_s"]) > 1e-9 * p["lifetime_s"]
                    )
        with span("io.write_entropy_csv"):
            entropy_buf = io.StringIO()
            write_entropy_csv(trace, entropy_buf)

        rss1 = _maxrss_mb()
        spec = net.clock_by_node[args.clock]
        with span("timeline"):
            with span("chronology.label_absorptions"):
                labels, _ = label_absorptions(trace, spec)
            with span("chronology.build_timeline"):
                timeline, _ = build_timeline(labels, trace, observer=args.clock)
            with span("io.write_timeline_csv"):
                timeline_buf = io.StringIO()
                write_timeline_csv(timeline, trace, timeline_buf)
        del labels, timeline

        report = {}
        n_labels = ordered_pairs = 0
        clock_ids = sorted({e.node for e in trace if e.kind is EventKind.CLOCK_TICK})
        with span("report"):
            for clock_id in clock_ids:
                with span("chronology.pulses_from_trace"):
                    pulses = pulses_from_trace(trace, clock_id)
                with span("chronology.label_absorptions"):
                    labels, skipped = label_absorptions(trace, net.clock_by_node[clock_id], pulses)
                with span("chronology.build_timeline"):
                    timeline, violations = build_timeline(labels, trace, observer=clock_id)
                with span("chronology.resolution_report"):
                    resolution = resolution_report(timeline, trace)
                n_labels += len(labels)
                ordered_pairs += resolution.causally_ordered_pairs
                report[str(clock_id)] = [
                    len(labels), skipped, len(violations), resolution.indistinguishable_pairs
                ]
                del labels, timeline, violations
        chronology_rss = _maxrss_mb() - rss1

    kinds = {k.value: 0 for k in EventKind}
    reasons = {"occupied": 0, "off_resonance": 0, "not_detector": 0}
    for e in trace:
        kinds[e.kind.value] += 1
        if e.kind is EventKind.PASS_THROUGH:
            reasons[e.payload["reason"]] += 1
    return {
        "counts": {
            "events": len(trace),
            "kinds": kinds,
            "pass_through": reasons,
            "labels": n_labels,
            "ordered_pairs": ordered_pairs,
            "clocks": len(clock_ids),
            "trace_bytes": len(text.encode("utf-8")),
            "replay_mismatch": replay_mismatch,
        },
        "rss_growth_mb": {"engine": engine_rss, "chronology": chronology_rss},
        "digests": {
            "trace": _sha(text),
            "timeline": _sha(timeline_buf.getvalue()),
            "entropy": _sha(entropy_buf.getvalue()),
            "report": report,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("net")
    parser.add_argument("--until", type=float, required=True)
    parser.add_argument("--mode", choices=("det", "sto"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clock", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-id", default="")
    args = parser.parse_args(argv)

    net_bytes = Path(args.net).read_bytes()
    tracer = Tracer(args.trace_id) if args.traced else NullTracer()
    t0 = time.perf_counter()
    result = one_pass(net_bytes, args, tracer)
    result["total_s"] = time.perf_counter() - t0
    result["spans"] = tracer.spans
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
