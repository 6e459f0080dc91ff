"""Command-line surface: validate, run, timeline, entropy, report.

Exit codes: 0 success, 1 usage error, 2 validation or parse error,
3 runtime error. Set FCN_LOG=debug|info|warning for diagnostics on
stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .chronology import (
    ClockPulse,
    build_timeline,
    label_absorptions,
    pulses_from_trace,
    resolution_report,
)
from .engine import Engine, EventKind, EventTrace, RunConfig, SamplingMode
from .entropy import EntropyModel
from .errors import FcnError, ParseError, ValidationFailed
from .io import (
    parse_network_file,
    read_trace,
    serialize_trace,
    write_entropy_csv,
    write_timeline_csv,
    write_trace,
)
from .network import CouplingKind, StandardClockSpec, classify_coupling

logger = logging.getLogger(__name__)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fcnsim", description="Causal clock network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a network document")
    p_validate.add_argument("net", help="network document (JSON)")
    p_validate.add_argument(
        "--coupling-fraction",
        type=float,
        default=0.01,
        help="transit/lifetime ratio below which nodes couple collectively",
    )

    p_run = sub.add_parser("run", help="run a network and emit the event trace")
    p_run.add_argument("net", help="network document (JSON)")
    p_run.add_argument("--until", type=float, required=True, metavar="S", help="run horizon in seconds")
    p_run.add_argument("--mode", choices=("det", "sto"), default="det", help="decay-delay mode")
    p_run.add_argument("--seed", type=int, default=0, help="RNG seed for stochastic mode")
    p_run.add_argument("--seeds", metavar="A..B", help="inclusive seed range; one run per seed")
    p_run.add_argument("--out", help="trace file (JSONL); stdout when omitted")
    p_run.add_argument("--coupling-fraction", type=float, default=0.01)
    p_run.add_argument("--t-source", type=float, default=300.0, help="source temperature (K)")
    p_run.add_argument("--t-env", type=float, default=3.0, help="environment temperature (K)")
    p_run.add_argument("--vacuum-term", type=float, default=0.0, help="vacuum entropy term (k_B)")

    p_timeline = sub.add_parser("timeline", help="label a trace's absorptions with one clock")
    p_timeline.add_argument("trace", help="trace file (JSONL)")
    p_timeline.add_argument("--clock", type=int, required=True, metavar="ID", help="clock host node id")
    p_timeline.add_argument("--net", help="network document; clock spec read from it when given")
    p_timeline.add_argument("--out", help="timeline CSV; stdout when omitted")

    p_entropy = sub.add_parser("entropy", help="emit the per-decay entropy report")
    p_entropy.add_argument("trace", help="trace file (JSONL)")
    p_entropy.add_argument("--out", help="entropy CSV; stdout when omitted")

    p_report = sub.add_parser("report", help="summarize a trace")
    p_report.add_argument("trace", help="trace file (JSONL)")

    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    doc = parse_network_file(args.net)
    net = doc.network
    print(
        f"ok: {len(net.nodes)} nodes, {len(net.arcs)} arcs, "
        f"{len(net.clocks)} clocks, {len(doc.injections)} injections"
    )
    coupling = classify_coupling(net, args.coupling_fraction)
    cens = [c for c in coupling.classes if c.kind == CouplingKind.CEN]
    for cen in cens:
        print(f"collective group: nodes {', '.join(map(str, cen.members))}")
    print(
        f"coupling: {len(cens)} collective, "
        f"{len(coupling.classes) - len(cens)} sequential, "
        f"{len(coupling.sen_links)} sequential links"
    )
    return 0


def _entropy_model(args: argparse.Namespace) -> EntropyModel:
    return EntropyModel(
        source_temperature_k=args.t_source,
        environment_temperature_k=args.t_env,
        vacuum_term_kb=args.vacuum_term,
    )


def _parse_seed_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.lstrip("-").isdigit() or not hi.lstrip("-").isdigit():
        raise _UsageError(f"--seeds expects A..B, got {text!r}")
    a, b = int(lo), int(hi)
    if b < a:
        raise _UsageError(f"--seeds range is empty: {text!r}")
    return range(a, b + 1)


def _seed_out_path(out: str, seed: int) -> Path:
    path = Path(out)
    return path.with_name(f"{path.stem}.seed{seed}{path.suffix}")


def _cmd_run(args: argparse.Namespace) -> int:
    doc = parse_network_file(args.net)
    mode = SamplingMode.STOCHASTIC if args.mode == "sto" else SamplingMode.DETERMINISTIC
    injections = [(inj.node, inj.at_s) for inj in doc.injections]

    def run_one(seed: int) -> EventTrace:
        config = RunConfig(
            run_until_s=args.until,
            mode=mode,
            seed=seed,
            coupling_fraction=args.coupling_fraction,
            entropy_model=_entropy_model(args),
        )
        return Engine(doc.network, config, injections).run()

    if args.seeds:
        if mode is not SamplingMode.STOCHASTIC:
            raise _UsageError("--seeds requires --mode sto")
        if not args.out:
            raise _UsageError("--seeds requires --out")
        for seed in _parse_seed_range(args.seeds):
            trace = run_one(seed)
            out = _seed_out_path(args.out, seed)
            write_trace(trace, out)
            print(f"run: seed {seed}: {len(trace)} events -> {out}", file=sys.stderr)
        return 0

    trace = run_one(args.seed)
    if args.out:
        write_trace(trace, args.out)
    else:
        sys.stdout.write(serialize_trace(trace))
    print(f"run: {len(trace)} events, until {args.until}", file=sys.stderr)
    return 0


def _reconstruct_clock(clock_id: int, pulses: tuple[ClockPulse, ...]) -> StandardClockSpec | None:
    """Rebuild a clock spec from its pulses as recorded in the trace."""
    if not pulses:
        return None
    # With a single pulse the period is unconstrained; any positive value
    # works because every label then equals the first counter.
    period = pulses[1].engine_time - pulses[0].engine_time if len(pulses) > 1 else 1.0
    return StandardClockSpec(
        id=clock_id,
        period_s=period,
        first_tick_s=pulses[0].engine_time,
        counter_start=pulses[0].counter,
    )


def _cmd_timeline(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    pulses = pulses_from_trace(trace, args.clock)
    if args.net:
        doc = parse_network_file(args.net)
        spec = doc.network.clock_by_node.get(args.clock)
        if spec is None:
            print(f"error: no standard clock at node {args.clock} in {args.net}", file=sys.stderr)
            return 2
    else:
        spec = _reconstruct_clock(args.clock, pulses)
        if spec is None:
            print(f"error: clock {args.clock}: no pulses in trace", file=sys.stderr)
            return 2
    labels, skipped = label_absorptions(trace, spec, pulses)
    timeline, violations = build_timeline(labels, trace, observer=args.clock)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fp:
            rows = write_timeline_csv(timeline, trace, fp)
    else:
        rows = write_timeline_csv(timeline, trace, sys.stdout)
    print(
        f"timeline: clock {args.clock}: {rows} labels, {skipped} skipped, "
        f"{len(violations)} causal violations",
        file=sys.stderr,
    )
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fp:
            rows = write_entropy_csv(trace, fp)
    else:
        rows = write_entropy_csv(trace, sys.stdout)
    violations = sum(
        1 for e in trace if e.kind is EventKind.DECAY and e.payload["total"] < 0
    )
    print(f"entropy: {rows} decays, {violations} second-law violations", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    print(f"events: {len(trace)}")
    counts: dict[str, int] = {}
    for event in trace:
        counts[event.kind.value] = counts.get(event.kind.value, 0) + 1
    for kind in sorted(counts):
        print(f"  {kind}: {counts[kind]}")
    decays = [e for e in trace if e.kind is EventKind.DECAY]
    second_law = sum(1 for e in decays if e.payload["total"] < 0)
    print(f"entropy: {len(decays)} decays, {second_law} second-law violations")
    clock_ids = sorted({e.node for e in trace if e.kind is EventKind.CLOCK_TICK})
    for clock_id in clock_ids:
        pulses = pulses_from_trace(trace, clock_id)
        spec = _reconstruct_clock(clock_id, pulses)
        assert spec is not None
        labels, skipped = label_absorptions(trace, spec, pulses)
        timeline, violations = build_timeline(labels, trace, observer=clock_id)
        resolution = resolution_report(timeline, trace)
        print(
            f"clock {clock_id} (period {spec.period_s}): {len(labels)} labels, "
            f"{skipped} skipped, {len(violations)} causal violations, "
            f"{resolution.indistinguishable_pairs} indistinguishable pairs"
        )
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "timeline": _cmd_timeline,
    "entropy": _cmd_entropy,
    "report": _cmd_report,
}


def _configure_logging() -> None:
    level_name = os.environ.get("FCN_LOG", "").strip().upper()
    if level_name:
        logging.basicConfig(
            level=getattr(logging, level_name, logging.WARNING),
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationFailed) as exc:
        if isinstance(exc, ValidationFailed):
            for problem in exc.problems:
                print(f"error: {problem}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FcnError, OSError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
