"""Command-line surface: validate, run, timeline, entropy, report.

Exit codes: 0 success, 1 usage error, 2 validation or parse error or a
path that is missing or a directory, 3 runtime error. Each command
imports the modules it runs, so reading a trace loads no engine code.

``main`` pauses the cyclic garbage collector while a command runs and
restores its previous state afterwards. A command builds tens of
thousands of events and decoded records, none of them in a reference
cycle, and each generation-2 pass would rescan all of them as the trace
grows; the cyclic garbage a command leaves is a few hundred objects,
whatever the trace length, and is collected once the collector resumes.

While a command runs in the main thread, a SIGTERM that would kill the
process raises ``_Terminated`` instead, so ``run``'s writer removes its
temporary file and a reading command kills and reaps the worker that
reads a trace's second half; ``main`` then restores the default handler
and raises the signal again, and the process still ends killed by SIGTERM.
"""

from __future__ import annotations

import argparse
import gc
import math
import signal
import sys
from contextlib import nullcontext
from typing import TYPE_CHECKING

from .errors import FcnError, ParseError, ValidationFailed

if TYPE_CHECKING:
    from pathlib import Path
    from typing import IO, ContextManager, Iterable, Iterator
    from .events import SimEvent


class _UsageError(Exception):
    pass


class _Terminated(BaseException):
    """A SIGTERM while a command runs; a BaseException, so no command catches it."""


def _terminated(signum: int, frame: object) -> None:
    raise _Terminated


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _seed(text: str) -> int:
    """A seed as ``--seed`` and the ends of ``--seeds`` take it: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _finite(text: str, positive: bool = False) -> float:
    """A flag's finite number; with ``positive``, a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or positive and not value > 0:
        raise argparse.ArgumentTypeError(f"expected a finite number{' > 0' * positive}, got {text!r}")
    return value


def _positive(text: str) -> float:
    return _finite(text, positive=True)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fcnsim", description="Causal clock network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a network document",
                                description="Check a network document as run would, with its default entropy flags.")
    p_validate.add_argument("net", help="network document (JSON)")
    p_validate.add_argument(
        "--coupling-fraction",
        type=_positive,
        help="transit/lifetime ratio below which nodes couple collectively",
    )

    p_run = sub.add_parser("run", help="run a network and emit the event trace")
    p_run.add_argument("net", help="network document (JSON)")
    p_run.add_argument("--until", type=_positive, required=True, metavar="S", help="run horizon in seconds")
    p_run.add_argument("--mode", choices=("det", "sto"), default="det", help="decay-delay mode")
    p_run.add_argument("--seed", type=_seed, default=0, help="RNG seed for stochastic mode")
    p_run.add_argument("--seeds", metavar="A..B", help="inclusive seed range; one run per seed")
    p_run.add_argument("--out", help="trace file (JSONL); stdout when omitted")
    p_run.add_argument("--t-source", type=_positive, default=300.0, help="source temperature (K)")
    p_run.add_argument("--t-env", type=_positive, default=3.0, help="environment temperature (K)")
    p_run.add_argument("--vacuum-term", type=_finite, default=0.0,
                       help="vacuum entropy term (k_B); write a negative exponent form with =, as --vacuum-term=-1e308")

    p_timeline = sub.add_parser("timeline", help="label a trace's absorptions with one clock")
    p_timeline.add_argument("trace", help="trace file (JSONL)")
    p_timeline.add_argument("--clock", type=int, required=True, metavar="ID", help="clock host node id")
    p_timeline.add_argument("--net", help="network document; the recorded pulses must match its clock")
    p_timeline.add_argument("--out", help="timeline CSV; stdout when omitted")

    p_entropy = sub.add_parser("entropy", help="emit the per-decay entropy report")
    p_entropy.add_argument("trace", help="trace file (JSONL)")
    p_entropy.add_argument("--out", help="entropy CSV; stdout when omitted")

    p_report = sub.add_parser("report", help="summarize a trace")
    p_report.add_argument("trace", help="trace file (JSONL)")

    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    from .entropy import DEFAULT_ENTROPY_MODEL, decay_payloads
    from .io import parse_network_file
    from .network import DEFAULT_COUPLING_FRACTION, CouplingKind, classify_coupling
    fraction = DEFAULT_COUPLING_FRACTION if args.coupling_fraction is None else args.coupling_fraction
    doc = parse_network_file(args.net)
    net = doc.network
    if problems := decay_payloads(net.nodes, DEFAULT_ENTROPY_MODEL)[1]:  # run's decay rows, under its default flags
        raise ValidationFailed(problems)
    coupling = classify_coupling(net, fraction)
    print(
        f"ok: {len(net.nodes)} nodes, {len(net.arcs)} arcs, "
        f"{len(net.clocks)} clocks, {len(doc.injections)} injections"
    )
    cens = [c for c in coupling.classes if c.kind == CouplingKind.CEN]
    for cen in cens:
        print(f"collective group: nodes {', '.join(map(str, cen.members))}")
    print(
        f"coupling: {len(cens)} collective, "
        f"{len(coupling.classes) - len(cens)} sequential, "
        f"{len(coupling.sen_links)} sequential links"
    )
    return 0


def _parse_seed_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    try:
        a, b = _seed(lo), _seed(hi)
    except argparse.ArgumentTypeError:
        raise _UsageError(f"--seeds expects A..B of non-negative integers, got {text!r}") from None
    if b < a:
        raise _UsageError(f"--seeds range is empty: {text!r}")
    return range(a, b + 1)


def _seed_out_path(out: str, seed: int) -> Path:
    from pathlib import Path
    path = Path(out)
    return path.with_name(f"{path.stem}.seed{seed}{path.suffix}")


def _cmd_run(args: argparse.Namespace) -> int:
    from .engine import Engine, RunConfig, SamplingMode
    from .entropy import EntropyModel
    from .io import _refuse_directory, parse_network_file, write_events, write_trace
    if args.out:  # refused before any engine runs, --seeds or not
        _refuse_directory(args.out)
    doc = parse_network_file(args.net)
    mode = SamplingMode.STOCHASTIC if args.mode == "sto" else SamplingMode.DETERMINISTIC

    def events(seed: int) -> Iterator[SimEvent]:
        model = EntropyModel(args.t_source, args.t_env, args.vacuum_term)
        return Engine(doc.network, RunConfig(args.until, mode, seed, model), doc.injections).events()

    if args.seeds:
        if mode is not SamplingMode.STOCHASTIC:
            raise _UsageError("--seeds requires --mode sto")
        if not args.out:
            raise _UsageError("--seeds requires --out")
        for seed in _parse_seed_range(args.seeds):
            out = _seed_out_path(args.out, seed)
            count = write_trace(events(seed), out)
            print(f"run: seed {seed}: {count} events -> {out}", file=sys.stderr)
        return 0

    if args.out:
        count = write_trace(events(args.seed), args.out)
    else:
        count = write_events(events(args.seed), sys.stdout)
    print(f"run: {count} events, until {args.until}", file=sys.stderr)
    return 0


def _output(path: str | None) -> ContextManager[IO[str]]:
    """The CSV file ``path`` opened to write, or, without a path, stdout,
    which the ``with`` block leaves open."""
    return open(path, "w", encoding="utf-8", newline="") if path else nullcontext(sys.stdout)


def _cmd_timeline(args: argparse.Namespace) -> int:
    from .chronology import TraceIndex, _undeclared_pulses, fold_index
    from .fold import fold_trace
    from .io import parse_network_file, write_timeline_csv
    spec = None

    def clock_spec() -> None:
        nonlocal spec
        spec = parse_network_file(args.net).network.clock_by_node.get(args.clock)
        if spec is None:
            raise ValidationFailed([f"no standard clock at node {args.clock} in {args.net}"])

    # The network is read while a large trace's second half is read on
    # the other core; its error still comes first.
    index = TraceIndex.joined(fold_trace(args.trace, fold_index, clock_spec if args.net else None))
    pulses = index.pulses(args.clock)
    if args.net:
        first = next(_undeclared_pulses(pulses, spec, args.net), None)
        if first:
            raise ValidationFailed([first[1]])
    if not pulses:
        raise ValidationFailed([f"clock {args.clock}: no pulses in trace"])
    labels, skipped = index.label(pulses)
    timeline, violations, _ = index.check(labels, observer=args.clock)
    with _output(args.out) as fp:
        rows = write_timeline_csv(timeline, index.absorptions, fp)
    print(
        f"timeline: clock {args.clock}: {rows} labels, {skipped} skipped, "
        f"{len(violations)} causal violations",
        file=sys.stderr,
    )
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    from .fold import fold_trace
    from .io import ENTROPY_COLUMNS, entropy_lines, write_csv
    # The rows are written once the whole trace has passed its checks.
    text, decays, violations = fold_trace(args.trace, entropy_lines)
    with _output(args.out) as fp:
        write_csv(fp, ENTROPY_COLUMNS, [])
        fp.write(text)
    print(f"entropy: {decays} decays, {violations} second-law violations", file=sys.stderr)
    return 0


def _report_fold(events: Iterable[SimEvent]) -> tuple:
    """The index fold of a run of events, then its count of each kind (in
    ``EventKind`` order) and its count of decays with a negative total."""
    from .chronology import fold_index
    from .events import EventKind
    counts = dict.fromkeys(EventKind, 0)  # a plain dict: CPython specializes its item updates
    negative = 0  # decays with a negative total entropy change

    def tallied(events: Iterable[SimEvent]) -> Iterator[SimEvent]:
        nonlocal negative
        decay = EventKind.DECAY
        for event in events:
            counts[kind := event.kind] += 1
            negative += kind is decay and event.payload["total"] < 0
            yield event

    return (*fold_index(tallied(events)), *counts.values(), negative)


def _cmd_report(args: argparse.Namespace) -> int:
    from operator import attrgetter
    from .chronology import TraceIndex
    from .events import EventKind
    from .fold import fold_trace
    # One pass over the stream counts the kinds, finds every clock's pulses
    # and keeps the events that descend from an absorption; each clock then
    # costs one labeling and one pass over those events.
    folded = fold_trace(args.trace, _report_fold)
    index = TraceIndex.joined(folded[:3])
    *tally, negative = folded[3:]
    counts = dict(zip(EventKind, tally))
    # Printed once every clock is labelled, so a failure leaves stdout empty.
    lines = [f"events: {sum(tally)}"]
    lines += [f"  {kind.value}: {counts[kind]}" for kind in sorted(counts, key=attrgetter("value")) if counts[kind]]
    lines.append(f"entropy: {counts[EventKind.DECAY]} decays, {negative} second-law violations")
    for clock_id in index.clocks:
        pulses = index.pulses(clock_id)
        labels, skipped = index.label(pulses)
        _, violations, resolution = index.check(labels, observer=clock_id)
        # The spacing of the first two recorded pulses; 1.0 for a clock that ticked once.
        period = pulses[1].engine_time - pulses[0].engine_time if len(pulses) > 1 else 1.0
        lines.append(
            f"clock {clock_id} (period {period}): {len(labels)} labels, "
            f"{skipped} skipped, {len(violations)} causal violations, "
            f"{resolution.indistinguishable_pairs} indistinguishable pairs"
        )
    print("\n".join(lines))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "timeline": _cmd_timeline,
    "entropy": _cmd_entropy,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    collecting = gc.isenabled()
    gc.disable()
    previous = None  # the SIGTERM handler to restore
    try:
        # Only where SIGTERM would kill the process, and only in the main
        # thread: signal.signal raises ValueError in any other.
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
            try:
                previous = signal.signal(signal.SIGTERM, _terminated)
            except ValueError:
                pass
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _Terminated:
        signal.signal(signal.SIGTERM, previous)
        previous = None
        signal.raise_signal(signal.SIGTERM)
        raise  # not reached: the default action ends the process
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationFailed as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except (ParseError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FcnError, OSError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
