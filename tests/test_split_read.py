"""Reading a trace file in two halves at once (``fold.fold_trace``).

Every test here lowers the size at which a file is split to 0 bytes, so
that even a two-line trace is read by a forked worker and this process
together, and checks that no worker is left unreaped. The reference is the
serial reader, ``iter_trace``: each output, error message and exit code
must be its own. The last tests check that a command killed by SIGTERM
mid-read reaps its worker, and that each fold of two runs of events adds
up to the fold of the whole, at every cut.
"""

from __future__ import annotations

import json
import os
import runpy
import signal
import threading
from operator import add
from pathlib import Path

import pytest

import test_cli
import test_io
from fcnsim import ParseError, fold
from fcnsim.chronology import TraceIndex, fold_index
from fcnsim.cli import _report_fold, main
from fcnsim.fold import fold_trace
from fcnsim.io import entropy_lines, iter_trace
from helpers import random_run, run_fresh
from test_cli import chain_net, chain_trace_file  # noqa: F401  (fixtures of the classes rerun below)

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(autouse=True)
def forks(monkeypatch):
    """Split every trace file; yield the pids of the workers forked. After
    the test no child process is left, reaped or not."""
    monkeypatch.setattr(fold, "_SPLIT_BYTES", 0)
    pids: list[int] = []
    fork = os.fork

    def counted() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _filler(ids: range) -> str:
    """Valid trace lines: each event's parent is the one before it."""
    return "".join(
        json.dumps({"id": i, "kind": "external_excitation", "node": 1, "engine_time": float(i),
                    "parents": [i - 1] if i > ids.start else []}) + "\n"
        for i in ids
    )


def _serial_error(path: Path) -> str:
    with pytest.raises(ParseError) as err:
        list(iter_trace(path))
    return str(err.value)


# The commands of test_cli, rerun with every trace split.


class TestTimeline(test_cli.TestTimeline):
    pass


class TestEntropy(test_cli.TestEntropy):
    pass


class TestReport(test_cli.TestReport):
    pass


class TestMalformedTrace(test_cli.TestMalformedTrace):
    pass


@pytest.mark.parametrize("where", ["head", "tail"])
@pytest.mark.parametrize("record, message", test_io.MALFORMED_RECORDS)
def test_malformed_record_message(tmp_path, forks, record, message, where):
    """Each malformed record of ``test_io``, in the first or the second half
    of a file, fails with the serial reader's message and line."""
    line = json.dumps(record) + "\n"
    filler = _filler(range(10, 16))
    path = tmp_path / "trace.jsonl"
    path.write_text(line + filler if where == "head" else filler + line)
    start = fold._seam(path)
    assert start > len(line) if where == "head" else start <= len(filler)
    lineno = 1 if where == "head" else 7
    with pytest.raises(ParseError) as err:
        fold_trace(path, entropy_lines)
    assert str(err.value) == f"line {lineno}: {message}" == _serial_error(path)
    assert len(forks) == 1


@pytest.mark.parametrize("where", ["head", "tail"])
@pytest.mark.parametrize("field, value, message", test_io.UNDECODABLE, ids=["deep-nesting", "digit-limit"])
def test_undecodable_json_names_its_line(tmp_path, forks, field, value, message, where):
    """``test_io``'s undecodable lines, in either half, are invalid JSON on their line."""
    line = json.dumps({**test_io._ABSORPTION, field: "@"}).replace('"@"', value) + "\n"
    filler = _filler(range(10, 10 + len(line) // 50))  # more bytes than the line
    path = tmp_path / "trace.jsonl"
    path.write_text(line + filler if where == "head" else filler + line)
    lineno = 1 if where == "head" else filler.count("\n") + 1
    with pytest.raises(ParseError) as err:
        fold_trace(path, entropy_lines)
    assert str(err.value).startswith(f"line {lineno}: invalid JSON: {message}")
    assert str(err.value) == _serial_error(path)
    assert len(forks) == 1


@pytest.fixture(scope="module")
def seed7(tmp_path_factory):
    """The benchmark's seed-7 traces and networks, and each one's timeline clock."""
    from fcnsim import Engine, RunConfig, SamplingMode
    from fcnsim.io import write_trace
    from fcnsim.network import parse_network
    generators = runpy.run_path(str(_WORKLOADS))["GENERATORS"]
    work = tmp_path_factory.mktemp("seed7")
    made = {}
    for name in ("random", "chain", "broadcast"):
        w = generators[name](7)
        net = work / f"{name}.net.json"
        net.write_text(json.dumps(w.doc))
        doc = parse_network(net.read_text())
        mode = SamplingMode.STOCHASTIC if w.mode == "sto" else SamplingMode.DETERMINISTIC
        trace = work / f"{name}.jsonl"
        write_trace(Engine(doc.network, RunConfig(w.until_s, mode, w.seed), doc.injections).events(), trace)
        made[name] = (trace, net, w.clock)
    return made


@pytest.mark.parametrize("name", ["random", "chain", "broadcast"])
def test_seed_7_outputs_are_the_serial_readers(seed7, name, forks, monkeypatch, tmp_path, capsys):
    """``timeline --net`` and ``entropy`` CSVs and ``report`` stdout of the
    benchmark's seed-7 traces are byte-identical split and read whole."""
    trace, net, clock = seed7[name]
    commands = [
        ["timeline", str(trace), "--clock", str(clock), "--net", str(net)],
        ["entropy", str(trace)],
        ["report", str(trace)],
    ]
    outputs = {}
    for split in (True, False):
        monkeypatch.setattr(fold, "_SPLIT_BYTES", 0 if split else 2**63)
        for argv in commands:
            out = tmp_path / f"{argv[0]}.{split}.csv"
            code = main([*argv, "--out", str(out)] if argv[0] != "report" else argv)
            captured = capsys.readouterr()
            outputs[split, argv[0]] = (code, captured.err, captured.out, out.read_bytes() if out.exists() else None)
    assert len(forks) == 3
    for argv in commands:
        assert outputs[True, argv[0]] == outputs[False, argv[0]]
        assert outputs[True, argv[0]][0] == 0


@pytest.fixture
def two_digit_trace(tmp_path):
    """A split trace of events 10 to 39, whose ids and parents all have two
    digits; and the number and text of the first line of its second half."""
    path = tmp_path / "trace.jsonl"
    path.write_text(_filler(range(10, 40)))
    start = fold._seam(path)
    text = path.read_bytes()
    lineno = text[:start].count(b"\n") + 1
    return path, lineno, text[start:].split(b"\n", 1)[0]


def _replace_line(path: Path, lineno: int, old: bytes, new: bytes) -> None:
    """Replace ``old`` by ``new``, of the same length, on line ``lineno``."""
    assert len(old) == len(new)
    lines = path.read_bytes().split(b"\n")
    assert old in lines[lineno - 1]
    lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
    path.write_bytes(b"\n".join(lines))


def test_id_not_ascending_at_the_seam(two_digit_trace, forks):
    """Each half ascends, but the second half's first id repeats the first's last."""
    path, lineno, line = two_digit_trace
    eid = json.loads(line)["id"]
    _replace_line(path, lineno, f'"id": {eid}'.encode(), f'"id": {eid - 1}'.encode())
    message = f"line {lineno}: event id {eid - 1} is not greater than id {eid - 1} on line {lineno - 1}"
    with pytest.raises(ParseError) as err:
        fold_trace(path, entropy_lines)
    assert str(err.value) == message == _serial_error(path)
    assert len(forks) == 1


@pytest.mark.parametrize("shift", [1, 50], ids=["later-in-the-tail", "nowhere"])
def test_tail_parent_that_no_head_event_has(two_digit_trace, forks, shift):
    """The second half's first event names a parent the first half does not hold."""
    path, lineno, line = two_digit_trace
    eid = json.loads(line)["id"]
    parent = eid + shift
    _replace_line(path, lineno, f'"parents": [{eid - 1}]'.encode(), f'"parents": [{parent}]'.encode())
    with pytest.raises(ParseError) as err:
        fold_trace(path, entropy_lines)
    assert str(err.value) == f"line {lineno}: parent {parent} is not the id of an earlier event" == _serial_error(path)
    assert len(forks) == 1


@pytest.mark.parametrize("command", test_cli.ANALYSES, ids=lambda c: c[0])
def test_bad_byte_in_the_tail_is_reported_before_a_json_error_in_the_head(two_digit_trace, forks, command, capsys):
    path, _, _ = two_digit_trace
    _replace_line(path, 1, b'"id": 10,', b'"id": 10;')
    last = path.read_bytes().count(b"\n")
    _replace_line(path, last, b'"node": 1', b'"node": \xff')
    message = f"line {last}: invalid UTF-8: invalid start byte"
    assert _serial_error(path) == message
    assert main([command[0], str(path), *command[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert len(forks) == 1


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_fork_or_pipe_that_fails_reads_the_file_whole(two_digit_trace, forks, monkeypatch, call):
    """No worker is made, and nothing is left open: this process reads the file alone."""
    path, _, _ = two_digit_trace
    opened = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None

    def refused():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, call, refused)
    assert fold_trace(path, entropy_lines) == entropy_lines(iter_trace(path))
    assert forks == []
    assert opened is None or len(os.listdir("/proc/self/fd")) == opened


def test_process_with_another_thread_reads_the_file_whole(two_digit_trace, forks):
    """A forked child would hold only the thread that forked it, so a process
    with another thread running does not fork."""
    path, _, _ = two_digit_trace
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert fold_trace(path, entropy_lines) == entropy_lines(iter_trace(path))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def test_named_pipe_is_not_opened_to_look_for_a_seam(tmp_path):
    """Opening a named pipe waits for a writer, and closing it again would
    drop what the writer sent; ``_seam`` reads only its type. A fresh
    interpreter, so that an open that waits fails the test by its timeout."""
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    proc = run_fresh(str(fifo), code="import sys, fcnsim.fold as f; f._SPLIT_BYTES = 0; print(f._seam(sys.argv[1]))")
    assert (proc.returncode, proc.stdout) == (0, "None\n")


def test_worker_that_dies_leaves_the_file_to_the_serial_reader(two_digit_trace, forks):
    """A worker whose fold raises exits non-zero, and this process reads the whole file."""
    path, _, _ = two_digit_trace
    main_pid = os.getpid()

    def ids(events):
        ids = [e.id for e in events]
        if os.getpid() != main_pid:
            raise RuntimeError("the worker fails")
        return (ids,)

    assert fold_trace(path, ids) == (list(range(10, 40)),)
    assert len(forks) == 1


def test_split_fold_is_the_sum_of_the_halves(two_digit_trace, forks):
    """Each item of the two folds adds up: lists concatenate, counts add."""
    path, _, _ = two_digit_trace
    assert fold_trace(path, lambda events: ([e.id for e in events], 1)) == (list(range(10, 40)), 2)
    assert len(forks) == 1


# Run by ``run_fresh`` with a command line: the command, with every trace
# split, prints its worker's pid; the worker's fold closes its output and
# blocks, and the command's own fold of the first half ends by sending the
# command SIGTERM.
_TERMINATED_MID_READ = """\
import os, signal, sys, time
from fcnsim import chronology, cli, fold, io
fold._SPLIT_BYTES = 0
command, fork = os.getpid(), os.fork

def forked():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

module, name = {"timeline": (chronology, "fold_index"), "entropy": (io, "entropy_lines"),
                "report": (cli, "_report_fold")}[sys.argv[1]]
inner = getattr(module, name)

def folded(events):
    if os.getpid() != command:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        time.sleep(60)
    part = inner(events)
    os.kill(command, signal.SIGTERM)
    return part

os.fork = forked
setattr(module, name, folded)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", test_cli.ANALYSES, ids=lambda c: c[0])
def test_sigterm_during_a_split_read_leaves_no_worker(fixtures_dir, command):
    """A reading command killed by SIGTERM while its worker still reads
    kills and reaps the worker, and then still ends killed by SIGTERM."""
    trace = fixtures_dir / "chain.expected-trace.jsonl"
    proc = run_fresh(command[0], str(trace), *command[1:], code=_TERMINATED_MID_READ)
    worker = int(proc.stdout)
    try:
        assert proc.returncode == -signal.SIGTERM, proc.stderr
        with pytest.raises(ProcessLookupError):
            os.kill(worker, 0)
    finally:
        try:
            os.kill(worker, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _joined(fold, events, k):
    """The item-wise sum of the folds of ``events[:k]`` and ``events[k:]``."""
    return tuple(map(add, fold(events[:k]), fold(events[k:])))


def _assert_same_index(index: TraceIndex, whole: TraceIndex) -> None:
    assert index.absorptions == whole.absorptions
    assert index.clocks == whole.clocks
    for clock in whole.clocks:
        assert index.pulses(clock) == whole.pulses(clock)
        labels, skipped = whole.label(whole.pulses(clock))
        assert index.label(index.pulses(clock)) == (labels, skipped)
        assert index.check(labels, observer=clock) == whole.check(labels, observer=clock)


@pytest.mark.parametrize("name", ["golden-chain", "random-run"])
def test_folds_add_up_at_every_cut(fixtures_dir, name):
    """Joined at any cut, the two halves' folds give what the whole trace
    gives: the index's absorptions, each clock's pulses and the check of its
    labels (through ``fold_index``'s rule for a parent before the run's
    first id, for ancestry that crosses the cut), the entropy rows, and
    ``report``'s index and tally."""
    # Seed 224: 187 events, 105 causally ordered pairs of labels, 20 of them with one label.
    events = tuple(iter_trace(fixtures_dir / "chain.expected-trace.jsonl")) if name == "golden-chain" else random_run(224)[3]
    whole = TraceIndex(events)
    assert whole.absorptions and whole.clocks
    entropy, report = entropy_lines(events), _report_fold(events)
    for k in range(len(events) + 1):
        _assert_same_index(TraceIndex.joined(_joined(fold_index, events, k)), whole)
        assert _joined(entropy_lines, events, k) == entropy
        folded = _joined(_report_fold, events, k)
        _assert_same_index(TraceIndex.joined(folded[:3]), whole)
        assert folded[3:] == report[3:]
