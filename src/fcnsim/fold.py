"""Reading a trace file on two cores: ``fold_trace``.

The analysis commands fold a trace's events into what they keep. A large
regular file is read in two halves at once, a forked worker folding the
second; every error is still reported by ``io.iter_trace``, which reads
the whole file again whenever a half fails. A module of its own, so that
``run``, which never reads a trace, does not compile it.
"""

from __future__ import annotations

import marshal
import os
import signal
import stat
import sys
from operator import add
from pathlib import Path
from typing import Callable, Iterator

from .errors import ParseError
from .events import SimEvent
from .io import _checked, _lines, iter_trace

# The smallest trace file read in two halves at once. On a 2-vCPU VM the
# split first won at 256 KiB (26 and 18 of 30 alternating runs of the
# entropy and report folds) and won steadily from 512 KiB (29 and 24 of
# 30); below that, the fork and the pipe cost more than half a read saves.
_SPLIT_BYTES = 512 * 1024


def _seam(path: str | Path) -> int | None:
    """Where the second half of a trace file starts: after the first line
    feed past the middle of a regular file of at least ``_SPLIT_BYTES``.
    None when the file is to be read whole, or cannot be opened here, or
    when this process has another thread, which a forked child would lack."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or threading is not None and threading.active_count() > 1:
        return None
    try:
        info = os.stat(path)  # not opened first: opening a named pipe waits for its writer
        if not stat.S_ISREG(info.st_mode) or info.st_size < _SPLIT_BYTES:
            return None
        with open(path, "rb") as fp:
            fp.seek(info.st_size // 2)
            fp.readline()
            start = fp.tell()
    except OSError:  # it is opened again, and the error raised, where it is read whole
        return None
    return start if start < info.st_size else None


def _fork_tail(path: str | Path, start: int, fold: Callable[[Iterator[SimEvent]], tuple]) -> tuple[int, int] | None:
    """Fork the worker; its pid and the read end of its pipe, or None when
    no pipe or no process can be made. The worker ``fold``s the checked
    events from byte ``start`` on, and writes their first id, the parents
    the first half must hold, and the fold to the pipe. It leaves only
    through ``os._exit``, so nothing it inherited is flushed or run at
    exit; any failure leaves a non-zero status."""
    try:
        pipe, out = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(pipe)
        os.close(out)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(pipe)
            seen: set[int] = set()
            outside: set[int] = set()
            with open(path, "rb") as fp:
                fp.seek(start)
                part = fold(_checked(_lines(fp), seen, outside))
            with open(out, "wb") as fp:
                fp.write(marshal.dumps((min(seen, default=None), outside, part)))
            code = 0
        finally:
            os._exit(code)
    os.close(out)
    return pid, pipe


def fold_trace(
    path: str | Path, fold: Callable[[Iterator[SimEvent]], tuple], first: Callable[[], object] | None = None
) -> tuple:
    """``fold(iter_trace(path))``, reading a large file on two cores.

    ``fold`` takes the checked events of a run of lines and returns a tuple
    of values that ``marshal`` writes and that add up: the fold of two
    consecutive runs is the item-wise sum of their folds (lists and strings
    concatenate, counts add). ``first``, if given, is called before the
    trace is read, and what it raises is raised.

    A regular file of at least ``_SPLIT_BYTES`` is split after the first
    line feed past its middle. A worker, forked before anything is read,
    folds the second half and sends back only its fold, while this process
    calls ``first``, folds the first half and checks the seam: the second
    half's first id is above the first half's last, and every parent the
    second half names but does not hold is in the first. A bad byte or a
    failed check in either half, a failed seam, a worker that does not
    deliver, or a fork or pipe that fails, reads the whole file again with
    ``iter_trace``; so every error, its message and its line come from that
    one reader. The worker is reaped on every path, an exception raised by
    a signal handler too (the command line's SIGTERM): it is killed first
    unless its fold has been read.
    """
    start = _seam(path)
    worker = None if start is None else _fork_tail(path, start, fold)
    if worker is None:
        if first is not None:
            first()
        return fold(iter_trace(path))
    pid, pipe = worker
    tail = None
    try:
        with open(pipe, "rb") as reader:
            if first is not None:
                first()
            seen: set[int] = set()
            try:
                with open(path, "rb") as fp:
                    head = fold(_checked(_lines(fp, start), seen))
            except ParseError:  # the whole file is read below, for the error
                pass
            else:
                try:
                    tail = marshal.loads(reader.read())
                except (EOFError, ValueError, TypeError):  # the worker wrote no whole fold
                    pass
    finally:
        if tail is None:  # the worker's fold is not wanted, or may never come
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    if status == 0 and tail is not None:
        first_id, outside, part = tail
        if first_id is None or (first_id > max(seen, default=-1) and seen.issuperset(outside)):
            return tuple(map(add, head, part))
    return fold(iter_trace(path))
