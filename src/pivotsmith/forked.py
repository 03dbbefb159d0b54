"""Forked helper processes of ``pivot``, and the join's shard.

``pivot`` may start two processes, one after the other: a worker that
builds the disk pivot store (``pivotstore``) while the command sorts the
source-pivot table, and then a shard process that joins and formats the
sources from a split key on while the command joins and writes those
before it.  ``Worker`` holds what both share: the fork, the CPUs, the
signal handling, the result or error sent back through a pipe, and the
kill and reap on every way out.  ``Shard`` is the join's worker.

Only ``pivotstore`` and the join import this module, and the join only
when it forks a shard (``triangulate._inline_reason``), so a library join
or a pivot on one CPU loads none of it.
"""

from __future__ import annotations

import marshal
import os
import shutil
import tempfile
from contextlib import ExitStack, closing, suppress
from itertools import count
from operator import itemgetter
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

from .extsort import ExternalSort, scratch_base, signals_held
from .tablecore import Row, write_lines

if TYPE_CHECKING:
    from array import array


class Worker:
    """A forked process that runs one function while this one goes on.

    ``start`` forks.  The worker calls ``run(scratch)``, sends back the
    value and the ``array`` columns that it returns, or the exception
    that it raised, through a pipe, and leaves through ``os._exit``: it
    never unwinds into the caller's frames.  ``scratch`` is a directory
    that this process made and removes, for the worker's sorts to spill
    under.  While the worker runs, this process keeps the lowest CPU of
    its affinity mask and the worker gets the rest: a freshly forked
    worker would otherwise share its parent's CPU.  The mask comes back
    when the worker is reaped.

    ``finish`` waits for the value and columns, or raises the worker's
    error with its type, message and ``line``.  The value and the
    columns' shapes come as one ``marshal`` record and the columns' bytes
    after it, and an error as a pickle, so that only an error loads
    ``pickle`` here.  A worker that ended without sending either is an
    ``OSError`` naming ``name`` and how it ended.  ``close`` kills the
    worker if it still runs, reaps it and removes its scratch, on every
    way out.
    """

    def __init__(self, name: str, goal: str) -> None:
        self._name, self._goal = name, goal
        self._pid = 0
        self._reader: BinaryIO | None = None
        self._scratch: str | None = None
        self._mask: set[int] | None = None
        # This process's CPU and the worker's while both run.
        self.cpus: tuple[int, list[int]] | None = None

    def start(self, run: Callable[[str], tuple[object, Sequence[array]]],
              tmp_base: str | None) -> str | None:
        """Fork the worker; None, or why it could not start."""
        mask = os.sched_getaffinity(0)
        own = min(mask)
        # A signal must neither run this process's handlers in the worker
        # nor arrive here before the scratch, the pipe and the worker's pid
        # are kept.
        with signals_held() as (signums, held):
            self._scratch = tempfile.mkdtemp(prefix="pivotsmith-sort-",
                                             dir=scratch_base(tmp_base))
            read_fd, write_fd = os.pipe()
            self._reader = open(read_fd, "rb")
            try:
                self._pid = os.fork()
                if self._pid == 0:
                    _run_child(run, self._scratch, mask - {own}, read_fd, write_fd,
                               signums, held)
            except OSError as exc:
                return f"os.fork failed: {exc}"
            finally:
                os.close(write_fd)
        self._mask = mask
        self.cpus = own, sorted(mask - {own})
        with suppress(OSError):
            os.sched_setaffinity(0, {own})
        return None

    def finish(self) -> tuple[object, list[array]]:
        """The worker's value and columns, or its error raised here."""
        header = None
        tag = self._reader.read(1)
        if tag == b"v":
            with suppress(EOFError, ValueError, TypeError):
                header = marshal.load(self._reader)
        elif tag == b"e":
            import pickle
            with suppress(EOFError, pickle.UnpicklingError):
                header = pickle.load(self._reader)
        columns = []
        if isinstance(header, tuple):
            value, shapes = header
            if shapes:
                from array import array
            for typecode, length in shapes:
                column = array(typecode, [0]) * length
                if self._reader.readinto(column) != length * column.itemsize:
                    header = None
                    break
                columns.append(column)
        code = os.waitstatus_to_exitcode(self._reap(kill=False))
        if isinstance(header, BaseException):
            try:
                raise header
            finally:
                # Held here, the error would keep this frame, and through
                # its traceback the caller's streams and their scratch, in
                # a cycle until the collector runs.
                del header
        if header is None:
            ended = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise OSError(f"{self._name} ended by {ended} before {self._goal}")
        return value, columns

    def _reap(self, kill: bool) -> int:
        """Wait for the worker, after killing it with ``kill``, give this
        process back its CPU mask, and remove the pipe and the worker's
        scratch; the worker's wait status."""
        status = 0
        if self._pid:
            if kill:
                import signal
                os.kill(self._pid, signal.SIGKILL)
            status = os.waitpid(self._pid, 0)[1]
            self._pid = 0
        if self._mask is not None:
            with suppress(OSError):
                os.sched_setaffinity(0, self._mask)
            self._mask = None
        if self._reader is not None:
            self._reader.close()
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)
            self._scratch = None
        return status

    def close(self) -> None:
        self._reap(kill=True)


def _run_child(run: Callable[[str], tuple[object, Sequence[array]]], scratch: str,
               cpus: set[int], read_fd: int, write_fd: int, signums: set,
               held: set) -> None:
    """The worker's whole life, in the forked process: run ``run`` and send
    its result, or the error that stopped it, through ``write_fd``.  With
    the pipe's read end closed here, a write fails once this worker's
    parent is gone, instead of waiting for a reader forever.

    A Python handler of ``signums`` would raise into the caller's frames,
    so the signal's default action ends the worker instead; one ignored
    stays ignored.  The signal mask goes back to ``held``, the caller's
    mask before the fork.  The worker never returns.
    """
    status = 1
    try:
        import pickle
        import signal
        os.close(read_fd)
        for signum in signums:
            if callable(signal.getsignal(signum)):
                signal.signal(signum, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        with suppress(OSError):
            os.sched_setaffinity(0, cpus)
        with open(write_fd, "wb") as out:
            try:
                value, columns = run(scratch)
            except Exception as exc:
                out.write(b"e")
                pickle.dump(exc, out)
            else:
                out.write(b"v")
                marshal.dump((value, [(c.typecode, len(c)) for c in columns]), out)
                for column in columns:
                    out.write(column)
        status = 0
    finally:
        os._exit(status)


def _split_source(sort: ExternalSort) -> tuple | None:
    """The source phrase that the shard starts at, the source of the
    median of ``sort``'s samples weighted by the rows each stands for, or
    None when no source comes before it, which a single source gives too."""
    if not sort.samples:
        return None
    samples = sorted(sort.samples)
    middle = sum(rows for _, rows in samples) // 2
    seen = 0
    for key, rows in samples:
        seen += rows
        if seen > middle:
            break
    return None if key[0] == sort.least[0] else key[0]


class Shard(Worker):
    """The join of the sources from ``split`` on, formatted in a worker.

    ``start_join`` forks the worker, which merges the source-pivot rows of
    ``sort`` from ``split`` on, joins them through ``join(rows, scratch)``
    and writes the composed rows with ``tablecore.write_lines`` into one
    unnamed scratch file per stream of ``outputs``, as the caller writes
    its own rows: table lines with ``n_table_scores`` scores, and
    reordering lines after them when ``outputs`` has a second stream.
    ``hand_over``, once the caller has written the rows before ``split``,
    appends each file's text to its stream.  Writing its text, the worker
    names the scratch base in an error that names no file, as a full disk
    gives.
    """

    def __init__(self, split: tuple) -> None:
        super().__init__("the pivot join's shard process", "handing over its text")
        self.split = split
        self._outputs: list[TextIO] = []
        self._texts: list[TextIO] = []

    def start_join(self, sort: ExternalSort,
                   join: Callable[[Iterable[Row], str | None], Iterator[Row]],
                   outputs: Sequence[TextIO | None], n_table_scores: int | None,
                   tmp_base: str | None) -> str | None:
        """Fork the worker that joins and writes from ``split`` on; None,
        or why it could not start, a scratch base without room for its
        text included."""
        base = scratch_base(tmp_base) or tempfile.gettempdir()
        self._outputs = [out for out in outputs if out is not None]
        try:
            for _ in self._outputs:
                # newline="" keeps the text as written, for hand_over to copy.
                self._texts.append(tempfile.TemporaryFile(
                    "w+", encoding="utf-8", newline="", dir=base))
        except OSError as exc:
            return f"no scratch file for the shard's text: {exc}"

        def run(scratch: str) -> tuple[int, tuple]:
            counted = count()
            rows = map(itemgetter(0), zip(sort.merge(lo=(self.split,)), counted))
            table, reordering = (self._texts + [None])[:2]
            try:
                write_lines(join(rows, scratch), table, reordering, n_table_scores)
                for text in self._texts:
                    text.flush()
            except OSError as exc:
                if exc.errno is None or exc.filename is not None:
                    raise
                raise OSError(exc.errno, exc.strerror, base) from None
            return next(counted), ()
        return self.start(run, tmp_base)

    def hand_over(self) -> int:
        """Append the worker's text to the caller's streams, once the
        worker has ended well, or raise its error; the number of
        source-pivot rows that the worker joined."""
        rows = self.finish()[0]
        for text, out in zip(self._texts, self._outputs):
            text.seek(0)
            shutil.copyfileobj(text, out, 1 << 16)
        return rows

    def close(self) -> None:
        try:
            super().close()
        finally:
            for text in self._texts:
                text.close()


def open_shard(sort: ExternalSort,
               join: Callable[[Iterable[Row], str | None], Iterator[Row]],
               outputs: Sequence[TextIO | None], n_table_scores: int | None,
               tmp_base: str | None, stack: ExitStack) -> tuple[Shard | None, str | None]:
    """A ``Shard`` that joins the rows of ``sort`` from a split source on,
    closed by ``stack``, and None; or None and why the join stays in this
    process: a single source, or a failed fork."""
    split = _split_source(sort)
    if split is None:
        return None, "no source-pivot row comes before the median source"
    shard = stack.enter_context(closing(Shard(split)))
    reason = shard.start_join(sort, join, outputs, n_table_scores, tmp_base)
    return (None, reason) if reason else (shard, None)
