"""The disk pivot store, and the worker process that builds it.

A pivot join whose pivot-target table is larger than one sort chunk keeps
its kept pivot-target rows in a ``PivotStore``: one unnamed scratch file
of pickled pivot groups, indexed in memory by the hash of the pivot
phrase.  ``open_store`` builds it in a forked ``_StoreWorker`` on a CPU of
its own while the caller sorts the source-pivot table, when there is that
sort to overlap and this process may run on two CPUs or more and can fork
with no other thread alive, and inline before the source-pivot rows
otherwise.  Both give the same store.

Only ``triangulate`` imports this module, and only for a disk store, so a
pivot that fits one chunk loads none of it.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from array import array
from contextlib import ExitStack, closing, suppress
from itertools import groupby
from operator import itemgetter
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from .extsort import scratch_base, signals_held
from .tablecore import Row

# The store's index hashes pivot phrases through this one name.
_pivot_hash = hash


class PivotStore:
    """Kept pivot-target rows in a scratch file, looked up by pivot phrase.

    ``write`` puts each pivot's rows, which must come sorted by pivot
    phrase, in the file as one pickle, in the order they arrive, and
    returns the index that ``set_index`` takes.  The index holds no Python
    object per pivot: two ``array('q')`` columns keep each pivot's hash
    and record start, and an open-addressing table under two thirds full
    keeps each pivot's number in its slot, 28 to 40 bytes per distinct
    pivot in all.  A lookup reads the record of every slot on its probe
    path whose hash matches and compares the record's pivot, so pivots
    whose hashes collide still find their own rows.

    The file is a ``tempfile.TemporaryFile`` under the sort's scratch
    base, opened here, so that a forked worker can write it.  It is
    written through its buffered handle, flushed once, and each lookup
    reads one record with one ``os.pread`` on its descriptor, with no
    seek.  It has no name on Linux, so it goes with the process however
    the process ends; ``close`` frees it at once.
    """

    def __init__(self, tmp_base: str | None) -> None:
        import pickle
        self._base = scratch_base(tmp_base) or tempfile.gettempdir()
        self._file = tempfile.TemporaryFile(dir=self._base)
        self._fd = self._file.fileno()
        self._loads, self._damaged = pickle.loads, (EOFError, pickle.UnpicklingError)

    def write(self, pt_rows: Iterable[Row]) -> tuple[array, array, array]:
        """Write the records of ``pt_rows`` and return their index: the
        pivots' hashes, the records' starts and the slot table."""
        import pickle
        hashes = array("q")
        starts = array("q", [0])
        for pivot, group in groupby(pt_rows, key=itemgetter(0)):
            record = pickle.dumps(list(group), pickle.HIGHEST_PROTOCOL)
            self._file.write(record)
            starts.append(starts[-1] + len(record))
            hashes.append(_pivot_hash(pivot))
        mask = (1 << (3 * len(hashes) // 2).bit_length()) - 1
        slots = array("q", [-1]) * (mask + 1)
        for number, pivot_hash in enumerate(hashes):
            slot = pivot_hash & mask
            while slots[slot] >= 0:
                slot = (slot + 1) & mask
            slots[slot] = number
        self._file.flush()
        return hashes, starts, slots

    def set_index(self, index: Sequence[array]) -> None:
        """Look records up through ``index``, as ``write`` returned it."""
        self._hashes, self._starts, self._slots = index
        self._mask = len(self._slots) - 1

    def get(self, pivot: tuple) -> list[Row] | None:
        """The rows of ``pivot``, or None when it has none."""
        pivot_hash = _pivot_hash(pivot)
        hashes, slots, mask = self._hashes, self._slots, self._mask
        slot = pivot_hash & mask
        number = slots[slot]
        while number >= 0:
            if hashes[number] == pivot_hash:
                start = self._starts[number]
                try:
                    group = self._loads(
                        os.pread(self._fd, self._starts[number + 1] - start, start))
                except self._damaged as exc:
                    raise OSError(f"damaged pivot store in {self._base}: {exc}") from exc
                if group[0][0] == pivot:
                    return group
            slot = (slot + 1) & mask
            number = slots[slot]
        return None

    def close(self) -> None:
        self._file.close()


def _inline_reason(inputs_sorted: bool) -> str | None:
    """Why the disk pivot store is not built in a worker process, or None
    when it is: the source-pivot rows go through a sort that the build can
    overlap, and this process may run on two CPUs or more, and fork with
    no other thread alive."""
    if inputs_sorted:
        return "the source-pivot rows come sorted, so no sort overlaps the build"
    if not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"):
        return "os.fork or os.sched_setaffinity is missing"
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        return f"the CPU affinity mask holds {cpus} CPU"
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return f"{threading.active_count()} Python threads are alive"
    return None


class _StoreWorker:
    """A forked process that writes the disk pivot store while this one
    sorts the source-pivot table.

    ``start`` forks.  The worker runs ``PivotStore.write`` on the kept
    pivot-target rows into the store's already open file, sends the
    index back through a pipe, and leaves through ``os._exit``: it never
    unwinds into the caller's frames.  Its sorts spill under a scratch
    directory that this process made and removes.  While it runs, this
    process keeps the lowest CPU of its affinity mask and the worker gets
    the rest: a freshly forked worker would otherwise share its parent's CPU.
    The mask comes back when the worker is reaped.

    ``finish`` waits for the index, or raises the worker's error with its
    type, message and ``line``.  ``close`` kills the worker if it still
    runs, reaps it and removes its scratch, on every way out.
    """

    def __init__(self) -> None:
        self._pid = 0
        self._reader: BinaryIO | None = None
        self._scratch: str | None = None
        self._mask: set[int] | None = None
        # This process's CPU and the worker's while both run.
        self.cpus: tuple[int, list[int]] | None = None

    def start(self, store: PivotStore,
              pt_kept: Callable[[str | None], Iterator[Row]],
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
                    _run_worker(store, pt_kept, self._scratch, mask - {own},
                                read_fd, write_fd, signums, held)
            except OSError as exc:
                return f"os.fork failed: {exc}"
            finally:
                os.close(write_fd)
        self._mask = mask
        self.cpus = own, sorted(mask - {own})
        with suppress(OSError):
            os.sched_setaffinity(0, {own})
        return None

    def finish(self, store: PivotStore) -> None:
        """Give ``store`` the worker's index, or raise the worker's error."""
        import pickle
        try:
            header = pickle.load(self._reader)
        except (EOFError, pickle.UnpicklingError):
            header = None
        index = []
        if isinstance(header, list):
            for length in header:
                column = array("q", [0]) * length
                if self._reader.readinto(column) != length * column.itemsize:
                    header = None
                    break
                index.append(column)
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
            raise OSError(f"the disk pivot store's worker ended by {ended}"
                          " before sending its index")
        store.set_index(index)

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


def _run_worker(store: PivotStore, pt_kept: Callable[[str | None], Iterator[Row]],
                scratch: str, cpus: set[int], read_fd: int, write_fd: int,
                signums: set, held: set) -> None:
    """The worker's whole life, in the forked process: write the store and
    send its index, or the error that stopped it, through ``write_fd``.
    With the pipe's read end closed here, a write fails once this
    worker's parent is gone, instead of waiting for a reader forever.

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
            rows = pt_kept(scratch)
            try:
                index = store.write(rows)
            except Exception as exc:
                pickle.dump(exc, out)
            else:
                pickle.dump([len(column) for column in index], out)
                for column in index:
                    out.write(column)
            finally:
                rows.close()
        status = 0
    finally:
        os._exit(status)


def open_store(pt_kept: Callable[[str | None], Iterator[Row]], tmp_base: str | None,
               stack: ExitStack, inputs_sorted: bool,
               ) -> tuple[PivotStore, _StoreWorker | None]:
    """A ``PivotStore`` of the rows of ``pt_kept(tmp_base)``, closed by
    ``stack``, and the ``_StoreWorker`` that writes it, whose ``close``
    goes on ``stack`` too.  ``inputs_sorted`` says that the source-pivot
    rows come sorted: with no sort of theirs for a worker to overlap, the
    store is built inline.

    With no worker, which ``_inline_reason`` or a failed fork decides, the
    store is written here before the call returns, and the worker is None.
    Otherwise the caller's ``finish`` on the worker completes the store.
    """
    import logging
    logger = logging.getLogger(__name__)
    store = stack.enter_context(closing(PivotStore(tmp_base)))
    reason = _inline_reason(inputs_sorted)
    if reason is None:
        worker = stack.enter_context(closing(_StoreWorker()))
        reason = worker.start(store, pt_kept, tmp_base)
        if reason is None:
            logger.info("disk pivot store built in a worker process on CPU %s"
                        " while this process sorts the source-pivot table on CPU %s",
                        ",".join(map(str, worker.cpus[1])), worker.cpus[0])
            return store, worker
    logger.info("disk pivot store built inline: %s", reason)
    with closing(pt_kept(tmp_base)) as rows:
        store.set_index(store.write(rows))
    return store, None
