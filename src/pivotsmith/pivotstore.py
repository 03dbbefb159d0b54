"""The disk pivot store, and how it is built.

A pivot join whose pivot-target table is larger than one sort chunk keeps
its kept pivot-target rows in a ``PivotStore``: one unnamed scratch file
of pickled pivot groups, indexed in memory by the hash of the pivot
phrase.  ``open_store`` builds it in a ``forked.Worker`` on a CPU of its
own while the caller sorts the source-pivot table, when there is that
sort to overlap and this process may run on two CPUs or more and can fork
with no other thread alive, and inline before the source-pivot rows
otherwise.  Both give the same store.  The worker is reaped before the
join starts, so when the join then starts its shard process
(``forked.Shard``), ``pivot`` runs two processes, one after the other.

Only ``triangulate`` imports this module, and only for a disk store, so a
pivot that fits one chunk loads none of it.
"""

from __future__ import annotations

import os
import tempfile
from array import array
from contextlib import ExitStack, closing
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .extsort import scratch_base
from .tablecore import Row

if TYPE_CHECKING:
    from .forked import Worker

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


def open_store(pt_kept: Callable[[str | None], Iterator[Row]], tmp_base: str | None,
               stack: ExitStack, reason: str | None,
               ) -> tuple[PivotStore, Worker | None]:
    """A ``PivotStore`` of the rows of ``pt_kept(tmp_base)``, closed by
    ``stack``, and the ``forked.Worker`` that writes it, whose ``close``
    goes on ``stack`` too.

    With ``reason``, why no worker may start, or a failed fork, the store
    is written here before the call returns, and the worker is None.
    Otherwise the worker's ``finish`` gives the index that completes the
    store.
    """
    import logging
    logger = logging.getLogger(__name__)
    store = stack.enter_context(closing(PivotStore(tmp_base)))
    if reason is None:
        from .forked import Worker
        worker = stack.enter_context(closing(
            Worker("the disk pivot store's worker", "sending its index")))

        def build(scratch: str) -> tuple[None, tuple[array, array, array]]:
            with closing(pt_kept(scratch)) as rows:
                return None, store.write(rows)
        reason = worker.start(build, tmp_base)
        if reason is None:
            logger.info("disk pivot store built in a worker process on CPU %s"
                        " while this process sorts the source-pivot table on CPU %s",
                        ",".join(map(str, worker.cpus[1])), worker.cpus[0])
            return store, worker
    logger.info("disk pivot store built inline: %s", reason)
    with closing(pt_kept(tmp_base)) as rows:
        store.set_index(store.write(rows))
    return store, None
