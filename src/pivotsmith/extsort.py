"""Disk-backed sorting for row streams too large to hold in memory.

Rows are the raw tuples used across the pivot pipeline: source tokens,
target tokens, a tuple of float scores, and a tuple of alignment pairs.
Runs of ``chunk_size`` rows are sorted in memory and spilled to temp files,
then merged lazily with ``heapq.merge``.  Inputs that fit in one chunk are
sorted without touching the disk at all, and each row is dropped from the
chunk as it is yielded: a row the consumer has let go of is freed, not
held until the stream ends.

A merge reads at most ``MERGE_FAN_IN`` runs at once.  A sort with more
runs first merges consecutive groups of that many runs, in run order, into one
run each, and repeats until few enough are left; the final merge is lazy,
with the in-memory tail last.  Groups keep run order, so rows with equal
keys still come out in input order.

Runs are binary: a run is a sequence of records, in sorted order, then
the end marker ``pickle.dumps(None, 3)``.  A record is one pickle
(protocol 3) of a list of up to ``RECORD_ROWS`` consecutive rows, so a
spilled row costs a sixteenth of a ``pickle.dumps`` call and of an
``Unpickler.load`` call.  Reading a run parses no text, and floats come
back bit for bit.  A run is written by ``encode_row`` on each of its
records, and read back by one ``pickle.Unpickler`` whose ``load`` is
called until it returns the end marker, with the records' rows chained
together, so no Python frame runs per row on the way back in.  A run cut
short at a record boundary has no end marker, so reading it raises
``EOFError`` instead of passing for a shorter run; the sort turns that,
or ``pickle.UnpicklingError`` from bad bytes or a record cut inside,
into an ``OSError`` naming the scratch directory.  Writing a run also
gives its sparse index: the first row and byte offset of evenly spaced
records, which a merge of a key range seeks to.  A sort keeps at most
``INDEX_KEYS`` keys of its indexes in all, or one per run, thinning every
run's index to every other entry while they hold more, so their memory
follows the number of runs at most, not the number of rows.

``ext_sorted`` is both phases of an ``ExternalSort`` at once: ``spill``,
which writes the runs and keeps the sorted tail, then ``merge`` over all
keys.  A caller that splits the rows between two processes runs the
phases itself: one spill, then one merge of a key range in each.

Rows in one record share objects through the pickle memo: a phrase tuple
or token string that several rows of a record share is stored once and
read back as one object, as it was when the rows were parsed.  Records
stay small because the merge holds the record it is reading from in each
run, rows already yielded included: a 1024-row record raised pivot-spill's
peak RSS by 47%, and 16 rows lowered it.

The protocol must stay at 3 or below.  An Unpickler keeps its memo between
``load`` calls.  Protocol 3 stores memo entries with ``BINPUT`` at explicit
indices, and each record's pickle counts them from 0 again, so a record
only ever reads entries it stored itself, and an Unpickler may start at
any record.  Protocol 4 and later store with ``MEMOIZE`` at the memo's
current length, which carries over from the records before, so the second
record of a run would read the wrong objects.  A memo entry holds its
object until a later record of the same run stores at its index.  So per
run the merge keeps about one record's rows alive after yielding them: the
current record's list, and the few objects of earlier records stored at
indices past the current record's last, however long the run.

Only this process, or a process it forked, reads the runs back, from a
directory that ``mkdtemp`` makes private to the user.  Binary runs take
more scratch disk than text: 8 bytes per score plus pickle framing, nearly
twice the text size when scores print short (5.64 MB against 3.08 MB for
70k spilled rows of ``0.25`` scores).  The scratch directory is removed
when the sort is closed, and ``ext_sorted`` closes it when its stream
ends, fails or is closed, after every run file is closed; a process killed
by a signal it does not handle leaves it.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
from bisect import bisect_left
from contextlib import ExitStack, closing, contextmanager
from itertools import chain, dropwhile, islice, takewhile
from typing import BinaryIO, Callable, Iterable, Iterator

from .tablecore import DEFAULT_CHUNK_SIZE, Row

# Runs read at once by one merge, to stay under the open-file limit.
MERGE_FAN_IN = 128
# Rows per spill record: one pickle each.  8 and 32 were no faster, 64
# slower, and 1024 held far more memory during the merge.
RECORD_ROWS = 16
# The sparse indexes of one sort's runs hold at most this many keys in
# all, each index evenly spaced in its run's records: a range merge reads
# at most the records between two entries of a run before its range.
INDEX_KEYS = 256
# Keys that the spill keeps, evenly spaced in each sorted chunk, for a
# caller to split the rows near their median.  Sorted input gives each
# chunk a key range of its own, so one median per chunk could only split
# between chunks: 375k rows against 625k for four chunks of 250k.  Past
# this many in all, neighbours are merged in pairs, so that small chunks
# do not make the samples follow the rows.
SPLIT_SAMPLES = 256
TMPDIR_ENV = "PIVOTSMITH_TMPDIR"

# Runs are read back by one Unpickler each, which is only right for
# protocols whose memo indices restart with every record (see above).
_PROTOCOL = 3
# pickle.dumps, bound on the first encode: a sort that never spills never
# imports pickle.
_dumps = None


def scratch_base(override: str | None = None) -> str | None:
    """Directory for spill files: explicit override, else the env var."""
    return override or os.environ.get(TMPDIR_ENV) or None


@contextmanager
def signals_held() -> Iterator[tuple[set, set]]:
    """Hold SIGINT, SIGTERM and SIGHUP, whose handlers the command line
    raises from, until the block ends, and yield them with the signal
    mask from before.

    A handler that raised between a ``mkdtemp`` and the assignment of its
    result would leave the directory behind with no name to remove it by.
    """
    import signal
    signums = {signal.SIGINT, signal.SIGTERM, signal.SIGHUP}
    held = signal.pthread_sigmask(signal.SIG_BLOCK, signums)
    try:
        yield signums, held
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def encode_row(row: Row) -> bytes:
    """One pickle of ``row``; floats round-trip exactly.

    Runs pass whole records, lists of up to ``RECORD_ROWS`` rows, through
    this function, so a wrapper set on it sees one call per record: the
    benchmark tracer's ``extsort.spill_rows`` counts records, not rows.
    """
    global _dumps
    if _dumps is None:
        from pickle import dumps as _dumps
    return _dumps(row, _PROTOCOL)


def decode_row(data: bytes) -> Row:
    """The row that ``encode_row`` turned into ``data``."""
    import pickle
    return pickle.loads(data)


def _read_run(stream: BinaryIO) -> Iterator[Row]:
    import pickle
    return chain.from_iterable(iter(pickle.Unpickler(stream).load, None))


def _write_run(path: str, rows: Iterable[Row]) -> list[tuple[Row, int]]:
    """Write ``rows`` as a run at ``path``; return its sparse index: the
    first row and the byte offset of every ``stride``-th record, where
    ``stride`` doubles whenever the index would reach ``INDEX_KEYS``
    entries."""
    import pickle
    rows = iter(rows)
    records = iter(lambda: list(islice(rows, RECORD_ROWS)), [])
    index = []
    stride = 1
    offset = 0
    with open(path, "wb") as out:
        # encode_row is looked up here, not bound once, so that a wrapper
        # set on the module sees every record.
        for number, record in enumerate(records):
            if number % stride == 0:
                index.append((record[0], offset))
                if len(index) == INDEX_KEYS:
                    del index[1::2]
                    stride *= 2
            data = encode_row(record)
            out.write(data)
            offset += len(data)
        out.write(pickle.dumps(None, _PROTOCOL))
    return index


def _merge_runs(paths: list[str], key: Callable[[Row], object],
                path: str) -> list[tuple[Row, int]]:
    """Merge the run files ``paths`` into a new run ``path``, delete them
    and return the new run's index."""
    with ExitStack() as stack:
        readers = [stack.enter_context(open(run, "rb")) for run in paths]
        index = _write_run(path, heapq.merge(*map(_read_run, readers), key=key))
    for run in paths:
        os.remove(run)
    return index


def drain(rows: list[Row]) -> Iterator[Row]:
    """Yield a list's rows in order, dropping each from the list as it goes."""
    rows.reverse()
    while rows:
        yield rows.pop()


class ExternalSort:
    """The two phases of the disk-backed sort of rows by ``key``.

    ``spill`` sorts chunks of ``chunk_size`` rows, writes each full one as
    a run and keeps the last, partial one in memory as the sorted tail.  A
    chunk is spilled as soon as it is full, before the sort knows whether
    more rows follow, so that during the merge only the partial tail is in
    memory: the pivot join merges two sorts at once, and keeping a full
    last chunk of each in memory raised peak RSS by more than it saved in
    time.  More than ``MERGE_FAN_IN`` runs are merged down here too.

    ``merge`` yields the rows whose keys lie in ``[lo, hi)``.  It opens its
    own readers, so a forked process may merge one range while its parent
    merges another; each process merges once, since the merge drops the
    tail's rows as it yields them.  A run starts at the record that its
    sparse index names last before ``lo``, so a range merge unpickles at
    most the records between two index entries of each run below its
    range, and stops at ``hi``.

    ``spill`` also keeps what a caller needs to split the rows in two:
    ``rows``, the number sorted; ``least``, the smallest key; and
    ``samples``, at most ``SPLIT_SAMPLES`` keys, evenly spaced in each
    chunk, each with the number of rows it stands for.  ``close``
    removes the runs' scratch directory; the sort holds that directory's
    name from the moment it is made, so a caller that closes the sort on
    every way out leaves nothing behind.
    """

    def __init__(self, key: Callable[[Row], object]) -> None:
        self.key = key
        self.rows = 0
        self.least = None
        self.samples: list[tuple[object, int]] = []
        self._tmpdir: str | None = None
        # Each run's path and its sparse index's keys and offsets.
        self._runs: list[tuple[str, list, list[int]]] = []
        self._tail: list[Row] = []

    def spill(self, rows: Iterable[Row], chunk_size: int = DEFAULT_CHUNK_SIZE,
              tmp_base: str | None = None) -> None:
        """Sort ``rows`` into runs under ``tmp_base`` and the tail."""
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        key = self.key
        written = 0
        rows = iter(rows)
        chunk = list(islice(rows, chunk_size))
        while len(chunk) == chunk_size:
            self._sorted(chunk)
            if self._tmpdir is None:
                with signals_held():
                    self._tmpdir = tempfile.mkdtemp(prefix="pivotsmith-sort-",
                                                    dir=scratch_base(tmp_base))
            path = os.path.join(self._tmpdir, f"run{written}")
            written += 1
            self._add_run(path, _write_run(path, chunk))
            # Free the spilled rows before the next chunk is read.
            chunk = None
            chunk = list(islice(rows, chunk_size))
        self._sorted(chunk)
        self._tail = chunk
        if len(self._runs) <= MERGE_FAN_IN:
            return
        with self._damaged_runs_named():
            while len(self._runs) > MERGE_FAN_IN:
                groups = [self._runs[start:start + MERGE_FAN_IN]
                          for start in range(0, len(self._runs), MERGE_FAN_IN)]
                self._runs = []
                for group in groups:
                    if len(group) > 1:
                        path = os.path.join(self._tmpdir, f"run{written}")
                        written += 1
                        self._add_run(path, _merge_runs([run[0] for run in group],
                                                        key, path))
                    else:
                        self._runs.extend(group)

    def _sorted(self, chunk: list[Row]) -> None:
        """Sort ``chunk`` and note its rows, least key and samples."""
        if not chunk:
            return
        key = self.key
        chunk.sort(key=key)
        self.rows += len(chunk)
        if self.least is None or key(chunk[0]) < self.least:
            self.least = key(chunk[0])
        step = -(-len(chunk) // SPLIT_SAMPLES)
        samples = self.samples
        samples.extend((key(row), step) for row in chunk[step // 2::step])
        while len(samples) > SPLIT_SAMPLES:
            # Each pair of neighbours becomes the first's key with both rows.
            samples[:] = [(first, rows + more) for (first, rows), (_, more)
                          in zip(samples[::2], samples[1::2])] + samples[len(samples) & ~1:]

    def _add_run(self, path: str, index: list[tuple[Row, int]]) -> None:
        """Keep the run at ``path`` with the keys and offsets of its
        ``index``, and thin the runs' indexes while they hold more than
        ``INDEX_KEYS`` keys and more than one per run."""
        self._runs.append((path, [self.key(row) for row, _ in index],
                           [offset for _, offset in index]))
        while len(self._runs) < sum(len(keys) for _, keys, _ in self._runs) > INDEX_KEYS:
            for _, keys, offsets in self._runs:
                del keys[1::2], offsets[1::2]

    @contextmanager
    def _damaged_runs_named(self) -> Iterator[None]:
        import pickle
        try:
            yield
        except (EOFError, pickle.UnpicklingError) as exc:
            # A run damaged on disk, read by a fan-in pass or the final merge.
            raise OSError(f"damaged spill run in {self._tmpdir}: {exc}") from exc

    def merge(self, lo: object = None, hi: object = None) -> Iterator[Row]:
        """Yield the sorted rows whose keys ``k`` have ``lo <= k < hi``;
        a bound that is None leaves that side open."""
        key, tail = self.key, self._tail
        if hi is not None:
            del tail[bisect_left(tail, hi, key=key):]
        if lo is not None:
            del tail[:bisect_left(tail, lo, key=key)]
        if not self._runs:
            yield from drain(tail)
            return
        with self._damaged_runs_named(), ExitStack() as readers:
            streams = []
            for path, keys, offsets in self._runs:
                reader = readers.enter_context(open(path, "rb"))
                if lo is None:
                    streams.append(_read_run(reader))
                    continue
                start = bisect_left(keys, lo)
                reader.seek(offsets[start - 1] if start else 0)
                streams.append(dropwhile(lambda row: key(row) < lo, _read_run(reader)))
            if tail:
                streams.append(drain(tail))
            merged = heapq.merge(*streams, key=key)
            if hi is not None:
                merged = takewhile(lambda row: key(row) < hi, merged)
            yield from merged

    def close(self) -> None:
        """Remove the runs.  Readers of the merge close before it ends."""
        self._tail = []
        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)
            self._tmpdir = None


def ext_sorted(rows: Iterable[Row], key: Callable[[Row], object],
               chunk_size: int = DEFAULT_CHUNK_SIZE,
               tmp_base: str | None = None) -> Iterator[Row]:
    """Yield rows in key order, spilling chunks to disk when needed: both
    phases of an ``ExternalSort``, with the scratch directory removed when
    the stream ends, fails or is closed."""
    with closing(ExternalSort(key)) as runs:
        runs.spill(rows, chunk_size, tmp_base)
        yield from runs.merge()
