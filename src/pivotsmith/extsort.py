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
back bit for bit.  A run is written by ``map`` over ``encode_row`` on its
records, and read back by one ``pickle.Unpickler`` whose ``load`` is
called until it returns the end marker, with the records' rows chained
together, so no Python frame runs per row on the way back in.  A run cut
short at a record boundary has no end marker, so reading it raises
``EOFError`` instead of passing for a shorter run; ``ext_sorted`` turns
that, or ``pickle.UnpicklingError`` from bad bytes or a record cut
inside, into an ``OSError`` naming the scratch directory.

Rows in one record share objects through the pickle memo: a phrase tuple
or token string that several rows of a record share is stored once and
read back as one object, as it was when the rows were parsed.  Records
stay small because the merge holds the record it is reading from in each
run, rows already yielded included: a 1024-row record raised pivot-spill's
peak RSS by 47%, and 16 rows lowered it.

The protocol must stay at 3 or below.  An Unpickler keeps its memo between
``load`` calls.  Protocol 3 stores memo entries with ``BINPUT`` at explicit
indices, and each record's pickle counts them from 0 again, so a record
only ever reads entries it stored itself.  Protocol 4 and later store with
``MEMOIZE`` at the memo's current length, which carries over from the
records before, so the second record of a run would read the wrong
objects.  A memo entry holds its object until a later record of the same
run stores at its index.  So per run the merge keeps about one record's
rows alive after yielding them: the current record's list, and the few
objects of earlier records stored at indices past the current record's
last, however long the run.

Only this process reads the runs back, from a directory that ``mkdtemp``
makes private to the user.  Binary runs take more scratch disk than text: 8
bytes per score plus pickle framing, nearly twice the text size when
scores print short (5.64 MB against 3.08 MB for 70k spilled rows of
``0.25`` scores).  The scratch directory is removed when the sorted stream
ends, fails or is closed, after every run file is closed; a process killed
by a signal it does not handle leaves it.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
from contextlib import ExitStack
from itertools import chain, islice
from typing import BinaryIO, Callable, Iterable, Iterator

from .tablecore import DEFAULT_CHUNK_SIZE, Row

# Runs read at once by one merge, to stay under the open-file limit.
MERGE_FAN_IN = 128
# Rows per spill record: one pickle each.  8 and 32 were no faster, 64
# slower, and 1024 held far more memory during the merge.
RECORD_ROWS = 16
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


def _write_run(path: str, rows: Iterable[Row]) -> None:
    import pickle
    rows = iter(rows)
    records = iter(lambda: list(islice(rows, RECORD_ROWS)), [])
    with open(path, "wb") as out:
        # encode_row is looked up here, not bound once, so that a wrapper
        # set on the module sees every record.
        out.writelines(map(encode_row, records))
        out.write(pickle.dumps(None, _PROTOCOL))


def _merge_runs(paths: list[str], key: Callable[[Row], object],
                path: str) -> None:
    """Merge the run files ``paths`` into a new run ``path`` and delete them."""
    with ExitStack() as stack:
        readers = [stack.enter_context(open(run, "rb")) for run in paths]
        _write_run(path, heapq.merge(*map(_read_run, readers), key=key))
    for run in paths:
        os.remove(run)


def drain(rows: list[Row]) -> Iterator[Row]:
    """Yield a list's rows in order, dropping each from the list as it goes."""
    rows.reverse()
    while rows:
        yield rows.pop()


def ext_sorted(rows: Iterable[Row], key: Callable[[Row], object],
               chunk_size: int = DEFAULT_CHUNK_SIZE,
               tmp_base: str | None = None) -> Iterator[Row]:
    """Yield rows in key order, spilling chunks to disk when needed.

    A chunk is spilled as soon as it is full, before the sort knows whether
    more rows follow, so that during the merge only the partial tail is in
    memory: the pivot join merges two sorts at once, and keeping a full last
    chunk of each in memory raised peak RSS by more than it saved in time.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    tmpdir: str | None = None
    runs: list[str] = []
    written = 0
    readers: list[BinaryIO] = []
    rows = iter(rows)
    try:
        chunk = list(islice(rows, chunk_size))
        while len(chunk) == chunk_size:
            chunk.sort(key=key)
            if tmpdir is None:
                tmpdir = tempfile.mkdtemp(prefix="pivotsmith-sort-",
                                          dir=scratch_base(tmp_base))
            runs.append(os.path.join(tmpdir, f"run{written}"))
            written += 1
            _write_run(runs[-1], chunk)
            # Free the spilled rows before the next chunk is read.
            chunk = None
            chunk = list(islice(rows, chunk_size))
        chunk.sort(key=key)
        if not runs:
            yield from drain(chunk)
            return
        import pickle
        try:
            while len(runs) > MERGE_FAN_IN:
                groups = [runs[start:start + MERGE_FAN_IN]
                          for start in range(0, len(runs), MERGE_FAN_IN)]
                runs = []
                for group in groups:
                    if len(group) > 1:
                        path = os.path.join(tmpdir, f"run{written}")
                        written += 1
                        _merge_runs(group, key, path)
                        group = [path]
                    runs.extend(group)
            for path in runs:
                readers.append(open(path, "rb"))
            streams = [_read_run(reader) for reader in readers]
            if chunk:
                streams.append(iter(chunk))
            yield from heapq.merge(*streams, key=key)
        except (EOFError, pickle.UnpicklingError) as exc:
            # A run damaged on disk, read by a fan-in pass or the final merge.
            raise OSError(f"damaged spill run in {tmpdir}: {exc}") from exc
    finally:
        # Open run files would keep rmtree from opening the directory when
        # descriptors ran out, so close them first.
        for reader in readers:
            reader.close()
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
