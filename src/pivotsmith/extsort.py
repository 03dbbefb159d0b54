"""Disk-backed sorting for row streams too large to hold in memory.

Rows are the raw tuples used across the pivot pipeline: source tokens,
target tokens, a tuple of float scores, and a tuple of alignment pairs.
Runs of ``chunk_size`` rows are sorted in memory and spilled to temp files,
then merged lazily with ``heapq.merge``.  Inputs that fit in one chunk are
sorted without touching the disk at all.

Runs are binary: each row is one pickle (protocol 5) behind a 4-byte
length prefix, so reading a run back parses no text and floats come back
bit for bit.  Rows are encoded one at a time, so the merge holds one
decoded row per run.  Only this process reads the runs back, from a
directory that ``mkdtemp`` makes private to the user.  Binary runs take
more scratch disk than text: 8 bytes per score plus pickle framing, about
twice the text size when scores print short (6.44 MB against 3.08 MB for
70k spilled rows of ``0.25`` scores).  The scratch directory is removed
when the sorted stream ends, fails or is closed, after every run file is
closed; a process killed by a signal it does not handle leaves it.
"""

from __future__ import annotations

import heapq
import os
import shutil
import struct
import tempfile
from typing import BinaryIO, Callable, Iterable, Iterator

from .tablecore import Row

DEFAULT_CHUNK_SIZE = 250_000
TMPDIR_ENV = "PIVOTSMITH_TMPDIR"

_LENGTH = struct.Struct("<I")
# pickle.dumps and pickle.loads, bound on the first encode or decode: a
# sort that never spills never imports pickle.
_dumps = _loads = None


def scratch_base(override: str | None = None) -> str | None:
    """Directory for spill files: explicit override, else the env var."""
    return override or os.environ.get(TMPDIR_ENV) or None


def _import_pickle() -> None:
    global _dumps, _loads
    import pickle
    _dumps, _loads = pickle.dumps, pickle.loads


def encode_row(row: Row) -> bytes:
    """One row as a length-prefixed pickle; floats round-trip exactly."""
    if _dumps is None:
        _import_pickle()
    payload = _dumps(row, 5)
    return _LENGTH.pack(len(payload)) + payload


def decode_row(data: bytes) -> Row:
    """The row that ``encode_row`` turned into ``data``."""
    if _loads is None:
        _import_pickle()
    return _loads(data[_LENGTH.size:])


def _read_run(stream: BinaryIO) -> Iterator[Row]:
    read = stream.read
    size = _LENGTH.size
    while head := read(size):
        yield decode_row(head + read(_LENGTH.unpack(head)[0]))


def ext_sorted(rows: Iterable[Row], key: Callable[[Row], object],
               chunk_size: int = DEFAULT_CHUNK_SIZE,
               tmp_base: str | None = None) -> Iterator[Row]:
    """Yield rows in key order, spilling chunks to disk when needed."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    tmpdir: str | None = None
    runs: list[str] = []
    readers: list[BinaryIO] = []
    chunk: list[Row] = []
    try:
        for row in rows:
            chunk.append(row)
            if len(chunk) >= chunk_size:
                chunk.sort(key=key)
                if tmpdir is None:
                    tmpdir = tempfile.mkdtemp(prefix="pivotsmith-sort-",
                                              dir=scratch_base(tmp_base))
                path = os.path.join(tmpdir, f"run{len(runs)}")
                with open(path, "wb") as out:
                    out.writelines(encode_row(r) for r in chunk)
                runs.append(path)
                chunk = []
        chunk.sort(key=key)
        if not runs:
            yield from chunk
            return
        for path in runs:
            readers.append(open(path, "rb"))
        streams = [_read_run(reader) for reader in readers]
        if chunk:
            streams.append(iter(chunk))
        yield from heapq.merge(*streams, key=key)
    finally:
        # Open run files would keep rmtree from opening the directory when
        # descriptors ran out, so close them first.
        for reader in readers:
            reader.close()
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
