"""Combining phrase tables into one table with origin indicator columns.

Each input table gets a 0/1 ``origin_<name>`` column marking its entries.
A (src, tgt) pair present in several inputs keeps one entry per input,
distinguishable by origin, so downstream scoring can weight them apart.
Extra columns are unioned across inputs; entries from tables lacking an
extra carry 0 for it.

``combine_rows`` does this on streams of raw rows: each input's rows are
mapped onto the output columns as they are read, and all of them go
through one disk-backed sort into table order, which also rejects
duplicates.  ``pivotsmith.tables.combine_tables`` runs it over
``PhraseTable`` objects.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

from .tablecore import (
    ORIGIN_PREFIX,
    Row,
    TableError,
    _checked_manifest,
    sort_table_rows,
)


def _onto_columns(rows: Iterable[Row], columns: Sequence[int | None],
                  marks: tuple[float, ...]) -> Iterator[Row]:
    """Rows with their extras picked by ``columns`` (None: 0) plus ``marks``."""
    for src, tgt, scores, align in rows:
        extras = tuple([0.0 if k is None else scores[k] for k in columns])
        yield src, tgt, scores[:4] + extras + marks, align


def combine_rows(inputs: Sequence[tuple[Sequence[str], Iterable[Row], str]],
                 ) -> tuple[tuple[str, ...], Iterator[Row]]:
    """Merge named row streams, given as (extras names, rows, name).

    Returns the output extras names, the union of the inputs' extras then
    one origin column per input, and a lazy stream of every input row in
    table order.  Names and columns are checked before any row is read; a
    duplicate pair within one input raises while the stream is read.
    """
    if not inputs:
        raise TableError("no tables to combine")
    names = [name for _, _, name in inputs]
    for name in names:
        if not name or any(ch.isspace() for ch in name):
            raise TableError(f"bad table name {name!r}")
    if len(set(names)) != len(names):
        raise TableError(f"duplicate table names in {names!r}")
    origin_cols = tuple(ORIGIN_PREFIX + name for name in names)
    union_extras: list[str] = []
    for extras, _, name in inputs:
        for extra in extras:
            if extra in origin_cols:
                raise TableError(
                    f"extra column {extra!r} in table {name!r} collides with"
                    " an origin column")
            if extra not in union_extras:
                union_extras.append(extra)
    out_extras = tuple(union_extras) + origin_cols
    _checked_manifest(out_extras)
    mapped = []
    for index, (extras, rows, _) in enumerate(inputs):
        position = {extra: 4 + k for k, extra in enumerate(extras)}
        columns = [position.get(extra) for extra in union_extras]
        marks = tuple(1.0 if i == index else 0.0 for i in range(len(inputs)))
        mapped.append(_onto_columns(rows, columns, marks))
    return out_extras, sort_table_rows(chain(*mapped), out_extras)
