"""The object model of phrase and reordering tables, for library callers.

A ``PhraseTable`` holds validated ``PhraseEntry`` objects in table order
and a ``ReorderingEntry`` one line of a lexicalized reordering table.
They are frozen dataclasses, and the functions here convert them to and
from the raw rows of ``tablecore``, which reads, checks and writes the
text formats.  The commands run on raw rows alone and never import this
module, so a command's start-up loads no ``dataclasses``.  The names here
stay importable from ``pivotsmith.tablecore`` as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

from .tablecore import (
    CORE_FEATURES,
    DEFAULT_LOG_FLOOR,
    DEFAULT_MAX_PHRASE_LEN,
    AlignmentLink,
    LogLinearWeights,
    Phrase,
    Row,
    TableError,
    _check_alignment,
    _check_orientation_probs,
    _check_scores,
    _checked_manifest,
    check_phrase,
    loglinear_score,
    read_reordering_rows,
    read_rows,
    sort_reordering_rows,
    sort_table_rows,
    weight_vector,
    write_lines,
    write_rows,
)


@dataclass(frozen=True)
class ScoreSet:
    """Core translation scores plus named extra feature values.

    Core scores live in [0, 1].  Extras are nonnegative and keep the order
    they were added in; they are not required to stay below 1.
    """

    phi_fwd: float
    lex_fwd: float
    phi_bwd: float
    lex_bwd: float
    extras: tuple[tuple[str, float], ...] = ()

    def core(self) -> tuple[float, float, float, float]:
        return (self.phi_fwd, self.lex_fwd, self.phi_bwd, self.lex_bwd)

    def values(self) -> tuple[float, ...]:
        return self.core() + tuple(v for _, v in self.extras)

    def named(self) -> Iterator[tuple[str, float]]:
        yield from zip(CORE_FEATURES, self.core())
        yield from self.extras

    def extra(self, name: str) -> float:
        for key, value in self.extras:
            if key == name:
                return value
        raise KeyError(name)


@dataclass(frozen=True)
class PhraseEntry:
    src: Phrase
    tgt: Phrase
    scores: ScoreSet
    alignment: tuple[AlignmentLink, ...] = ()


def validate_entry(entry: PhraseEntry,
                   max_phrase_len: int | None = DEFAULT_MAX_PHRASE_LEN,
                   extras_names: Sequence[str] = (),
                   line: int | None = None) -> None:
    check_phrase(entry.src, "source", max_phrase_len, line)
    check_phrase(entry.tgt, "target", max_phrase_len, line)
    _check_scores(entry.scores.core(),
                  tuple(v for _, v in entry.scores.extras), line)
    names = tuple(name for name, _ in entry.scores.extras)
    if names != tuple(extras_names):
        raise TableError(
            f"entry extras {names} do not match table extras {tuple(extras_names)}", line)
    _check_alignment(entry.alignment, len(entry.src), len(entry.tgt), line)


@dataclass(frozen=True)
class PhraseTable:
    """Sorted, validated collection of phrase entries.

    The manifest lists feature names in column order, always starting with
    the four core names.  Entries are kept in ``table_order``: by source
    then target tokens, then descending ``origin_*`` marks.  Duplicate
    (src, tgt) pairs are rejected unless the entries carry ``origin_*``
    extras that differ, which is how combined tables keep one option per
    input table.
    """

    manifest: tuple[str, ...] = CORE_FEATURES
    entries: tuple[PhraseEntry, ...] = ()

    @property
    def extras_names(self) -> tuple[str, ...]:
        return self.manifest[4:]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[PhraseEntry]:
        return iter(self.entries)

    @classmethod
    def build(cls, entries: Iterable[PhraseEntry],
              extras_names: Sequence[str] = (),
              max_phrase_len: int | None = DEFAULT_MAX_PHRASE_LEN,
              ) -> "PhraseTable":
        manifest = _checked_manifest(extras_names)
        items = list(entries)
        for entry in items:
            validate_entry(entry, max_phrase_len, extras_names)
        # Each entry rides in the alignment slot of a row of its sort fields.
        rows = ((e.src, e.tgt, e.scores.values(), e) for e in items)
        return cls(manifest, tuple(row[3] for row in sort_table_rows(rows, extras_names)))


def row_to_entry(row: Row, extras_names: Sequence[str] = ()) -> PhraseEntry:
    src, tgt, scores, align = row
    return PhraseEntry(
        src=src, tgt=tgt,
        scores=ScoreSet(*scores[:4], extras=tuple(zip(extras_names, scores[4:]))),
        alignment=tuple(AlignmentLink(*pair) for pair in align))


def table_from_rows(extras_names: Sequence[str],
                    rows: Iterable[Row]) -> PhraseTable:
    """A ``PhraseTable`` of rows already in table order and checked, as
    ``sort_table_rows`` yields them."""
    return PhraseTable(manifest=_checked_manifest(extras_names),
                       entries=tuple(row_to_entry(row, extras_names) for row in rows))


def entry_to_row(entry: PhraseEntry) -> Row:
    return (entry.src, entry.tgt, entry.scores.values(),
            tuple((link.src_pos, link.tgt_pos) for link in entry.alignment))


def parse_phrase_table(lines: Iterable[str],
                       max_phrase_len: int | None = DEFAULT_MAX_PHRASE_LEN,
                       ) -> PhraseTable:
    extras, rows = read_rows(lines, max_phrase_len)
    return table_from_rows(extras, sort_table_rows(rows, extras))


def write_phrase_table(table: PhraseTable, stream: TextIO) -> None:
    write_rows(map(entry_to_row, table), stream, table.extras_names)


def score_entry(entry: PhraseEntry, manifest: Sequence[str],
                weights: LogLinearWeights | None = None,
                floor: float = DEFAULT_LOG_FLOOR) -> float:
    """Weighted sum of log feature values with a floor to keep logs finite."""
    return loglinear_score(entry.scores.values(), weight_vector(manifest, weights), floor)


# --- lexicalized reordering tables ------------------------------------------

@dataclass(frozen=True)
class ReorderingEntry:
    """Six orientation probabilities, two direction triples summing to one."""

    src: Phrase
    tgt: Phrase
    probs: tuple[float, float, float, float, float, float]


def validate_reordering(entry: ReorderingEntry,
                        max_phrase_len: int | None = DEFAULT_MAX_PHRASE_LEN,
                        line: int | None = None) -> None:
    check_phrase(entry.src, "source", max_phrase_len, line)
    check_phrase(entry.tgt, "target", max_phrase_len, line)
    if len(entry.probs) != 6:
        raise TableError(f"expected 6 probabilities, got {len(entry.probs)}", line)
    _check_orientation_probs(entry.probs, line)


def parse_reordering_table(lines: Iterable[str],
                           max_phrase_len: int | None = DEFAULT_MAX_PHRASE_LEN,
                           ) -> tuple[ReorderingEntry, ...]:
    rows = sort_reordering_rows(read_reordering_rows(lines, max_phrase_len))
    return tuple(ReorderingEntry(src, tgt, probs) for src, tgt, probs, _ in rows)


def write_reordering_table(entries: Iterable[ReorderingEntry],
                           stream: TextIO) -> None:
    """Write ``entries`` sorted by pair.

    A repeated pair raises ``TableError`` before the first line is written.
    """
    rows = list(sort_reordering_rows((e.src, e.tgt, e.probs, ()) for e in entries))
    write_lines(rows, None, stream, 0)
