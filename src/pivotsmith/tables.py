"""The object model of phrase and reordering tables, for library callers.

A ``PhraseTable`` holds validated ``PhraseEntry`` objects in table order
and a ``ReorderingEntry`` one line of a lexicalized reordering table.
They are frozen dataclasses.  This module is the one place that maps them
onto the raw rows of the other modules: ``entry_to_row`` and
``row_to_entry`` convert one entry, and every table-level function here
(parse, write, filter, pivot, annotate, combine, index and decode) is an
adapter that runs the row function of ``tablecore``, ``triangulate``,
``features``, ``combine`` or ``evalkit`` over a table's rows.  The
commands run on raw rows alone and never import this module, so a
command's start-up loads no ``dataclasses``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

from .combine import combine_rows
from .evalkit import (
    DecodeConfig,
    PhraseIndex,
    _decode_one,
    _decode_one_scored,
    phrase_index_rows,
)
from .features import Scorer, annotate_rows
from .tablecore import (
    CORE_FEATURES,
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
    ordered_map,
    read_reordering_rows,
    read_rows,
    sort_reordering_rows,
    sort_table_rows,
    write_lines,
    write_rows,
)
from .triangulate import (
    PivotConfig,
    compose_rows,
    estimate_pivot_size_rows,
    filter_rows,
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


def validate_entry(entry: PhraseEntry, extras_names: Sequence[str] = ()) -> None:
    check_phrase(entry.src, "source")
    check_phrase(entry.tgt, "target")
    _check_scores(entry.scores.core(),
                  tuple(v for _, v in entry.scores.extras), None)
    names = tuple(name for name, _ in entry.scores.extras)
    if names != tuple(extras_names):
        raise TableError(
            f"entry extras {names} do not match table extras {tuple(extras_names)}")
    _check_alignment(entry.alignment, len(entry.src), len(entry.tgt), None)


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
              extras_names: Sequence[str] = ()) -> "PhraseTable":
        manifest = _checked_manifest(extras_names)
        items = list(entries)
        for entry in items:
            validate_entry(entry, extras_names)
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


def parse_phrase_table(lines: Iterable[str]) -> PhraseTable:
    extras, rows = read_rows(lines)
    return table_from_rows(extras, sort_table_rows(rows, extras))


def write_phrase_table(table: PhraseTable, stream: TextIO) -> None:
    write_rows(map(entry_to_row, table), stream, table.extras_names)


# --- lexicalized reordering tables ------------------------------------------

@dataclass(frozen=True)
class ReorderingEntry:
    """Six orientation probabilities, two direction triples summing to one."""

    src: Phrase
    tgt: Phrase
    probs: tuple[float, float, float, float, float, float]


def validate_reordering(entry: ReorderingEntry) -> None:
    check_phrase(entry.src, "source")
    check_phrase(entry.tgt, "target")
    if len(entry.probs) != 6:
        raise TableError(f"expected 6 probabilities, got {len(entry.probs)}")
    _check_orientation_probs(entry.probs, None)


def parse_reordering_table(lines: Iterable[str]) -> tuple[ReorderingEntry, ...]:
    rows = sort_reordering_rows(read_reordering_rows(lines))
    return tuple(ReorderingEntry(src, tgt, probs) for src, tgt, probs, _ in rows)


def reorder_rows(entries: Iterable[ReorderingEntry]) -> Iterator[Row]:
    """Reordering entries as rows whose scores are the six probabilities,
    each checked by ``validate_reordering`` as it passes."""
    for entry in entries:
        validate_reordering(entry)
        yield (entry.src, entry.tgt, entry.probs, ())


def write_reordering_table(entries: Iterable[ReorderingEntry],
                           stream: TextIO) -> None:
    """Write ``entries`` sorted by pair.

    A repeated pair or an entry ``validate_reordering`` rejects raises
    ``TableError`` before the first line is written.
    """
    rows = list(sort_reordering_rows(reorder_rows(entries)))
    write_lines(rows, None, stream, 0)


# --- triangulation ----------------------------------------------------------

def filter_top_n(table: PhraseTable, weights: LogLinearWeights | None,
                 n: int) -> PhraseTable:
    """Per-source top-n pruning of a table, extras preserved."""
    rows = filter_rows(map(entry_to_row, table), table.extras_names, weights, n,
                       inputs_sorted=True)
    return table_from_rows(table.extras_names, rows)


def _compose_tables(sp: PhraseTable, pt: PhraseTable, cfg: PivotConfig | None,
                    pt_reo_rows: Iterable[Row] | None = None,
                    sp_reo_rows: Iterable[Row] | None = None) -> Iterator[Row]:
    return compose_rows(map(entry_to_row, sp), sp.extras_names,
                        map(entry_to_row, pt), pt.extras_names,
                        PivotConfig() if cfg is None else cfg, inputs_sorted=True,
                        pt_reo_rows=pt_reo_rows, sp_reo_rows=sp_reo_rows)


def pivot_compose(sp: PhraseTable, pt: PhraseTable,
                  cfg: PivotConfig | None = None) -> PhraseTable:
    """Triangulate two in-memory tables into a source-target table."""
    return table_from_rows((), _compose_tables(sp, pt, cfg))


def pivot_reordering(sp_reo: Sequence[ReorderingEntry],
                     pt_reo: Sequence[ReorderingEntry],
                     sp: PhraseTable, pt: PhraseTable,
                     cfg: PivotConfig | None = None,
                     ) -> tuple[ReorderingEntry, ...]:
    """Reordering table for the composed pairs of ``pivot_compose(sp, pt)``.

    Orientation probabilities come from the pivot-target side, mixed per
    composed pair with the source-pivot forward phrase scores as weights.
    The source-pivot reordering table is accepted for interface symmetry
    but does not enter the mixture; phrase order around the source-pivot
    boundary says nothing about source-target order once the pivot phrase
    drops out.  ``compose_rows`` checks it as ``pivot --reordering-sp``
    does.  Every entry of both tables is checked as ``reorder_rows``
    checks it, and a pair repeated in either raises ``TableError``.
    """
    rows = _compose_tables(sp, pt, cfg, reorder_rows(pt_reo), reorder_rows(sp_reo))
    return tuple(ReorderingEntry(src, tgt, scores[4:])
                 for src, tgt, scores, _ in rows)


def estimate_pivot_size(sp: PhraseTable, pt: PhraseTable) -> int:
    """Pair combinations the unfiltered join of two tables would enumerate."""
    return estimate_pivot_size_rows(map(entry_to_row, sp), map(entry_to_row, pt))


# --- features and combining -------------------------------------------------

def annotate_table(table: PhraseTable, scorer: Scorer,
                   names: tuple[str, str], threads: int = 1) -> PhraseTable:
    """``annotate_rows`` over a table's entries, collected into a table."""
    extras, rows = annotate_rows(map(entry_to_row, table), table.extras_names,
                                 scorer, names, threads)
    return table_from_rows(extras, rows)


def combine_tables(tables: Sequence[tuple[PhraseTable, str]]) -> PhraseTable:
    """``combine_rows`` over whole tables; entry count is the sum of theirs."""
    extras, rows = combine_rows([(table.extras_names, map(entry_to_row, table), name)
                                 for table, name in tables])
    return table_from_rows(extras, rows)


# --- decoding ---------------------------------------------------------------

def build_phrase_index(table: PhraseTable, cfg: DecodeConfig) -> PhraseIndex:
    """``phrase_index_rows`` over a table's entries."""
    return phrase_index_rows(map(entry_to_row, table), table.extras_names, cfg)


def decode_monotone(sentence: Sequence[str], table: PhraseTable,
                    cfg: DecodeConfig | None = None) -> tuple[str, ...]:
    return decode_scored(sentence, table, cfg)[0]


def decode_scored(sentence: Sequence[str], table: PhraseTable,
                  cfg: DecodeConfig | None = None,
                  ) -> tuple[tuple[str, ...], float]:
    """Translation plus its summed log-linear path score."""
    if cfg is None:
        cfg = DecodeConfig()
    return _decode_one_scored(sentence, build_phrase_index(table, cfg), cfg)


def decode_corpus(sentences: Sequence[Sequence[str]], table: PhraseTable,
                  cfg: DecodeConfig | None = None,
                  threads: int = 1) -> list[tuple[str, ...]]:
    """Decode many sentences against one shared phrase index.

    Sentences are decoded in the calling thread; ``threads`` is ignored
    apart from being validated (at least 1).
    """
    if cfg is None:
        cfg = DecodeConfig()
    index = build_phrase_index(table, cfg)
    return list(ordered_map(
        lambda sentence: _decode_one(sentence, index, cfg),
        sentences, threads))
