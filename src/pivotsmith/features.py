"""Constraint feature scorers for phrase table rows.

Each scorer turns one entry into a source-side and a target-side score,
and ``annotate_rows`` appends those as two named extra columns to a
stream of raw rows, through ``tablecore.ordered_map``, and returns them
through ``tablecore.sort_table_rows``, in table order with duplicates
rejected; ``annotate_table`` is its ``PhraseTable`` adapter.  A scorer
reads ``src``, ``tgt`` and ``alignment`` by name and unpacks each link as
``(i, j)``, so it takes a ``PhraseEntry`` or a ``RowView`` of a raw row
alike.  The connectivity scores measure alignment coverage.  The
morphology scores check agreement between aligned words, either against
hand-written rule pairs or against a trained FC tag translation model.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .morphmodel import DEFAULT_FC_FEATURES, FcModel, MorphLexicon, RuleMapping
from .tablecore import (
    CORE_FEATURES,
    DEFAULT_RULE_FEATURES,
    Row,
    RowView,
    TableError,
    _checked_manifest,
    ordered_map,
    sort_table_rows,
)

if TYPE_CHECKING:
    from .tables import PhraseEntry, PhraseTable

Scorer = Callable[[RowView], tuple[float, float]]


class FeatureScores(NamedTuple):
    w_s: float
    w_t: float


def connectivity_scores(entry: PhraseEntry) -> FeatureScores:
    """Fraction of source and of target positions covered by the alignment."""
    if not entry.alignment:
        return FeatureScores(0.0, 0.0)
    src_covered = len({i for i, _ in entry.alignment})
    tgt_covered = len({j for _, j in entry.alignment})
    return FeatureScores(src_covered / len(entry.src), tgt_covered / len(entry.tgt))


def rule_morph_scores(entry: PhraseEntry, src_lex: MorphLexicon,
                      tgt_lex: MorphLexicon, rules: RuleMapping,
                      features: Sequence[str] = DEFAULT_RULE_FEATURES,
                      ) -> FeatureScores:
    """Average over features of per-position agreement rates under the rules.

    Every alignment link whose word pair carries an accepted value pair
    for a feature adds 1/n to the source score and 1/m to the target
    score, n and m being the phrase lengths.  Words missing from a
    lexicon add nothing.  Many-to-many alignments can push the sums past
    one; they are reported as computed.
    """
    if not features:
        raise TableError("features must name at least one feature")
    w_s = 0.0
    w_t = 0.0
    n = len(entry.src)
    m = len(entry.tgt)
    for feature in features:
        for i, j in entry.alignment:
            src_value = src_lex.mle(entry.src[i], feature)
            if src_value is None:
                continue
            tgt_value = tgt_lex.mle(entry.tgt[j], feature)
            if tgt_value is None:
                continue
            if rules.allows(feature, src_value, tgt_value):
                w_s += 1.0 / n
                w_t += 1.0 / m
    k = len(features)
    return FeatureScores(w_s / k, w_t / k)


def induced_morph_scores(entry: PhraseEntry, src_lex: MorphLexicon,
                         tgt_lex: MorphLexicon, model: FcModel) -> FeatureScores:
    """Average FC tag translation probability over alignment links.

    The source score averages the probability of the source tag given the
    target tag over the n source positions, the target score mirrors it
    over the m target positions.  Pairs absent from the model add zero.
    """
    w_s = 0.0
    w_t = 0.0
    for i, j in entry.alignment:
        src_tag = src_lex.fc_tag(entry.src[i])
        tgt_tag = tgt_lex.fc_tag(entry.tgt[j])
        w_s += model.p_src_given_tgt(src_tag, tgt_tag)
        w_t += model.p_tgt_given_src(src_tag, tgt_tag)
    return FeatureScores(w_s / len(entry.src), w_t / len(entry.tgt))


def annotate_rows(rows: Iterable[Row], extras_names: Sequence[str],
                  scorer: Scorer, names: tuple[str, str], threads: int = 1,
                  ) -> tuple[tuple[str, ...], Iterator[Row]]:
    """Append one scorer's two values to every row as named extras.

    Returns the output extras names and a lazy stream of the scored rows
    in table order (``sort_table_rows``), so a duplicate pair raises while
    the stream is read.  Rows are scored in the calling thread, once each,
    through a ``RowView``; ``threads`` is ignored apart from being
    validated (at least 1).
    """
    if len(names) != 2 or names[0] == names[1]:
        raise TableError(f"need two distinct feature names, got {names!r}")
    for name in names:
        if name in CORE_FEATURES or name in extras_names:
            raise TableError(f"feature {name!r} already in table manifest")
    out_extras = tuple(extras_names) + tuple(names)
    _checked_manifest(out_extras)

    def score(row: Row) -> Row:
        src, tgt, scores, align = row
        w_s, w_t = scorer(RowView._make(row))
        for value in (w_s, w_t):
            if not math.isfinite(value) or value < 0.0:
                raise TableError(
                    f"scorer returned bad value {value!r} for pair"
                    f" {' '.join(src)!r} -> {' '.join(tgt)!r}")
        return src, tgt, scores + (w_s, w_t), align

    return out_extras, sort_table_rows(ordered_map(score, rows, threads), out_extras)


def annotate_table(table: PhraseTable, scorer: Scorer,
                   names: tuple[str, str], threads: int = 1) -> PhraseTable:
    """``annotate_rows`` over a table's entries, collected into a table."""
    from .tables import entry_to_row, table_from_rows

    extras, rows = annotate_rows(map(entry_to_row, table), table.extras_names,
                                 scorer, names, threads)
    return table_from_rows(extras, rows)
