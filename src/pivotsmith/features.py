"""Constraint feature scorers for phrase table entries.

Each scorer turns one entry into a source-side and a target-side score,
and ``annotate_table`` appends those as two named extra columns.  The
connectivity scores measure alignment coverage.  The morphology scores
check agreement between aligned words, either against hand-written rule
pairs or against a trained FC tag translation model.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, NamedTuple, Sequence

from .morphmodel import DEFAULT_FC_FEATURES, FcModel, MorphLexicon, RuleMapping
from .parallel import ordered_map
from .tablecore import PhraseEntry, PhraseTable, ScoreSet, TableError

DEFAULT_RULE_FEATURES = ("gen", "num", "det", "pos")

Scorer = Callable[[PhraseEntry], tuple[float, float]]


class FeatureScores(NamedTuple):
    w_s: float
    w_t: float


def connectivity_scores(entry: PhraseEntry) -> FeatureScores:
    """Fraction of source and of target positions covered by the alignment."""
    if not entry.alignment:
        return FeatureScores(0.0, 0.0)
    src_covered = len({link.src_pos for link in entry.alignment})
    tgt_covered = len({link.tgt_pos for link in entry.alignment})
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
        for link in entry.alignment:
            src_value = src_lex.mle(entry.src[link.src_pos], feature)
            if src_value is None:
                continue
            tgt_value = tgt_lex.mle(entry.tgt[link.tgt_pos], feature)
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
    for link in entry.alignment:
        src_tag = src_lex.fc_tag(entry.src[link.src_pos])
        tgt_tag = tgt_lex.fc_tag(entry.tgt[link.tgt_pos])
        w_s += model.p_src_given_tgt(src_tag, tgt_tag)
        w_t += model.p_tgt_given_src(src_tag, tgt_tag)
    return FeatureScores(w_s / len(entry.src), w_t / len(entry.tgt))


def annotate_table(table: PhraseTable, scorer: Scorer,
                   names: tuple[str, str], threads: int = 1) -> PhraseTable:
    """Append one scorer's two values to every entry as named extras.

    Entries are scored in the calling thread; ``threads`` is ignored apart
    from being validated (at least 1).
    """
    if len(names) != 2 or names[0] == names[1]:
        raise TableError(f"need two distinct feature names, got {names!r}")
    for name in names:
        if name in table.manifest:
            raise TableError(f"feature {name!r} already in table manifest")
    entries = []
    for entry, scores in zip(table.entries,
                             ordered_map(scorer, table.entries, threads)):
        w_s, w_t = scores
        for value in (w_s, w_t):
            if not math.isfinite(value) or value < 0.0:
                raise TableError(
                    f"scorer returned bad value {value!r} for pair"
                    f" {' '.join(entry.src)!r} -> {' '.join(entry.tgt)!r}")
        extras = entry.scores.extras + ((names[0], w_s), (names[1], w_t))
        entries.append(replace(entry, scores=replace(entry.scores, extras=extras)))
    return PhraseTable.build(entries, table.extras_names + tuple(names),
                             max_phrase_len=None, validate=False)
