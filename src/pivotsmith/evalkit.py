"""Monotone phrase decoder and corpus BLEU scoring.

The decoder picks the best segmentation of an input sentence into table
phrases by summed log-linear scores, translating segments left to right
without reordering and without a language model.  Tokens not covered by
any table phrase pass through unchanged at a fixed penalty.  BLEU is the
standard corpus metric: clipped modified n-gram precisions up to length
four, their geometric mean, and a brevity penalty against the closest
reference length.

``phrase_index_rows`` builds the decoder's best-option index from a
stream of raw rows, holding one entry per distinct source phrase;
``build_phrase_index`` is its ``PhraseTable`` adapter.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .tablecore import (
    CORE_FEATURES,
    DEFAULT_LOG_FLOOR,
    DEFAULT_MAX_PHRASE_LEN,
    DEFAULT_UNKNOWN_PENALTY,
    FrozenFields,
    LogLinearWeights,
    Phrase,
    Row,
    loglinear_score,
    ordered_map,
    weight_vector,
)

if TYPE_CHECKING:
    from .tables import PhraseTable


class DecodeConfig(FrozenFields):
    _fields = ("weights", "max_phrase_len", "unknown_word_penalty")
    weights: LogLinearWeights | None = None
    max_phrase_len: int = DEFAULT_MAX_PHRASE_LEN
    unknown_word_penalty: float = DEFAULT_UNKNOWN_PENALTY

    def __init__(self, weights: LogLinearWeights | None = None,
                 max_phrase_len: int = DEFAULT_MAX_PHRASE_LEN,
                 unknown_word_penalty: float = DEFAULT_UNKNOWN_PENALTY) -> None:
        if max_phrase_len < 1:
            raise ValueError("max_phrase_len must be at least 1")
        if not math.isfinite(unknown_word_penalty):
            raise ValueError("unknown_word_penalty must be finite")
        self._set(weights=weights, max_phrase_len=max_phrase_len,
                  unknown_word_penalty=unknown_word_penalty)


class PhraseIndex(dict):
    """The decoder's index: best (score, target) option per source phrase.

    ``longest_source`` is the token count of the longest source phrase in
    it.  No wider span can match, so the decoder does not look one up.
    """

    longest_source = 0


def phrase_index_rows(rows: Iterable[Row], extras_names: Sequence[str],
                      cfg: DecodeConfig) -> PhraseIndex:
    """Best translation option per source phrase of a table's rows.

    Highest log-linear score wins; ties keep the lexicographically
    smaller target so decoding is reproducible.  The result does not
    depend on the order of the rows.
    """
    weight_vec = weight_vector(CORE_FEATURES + tuple(extras_names), cfg.weights)
    index = PhraseIndex()
    for src, tgt, scores, _ in rows:
        if len(src) > cfg.max_phrase_len:
            continue
        score = loglinear_score(scores, weight_vec, DEFAULT_LOG_FLOOR)
        known = index.get(src)
        if known is None or score > known[0] or (score == known[0]
                                                 and tgt < known[1]):
            index[src] = (score, tgt)
    index.longest_source = max(map(len, index), default=0)
    return index


def build_phrase_index(table: PhraseTable, cfg: DecodeConfig) -> PhraseIndex:
    """``phrase_index_rows`` over a table's entries."""
    from .tables import entry_to_row

    return phrase_index_rows(map(entry_to_row, table), table.extras_names, cfg)


def _decode_one(sentence: Sequence[str], index: PhraseIndex,
                cfg: DecodeConfig) -> tuple[str, ...]:
    return _decode_one_scored(sentence, index, cfg)[0]


def _decode_one_scored(sentence: Sequence[str], index: PhraseIndex,
                       cfg: DecodeConfig) -> tuple[tuple[str, ...], float]:
    n = len(sentence)
    if n == 0:
        return (), 0.0
    # Single tokens are always tried: an unknown one passes through.
    widest = max(1, min(cfg.max_phrase_len, index.longest_source))
    best: list[float] = [0.0] + [-math.inf] * n
    back: list[tuple[int, Phrase] | None] = [None] * (n + 1)
    for end in range(1, n + 1):
        best_score = -math.inf
        best_span = 0
        best_tgt: Phrase = ()
        best_start = 0
        for start in range(max(0, end - widest), end):
            span = tuple(sentence[start:end])
            option = index.get(span)
            if option is not None:
                score = best[start] + option[0]
                tgt = option[1]
            elif end - start == 1:
                score = best[start] + cfg.unknown_word_penalty
                tgt = span
            else:
                continue
            width = end - start
            # Prefer higher score, then longer source span, then the
            # lexicographically smaller target.
            if (score > best_score
                    or (score == best_score and width > best_span)
                    or (score == best_score and width == best_span
                        and tgt < best_tgt)):
                best_score = score
                best_span = width
                best_tgt = tgt
                best_start = start
        best[end] = best_score
        back[end] = (best_start, best_tgt)
    pieces: list[Phrase] = []
    end = n
    while end > 0:
        start, tgt = back[end]
        pieces.append(tgt)
        end = start
    out: list[str] = []
    for piece in reversed(pieces):
        out.extend(piece)
    return tuple(out), best[n]


def decode_monotone(sentence: Sequence[str], table: PhraseTable,
                    cfg: DecodeConfig | None = None) -> tuple[str, ...]:
    if cfg is None:
        cfg = DecodeConfig()
    return _decode_one(sentence, build_phrase_index(table, cfg), cfg)


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


# --- BLEU --------------------------------------------------------------------

class BleuResult(NamedTuple):
    bleu: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int


def _ngram_counts(tokens: Sequence[str], order: int) -> Counter:
    return Counter(zip(*[tokens[i:] for i in range(order)]))


def _closest_ref_length(refs: Sequence[Sequence[str]], hyp_len: int) -> int:
    # Ties between reference lengths go to the shorter one.
    return min((len(ref) for ref in refs),
               key=lambda length: (abs(length - hyp_len), length))


def bleu4_report(hypotheses: Sequence[Sequence[str]],
                 reference_sets: Sequence[Sequence[Sequence[str]]]) -> BleuResult:
    """Corpus BLEU with n-gram orders 1 to 4 and no smoothing.

    Any order with zero matches over the corpus makes the score 0.
    """
    if not hypotheses:
        raise ValueError("empty corpus")
    if len(hypotheses) != len(reference_sets):
        raise ValueError(
            f"{len(hypotheses)} hypotheses against {len(reference_sets)}"
            " reference sets")
    matched = [0] * 5
    totals = [0] * 5
    hyp_len = 0
    ref_len = 0
    for hyp, refs in zip(hypotheses, reference_sets):
        if not refs:
            raise ValueError("hypothesis without references")
        hyp_len += len(hyp)
        ref_len += _closest_ref_length(refs, len(hyp))
        for order in range(1, 5):
            total = len(hyp) - order + 1
            if total <= 0:
                continue
            totals[order] += total
            # A gram's clip limit is its largest count in any reference.
            # Plain dict operations: Counter's ``|`` and ``&`` cost more.
            limits = _ngram_counts(refs[0], order)
            for ref in refs[1:]:
                for gram, count in _ngram_counts(ref, order).items():
                    if count > limits.get(gram, 0):
                        limits[gram] = count
            get = limits.get
            hits = 0
            for gram, count in _ngram_counts(hyp, order).items():
                limit = get(gram)
                if limit is not None:
                    hits += count if count < limit else limit
            matched[order] += hits
    precisions = tuple(
        matched[order] / totals[order] if totals[order] else 0.0
        for order in range(1, 5))
    if hyp_len == 0:
        brevity_penalty = 0.0
    elif hyp_len >= ref_len:
        brevity_penalty = 1.0
    else:
        brevity_penalty = math.exp(1.0 - ref_len / hyp_len)
    if min(precisions) == 0.0:
        bleu = 0.0
    else:
        bleu = brevity_penalty * math.exp(
            sum(math.log(p) for p in precisions) / 4.0)
    return BleuResult(bleu, precisions, brevity_penalty, hyp_len, ref_len)


def bleu4(hypotheses: Sequence[Sequence[str]],
          reference_sets: Sequence[Sequence[Sequence[str]]]) -> float:
    return bleu4_report(hypotheses, reference_sets).bleu


def read_sentences(lines: Iterable[str]) -> list[tuple[str, ...]]:
    """One whitespace-tokenized sentence per line, empty lines kept."""
    return [tuple(line.split()) for line in lines]
