"""Morphological lexicons, agreement rules, and feature-combination models.

A tagged corpus is a TSV file with one token per line and blank lines
between sentences:

    token<TAB>pos<TAB>gen<TAB>num<TAB>det

From one or more tagged corpora a lexicon maps each word to its most
frequent value per feature and to a feature-combination (FC) tag such as
``[Feminine+Dual+Determiner]``, the most frequent joint combination of the
chosen features with ``NA`` components left out.  Ties go to the
lexicographically smallest candidate so rebuilding is deterministic.

Agreement rules are TSV triples ``feature<TAB>src_value<TAB>tgt_value``
listing which feature value pairs count as compatible across aligned
words.  An FC model holds conditional probabilities between source and
target FC tags, trained from a word-aligned parallel corpus.
"""

from __future__ import annotations

import functools
from collections import Counter
from importlib import resources
from itertools import zip_longest
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .tablecore import (
    DEFAULT_FC_FEATURES,
    NA_VALUE,
    TableError,
    format_score,
    parse_links,
)

FEATURES = ("pos", "gen", "num", "det")
UNKNOWN_TAG = "[UNK]"
EMPTY_TAG = "[NA]"

TaggedToken = tuple[str, tuple[str, str, str, str]]


def parse_tagged_corpus(lines: Iterable[str]) -> Iterator[list[TaggedToken]]:
    """Yield sentences as lists of (token, feature values) tuples."""
    sentence: list[TaggedToken] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.rstrip("\n")
        if not text.strip():
            if sentence:
                yield sentence
                sentence = []
            continue
        fields = text.split("\t")
        if len(fields) != 5:
            raise TableError(
                f"expected 5 tab-separated fields, got {len(fields)}", lineno)
        token = fields[0]
        if not token or any(ch.isspace() for ch in token):
            raise TableError(f"bad token {token!r}", lineno)
        values = tuple(fields[1:])
        for value in values:
            if not value or value != value.strip():
                raise TableError(f"bad feature value {value!r}", lineno)
        sentence.append((token, values))
    if sentence:
        yield sentence


def _feature_index(name: str) -> int:
    try:
        return FEATURES.index(name.lower())
    except ValueError:
        raise TableError(f"unknown feature {name!r}, expected one of"
                         f" {', '.join(FEATURES)}") from None


def render_fc_tag(values: Iterable[str], na_value: str = NA_VALUE) -> str:
    """Bracketed joint tag, skipping components whose value is absent."""
    parts = [v for v in values if v != na_value]
    if not parts:
        return EMPTY_TAG
    return "[" + "+".join(parts) + "]"


class MorphLexicon:
    """Word lookup of per-feature MLE values and joint FC tags."""

    __slots__ = ("_words",)

    def __init__(self, words: Mapping[str, tuple[tuple[str, str, str, str], str, int]]):
        self._words = dict(words)

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._words

    def words(self) -> Iterator[str]:
        return iter(sorted(self._words))

    def mle(self, word: str, feature: str) -> str | None:
        """Most frequent value of one feature, None for unseen words."""
        idx = _feature_index(feature)
        entry = self._words.get(word)
        return None if entry is None else entry[0][idx]

    def fc_tag(self, word: str) -> str:
        entry = self._words.get(word)
        return UNKNOWN_TAG if entry is None else entry[1]

    def count(self, word: str) -> int:
        entry = self._words.get(word)
        return 0 if entry is None else entry[2]

    def save(self, stream: TextIO) -> None:
        for word in sorted(self._words):
            values, fc, count = self._words[word]
            stream.write("\t".join((word, *values, fc, str(count))) + "\n")

    @classmethod
    def load(cls, lines: Iterable[str]) -> "MorphLexicon":
        words: dict[str, tuple[tuple[str, str, str, str], str, int]] = {}
        for lineno, raw in enumerate(lines, start=1):
            text = raw.rstrip("\n")
            if not text.strip():
                raise TableError("blank line in lexicon", lineno)
            fields = text.split("\t")
            if len(fields) != 7:
                raise TableError(
                    f"expected 7 tab-separated fields, got {len(fields)}", lineno)
            word = fields[0]
            if not word or any(ch.isspace() for ch in word):
                raise TableError(f"bad word {word!r}", lineno)
            if word in words:
                raise TableError(f"duplicate lexicon entry for {word!r}", lineno)
            values = tuple(fields[1:5])
            for value in values:
                if not value:
                    raise TableError("empty feature value", lineno)
            fc = fields[5]
            if not fc:
                raise TableError("empty FC tag", lineno)
            if not fields[6].isdigit() or int(fields[6]) < 1:
                raise TableError(f"bad count {fields[6]!r}", lineno)
            words[word] = (values, fc, int(fields[6]))
        return cls(words)


def _argmax(counter: Counter) -> object:
    # Highest count wins; ties take the lexicographically smallest key.
    return min(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def build_lexicon(corpora: Sequence[Iterable[str]],
                  fc_features: Sequence[str] = DEFAULT_FC_FEATURES,
                  na_value: str = NA_VALUE) -> MorphLexicon:
    """Count feature values over tagged corpora and keep per-word argmaxes.

    Counts from all corpora are pooled before taking the argmax, so
    merging corpora never means merging already resolved lexicons.  The FC
    tag comes from the most frequent joint combination of ``fc_features``
    values, not from combining per-feature winners.
    """
    fc_idx = tuple(_feature_index(name) for name in fc_features)
    if not fc_idx:
        raise TableError("fc_features must name at least one feature")
    if len(set(fc_idx)) != len(fc_idx):
        raise TableError(f"duplicate feature in fc_features {tuple(fc_features)!r}")
    feature_counts: dict[str, tuple[Counter, ...]] = {}
    fc_counts: dict[str, Counter] = {}
    totals: Counter = Counter()
    for corpus in corpora:
        for sentence in parse_tagged_corpus(corpus):
            for token, values in sentence:
                counters = feature_counts.get(token)
                if counters is None:
                    counters = tuple(Counter() for _ in FEATURES)
                    feature_counts[token] = counters
                    fc_counts[token] = Counter()
                for counter, value in zip(counters, values):
                    counter[value] += 1
                fc_counts[token][tuple(values[i] for i in fc_idx)] += 1
                totals[token] += 1
    words = {}
    for token, counters in feature_counts.items():
        values = tuple(_argmax(c) for c in counters)
        combo = _argmax(fc_counts[token])
        words[token] = (values, render_fc_tag(combo, na_value), totals[token])
    return MorphLexicon(words)


# --- agreement rules ---------------------------------------------------------

class RuleMapping:
    """Accepted (source value, target value) pairs per morphological feature."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Mapping[str, Iterable[tuple[str, str]]]):
        self._pairs = {name.lower(): frozenset(values)
                       for name, values in pairs.items()}
        for name in self._pairs:
            _feature_index(name)

    def allows(self, feature: str, src_value: str, tgt_value: str) -> bool:
        return (src_value, tgt_value) in self._pairs.get(feature.lower(), frozenset())

    def pairs(self, feature: str) -> frozenset[tuple[str, str]]:
        return self._pairs.get(feature.lower(), frozenset())

    def features(self) -> tuple[str, ...]:
        return tuple(sorted(self._pairs))

    def __len__(self) -> int:
        return sum(len(v) for v in self._pairs.values())


def load_rules(lines: Iterable[str]) -> RuleMapping:
    pairs: dict[str, set[tuple[str, str]]] = {}
    for lineno, raw in enumerate(lines, start=1):
        text = raw.rstrip("\n")
        if not text.strip() or text.lstrip().startswith("#"):
            continue
        fields = text.split("\t")
        if len(fields) != 3:
            raise TableError(
                f"expected 3 tab-separated fields, got {len(fields)}", lineno)
        feature = fields[0].strip().lower()
        _feature_index(feature)
        src_value, tgt_value = fields[1].strip(), fields[2].strip()
        if not src_value or not tgt_value:
            raise TableError("empty feature value", lineno)
        bucket = pairs.setdefault(feature, set())
        if (src_value, tgt_value) in bucket:
            raise TableError(
                f"duplicate rule {feature} {src_value!r} -> {tgt_value!r}", lineno)
        bucket.add((src_value, tgt_value))
    return RuleMapping(pairs)


@functools.lru_cache(maxsize=1)
def default_rules() -> RuleMapping:
    text = resources.files("pivotsmith").joinpath("data/default_rules.tsv").read_text(
        encoding="utf-8")
    return load_rules(text.splitlines())


# --- feature-combination model -----------------------------------------------

class FcModel:
    """Conditional probabilities between source and target FC tags.

    Keys are (source tag, target tag) pairs; each carries the probability
    of the target tag given the source tag and the reverse.  Pairs absent
    from the model score zero in both directions.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs: Mapping[tuple[str, str], tuple[float, float]]):
        for (src_fc, tgt_fc), (p_ts, p_st) in probs.items():
            for p in (p_ts, p_st):
                if not 0.0 <= p <= 1.0:
                    raise TableError(
                        f"probability {p!r} for pair {src_fc!r} -> {tgt_fc!r}"
                        " not in [0, 1]")
        self._probs = dict(probs)

    def __len__(self) -> int:
        return len(self._probs)

    def pairs(self) -> Iterator[tuple[tuple[str, str], tuple[float, float]]]:
        return iter(sorted(self._probs.items()))

    def p_tgt_given_src(self, src_fc: str, tgt_fc: str) -> float:
        entry = self._probs.get((src_fc, tgt_fc))
        return 0.0 if entry is None else entry[0]

    def p_src_given_tgt(self, src_fc: str, tgt_fc: str) -> float:
        entry = self._probs.get((src_fc, tgt_fc))
        return 0.0 if entry is None else entry[1]

    def save(self, stream: TextIO) -> None:
        for (src_fc, tgt_fc), (p_ts, p_st) in self.pairs():
            stream.write("\t".join((src_fc, tgt_fc,
                                    format_score(p_ts), format_score(p_st))) + "\n")

    @classmethod
    def load(cls, lines: Iterable[str]) -> "FcModel":
        probs: dict[tuple[str, str], tuple[float, float]] = {}
        for lineno, raw in enumerate(lines, start=1):
            text = raw.rstrip("\n")
            if not text.strip():
                raise TableError("blank line in FC model", lineno)
            fields = text.split("\t")
            if len(fields) != 4:
                raise TableError(
                    f"expected 4 tab-separated fields, got {len(fields)}", lineno)
            src_fc, tgt_fc = fields[0], fields[1]
            if not src_fc or not tgt_fc:
                raise TableError("empty FC tag", lineno)
            if (src_fc, tgt_fc) in probs:
                raise TableError(
                    f"duplicate pair {src_fc!r} -> {tgt_fc!r}", lineno)
            try:
                p_ts, p_st = float(fields[2]), float(fields[3])
            except ValueError:
                raise TableError("non-numeric probability", lineno) from None
            for p in (p_ts, p_st):
                if not 0.0 <= p <= 1.0:
                    raise TableError(f"probability {p!r} not in [0, 1]", lineno)
            probs[(src_fc, tgt_fc)] = (p_ts, p_st)
        return cls(probs)


def train_fc_model(src_lines: Iterable[str], tgt_lines: Iterable[str],
                   align_lines: Iterable[str], src_lex: MorphLexicon,
                   tgt_lex: MorphLexicon) -> FcModel:
    """Relative-frequency FC tag translation model from aligned sentences.

    For every source token its aligned target tokens, in position order,
    form one joint target tag event; target tokens mirror this.  Words
    missing from a lexicon tag as ``[UNK]`` and still produce events, so
    the model degrades instead of silently shrinking.  Unaligned tokens
    produce no events.  No smoothing is applied.
    """
    fwd_counts: Counter = Counter()
    fwd_totals: Counter = Counter()
    rev_counts: Counter = Counter()
    rev_totals: Counter = Counter()
    filler = object()
    rows = zip_longest(src_lines, tgt_lines, align_lines, fillvalue=filler)
    for lineno, (src_raw, tgt_raw, align_raw) in enumerate(rows, start=1):
        if filler in (src_raw, tgt_raw, align_raw):
            raise TableError("parallel files differ in sentence count", lineno)
        align_text = align_raw.strip()
        if not align_text:
            continue
        src_tokens = src_raw.split()
        tgt_tokens = tgt_raw.split()
        links = parse_links(align_text, len(src_tokens), len(tgt_tokens), lineno)
        src_tags = [src_lex.fc_tag(tok) for tok in src_tokens]
        tgt_tags = [tgt_lex.fc_tag(tok) for tok in tgt_tokens]
        by_src: dict[int, list[int]] = {}
        by_tgt: dict[int, list[int]] = {}
        for i, j in links:
            by_src.setdefault(i, []).append(j)
            by_tgt.setdefault(j, []).append(i)
        for i, targets in by_src.items():
            event = (src_tags[i], " ".join(tgt_tags[j] for j in sorted(targets)))
            fwd_counts[event] += 1
            fwd_totals[event[0]] += 1
        for j, sources in by_tgt.items():
            event = (" ".join(src_tags[i] for i in sorted(sources)), tgt_tags[j])
            rev_counts[event] += 1
            rev_totals[event[1]] += 1
    probs: dict[tuple[str, str], list[float]] = {}
    for pair, count in fwd_counts.items():
        probs.setdefault(pair, [0.0, 0.0])[0] = count / fwd_totals[pair[0]]
    for pair, count in rev_counts.items():
        probs.setdefault(pair, [0.0, 0.0])[1] = count / rev_totals[pair[1]]
    return FcModel({pair: (p[0], p[1]) for pair, p in probs.items()})
