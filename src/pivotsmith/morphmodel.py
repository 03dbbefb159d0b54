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
from importlib import resources
from itertools import zip_longest
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .tablecore import (
    DEFAULT_FC_FEATURES,
    NA_VALUE,
    TableError,
    parse_links,
)

FEATURES = ("pos", "gen", "num", "det")
UNKNOWN_TAG = "[UNK]"
EMPTY_TAG = "[NA]"


def _tab_fields(lines: Iterable[str], n: int, comments: bool = False,
               ) -> Iterator[tuple[int, list[str] | None]]:
    """Each line's number and its ``n`` tab-separated fields, None for a
    blank line, or with ``comments`` a ``#`` line; other counts raise."""
    for lineno, raw in enumerate(lines, start=1):
        text = raw.rstrip("\n")
        if not text.strip() or (comments and text.lstrip().startswith("#")):
            yield lineno, None
            continue
        fields = text.split("\t")
        if len(fields) != n:
            raise TableError(
                f"expected {n} tab-separated fields, got {len(fields)}", lineno)
        yield lineno, fields


def _feature_index(name: str, line: int | None = None) -> int:
    try:
        return FEATURES.index(name.lower())
    except ValueError:
        raise TableError(f"unknown feature {name!r}, expected one of"
                         f" {', '.join(FEATURES)}", line) from None


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

    @classmethod
    def _adopt(cls, words: dict[str, tuple[tuple[str, str, str, str], str, int]],
               ) -> "MorphLexicon":
        """A lexicon that keeps ``words`` itself, not a copy: for a dict
        that no one else holds."""
        lexicon = cls.__new__(cls)
        lexicon._words = words
        return lexicon

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
        for lineno, fields in _tab_fields(lines, 7):
            if fields is None:
                raise TableError("blank line in lexicon", lineno)
            word = fields[0]
            if word.split() != [word]:
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
            if not fields[6].isdecimal() or int(fields[6]) < 1:
                raise TableError(f"bad count {fields[6]!r}", lineno)
            words[word] = (values, fc, int(fields[6]))
        return cls._adopt(words)


def _argmax(counts: Mapping) -> object:
    # Highest count wins; ties take the lexicographically smallest key.
    return min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def _check_tagged_line(raw: str, lineno: int) -> None:
    """Raise on a non-blank tagged-corpus line that is not a token and four
    feature values."""
    fields = raw.rstrip("\n").split("\t")
    if len(fields) != 5:
        raise TableError(
            f"expected 5 tab-separated fields, got {len(fields)}", lineno)
    token = fields[0]
    if token.split() != [token]:
        raise TableError(f"bad token {token!r}", lineno)
    for value in fields[1:]:
        if not value or value != value.strip():
            raise TableError(f"bad feature value {value!r}", lineno)


def _fold(lines: list[tuple[tuple[str, ...], int]], fc_idx: tuple[int, ...],
          ) -> tuple[tuple[str, ...], tuple[str, ...], int]:
    """Per-feature winners, joint FC winner and total of one word's
    distinct ``(values, count)`` lines."""
    per_feature: list[dict[str, int]] = [{} for _ in FEATURES]
    combos: dict[tuple[str, ...], int] = {}
    total = 0
    for values, n in lines:
        total += n
        for counts, value in zip(per_feature, values):
            counts[value] = counts.get(value, 0) + n
        combo = tuple([values[i] for i in fc_idx])
        combos[combo] = combos.get(combo, 0) + n
    return tuple([_argmax(c) for c in per_feature]), _argmax(combos), total


def build_lexicon(corpora: Sequence[Iterable[str]],
                  fc_features: Sequence[str] = DEFAULT_FC_FEATURES,
                  na_value: str = NA_VALUE,
                  names: Sequence[str] | None = None) -> MorphLexicon:
    """Count feature values over tagged corpora and keep per-word argmaxes.

    Counts from all corpora are pooled before taking the argmax, so
    merging corpora never means merging already resolved lexicons.  The FC
    tag comes from the most frequent joint combination of ``fc_features``
    values, not from combining per-feature winners.

    A line is checked the first time its text is seen; a repeat only adds
    to that text's count.  The distinct lines are then folded per word.
    A data error names its corpus from ``names`` when they are given.
    """
    fc_idx = tuple(_feature_index(name) for name in fc_features)
    if not fc_idx:
        raise TableError("fc_features must name at least one feature")
    if len(set(fc_idx)) != len(fc_idx):
        raise TableError(f"duplicate feature in fc_features {tuple(fc_features)!r}")
    line_counts: dict[str, int] = {}
    seen = line_counts.get
    for k, corpus in enumerate(corpora):
        try:
            for lineno, raw in enumerate(corpus, start=1):
                n = seen(raw)
                if n is not None:
                    line_counts[raw] = n + 1
                elif raw.strip():
                    _check_tagged_line(raw, lineno)
                    line_counts[raw] = 1
        except TableError as exc:
            if names is None:
                raise
            raise exc.in_file(names[k]) from None
    words: dict[str, tuple[tuple[str, str, str, str], str, int]] = {}
    # The words with more than one distinct line, and those lines.
    several: dict[str, list[tuple[tuple[str, ...], int]]] = {}
    # Each distinct values tuple once, with its FC tag: words share them.
    tagged: dict[tuple[str, ...], tuple[tuple[str, ...], str]] = {}
    # Popping frees each line's text while the words fill.
    while line_counts:
        raw, n = line_counts.popitem()
        fields = raw.rstrip("\n").split("\t")
        token = fields[0]
        values = tuple(fields[1:])
        shared = tagged.get(values)
        if shared is None:
            fc = render_fc_tag([values[i] for i in fc_idx], na_value)
            shared = tagged[values] = (values, fc)
        entry = words.get(token)
        if entry is None:
            words[token] = (*shared, n)
        else:
            several.setdefault(token, [(entry[0], entry[2])]).append((shared[0], n))
    for token, lines in several.items():
        values, combo, total = _fold(lines, fc_idx)
        words[token] = (values, render_fc_tag(combo, na_value), total)
    return MorphLexicon._adopt(words)


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
    for lineno, fields in _tab_fields(lines, 3, comments=True):
        if fields is None:
            continue
        feature = fields[0].strip().lower()
        _feature_index(feature, lineno)
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
            stream.write("%s\t%s\t%.6g\t%.6g\n" % (src_fc, tgt_fc, p_ts, p_st))

    @classmethod
    def load(cls, lines: Iterable[str]) -> "FcModel":
        probs: dict[tuple[str, str], tuple[float, float]] = {}
        for lineno, fields in _tab_fields(lines, 4):
            if fields is None:
                raise TableError("blank line in FC model", lineno)
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
                   tgt_lex: MorphLexicon, align_name: str | None = None) -> FcModel:
    """Relative-frequency FC tag translation model from aligned sentences.

    For every source token its aligned target tokens, in position order,
    form one joint target tag event; target tokens mirror this.  Words
    missing from a lexicon tag as ``[UNK]`` and still produce events, so
    the model degrades instead of silently shrinking.  Unaligned tokens
    produce no events.  No smoothing is applied.  An alignment error
    names the alignment file ``align_name`` when it is given.
    """
    src_entry = src_lex._words.get
    tgt_entry = tgt_lex._words.get
    fwd_counts: dict[tuple[str, str], int] = {}
    rev_counts: dict[tuple[str, str], int] = {}
    filler = object()
    rows = zip_longest(src_lines, tgt_lines, align_lines, fillvalue=filler)
    for lineno, (src_raw, tgt_raw, align_raw) in enumerate(rows, start=1):
        if filler in (src_raw, tgt_raw, align_raw):
            raise TableError("parallel files differ in sentence count", lineno)
        align_text = align_raw.strip()
        if not align_text:
            continue
        src_tags = [UNKNOWN_TAG if (e := src_entry(tok)) is None else e[1]
                    for tok in src_raw.split()]
        tgt_tags = [UNKNOWN_TAG if (e := tgt_entry(tok)) is None else e[1]
                    for tok in tgt_raw.split()]
        try:
            links = parse_links(align_text, len(src_tags), len(tgt_tags), lineno)
        except TableError as exc:
            if align_name is None:
                raise
            raise exc.in_file(align_name) from None
        # ``links`` is sorted by (i, j), so each list below is in position order.
        by_src: dict[int, list[str]] = {}
        by_tgt: dict[int, list[str]] = {}
        for i, j in links:
            by_src.setdefault(i, []).append(tgt_tags[j])
            by_tgt.setdefault(j, []).append(src_tags[i])
        for i, targets in by_src.items():
            event = (src_tags[i], " ".join(targets))
            fwd_counts[event] = fwd_counts.get(event, 0) + 1
        for j, sources in by_tgt.items():
            event = (" ".join(sources), tgt_tags[j])
            rev_counts[event] = rev_counts.get(event, 0) + 1
    # Summed once per distinct event: cheaper than once per event above.
    fwd_totals: dict[str, int] = {}
    for (src_fc, _), count in fwd_counts.items():
        fwd_totals[src_fc] = fwd_totals.get(src_fc, 0) + count
    rev_totals: dict[str, int] = {}
    for (_, tgt_fc), count in rev_counts.items():
        rev_totals[tgt_fc] = rev_totals.get(tgt_fc, 0) + count
    probs: dict[tuple[str, str], list[float]] = {}
    for pair, count in fwd_counts.items():
        probs.setdefault(pair, [0.0, 0.0])[0] = count / fwd_totals[pair[0]]
    for pair, count in rev_counts.items():
        probs.setdefault(pair, [0.0, 0.0])[1] = count / rev_totals[pair[1]]
    return FcModel({pair: (p[0], p[1]) for pair, p in probs.items()})
