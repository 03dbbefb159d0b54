"""Phrase table data model and text formats.

A phrase table is a plain text file with one entry per line:

    SRC TOKENS ||| TGT TOKENS ||| phi_fwd lex_fwd phi_bwd lex_bwd [extras] ||| i-j i-j ...

The four core scores are the forward phrase probability, the forward
lexical weight, the backward phrase probability, and the backward lexical
weight, in that column order.  Extra feature columns follow the core four
and are declared by an optional single header line at the top of the file:

    #features: name1 name2 ...

The final field holds word alignment points as 0-based ``src-tgt`` pairs
and may be empty (the line then ends with ``|||``).  Fields are separated
by ``" ||| "`` and tokens may not contain whitespace or the separator.

Weights config files hold one ``name = value`` pair per line with ``#``
comments.  Lexicalized reordering tables use the same ``|||`` layout with
six probabilities per line, two direction triples that each sum to one.
"""

from __future__ import annotations

import math
import re
from contextlib import closing
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn,
                    Sequence, TextIO)


SEPARATOR = " ||| "
CORE_FEATURES = ("phi_fwd", "lex_fwd", "phi_bwd", "lex_bwd")
DEFAULT_MAX_PHRASE_LEN = 8
DEFAULT_LOG_FLOOR = 1e-9
# Parser defaults of the commands, kept here so that building the CLI's
# parser loads no other module.
DEFAULT_TOP_N = 1000
DEFAULT_RULE_FEATURES = ("gen", "num", "det", "pos")
DEFAULT_FC_FEATURES = ("gen", "num", "det")
NA_VALUE = "NA"
ORIGIN_PREFIX = "origin_"

# Sums of well-formed conditional probabilities may overshoot 1.0 by a few
# ulps under float addition; values inside this guard band are snapped to 1.
SCORE_OVERSHOOT_TOL = 1e-9

_HEADER_PREFIX = "#features:"
_PHRASE_FIELD_RE = re.compile(r"\S+( \S+)*\Z")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.+-]*\Z")

Phrase = tuple[str, ...]

Row = tuple  # (src tokens, tgt tokens, score tuple, alignment pair tuple)


class TableError(ValueError):
    """Malformed or invariant-violating table data."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class AlignmentLink(NamedTuple):
    src_pos: int
    tgt_pos: int

    def __str__(self) -> str:
        return f"{self.src_pos}-{self.tgt_pos}"


def check_phrase(tokens: Sequence[str], side: str = "phrase",
                 max_phrase_len: int | None = DEFAULT_MAX_PHRASE_LEN,
                 line: int | None = None) -> Phrase:
    """Validate tokens for one side of an entry and return them as a tuple."""
    if not tokens:
        raise TableError(f"empty {side} phrase", line)
    if max_phrase_len is not None and len(tokens) > max_phrase_len:
        raise TableError(
            f"{side} phrase has {len(tokens)} tokens, limit is {max_phrase_len}", line)
    for tok in tokens:
        if not tok or any(ch.isspace() for ch in tok):
            raise TableError(f"bad token {tok!r} in {side} phrase", line)
        if "|||" in tok:
            raise TableError(f"token {tok!r} in {side} phrase contains '|||'", line)
    return tuple(tokens)


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


def _check_scores(core: Sequence[float], extras: Sequence[float],
                  line: int | None) -> None:
    for name, value in zip(CORE_FEATURES, core):
        if not math.isfinite(value) or value < 0.0 or value > 1.0:
            raise TableError(f"score out of range: {name}={value!r} not in [0, 1]", line)
    for value in extras:
        if not math.isfinite(value) or value < 0.0:
            raise TableError(f"score out of range: extra value {value!r} is negative"
                             " or not finite", line)


def _check_alignment(links: Sequence[tuple[int, int]], src_len: int,
                     tgt_len: int, line: int | None) -> None:
    seen = set()
    for link in links:
        i, j = link
        if not (0 <= i < src_len and 0 <= j < tgt_len):
            raise TableError(
                f"alignment point {i}-{j} outside phrase bounds"
                f" {src_len}x{tgt_len}", line)
        if (i, j) in seen:
            raise TableError(f"duplicate alignment point {i}-{j}", line)
        seen.add((i, j))


class RowView(NamedTuple):
    """A raw row read by field name, as the feature scorers read a ``PhraseEntry``.

    ``scores`` is the flat tuple of core then extra values and each
    alignment link a plain ``(i, j)`` pair.
    """

    src: Phrase
    tgt: Phrase
    scores: tuple[float, ...]
    alignment: tuple[tuple[int, int], ...]


_BY_SRC_TGT = itemgetter(0, 1)


def table_order(extras_names: Sequence[str]) -> Callable[[Row], tuple]:
    """Sort key of a table's rows: source, target, then origin marks descending.

    Two rows with equal keys are duplicates: the same pair with the same
    ``origin_*`` values.  Without origin columns the key is the pair.
    """
    origin_idx = tuple(4 + i for i, name in enumerate(extras_names)
                       if name.startswith(ORIGIN_PREFIX))
    if not origin_idx:
        return _BY_SRC_TGT

    def key(row: Row) -> tuple:
        scores = row[2]
        return (row[0], row[1], tuple([-scores[i] for i in origin_idx]))
    return key


def check_unique(rows: Iterable[Row], key: Callable[[Row], tuple]) -> Iterator[Row]:
    """Pass rows sorted by ``key`` through, raising on a duplicate.

    ``key`` is a ``table_order`` key: two neighbouring rows are duplicates
    when their keys are equal, so only rows of the same pair are keyed.
    """
    prev = None
    for row in rows:
        if (prev is not None and row[1] == prev[1] and row[0] == prev[0]
                and key(row) == key(prev)):
            raise TableError("duplicate entry for pair"
                             f" {' '.join(row[0])!r} -> {' '.join(row[1])!r}")
        prev = row
        yield row


def sort_table_rows(rows: Iterable[Row],
                    extras_names: Sequence[str]) -> Iterator[Row]:
    """Rows in table order, duplicates rejected, through the disk-backed sort.

    The sort holds ``extsort.DEFAULT_CHUNK_SIZE`` rows in memory and spills
    under ``PIVOTSMITH_TMPDIR`` or the system default.  Its scratch files
    are removed as soon as this stream ends, fails or is closed.
    """
    # extsort imports this module.  Importing it from here at load time
    # would also reorder the package's imports, which raised the peak RSS
    # of the pivot-spill benchmark workload by 0.2 MB.
    from . import extsort

    key = table_order(extras_names)
    with closing(extsort.ext_sorted(rows, key, extsort.DEFAULT_CHUNK_SIZE)) as ordered:
        yield from check_unique(ordered, key)


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
              validate: bool = True) -> "PhraseTable":
        manifest = _checked_manifest(extras_names)
        items = list(entries)
        if validate:
            for entry in items:
                validate_entry(entry, max_phrase_len, extras_names)
        # Each entry rides in the alignment slot of a row of its sort fields.
        order = table_order(extras_names)
        rows = sorted(((e.src, e.tgt, e.scores.values(), e) for e in items), key=order)
        return cls(manifest=manifest,
                   entries=tuple(row[3] for row in check_unique(rows, order)))


def _checked_manifest(extras_names: Sequence[str]) -> tuple[str, ...]:
    seen = set(CORE_FEATURES)
    for name in extras_names:
        if not _NAME_RE.match(name):
            raise TableError(f"bad feature name {name!r}")
        if name in seen:
            raise TableError(f"duplicate feature name {name!r}")
        seen.add(name)
    return CORE_FEATURES + tuple(extras_names)


# --- text format -----------------------------------------------------------

def read_header(lines: Iterable[str]) -> tuple[tuple[str, ...], Iterator[tuple[int, str]]]:
    """Split off the optional #features header.

    Returns the extras names and an iterator of (lineno, line) data lines.
    """
    numbered = iter(enumerate(lines, start=1))
    first = next(numbered, None)
    if first is None:
        return (), iter(())
    lineno, line = first
    if line.startswith("#"):
        if not line.startswith(_HEADER_PREFIX):
            raise TableError("unrecognized comment, expected '#features: ...'", lineno)
        names = line[len(_HEADER_PREFIX):].split()
        if not names:
            raise TableError("empty feature header", lineno)
        _checked_manifest(names)
        return tuple(names), numbered

    def chain() -> Iterator[tuple[int, str]]:
        yield lineno, line
        yield from numbered

    return (), chain()


def parse_row(line: str, lineno: int, n_extras: int,
              max_phrase_len: int | None = DEFAULT_MAX_PHRASE_LEN) -> Row:
    """Parse one data line into a raw row tuple.

    An accepted line is split and checked in this one pass.  A line that
    fails any check is parsed again by the per-field parsers, which name
    the problem and raise it.
    """
    text = line.rstrip("\n")
    if text.endswith(" |||"):
        text += " "
    try:
        src_text, tgt_text, score_text, align_text = text.split(SEPARATOR)
        scores = tuple(map(float, score_text.split(" ")))
    except ValueError:
        _raise_row_error(text, lineno, n_extras, max_phrase_len)
    # A field is well formed when it is its own tokens joined by single
    # spaces: what _PHRASE_FIELD_RE matches, in fewer steps.
    src = tuple(src_text.split())
    tgt = tuple(tgt_text.split())
    n_src = len(src)
    n_tgt = len(tgt)
    # Chained comparisons are false for NaN; ``< math.inf`` also rejects inf.
    if (len(scores) != 4 + n_extras or not n_src or not n_tgt
            or " ".join(src) != src_text or "|||" in src_text
            or " ".join(tgt) != tgt_text or "|||" in tgt_text
            or (max_phrase_len is not None
                and (n_src > max_phrase_len or n_tgt > max_phrase_len))
            or not (0.0 <= scores[0] <= 1.0 and 0.0 <= scores[1] <= 1.0
                    and 0.0 <= scores[2] <= 1.0 and 0.0 <= scores[3] <= 1.0)
            or (n_extras and not all([0.0 <= v < math.inf for v in scores[4:]]))):
        _raise_row_error(text, lineno, n_extras, max_phrase_len)
    if not align_text:
        return src, tgt, scores, ()
    links = []
    for item in align_text.split(" "):
        left, sep, right = item.partition("-")
        if not (sep and left.isdigit() and right.isdigit()):
            _raise_row_error(text, lineno, n_extras, max_phrase_len)
        # A digit ``int`` cannot read, like "²", raises here what it raises
        # in _parse_alignment_field: every earlier check has passed.
        i = int(left)
        j = int(right)
        if i >= n_src or j >= n_tgt:
            _raise_row_error(text, lineno, n_extras, max_phrase_len)
        links.append((i, j))
    if len(links) > 1:
        links.sort()
        if len(set(links)) != len(links):
            _raise_row_error(text, lineno, n_extras, max_phrase_len)
    return src, tgt, scores, tuple(links)


def _raise_row_error(text: str, lineno: int, n_extras: int,
                     max_phrase_len: int | None) -> NoReturn:
    """Raise the error the field parsers give for a line ``parse_row`` rejected."""
    parts = text.split(SEPARATOR)
    if len(parts) != 4:
        raise TableError(
            f"expected 4 fields separated by '|||', got {len(parts)}", lineno)
    src = _parse_phrase_field(parts[0], "source", lineno, max_phrase_len)
    tgt = _parse_phrase_field(parts[1], "target", lineno, max_phrase_len)
    _parse_scores_field(parts[2], n_extras, lineno)
    _parse_alignment_field(parts[3], len(src), len(tgt), lineno)
    raise AssertionError(f"line {lineno}: parse_row rejected a line the field"
                         " parsers accept")


def _parse_phrase_field(text: str, side: str, lineno: int,
                        max_phrase_len: int | None) -> Phrase:
    if not _PHRASE_FIELD_RE.match(text) or "|||" in text:
        raise TableError(f"malformed {side} phrase field {text!r}", lineno)
    tokens = text.split(" ")
    if max_phrase_len is not None and len(tokens) > max_phrase_len:
        raise TableError(
            f"{side} phrase has {len(tokens)} tokens, limit is {max_phrase_len}", lineno)
    return tuple(tokens)


def _parse_scores_field(text: str, n_extras: int, lineno: int) -> tuple[float, ...]:
    fields = text.split(" ")
    expected = 4 + n_extras
    if len(fields) != expected:
        raise TableError(
            f"expected {expected} score columns, got {len(fields)}", lineno)
    try:
        values = tuple(float(f) for f in fields)
    except ValueError:
        raise TableError(f"non-numeric score in {text!r}", lineno) from None
    _check_scores(values[:4], values[4:], lineno)
    return values


def _parse_alignment_field(text: str, src_len: int, tgt_len: int,
                           lineno: int) -> tuple[tuple[int, int], ...]:
    if not text:
        return ()
    links = []
    for item in text.split(" "):
        left, sep, right = item.partition("-")
        if not sep or not left.isdigit() or not right.isdigit():
            raise TableError(f"malformed alignment point {item!r}", lineno)
        links.append((int(left), int(right)))
    _check_alignment(links, src_len, tgt_len, lineno)
    return tuple(sorted(links))


def read_rows(lines: Iterable[str],
              max_phrase_len: int | None = DEFAULT_MAX_PHRASE_LEN,
              ) -> tuple[tuple[str, ...], Iterator[Row]]:
    """Stream raw rows out of phrase table text without materializing it."""
    extras, numbered = read_header(lines)
    n_extras = len(extras)

    def gen() -> Iterator[Row]:
        for lineno, line in numbered:
            if not line or line.isspace():
                raise TableError("blank line in table", lineno)
            yield parse_row(line, lineno, n_extras, max_phrase_len)

    return extras, gen()


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
    entries = [row_to_entry(row, extras) for row in rows]
    return PhraseTable.build(entries, extras, max_phrase_len, validate=False)


def format_score(value: float) -> str:
    return "%.6g" % value


def format_row(row: Row) -> str:
    """One table line, without its newline; scores as ``format_score`` gives them."""
    src, tgt, scores, align = row
    if len(scores) == 4:
        line = "%s ||| %s ||| %.6g %.6g %.6g %.6g ||| " % (
            " ".join(src), " ".join(tgt), *scores)
    else:
        line = "%s ||| %s ||| %s ||| " % (
            " ".join(src), " ".join(tgt), " ".join(["%.6g" % v for v in scores]))
    if not align:
        return line[:-1]
    return line + " ".join(["%d-%d" % link for link in align])


def write_phrase_table(table: PhraseTable, stream: TextIO) -> None:
    if table.extras_names:
        stream.write(_HEADER_PREFIX + " " + " ".join(table.extras_names) + "\n")
    for entry in table.entries:
        stream.write(format_row(entry_to_row(entry)) + "\n")


def write_rows(rows: Iterable[Row], stream: TextIO,
               extras_names: Sequence[str] = ()) -> None:
    if extras_names:
        stream.write(_HEADER_PREFIX + " " + " ".join(extras_names) + "\n")
    for row in rows:
        stream.write(format_row(row) + "\n")


# --- log-linear scoring ----------------------------------------------------

@dataclass(frozen=True)
class LogLinearWeights:
    """Per-feature weights for log-linear scoring.

    ``default`` fills in weights for features not listed in ``values``.
    Weights loaded from a config file carry no default, so scoring a table
    whose manifest names a feature missing from the file is an error.
    """

    values: Mapping[str, float] = field(default_factory=dict)
    default: float | None = 1.0

    def weight(self, name: str) -> float:
        try:
            return self.values[name]
        except KeyError:
            if self.default is None:
                raise TableError(f"no weight configured for feature {name!r}") from None
            return self.default

    @classmethod
    def from_config(cls, lines: Iterable[str]) -> "LogLinearWeights":
        values: dict[str, float] = {}
        for lineno, raw in enumerate(lines, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            name, sep, value_text = text.partition("=")
            name = name.strip()
            value_text = value_text.strip()
            if not sep or not name or not value_text:
                raise TableError(f"expected 'name = value', got {raw.strip()!r}", lineno)
            if not _NAME_RE.match(name) and name not in CORE_FEATURES:
                raise TableError(f"bad feature name {name!r}", lineno)
            if name in values:
                raise TableError(f"duplicate weight for {name!r}", lineno)
            try:
                value = float(value_text)
            except ValueError:
                raise TableError(f"non-numeric weight {value_text!r}", lineno) from None
            if not math.isfinite(value):
                raise TableError(f"weight for {name!r} is not finite", lineno)
            values[name] = value
        return cls(values=values, default=None)


def weight_vector(manifest: Sequence[str],
                  weights: LogLinearWeights | None) -> tuple[float, ...]:
    """Resolve one weight per manifest column, raising on gaps."""
    if weights is None:
        return (1.0,) * len(manifest)
    return tuple(weights.weight(name) for name in manifest)


def loglinear_score(values: Sequence[float], weight_vec: Sequence[float],
                    floor: float = DEFAULT_LOG_FLOOR) -> float:
    if floor <= 0.0:
        raise ValueError("log floor must be positive")
    total = 0.0
    for weight, value in zip(weight_vec, values):
        total += weight * math.log(value if value > floor else floor)
    return total


def score_entry(entry: PhraseEntry, manifest: Sequence[str],
                weights: LogLinearWeights | None = None,
                floor: float = DEFAULT_LOG_FLOOR) -> float:
    """Weighted sum of log feature values with a floor to keep logs finite."""
    return loglinear_score(entry.scores.values(), weight_vector(manifest, weights), floor)


# --- lexicalized reordering tables ------------------------------------------

REORDERING_TRIPLE_TOL = 1e-6


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


def _check_orientation_probs(probs: Sequence[float], line: int | None) -> None:
    for value in probs:
        if not math.isfinite(value) or value < 0.0 or value > 1.0:
            raise TableError(f"probability {value!r} not in [0, 1]", line)
    for lo in (0, 3):
        total = probs[lo] + probs[lo + 1] + probs[lo + 2]
        if abs(total - 1.0) > REORDERING_TRIPLE_TOL:
            raise TableError(
                f"orientation triple sums to {total!r}, expected 1", line)


def parse_reordering_table(lines: Iterable[str],
                           max_phrase_len: int | None = DEFAULT_MAX_PHRASE_LEN,
                           ) -> tuple[ReorderingEntry, ...]:
    entries = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.rstrip("\n")
        if not text.strip():
            raise TableError("blank line in reordering table", lineno)
        parts = text.split(SEPARATOR)
        if len(parts) != 3:
            raise TableError(
                f"expected 3 fields separated by '|||', got {len(parts)}", lineno)
        src = _parse_phrase_field(parts[0], "source", lineno, max_phrase_len)
        tgt = _parse_phrase_field(parts[1], "target", lineno, max_phrase_len)
        fields = parts[2].split(" ")
        if len(fields) != 6:
            raise TableError(f"expected 6 probabilities, got {len(fields)}", lineno)
        try:
            probs = tuple(float(f) for f in fields)
        except ValueError:
            raise TableError(f"non-numeric probability in {parts[2]!r}", lineno) from None
        # The phrase fields were checked as they were split.
        _check_orientation_probs(probs, lineno)
        entries.append(ReorderingEntry(src=src, tgt=tgt, probs=probs))
    entries.sort(key=lambda e: (e.src, e.tgt))
    for prev, cur in zip(entries, entries[1:]):
        if prev.src == cur.src and prev.tgt == cur.tgt:
            raise TableError(
                "duplicate reordering entry for pair"
                f" {' '.join(prev.src)!r} -> {' '.join(prev.tgt)!r}")
    return tuple(entries)


def format_reordering_row(src: Phrase, tgt: Phrase, probs: Sequence[float]) -> str:
    # repr keeps the triples summing to one after a round trip, which 6
    # significant digits would not.
    return SEPARATOR.join([" ".join(src), " ".join(tgt), " ".join(map(repr, probs))])


def write_reordering_table(entries: Iterable[ReorderingEntry],
                           stream: TextIO) -> None:
    for entry in sorted(entries, key=lambda e: (e.src, e.tgt)):
        stream.write(format_reordering_row(entry.src, entry.tgt, entry.probs) + "\n")
