"""Phrase table rows and text formats.

This is the row layer every command runs on: it reads, checks, sorts and
writes tables as raw row tuples, and scores rows log-linearly.  Each
table format has one duplicate-checked sort, through the disk-backed
sort: ``sort_table_rows`` and ``sort_reordering_rows``.  The first can
also stream a table that is already in table order (``in_table_order``)
instead of sorting it again.  Both formats
have one writer, ``write_lines``, the only code that formats their lines:
``write_rows`` and the reordering writers call it.  It builds each piece
of a line's text once, and keeps bounded memos of alignment and
orientation probability text.  Each field of the text has one parser:
``parse_phrase`` for a phrase field and ``parse_links`` for an ``i-j``
alignment field, which the table and reordering readers and the FC
model's trainer share.  The readers share one object among rows with
equal phrase or alignment text, through bounded memos of their own.  The
object model (``PhraseTable``, ``PhraseEntry``, ``ScoreSet``,
``ReorderingEntry`` and every table-level adapter) lives in
``pivotsmith.tables``, which imports this module and the other row
modules, and which only library callers load.

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
six probabilities per line, two direction triples that each sum to one,
written as ``repr`` gives them so that each triple reparses exactly.
"""

from __future__ import annotations

import math
import re
from contextlib import closing
from itertools import chain, islice
from operator import itemgetter
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence,
                    TextIO)


SEPARATOR = " ||| "
CORE_FEATURES = ("phi_fwd", "lex_fwd", "phi_bwd", "lex_bwd")
DEFAULT_LOG_FLOOR = 1e-9
# Parser defaults of the commands, kept here so that building the CLI's
# parser loads no other module.
DEFAULT_MAX_PHRASE_LEN = 8
DEFAULT_TOP_N = 1000
DEFAULT_CHUNK_SIZE = 250_000
DEFAULT_UNKNOWN_PENALTY = -10.0
DEFAULT_RULE_FEATURES = ("gen", "num", "det", "pos")
DEFAULT_FC_FEATURES = ("gen", "num", "det")
NA_VALUE = "NA"
ORIGIN_PREFIX = "origin_"

# Sums of well-formed conditional probabilities may overshoot 1.0 by a few
# ulps under float addition; values inside this guard band are snapped to 1.
SCORE_OVERSHOOT_TOL = 1e-9

_HEADER_PREFIX = "#features:"
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

    def in_file(self, name: str) -> "TableError":
        """This error with the file ``name`` before its message."""
        named = TableError(f"{name}: {self}")
        named.line = self.line
        return named


class AlignmentLink(NamedTuple):
    src_pos: int
    tgt_pos: int

    def __str__(self) -> str:
        return f"{self.src_pos}-{self.tgt_pos}"


def check_phrase(tokens: Sequence[str], side: str = "phrase") -> Phrase:
    """Validate tokens for one side of an entry and return them as a tuple."""
    if not tokens:
        raise TableError(f"empty {side} phrase")
    for tok in tokens:
        if not tok or any(ch.isspace() for ch in tok):
            raise TableError(f"bad token {tok!r} in {side} phrase")
        if "|||" in tok:
            raise TableError(f"token {tok!r} in {side} phrase contains '|||'")
    return tuple(tokens)


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
    """A raw row with named fields, the argument of every feature scorer.

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


def check_unique(rows: Iterable[Row], key: Callable[[Row], tuple],
                 what: str) -> Iterator[Row]:
    """Pass rows sorted by ``key`` through, raising on a duplicate.

    ``key`` is a ``table_order`` key: two neighbouring rows are duplicates
    when their keys are equal, so only rows of the same pair are keyed.
    ``what`` names the rows in the message: ``duplicate {what} for pair``.
    """
    prev = None
    for row in rows:
        if (prev is not None and row[1] == prev[1] and row[0] == prev[0]
                and key(row) == key(prev)):
            raise TableError(f"duplicate {what} for pair"
                             f" {' '.join(row[0])!r} -> {' '.join(row[1])!r}")
        prev = row
        yield row


def _sorted_unique(rows: Iterable[Row], key: Callable[[Row], tuple],
                   what: str) -> Iterator[Row]:
    # extsort imports this module; importing it here at load time raised the
    # pivot-spill benchmark's peak RSS by 0.2 MB.
    from . import extsort

    with closing(extsort.ext_sorted(rows, key, extsort.DEFAULT_CHUNK_SIZE)) as ordered:
        yield from check_unique(ordered, key, what)


# Rows that ``in_table_order`` reads ahead to tell a table in table order
# from one to sort: a shuffled table has a row out of order among its first
# few, and goes to the sort with them, read once.
ORDER_LOOKAHEAD = 256


def _checked_order(rows: Iterable[Row], key: Callable[[Row], tuple],
                   prev: Row | None = None) -> Iterator[Row]:
    """Pass rows through while each one's ``key`` is at least the one
    before's, ``prev`` for the first; raise at the first that is less.

    ``key`` is a ``table_order`` key, built only for rows of an equal pair.
    """
    for row in rows:
        if prev is not None and (row[0] < prev[0] or row[0] == prev[0] and (
                row[1] < prev[1] or row[1] == prev[1] and key(row) < key(prev))):
            raise TableError(f"pair {' '.join(row[0])!r} -> {' '.join(row[1])!r}"
                             " is out of table order")
        prev = row
        yield row


def in_table_order(rows: Iterable[Row], key: Callable[[Row], tuple],
                   ) -> tuple[Iterator[Row], bool]:
    """``rows`` whole, and whether their first ``ORDER_LOOKAHEAD`` are in
    ``key`` order (``table_order``).

    When they are, the stream checks each later row against the one
    before it and raises a ``TableError`` at the first out of order.
    Equal neighbours pass, for ``check_unique`` to reject.
    """
    rows = iter(rows)
    head = list(islice(rows, ORDER_LOOKAHEAD))
    try:
        for _ in _checked_order(head, key):
            pass
    except TableError:
        return chain(head, rows), False
    return chain(head, _checked_order(rows, key, head[-1] if head else None)), True


def sort_table_rows(rows: Iterable[Row], extras_names: Sequence[str],
                    stream: bool = False) -> Iterator[Row]:
    """Rows in table order, duplicates rejected, through the disk-backed sort.

    The sort holds ``extsort.DEFAULT_CHUNK_SIZE`` rows in memory and spills
    under ``PIVOTSMITH_TMPDIR`` or the system default.  Its scratch files
    are removed as soon as this stream ends, fails or is closed.

    With ``stream``, rows whose first ``ORDER_LOOKAHEAD`` are in table
    order are passed through instead, without the sort, and a later row
    out of order raises a ``TableError`` (``in_table_order``).  A caller
    that can read the rows again then sorts them from the start: a
    streamed error may come before one on a later line that the sort
    would give.
    """
    key = table_order(extras_names)
    if stream:
        rows, ordered = in_table_order(rows, key)
        if ordered:
            return check_unique(rows, key, "entry")
    return _sorted_unique(rows, key, "entry")


def sort_reordering_rows(rows: Iterable[Row]) -> Iterator[Row]:
    """Reordering rows by pair, a repeated pair rejected, as ``sort_table_rows``."""
    return _sorted_unique(rows, _BY_SRC_TGT, "reordering entry")


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

def read_header(lines: Iterable[str], name: str | None = None,
                ) -> tuple[tuple[str, ...], Iterator[tuple[int, str]]]:
    """Split off the optional #features header.

    Returns the extras names and an iterator of (lineno, line) data lines.
    A bad header's error names the file ``name`` when one is given.
    """
    numbered = iter(enumerate(lines, start=1))
    first = next(numbered, None)
    if first is None:
        return (), iter(())
    lineno, line = first
    if line.startswith("#"):
        try:
            if not line.startswith(_HEADER_PREFIX):
                raise TableError("unrecognized comment, expected '#features: ...'",
                                 lineno)
            names = line[len(_HEADER_PREFIX):].split()
            if not names:
                raise TableError("empty feature header", lineno)
            _checked_manifest(names)
        except TableError as exc:
            if name is None:
                raise
            raise exc.in_file(name) from None
        return tuple(names), numbered

    return (), chain(((lineno, line),), numbered)


# Rows parsed from equal text share one object: phrase tuples by field
# text, and sorted alignment link tuples by field text and phrase lengths.
# Only text that passed its checks is stored, so a hit is returned as it
# is.  Each memo holds at most PARSE_MEMO_CAP entries and is emptied when
# full, so its memory does not follow the size of the table, and when a
# reader reaches the end of its table: the entries would then only hold
# memory, and keeping them raised the benchmark's peaks.
PARSE_MEMO_CAP = 4096
_phrase_memo: dict[str, Phrase] = {}
_alignment_memo: dict[tuple[str, int, int], tuple[tuple[int, int], ...]] = {}


def _clear_parse_memos() -> None:
    _phrase_memo.clear()
    _alignment_memo.clear()


def parse_phrase(text: str, side: str, lineno: int) -> Phrase:
    """The phrase tuple of one ``side`` phrase field, through the phrase memo.

    A well-formed field is its own tokens joined by single spaces, with no
    '|||', and may have any number of tokens.
    """
    phrase = _phrase_memo.get(text)
    if phrase is None:
        phrase = tuple(text.split())
        if not phrase or " ".join(phrase) != text or "|||" in text:
            raise TableError(f"malformed {side} phrase field {text!r}", lineno)
        if len(_phrase_memo) >= PARSE_MEMO_CAP:
            _phrase_memo.clear()
        _phrase_memo[text] = phrase
    return phrase


def parse_links(text: str, n_src: int, n_tgt: int,
                lineno: int) -> tuple[tuple[int, int], ...]:
    """The sorted ``(i, j)`` links of a non-empty ``i-j i-j ...`` field,
    each checked against an ``n_src`` by ``n_tgt`` phrase pair."""
    links = []
    outside = False
    for item in text.split(" "):
        left, sep, right = item.partition("-")
        # ``isdecimal``, not ``isdigit``: a digit like "²" is not a number
        # that ``int`` reads, and is malformed here like any other text.
        if not (sep and left.isdecimal() and right.isdecimal()):
            raise TableError(f"malformed alignment point {item!r}", lineno)
        i = int(left)
        j = int(right)
        if i >= n_src or j >= n_tgt:
            outside = True
        links.append((i, j))
    # Checked before the sort, so the first bad link in line order is named.
    if outside or (len(links) > 1 and len(set(links)) != len(links)):
        _check_alignment(links, n_src, n_tgt, lineno)
    links.sort()
    return tuple(links)


def parse_row(line: str, lineno: int, n_extras: int) -> Row:
    """Parse one data line into a raw row tuple.

    Each field is checked once, in line order (source, target, scores,
    alignment), and the first problem found is raised where it is found.
    The phrase fields go through ``parse_phrase`` and the alignment field
    through ``parse_links``.  A phrase or alignment field whose text an
    earlier line already gave returns that line's tuple, from the memos
    above: the in-memory sort and the pivot join then hold one copy of
    each repeated phrase and alignment.
    """
    text = line.rstrip("\n")
    if text.endswith(" |||"):
        text += " "
    fields = text.split(SEPARATOR)
    if len(fields) != 4:
        raise TableError(
            f"expected 4 fields separated by '|||', got {len(fields)}", lineno)
    src_text, tgt_text, score_text, align_text = fields
    src = parse_phrase(src_text, "source", lineno)
    tgt = parse_phrase(tgt_text, "target", lineno)
    values = score_text.split(" ")
    if len(values) != 4 + n_extras:
        raise TableError(
            f"expected {4 + n_extras} score columns, got {len(values)}", lineno)
    try:
        scores = tuple(map(float, values))
    except ValueError:
        raise TableError(f"non-numeric score in {score_text!r}", lineno) from None
    # Chained comparisons are false for NaN; ``< math.inf`` also rejects inf.
    if (not (0.0 <= scores[0] <= 1.0 and 0.0 <= scores[1] <= 1.0
             and 0.0 <= scores[2] <= 1.0 and 0.0 <= scores[3] <= 1.0)
            or (n_extras and not all([0.0 <= v < math.inf for v in scores[4:]]))):
        _check_scores(scores[:4], scores[4:], lineno)
    if not align_text:
        return src, tgt, scores, ()
    # The phrase lengths are part of the key, as the bounds check needs them.
    align_key = (align_text, len(src), len(tgt))
    links = _alignment_memo.get(align_key)
    if links is None:
        links = parse_links(align_text, len(src), len(tgt), lineno)
        if len(_alignment_memo) >= PARSE_MEMO_CAP:
            _alignment_memo.clear()
        _alignment_memo[align_key] = links
    return src, tgt, scores, links


def read_rows(lines: Iterable[str], name: str | None = None,
              ) -> tuple[tuple[str, ...], Iterator[Row]]:
    """Stream raw rows out of phrase table text without materializing it.

    A data error names the file ``name`` when one is given.
    """
    extras, numbered = read_header(lines, name)
    n_extras = len(extras)

    def gen() -> Iterator[Row]:
        try:
            for lineno, line in numbered:
                if not line or line.isspace():
                    raise TableError("blank line in table", lineno)
                yield parse_row(line, lineno, n_extras)
        except TableError as exc:
            if name is None:
                raise
            raise exc.in_file(name) from None
        _clear_parse_memos()

    return extras, gen()


def write_rows(rows: Iterable[Row], stream: TextIO,
               extras_names: Sequence[str] = ()) -> None:
    """Write the ``#features`` header, when there are extras, and one line
    per row through ``write_lines``: every score as ``%.6g``, then the
    ``i-j`` links, with a trailing ``|||`` when a row has none."""
    if extras_names:
        stream.write(_HEADER_PREFIX + " " + " ".join(extras_names) + "\n")
    write_lines(rows, stream, None, None)


# Each memo of ``write_lines`` holds at most this many texts and is emptied
# when full, so its memory does not follow the size of the table.
FORMAT_MEMO_CAP = 4096


def write_lines(rows: Iterable[Row], table_out: TextIO | None,
                reordering_out: TextIO | None, n_table_scores: int | None) -> None:
    """Write each row as a phrase table line, a reordering table line, or both.

    This is the one writer of both formats.  A row's ``table_out`` line is
    ``src ||| tgt ||| scores ||| i-j i-j ...``: its first ``n_table_scores``
    scores (all of them when None) as ``%.6g``, then its alignment links;
    with no links the line ends with ``|||``.  Its ``reordering_out`` line
    is ``src ||| tgt ||| probs``: the scores after those, as ``repr``, which
    keeps each orientation triple summing to one after a round trip, as 6
    significant digits would not.  A stream that is None is skipped.
    Every line is written as its row arrives, and each piece of text is
    built once.

    - ``"src ||| tgt"`` serves both lines, and the source text is reused
      while consecutive rows have an equal source.
    - Alignment text and orientation probability text (``repr``, which
      costs more than a dict lookup) come from memos capped at
      ``FORMAT_MEMO_CAP`` entries.  Only nonzero ``float`` values are
      memoised, so ``-0.0`` and ``0.0``, or ``1`` and ``1.0``, which are
      equal keys, never take each other's text.
    """
    score_formats: dict[int, str] = {}
    align_memo: dict = {}
    prob_memo: dict[float, str] = {}
    table_write = None if table_out is None else table_out.write
    reordering_write = None if reordering_out is None else reordering_out.write
    prev_src = None
    src_text = ""
    for src, tgt, scores, align in rows:
        if src != prev_src:
            src_text = " ".join(src)
            prev_src = src
        pair = src_text + SEPARATOR + " ".join(tgt)
        if table_write is not None:
            core = scores if n_table_scores is None else scores[:n_table_scores]
            score_format = score_formats.get(len(core))
            if score_format is None:
                score_format = score_formats[len(core)] = " ".join(["%.6g"] * len(core))
            # " 0-0 1-1", or "" for no links: the line then ends with "|||".
            align_text = align_memo.get(align)
            if align_text is None:
                align_text = "".join([" %d-%d" % link for link in align])
                if len(align_memo) >= FORMAT_MEMO_CAP:
                    align_memo.clear()
                align_memo[align] = align_text
            table_write(pair + SEPARATOR + score_format % core + " |||"
                        + align_text + "\n")
        if reordering_write is not None:
            texts = []
            for v in scores[n_table_scores:]:
                text = prob_memo.get(v)
                if text is None or v.__class__ is not float:
                    text = repr(v)
                    if v and v.__class__ is float:
                        if len(prob_memo) >= FORMAT_MEMO_CAP:
                            prob_memo.clear()
                        prob_memo[v] = text
                texts.append(text)
            reordering_write(pair + SEPARATOR + " ".join(texts) + "\n")


def ordered_map(fn: Callable, items: Iterable, threads: int = 1) -> Iterator:
    """``map(fn, items)``; ``threads`` must be >= 1 and is otherwise ignored,
    as the work holds the GIL.  The benchmark's tracer wraps this name."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    return map(fn, items)


# --- log-linear scoring ----------------------------------------------------

class FrozenFields:
    """What a frozen dataclass gives, for classes built without ``dataclasses``.

    A subclass names its fields in ``_fields``, keeps their defaults as
    class attributes and stores them in ``__init__`` through ``_set``.
    Instances compare, hash and print by their fields, as a frozen
    dataclass's do, and assigning or deleting an attribute raises
    ``AttributeError``.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        self.__dict__.update(values)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class LogLinearWeights(FrozenFields):
    """Per-feature weights for log-linear scoring.

    ``default`` fills in weights for features not listed in ``values``.
    Weights loaded from a config file carry no default, so scoring a table
    whose manifest names a feature missing from the file is an error.
    """

    _fields = ("values", "default")
    default: float | None = 1.0

    def __init__(self, values: Mapping[str, float] | None = None,
                 default: float | None = 1.0) -> None:
        self._set(values={} if values is None else values, default=default)

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


def loglinear_score(values: Sequence[float], weight_vec: Sequence[float]) -> float:
    """Weighted sum of log feature values, each raised to at least
    ``DEFAULT_LOG_FLOOR`` so that the logs stay finite."""
    floor = DEFAULT_LOG_FLOOR
    total = 0.0
    for weight, value in zip(weight_vec, values):
        total += weight * math.log(value if value > floor else floor)
    return total


# --- lexicalized reordering tables ------------------------------------------

REORDERING_TRIPLE_TOL = 1e-6


def _check_orientation_probs(probs: Sequence[float], line: int | None) -> None:
    for value in probs:
        if not math.isfinite(value) or value < 0.0 or value > 1.0:
            raise TableError(f"probability {value!r} not in [0, 1]", line)
    for lo in (0, 3):
        total = probs[lo] + probs[lo + 1] + probs[lo + 2]
        if abs(total - 1.0) > REORDERING_TRIPLE_TOL:
            raise TableError(
                f"orientation triple sums to {total!r}, expected 1", line)


def read_reordering_rows(lines: Iterable[str], name: str | None = None,
                         ) -> Iterator[Row]:
    """Stream reordering table text as ``(src, tgt, probs, ())`` rows in
    file order, each line checked as it is read.  The phrase fields go
    through ``parse_phrase``, as ``parse_row``'s do, and share its memo.
    A data error names the file ``name`` when one is given."""
    try:
        for lineno, raw in enumerate(lines, start=1):
            text = raw.rstrip("\n")
            if not text.strip():
                raise TableError("blank line in reordering table", lineno)
            parts = text.split(SEPARATOR)
            if len(parts) != 3:
                raise TableError(
                    f"expected 3 fields separated by '|||', got {len(parts)}", lineno)
            src = parse_phrase(parts[0], "source", lineno)
            tgt = parse_phrase(parts[1], "target", lineno)
            fields = parts[2].split(" ")
            if len(fields) != 6:
                raise TableError(f"expected 6 probabilities, got {len(fields)}", lineno)
            try:
                probs = tuple(float(f) for f in fields)
            except ValueError:
                raise TableError(f"non-numeric probability in {parts[2]!r}", lineno) from None
            # The phrase fields were checked as they were split.
            _check_orientation_probs(probs, lineno)
            yield src, tgt, probs, ()
    except TableError as exc:
        if name is None:
            raise
        raise exc.in_file(name) from None
    _clear_parse_memos()

