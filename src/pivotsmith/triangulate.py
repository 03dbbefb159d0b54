"""Phrase table triangulation through a pivot language.

Given a source-pivot table and a pivot-target table, every pair of entries
that shares a pivot phrase is composed into a source-target entry.  Each of
the four core scores of the composed entry is the sum over shared pivot
phrases of the products of the matching scores on both sides:

    phi_fwd(t|s) = sum_p phi_fwd_sp(p|s) * phi_fwd_pt(t|p)

and likewise for the backward and lexical columns.  The sums are left as
they are, no renormalization happens.  Word alignments are projected
through the pivot positions and unioned across pivot phrases.

Both sides are filtered to the top ``n`` entries per source phrase by
log-linear score before joining.  The join is a hash join: the kept
pivot-target rows are stored by pivot phrase, the kept source-pivot rows
stream past in (source, pivot) order, each looking up the rows of its
pivot, and each source's partial products are put in target order, so
each pair sums its products in ascending pivot order.  The store depends
on the size of the pivot-target table, and both give the same output to
the bit:

* at most one sort chunk of pivot-target rows: a dict of row lists.
* more rows: ``_PivotStore``, one unnamed scratch file of pickled pivot
  groups indexed in memory by the hash of the pivot phrase, 28 to 40
  bytes per distinct pivot.  A lookup reads one group from the file,
  and the file goes with the process however the process ends.

Memory holds the store, one chunk of the source-pivot sort and up to one
chunk of one source's partials; a source with more partials, at most
``top_n`` squared, puts them in target order through the disk-backed
sort.  A pivot's source-pivot rows stream past its pivot-target rows, so
a hub pivot needs no more memory than another.

Everything here runs on raw rows; ``pivotsmith.tables`` runs it over
``PhraseTable`` objects.
"""

from __future__ import annotations

import heapq
import tempfile
from contextlib import ExitStack, closing
from itertools import chain, groupby, islice
from operator import itemgetter, lt
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .extsort import DEFAULT_CHUNK_SIZE, drain, ext_sorted, scratch_base
from .tablecore import (
    _BY_SRC_TGT,
    CORE_FEATURES,
    DEFAULT_TOP_N,
    SCORE_OVERSHOOT_TOL,
    AlignmentLink,
    FrozenFields,
    LogLinearWeights,
    Row,
    TableError,
    check_unique,
    loglinear_score,
    table_order,
    weight_vector,
    write_lines,
)

_TARGET = itemgetter(1)
# The pivot store's index hashes pivot phrases through this one name.
_pivot_hash = hash
_THIRD = 1.0 / 3.0
_UNIFORM_TRIPLE = (_THIRD,) * 6


class PivotConfig(FrozenFields):
    """Knobs for one triangulation run.

    ``top_n`` caps entries kept per source phrase on each input table
    before joining.  ``weights_sp`` and ``weights_pt`` rank entries for
    that filter; None means uniform weights of one.  Composed pairs whose
    projected alignment has fewer than ``min_alignment_links`` points are
    dropped.
    """

    _fields = ("top_n", "weights_sp", "weights_pt", "min_alignment_links",
               "tmpdir", "chunk_size")
    top_n: int = DEFAULT_TOP_N
    weights_sp: LogLinearWeights | None = None
    weights_pt: LogLinearWeights | None = None
    min_alignment_links: int = 0
    tmpdir: str | None = None
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __init__(self, top_n: int = DEFAULT_TOP_N,
                 weights_sp: LogLinearWeights | None = None,
                 weights_pt: LogLinearWeights | None = None,
                 min_alignment_links: int = 0, tmpdir: str | None = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if top_n < 1:
            raise ValueError("top_n must be at least 1")
        if min_alignment_links < 0:
            raise ValueError("min_alignment_links must not be negative")
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self._set(top_n=top_n, weights_sp=weights_sp, weights_pt=weights_pt,
                  min_alignment_links=min_alignment_links, tmpdir=tmpdir,
                  chunk_size=chunk_size)


def project_alignment(
        a_sp: Iterable[tuple[int, int]],
        a_pt: Iterable[tuple[int, int]]) -> tuple[AlignmentLink, ...]:
    """Compose alignments through shared middle positions.

    Keeps (i, k) whenever some pivot position j links i to j on one side
    and j to k on the other.  Duplicates collapse.
    """
    return tuple(AlignmentLink(*pair) for pair in _project(tuple(a_sp), tuple(a_pt)))


def _project(a_sp: Sequence[tuple[int, int]],
             a_pt: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    if not a_sp or not a_pt:
        return ()
    # A side with one link needs no position map: keep the other side's
    # links through its pivot position, in their own order.
    if len(a_pt) == 1:
        j_pt, k = a_pt[0]
        if len(a_sp) == 1:
            i, j = a_sp[0]
            return ((i, k),) if j == j_pt else ()
        out = [(i, k) for i, j in a_sp if j == j_pt]
    elif len(a_sp) == 1:
        i, j_sp = a_sp[0]
        out = [(i, k) for j, k in a_pt if j == j_sp]
    else:
        by_pivot: dict[int, list[int]] = {}
        for j, k in a_pt:
            by_pivot.setdefault(j, []).append(k)
        links = set()
        for i, j in a_sp:
            targets = by_pivot.get(j)
            if targets:
                for k in targets:
                    links.add((i, k))
        return tuple(sorted(links))
    # Sorted, unique input links give sorted, unique output links; library
    # alignments need not be either.
    if len(out) > 1 and not all(map(lt, out, out[1:])):
        return tuple(sorted(set(out)))
    return tuple(out)


def _iter_top_n(rows: Iterable[Row], weight_vec: Sequence[float], n: int,
                side: str, key: Callable[[Row], tuple] = _BY_SRC_TGT,
                ) -> Iterator[Row]:
    """Keep the n best rows per source from a stream sorted by ``key``.

    ``key`` is a ``table_order`` key, and rows equal under it are rejected
    as duplicates.  Ranking is by descending log-linear score; ties keep
    the smaller target phrase, then the row first in ``key`` order.
    Survivors come out still sorted by ``key``.  A source's rows are held
    at most ``n + 1`` at a time: a longer group streams through a heap of
    its best ``n``.
    """
    def rank(row: Row) -> tuple:
        return -loglinear_score(row[2], weight_vec), row[1]

    unique = check_unique(rows, key, f"entry in {side} table")
    for _, group in groupby(unique, key=itemgetter(0)):
        kept = list(islice(group, n + 1))
        if len(kept) > n:
            # Ranks tie only between rows of one pair that differ in their
            # origin marks.  nsmallest is stable, so the row first in key
            # order wins, as it would in a stable sort of the whole group.
            kept = heapq.nsmallest(n, chain(kept, group), key=rank)
            kept.sort(key=key)
        yield from kept


def filter_rows(rows: Iterable[Row], extras: Sequence[str],
                weights: LogLinearWeights | None, n: int,
                tmpdir: str | None = None,
                chunk_size: int = DEFAULT_CHUNK_SIZE,
                inputs_sorted: bool = False) -> Iterator[Row]:
    """Streaming per-source top-n pruning, extras preserved.

    Rows come out in ``table_order``, and only rows equal under it are
    duplicates: a pair may repeat with different ``origin_*`` marks, as
    ``combine`` writes it.  ``inputs_sorted`` rows must already be in that
    order.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    weight_vec = weight_vector(CORE_FEATURES + tuple(extras), weights)
    key = table_order(extras)
    if not inputs_sorted:
        rows = ext_sorted(rows, key, chunk_size=chunk_size, tmp_base=tmpdir)
    return _iter_top_n(rows, weight_vec, n, "input", key)


def _drop_extras(rows: Iterable[Row], extras: Sequence[str]) -> Iterable[Row]:
    """Cut each row's scores to the four core columns.

    Rows of a table without extras pass as they are: their scores already
    are the four core columns.
    """
    if not extras:
        return rows
    return ((src, tgt, scores[:4], align) for src, tgt, scores, align in rows)


class _PivotStore:
    """Kept pivot-target rows in a scratch file, looked up by pivot phrase.

    ``pt_rows`` must be sorted by pivot phrase.  Each pivot's rows are one
    pickle in the file, in the order they arrive.  The index holds no
    Python object per pivot: two ``array('q')`` columns keep each pivot's
    hash and record start, and an open-addressing table under two thirds
    full keeps each pivot's number in its slot, 28 to 40 bytes per
    distinct pivot in all.  A lookup reads the record of every slot on
    its probe path whose hash matches and compares the record's pivot, so
    pivots whose hashes collide still find their own rows.

    The file is a ``tempfile.TemporaryFile`` under the sort's scratch
    base, written and read through one handle.  It has no name on Linux,
    so it goes with the process however the process ends; ``close``
    frees it at once.
    """

    def __init__(self, pt_rows: Iterable[Row], tmp_base: str | None) -> None:
        import pickle
        from array import array
        self._base = scratch_base(tmp_base) or tempfile.gettempdir()
        self._file = tempfile.TemporaryFile(dir=self._base)
        try:
            hashes = array("q")
            starts = array("q", [0])
            for pivot, group in groupby(pt_rows, key=itemgetter(0)):
                record = pickle.dumps(list(group), pickle.HIGHEST_PROTOCOL)
                self._file.write(record)
                starts.append(starts[-1] + len(record))
                hashes.append(_pivot_hash(pivot))
            mask = (1 << (3 * len(hashes) // 2).bit_length()) - 1
            slots = array("q", [-1]) * (mask + 1)
            for number, pivot_hash in enumerate(hashes):
                slot = pivot_hash & mask
                while slots[slot] >= 0:
                    slot = (slot + 1) & mask
                slots[slot] = number
        except BaseException:
            self._file.close()
            raise
        self._hashes, self._starts, self._slots, self._mask = hashes, starts, slots, mask
        self._loads, self._damaged = pickle.loads, (EOFError, pickle.UnpicklingError)

    def get(self, pivot: tuple) -> list[Row] | None:
        """The rows of ``pivot``, or None when it has none."""
        pivot_hash = _pivot_hash(pivot)
        hashes, slots, mask = self._hashes, self._slots, self._mask
        slot = pivot_hash & mask
        number = slots[slot]
        while number >= 0:
            if hashes[number] == pivot_hash:
                start = self._starts[number]
                self._file.seek(start)
                try:
                    group = self._loads(self._file.read(self._starts[number + 1] - start))
                except self._damaged as exc:
                    raise OSError(f"damaged pivot store in {self._base}: {exc}") from exc
                if group[0][0] == pivot:
                    return group
            slot = (slot + 1) & mask
            number = slots[slot]
        return None

    def close(self) -> None:
        self._file.close()


def _by_target_per_source(partials: Iterable[Row], chunk_size: int,
                          tmp_base: str | None) -> Iterator[Row]:
    """Stable-sort each source's run of partials by target phrase.

    Partials of one pair keep their relative order, ascending pivot when
    the source's rows arrive in (source, pivot) order.  A source's
    partials are sorted in memory up to ``chunk_size`` of them, and
    through the disk-backed sort beyond that.
    """
    for _, grouped in groupby(partials, key=itemgetter(0)):
        group = list(islice(grouped, chunk_size + 1))
        if len(group) <= chunk_size:
            group.sort(key=_TARGET)
            yield from drain(group)
        else:
            yield from ext_sorted(chain(drain(group), grouped), _TARGET,
                                  chunk_size=chunk_size, tmp_base=tmp_base)


def _attach_orientations(pt_rows: Iterable[Row], reo_rows: Iterable[Row],
                         ) -> Iterator[Row]:
    """Append six orientation probabilities to each pivot-target row.

    Both streams are sorted by (pivot, tgt).  A pair repeated in
    ``reo_rows`` raises ``TableError``; a pair without a reordering entry
    gets uniform probabilities.

    The first pivot-target row is pulled before the first reordering row:
    the pivot-target sort then reads its input, and the join's probe list
    with it, before the reordering sort fills a chunk of its own.
    """
    pt_rows = iter(pt_rows)
    head = list(islice(pt_rows, 1))
    reo = check_unique(reo_rows, _BY_SRC_TGT, "reordering entry")
    cur = next(reo, None)
    for pivot, tgt, g, a_pt in chain(drain(head), pt_rows):
        key = (pivot, tgt)
        probs = _UNIFORM_TRIPLE
        while cur is not None and _BY_SRC_TGT(cur) <= key:
            if _BY_SRC_TGT(cur) == key:
                probs = cur[2]
            cur = next(reo, None)
        yield pivot, tgt, g + probs, a_pt
    for _ in reo:  # a repeated pair past the last pivot-target row raises too
        pass


def _iter_join(sp_rows: Iterable[Row], pt_rows: Iterable[Row], on_disk: bool,
               tmp_base: str | None) -> Iterator[Row]:
    """Emit one partial product row per pair of rows sharing a pivot phrase.

    ``pt_rows`` must be sorted by pivot phrase; all of them are stored,
    in a dict or with ``on_disk`` in a ``_PivotStore``, before the first
    source-pivot row is read, and the store is closed when the stream
    ends, fails or is closed.  The source-pivot rows are walked once, in
    order, each with the pivot-target rows of its pivot in their sorted
    order.  When the pivot-target rows carry orientation probabilities,
    the partial carries them too, after the source-pivot forward score
    that weights them.  Both are shared references: ``_iter_reduce``
    multiplies them, so a partial holds four new floats, not ten.
    """
    with ExitStack() as stack:
        if on_disk:
            lookup = stack.enter_context(closing(_PivotStore(pt_rows, tmp_base))).get
        else:
            lookup = {pivot: list(group)
                      for pivot, group in groupby(pt_rows, key=itemgetter(0))}.get
        for src, pivot, (f0, f1, f2, f3), a_sp in sp_rows:
            pt_group = lookup(pivot)
            if pt_group is None:
                continue
            if len(pt_group[0][2]) > 4:
                for _, tgt, g, a_pt in pt_group:
                    yield (src, tgt,
                           (f0 * g[0], f1 * g[1], f2 * g[2], f3 * g[3], f0) + g[4:],
                           _project(a_sp, a_pt))
            else:
                for _, tgt, g, a_pt in pt_group:
                    yield (src, tgt, (f0 * g[0], f1 * g[1], f2 * g[2], f3 * g[3]),
                           _project(a_sp, a_pt))


def _snap_score(total: float, column: str, src: Sequence[str],
                tgt: Sequence[str]) -> float:
    if total > 1.0:
        if total <= 1.0 + SCORE_OVERSHOOT_TOL:
            return 1.0
        raise TableError(
            f"composed {column} for {' '.join(src)!r} -> {' '.join(tgt)!r}"
            f" is {total!r}; input scores do not form conditional distributions")
    return total


def _iter_reduce(partials: Iterable[Row], min_links: int,
                 reordering: bool = False) -> Iterator[Row]:
    """Sum partial products per (src, tgt) pair and union their alignments.

    With ``reordering`` each partial also carries a weight and six
    orientation probabilities; their weighted sums, renormalized per
    direction triple, follow the four core scores of the output row.
    Summation runs in partial order, ascending pivot, so both outputs are
    reproducible to the bit.  Every sum starts from ``0.0``, so a ``-0``
    input score composes to ``0``.
    """
    for (src, tgt), grouped in groupby(partials, key=_BY_SRC_TGT):
        s0 = s1 = s2 = s3 = m0 = m1 = m2 = m3 = m4 = m5 = 0.0
        align = links = None
        for _, _, scores, part in grouped:
            s0 += scores[0]
            s1 += scores[1]
            s2 += scores[2]
            s3 += scores[3]
            if reordering:
                weight = scores[4]
                m0 += weight * scores[5]
                m1 += weight * scores[6]
                m2 += weight * scores[7]
                m3 += weight * scores[8]
                m4 += weight * scores[9]
                m5 += weight * scores[10]
            # _project gives each partial's links sorted and unique, so a
            # pair of one partial keeps them as they are.
            if align is None:
                align = part
            else:
                if links is None:
                    links = set(align)
                links.update(part)
        if links is not None:
            align = tuple(sorted(links))
        if len(align) < min_links:
            continue
        if s0 > 1.0 or s1 > 1.0 or s2 > 1.0 or s3 > 1.0:
            s0 = _snap_score(s0, CORE_FEATURES[0], src, tgt)
            s1 = _snap_score(s1, CORE_FEATURES[1], src, tgt)
            s2 = _snap_score(s2, CORE_FEATURES[2], src, tgt)
            s3 = _snap_score(s3, CORE_FEATURES[3], src, tgt)
        if not reordering:
            yield src, tgt, (s0, s1, s2, s3), align
            continue
        total = m0 + m1 + m2
        if total > 0.0:
            m0, m1, m2 = m0 / total, m1 / total, m2 / total
        else:
            m0 = m1 = m2 = _THIRD
        total = m3 + m4 + m5
        if total > 0.0:
            m3, m4, m5 = m3 / total, m4 / total, m5 / total
        else:
            m3 = m4 = m5 = _THIRD
        yield src, tgt, (s0, s1, s2, s3, m0, m1, m2, m3, m4, m5), align


def compose_rows(sp_rows: Iterable[Row], sp_extras: Sequence[str],
                 pt_rows: Iterable[Row], pt_extras: Sequence[str],
                 cfg: PivotConfig, inputs_sorted: bool = False,
                 pt_reo_rows: Iterable[Row] | None = None,
                 sp_reo_rows: Iterable[Row] | None = None,
                 ) -> Iterator[Row]:
    """Streaming triangulation over raw rows, yielding (src, tgt) sorted rows.

    Extra feature columns on either input are dropped before composing
    because summed products are only defined for the shared core four.

    The call reads up to ``cfg.chunk_size + 1`` pivot-target rows to pick
    the store that ``_iter_join`` builds (see the module docstring): at
    most ``chunk_size`` rows are held in a dict, more go to the disk pivot
    store, an unnamed file in the sort's scratch location.  Either way the
    pivot-target input is read to the end before the first source-pivot
    row.

    ``pt_reo_rows``, reordering rows whose scores are the six orientation
    probabilities, composes a reordering table in the same pass: each
    output row then has ten scores, the four core scores and the six
    orientation probabilities of its pair, mixed over shared pivots with
    the source-pivot forward scores as weights.
    ``min_alignment_links`` drops a pair from both at once.

    ``sp_reo_rows``, source-pivot reordering rows, are only checked and
    logged as unused, all of them before the first phrase-table row.

    All inputs may come in any order: each is sorted here through the
    disk-backed sort.  ``inputs_sorted`` skips the sort of the two phrase
    tables, which must then arrive sorted by (src, tgt), and so every sort
    of a phrase-table row: the join itself sorts only one source's
    partials, through the disk-backed sort when they exceed a chunk.  The
    reordering rows are sorted whatever it says.  A pair repeated in any
    input raises ``TableError``.
    """
    # Imported here, so that filter and estimate-size do not load logging.
    import logging
    logger = logging.getLogger(__name__)
    for side, extras in (("source-pivot", sp_extras), ("pivot-target", pt_extras)):
        if extras:
            logger.warning("dropping %d extra feature column(s) from the %s table: %s",
                           len(extras), side, " ".join(extras))
    wv_sp = weight_vector(CORE_FEATURES + tuple(sp_extras), cfg.weights_sp)
    wv_pt = weight_vector(CORE_FEATURES + tuple(pt_extras), cfg.weights_pt)

    def sort(rows: Iterable[Row], key) -> Iterator[Row]:
        return ext_sorted(rows, key, chunk_size=cfg.chunk_size, tmp_base=cfg.tmpdir)

    if sp_reo_rows is not None:
        # closing() removes the sort's scratch files on a signal outside it too.
        with closing(sort(sp_reo_rows, _BY_SRC_TGT)) as ordered:
            n_entries = sum(1 for _ in check_unique(ordered, _BY_SRC_TGT,
                                                    "reordering entry"))
        logger.info("source-pivot reordering table (%d entries) is validated"
                    " but unused by the pivot mixture", n_entries)
    pt_rest = iter(pt_rows)
    probe = list(islice(pt_rest, cfg.chunk_size + 1))
    on_disk = len(probe) > cfg.chunk_size
    if on_disk:
        logger.info("pivot-target table exceeds one sort chunk (over %d rows):"
                    " disk pivot store", cfg.chunk_size)
    else:
        logger.info("pivot-target table fits one sort chunk (%d rows):"
                    " in-memory pivot store", len(probe))
    # Draining hands each probed row to the pivot-target sort, so the probe
    # buffer does not stay alive beside the sort's own chunk.
    pt_rows = chain(drain(probe), pt_rest)
    if not inputs_sorted:
        sp_rows = sort(sp_rows, _BY_SRC_TGT)
        pt_rows = sort(pt_rows, _BY_SRC_TGT)
    sp_kept = _drop_extras(_iter_top_n(sp_rows, wv_sp, cfg.top_n, "source-pivot"),
                           sp_extras)
    pt_kept = _drop_extras(_iter_top_n(pt_rows, wv_pt, cfg.top_n, "pivot-target"),
                           pt_extras)
    if pt_reo_rows is not None:
        pt_kept = _attach_orientations(pt_kept, sort(pt_reo_rows, _BY_SRC_TGT))
    partials = _by_target_per_source(
        _iter_join(sp_kept, pt_kept, on_disk, cfg.tmpdir), cfg.chunk_size, cfg.tmpdir)
    return _iter_reduce(partials, cfg.min_alignment_links,
                        reordering=pt_reo_rows is not None)


def estimate_pivot_size_rows(sp_rows: Iterable[Row],
                             pt_rows: Iterable[Row]) -> int:
    """Pair combinations the unfiltered join would enumerate.

    Holds one counter per distinct pivot phrase in memory, nothing else.
    """
    sp_counts: dict[tuple, int] = {}
    for row in sp_rows:
        key = row[1]
        sp_counts[key] = sp_counts.get(key, 0) + 1
    total = 0
    for row in pt_rows:
        total += sp_counts.get(row[0], 0)
    return total


# --- lexicalized reordering through the pivot --------------------------------

def write_reordering_rows(rows: Iterable[Row], table_out: TextIO,
                          reordering_out: TextIO) -> None:
    """Split composed rows carrying orientations into both output files.

    Each row gives ``table_out`` one line of its four core scores as
    ``%.6g`` and its ``i-j`` alignment links, ending with ``|||`` when it
    has none, and ``reordering_out`` one line of its six orientation
    probabilities as ``repr`` gives them, as it arrives.
    ``tablecore.write_lines`` builds both lines: the pair text once, and
    the probability text through a bounded memo.
    """
    write_lines(rows, table_out, reordering_out, 4)
