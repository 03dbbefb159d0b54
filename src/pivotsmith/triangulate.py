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
log-linear score before joining.  The join takes one of two paths, chosen
by the size of the pivot-target table:

* at most one sort chunk of pivot-target rows: a hash join.  The kept
  pivot-target rows are held in a dict by pivot phrase, the source-pivot
  table streams past it in (source, pivot) order, and each source's
  partial products are put in target order in memory.  Memory holds the
  pivot-target table, one chunk of the source-pivot sort and one source's
  partials, up to ``top_n`` squared of them.
* more rows: a sort-merge join.  Both sides stream sorted by pivot phrase
  and the partial products are sorted back into (source, target) order,
  all through the disk-backed sort.  Memory holds a sort chunk plus the
  pivot-target rows of one pivot, at most ``top_n`` of them; a pivot's
  source-pivot rows stream past them.

Both paths sum each pair's products in ascending pivot order, so they give
the same output to the bit.

Everything here runs on raw rows; ``pivotsmith.tables`` runs it over
``PhraseTable`` objects.
"""

from __future__ import annotations

import heapq
from itertools import chain, groupby, islice
from operator import itemgetter, lt
from typing import Iterable, Iterator, Sequence, TextIO

from .extsort import DEFAULT_CHUNK_SIZE, drain, ext_sorted
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
    weight_vector,
    write_lines,
)

_BY_PIVOT_SRC = itemgetter(1, 0)
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
                side: str) -> Iterator[Row]:
    """Keep the n best rows per source from a (src, tgt) sorted stream.

    Ranking is by descending log-linear score; ties keep the smaller
    target phrase.  Survivors come out still sorted by (src, tgt).  A
    source's rows are held at most ``n + 1`` at a time: a longer group
    streams through a heap of its best ``n``.
    """
    def rank(row: Row) -> tuple:
        return -loglinear_score(row[2], weight_vec), row[1]

    unique = check_unique(rows, _BY_SRC_TGT, f"entry in {side} table")
    for _, group in groupby(unique, key=itemgetter(0)):
        kept = list(islice(group, n + 1))
        if len(kept) > n:
            # Targets are unique in a group, so ranks never tie and this
            # keeps what sorting the whole group and cutting it would.
            kept = heapq.nsmallest(n, chain(kept, group), key=rank)
            kept.sort(key=itemgetter(1))
        yield from kept


def filter_rows(rows: Iterable[Row], extras: Sequence[str],
                weights: LogLinearWeights | None, n: int,
                tmpdir: str | None = None,
                chunk_size: int = DEFAULT_CHUNK_SIZE,
                inputs_sorted: bool = False) -> Iterator[Row]:
    """Streaming per-source top-n pruning, extras preserved."""
    if n < 1:
        raise ValueError("n must be at least 1")
    weight_vec = weight_vector(CORE_FEATURES + tuple(extras), weights)
    if not inputs_sorted:
        rows = ext_sorted(rows, _BY_SRC_TGT, chunk_size=chunk_size, tmp_base=tmpdir)
    return _iter_top_n(rows, weight_vec, n, "input")


def _drop_extras(rows: Iterable[Row], extras: Sequence[str]) -> Iterable[Row]:
    """Cut each row's scores to the four core columns.

    Rows of a table without extras pass as they are: their scores already
    are the four core columns.
    """
    if not extras:
        return rows
    return ((src, tgt, scores[:4], align) for src, tgt, scores, align in rows)


def _paired_pivot_groups(sp_rows: Iterable[Row], pt_rows: Iterable[Row],
                         ) -> Iterator[tuple[Iterator[Row], list[Row]]]:
    """Walk two pivot-sorted streams and yield groups sharing a pivot phrase.

    ``sp_rows`` must be sorted by (tgt, src) and ``pt_rows`` by (src, tgt);
    the shared key is the pivot phrase, sp target and pt source.  The
    pivot-target stream is pulled first, so that its sort has consumed its
    input before the source-pivot sort starts on its own.

    The source-pivot group is ``groupby``'s lazy group, valid until the next
    pair is pulled, so a hub pivot's source-pivot rows are never held at
    once.  The pivot-target group is a list, already cut to ``top_n`` rows.
    """
    sp_groups = groupby(sp_rows, key=itemgetter(1))
    pt_groups = groupby(pt_rows, key=itemgetter(0))
    pt_item = next(pt_groups, None)
    sp_item = next(sp_groups, None)
    while sp_item is not None and pt_item is not None:
        sp_key, sp_group = sp_item
        pt_key, pt_group = pt_item
        if sp_key < pt_key:
            sp_item = next(sp_groups, None)
        elif pt_key < sp_key:
            pt_item = next(pt_groups, None)
        else:
            yield sp_group, list(pt_group)
            sp_item = next(sp_groups, None)
            pt_item = next(pt_groups, None)
    # The pivot-target rows after the last shared pivot are read too, so
    # that a duplicate among them raises as it does on the hash join.
    for _ in pt_groups:
        pass


def _hashed_pivot_groups(sp_rows: Iterable[Row], pt_rows: Iterable[Row],
                         ) -> Iterator[tuple[tuple[Row], list[Row]]]:
    """Pair each source-pivot row with the pivot-target rows of its pivot.

    ``pt_rows`` must be sorted by pivot phrase; all of them are read into
    a dict before the first source-pivot row is read.  Source-pivot rows
    come out in their input order, each as a group of one.
    """
    by_pivot = {pivot: list(group)
                for pivot, group in groupby(pt_rows, key=itemgetter(0))}
    for row in sp_rows:
        pt_group = by_pivot.get(row[1])
        if pt_group is not None:
            yield (row,), pt_group


def _by_target_per_source(partials: Iterable[Row]) -> Iterator[Row]:
    """Stable-sort each source's run of partials by target phrase.

    Partials of one pair keep their relative order, ascending pivot when
    the source's rows arrive in (source, pivot) order.
    """
    for _, grouped in groupby(partials, key=itemgetter(0)):
        group = list(grouped)
        group.sort(key=itemgetter(1))
        yield from group


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


def _iter_join(groups: Iterable[tuple[Iterable[Row], Sequence[Row]]],
               ) -> Iterator[Row]:
    """Emit one partial product row per entry pair of each pivot group.

    ``groups`` yields (source-pivot rows, pivot-target rows) sharing one
    pivot phrase.  The source-pivot rows are walked once, in order; the
    pivot-target rows once per source-pivot row.  When the pivot-target
    rows carry orientation probabilities, the partial carries them too,
    after the source-pivot forward score that weights them.  Both are
    shared references: ``_iter_reduce`` multiplies them, so a partial holds
    four new floats, not ten.
    """
    for sp_group, pt_group in groups:
        oriented = len(pt_group[0][2]) > 4
        for src, _, (f0, f1, f2, f3), a_sp in sp_group:
            if oriented:
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
                 ) -> Iterator[Row]:
    """Streaming triangulation over raw rows, yielding (src, tgt) sorted rows.

    Extra feature columns on either input are dropped before composing
    because summed products are only defined for the shared core four.

    The call reads up to ``cfg.chunk_size + 1`` pivot-target rows to pick
    the join (see the module docstring): at most ``chunk_size`` rows take
    the hash join, more take the sort-merge join.  Either way the
    pivot-target input is read to the end before the first source-pivot
    row, unless ``inputs_sorted`` lets the sort-merge join stream both.

    ``pt_reo_rows``, reordering rows whose scores are the six orientation
    probabilities, composes a reordering table in the same pass: each output row then has ten scores, the four core
    scores and the six orientation probabilities of its pair, mixed over
    shared pivots with the source-pivot forward scores as weights.
    ``min_alignment_links`` drops a pair from both at once.

    All three inputs may come in any order: each is sorted here through
    the disk-backed sort.  ``inputs_sorted`` skips the sort of the two
    phrase tables, which must then arrive sorted by (src, tgt); the
    reordering rows are sorted whatever it says.  A pair repeated in any
    of the three raises ``TableError``.
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

    pt_rest = iter(pt_rows)
    probe = list(islice(pt_rest, cfg.chunk_size + 1))
    hash_join = len(probe) <= cfg.chunk_size
    if hash_join:
        logger.info("pivot-target table fits one sort chunk (%d rows): hash join",
                    len(probe))
    else:
        logger.info("pivot-target table exceeds one sort chunk (over %d rows):"
                    " sort-merge join", cfg.chunk_size)
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
    if hash_join:
        groups = _hashed_pivot_groups(sp_kept, pt_kept)
        partials = _by_target_per_source(_iter_join(groups))
    else:
        groups = _paired_pivot_groups(sort(sp_kept, _BY_PIVOT_SRC), pt_kept)
        partials = sort(_iter_join(groups), _BY_SRC_TGT)
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
