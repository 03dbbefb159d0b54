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
pivot-target rows are stored by pivot phrase, and the kept source-pivot
rows stream past in (source, pivot) order, each looking up the rows of
its pivot.  Each source's products are summed per target as they arrive,
in ascending pivot order, and its composed rows come out in target order
when the source ends; no partial product row is made.  The store depends
on the size of the pivot-target table, and both give the same output to
the bit:

* at most one sort chunk of pivot-target rows: a dict of row lists.
* more rows: ``pivotstore.PivotStore``, one unnamed scratch file of
  pickled pivot groups indexed in memory by the hash of the pivot phrase,
  28 to 40 bytes per distinct pivot.  A lookup reads one group from the
  file with one ``os.pread``, and the file goes with the process however
  the process ends.  Where this process may run on two CPUs or more and
  the source-pivot table needs sorting, a forked worker process builds
  it, pivot-target sort included, while this one sorts that table.

Memory holds the store, one chunk of the source-pivot sort and the sums
of at most one chunk of one source's targets.  While a worker builds the
disk store, it holds one chunk of the pivot-target sort beside this
process's source-pivot chunk.  A source with more targets, at most
``top_n`` squared, puts its sums so far and its partial products from
there on in target order through the disk-backed sort, and the sums
continue there with the same additions.  A pivot's
source-pivot rows stream past its pivot-target rows, so a hub pivot
needs no more memory than another.

Everything here runs on raw rows; ``pivotsmith.tables`` runs it over
``PhraseTable`` objects.
"""

from __future__ import annotations

import heapq
from contextlib import ExitStack, closing
from itertools import chain, groupby, islice
from operator import itemgetter, lt
from typing import Callable, Generator, Iterable, Iterator, Sequence, TextIO

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
    table_order,
    weight_vector,
    write_lines,
)

_TARGET = itemgetter(1)
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


def _iter_join(sp_rows: Generator[Row, None, None],
               pt_kept: Callable[[str | None], Iterator[Row]], on_disk: bool,
               cfg: PivotConfig, reordering: bool, inputs_sorted: bool) -> Iterator[Row]:
    """Compose the rows of each pair of phrases that share a pivot phrase.

    ``sp_rows`` are the kept source-pivot rows, and ``pt_kept(tmp_base)``
    gives the kept pivot-target rows, sorted by pivot phrase, with any sort
    spilling under ``tmp_base``.  All of them are stored, in a dict or
    with ``on_disk`` in a ``pivotstore.PivotStore``, before the join reads
    a second source-pivot row, and the store is closed when the stream
    ends, fails or is closed.  ``open_store`` builds the disk store in a
    worker process while this one sorts the source-pivot rows to the
    first, or inline before the first; always inline when the rows come
    ``inputs_sorted``, which leaves no sort to overlap.  A pivot-target
    error wins over a source-pivot one, as it would inline.

    The source-pivot rows are walked once, in (source, pivot) order, each
    with the pivot-target rows of its pivot, and ``_source_sums`` sums
    each source's products per target as they arrive.  When the source
    ends, its targets come out in sorted order.  A source with more than
    ``cfg.chunk_size`` targets puts its sums so far and its partials from
    there on in target order through the disk-backed sort instead, and
    ``_iter_reduce`` continues the sums.

    With ``reordering`` the pivot-target rows carry six orientation
    probabilities, and each composed row their mixture over the shared
    pivots after its four core scores.
    """
    limit, tmp_base, min_links = cfg.chunk_size, cfg.tmpdir, cfg.min_alignment_links
    with ExitStack() as stack:
        if on_disk:
            from .pivotstore import open_store
            store, worker = open_store(pt_kept, tmp_base, stack, inputs_sorted)
            # The worker has its own copy of the pivot-target side: this
            # drops the probed rows here.
            del pt_kept
            if worker is not None:
                # Closed on the way out, the source-pivot sort removes its
                # scratch at once when the worker's error ends the join.
                stack.callback(sp_rows.close)
                try:
                    head = list(islice(sp_rows, 1))
                except Exception:
                    # The pivot-target table's error comes first, as it
                    # does when the store is built inline.
                    worker.finish(store)
                    raise
                worker.finish(store)
                sp_rows = chain(head, sp_rows)
            lookup = store.get
        else:
            lookup = {pivot: list(group) for pivot, group
                      in groupby(pt_kept(tmp_base), key=itemgetter(0))}.get
        for src, group in groupby(sp_rows, key=itemgetter(0)):
            sums, rest = _source_sums(src, group, lookup, limit, reordering)
            if rest is None:
                yield from _iter_composed(src, sorted(sums.items()), min_links,
                                          reordering)
                continue
            with closing(ext_sorted(chain(_drained_sums(src, sums, reordering), rest),
                                    _TARGET, chunk_size=limit, tmp_base=tmp_base),
                         ) as ordered:
                yield from _iter_composed(src, _iter_reduce(ordered, reordering),
                                          min_links, reordering)


def _source_sums(src: tuple, sp_rows: Iterable[Row],
                 lookup: Callable[[tuple], list[Row] | None], limit: int,
                 reordering: bool) -> tuple[dict[tuple, list], Iterator[Row] | None]:
    """Sum one source's products per target phrase, in arrival order.

    ``sp_rows`` are the kept source-pivot rows of ``src``, in pivot order.
    A target's sums are a list: its four core scores; its alignment links,
    the first partial's tuple until a second partial makes them a set;
    then with ``reordering`` its six orientation probabilities weighted by
    the source-pivot forward score.  Every sum starts at ``0.0``, so a
    ``-0`` input score composes to ``0``, and adds its products in arrival
    order, ascending pivot: the float operations ``_iter_reduce`` makes on
    the same products.

    Returns the sums and None, or, when a new target would make more than
    ``limit`` of them, the sums so far and the source's partials from that
    target on.
    """
    sums: dict[tuple, list] = {}
    get = sums.get
    for _, pivot, f, a_sp in sp_rows:
        pt_group = lookup(pivot)
        if pt_group is None:
            continue
        f0, f1, f2, f3 = f
        pt_group = iter(pt_group)
        for pt_row in pt_group:
            _, tgt, g, a_pt = pt_row
            acc = get(tgt)
            if acc is None:
                if len(sums) == limit:
                    joined = chain(((f, a_sp, chain((pt_row,), pt_group)),),
                                   ((f, a_sp, lookup(pivot))
                                    for _, pivot, f, a_sp in sp_rows))
                    return sums, _iter_partials(src, joined, reordering)
                if reordering:
                    sums[tgt] = [0.0 + f0 * g[0], 0.0 + f1 * g[1], 0.0 + f2 * g[2],
                                 0.0 + f3 * g[3], _project(a_sp, a_pt),
                                 0.0 + f0 * g[4], 0.0 + f0 * g[5], 0.0 + f0 * g[6],
                                 0.0 + f0 * g[7], 0.0 + f0 * g[8], 0.0 + f0 * g[9]]
                else:
                    sums[tgt] = [0.0 + f0 * g[0], 0.0 + f1 * g[1], 0.0 + f2 * g[2],
                                 0.0 + f3 * g[3], _project(a_sp, a_pt)]
                continue
            acc[0] += f0 * g[0]
            acc[1] += f1 * g[1]
            acc[2] += f2 * g[2]
            acc[3] += f3 * g[3]
            # _project gives each partial's links sorted and unique, so a
            # pair of one partial keeps them as they are.
            links = acc[4]
            if links.__class__ is set:
                links.update(_project(a_sp, a_pt))
            else:
                acc[4] = {*links, *_project(a_sp, a_pt)}
            if reordering:
                acc[5] += f0 * g[4]
                acc[6] += f0 * g[5]
                acc[7] += f0 * g[6]
                acc[8] += f0 * g[7]
                acc[9] += f0 * g[8]
                acc[10] += f0 * g[9]
    return sums, None


def _iter_partials(src: tuple, joined: Iterable[tuple], reordering: bool,
                   ) -> Iterator[Row]:
    """One partial product row per pivot-target row of each item of
    ``joined``: source-pivot scores, source-pivot alignment, and the
    pivot-target rows to join them with, or None for a pivot without any.

    With ``reordering`` a partial's scores also carry the source-pivot
    forward score and the pivot-target orientation probabilities that it
    weights, for ``_iter_reduce`` to multiply.
    """
    for (f0, f1, f2, f3), a_sp, pt_rows in joined:
        if pt_rows is None:
            continue
        for _, tgt, g, a_pt in pt_rows:
            scores = (f0 * g[0], f1 * g[1], f2 * g[2], f3 * g[3])
            if reordering:
                scores += (f0,) + g[4:]
            yield src, tgt, scores, _project(a_sp, a_pt)


def _drained_sums(src: tuple, sums: dict[tuple, list], reordering: bool,
                  ) -> Iterator[Row]:
    """Each target's sums as one partial, dropped from ``sums`` as it goes.

    The orientation sums go with weight ``1.0``: ``_iter_reduce`` adds
    ``1.0 * m`` to ``0.0``, which gives ``m`` back exactly.
    """
    while sums:
        tgt, acc = sums.popitem()
        links = acc[4]
        scores = tuple(acc[:4])
        if reordering:
            scores += (1.0, *acc[5:])
        yield (src, tgt, scores,
               links if links.__class__ is tuple else tuple(sorted(links)))


def _snap_score(total: float, column: str, src: Sequence[str],
                tgt: Sequence[str]) -> float:
    if total > 1.0:
        if total <= 1.0 + SCORE_OVERSHOOT_TOL:
            return 1.0
        raise TableError(
            f"composed {column} for {' '.join(src)!r} -> {' '.join(tgt)!r}"
            f" is {total!r}; input scores do not form conditional distributions")
    return total


def _iter_reduce(partials: Iterable[Row], reordering: bool,
                 ) -> Iterator[tuple[tuple, list]]:
    """Sum one source's target-sorted partials per target.

    Yields each target with its sums, laid out as ``_source_sums`` lays
    them out.  With ``reordering`` each partial also carries a weight and
    six orientation probabilities, whose weighted sums follow.  Summation
    runs in partial order, and every sum starts from ``0.0``.
    """
    for tgt, grouped in groupby(partials, key=_TARGET):
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
            if align is None:
                align = part
            else:
                if links is None:
                    links = set(align)
                links.update(part)
        sums = [s0, s1, s2, s3, align if links is None else links]
        if reordering:
            sums += (m0, m1, m2, m3, m4, m5)
        yield tgt, sums


def _iter_composed(src: tuple, sums: Iterable[tuple[tuple, list]],
                   min_links: int, reordering: bool) -> Iterator[Row]:
    """The composed rows of ``src`` from its targets' sums, in their order.

    A pair whose links number fewer than ``min_links`` is dropped.  A core
    score over ``1.0`` within the guard band snaps to ``1.0``; beyond it
    the pair raises ``TableError``.  With ``reordering`` each direction's
    three orientation sums are renormalized, or uniform when they sum to
    zero.
    """
    for tgt, acc in sums:
        if reordering:
            s0, s1, s2, s3, links, m0, m1, m2, m3, m4, m5 = acc
        else:
            s0, s1, s2, s3, links = acc
        align = links if links.__class__ is tuple else tuple(sorted(links))
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
    store, an unnamed file in the sort's scratch location.  The dict, and
    a disk store built inline, read the pivot-target input to the end
    before the first source-pivot row; a disk store's worker process reads
    the rest of it while this process sorts the source-pivot rows.  With
    ``inputs_sorted`` there is no such sort, and the store is built
    inline.

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
    of a phrase-table row: the join sums each source's products in memory
    and sorts only a source with more than a chunk of targets.  The
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

    def sort(rows: Iterable[Row], key, tmp_base: str | None) -> Iterator[Row]:
        return ext_sorted(rows, key, chunk_size=cfg.chunk_size, tmp_base=tmp_base)

    if sp_reo_rows is not None:
        # closing() removes the sort's scratch files on a signal outside it too.
        with closing(sort(sp_reo_rows, _BY_SRC_TGT, cfg.tmpdir)) as ordered:
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
    if not inputs_sorted:
        sp_rows = sort(sp_rows, _BY_SRC_TGT, cfg.tmpdir)
    sp_kept = _drop_extras(_iter_top_n(sp_rows, wv_sp, cfg.top_n, "source-pivot"),
                           sp_extras)

    def pt_kept(tmp_base: str | None) -> Iterator[Row]:
        # Draining hands each probed row to the pivot-target sort, so the
        # probe buffer does not stay alive beside the sort's own chunk.
        rows = chain(drain(probe), pt_rest)
        if not inputs_sorted:
            rows = sort(rows, _BY_SRC_TGT, tmp_base)
        kept = _drop_extras(_iter_top_n(rows, wv_pt, cfg.top_n, "pivot-target"),
                            pt_extras)
        if pt_reo_rows is None:
            return kept
        return _attach_orientations(kept, sort(pt_reo_rows, _BY_SRC_TGT, tmp_base))
    return _iter_join(sp_kept, pt_kept, on_disk, cfg, pt_reo_rows is not None,
                      inputs_sorted)


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
