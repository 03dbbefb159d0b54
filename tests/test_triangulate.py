"""Pivot composition against the quadratic reference implementation."""

from __future__ import annotations

import errno
import io
import logging
import math
import os
import random
import re
import signal
import threading

import pytest

from conftest import (
    STORE_WORKER,
    assert_flat_peaks,
    entry,
    oracle_compose,
    oracle_project,
    oracle_reordering,
    random_pivot_pair,
    run_measured,
    run_pivot_measured,
    table,
)
from pivotsmith import extsort, pivotstore, triangulate
from pivotsmith.cli import main
from pivotsmith.extsort import ext_sorted
from pivotsmith.tablecore import (
    _BY_SRC_TGT,
    CORE_FEATURES,
    SCORE_OVERSHOOT_TOL,
    AlignmentLink,
    LogLinearWeights,
    TableError,
    loglinear_score,
    read_rows,
    weight_vector,
    write_rows,
)
from pivotsmith.tables import (
    PhraseEntry,
    PhraseTable,
    ReorderingEntry,
    ScoreSet,
    combine_tables,
    entry_to_row,
    estimate_pivot_size,
    filter_top_n,
    parse_phrase_table,
    pivot_compose,
    pivot_reordering,
    reorder_rows,
    write_phrase_table,
    write_reordering_table,
)
from pivotsmith.triangulate import (
    PivotConfig,
    _snap_score,
    compose_rows,
    filter_rows,
    project_alignment,
)


class ReadLog:
    """What logged inputs did, in order, each with the process that did it.

    The log is a file, so that a forked store worker's pulls count too.
    """

    def __init__(self, path):
        self.path = path

    def note(self, what: str) -> None:
        with open(self.path, "a", encoding="utf-8") as log:
            log.write(f"{os.getpid()} {what}\n")

    def logged(self, side: str, rows):
        """``rows``, noting ``side`` as each one is pulled."""
        for row in rows:
            self.note(side)
            yield row

    def split(self) -> tuple[list[str], list[str]]:
        """The notes of this process, and those of any other."""
        if not os.path.exists(self.path):
            return [], []
        with open(self.path, encoding="utf-8") as log:
            entries = [line.split() for line in log]
        me = str(os.getpid())
        return ([what for pid, what in entries if pid == me],
                [what for pid, what in entries if pid != me])


def as_dict(tbl: PhraseTable):
    return {(e.src, e.tgt): (e.scores.core(),
                             frozenset((l.src_pos, l.tgt_pos)
                                       for l in e.alignment))
            for e in tbl}


def assert_matches_oracle(tbl: PhraseTable, oracle, tol=1e-12):
    got = as_dict(tbl)
    assert got.keys() == oracle.keys()
    for key, (scores, links) in oracle.items():
        got_scores, got_links = got[key]
        assert got_links == links
        for a, b in zip(got_scores, scores):
            assert abs(a - b) <= tol


class TestCompose:
    def test_matches_oracle_on_random_tables(self):
        rng = random.Random(101)
        for _ in range(50):
            sp, pt = random_pivot_pair(rng)
            composed = pivot_compose(sp, pt)
            assert_matches_oracle(composed, oracle_compose(sp, pt))

    def test_two_pivot_worked_example(self):
        sp = table([
            entry("a", "x", scores=(0.5, 0.5, 0.5, 0.5)),
            entry("a", "y", scores=(0.25, 0.25, 0.25, 0.25)),
        ])
        pt = table([
            entry("x", "u", scores=(0.4, 0.4, 0.4, 0.4)),
            entry("y", "u", scores=(0.2, 0.2, 0.2, 0.2)),
        ])
        composed = pivot_compose(sp, pt)
        assert len(composed) == 1
        assert composed.entries[0].scores.core() == (0.25,) * 4

    def test_four_columns_compose_independently(self):
        sp = table([entry("a", "x", scores=(0.1, 0.2, 0.3, 0.4))])
        pt = table([entry("x", "u", scores=(0.5, 0.6, 0.7, 0.8))])
        composed = pivot_compose(sp, pt)
        got = composed.entries[0].scores.core()
        assert got == pytest.approx((0.05, 0.12, 0.21, 0.32))

    def test_no_shared_pivot_yields_empty_table(self):
        sp = table([entry("a", "x")])
        pt = table([entry("y", "u")])
        assert len(pivot_compose(sp, pt)) == 0

    def test_alignment_union_across_pivots(self):
        sp = table([
            entry("a b", "x", scores=(0.5, 0.5, 0.5, 0.5), align=[(0, 0)]),
            entry("a b", "y", scores=(0.5, 0.5, 0.5, 0.5), align=[(1, 0)]),
        ])
        pt = table([
            entry("x", "u v", scores=(1.0, 1.0, 1.0, 1.0), align=[(0, 0)]),
            entry("y", "u v", scores=(1.0, 1.0, 1.0, 1.0), align=[(0, 1)]),
        ])
        composed = pivot_compose(sp, pt)
        links = {(l.src_pos, l.tgt_pos) for l in composed.entries[0].alignment}
        assert links == {(0, 0), (1, 1)}

    def test_min_alignment_links_drops_pairs(self):
        sp = table([entry("a", "x", align=[(0, 0)]), entry("b", "x")])
        pt = table([entry("x", "u", align=[(0, 0)])])
        cfg = PivotConfig(min_alignment_links=1)
        composed = pivot_compose(sp, pt, cfg)
        assert [(e.src, e.tgt) for e in composed] == [(("a",), ("u",))]

    def test_extras_dropped_with_warning(self, caplog):
        sp = table([entry("a", "x", extras=(("f", 0.5),))], ("f",))
        pt = table([entry("x", "u")])
        with caplog.at_level(logging.WARNING, logger="pivotsmith.triangulate"):
            composed = pivot_compose(sp, pt)
        assert composed.manifest == ("phi_fwd", "lex_fwd", "phi_bwd", "lex_bwd")
        assert any("dropping 1 extra feature column" in m for m in caplog.messages)

    def test_mirrored_inputs_give_mirrored_output(self):
        rng = random.Random(55)
        sp, pt = random_pivot_pair(rng)
        composed = pivot_compose(sp, pt)
        mirrored = pivot_compose(mirror(pt), mirror(sp))
        assert as_dict(mirrored) == as_dict(mirror(composed))

    def test_unnormalized_inputs_error_when_sums_leave_unit_range(self):
        sp = table([entry("a", "x"), entry("a", "y")])
        pt = table([entry("x", "u"), entry("y", "u")])
        with pytest.raises(TableError, match="conditional distributions"):
            pivot_compose(sp, pt)

    def test_snap_score_guard_band(self):
        assert _snap_score(1.0 + 5e-10, "phi_fwd", ("a",), ("u",)) == 1.0
        assert _snap_score(0.7, "phi_fwd", ("a",), ("u",)) == 0.7
        with pytest.raises(TableError):
            _snap_score(1.1, "phi_fwd", ("a",), ("u",))


def mirror(tbl: PhraseTable) -> PhraseTable:
    flipped = []
    for e in tbl:
        flipped.append(PhraseEntry(
            src=e.tgt, tgt=e.src,
            scores=ScoreSet(e.scores.phi_bwd, e.scores.lex_bwd,
                            e.scores.phi_fwd, e.scores.lex_fwd),
            alignment=tuple(sorted(AlignmentLink(l.tgt_pos, l.src_pos)
                                   for l in e.alignment))))
    return PhraseTable.build(flipped)


class TestProjection:
    def test_chain_through_shared_positions(self):
        got = project_alignment([(0, 0), (1, 0)], [(0, 0), (0, 1)])
        assert [(l.src_pos, l.tgt_pos) for l in got] == [
            (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_no_shared_position_gives_nothing(self):
        assert project_alignment([(0, 0)], [(1, 0)]) == ()

    def test_empty_side_gives_nothing(self):
        assert project_alignment([], [(0, 0)]) == ()
        assert project_alignment([(0, 0)], []) == ()

    def test_duplicates_collapse(self):
        got = project_alignment([(0, 0), (0, 1)], [(0, 5), (1, 5)])
        assert [(l.src_pos, l.tgt_pos) for l in got] == [(0, 5)]

    def test_matches_set_projection_on_random_alignments(self):
        # Mostly one link on a side, the case projected without a position
        # map; library alignments may be unsorted or hold duplicates.
        rng = random.Random(71)

        def links():
            out = [(rng.randrange(3), rng.randrange(3))
                   for _ in range(rng.choice((0, 1, 1, 1, 2, 3, 4)))]
            shape = rng.random()
            if shape < 0.4:
                out = sorted(set(out))
            elif shape < 0.6 and out:
                out.append(rng.choice(out))
            return tuple(out)

        for _ in range(5000):
            a_sp, a_pt = links(), links()
            want = oracle_project(a_sp, a_pt)
            assert triangulate._project(a_sp, a_pt) == want, (a_sp, a_pt)
            assert project_alignment(a_sp, a_pt) == want


class TestFilter:
    def make_table(self):
        entries = [
            entry("a", "t1", scores=(0.5, 0.5, 0.5, 0.5)),
            entry("a", "t2", scores=(0.25, 0.25, 0.25, 0.25)),
            entry("a", "t3", scores=(0.125, 0.125, 0.125, 0.125)),
            entry("b", "t1", scores=(0.9, 0.9, 0.9, 0.9)),
        ]
        return table(entries)

    def test_keeps_highest_scoring_per_source(self):
        kept = filter_top_n(self.make_table(), None, 1)
        assert [(e.src, e.tgt) for e in kept] == [
            (("a",), ("t1",)), (("b",), ("t1",))]

    def test_supersets_as_n_grows(self):
        tbl = self.make_table()
        previous = set()
        for n in (1, 2, 3, 10):
            current = {(e.src, e.tgt) for e in filter_top_n(tbl, None, n)}
            assert previous <= current
            previous = current

    def test_ties_keep_smaller_target(self):
        tied = table([
            entry("a", "zz", scores=(0.5, 0.5, 0.5, 0.5)),
            entry("a", "mm", scores=(0.5, 0.5, 0.5, 0.5)),
        ])
        kept = filter_top_n(tied, None, 1)
        assert kept.entries[0].tgt == ("mm",)

    def test_weights_change_the_ranking(self):
        tbl = table([
            entry("a", "t1", scores=(0.9, 0.1, 0.5, 0.5)),
            entry("a", "t2", scores=(0.1, 0.9, 0.5, 0.5)),
        ])
        w_phi = LogLinearWeights({"phi_fwd": 10.0})
        w_lex = LogLinearWeights({"lex_fwd": 10.0})
        assert filter_top_n(tbl, w_phi, 1).entries[0].tgt == ("t1",)
        assert filter_top_n(tbl, w_lex, 1).entries[0].tgt == ("t2",)

    def test_extras_preserved_and_scored(self):
        tbl = table([
            entry("a", "t1", extras=(("f", 0.9),)),
            entry("a", "t2", extras=(("f", 0.1),)),
        ], ("f",))
        kept = filter_top_n(tbl, None, 1)
        assert kept.manifest[-1] == "f"
        assert kept.entries[0].tgt == ("t1",)

    @pytest.mark.parametrize("n", [1, 3, 10])
    @pytest.mark.parametrize("at", [0, 2, 6])
    def test_duplicate_target_raises_wherever_it_falls(self, n, at):
        rows = [(("a",), (f"x{k}",), (0.5,) * 4, ()) for k in range(8)]
        rows.insert(at + 1, rows[at])
        with pytest.raises(TableError, match=f"duplicate entry in input table"
                                             f" for pair 'a' -> 'x{at}'"):
            list(filter_rows(rows, (), None, n, inputs_sorted=True))

    def test_matches_sorting_each_group_and_cutting_it(self):
        rng = random.Random(41)
        rows = []
        for s in range(60):
            targets = sorted(f"t{k}" for k in rng.sample(range(100), rng.randint(1, 30)))
            rows += [((f"s{s:02d}",), (t,), tuple(rng.choice((0.125, 0.25, 0.5))
                                                   for _ in range(4)), ())
                     for t in targets]
        weights = LogLinearWeights({"phi_fwd": 2.0, "lex_bwd": 0.5})
        wv = weight_vector(CORE_FEATURES, weights)
        for n in (1, 2, 5, 29, 30):
            expected = []
            for s in range(60):
                group = [r for r in rows if r[0] == (f"s{s:02d}",)]
                group.sort(key=lambda r: (-loglinear_score(r[2], wv), r[1]))
                expected += sorted(group[:n], key=lambda r: r[1])
            assert list(filter_rows(rows, (), weights, n, inputs_sorted=True)) == expected

    def combined(self):
        """``a -> x`` from two tables, ranked above their other rows."""
        one = table([entry("a", "x", scores=(0.5, 0.5, 0.5, 0.5)),
                     entry("a", "y", scores=(0.25, 0.25, 0.25, 0.25))])
        two = table([entry("a", "x", scores=(0.9, 0.9, 0.9, 0.9)),
                     entry("b", "z", scores=(0.5, 0.5, 0.5, 0.5))])
        return combine_tables([(one, "one"), (two, "two")])

    def test_rows_differing_only_in_origin_are_kept_in_table_order(self):
        both = self.combined()
        x_one, x_two, y_one, z_two = both.entries
        assert (x_one.tgt, x_two.tgt) == (("x",), ("x",))
        # x_two ranks first, yet the output stays in table order.
        assert filter_top_n(both, None, 2).entries == (x_one, x_two, z_two)
        assert filter_top_n(both, None, 3).entries == both.entries
        rows = list(map(entry_to_row, both))
        random.Random(3).shuffle(rows)
        assert list(filter_rows(rows, both.extras_names, None, 2, chunk_size=1)) == [
            entry_to_row(e) for e in (x_one, x_two, z_two)]

    def test_top_1_keeps_one_row_per_source_of_a_combined_table(self):
        both = self.combined()
        _, x_two, _, z_two = both.entries
        assert filter_top_n(both, None, 1).entries == (x_two, z_two)

    def test_equal_ranks_of_one_pair_keep_the_row_first_in_table_order(self):
        same = table([entry("a", "x"), entry("a", "y")])
        both = combine_tables([(same, "one"), (same, "two")])
        kept = filter_top_n(both, None, 1).entries
        assert [(e.tgt, e.scores.extra("origin_one")) for e in kept] == [(("x",), 1.0)]

    @pytest.mark.parametrize("n", [1, 2])
    def test_row_repeated_with_equal_origin_marks_raises(self, n):
        row = (("a",), ("x",), (0.5, 0.5, 0.5, 0.5, 1.0, 0.0), ())
        other = (("a",), ("x",), (0.5, 0.5, 0.5, 0.5, 0.0, 1.0), ())
        with pytest.raises(TableError, match="duplicate entry in input table"
                                             " for pair 'a' -> 'x'"):
            list(filter_rows([row, other, row], ("origin_one", "origin_two"), None, n))

    def test_filtering_applies_before_composition(self):
        sp = table([
            entry("a", "x", scores=(0.9, 0.9, 0.9, 0.9)),
            entry("a", "y", scores=(0.1, 0.1, 0.1, 0.1)),
        ])
        pt = table([
            entry("x", "u", scores=(0.5, 0.5, 0.5, 0.5)),
            entry("y", "v", scores=(0.5, 0.5, 0.5, 0.5)),
        ])
        composed = pivot_compose(sp, pt, PivotConfig(top_n=1))
        assert [(e.src, e.tgt) for e in composed] == [(("a",), ("u",))]


class TestStreaming:
    def test_file_path_is_byte_identical_to_memory_path(self, tmp_path):
        # Both paths must see identical inputs, so serialize once and feed
        # the same text to the in-memory API and to the row pipeline.
        rng = random.Random(77)
        sp, pt = random_pivot_pair(rng, n_src=20, n_pivot=12, n_tgt=20)
        sp_text = io.StringIO()
        pt_text = io.StringIO()
        write_phrase_table(sp, sp_text)
        write_phrase_table(pt, pt_text)

        composed = pivot_compose(parse_phrase_table(sp_text.getvalue().splitlines()),
                                 parse_phrase_table(pt_text.getvalue().splitlines()))
        expected = io.StringIO()
        write_phrase_table(composed, expected)

        cfg = PivotConfig(chunk_size=7, tmpdir=str(tmp_path))
        sp_extras, sp_rows = read_rows(sp_text.getvalue().splitlines())
        pt_extras, pt_rows = read_rows(pt_text.getvalue().splitlines())
        out = io.StringIO()
        write_rows(compose_rows(sp_rows, sp_extras, pt_rows, pt_extras, cfg), out)

        assert out.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("chunk_size", [100_000, 3], ids=["hash", "merge"])
    @pytest.mark.parametrize("reordering", [False, True], ids=["core", "reordering"])
    @pytest.mark.parametrize("with_extras", ["sp", "pt", "both"])
    def test_extras_columns_do_not_change_the_rows(self, chunk_size, reordering,
                                                   with_extras):
        # Extras of 1.0 add nothing to the log-linear rank, so the same rows
        # with and without them compose to the same rows, whichever side
        # has its extras cut.
        rng = random.Random(79)
        sp, pt, pt_reo = random_pivot_triple(rng)
        sp_rows = [entry_to_row(e) for e in sp]
        pt_rows = [entry_to_row(e) for e in pt]

        def with_extra(rows):
            return [(src, tgt, scores + (1.0,), align)
                    for src, tgt, scores, align in rows]

        def composed(sp_rows, sp_extras, pt_rows, pt_extras):
            return list(compose_rows(
                sp_rows, sp_extras, pt_rows, pt_extras,
                PivotConfig(chunk_size=chunk_size),
                pt_reo_rows=reorder_rows(pt_reo) if reordering else None))

        plain = composed(sp_rows, (), pt_rows, ())
        sp_extras = pt_extras = ()
        if with_extras in ("sp", "both"):
            sp_rows, sp_extras = with_extra(sp_rows), ("f",)
        if with_extras in ("pt", "both"):
            pt_rows, pt_extras = with_extra(pt_rows), ("g",)
        assert plain
        assert composed(sp_rows, sp_extras, pt_rows, pt_extras) == plain

    @pytest.mark.parametrize("chunk", ["pt-rows", "pt-rows-less-1", 3, 100_000],
                             ids=["hash", "merge", "chunk3", "chunk100000"])
    @pytest.mark.parametrize("reordering,min_links", [(False, 0), (True, 0), (True, 2)],
                             ids=["core", "reordering", "reordering-min-links-2"])
    def test_tiny_chunks_do_not_change_results(self, chunk, reordering, min_links):
        # A chunk of exactly the pivot-target rows keeps them in a dict, one
        # row less in the disk pivot store; both must match the oracle to the
        # bit.
        rng = random.Random(78)
        sp, pt, pt_reo = random_pivot_triple(rng)
        chunk_size = {"pt-rows": len(pt), "pt-rows-less-1": len(pt) - 1}.get(chunk, chunk)
        cfg = PivotConfig(chunk_size=chunk_size, min_alignment_links=min_links)
        rows = list(compose_rows(
            shuffled_rows(rng, sp), (), shuffled_rows(rng, pt), (), cfg,
            pt_reo_rows=reorder_rows(pt_reo) if reordering else None))

        want = oracle_compose(sp, pt, min_links)
        assert 0 < len(want)
        assert {(src, tgt): (scores[:4], frozenset(align))
                for src, tgt, scores, align in rows} == want
        assert [row[:2] for row in rows] == sorted(want)
        if reordering:
            assert {(src, tgt): scores[4:] for src, tgt, scores, _ in rows} == \
                oracle_reordering(sp, pt, pt_reo, min_links)

    @pytest.mark.parametrize("chunk_size", [1, 2, 3])
    @pytest.mark.parametrize("on_disk", [False, True], ids=["dict-store", "disk-store"])
    @pytest.mark.parametrize("reordering,min_links",
                             [(False, 0), (False, 2), (True, 0), (True, 2)],
                             ids=["core", "core-min-links-2", "reordering",
                                  "reordering-min-links-2"])
    def test_sources_over_one_chunk_of_targets_keep_the_bytes(
            self, monkeypatch, tmp_path, chunk_size, on_disk, reordering, min_links):
        # A source with more targets than one chunk puts its sums so far and
        # its later partials through the disk-backed sort, where the
        # sequential reduce continues the same additions.  Its rows must be
        # the oracle's and the bytes those of sums held in memory.
        rng = random.Random(83)
        sp, pt, pt_reo = random_pivot_triple(rng)
        sp_rows = sorted(map(entry_to_row, sp), key=_BY_SRC_TGT)
        pt_rows = sorted(map(entry_to_row, pt), key=_BY_SRC_TGT)
        reo_rows = sorted(reorder_rows(pt_reo), key=_BY_SRC_TGT)
        sorts = []

        def counting_sort(*args, **kwargs):
            sorts.append(1)
            return ext_sorted(*args, **kwargs)
        monkeypatch.setattr(triangulate, "ext_sorted", counting_sort)

        def pt_kept(tmp_base):
            if reordering:
                return triangulate._attach_orientations(pt_rows, reo_rows)
            return (row for row in pt_rows)

        def composed(chunk):
            cfg = PivotConfig(chunk_size=chunk, min_alignment_links=min_links,
                              tmpdir=str(tmp_path))
            return list(triangulate._iter_join((row for row in sp_rows), pt_kept,
                                               on_disk, cfg, reordering,
                                               inputs_sorted=True))

        def text(rows):
            table_out, reordering_out = io.StringIO(), io.StringIO()
            if reordering:
                triangulate.write_reordering_rows(rows, table_out, reordering_out)
            else:
                write_rows(rows, table_out)
            return table_out.getvalue(), reordering_out.getvalue()

        in_memory = composed(len(pt_rows))
        assert sorts == []
        rows = composed(chunk_size)
        assert sorts
        want = oracle_compose(sp, pt, min_links)
        assert {(src, tgt): (scores[:4], frozenset(align))
                for src, tgt, scores, align in rows} == want
        assert [row[:2] for row in rows] == sorted(want)
        if reordering:
            assert {(src, tgt): scores[4:] for src, tgt, scores, _ in rows} == \
                oracle_reordering(sp, pt, pt_reo, min_links)
        assert text(rows) == text(in_memory)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra_rows,inline", [(0, False), (1, False), (1, True)],
                             ids=["hash", "merge", "merge-inline"])
    def test_join_path_sort_count_and_read_order(self, monkeypatch, tmp_path,
                                                 extra_rows, inline):
        rng = random.Random(79)
        sp, pt, _ = random_pivot_triple(rng)
        log = ReadLog(tmp_path / "reads")

        def noted_sort(*args, **kwargs):
            log.note("sort")
            return ext_sorted(*args, **kwargs)
        monkeypatch.setattr(triangulate, "ext_sorted", noted_sort)
        if inline:
            _one_cpu(monkeypatch)
        chunk = len(pt) - extra_rows
        list(compose_rows(log.logged("sp", shuffled_rows(rng, sp)), (),
                          log.logged("pt", shuffled_rows(rng, pt)), (),
                          PivotConfig(chunk_size=chunk)))
        here, worker = log.split()
        probe = ["pt"] * min(chunk + 1, len(pt))
        if extra_rows and not inline and STORE_WORKER:
            # Past the probe, the worker sorts and reads the pivot-target
            # rows while this process sorts and reads the source-pivot rows.
            assert here == probe + ["sort"] + ["sp"] * len(sp)
            assert worker == ["sort"] + ["pt"] * (len(pt) - len(probe))
        else:
            # The whole pivot-target input goes into its sort before the
            # first source-pivot row is read, so the probed rows never
            # outlive it.
            assert here == probe + ["sort"] * 2 + ["pt"] * (len(pt) - len(probe)) \
                + ["sp"] * len(sp)
            assert worker == []

    @pytest.mark.parametrize("chunk,message", [
        (None, "pivot-target table fits one sort chunk ({n} rows):"
               " in-memory pivot store"),
        ("2", "pivot-target table exceeds one sort chunk (over 2 rows): disk pivot store"),
    ], ids=["hash", "merge"])
    def test_verbose_names_the_join_path_and_keeps_the_bytes(
            self, tmp_path, caplog, chunk, message):
        rng = random.Random(80)
        sp, pt, _ = random_pivot_triple(rng)
        paths = {}
        for name, tbl in (("sp", sp), ("pt", pt)):
            paths[name] = tmp_path / f"{name}.txt"
            with open(paths[name], "w", encoding="utf-8") as stream:
                write_phrase_table(tbl, stream)
        argv = ["pivot", "--sp", str(paths["sp"]), "--pt", str(paths["pt"])]
        if chunk is not None:
            argv += ["--chunk-size", chunk]
        assert main(argv + ["-o", str(tmp_path / "quiet.txt")]) == 0
        with caplog.at_level(logging.INFO, logger="pivotsmith.triangulate"):
            assert main(["--verbose"] + argv + ["-o", str(tmp_path / "verbose.txt")]) == 0
        assert message.format(n=len(pt)) in caplog.messages
        assert (tmp_path / "verbose.txt").read_bytes() == \
            (tmp_path / "quiet.txt").read_bytes()



class TestPivotStore:
    """The disk pivot store that a pivot-target table over one chunk takes."""

    @pytest.mark.parametrize("reordering", [False, True], ids=["core", "reordering"])
    def test_every_hash_colliding_matches_the_oracle(self, monkeypatch, reordering):
        # One hash for every pivot: each lookup walks the probe path and
        # must pick its own pivot's record, or none, by comparing pivots.
        hashed = []

        def one_hash(pivot):
            hashed.append(pivot)
            return -3
        monkeypatch.setattr(pivotstore, "_pivot_hash", one_hash)
        rng = random.Random(81)
        sp, pt, pt_reo = random_pivot_triple(rng)
        sp = table([*sp, entry("lone", "nowhere")])
        rows = list(compose_rows(
            shuffled_rows(rng, sp), (), shuffled_rows(rng, pt), (),
            PivotConfig(chunk_size=len(pt) - 1),
            pt_reo_rows=reorder_rows(pt_reo) if reordering else None))
        assert ("nowhere",) in hashed
        want = oracle_compose(sp, pt)
        assert {(src, tgt): (scores[:4], frozenset(align))
                for src, tgt, scores, align in rows} == want
        assert [row[:2] for row in rows] == sorted(want)
        if reordering:
            assert {(src, tgt): scores[4:] for src, tgt, scores, _ in rows} == \
                oracle_reordering(sp, pt, pt_reo, 0)

    @pytest.mark.parametrize("end", ["exhausted", "closed", "failed"])
    def test_it_leaves_no_scratch_when_the_stream_ends(self, monkeypatch, tmp_path,
                                                       end):
        stores = []

        class Recorded(pivotstore.PivotStore):
            def __init__(self, *args):
                super().__init__(*args)
                stores.append(self)
        monkeypatch.setattr(pivotstore, "PivotStore", Recorded)
        sp_rows = [((f"s{i}",), ("p",), (0.5,) * 4, ((0, 0),)) for i in range(6)]
        if end == "failed":
            sp_rows.append(sp_rows[-1])
        # Four rows over one chunk, but only two targets per source, whose
        # sums the join then holds in memory.
        pt_rows = [((pivot,), (f"t{k}",), (0.25,) * 4, ((0, 0),))
                   for pivot in ("p", "q") for k in range(2)]
        rows = compose_rows(sp_rows, (), pt_rows, (),
                            PivotConfig(chunk_size=3, tmpdir=str(tmp_path)),
                            inputs_sorted=True)
        next(rows)
        [store] = stores
        assert store._base == str(tmp_path)
        assert not store._file.closed
        # The open store's file has no name in the scratch base.
        assert list(tmp_path.iterdir()) == []
        if end == "closed":
            rows.close()
        elif end == "failed":
            with pytest.raises(TableError, match="duplicate entry in source-pivot"):
                list(rows)
        else:
            assert len(list(rows)) == 6 * 2 - 1
        assert store._file.closed
        assert list(tmp_path.iterdir()) == []

    def test_damaged_record_is_an_os_error(self, tmp_path):
        pt_rows = [((f"p{i}",), ("t",), (0.5,) * 4, ((0, 0),)) for i in range(3)]
        store = pivotstore.PivotStore(str(tmp_path))
        try:
            store.set_index(store.write(iter(pt_rows)))
            assert list(tmp_path.iterdir()) == []
            store._file.truncate(store._file.seek(0, io.SEEK_END) - 5)
            with pytest.raises(OSError, match="damaged pivot store in "
                               + re.escape(f"{tmp_path}: ")):
                store.get(("p2",))
            assert store.get(("q",)) is None
        finally:
            store.close()
        assert store._file.closed


def _write_spill_pair(tmp_path, n_sp=40, n_pt=40, bad_sp=None, bad_pt=None):
    """Files of ``n_sp`` source-pivot and ``n_pt`` pivot-target rows, with
    the line numbered ``bad_sp`` or ``bad_pt`` one score short."""
    def scores(line, bad):
        return "0.1 0.1 1" if line == bad else "0.1 0.1 1 1"
    sp, pt = tmp_path / "sp.txt", tmp_path / "pt.txt"
    sp.write_text("".join(f"s{i} ||| p{i % 10} ||| {scores(i + 1, bad_sp)} ||| 0-0\n"
                          for i in range(n_sp)), encoding="utf-8")
    pt.write_text("".join(f"p{i % 10} ||| t{i} ||| {scores(i + 1, bad_pt)} ||| 0-0\n"
                          for i in range(n_pt)), encoding="utf-8")
    return sp, pt


def _one_cpu(monkeypatch):
    """Make this process look as if it may run on one CPU only."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not STORE_WORKER, reason="a store worker needs two CPUs")
class TestStoreWorker:
    """The forked process that builds the disk pivot store, against the
    same store built inline."""

    def pivot(self, tmp_path, sp, pt, *options):
        scratch = tmp_path / "scratch"
        scratch.mkdir(exist_ok=True)
        out = tmp_path / "out.txt"
        rc = main([*options, "pivot", "--sp", str(sp), "--pt", str(pt),
                   "--chunk-size", "5", "--tmpdir", str(scratch), "-o", str(out)])
        assert list(scratch.iterdir()) == []
        _no_child_left()
        return rc, out.read_bytes() if out.exists() else None

    @pytest.mark.parametrize("bad", ["both", "sp", "pt"])
    @pytest.mark.parametrize("inline", [False, True], ids=["worker", "inline"])
    def test_a_pivot_target_error_wins(self, monkeypatch, tmp_path, capsys, bad,
                                       inline):
        # The bad pivot-target line lies past the probe, so the worker
        # reads it, while this process reads the bad source-pivot line.
        if inline:
            _one_cpu(monkeypatch)
        sp, pt = _write_spill_pair(tmp_path, bad_sp=3 if bad != "pt" else None,
                                   bad_pt=37 if bad != "sp" else None)
        assert self.pivot(tmp_path, sp, pt) == (1, None)
        path, line = (sp, 3) if bad == "sp" else (pt, 37)
        assert capsys.readouterr().err == (
            f"pivotsmith: error: {path}: line {line}: expected 4 score columns,"
            " got 3\n")

    def test_a_worker_error_keeps_its_type_and_line(self, tmp_path):
        sp, pt = _write_spill_pair(tmp_path, bad_pt=37)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        with open(sp, encoding="utf-8") as sp_f, open(pt, encoding="utf-8") as pt_f:
            rows = compose_rows(read_rows(sp_f)[1], (), read_rows(pt_f, "pt.txt")[1], (),
                                PivotConfig(chunk_size=5, tmpdir=str(scratch)))
            with pytest.raises(TableError) as caught:
                next(rows)
        assert type(caught.value) is TableError
        assert caught.value.line == 37
        assert str(caught.value) == "pt.txt: line 37: expected 4 score columns, got 3"
        assert list(scratch.iterdir()) == []
        _no_child_left()

    @pytest.mark.parametrize("inline", [False, True], ids=["worker", "inline"])
    def test_a_damaged_spill_run_in_the_worker_is_an_os_error(
            self, monkeypatch, tmp_path, capsys, inline):
        # Only the pivot-target sort spills: its runs end too early.
        def write_run_without_end_marker(path, rows):
            with open(path, "wb") as out:
                out.write(extsort.encode_row(list(rows)[:1]))
        monkeypatch.setattr(extsort, "_write_run", write_run_without_end_marker)
        if inline:
            _one_cpu(monkeypatch)
        sp, pt = _write_spill_pair(tmp_path, n_sp=5)
        assert self.pivot(tmp_path, sp, pt) == (1, None)
        nested = "" if inline else "/pivotsmith-sort-[^/]+"
        assert re.fullmatch(
            f"pivotsmith: error: damaged spill run in {re.escape(str(tmp_path))}"
            f"/scratch/pivotsmith-sort-[^/]+{nested}: Ran out of input\n",
            capsys.readouterr().err)

    @pytest.mark.parametrize("inline", [False, True], ids=["worker", "inline"])
    def test_a_damaged_store_record_is_an_os_error(self, monkeypatch, tmp_path,
                                                   capsys, inline):
        class Truncated(pivotstore.PivotStore):
            def set_index(self, index):
                super().set_index(index)
                self._file.truncate(self._file.seek(0, io.SEEK_END) - 5)
        monkeypatch.setattr(pivotstore, "PivotStore", Truncated)
        if inline:
            _one_cpu(monkeypatch)
        sp, pt = _write_spill_pair(tmp_path)
        assert self.pivot(tmp_path, sp, pt) == (1, None)
        assert capsys.readouterr().err.startswith(
            f"pivotsmith: error: damaged pivot store in {tmp_path / 'scratch'}: ")

    def test_a_killed_worker_is_an_os_error(self, monkeypatch, tmp_path, capsys):
        parent = os.getpid()

        def killed(store, rows):
            assert os.getpid() != parent
            os.kill(os.getpid(), signal.SIGKILL)
        monkeypatch.setattr(pivotstore.PivotStore, "write", killed)
        sp, pt = _write_spill_pair(tmp_path)
        assert self.pivot(tmp_path, sp, pt) == (1, None)
        assert capsys.readouterr().err == (
            "pivotsmith: error: the disk pivot store's worker ended by signal"
            f" {int(signal.SIGKILL)} before sending its index\n")

    @pytest.mark.parametrize("case", ["worker", "one-cpu", "fork-fails", "threads"])
    def test_verbose_names_where_the_store_was_built(self, monkeypatch, tmp_path,
                                                     caplog, case):
        sp, pt = _write_spill_pair(tmp_path)
        _, want = self.pivot(tmp_path, sp, pt)
        message = "disk pivot store built inline: "
        if case == "worker":
            message = "disk pivot store built in a worker process on CPU "
        elif case == "one-cpu":
            _one_cpu(monkeypatch)
            message += "the CPU affinity mask holds 1 CPU"
        elif case == "fork-fails":
            def no_fork():
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            monkeypatch.setattr(os, "fork", no_fork)
            message += f"os.fork failed: [Errno {errno.EAGAIN}]"
        release = threading.Event()
        waiting = threading.Thread(target=release.wait)
        if case == "threads":
            waiting.start()
            message += f"{threading.active_count()} Python threads are alive"
        try:
            with caplog.at_level(logging.INFO, logger="pivotsmith.pivotstore"):
                assert self.pivot(tmp_path, sp, pt, "--verbose") == (0, want)
        finally:
            release.set()
            if case == "threads":
                waiting.join(timeout=10)
        [logged] = [m for m in caplog.messages if m.startswith("disk pivot store built")]
        assert logged.startswith(message)

    def test_closing_the_stream_early_reaps_the_worker(self, tmp_path):
        sp, pt = _write_spill_pair(tmp_path)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        with open(sp, encoding="utf-8") as sp_f, open(pt, encoding="utf-8") as pt_f:
            rows = compose_rows(read_rows(sp_f)[1], (), read_rows(pt_f)[1], (),
                                PivotConfig(chunk_size=5, tmpdir=str(scratch)))
            next(rows)
            rows.close()
        _no_child_left()
        assert list(scratch.iterdir()) == []

    def test_cpu_mask_comes_back(self, tmp_path):
        mask = os.sched_getaffinity(0)
        sp, pt = _write_spill_pair(tmp_path)
        assert self.pivot(tmp_path, sp, pt)[0] == 0
        assert os.sched_getaffinity(0) == mask

    def test_the_worker_keeps_the_callers_signal_mask(self, monkeypatch, tmp_path):
        # A signal the caller blocks stays blocked in the worker, rather
        # than ending it with its default action.
        write = pivotstore.PivotStore.write
        seen = tmp_path / "mask"

        def noting_write(store, rows):
            held = signal.pthread_sigmask(signal.SIG_BLOCK, [])
            seen.write_text(f"{os.getpid()} {' '.join(str(int(s)) for s in held)}")
            return write(store, rows)
        monkeypatch.setattr(pivotstore.PivotStore, "write", noting_write)
        sp, pt = _write_spill_pair(tmp_path)
        before = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGHUP})
        try:
            assert self.pivot(tmp_path, sp, pt)[0] == 0
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, before)
        pid, *held = seen.read_text().split()
        assert int(pid) != os.getpid()
        assert set(map(int, held)) == set(map(int, before | {signal.SIGHUP}))


def test_sorted_library_inputs_build_the_store_inline(monkeypatch, tmp_path, caplog):
    # pivot_compose joins tables that are already sorted: with no
    # source-pivot sort to overlap, a worker would only be waited for.
    rng = random.Random(84)
    sp, pt, _ = random_pivot_triple(rng)
    want = as_dict(pivot_compose(sp, pt))

    def no_fork():
        raise AssertionError("the store was built in a worker")
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    with caplog.at_level(logging.INFO, logger="pivotsmith.pivotstore"):
        got = pivot_compose(sp, pt, PivotConfig(chunk_size=len(pt) - 1,
                                                tmpdir=str(tmp_path)))
    assert as_dict(got) == want
    assert caplog.messages[-1] == ("disk pivot store built inline: the source-pivot"
                                   " rows come sorted, so no sort overlaps the build")
    assert list(tmp_path.iterdir()) == []


def _row(src: str, tgt: str, scores, align=((0, 0),)):
    return (tuple(src.split()), tuple(tgt.split()), tuple(scores), tuple(align))


# Four pivot-target rows: the pair (a, x) composes through p1 and p2, the
# pairs (a, w) and (b, y) through p2 and p3 alone.  With a chunk of one,
# (a, w) arrives between the two partials of (a, x), so the first one's sum
# and the second one cross the disk-backed sort.
_EDGE_PT = [_row("p1", "x", (1.0, 1.0, 1.0, 1.0)),
            _row("p2", "w", (1.0, 1.0, 1.0, 1.0)),
            _row("p2", "x", (1.0, 1.0, 1.0, 1.0), ((0, 1),)),
            _row("p3", "y", (1.0, 1.0, 1.0, 1.0))]


def _edge_sp(a_p1, a_p2, b_p3):
    return [_row("a", "p1", a_p1), _row("a", "p2", a_p2), _row("b", "p3", b_p3)]


@pytest.mark.parametrize("chunk", [len(_EDGE_PT), len(_EDGE_PT) - 1, 1],
                         ids=["hash", "merge", "one-target-sums"])
@pytest.mark.parametrize("reordering", [False, True], ids=["core", "reordering"])
class TestReduceEdges:
    """Sign, overshoot and min-links handling of pairs of one and of two
    partials, on both pivot stores and with a source's sums continued
    through the disk-backed sort, with and without orientations."""

    def compose(self, sp, chunk, reordering, min_links=0):
        cfg = PivotConfig(chunk_size=chunk, min_alignment_links=min_links)
        return {row[:2]: row for row in compose_rows(
            sp, (), list(_EDGE_PT), (), cfg, pt_reo_rows=[] if reordering else None)}

    def test_negative_zero_score_composes_to_zero(self, chunk, reordering):
        rows = self.compose(_edge_sp((0.5, -0.0, 0.5, 0.5), (0.5, -0.0, 0.5, 0.5),
                                     (1.0, -0.0, 1.0, 1.0)), chunk, reordering)
        for pair in ((("a",), ("x",)), (("b",), ("y",))):
            assert math.copysign(1.0, rows[pair][2][1]) == 1.0
            out = io.StringIO()
            write_rows([rows[pair]], out)
            assert out.getvalue().split(" ||| ")[2].split()[1] == "0"

    def test_sum_inside_the_guard_band_is_one(self, chunk, reordering):
        half = 0.5 + SCORE_OVERSHOOT_TOL / 2
        assert 1.0 < half + half <= 1.0 + SCORE_OVERSHOOT_TOL
        rows = self.compose(_edge_sp((0.5, 0.5, half, 0.5), (0.5, 0.5, half, 0.5),
                                     (1.0, 1.0, 1.0, 1.0)), chunk, reordering)
        assert rows[("a",), ("x",)][2][:4] == (1.0, 1.0, 1.0, 1.0)
        assert rows[("b",), ("y",)][2][:4] == (1.0, 1.0, 1.0, 1.0)

    def test_sum_beyond_the_guard_band_raises(self, chunk, reordering):
        with pytest.raises(TableError, match="composed phi_bwd for 'a' -> 'x' is 1.2"):
            self.compose(_edge_sp((0.5, 0.5, 0.6, 0.5), (0.5, 0.5, 0.6, 0.5),
                                  (1.0, 1.0, 1.0, 1.0)), chunk, reordering)

    def test_min_links_drops_a_short_pair_of_one_partial(self, chunk, reordering):
        sp = _edge_sp((0.5,) * 4, (0.5,) * 4, (1.0,) * 4)
        assert set(self.compose(sp, chunk, reordering, min_links=1)) == {
            (("a",), ("w",)), (("a",), ("x",)), (("b",), ("y",))}
        # (a, x) unions 0-0 and 0-1; (a, w) and (b, y) keep the single link
        # of p2 and p3.
        rows = self.compose(sp, chunk, reordering, min_links=2)
        assert list(rows) == [(("a",), ("x",))]
        assert rows[("a",), ("x",)][3] == ((0, 0), (0, 1))


def _write_hub_pair(dirpath, sources):
    """`sources` source phrases that all share the pivot `the`, and enough
    other pivot-target rows that the join keeps them in the disk pivot
    store."""
    sp_path = dirpath / f"sp_hub{sources}.txt"
    pt_path = dirpath / f"pt_hub{sources}.txt"
    share = f"{1 / sources:.6g}"
    with open(sp_path, "w", encoding="utf-8") as stream:
        stream.writelines(f"s{i} ||| the ||| 1 1 {share} {share} ||| 0-0\n"
                          for i in range(sources))
    with open(pt_path, "w", encoding="utf-8") as stream:
        stream.write("the ||| der ||| 1 1 1 1 ||| 0-0\n")
        stream.writelines(f"p{k} ||| u{k} ||| 1 1 1 1 ||| 0-0\n" for k in range(2000))
    return sp_path, pt_path


def test_hub_pivot_peak_rss_does_not_follow_the_hub_size(tmp_path):
    # Each source-pivot row looks its pivot's rows up in the disk pivot
    # store as it streams past, so a four times larger hub needs no more
    # memory.
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    peaks = []
    for sources in (20_000, 80_000):
        sp, pt = _write_hub_pair(tmp_path, sources)
        out = tmp_path / "out.txt"
        _, _, peak_kb, worker_kb = run_pivot_measured(sp, pt, out, scratch,
                                                      "--chunk-size", "1000")
        if peak_kb < 0:
            pytest.skip("VmHWM is read from /proc/self/status")
        with open(out, "rb") as stream:
            assert sum(1 for _ in stream) == sources
        peaks.append((peak_kb, worker_kb))
    assert_flat_peaks(peaks)


def test_reordering_peak_rss_does_not_follow_the_table_size(tmp_path):
    # The pivot-target reordering table streams through the disk-backed
    # sort like the phrase tables, so a four times larger one needs no
    # more memory.
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    peaks = []
    for rows in (20_000, 80_000):
        sp, pt, reo = (tmp_path / f"{name}{rows}.txt" for name in ("sp", "pt", "reo"))
        sp.write_text("".join(f"s{i} ||| p{i} ||| 1 1 1 1 ||| 0-0\n"
                              for i in range(rows)), encoding="utf-8")
        pt.write_text("".join(f"p{i} ||| t{i} ||| 1 1 1 1 ||| 0-0\n"
                              for i in range(rows)), encoding="utf-8")
        reo.write_text("".join(f"p{i} ||| t{i} ||| 0.5 0.25 0.25 0.5 0.25 0.25\n"
                               for i in range(rows)), encoding="utf-8")
        out, reo_out = tmp_path / "out.txt", tmp_path / "reo-out.txt"
        _, _, peak_kb, worker_kb = run_measured(scratch, "pivot", "--sp", sp, "--pt", pt,
                                                "-o", out, "--reordering-pt", reo,
                                                "--reordering-out", reo_out,
                                                "--chunk-size", "1000")
        if peak_kb < 0:
            pytest.skip("VmHWM is read from /proc/self/status")
        for path in (out, reo_out):
            with open(path, "rb") as stream:
                assert sum(1 for _ in stream) == rows
        peaks.append((peak_kb, worker_kb))
    assert_flat_peaks(peaks)


def test_orientation_text_memo_does_not_follow_the_table_size(tmp_path):
    # Every composed orientation probability is a new value, so the writer's
    # memo of their text misses on each one; its cap bounds its memory.
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    peaks = []
    for rows in (20_000, 80_000):
        sp, pt, reo = (tmp_path / f"{name}{rows}.txt" for name in ("sp", "pt", "reo"))
        sp.write_text("".join(f"s{i} ||| p{i} ||| 1 1 1 1 ||| 0-0\n"
                              for i in range(rows)), encoding="utf-8")
        pt.write_text("".join(f"p{i} ||| t{i} ||| 1 1 1 1 ||| 0-0\n"
                              for i in range(rows)), encoding="utf-8")
        lines = []
        for i in range(rows):
            x = 0.05 + 0.9 * i / rows
            a, b, d, e = x / 2, x / 3, (1 - x) / 2, (1 - x) / 5
            lines.append(f"p{i} ||| t{i} ||| {a!r} {b!r} {1 - a - b!r}"
                         f" {d!r} {e!r} {1 - d - e!r}\n")
        reo.write_text("".join(lines), encoding="utf-8")
        out, reo_out = tmp_path / "out.txt", tmp_path / "reo-out.txt"
        _, _, peak_kb, worker_kb = run_measured(scratch, "pivot", "--sp", sp, "--pt", pt,
                                                "-o", out, "--reordering-pt", reo,
                                                "--reordering-out", reo_out,
                                                "--chunk-size", "1000")
        if peak_kb < 0:
            pytest.skip("VmHWM is read from /proc/self/status")
        with open(reo_out, encoding="utf-8") as stream:
            written = [line.split(" ||| ")[2].split() for line in stream]
        assert len(written) == rows
        assert len({value for probs in written for value in probs}) > 5 * rows
        peaks.append((peak_kb, worker_kb))
    assert_flat_peaks(peaks)


def test_reordering_sp_peak_rss_does_not_follow_the_table_size(tmp_path):
    # The source-pivot reordering table is only validated, through the
    # disk-backed sort, so a four times larger one needs no more memory.
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    sp, pt, reo_pt = (tmp_path / f"{name}.txt" for name in ("sp", "pt", "reo-pt"))
    sp.write_text("s ||| p ||| 1 1 1 1 ||| 0-0\n", encoding="utf-8")
    pt.write_text("p ||| t ||| 1 1 1 1 ||| 0-0\n", encoding="utf-8")
    reo_pt.write_text("p ||| t ||| 0.5 0.25 0.25 0.5 0.25 0.25\n", encoding="utf-8")
    peaks = []
    for rows in (20_000, 80_000):
        reo_sp = tmp_path / f"reo-sp{rows}.txt"
        reo_sp.write_text("".join(f"s{i} ||| p{i} ||| 0.5 0.25 0.25 0.5 0.25 0.25\n"
                                  for i in range(rows)), encoding="utf-8")
        out, reo_out = tmp_path / "out.txt", tmp_path / "reo-out.txt"
        _, _, peak_kb, worker_kb = run_measured(scratch, "pivot", "--sp", sp, "--pt", pt,
                                                "-o", out, "--reordering-sp", reo_sp,
                                                "--reordering-pt", reo_pt,
                                                "--reordering-out", reo_out,
                                                "--chunk-size", "1000")
        if peak_kb < 0:
            pytest.skip("VmHWM is read from /proc/self/status")
        assert out.read_text(encoding="utf-8") == "s ||| t ||| 1 1 1 1 ||| 0-0\n"
        assert list(scratch.iterdir()) == []
        peaks.append((peak_kb, worker_kb))
    assert_flat_peaks(peaks)


def _bits_alignment(i, width):
    """A distinct alignment text for each ``i`` below 2**18: bit ``b`` of
    ``i`` links source ``b % width`` to target ``b // width``."""
    return " ".join(f"{b % width}-{b // width}" for b in range(18) if i >> b & 1)


def test_parse_memos_do_not_follow_the_table_size(tmp_path):
    # Every phrase and alignment text is new, so the parser's memos miss on
    # each one; their cap bounds their memory.
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    peaks = []
    for rows in (20_000, 80_000):
        sp, pt = (tmp_path / f"{name}{rows}.txt" for name in ("sp", "pt"))
        sp.write_text("".join(
            f"s{i} a{i} b{i} ||| p{i} q{i} r{i} u{i} v{i} w{i} ||| 1 1 1 1"
            f" ||| {_bits_alignment(i + 1, 3)}\n" for i in range(rows)),
            encoding="utf-8")
        pt.write_text("".join(
            f"p{i} q{i} r{i} u{i} v{i} w{i} ||| t{i} x{i} y{i} ||| 1 1 1 1"
            f" ||| {_bits_alignment(i + 1, 6)}\n" for i in range(rows)),
            encoding="utf-8")
        out = tmp_path / "out.txt"
        _, _, peak_kb, worker_kb = run_pivot_measured(sp, pt, out, scratch,
                                                      "--chunk-size", "1000")
        if peak_kb < 0:
            pytest.skip("VmHWM is read from /proc/self/status")
        with open(out, "rb") as stream:
            assert sum(1 for _ in stream) == rows
        peaks.append((peak_kb, worker_kb))
    assert_flat_peaks(peaks)


def _write_wide_pivot(dirpath, targets):
    """One pivot phrase `the` with `targets` translations, reached from 50
    sources, and the same rows as a table whose one source is `the`."""
    sp_path = dirpath / f"sp_wide{targets}.txt"
    pt_path = dirpath / f"pt_wide{targets}.txt"
    with open(sp_path, "w", encoding="utf-8") as stream:
        stream.writelines(f"s{i} ||| the ||| 1 1 1 1 ||| 0-0\n" for i in range(50))
    share = f"{1 / targets:.6g}"
    with open(pt_path, "w", encoding="utf-8") as stream:
        stream.writelines(f"the ||| u{k} ||| {share} {share} 1 1 ||| 0-0\n"
                          for k in range(targets))
    return sp_path, pt_path


@pytest.mark.parametrize("command", ["pivot", "filter"])
def test_top_n_peak_rss_does_not_follow_the_group_size(tmp_path, command):
    # Top-n keeps at most n + 1 rows of a source group at a time, so a
    # four times wider group needs no more memory.
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    peaks = []
    for targets in (20_000, 80_000):
        sp, pt = _write_wide_pivot(tmp_path, targets)
        out = tmp_path / "out.txt"
        if command == "pivot":
            argv = ["pivot", "--sp", sp, "--pt", pt]
        else:
            argv = ["filter", "-i", pt]
        _, _, peak_kb, worker_kb = run_measured(scratch, *argv, "-o", out, "--top-n", "5",
                                                "--chunk-size", "1000")
        if peak_kb < 0:
            pytest.skip("VmHWM is read from /proc/self/status")
        with open(out, encoding="utf-8") as stream:
            lines = stream.readlines()
        expected = 50 * 5 if command == "pivot" else 5
        assert len(lines) == expected
        # Equal scores rank by target phrase.
        assert {line.split(" ||| ")[1] for line in lines} == {
            "u0", "u1", "u10", "u100", "u1000"}
        peaks.append((peak_kb, worker_kb))
    assert_flat_peaks(peaks)


def shuffled_rows(rng: random.Random, tbl: PhraseTable) -> list:
    rows = [entry_to_row(e) for e in tbl]
    rng.shuffle(rows)
    return rows


def random_pivot_triple(rng: random.Random):
    """A random pivot pair and orientation entries for every other pt pair.

    Few targets make many pairs share three or more pivots, where the
    order of summation shows in the last bits.
    """
    sp, pt = random_pivot_pair(rng, n_src=15, n_pivot=10, n_tgt=4)
    pt_reo = []
    for e in pt.entries[::2]:
        probs = []
        for _ in range(2):
            raw = [rng.random() + 0.01 for _ in range(3)]
            probs.extend(value / sum(raw) for value in raw)
        pt_reo.append(ReorderingEntry(e.src, e.tgt, tuple(probs)))
    return sp, pt, pt_reo


def _one_source_peaks(tmp_path, target, rows_out):
    """Peak RSS of pivots where one source phrase joins n pivots of n
    targets each, the k-th target of pivot i named ``target(i, k)``, for
    n = 100 and 200; ``rows_out(n)`` rows must come out."""
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    peaks = []
    for n in (100, 200):
        share = f"{1 / n:.6g}"
        sp, pt = tmp_path / f"sp{n}.txt", tmp_path / f"pt{n}.txt"
        sp.write_text("".join(f"s ||| p{i} ||| {share} {share} {share} {share}"
                              f" ||| 0-0\n" for i in range(n)), encoding="utf-8")
        pt.write_text("".join(f"p{i} ||| {target(i, k)} ||| {share} {share} {share}"
                              f" {share} ||| 0-0\n" for i in range(n) for k in range(n)),
                      encoding="utf-8")
        out = tmp_path / "out.txt"
        _, _, peak_kb, worker_kb = run_measured(scratch, "pivot", "--sp", sp, "--pt", pt,
                                                "-o", out, "--top-n", str(n),
                                                "--chunk-size", "1000")
        if peak_kb < 0:
            pytest.skip("VmHWM is read from /proc/self/status")
        with open(out, encoding="utf-8") as stream:
            assert sum(1 for _ in stream) == rows_out(n)
        assert list(scratch.iterdir()) == []
        peaks.append((peak_kb, worker_kb))
    return peaks


def test_one_source_joined_rows_peak_rss_does_not_follow_top_n_squared(tmp_path):
    # One source phrase joins n pivots of the same n targets each into n * n
    # partials, summed into n rows.  Four times as many partials need no
    # more memory.
    peaks = _one_source_peaks(tmp_path, lambda i, k: f"t{k}", lambda n: n)
    assert_flat_peaks(peaks)


def test_one_source_distinct_targets_peak_rss_does_not_follow_top_n_squared(tmp_path):
    # n pivots of n distinct targets each give one source n * n targets.
    # Past one chunk of them its sums go through the disk-backed sort, so
    # four times as many need no more memory.
    peaks = _one_source_peaks(tmp_path, lambda i, k: f"t{i}_{k}", lambda n: n * n)
    assert_flat_peaks(peaks)


class TestEstimate:
    def test_counts_pair_combinations(self):
        sp = table([entry("a", "x"), entry("b", "x"), entry("c", "y")])
        pt = table([
            entry("x", "u", scores=(0.5, 0.5, 0.5, 0.5)),
            entry("x", "v", scores=(0.5, 0.5, 0.5, 0.5)),
            entry("z", "w"),
        ])
        assert estimate_pivot_size(sp, pt) == 4

    def test_matches_oracle_pair_count(self):
        rng = random.Random(123)
        sp, pt = random_pivot_pair(rng)
        expected = sum(1 for e1 in sp for e2 in pt if e1.tgt == e2.src)
        assert estimate_pivot_size(sp, pt) == expected


class TestReorderingPivot:
    def test_weighted_mixture_and_renormalization(self):
        sp = table([
            entry("a", "x", scores=(0.6, 0.6, 0.6, 0.6)),
            entry("a", "y", scores=(0.4, 0.4, 0.4, 0.4)),
        ])
        pt = table([
            entry("x", "u", scores=(0.5, 0.5, 0.5, 0.5)),
            entry("y", "u", scores=(0.5, 0.5, 0.5, 0.5)),
        ])
        pt_reo = (
            ReorderingEntry(("x",), ("u",), (0.8, 0.1, 0.1, 0.6, 0.2, 0.2)),
            ReorderingEntry(("y",), ("u",), (0.2, 0.4, 0.4, 0.3, 0.3, 0.4)),
        )
        got = pivot_reordering((), pt_reo, sp, pt)
        assert len(got) == 1
        probs = got[0].probs
        expected = tuple(0.6 * a + 0.4 * b
                         for a, b in zip(pt_reo[0].probs, pt_reo[1].probs))
        for have, want in zip(probs, expected):
            assert have == pytest.approx(want, abs=1e-12)
        assert sum(probs[:3]) == pytest.approx(1.0, abs=1e-12)
        assert sum(probs[3:]) == pytest.approx(1.0, abs=1e-12)

    def test_missing_pivot_entries_fall_back_to_uniform(self):
        sp = table([entry("a", "x")])
        pt = table([entry("x", "u")])
        got = pivot_reordering((), (), sp, pt)
        assert got[0].probs == pytest.approx((1.0 / 3.0,) * 6)

    def test_restricted_to_surviving_composed_pairs(self):
        sp = table([entry("a", "x", align=[(0, 0)]), entry("b", "x")])
        pt = table([entry("x", "u", align=[(0, 0)])])
        cfg = PivotConfig(min_alignment_links=1)
        got = pivot_reordering((), (), sp, pt, cfg)
        assert [(e.src, e.tgt) for e in got] == [(("a",), ("u",))]

    def test_source_side_table_is_accepted_but_unused(self, caplog):
        sp = table([entry("a", "x")])
        pt = table([entry("x", "u")])
        sp_reo = (ReorderingEntry(("a",), ("x",), (0.9, 0.05, 0.05, 0.9, 0.05, 0.05)),)
        with caplog.at_level(logging.INFO, logger="pivotsmith"):
            got = pivot_reordering(sp_reo, (), sp, pt)
        assert got[0].probs == pytest.approx((1.0 / 3.0,) * 6)
        assert any("unused" in m for m in caplog.messages)

    @pytest.mark.parametrize("side", ["source-pivot", "pivot-target"])
    def test_entries_of_both_tables_are_checked(self, side):
        sp = table([entry("a", "x")])
        pt = table([entry("x", "u")])
        bad = (0.9, 0.9, 0.9, 0.2, 0.3, 0.5)
        if side == "source-pivot":
            reo_tables = ((ReorderingEntry(("a",), ("x",), bad),), ())
        else:
            reo_tables = ((), (ReorderingEntry(("x",), ("u",), bad),))
        with pytest.raises(TableError, match="orientation triple sums to 2.7"):
            pivot_reordering(*reo_tables, sp, pt)

    @pytest.mark.parametrize("side", ["source-pivot", "pivot-target"])
    def test_repeated_pair_in_either_table_raises(self, side):
        sp = table([entry("x", "x")])
        pt = table([entry("x", "u")])
        e = ReorderingEntry(("x",), ("x",) if side == "source-pivot" else ("u",),
                            (0.8, 0.1, 0.1, 0.6, 0.2, 0.2))
        reo_tables = ((e, e), ()) if side == "source-pivot" else ((), (e, e))
        with pytest.raises(TableError, match="duplicate reordering entry for pair"
                                             f" 'x' -> '{e.tgt[0]}'"):
            pivot_reordering(*reo_tables, sp, pt)

    @staticmethod
    def compose_oriented(order, n_pt, chunk_size=PivotConfig.chunk_size):
        sp_rows = [(("a",), ("x",), (0.5,) * 4, ()), (("a",), ("y",), (0.5,) * 4, ())]
        pt_rows = [(("x",), ("u",), (0.5,) * 4, ()), (("y",), ("u",), (0.5,) * 4, ())]
        reo = [(("x",), ("u",), (0.8, 0.1, 0.1, 0.6, 0.2, 0.2), ()),
               (("y",), ("u",), (0.2, 0.4, 0.4, 0.3, 0.3, 0.4), ()),
               (("z",), ("w",), (0.2, 0.4, 0.4, 0.3, 0.3, 0.4), ())]
        return list(compose_rows(sp_rows, (), pt_rows[:n_pt], (),
                                 PivotConfig(chunk_size=chunk_size),
                                 pt_reo_rows=[reo[i] for i in order]))

    @pytest.mark.parametrize("order,n_pt", [((1, 0), 2), ((1, 0), 1)],
                             ids=["descending", "unsorted-tail"])
    def test_orientation_rows_in_any_order_compose_alike(self, order, n_pt):
        rows = self.compose_oriented(order, n_pt)
        assert rows == self.compose_oriented((0, 1), n_pt)
        assert [row[:2] for row in rows] == [(("a",), ("u",))]
        assert rows[0][2][4:] != (1.0 / 3.0,) * 6

    @pytest.mark.parametrize("chunk_size", [PivotConfig.chunk_size, 1],
                             ids=["hash", "merge"])
    @pytest.mark.parametrize("index,pair", [(0, "'x' -> 'u'"), (2, "'z' -> 'w'")],
                             ids=["joined", "after-the-pivot-target-rows"])
    def test_repeated_orientation_pair_raises(self, index, pair, chunk_size):
        with pytest.raises(TableError,
                           match=f"duplicate reordering entry for pair {pair}"):
            self.compose_oriented((1, index, index), 2, chunk_size)

    @staticmethod
    def logged_inputs(log, n, sp_reo_pairs, **cfg):
        """``compose_rows`` over ``n`` one-to-one pivots and a source-pivot
        reordering table of the pairs numbered ``sp_reo_pairs``, each input
        noting its name in the ``ReadLog`` ``log`` as a row is pulled from
        it."""
        logged = log.logged
        probs = (0.8, 0.1, 0.1, 0.6, 0.2, 0.2)
        sp_rows = [((f"a{i}",), (f"x{i}",), (0.5,) * 4, ()) for i in range(n)]
        pt_rows = [((f"x{i}",), ("u",), (0.5,) * 4, ()) for i in range(n)]
        reo = [((f"x{i}",), ("u",), probs, ()) for i in range(n)]
        sp_reo = [((f"a{i}",), (f"x{i}",), probs, ()) for i in sp_reo_pairs]
        return compose_rows(logged("sp", sp_rows), (), logged("pt", pt_rows), (),
                            PivotConfig(**cfg), pt_reo_rows=logged("reo", reo),
                            sp_reo_rows=logged("sp-reo", sp_reo))

    @pytest.mark.parametrize("chunk_size", [100, 4], ids=["hash", "merge"])
    def test_pivot_target_rows_are_read_before_the_reordering_rows(self, chunk_size,
                                                                   tmp_path):
        # On the disk pivot store the probe list, chunk_size + 1 pivot-target
        # rows, lives until the pivot-target sort has read its input, so the
        # reordering sort must not fill its chunk before that.  A worker
        # reads the rows past the probe, and the source-pivot rows are read
        # here meanwhile.
        log = ReadLog(tmp_path / "reads")
        n = 12
        sp_rows = [((f"a{i}",), (f"x{i}",), (0.5,) * 4, ()) for i in range(n)]
        pt_rows = [((f"x{i}",), ("u",), (0.5,) * 4, ()) for i in range(n)]
        reo = [((f"x{i}",), ("u",), (0.8, 0.1, 0.1, 0.6, 0.2, 0.2), ())
               for i in range(n)]
        rows = compose_rows(log.logged("sp", sp_rows), (), log.logged("pt", pt_rows), (),
                            PivotConfig(chunk_size=chunk_size),
                            pt_reo_rows=log.logged("reo", reo))
        probe = ["pt"] * min(chunk_size + 1, n)
        assert log.split() == (probe, [])
        next(rows)
        rest = ["pt"] * (n - len(probe)) + ["reo"] * n
        if chunk_size < n and STORE_WORKER:
            assert log.split() == (probe + ["sp"] * n, rest)
        else:
            assert log.split() == (probe + rest + ["sp"] * n, [])

    @pytest.mark.parametrize("chunk_size", [100, 4], ids=["hash", "sort-merge"])
    def test_source_pivot_reordering_rows_are_read_first(self, chunk_size, tmp_path):
        log = ReadLog(tmp_path.parent / f"{tmp_path.name}-reads")
        n = 12
        rows = self.logged_inputs(log, n, reversed(range(n)),
                                  chunk_size=chunk_size, tmpdir=str(tmp_path))
        first = ["sp-reo"] * n + ["pt"] * min(chunk_size + 1, n)
        assert log.split() == (first, [])
        assert len(list(rows)) == n
        rest = ["pt"] * (n - min(chunk_size + 1, n)) + ["reo"] * n
        if chunk_size < n and STORE_WORKER:
            assert log.split() == (first + ["sp"] * n, rest)
        else:
            assert log.split() == (first + rest + ["sp"] * n, [])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("chunk_size", [100, 4], ids=["hash", "sort-merge"])
    def test_repeated_source_pivot_reordering_pair_raises_first(self, chunk_size,
                                                                 tmp_path):
        log = ReadLog(tmp_path.parent / f"{tmp_path.name}-reads")
        with pytest.raises(TableError,
                           match="duplicate reordering entry for pair 'a3' -> 'x3'"):
            self.logged_inputs(log, 12, [5, 3, 7, 3, 1, 0, 2],
                               chunk_size=chunk_size, tmpdir=str(tmp_path))
        here, worker = log.split()
        assert (set(here), worker) == ({"sp-reo"}, [])
        assert list(tmp_path.iterdir()) == []

    def test_library_and_command_log_the_same_line(self, tmp_path, caplog):
        probs = (0.8, 0.1, 0.1, 0.6, 0.2, 0.2)
        tables = {"sp": table([entry("a", "x")]), "pt": table([entry("x", "u")])}
        reo_tables = {"sp-reo": (ReorderingEntry(("a",), ("x",), probs),),
                      "pt-reo": (ReorderingEntry(("x",), ("u",), probs),)}
        paths = {name: tmp_path / f"{name}.txt" for name in (*tables, *reo_tables)}
        for name, tbl in tables.items():
            with open(paths[name], "w", encoding="utf-8") as stream:
                write_phrase_table(tbl, stream)
        for name, entries in reo_tables.items():
            with open(paths[name], "w", encoding="utf-8") as stream:
                write_reordering_table(entries, stream)
        with caplog.at_level(logging.INFO, logger="pivotsmith"):
            pivot_reordering(reo_tables["sp-reo"], reo_tables["pt-reo"],
                             tables["sp"], tables["pt"])
            library = [r for r in caplog.records if "reordering" in r.getMessage()]
            caplog.clear()
            assert main(["pivot", "--sp", str(paths["sp"]), "--pt", str(paths["pt"]),
                         "-o", str(tmp_path / "out.txt"),
                         "--reordering-sp", str(paths["sp-reo"]),
                         "--reordering-pt", str(paths["pt-reo"]),
                         "--reordering-out", str(tmp_path / "reo-out.txt")]) == 0
            command = [r for r in caplog.records if "reordering" in r.getMessage()]
        line = ("pivotsmith.triangulate", logging.INFO,
                "source-pivot reordering table (1 entries) is validated"
                " but unused by the pivot mixture")
        assert [(r.name, r.levelno, r.getMessage()) for r in library] == [line]
        assert [(r.name, r.levelno, r.getMessage()) for r in command] == [line]


class TestConfig:
    def test_default_top_n(self):
        assert PivotConfig().top_n == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            PivotConfig(top_n=0)
        with pytest.raises(ValueError):
            PivotConfig(min_alignment_links=-1)
        with pytest.raises(ValueError):
            PivotConfig(chunk_size=0)
