"""Command line behavior: happy paths, exit codes, determinism."""

from __future__ import annotations

import importlib
import io
import logging
import os
import random
import stat
import subprocess
import sys
import threading

import pytest

from conftest import (
    child_env,
    child_modules,
    entry,
    oracle_compose,
    oracle_format_reordering_row,
    oracle_format_row,
    oracle_reordering,
    random_pivot_pair,
    table,
)
import pivotsmith
from pivotsmith.cli import build_parser, main
from pivotsmith.evalkit import DecodeConfig
from pivotsmith.tablecore import read_reordering_rows, read_rows
from pivotsmith.tables import (
    ReorderingEntry,
    parse_phrase_table,
    parse_reordering_table,
    pivot_compose,
    pivot_reordering,
    write_phrase_table,
    write_reordering_table,
)
from pivotsmith.triangulate import PivotConfig, compose_rows


REO_LINE = "x ||| u ||| 0.8 0.1 0.1 0.6 0.2 0.2\n"


def write_table(tbl, path):
    with open(path, "w", encoding="utf-8") as stream:
        write_phrase_table(tbl, stream)


@pytest.fixture
def toy_files(tmp_path):
    sp = table([
        entry("a", "x", scores=(0.5, 0.5, 0.5, 0.5), align=[(0, 0)]),
        entry("a", "y", scores=(0.5, 0.5, 0.5, 0.5), align=[(0, 0)]),
        entry("b", "x", scores=(1.0, 1.0, 1.0, 1.0), align=[(0, 0)]),
    ])
    pt = table([
        entry("x", "u", scores=(0.75, 0.75, 0.5, 0.5), align=[(0, 0)]),
        entry("x", "v", scores=(0.25, 0.25, 0.5, 0.5), align=[(0, 0)]),
        entry("y", "u", scores=(1.0, 1.0, 0.5, 0.5), align=[(0, 0)]),
    ])
    sp_path = tmp_path / "sp.txt"
    pt_path = tmp_path / "pt.txt"
    write_table(sp, sp_path)
    write_table(pt, pt_path)
    return sp, pt, str(sp_path), str(pt_path), tmp_path


class TestPivotCommand:
    def test_matches_library_output(self, toy_files):
        sp, pt, sp_path, pt_path, tmp_path = toy_files
        out_path = tmp_path / "out.txt"
        assert main(["pivot", "--sp", sp_path, "--pt", pt_path,
                     "-o", str(out_path)]) == 0
        expected = io.StringIO()
        write_phrase_table(pivot_compose(sp, pt), expected)
        assert out_path.read_text() == expected.getvalue()

    @pytest.mark.parametrize("flag", ["--weights-sp", "--weights-pt"])
    def test_incomplete_weights_name_their_flag_and_file(self, toy_files, capsys,
                                                         flag):
        _, _, sp_path, pt_path, tmp_path = toy_files
        weights = tmp_path / "w.cfg"
        weights.write_text("phi_fwd = 1\nphi_bwd = 1\nlex_fwd = 1\n")
        out_path = tmp_path / "out.txt"
        assert main(["pivot", "--sp", sp_path, "--pt", pt_path, "-o", str(out_path),
                     flag, str(weights)]) == 1
        assert f"pivotsmith: error: {flag} {weights}: no weight configured" \
            " for feature 'lex_bwd'" in capsys.readouterr().err
        assert not out_path.exists()

    def test_reruns_are_byte_identical(self, toy_files):
        _, _, sp_path, pt_path, tmp_path = toy_files
        outputs = []
        for k in range(3):
            out_path = tmp_path / f"out{k}.txt"
            assert main(["pivot", "--sp", sp_path, "--pt", pt_path,
                         "-o", str(out_path), "--chunk-size", "2"]) == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_stdout_and_stdin(self, toy_files, capsys, monkeypatch):
        _, _, sp_path, pt_path, _ = toy_files
        with open(pt_path, encoding="utf-8") as stream:
            monkeypatch.setattr("sys.stdin", stream)
            assert main(["pivot", "--sp", sp_path, "--pt", "-"]) == 0
        out = capsys.readouterr().out
        assert "a ||| u |||" in out

    def test_both_stdin_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pivot", "--sp", "-", "--pt", "-"])
        assert exc.value.code == 2

    def test_data_error_exits_one_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("a ||| x ||| 2.0 1 1 1 |||\n")
        good = tmp_path / "good.txt"
        good.write_text("x ||| u ||| 1 1 1 1 |||\n")
        assert main(["pivot", "--sp", str(bad), "--pt", str(good)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "score out of range" in err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text("x ||| u ||| 1 1 1 1 |||\n")
        assert main(["pivot", "--sp", str(tmp_path / "nope"),
                     "--pt", str(good)]) == 1
        assert "error" in capsys.readouterr().err

    def test_tmpdir_env_and_flag(self, toy_files, monkeypatch):
        _, _, sp_path, pt_path, tmp_path = toy_files
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setenv("PIVOTSMITH_TMPDIR", str(scratch))
        out_path = tmp_path / "out.txt"
        assert main(["pivot", "--sp", sp_path, "--pt", pt_path,
                     "-o", str(out_path), "--chunk-size", "1"]) == 0
        assert list(scratch.iterdir()) == []
        assert out_path.read_text()

    def test_reordering_outputs_match_library(self, toy_files):
        sp, pt, sp_path, pt_path, tmp_path = toy_files
        reo_pt = tmp_path / "reo_pt.txt"
        reo_pt.write_text(
            "x ||| u ||| 0.8 0.1 0.1 0.6 0.2 0.2\n"
            "y ||| u ||| 0.2 0.4 0.4 0.3 0.3 0.4\n")
        out_path = tmp_path / "out.txt"
        reo_out = tmp_path / "reo_out.txt"
        assert main(["pivot", "--sp", sp_path, "--pt", pt_path,
                     "-o", str(out_path),
                     "--reordering-pt", str(reo_pt),
                     "--reordering-out", str(reo_out)]) == 0
        got = parse_reordering_table(
            reo_out.read_text().splitlines(keepends=True))
        with open(reo_pt, encoding="utf-8") as stream:
            pt_reo = parse_reordering_table(stream)
        want = pivot_reordering((), pt_reo, sp, pt)
        assert got == want

    def test_reordering_matches_oracle_through_stdin_and_stdout(
            self, tmp_path, capsys, monkeypatch):
        rng = random.Random(2024)
        sp, pt = random_pivot_pair(rng, n_src=12, n_pivot=6, n_tgt=10)

        def triples():
            probs = []
            for _ in range(2):
                raw = [rng.random() + 0.01 for _ in range(3)]
                probs.extend(value / sum(raw) for value in raw)
            return tuple(probs)

        sp_path, pt_path, reo_path, reo_out = (
            tmp_path / name for name in ("sp.txt", "pt.txt", "reo.txt", "reo-out.txt"))
        write_table(sp, sp_path)
        write_table(pt, pt_path)
        with open(reo_path, "w", encoding="utf-8") as stream:
            write_reordering_table([ReorderingEntry(e.src, e.tgt, triples())
                                    for e in pt.entries[::2]], stream)
        # The oracle reads the tables as written, scores rounded to 6 digits.
        with open(sp_path, encoding="utf-8") as stream:
            sp = parse_phrase_table(stream)
        with open(pt_path, encoding="utf-8") as stream:
            pt = parse_phrase_table(stream)
        with open(reo_path, encoding="utf-8") as stream:
            pt_reo = parse_reordering_table(stream)

        with open(sp_path, encoding="utf-8") as stream:
            monkeypatch.setattr("sys.stdin", stream)
            assert main(["pivot", "--sp", "-", "--pt", str(pt_path), "-o", "-",
                         "--chunk-size", "1", "--min-links", "1",
                         "--reordering-pt", str(reo_path),
                         "--reordering-out", str(reo_out)]) == 0
        composed = parse_phrase_table(io.StringIO(capsys.readouterr().out))
        got = parse_reordering_table(reo_out.read_text().splitlines(keepends=True))
        want = oracle_reordering(sp, pt, pt_reo, min_links=1)
        assert 0 < len(want) < len(oracle_compose(sp, pt))
        assert {(e.src, e.tgt): e.probs for e in got} == want
        assert [(e.src, e.tgt) for e in composed] == sorted(want)

    @pytest.mark.parametrize("chunk, join", [
        (None, "in-memory pivot store"), ("3", "disk pivot store"),
    ], ids=["hash", "sort-merge"])
    def test_reordering_out_bytes_are_the_single_row_formats(
            self, tmp_path, caplog, chunk, join):
        # Forty sources over four pivots: every pivot is a hub, so one
        # source's rows arrive together and repeat orientation values.
        rng = random.Random(2025)
        sp, pt = random_pivot_pair(rng, n_src=40, n_pivot=4, n_tgt=30)
        paths = {name: tmp_path / f"{name}.txt"
                 for name in ("sp", "pt", "reo", "out", "reo-out")}
        write_table(sp, paths["sp"])
        write_table(pt, paths["pt"])
        thirds = (0.33333333333333337, 1 / 3, 0.33333333333333326)
        with open(paths["reo"], "w", encoding="utf-8") as stream:
            write_reordering_table([ReorderingEntry(e.src, e.tgt, rng.choice(
                [thirds * 2, (0.5, 0.25, 0.25, 1e-9, 0.5, 0.5 - 1e-9)]))
                for e in pt.entries], stream)
        argv = ["pivot", "--sp", str(paths["sp"]), "--pt", str(paths["pt"]),
                "-o", str(paths["out"]), "--reordering-pt", str(paths["reo"]),
                "--reordering-out", str(paths["reo-out"])]
        with caplog.at_level(logging.INFO, logger="pivotsmith"):
            assert main(argv + (["--chunk-size", chunk] if chunk else [])) == 0
        assert join in caplog.text

        with open(paths["sp"], encoding="utf-8") as sp_in, \
                open(paths["pt"], encoding="utf-8") as pt_in, \
                open(paths["reo"], encoding="utf-8") as reo_in:
            sp_extras, sp_rows = read_rows(sp_in)
            pt_extras, pt_rows = read_rows(pt_in)
            rows = list(compose_rows(sp_rows, sp_extras, pt_rows, pt_extras,
                                     PivotConfig(), pt_reo_rows=read_reordering_rows(reo_in)))
        assert len({row[0] for row in rows}) == 40
        assert paths["out"].read_text(encoding="utf-8") == "".join(
            oracle_format_row((src, tgt, scores[:4], align)) + "\n"
            for src, tgt, scores, align in rows)
        assert paths["reo-out"].read_text(encoding="utf-8") == "".join(
            oracle_format_reordering_row(src, tgt, scores[4:]) + "\n"
            for src, tgt, scores, _ in rows)

    @pytest.mark.parametrize("sp_reo, message", [
        ("y ||| u ||| 0.2 0.4 0.4 0.3 0.3 0.4\n" + REO_LINE, None),
        (REO_LINE * 2, "duplicate reordering entry for pair 'x' -> 'u'"),
        ("x ||| u ||| 0.5 0.5\n", "{sp_reo}: line 1: expected 6 probabilities, got 2"),
    ], ids=["valid", "duplicate", "malformed"])
    def test_reordering_sp_is_validated_only(self, toy_files, caplog, capsys,
                                             sp_reo, message):
        _, _, sp_path, pt_path, tmp_path = toy_files
        (tmp_path / "sp-reo.txt").write_text(sp_reo)
        (tmp_path / "pt-reo.txt").write_text(REO_LINE)
        out = tmp_path / "o.txt"
        argv = ["pivot", "--sp", sp_path, "--pt", pt_path, "-o", str(out),
                "--reordering-sp", str(tmp_path / "sp-reo.txt"),
                "--reordering-pt", str(tmp_path / "pt-reo.txt"),
                "--reordering-out", str(tmp_path / "r.txt")]
        with caplog.at_level(logging.INFO, logger="pivotsmith"):
            rc = main(argv)
        if message is None:
            assert rc == 0
            assert ("source-pivot reordering table (2 entries) is validated"
                    " but unused by the pivot mixture") in caplog.text
        else:
            assert rc == 1
            message = message.format(sp_reo=tmp_path / "sp-reo.txt")
            assert capsys.readouterr().err == f"pivotsmith: error: {message}\n"
            assert not out.exists()

    def test_reordering_sp_duplicate_leaves_scratch_empty(self, toy_files, capsys):
        # At --chunk-size 2 the validation sort spills its runs to scratch.
        _, _, sp_path, pt_path, tmp_path = toy_files
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        lines = [f"s{i} ||| u ||| 0.5 0.25 0.25 0.5 0.25 0.25\n" for i in range(9)]
        (tmp_path / "sp-reo.txt").write_text("".join(lines + lines[4:5]))
        (tmp_path / "pt-reo.txt").write_text(REO_LINE)
        out = tmp_path / "o.txt"
        rc = main(["pivot", "--sp", sp_path, "--pt", pt_path, "-o", str(out),
                   "--reordering-sp", str(tmp_path / "sp-reo.txt"),
                   "--reordering-pt", str(tmp_path / "pt-reo.txt"),
                   "--reordering-out", str(tmp_path / "r.txt"),
                   "--chunk-size", "2", "--tmpdir", str(scratch)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "pivotsmith: error: duplicate reordering entry for pair 's4' -> 'u'\n")
        assert list(scratch.iterdir()) == []
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ["--sp", "-", "--reordering-pt", "-"],
        ["--pt", "-", "--reordering-sp", "-", "--reordering-pt", "r.txt"],
        ["--reordering-pt", "r.txt", "--reordering-out", "-"],
    ])
    def test_reordering_stdio_conflicts_rejected(self, toy_files, extra):
        _, _, sp_path, pt_path, tmp_path = toy_files
        argv = ["pivot", "--sp", sp_path, "--pt", pt_path,
                "--reordering-out", str(tmp_path / "r.txt")]
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2

    def test_reordering_needs_pt_table(self, toy_files):
        _, _, sp_path, pt_path, tmp_path = toy_files
        with pytest.raises(SystemExit) as exc:
            main(["pivot", "--sp", sp_path, "--pt", pt_path,
                  "-o", str(tmp_path / "o.txt"),
                  "--reordering-out", str(tmp_path / "r.txt")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--reordering-pt", "--reordering-sp"])
    def test_reordering_input_needs_reordering_out(self, toy_files, capsys, flag):
        # The table is refused before it is opened, so it need not exist.
        _, _, sp_path, pt_path, tmp_path = toy_files
        out = tmp_path / "o.txt"
        with pytest.raises(SystemExit) as exc:
            main(["pivot", "--sp", sp_path, "--pt", pt_path, "-o", str(out),
                  flag, str(tmp_path / "missing.txt")])
        assert exc.value.code == 2
        assert f"{flag} requires --reordering-out" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
    def test_output_and_reordering_out_must_differ(self, toy_files, capsys,
                                                   spelling):
        _, _, sp_path, pt_path, tmp_path = toy_files
        (tmp_path / "pt-reo.txt").write_text(REO_LINE)
        out = tmp_path / "o.txt"
        reo_out = {"same": str(out), "dot": f"{tmp_path}/./o.txt",
                   "symlink": str(tmp_path / "link.txt")}[spelling]
        if spelling == "symlink":
            os.symlink(out, reo_out)
        # A missing weights file shows that no input is read first.
        with pytest.raises(SystemExit) as exc:
            main(["pivot", "--sp", sp_path, "--pt", pt_path, "-o", str(out),
                  "--weights-sp", str(tmp_path / "missing.cfg"),
                  "--reordering-pt", str(tmp_path / "pt-reo.txt"),
                  "--reordering-out", reo_out])
        assert exc.value.code == 2
        assert ("-o and --reordering-out must name different files"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("chunk", [["--chunk-size", "1"], []],
                             ids=["merge", "hash"])
    @pytest.mark.parametrize("repeated,message", [
        ("pt", "duplicate entry in pivot-target table for pair 'r' -> 'w'"),
        ("reordering", "duplicate reordering entry for pair 'r' -> 'w'"),
    ], ids=["pt", "reordering"])
    def test_repeated_pair_after_the_last_shared_pivot_exits_one(
            self, tmp_path, capsys, chunk, repeated, message):
        # The repeated pair sorts after every pivot the source-pivot table
        # reaches, so only a join that reads its inputs to the end sees it.
        sp_path, pt_path, reo_path = (tmp_path / name
                                      for name in ("sp.txt", "pt.txt", "reo.txt"))
        sp_path.write_text("a ||| p ||| 1 1 1 1 |||\n")
        pt_lines = ["p ||| u", "q ||| v", "r ||| w", "r ||| w"]
        if repeated == "reordering":
            pt_path.write_text("".join(f"{line} ||| 1 1 1 1 |||\n"
                                       for line in pt_lines[:3]))
            reo_path.write_text("".join(f"{line} ||| 0.5 0.25 0.25 0.5 0.25 0.25\n"
                                        for line in pt_lines))
        else:
            pt_path.write_text("".join(f"{line} ||| 1 1 1 1 |||\n" for line in pt_lines))
            reo_path.write_text("p ||| u ||| 0.5 0.25 0.25 0.5 0.25 0.25\n")
        out, reo_out = tmp_path / "out.txt", tmp_path / "reo-out.txt"
        assert main(["pivot", "--sp", str(sp_path), "--pt", str(pt_path),
                     "-o", str(out), "--reordering-pt", str(reo_path),
                     "--reordering-out", str(reo_out), *chunk]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists() and not reo_out.exists()

    def test_min_links_flag(self, tmp_path):
        sp = tmp_path / "sp.txt"
        sp.write_text("a ||| x ||| 1 1 1 1 ||| 0-0\nb ||| y ||| 1 1 1 1 |||\n")
        pt = tmp_path / "pt.txt"
        pt.write_text("x ||| u ||| 1 1 1 1 ||| 0-0\ny ||| v ||| 1 1 1 1 |||\n")
        out = tmp_path / "out.txt"
        assert main(["pivot", "--sp", str(sp), "--pt", str(pt),
                     "-o", str(out), "--min-links", "1"]) == 0
        assert out.read_text() == "a ||| u ||| 1 1 1 1 ||| 0-0\n"


class TestOutputFiles:
    """A failed command leaves no partial output; special targets stay put."""

    def test_unopenable_reordering_out_leaves_no_table(self, toy_files):
        _, _, sp_path, pt_path, tmp_path = toy_files
        reo_pt = tmp_path / "reo_pt.txt"
        reo_pt.write_text("x ||| u ||| 0.8 0.1 0.1 0.6 0.2 0.2\n")
        before = sorted(os.listdir(tmp_path))
        assert main(["pivot", "--sp", sp_path, "--pt", pt_path,
                     "-o", str(tmp_path / "out.txt"),
                     "--reordering-pt", str(reo_pt),
                     "--reordering-out", str(tmp_path / "missing-dir" / "reo.txt")]) == 1
        assert sorted(os.listdir(tmp_path)) == before

    def test_bad_last_line_leaves_existing_output_unchanged(self, toy_files, capsys):
        _, _, sp_path, pt_path, tmp_path = toy_files
        bad = tmp_path / "bad.txt"
        bad.write_text((tmp_path / "sp.txt").read_text() + "c ||| x ||| 2.0 1 1 1 |||\n")
        out = tmp_path / "out.txt"
        out.write_bytes(b"previous run\n")
        before = sorted(os.listdir(tmp_path))
        assert main(["pivot", "--sp", str(bad), "--pt", pt_path, "-o", str(out),
                     "--chunk-size", "1"]) == 1
        assert "score out of range" in capsys.readouterr().err
        assert out.read_bytes() == b"previous run\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_new_file_gets_umask_bits_and_existing_file_keeps_its_bits(self, toy_files):
        _, _, sp_path, pt_path, tmp_path = toy_files
        fresh, kept = tmp_path / "fresh.txt", tmp_path / "kept.txt"
        kept.write_text("old\n")
        kept.chmod(0o640)
        umask = os.umask(0o027)
        try:
            for out in (fresh, kept):
                assert main(["pivot", "--sp", sp_path, "--pt", pt_path,
                             "-o", str(out)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o640
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert kept.read_bytes() == fresh.read_bytes() != b"old\n"

    def test_symlink_and_fifo_are_written_in_place(self, toy_files):
        _, _, sp_path, pt_path, tmp_path = toy_files
        target, link, fifo = (tmp_path / n for n in ("target.txt", "link.txt", "fifo"))
        target.write_text("old\n")
        link.symlink_to(target)
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            for out in (link, fifo):
                assert main(["pivot", "--sp", sp_path, "--pt", pt_path,
                             "-o", str(out)]) == 0
            piped = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert link.is_symlink() and stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert target.read_bytes() == piped
        assert piped.startswith(b"a ||| u |||")


class TestFilterCommand:
    def test_top_one(self, toy_files, capsys):
        _, _, _, pt_path, _ = toy_files
        assert main(["filter", "-i", pt_path, "--top-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "x ||| u |||" in out
        assert "x ||| v |||" not in out
        assert "y ||| u |||" in out

    def test_weights_file(self, toy_files, tmp_path, capsys):
        _, _, _, pt_path, _ = toy_files
        weights = tmp_path / "w.cfg"
        weights.write_text("phi_fwd = -1.0\nlex_fwd = 0\nphi_bwd = 0\nlex_bwd = 0\n")
        assert main(["filter", "-i", pt_path, "--top-n", "1",
                     "--weights", str(weights)]) == 0
        out = capsys.readouterr().out
        # Negative weight inverts the ranking for the x group.
        assert "x ||| v |||" in out

    def test_incomplete_weights_exit_one(self, toy_files, tmp_path, capsys):
        _, _, _, pt_path, _ = toy_files
        weights = tmp_path / "w.cfg"
        weights.write_text("phi_fwd = 1.0\n")
        assert main(["filter", "-i", pt_path, "--top-n", "1",
                     "--weights", str(weights)]) == 1
        assert f"pivotsmith: error: --weights {weights}: no weight configured" \
            " for feature 'lex_fwd'" in capsys.readouterr().err


MORPH_SRC_CORPUS = (
    "sa\tNOUN\tFeminine\tSingular\tNA\n"
    "sb\tNOUN\tMasculine\tSingular\tNA\n"
    "\n"
    "sa\tNOUN\tFeminine\tSingular\tNA\n"
)
MORPH_TGT_CORPUS = (
    "ta\tNOUN\tFeminine\tSingular\tNA\n"
    "tb\tNOUN\tMasculine\tSingular\tNA\n"
)


@pytest.fixture
def morph_files(tmp_path):
    src_corpus = tmp_path / "src_tagged.tsv"
    tgt_corpus = tmp_path / "tgt_tagged.tsv"
    src_corpus.write_text(MORPH_SRC_CORPUS)
    tgt_corpus.write_text(MORPH_TGT_CORPUS)
    src_lex = tmp_path / "src.lex"
    tgt_lex = tmp_path / "tgt.lex"
    assert main(["lexicon", "-i", str(src_corpus), "-o", str(src_lex)]) == 0
    assert main(["lexicon", "-i", str(tgt_corpus), "-o", str(tgt_lex)]) == 0
    return tmp_path, src_lex, tgt_lex


class TestMorphCommands:
    def test_lexicon_output(self, morph_files):
        _, src_lex, _ = morph_files
        text = src_lex.read_text()
        assert "sa\tNOUN\tFeminine\tSingular\tNA\t[Feminine+Singular]\t2\n" in text

    def test_lexicon_corpus_error_names_its_file(self, morph_files, capsys):
        tmp_path, _, _ = morph_files
        corp = tmp_path / "corp"
        corp.write_text("sa\tNOUN\n")
        out = tmp_path / "corp.lex"
        assert main(["lexicon", "-i", str(tmp_path / "src_tagged.tsv"),
                     "-i", str(corp), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"pivotsmith: error: {corp}: line 1: expected 5 tab-separated fields,"
            " got 2\n")
        assert not out.exists()

    def test_fc_train_alignment_error_names_its_file(self, morph_files, capsys):
        tmp_path, src_lex, tgt_lex = morph_files
        (tmp_path / "psrc.txt").write_text("sa\n")
        (tmp_path / "ptgt.txt").write_text("ta\n")
        align = tmp_path / "align"
        align.write_text("0-x\n")
        assert main(["fc-train", "--src", str(tmp_path / "psrc.txt"),
                     "--tgt", str(tmp_path / "ptgt.txt"), "--align", str(align),
                     "--src-lex", str(src_lex), "--tgt-lex", str(tgt_lex),
                     "-o", str(tmp_path / "model.tsv")]) == 1
        assert capsys.readouterr().err == (
            f"pivotsmith: error: {align}: line 1: malformed alignment point '0-x'\n")

    def test_fc_train_and_annotate(self, morph_files):
        tmp_path, src_lex, tgt_lex = morph_files
        (tmp_path / "psrc.txt").write_text("sa sb\nsa\n")
        (tmp_path / "ptgt.txt").write_text("ta tb\nta\n")
        (tmp_path / "palign.txt").write_text("0-0 1-1\n0-0\n")
        model_path = tmp_path / "model.tsv"
        assert main(["fc-train", "--src", str(tmp_path / "psrc.txt"),
                     "--tgt", str(tmp_path / "ptgt.txt"),
                     "--align", str(tmp_path / "palign.txt"),
                     "--src-lex", str(src_lex), "--tgt-lex", str(tgt_lex),
                     "-o", str(model_path)]) == 0
        text = model_path.read_text()
        assert "[Feminine+Singular]\t[Feminine+Singular]\t1\t1\n" in text

        tbl = tmp_path / "table.txt"
        tbl.write_text("sa ||| ta ||| 1 1 1 1 ||| 0-0\n"
                       "sa ||| tb ||| 1 1 1 1 ||| 0-0\n")
        out = tmp_path / "annotated.txt"
        assert main(["annotate", "-i", str(tbl), "-o", str(out),
                     "--kind", "induced",
                     "--src-lex", str(src_lex), "--tgt-lex", str(tgt_lex),
                     "--fc-model", str(model_path)]) == 0
        annotated = parse_phrase_table(out.read_text().splitlines())
        assert annotated.manifest[4:] == ("morph_fc_s", "morph_fc_t")
        by_tgt = {e.tgt: e for e in annotated}
        assert by_tgt[("ta",)].scores.extra("morph_fc_s") == 1.0
        assert by_tgt[("tb",)].scores.extra("morph_fc_s") == 0.0

    def test_annotate_connectivity_threads_identical(self, tmp_path):
        rng = random.Random(71)
        sp, _ = random_pivot_pair(rng, n_src=15, n_pivot=10)
        tbl = tmp_path / "t.txt"
        write_table(sp, tbl)
        outs = []
        for threads in ("1", "8"):
            out = tmp_path / f"o{threads}.txt"
            assert main(["annotate", "-i", str(tbl), "-o", str(out),
                         "--kind", "connectivity", "--threads", threads]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_annotate_rules_with_bundled_default(self, morph_files):
        tmp_path, src_lex, tgt_lex = morph_files
        tbl = tmp_path / "table.txt"
        tbl.write_text("sa ||| ta ||| 1 1 1 1 ||| 0-0\n")
        out = tmp_path / "annotated.txt"
        assert main(["annotate", "-i", str(tbl), "-o", str(out),
                     "--kind", "rules",
                     "--src-lex", str(src_lex), "--tgt-lex", str(tgt_lex)]) == 0
        annotated = parse_phrase_table(out.read_text().splitlines())
        e = annotated.entries[0]
        # gen and num agree under the bundled pairs, det and pos do not.
        assert e.scores.extra("morph_rule_s") == pytest.approx(0.5)

    def test_annotate_missing_lexicons_is_usage_error(self, tmp_path):
        tbl = tmp_path / "t.txt"
        tbl.write_text("a ||| x ||| 1 1 1 1 |||\n")
        with pytest.raises(SystemExit) as exc:
            main(["annotate", "-i", str(tbl), "--kind", "rules"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("kind, flag, value", [
        ("connectivity", "--features", "gen"),
        ("connectivity", "--src-lex", "L"),
        ("rules", "--fc-model", "M"),
        ("induced", "--rules", "R"),
        ("induced", "--features", "gen"),
    ])
    def test_flag_of_another_kind_is_usage_error(self, morph_files, capsys,
                                                 kind, flag, value):
        # Without the stray flag each command would run and exit 0.
        tmp_path, src_lex, tgt_lex = morph_files
        tbl = tmp_path / "t.txt"
        tbl.write_text("sa ||| ta ||| 1 1 1 1 ||| 0-0\n")
        model = tmp_path / "model.tsv"
        model.write_text("[Feminine+Singular]\t[Feminine+Singular]\t1\t1\n")
        out = tmp_path / "out.txt"
        argv = ["annotate", "-i", str(tbl), "-o", str(out), "--kind", kind]
        if kind != "connectivity":
            argv += ["--src-lex", str(src_lex), "--tgt-lex", str(tgt_lex)]
        if kind == "induced":
            argv += ["--fc-model", str(model)]
        assert main(argv) == 0
        out.unlink()
        argv += [flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: --kind {kind} does not read {flag}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_rules_check_queries(self, capsys):
        assert main(["rules-check",
                     "--pair", "gen", "Feminine", "Both",
                     "--pair", "gen", "Masculine", "Feminine"]) == 0
        out = capsys.readouterr().out
        assert "gen Feminine Both: allowed" in out
        assert "gen Masculine Feminine: rejected" in out

    def test_rules_check_summary(self, capsys):
        assert main(["rules-check"]) == 0
        out = capsys.readouterr().out
        assert "total: 13 pairs" in out

    @pytest.mark.parametrize("command", ["rules-check", "annotate"])
    def test_unknown_feature_in_rules_file_names_its_line(self, morph_files, capsys,
                                                          command):
        tmp_path, src_lex, tgt_lex = morph_files
        rules = tmp_path / "rules.tsv"
        rules.write_text("gen\tA\tB\nbogus\tA\tB\n", encoding="utf-8")
        argv = [command, "--rules", str(rules)]
        if command == "annotate":
            tbl = tmp_path / "table.txt"
            tbl.write_text("sa ||| ta ||| 1 1 1 1 ||| 0-0\n", encoding="utf-8")
            argv += ["-i", str(tbl), "--kind", "rules",
                     "--src-lex", str(src_lex), "--tgt-lex", str(tgt_lex)]
        assert main(argv + ["-o", str(tmp_path / "out.txt")]) == 1
        assert f"pivotsmith: error: {rules}: line 2: unknown feature 'bogus'," \
            " expected one of" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    def test_rules_check_unknown_feature_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rules-check", "--pair", "gen", "Feminine", "Both",
                  "--pair", "gender", "Feminine", "Both"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown feature 'gender', expected one of" in captured.err

    @pytest.mark.parametrize("argv,message", [
        (["lexicon", "--fc-features", "gen,gen"],
         "argument --fc-features: repeated feature in 'gen,gen'"),
        (["annotate", "--kind", "rules", "--features", "gen,num,GEN"],
         "argument --features: repeated feature in 'gen,num,GEN'"),
        (["annotate", "--kind", "connectivity", "--names", "a,a"],
         "argument --names: the two names must differ"),
    ], ids=["fc-features", "features", "names"])
    def test_flag_value_wrong_on_its_own_is_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestCombineCommand:
    def test_merges_with_origins(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("a ||| x ||| 0.9 0.9 0.9 0.9 |||\n")
        b.write_text("a ||| x ||| 0.1 0.1 0.1 0.1 |||\n")
        assert main(["combine", "-i", f"direct={a}", "-i", f"pivoted={b}"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("#features: origin_direct origin_pivoted\n")
        assert out.count("a ||| x |||") == 2

    def test_single_input_is_usage_error(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("a ||| x ||| 1 1 1 1 |||\n")
        with pytest.raises(SystemExit) as exc:
            main(["combine", "-i", f"one={a}"])
        assert exc.value.code == 2

    def test_repeated_name_is_usage_error(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("a ||| x ||| 1 1 1 1 |||\n")
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main(["combine", "-i", f"a={a}", "-i", f"b={a}", "-i", f"a={a}",
                  "-o", str(out)])
        assert exc.value.code == 2
        assert "error: the -i names must differ, got a, b, a\n" in capsys.readouterr().err
        assert not out.exists()


class TestDecodeAndBleu:
    def test_incomplete_weights_name_their_flag_and_file(self, tmp_path, capsys):
        tbl = tmp_path / "t.txt"
        tbl.write_text("a ||| A ||| 1 1 1 1 |||\n")
        inp = tmp_path / "in.txt"
        inp.write_text("a\n")
        weights = tmp_path / "w.cfg"
        weights.write_text("phi_fwd = 1\nphi_bwd = 1\nlex_fwd = 1\n")
        assert main(["decode", "--table", str(tbl), "--input", str(inp),
                     "--weights", str(weights), "-o", str(tmp_path / "out.txt")]) == 1
        assert f"pivotsmith: error: --weights {weights}: no weight configured" \
            " for feature 'lex_bwd'" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    def test_decode_to_file(self, tmp_path):
        tbl = tmp_path / "t.txt"
        tbl.write_text("a ||| A ||| 1 1 1 1 |||\n"
                       "b c ||| BC ||| 1 1 1 1 |||\n")
        inp = tmp_path / "in.txt"
        inp.write_text("a b c\nzzz a\n\n")
        out = tmp_path / "out.txt"
        assert main(["decode", "--table", str(tbl), "--input", str(inp),
                     "-o", str(out)]) == 0
        assert out.read_text() == "A BC\nzzz A\n\n"

    def test_decode_reads_phrases_up_to_max_phrase_len(self, tmp_path):
        nine = " ".join(f"w{i}" for i in range(9))
        tbl = tmp_path / "t.txt"
        tbl.write_text(f"{nine} ||| NINE ||| 1 1 1 1 |||\n"
                       "w0 ||| W0 ||| 0.5 0.5 0.5 0.5 |||\n")
        inp = tmp_path / "in.txt"
        inp.write_text(nine + "\n")
        out = tmp_path / "out.txt"
        argv = ["decode", "--table", str(tbl), "--input", str(inp), "-o", str(out)]
        # Under the default of 8 the index skips the nine-token phrase.
        assert main(argv) == 0
        assert out.read_text() == "W0 w1 w2 w3 w4 w5 w6 w7 w8\n"
        assert main(argv + ["--max-phrase-len", "10"]) == 0
        assert out.read_text() == "NINE\n"

    def test_a_nine_token_phrase_goes_through_every_table_command(self, tmp_path):
        nine = " ".join(f"w{i}" for i in range(9))
        sp = tmp_path / "sp.txt"
        sp.write_text(f"{nine} ||| x ||| 0.5 0.5 0.5 0.5 ||| 0-0\n")
        pt = tmp_path / "pt.txt"
        pt.write_text("x ||| NINE ||| 0.5 0.5 0.5 0.5 ||| 0-0\n")
        inp = tmp_path / "in.txt"
        inp.write_text(nine + "\n")

        def run(name, *argv):
            out = tmp_path / name
            assert main([*argv, "-o", str(out)]) == 0, argv
            return out

        pivoted = run("pivoted.txt", "pivot", "--sp", str(sp), "--pt", str(pt))
        filtered = run("filtered.txt", "filter", "-i", str(pivoted))
        annotated = run("annotated.txt", "annotate", "-i", str(filtered),
                        "--kind", "connectivity")
        combined = run("combined.txt", "combine", "-i", f"direct={sp}",
                       "-i", f"pivoted={filtered}")
        run("stats.txt", "stats", "-i", str(annotated))
        run("size.txt", "estimate-size", "--sp", str(sp), "--pt", str(pt))
        decoded = run("out.txt", "decode", "--table", str(combined),
                      "--input", str(inp), "--max-phrase-len", "9")
        assert pivoted.read_text() == f"{nine} ||| NINE ||| 0.25 0.25 0.25 0.25 ||| 0-0\n"
        # The direct entry's scores of 0.5 beat the pivoted entry's 0.25.
        assert decoded.read_text() == "x\n"

    def test_decode_threads_identical(self, tmp_path):
        rng = random.Random(72)
        vocab = [f"w{i}" for i in range(8)]
        lines = []
        seen = set()
        for _ in range(30):
            src = " ".join(rng.choice(vocab)
                           for _ in range(rng.randint(1, 3)))
            tgt = rng.choice(vocab).upper()
            if src in seen:
                continue
            seen.add(src)
            lines.append(f"{src} ||| {tgt} ||| 0.5 0.5 0.5 0.5 |||\n")
        tbl = tmp_path / "t.txt"
        tbl.write_text("".join(lines))
        inp = tmp_path / "in.txt"
        inp.write_text("".join(
            " ".join(rng.choice(vocab + ["oov"]) for _ in range(8)) + "\n"
            for _ in range(40)))
        outs = []
        for threads in ("1", "8"):
            out = tmp_path / f"o{threads}.txt"
            assert main(["decode", "--table", str(tbl), "--input", str(inp),
                         "-o", str(out), "--threads", threads]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bleu_output_format(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a b c d\n")
        ref.write_text("a b c d e\n")
        assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref)]) == 0
        out = capsys.readouterr().out
        assert "BLEU = 0.778801" in out
        assert "p1 = 1.000000" in out
        assert "BP = 0.778801" in out
        assert "hyp_len = 4" in out

    def test_bleu_multiple_references(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a b c d\n")
        ref1 = tmp_path / "r1.txt"
        ref1.write_text("w x y z\n")
        ref2 = tmp_path / "r2.txt"
        ref2.write_text("a b c d\n")
        assert main(["bleu", "--hyp", str(hyp),
                     "--ref", str(ref1), "--ref", str(ref2)]) == 0
        assert "BLEU = 1.000000" in capsys.readouterr().out

    def test_bleu_length_mismatch_exits_one(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a\nb\n")
        ref = tmp_path / "ref.txt"
        ref.write_text("a\n")
        assert main(["bleu", "--hyp", str(hyp), "--ref", str(ref)]) == 1
        assert capsys.readouterr().err == (
            f"pivotsmith: error: --hyp {hyp} has 2 sentences, --ref {ref} has 1\n")

    def test_bleu_count_mismatch_names_stdin_and_the_first_reference(
            self, tmp_path, capsys, monkeypatch):
        refs = [tmp_path / "r1.txt", tmp_path / "r2.txt"]
        for ref in refs:
            ref.write_text("a\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("a\nb\n"))
        assert main(["bleu", "--hyp", "-", "--ref", str(refs[0]),
                     "--ref", str(refs[1]), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"pivotsmith: error: --hyp stdin has 2 sentences, --ref {refs[0]} has 1\n")
        assert not (tmp_path / "out").exists()


class TestStatsAndEstimate:
    def test_stats_output(self, toy_files, capsys):
        _, _, sp_path, _, _ = toy_files
        assert main(["stats", "-i", sp_path]) == 0
        out = capsys.readouterr().out
        assert "entries\t3" in out
        assert "distinct_sources\t2" in out
        assert "features\tphi_fwd lex_fwd phi_bwd lex_bwd" in out
        assert out.count("hist\t") == 4

    def test_estimate_size(self, toy_files, capsys):
        _, _, sp_path, pt_path, _ = toy_files
        assert main(["estimate-size", "--sp", sp_path, "--pt", pt_path]) == 0
        # a->x, a->y, b->x against x->u, x->v, y->u enumerates 5 pairs.
        assert capsys.readouterr().out == "5\n"


class TestStdinOnce:
    """A second reader of stdin would see it empty, so it is a usage error."""

    @pytest.mark.parametrize("argv", [
        ["annotate", "--kind", "rules", "--src-lex", "-", "--tgt-lex", "L"],
        ["annotate", "-i", "T", "--kind", "induced", "--src-lex", "L",
         "--tgt-lex", "-", "--fc-model", "-"],
        ["combine", "-i", "a=-", "-i", "b=-"],
        ["decode", "--table", "-"],
        ["decode", "--table", "T", "--input", "-", "--weights", "-"],
        ["fc-train", "--src", "-", "--tgt", "-", "--align", "A",
         "--src-lex", "L", "--tgt-lex", "L"],
        ["bleu", "--hyp", "H", "--ref", "-", "--ref", "-"],
        ["filter", "--weights", "-"],
        ["pivot", "--sp", "-", "--pt", "P", "--weights-sp", "-"],
        ["pivot", "--sp", "S", "--pt", "P", "--weights-sp", "-", "--weights-pt", "-"],
        ["lexicon", "-i", "-", "-i", "-"],
    ], ids=lambda argv: " ".join(argv))
    def test_second_stdin_reader_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "only one input can read stdin" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["pivot", "--sp", "-", "--pt", "-"], "only one input table can read stdin"),
        (["estimate-size", "--sp", "-", "--pt", "-"],
         "only one of --sp and --pt can read stdin"),
    ])
    def test_pivot_and_estimate_keep_their_messages(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_one_stdin_reader_is_fine(self, tmp_path, monkeypatch, capsys):
        a = tmp_path / "a.txt"
        a.write_text("a ||| x ||| 1 1 1 1 |||\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("b ||| y ||| 1 1 1 1 |||\n"))
        assert main(["combine", "-i", f"a={a}", "-i", "b=-"]) == 0
        out = capsys.readouterr().out
        assert "a ||| x ||| 1 1 1 1 1 0 |||" in out
        assert "b ||| y ||| 1 1 1 1 0 1 |||" in out

    def test_unused_lexicon_flags_do_not_count(self, tmp_path, monkeypatch, capsys):
        # A flag the kind does not read is refused as such, not as a second
        # reader of stdin.
        monkeypatch.setattr("sys.stdin", io.StringIO("a ||| x ||| 1 1 1 1 ||| 0-0\n"))
        with pytest.raises(SystemExit) as exc:
            main(["annotate", "--kind", "connectivity", "--src-lex", "-"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --kind connectivity does not read --src-lex\n" in captured.err


class TestSingleThread:
    @pytest.fixture(autouse=True)
    def refuse_threads(self, monkeypatch):
        def start(thread):
            raise AssertionError(f"started thread {thread.name}")
        monkeypatch.setattr(threading.Thread, "start", start)

    def test_annotate_starts_no_thread(self, tmp_path):
        tbl = tmp_path / "t.txt"
        write_table(table([entry("a b", "x", align=[(0, 0), (1, 0)]),
                           entry("c", "y z", align=[(0, 1)])]), tbl)
        out = tmp_path / "o.txt"
        assert main(["annotate", "-i", str(tbl), "-o", str(out),
                     "--kind", "connectivity", "--threads", "8"]) == 0
        assert out.read_text() == ("#features: conn_s conn_t\n"
                                   "a b ||| x ||| 1 1 1 1 1 1 ||| 0-0 1-0\n"
                                   "c ||| y z ||| 1 1 1 1 1 0.5 ||| 0-1\n")

    def test_decode_starts_no_thread(self, tmp_path):
        tbl = tmp_path / "t.txt"
        tbl.write_text("a ||| X ||| 0.5 0.5 0.5 0.5 |||\n")
        inp = tmp_path / "in.txt"
        inp.write_text("a b\nb a a\n")
        out = tmp_path / "o.txt"
        assert main(["decode", "--table", str(tbl), "--input", str(inp),
                     "-o", str(out), "--threads", "8"]) == 0
        assert out.read_text() == "X b\nb X X\n"


# --- start-up: each command loads only its own modules ---------------------------

_BASE = ["pivotsmith", "pivotsmith.cli", "pivotsmith.tablecore"]


@pytest.fixture
def startup_files(tmp_path):
    paths = {name: tmp_path / f"{name}.txt"
             for name in ("sp", "pt", "in", "reo", "align", "corpus")}
    paths["sp"].write_text("a ||| x ||| 0.5 0.5 0.5 0.5 ||| 0-0\n"
                           "b ||| x ||| 0.5 0.5 0.5 0.5 ||| 0-0\n")
    paths["pt"].write_text("x ||| u ||| 0.5 0.5 0.5 0.5 ||| 0-0\n")
    paths["in"].write_text("a b\n")
    paths["reo"].write_text("x ||| u ||| 0.5 0.25 0.25 0.5 0.25 0.25\n")
    paths["align"].write_text("0-0 1-1\n")
    paths["corpus"].write_text(MORPH_SRC_CORPUS)
    paths["lex"] = tmp_path / "src.lex"
    assert main(["lexicon", "-i", str(paths["corpus"]), "-o", str(paths["lex"])]) == 0
    paths["out"] = tmp_path / "out.txt"
    paths["reo_out"] = tmp_path / "reo-out.txt"
    return paths


# command: (pivotsmith modules it loads beyond _BASE, whether it loads logging)
_STARTUP = {
    "import": ([], False),
    "bleu": (["evalkit"], False),
    "decode": (["evalkit", "extsort"], False),
    "annotate": (["extsort", "features", "morphmodel"], False),
    "combine": (["combine", "extsort"], False),
    "pivot": (["extsort", "triangulate"], True),
    "pivot-reordering": (["extsort", "triangulate"], True),
    "filter": (["extsort", "triangulate"], False),
    "estimate-size": (["extsort", "triangulate"], False),
    "lexicon": (["morphmodel"], False),
    "rules-check": (["morphmodel"], False),
    "fc-train": (["morphmodel"], False),
    "stats": ([], False),
}


@pytest.mark.parametrize("command", list(_STARTUP))
def test_each_command_loads_only_its_modules(startup_files, command):
    extra_modules, logs = _STARTUP[command]
    f = {name: str(path) for name, path in startup_files.items()}
    argv = {
        "import": [],
        "bleu": ["bleu", "--hyp", f["in"], "--ref", f["in"]],
        "decode": ["decode", "--table", f["sp"], "--input", f["in"]],
        "annotate": ["annotate", "-i", f["sp"], "--kind", "connectivity"],
        "combine": ["combine", "-i", f"a={f['sp']}", "-i", f"b={f['pt']}"],
        "pivot": ["pivot", "--sp", f["sp"], "--pt", f["pt"]],
        "pivot-reordering": ["pivot", "--sp", f["sp"], "--pt", f["pt"],
                                 "--reordering-sp", f["reo"], "--reordering-pt",
                                 f["reo"], "--reordering-out", f["reo_out"]],
        "filter": ["filter", "-i", f["sp"]],
        "estimate-size": ["estimate-size", "--sp", f["sp"], "--pt", f["pt"]],
        "lexicon": ["lexicon", "-i", f["corpus"]],
        "rules-check": ["rules-check"],
        "fc-train": ["fc-train", "--src", f["in"], "--tgt", f["in"],
                     "--align", f["align"], "--src-lex", f["lex"],
                     "--tgt-lex", f["lex"]],
        "stats": ["stats", "-i", f["sp"]],
    }[command]
    if argv:
        argv += ["-o", f["out"]]
    rc, modules, watched = child_modules(*argv)
    assert rc == (None if command == "import" else 0)
    assert modules == sorted(_BASE + [f"pivotsmith.{m}" for m in extra_modules])
    assert ("logging" in watched) == logs
    # The object model (pivotsmith.tables) is the only user of dataclasses.
    assert "dataclasses" not in watched
    assert "inspect" not in watched
    assert "concurrent.futures" not in watched
    # These inputs fit one sort chunk, and only a spill loads pickle.
    assert "pickle" not in watched


def test_a_sort_that_spills_loads_pickle(startup_files):
    # The other half of the start-up test's pickle check: it would pass
    # vacuously if the child could not see pickle being loaded.
    f = {name: str(path) for name, path in startup_files.items()}
    rc, _, watched = child_modules("pivot", "--sp", f["sp"], "--pt", f["pt"],
                                   "-o", f["out"], "--chunk-size", "1")
    assert rc == 0
    assert "pickle" in watched


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    pivot = parser.parse_args(["pivot", "--sp", "s", "--pt", "t"])
    filtered = parser.parse_args(["filter"])
    decode = parser.parse_args(["decode", "--table", "t"])
    for args in (pivot, filtered):
        assert args.top_n == PivotConfig.top_n
        assert args.chunk_size == PivotConfig.chunk_size
        assert args.tmpdir == PivotConfig.tmpdir
    assert pivot.min_links == PivotConfig.min_alignment_links
    assert decode.max_phrase_len == DecodeConfig.max_phrase_len
    assert decode.unknown_penalty == DecodeConfig.unknown_word_penalty


def test_package_import_loads_no_submodule():
    code = ("import sys, pivotsmith;"
            " print(sorted(m for m in sys.modules if m.startswith('pivotsmith')))")
    env = child_env()
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['pivotsmith']\n"


def test_public_names_are_their_submodules_objects():
    star: dict = {}
    exec("from pivotsmith import *", star)
    for name in pivotsmith.__all__:
        value = getattr(pivotsmith, name)
        assert value is getattr(importlib.import_module(value.__module__), name)
        assert star[name] is value
    assert set(pivotsmith.__all__) <= set(dir(pivotsmith))
    assert "__all__" in dir(pivotsmith)
    with pytest.raises(AttributeError, match="no_such_name"):
        pivotsmith.no_such_name


def test_names_set_on_cli_before_main_are_the_ones_called(startup_files):
    # perfbench/tracing.py replaces these names on a freshly imported cli.
    code = """
import collections, sys
from pivotsmith import cli
calls = collections.Counter()
def counting(name):
    inner = getattr(cli, name)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)
    return wrapper
for name in ("compose_rows", "_decode_one", "bleu4_report"):
    setattr(cli, name, counting(name))
sp, pt, inp, out = sys.argv[1:]
assert cli.main(["pivot", "--sp", sp, "--pt", pt, "-o", out]) == 0
assert cli.main(["decode", "--table", sp, "--input", inp, "-o", out]) == 0
assert cli.main(["bleu", "--hyp", inp, "--ref", inp, "-o", out]) == 0
print(sorted(calls.items()))
"""
    f = startup_files
    env = child_env()
    done = subprocess.run(
        [sys.executable, "-c", code, str(f["sp"]), str(f["pt"]), str(f["in"]),
         str(f["out"])], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[('_decode_one', 1), ('bleu4_report', 1), ('compose_rows', 1)]\n"


_LIBRARY_CHILD = """
import importlib, sys
from pivotsmith import cli
first = sys.argv[1]
others = [name for name, module in cli._MODULE_OF.items() if module != "tables"]
for name in others:
    getattr(cli, name)
before = "pivotsmith.tables" in sys.modules
getattr(cli, first)
after = "pivotsmith.tables" in sys.modules
wrong = [name for name, module in cli._MODULE_OF.items()
         if getattr(cli, name)
         is not getattr(importlib.import_module("pivotsmith." + module), name)]
print(before, after, wrong)
"""


@pytest.mark.parametrize("name", sorted(pivotsmith.cli._LIBRARY["tables"]))
def test_library_names_resolve_on_cli_as_the_tracer_reads_them(name):
    # perfbench/tracing.py reads each _LIBRARY name off a fresh cli.  Each
    # resolves to its module's object, and only a "tables" name loads the
    # object model.
    done = subprocess.run([sys.executable, "-c", _LIBRARY_CHILD, name],
                          env=child_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False True []\n"


def test_run_as_module(startup_files, capsys):
    env = child_env()
    inp = str(startup_files["in"])
    version = subprocess.run([sys.executable, "-m", "pivotsmith.cli", "--version"],
                             env=env, capture_output=True, text=True, timeout=60)
    assert (version.returncode, version.stdout) == (0, pivotsmith.__version__ + "\n")
    bleu = subprocess.run([sys.executable, "-m", "pivotsmith.cli", "bleu",
                           "--hyp", inp, "--ref", inp],
                          env=env, capture_output=True, text=True, timeout=60)
    assert main(["bleu", "--hyp", inp, "--ref", inp]) == 0
    assert (bleu.returncode, bleu.stderr) == (0, "")
    assert bleu.stdout == capsys.readouterr().out


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["annotate", "--kind", "connectivity", "--src-lex", "x"],
     "--kind connectivity does not read --src-lex"),
    (["combine", "-i", "a=x"], "combine needs at least two -i NAME=FILE inputs"),
    (["pivot", "--sp", "s", "--pt", "t", "--reordering-out", "r"],
     "--reordering-out requires --reordering-pt"),
    (["lexicon", "-i", "-", "-i", "-"], "only one input can read stdin"),
    (["rules-check", "--pair", "case", "Nom", "Nom"],
     "unknown feature 'case', expected one of pos, gen, num, det"),
], ids=["annotate", "combine", "pivot", "lexicon", "rules-check"])
def test_a_command_usage_error_prints_that_commands_usage(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: pivotsmith {argv[0]} [-h]")
    assert err.endswith(f"\npivotsmith {argv[0]}: error: {message}\n")


@pytest.mark.parametrize("command", ["stats", "fc-train"])
def test_a_superscript_digit_is_a_data_error_with_its_line(tmp_path, capsys, command):
    # "²" passes ``isdigit`` but ``int`` cannot read it.
    table_path = tmp_path / "t.txt"
    table_path.write_text("a ||| b ||| 1 1 1 1 ||| 0-0\na ||| c ||| 1 1 1 1 ||| 0-\u00b2\n",
                          encoding="utf-8")
    lex = tmp_path / "lex.tsv"
    lex.write_text("w\tN\tM\tS\tNA\t[M]\t2\nx\tN\tM\tS\tNA\t[M]\t\u00b2\n",
                   encoding="utf-8")
    for name in ("src", "tgt"):
        (tmp_path / name).write_text("w\n")
    (tmp_path / "align").write_text("0-0\n")
    if command == "stats":
        argv = ["stats", "-i", str(table_path)]
        message = f"{table_path}: line 2: malformed alignment point '0-²'"
    else:
        argv = ["fc-train", "--src-lex", str(lex), "--tgt-lex", str(lex)]
        argv += [f"--{name}={tmp_path / name}" for name in ("src", "tgt", "align")]
        message = f"{lex}: line 2: bad count '²'"
    assert main(argv) == 1
    assert capsys.readouterr().err == f"pivotsmith: error: {message}\n"


@pytest.mark.parametrize("command", ["pivot", "combine", "estimate-size"])
@pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "bad-second"])
@pytest.mark.parametrize("bad_text,message", [
    ("a ||| b ||| 1 1 1 ||| 0-0\n", "line 1: expected 4 score columns, got 3"),
    ("#features: f\na ||| b ||| 1 1 1 1 0.5 ||| 0-0\n#x\n",
     "line 3: expected 4 fields separated by '|||', got 1"),
    ("#features:\n", "line 1: empty feature header"),
], ids=["row", "later-row", "header"])
def test_a_data_error_names_which_of_two_tables_it_is_in(tmp_path, capsys, command,
                                                          bad_first, bad_text, message):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("a ||| b ||| 1 1 1 1 ||| 0-0\n", encoding="utf-8")
    bad.write_text(bad_text, encoding="utf-8")
    first, second = (bad, good) if bad_first else (good, bad)
    argv = {"pivot": ["pivot", "--sp", first, "--pt", second],
            "combine": ["combine", "-i", f"x={first}", "-i", f"y={second}"],
            "estimate-size": ["estimate-size", "--sp", first, "--pt", second]}[command]
    out = tmp_path / "out.txt"
    assert main([*map(str, argv), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"pivotsmith: error: {bad}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["stats", "pivot", "decode", "lexicon", "bleu"])
def test_a_leading_byte_order_mark_is_a_data_error_on_line_1(tmp_path, capsys,
                                                             monkeypatch, command):
    # Read as UTF-8, U+FEFF would stick to the first source phrase, word or
    # token; lexicon reads it from stdin.
    table_line = "a ||| b ||| 1 1 1 1 ||| 0-0\n"
    table_path = tmp_path / "t.txt"
    table_path.write_text(table_line, encoding="utf-8")
    sentences = tmp_path / "s.txt"
    sentences.write_text("a\n", encoding="utf-8")
    first_line = {"stats": table_line, "pivot": table_line,
                  "lexicon": "w\tN\tM\tS\tNA\n"}.get(command, "a\n")
    marked = tmp_path / "bom.txt"
    marked.write_text("\ufeff" + first_line, encoding="utf-8")
    argv = {"stats": ["stats", "-i", str(marked)],
            "pivot": ["pivot", "--sp", str(marked), "--pt", str(table_path)],
            "decode": ["decode", "--table", str(table_path), "--input", str(marked)],
            "lexicon": ["lexicon", "-i", "-"],
            "bleu": ["bleu", "--hyp", str(marked), "--ref", str(sentences)]}[command]
    name = str(marked)
    if command == "lexicon":
        monkeypatch.setattr("sys.stdin", io.StringIO(marked.read_text(encoding="utf-8")))
        name = "stdin"
    out = tmp_path / "out.txt"
    assert main(argv + ["-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"pivotsmith: error: {name}: line 1: starts with a byte-order mark\n")
    assert not out.exists()
