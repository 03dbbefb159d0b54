"""Table model, text formats, and log-linear scoring."""

from __future__ import annotations

import io
import math
import random

import pytest

from conftest import (
    entry,
    oracle_format_reordering_row,
    oracle_format_row,
    oracle_parse_row,
    oracle_read_reordering_rows,
    oracle_read_rows,
    table,
)
from pivotsmith import extsort, tablecore
from pivotsmith.tablecore import (
    CORE_FEATURES,
    FORMAT_MEMO_CAP,
    PARSE_MEMO_CAP,
    SEPARATOR,
    LogLinearWeights,
    TableError,
    loglinear_score,
    parse_row,
    read_reordering_rows,
    read_rows,
    weight_vector,
    write_lines,
    write_rows,
)
from pivotsmith.tables import (
    PhraseTable,
    ReorderingEntry,
    ScoreSet,
    parse_phrase_table,
    parse_reordering_table,
    validate_reordering,
    write_phrase_table,
    write_reordering_table,
)
from pivotsmith.triangulate import write_reordering_rows


def render(tbl: PhraseTable) -> str:
    out = io.StringIO()
    write_phrase_table(tbl, out)
    return out.getvalue()


class TestParsing:
    def test_basic_line(self):
        text = "a b ||| x ||| 0.5 0.25 1 0.125 ||| 0-0 1-0\n"
        tbl = parse_phrase_table([text])
        assert len(tbl) == 1
        e = tbl.entries[0]
        assert e.src == ("a", "b")
        assert e.tgt == ("x",)
        assert e.scores.core() == (0.5, 0.25, 1.0, 0.125)
        assert [(l.src_pos, l.tgt_pos) for l in e.alignment] == [(0, 0), (1, 0)]

    def test_empty_alignment_trailing_separator(self):
        tbl = parse_phrase_table(["a ||| x ||| 1 1 1 1 |||\n"])
        assert tbl.entries[0].alignment == ()

    def test_header_extras(self):
        lines = [
            "#features: conn_s conn_t\n",
            "a ||| x ||| 1 1 1 1 0.5 2.25 ||| 0-0\n",
        ]
        tbl = parse_phrase_table(lines)
        assert tbl.manifest == CORE_FEATURES + ("conn_s", "conn_t")
        assert tbl.entries[0].scores.extra("conn_t") == 2.25

    def test_header_must_be_first_line_only(self):
        lines = ["a ||| x ||| 1 1 1 1 |||\n", "#features: conn_s\n"]
        with pytest.raises(TableError, match="line 2"):
            parse_phrase_table(lines)

    def test_unknown_comment_rejected(self):
        with pytest.raises(TableError, match="expected '#features"):
            parse_phrase_table(["# not a header\n"])

    def test_field_count_error_carries_line_number(self):
        lines = ["a ||| x ||| 1 1 1 1 |||\n", "broken line\n"]
        with pytest.raises(TableError, match="line 2.*4 fields"):
            parse_phrase_table(lines)

    def test_score_out_of_range(self):
        with pytest.raises(TableError, match="score out of range"):
            parse_phrase_table(["a ||| x ||| 1.5 1 1 1 |||\n"])
        with pytest.raises(TableError, match="score out of range"):
            parse_phrase_table(["a ||| x ||| -0.1 1 1 1 |||\n"])

    def test_extras_may_exceed_one_but_not_be_negative(self):
        lines = ["#features: f\n", "a ||| x ||| 1 1 1 1 7.5 |||\n"]
        assert parse_phrase_table(lines).entries[0].scores.extra("f") == 7.5
        bad = ["#features: f\n", "a ||| x ||| 1 1 1 1 -0.5 |||\n"]
        with pytest.raises(TableError, match="score out of range"):
            parse_phrase_table(bad)

    def test_score_column_count_mismatch(self):
        with pytest.raises(TableError, match="expected 4 score columns, got 5"):
            parse_phrase_table(["a ||| x ||| 1 1 1 1 1 |||\n"])
        lines = ["#features: f g\n", "a ||| x ||| 1 1 1 1 0.5 |||\n"]
        with pytest.raises(TableError, match="expected 6 score columns, got 5"):
            parse_phrase_table(lines)

    def test_non_numeric_score(self):
        with pytest.raises(TableError, match="non-numeric"):
            parse_phrase_table(["a ||| x ||| 1 1 one 1 |||\n"])

    def test_malformed_alignment(self):
        with pytest.raises(TableError, match="malformed alignment"):
            parse_phrase_table(["a ||| x ||| 1 1 1 1 ||| 0:0\n"])

    def test_alignment_out_of_bounds(self):
        with pytest.raises(TableError, match="outside phrase bounds"):
            parse_phrase_table(["a ||| x ||| 1 1 1 1 ||| 0-1\n"])

    def test_duplicate_alignment_point(self):
        with pytest.raises(TableError, match="duplicate alignment point"):
            parse_phrase_table(["a b ||| x ||| 1 1 1 1 ||| 0-0 0-0\n"])

    def test_phrase_of_any_length_is_read(self):
        long_phrase = " ".join(f"w{i}" for i in range(40))
        tbl = parse_phrase_table([f"{long_phrase} ||| x ||| 1 1 1 1 ||| 39-0\n"])
        assert len(tbl.entries[0].src) == 40
        (entry,) = parse_reordering_table([f"x ||| {long_phrase} ||| 1 0 0 1 0 0\n"])
        assert len(entry.tgt) == 40

    def test_blank_line_rejected(self):
        with pytest.raises(TableError, match="line 2: blank line"):
            parse_phrase_table(["a ||| x ||| 1 1 1 1 |||\n", "\n"])

    def test_duplicate_pair_rejected(self):
        lines = ["a ||| x ||| 1 1 1 1 |||\n", "a ||| x ||| 0.5 1 1 1 |||\n"]
        with pytest.raises(TableError, match="duplicate entry"):
            parse_phrase_table(lines)

    def test_duplicate_pair_allowed_with_distinct_origins(self):
        lines = [
            "#features: origin_a origin_b\n",
            "a ||| x ||| 1 1 1 1 1 0 |||\n",
            "a ||| x ||| 0.5 1 1 1 0 1 |||\n",
        ]
        tbl = parse_phrase_table(lines)
        assert len(tbl) == 2
        # Higher origin marks sort first, so the origin_a entry leads.
        assert tbl.entries[0].scores.extra("origin_a") == 1.0


class TestWriting:
    def test_round_trip_is_identity_after_first_write(self):
        rng = random.Random(11)
        from conftest import phrase_pool, random_table
        tbl = random_table(rng, phrase_pool(rng, "a", 12), phrase_pool(rng, "b", 9))
        once = render(parse_phrase_table(render(tbl).splitlines(keepends=True)))
        assert once == render(tbl)

    def test_empty_alignment_written_with_trailing_separator(self):
        tbl = table([entry("a", "x")])
        assert render(tbl) == "a ||| x ||| 1 1 1 1 |||\n"

    def test_extras_header_written(self):
        tbl = table([entry("a", "x", extras=(("f", 0.5),))], ("f",))
        assert render(tbl).startswith("#features: f\n")

    def test_six_significant_digits(self):
        tbl = table([entry("a", "x", scores=(0.123456789, 1.0, 1e-9, 1))])
        assert render(tbl) == "a ||| x ||| 0.123457 1 1e-09 1 |||\n"

    def test_entries_sorted_on_build(self):
        tbl = table([entry("b", "x"), entry("a", "y"), entry("a", "x")])
        pairs = [(e.src, e.tgt) for e in tbl]
        assert pairs == sorted(pairs)


class TestScoring:
    def test_default_weights_are_one(self):
        w = LogLinearWeights()
        assert w.weight("phi_fwd") == 1.0
        assert w.weight("anything") == 1.0

    def test_config_parsing(self):
        text = [
            "# comment\n",
            "phi_fwd = 0.5\n",
            "\n",
            "lex_fwd = 0.25  # inline\n",
            "phi_bwd=1\n",
            "lex_bwd = 2\n",
        ]
        w = LogLinearWeights.from_config(text)
        assert w.weight("lex_fwd") == 0.25
        assert w.weight("lex_bwd") == 2.0

    def test_config_is_strict_about_missing_features(self):
        w = LogLinearWeights.from_config(["phi_fwd = 1\n"])
        with pytest.raises(TableError, match="no weight configured for feature"):
            weight_vector(CORE_FEATURES, w)

    def test_config_rejects_duplicates_and_junk(self):
        with pytest.raises(TableError, match="line 2.*duplicate"):
            LogLinearWeights.from_config(["a = 1\n", "a = 2\n"])
        with pytest.raises(TableError, match="name = value"):
            LogLinearWeights.from_config(["just words\n"])
        with pytest.raises(TableError, match="non-numeric"):
            LogLinearWeights.from_config(["a = fast\n"])

    def test_floor_keeps_logs_finite(self):
        e = entry("a", "x", scores=(0.0, 1.0, 1.0, 1.0))
        score = loglinear_score(e.scores.values(), weight_vector(CORE_FEATURES, None))
        assert score == pytest.approx(math.log(1e-9))

    def test_weighted_sum_of_logs(self):
        values = (0.5, 0.5, 0.5, 0.5)
        weights = (1.0, 2.0, 3.0, 4.0)
        assert loglinear_score(values, weights) == pytest.approx(
            10.0 * math.log(0.5))

    def test_uniform_weights_example(self):
        e = entry("a", "x", scores=(0.5, 0.5, 0.5, 0.5))
        score = loglinear_score(e.scores.values(), weight_vector(CORE_FEATURES, None))
        assert score == pytest.approx(-2.772589, abs=1e-6)


class TestReordering:
    def test_parse_and_round_trip(self):
        line = "a ||| x ||| 0.5 0.25 0.25 0.1 0.2 0.7\n"
        entries = parse_reordering_table([line])
        assert entries[0].probs[0] == 0.5
        out = io.StringIO()
        write_reordering_table(entries, out)
        again = parse_reordering_table(out.getvalue().splitlines(keepends=True))
        assert again == entries

    def test_triple_must_sum_to_one(self):
        with pytest.raises(TableError, match="triple sums to"):
            parse_reordering_table(["a ||| x ||| 0.5 0.25 0.1 0.1 0.2 0.7\n"])

    def test_probability_range(self):
        with pytest.raises(TableError, match="not in"):
            parse_reordering_table(["a ||| x ||| 1.5 -0.25 -0.25 0.1 0.2 0.7\n"])

    def test_duplicate_pair(self):
        lines = [
            "a ||| x ||| 0.5 0.25 0.25 0.1 0.2 0.7\n",
            "a ||| x ||| 0.2 0.4 0.4 0.1 0.2 0.7\n",
        ]
        with pytest.raises(TableError, match="duplicate reordering entry"):
            parse_reordering_table(lines)

    @pytest.mark.parametrize("phrases,message", [
        (" ||| x", "malformed source phrase field"),
        ("a  b ||| x", "malformed source phrase field"),
        ("a ||| x\ty", "malformed target phrase field"),
    ], ids=["empty", "double-space", "tab"])
    def test_phrase_fields_rejected_while_parsing(self, phrases, message):
        line = f"{phrases} ||| 0.5 0.25 0.25 0.1 0.2 0.7\n"
        with pytest.raises(TableError, match=message):
            parse_reordering_table([line])

    @pytest.mark.parametrize("tgt,probs,message", [
        (("x y",), (0.5, 0.25, 0.25, 0.1, 0.2, 0.7), "bad token"),
        (("x|||y",), (0.5, 0.25, 0.25, 0.1, 0.2, 0.7), "contains '|||'"),
        (("x",), (0.5, 0.25, 0.25, 0.1, 0.2), "expected 6 probabilities"),
        (("x",), (0.5, 0.25, 0.25, 0.1, 0.2, 0.6), "triple sums to"),
    ], ids=["space", "separator", "five", "sum"])
    def test_validate_reordering_checks_library_entries(self, tgt, probs, message):
        bad = ReorderingEntry(("a",), tgt, probs)
        with pytest.raises(TableError, match=message):
            validate_reordering(bad)

    def test_write_rejects_a_repeated_pair(self):
        probs = (0.5, 0.25, 0.25, 0.1, 0.2, 0.7)
        first = ReorderingEntry(("a",), ("x",), probs)
        repeated = ReorderingEntry(("b",), ("y",), probs)
        out = io.StringIO()
        with pytest.raises(TableError) as exc:
            write_reordering_table([first, repeated, repeated], out)
        assert str(exc.value) == "duplicate reordering entry for pair 'b' -> 'y'"
        assert out.getvalue() == ""

    @pytest.mark.parametrize("src,probs,message", [
        (("b",), (0.9, 0.9, 0.9, 0.2, 0.3, 0.5), "orientation triple sums to 2.7"),
        (("b",), (0.5, 0.25, 0.25, 0.1, 0.2), "expected 6 probabilities, got 5"),
        (("b",), (1.5, -0.25, -0.25, 0.1, 0.2, 0.7), r"probability 1.5 not in \[0, 1\]"),
        (("b c",), (0.5, 0.25, 0.25, 0.1, 0.2, 0.7), "bad token 'b c' in source phrase"),
    ], ids=["sum", "five", "range", "space"])
    def test_write_checks_every_entry_before_writing(self, src, probs, message):
        # A nine-token phrase passes: the writer sets no phrase length limit.
        good = ReorderingEntry(tuple(f"a{i}" for i in range(9)), ("x",),
                               (0.5, 0.25, 0.25, 0.1, 0.2, 0.7))
        out = io.StringIO()
        with pytest.raises(TableError, match=message):
            write_reordering_table([good, ReorderingEntry(src, ("y",), probs)], out)
        assert out.getvalue() == ""

    def test_written_triples_survive_reparsing(self):
        third = 1.0 / 3.0
        entries = (ReorderingEntry(("a",), ("x",), (third,) * 6),)
        out = io.StringIO()
        write_reordering_table(entries, out)
        parse_reordering_table(out.getvalue().splitlines(keepends=True))


def test_object_model_sorts_spill_alike_and_clean_up(tmp_path, monkeypatch):
    # Two rows of one pair differ in their origin mark, as in a combined table.
    rng = random.Random(3)
    lines = [f"s{i % 5} ||| t{i} ||| 0.5 0.5 0.5 0.5 {i % 2} ||| 0-0\n"
             for i in range(12)] + ["s0 ||| t0 ||| 0.5 0.5 0.5 0.5 1 ||| 0-0\n"]
    rng.shuffle(lines)
    lines.insert(0, "#features: origin_a\n")
    reo_lines = [f"s{i} ||| t{i % 3} ||| 0.5 0.25 0.25 0.1 0.2 0.7\n"
                 for i in range(11)]
    rng.shuffle(reo_lines)

    def run():
        parsed = parse_phrase_table(lines)
        built = PhraseTable.build(reversed(parsed.entries), parsed.extras_names)
        reordering = parse_reordering_table(reo_lines)
        written = io.StringIO()
        write_reordering_table(reversed(reordering), written)
        return parsed, built, reordering, written.getvalue()

    default = run()
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    runs = []
    write_run = extsort._write_run

    def counted(path, rows):
        runs.append(path)
        return write_run(path, rows)
    monkeypatch.setattr(extsort, "_write_run", counted)
    monkeypatch.setattr(extsort, "DEFAULT_CHUNK_SIZE", 2)
    monkeypatch.setenv(extsort.TMPDIR_ENV, str(scratch))
    assert run() == default
    assert runs and all(path.startswith(str(scratch)) for path in runs)
    assert list(scratch.iterdir()) == []


class TestRows:
    def test_read_rows_streams_extras(self):
        lines = ["#features: f\n", "a ||| x ||| 1 1 1 1 0.5 ||| 0-0\n"]
        extras, rows = read_rows(lines)
        assert extras == ("f",)
        src, tgt, scores, align = next(rows)
        assert scores == (1.0, 1.0, 1.0, 1.0, 0.5)
        assert align == ((0, 0),)

    @pytest.mark.parametrize("reader,lines,message", [
        ("rows", ["a ||| x ||| 1 1 1 1 |||\n", "a ||| y ||| 1 1 1 |||\n"],
         "line 2: expected 4 score columns, got 3"),
        ("rows", ["#features:\n"], "line 1: empty feature header"),
        ("rows", ["#features: f f\n"], "duplicate feature name 'f'"),
        ("reordering", ["x ||| u ||| 0.5 0.5\n"], "line 1: expected 6 probabilities, got 2"),
    ], ids=["row", "header", "manifest", "reordering"])
    def test_a_named_reader_puts_the_name_before_its_errors(self, reader, lines,
                                                              message):
        def read(name=None):
            if reader == "reordering":
                return list(read_reordering_rows(lines, name))
            extras, rows = read_rows(lines, name)
            return extras, list(rows)
        with pytest.raises(TableError) as plain:
            read()
        with pytest.raises(TableError) as named:
            read("t.txt")
        assert str(plain.value) == message
        assert str(named.value) == f"t.txt: {message}"
        assert named.value.line == plain.value.line

    def test_scoreset_named_order(self):
        s = ScoreSet(0.1, 0.2, 0.3, 0.4, extras=(("f", 0.5),))
        assert [name for name, _ in s.named()] == list(CORE_FEATURES) + ["f"]
        assert s.values() == (0.1, 0.2, 0.3, 0.4, 0.5)


# Scores the writers must render as ``oracle_format_row`` does: both ends of
# the unit range, the smallest normal doubles and a subnormal.
_EDGE_SCORES = (0.0, 1.0, 1e-300, 2.2250738585072014e-308, 5e-324, 1e-310)


def _random_score(rng: random.Random, high: float = 1.0) -> float:
    if rng.random() < 0.3:
        return rng.choice(_EDGE_SCORES)
    return rng.uniform(0.0, high)


def _random_phrase(rng: random.Random, prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}{rng.randrange(50)}" for _ in range(rng.randint(1, 4)))


def _random_row(rng: random.Random, n_extras: int):
    src, tgt = _random_phrase(rng, "s"), _random_phrase(rng, "t")
    scores = tuple(_random_score(rng) for _ in range(4)) + tuple(
        _random_score(rng, 1e4) for _ in range(n_extras))
    links = sorted({(rng.randrange(len(src)), rng.randrange(len(tgt)))
                    for _ in range(rng.choice((0, 0, 1, 3, 6)))})
    return src, tgt, scores, tuple(links)


class TestWriterProperties:
    @pytest.mark.parametrize("n_extras", [0, 2, 5])
    def test_format_then_parse_gives_the_row_back(self, n_extras):
        rng = random.Random(90 + n_extras)
        rows = [_random_row(rng, n_extras) for _ in range(399)]
        out = io.StringIO()
        write_rows(rows, out)
        lines = out.getvalue().splitlines(keepends=True)
        assert [line[:-1] for line in lines] == list(map(oracle_format_row, rows))
        for lineno, (line, row) in enumerate(zip(lines, rows), start=1):
            src, tgt, scores, align = parse_row(line, lineno, n_extras)
            assert (src, tgt, align) == (row[0], row[1], row[3])
            assert scores == tuple(float("%.6g" % v) for v in row[2])

    def test_edge_scores_and_empty_alignment(self):
        for scores in [_EDGE_SCORES[:4], _EDGE_SCORES[2:], _EDGE_SCORES,
                       _EDGE_SCORES + (1234.5678,)]:
            row = (("a",), ("x", "y"), scores, ())
            out = io.StringIO()
            write_rows([row], out)
            line = out.getvalue()
            assert line == oracle_format_row(row) + "\n"
            assert line.endswith(" |||\n")
            assert parse_row(line, 1, len(scores) - 4)[2] == tuple(
                float("%.6g" % v) for v in scores)

    def test_reordering_row_is_repr_and_reparses_exactly(self):
        rng = random.Random(97)
        rows = []
        for i in range(300):
            probs = []
            for _ in range(2):
                a = rng.choice(_EDGE_SCORES) if rng.random() < 0.5 else rng.random()
                b = rng.uniform(0.0, 1.0 - a)
                triple = [a, b, 1.0 - a - b]
                rng.shuffle(triple)
                probs += triple
            src, tgt = (f"s{i}",), _random_phrase(rng, "t")
            rows.append((src, tgt, tuple(probs)))
        out = io.StringIO()
        write_lines([(src, tgt, probs, ()) for src, tgt, probs in rows], None, out, 0)
        lines = out.getvalue().splitlines(keepends=True)
        assert [line[:-1] for line in lines] == [
            oracle_format_reordering_row(*row) for row in rows]
        parsed = parse_reordering_table(lines)
        assert [(e.src, e.tgt, e.probs) for e in parsed] == sorted(rows)


# --- the memoising writers against the reference formatters of conftest ---

# Orientation values whose repr text is easy to get wrong: the log floor, the
# smallest subnormal, and a third one ulp above the nearest double.
_TRICKY_PROBS = (1e-9, 5e-324, 0.33333333333333337, 1.0 / 3.0, 0.5, 1.0)


def _oriented_rows(rng: random.Random, n_rows: int, pool_size: int):
    """Composed rows in source order: a source repeats as an equal but new
    tuple, about a third have no alignment, and the six orientation values
    are drawn from ``pool_size`` distinct floats, so they repeat."""
    pool = list(_TRICKY_PROBS) + [rng.random() for _ in range(pool_size)]
    rows = []
    src_tokens = ["s0"]
    for _ in range(n_rows):
        if rng.random() < 0.3:
            src_tokens = list(_random_phrase(rng, "s"))
        src, tgt = tuple(src_tokens), _random_phrase(rng, "t")
        links = () if rng.random() < 0.35 else tuple(sorted(
            {(rng.randrange(len(src)), rng.randrange(len(tgt))) for _ in range(3)}))
        core = tuple(_random_score(rng) for _ in range(4))
        rows.append((src, tgt, core + tuple(rng.choice(pool) for _ in range(6)), links))
    rows.sort(key=lambda row: row[0])
    return rows


class TestWritersMatchThePlainFormat:
    @pytest.mark.parametrize("n_extras", [0, 1, 2, 3])
    def test_write_rows(self, n_extras):
        rng = random.Random(300 + n_extras)
        rows = [_random_row(rng, n_extras) for _ in range(500)]
        rows += [(tuple(list(row[0])), row[1], row[2], ()) for row in rows[:50]]
        rows.sort(key=lambda row: row[0])
        names = tuple(f"f{i}" for i in range(n_extras))
        out = io.StringIO()
        write_rows(rows, out, names)
        header = [f"#features: {' '.join(names)}"] if names else []
        assert out.getvalue().splitlines() == header + [
            oracle_format_row(row) for row in rows]

    @pytest.mark.parametrize("cap", [None, 3], ids=["module-cap", "cap-3"])
    def test_write_reordering_rows(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(tablecore, "FORMAT_MEMO_CAP", cap)
        # More distinct orientation values than the memo holds.
        rng = random.Random(301)
        rows = _oriented_rows(rng, 2000, FORMAT_MEMO_CAP + 500)
        assert len({v for row in rows for v in row[2][4:]}) > FORMAT_MEMO_CAP
        assert any(a is not b and a == b for a, b in zip(
            [row[0] for row in rows], [row[0] for row in rows[1:]]))
        table_out, reordering_out = io.StringIO(), io.StringIO()
        write_reordering_rows(rows, table_out, reordering_out)
        assert table_out.getvalue().splitlines() == [
            oracle_format_row((src, tgt, scores[:4], align))
            for src, tgt, scores, align in rows]
        assert reordering_out.getvalue().splitlines() == [
            oracle_format_reordering_row(src, tgt, scores[4:])
            for src, tgt, scores, _ in rows]

    def test_write_reordering_table(self):
        rng = random.Random(302)
        rows = _oriented_rows(rng, 1500, FORMAT_MEMO_CAP)
        # Triples (p, 1 - p, 0) sum to one, as write_reordering_table checks.
        entries = {(src, tgt): (s[4], 1.0 - s[4], 0.0, 0.0, s[7], 1.0 - s[7])
                   for src, tgt, s, _ in rows}
        out = io.StringIO()
        write_reordering_table(
            [ReorderingEntry(src, tgt, probs) for (src, tgt), probs in entries.items()],
            out)
        assert out.getvalue().splitlines() == [
            oracle_format_reordering_row(src, tgt, probs)
            for (src, tgt), probs in sorted(entries.items())]

    @pytest.mark.parametrize("first, second", [
        (0.0, -0.0), (-0.0, 0.0), (1.0, 1), (1, 1.0),
    ], ids=["zero-then-negative-zero", "negative-zero-then-zero",
            "float-then-int", "int-then-float"])
    def test_equal_values_keep_their_own_text(self, first, second):
        # Equal keys of a value-keyed memo; rows of the library may hold them.
        # Triples (v, 1 - v, 0) sum to one, as write_reordering_table checks.
        probs = [(first, 1.0 - first, 0.0) * 2, (second, 1.0 - second, 0.0) * 2,
                 (first, 1.0 - first, 0.0, second, 1.0 - second, 0.0)]
        rows = [((f"s{i}",), ("t",), (0.5, 0.5, 0.5, 0.5) + p, ())
                for i, p in enumerate(probs)]
        want = [oracle_format_reordering_row(src, tgt, scores[4:])
                for src, tgt, scores, _ in rows]
        assert len({line.split(SEPARATOR)[2] for line in want}) == 3
        reordering_out = io.StringIO()
        write_reordering_rows(rows, io.StringIO(), reordering_out)
        assert reordering_out.getvalue().splitlines() == want
        out = io.StringIO()
        write_reordering_table(
            [ReorderingEntry(src, tgt, scores[4:]) for src, tgt, scores, _ in rows], out)
        assert out.getvalue().splitlines() == want
        out = io.StringIO()
        write_rows([(src, tgt, scores[4:8], ()) for src, tgt, scores, _ in rows], out)
        assert out.getvalue().splitlines() == [
            oracle_format_row((src, tgt, scores[4:8], ())) for src, tgt, scores, _ in rows]


# --- parse_row against the field-by-field reference parser ----------------

_GOOD_SCORES = ("-0", "0", "1", "1.0", "0.5", "1e-300", "5e-324", "2.5e-310")
_GOOD_EXTRAS = ("0", "-0", "1", "1234.5", "1e300", "5e-324")


def _good_parts(rng: random.Random, n_extras: int, longest: int):
    """Token lists of the four fields of a line the parser must accept, with
    phrases of at most ``longest`` tokens."""

    def phrase(prefix: str) -> list[str]:
        n = longest if rng.random() < 0.2 else rng.randint(1, min(longest, 4))
        return [f"{prefix}{rng.randrange(30)}" for _ in range(n)]

    src, tgt = phrase("s"), phrase("t")
    scores = [rng.choice(_GOOD_SCORES) if rng.random() < 0.5 else repr(rng.random())
              for _ in range(4)]
    scores += [rng.choice(_GOOD_EXTRAS) if rng.random() < 0.5
               else repr(rng.uniform(0.0, 1e4)) for _ in range(n_extras)]
    pairs = [(i, j) for i in range(len(src)) for j in range(len(tgt))]
    links = rng.sample(pairs, min(rng.choice((0, 1, 1, 2, 2, 2, 3, 5)), len(pairs)))
    if rng.random() < 0.4:
        links.sort()
    return [src, tgt, scores, [f"{i}-{j}" for i, j in links]]


def _join_parts(rng: random.Random, parts) -> str:
    line = SEPARATOR.join(" ".join(field) for field in parts[:3])
    if parts[3]:
        line += SEPARATOR + " ".join(parts[3])
    else:
        line += rng.choice((" |||", " ||| "))
    return line + rng.choice(("\n", "\n", ""))


def _break_phrase(rng, parts, n_extras):
    side = parts[rng.randrange(2)]
    kind = rng.choice(("empty", "double", "tab", "nbsp", "sep", "lead", "trail"))
    if kind == "empty":
        side.clear()
    elif kind in ("double", "lead"):
        side.insert(0 if kind == "lead" else rng.randrange(len(side) + 1), "")
    elif kind == "trail":
        side.append("")
    else:
        if not side:
            side.append("w")
        side[rng.randrange(len(side))] += {"tab": "\tz", "nbsp": "\u00a0z",
                                           "sep": "|||z"}[kind]


def _break_scores(rng, parts, n_extras):
    scores = parts[2]
    kind = rng.choice(("fewer", "more", "text", "core", "core", "extra"))
    if kind == "fewer":
        scores.pop()
    elif kind == "more":
        scores.append("0.5")
    elif kind == "text":
        scores[rng.randrange(len(scores))] = rng.choice(("x", "1,5", "", "0x1"))
    elif kind == "core" or len(scores) <= 4:
        scores[rng.randrange(min(4, len(scores)))] = rng.choice(
            ("nan", "inf", "-inf", "-1", "1.0000001", "-1e-300"))
    else:
        scores[rng.randrange(4, len(scores))] = rng.choice(("-0.5", "inf", "nan", "-inf"))


def _break_links(rng, parts, n_extras):
    links = parts[3]
    n_src, n_tgt = len(parts[0]), len(parts[1])
    oob = rng.choice((f"{max(n_src, 1)}-0", f"0-{max(n_tgt, 1) + 2}"))
    kind = rng.choice(("malformed", "oob", "dup", "dup-oob", "oob-dup"))
    if kind == "malformed":
        links.insert(rng.randrange(len(links) + 1),
                     rng.choice(("1-", "-1", "a-b", "1--2", "\u00b2-0", "", "1_0-0")))
    elif kind == "oob":
        links.insert(rng.randrange(len(links) + 1), oob)
    elif kind == "dup":
        links.extend(["0-0", "0-0"])
    else:
        pair = ["0-0", "0-0"]
        links[:] = pair + [oob] if kind == "dup-oob" else [oob] + pair


def _break_line(rng: random.Random, n_extras: int, longest: int) -> str:
    """A line with one to three problems, any of which the parser may hit first."""
    while True:
        parts = _good_parts(rng, n_extras, longest)
        for _ in range(rng.randint(1, 3)):
            rng.choice((_break_phrase, _break_scores, _break_links))(
                rng, parts, n_extras)
        line = _join_parts(rng, parts)
        if rng.random() < 0.1:
            cut = line.rstrip("\n")
            line = (cut.rsplit(SEPARATOR, 1)[0] if rng.random() < 0.5
                    else cut + SEPARATOR + "extra") + "\n"
        try:
            oracle_parse_row(line, 1, n_extras)
        except ValueError:
            return line
        # Two problems can cancel out, as one score too few and one too many.


def _outcome(parse, *args):
    """The row with its repr (which tells -0.0 from 0.0), or the error."""
    try:
        row = parse(*args)
    except Exception as exc:  # the error itself is what is compared
        return "error", type(exc), str(exc), getattr(exc, "line", None)
    return "row", row, repr(row)


# Short phrases repeat more often, and so hit the memos more; long ones
# pass the decoder's default span limit, which no reader applies.
_PARSER_CASES = pytest.mark.parametrize(
    "n_extras,longest", [(0, 8), (0, 3), (2, 8), (3, 12)])


class TestParserMatchesFieldParsers:
    @_PARSER_CASES
    def test_accepted_lines_give_the_same_row(self, n_extras, longest):
        rng = random.Random(200 + n_extras * 10 + longest)
        for lineno in range(1, 600):
            line = _join_parts(rng, _good_parts(rng, n_extras, longest))
            want = _outcome(oracle_parse_row, line, lineno, n_extras)
            assert want[0] == "row", (line, want)
            assert _outcome(parse_row, line, lineno, n_extras) == want, line

    @_PARSER_CASES
    def test_rejected_lines_give_the_same_error(self, n_extras, longest):
        rng = random.Random(300 + n_extras * 10 + longest)
        for lineno in range(1, 1500):
            line = _break_line(rng, n_extras, longest)
            want = _outcome(oracle_parse_row, line, lineno, n_extras)
            assert _outcome(parse_row, line, lineno, n_extras) == want, line

    @pytest.mark.parametrize("blank", ["\n", "  \t\n", ""])
    def test_read_rows_gives_the_same_rows_and_errors(self, blank):
        rng = random.Random(400 + len(blank))
        for _ in range(150):
            n_extras = rng.choice((0, 2))
            lines = [f"#features: {' '.join(f'f{k}' for k in range(n_extras))}\n"
                     ] if n_extras else []
            for _ in range(rng.randint(1, 12)):
                parts = _good_parts(rng, n_extras, 12)
                lines.append(_join_parts(rng, parts).rstrip("\n") + "\n")
            fault = rng.random()
            if fault < 0.3:
                lines.insert(rng.randint(1, len(lines)), blank)
            elif fault < 0.6:
                lines.insert(rng.randint(1, len(lines)), _break_line(rng, n_extras, 12))

            def parse_all(parse_lines):
                extras, rows = parse_lines(list(lines))
                return extras, list(rows)

            assert (_outcome(parse_all, read_rows)
                    == _outcome(parse_all, oracle_read_rows)), lines


# --- the parsers' phrase and alignment memos ------------------------------

@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty parse memos, so that a test does not see earlier tests' text."""
    monkeypatch.setattr(tablecore, "_phrase_memo", {})
    monkeypatch.setattr(tablecore, "_alignment_memo", {})


class TestParsedRowsShareObjects:
    def test_equal_text_gives_the_same_objects(self, fresh_memos):
        first = parse_row("a b ||| x y ||| 1 1 1 1 ||| 1-0 0-1\n", 1, 0)
        second = parse_row("c ||| a b ||| 1 1 1 1 ||| 0-0\n", 2, 0)
        third = parse_row("a b ||| z ||| 0.5 1 1 1 ||| 0-0\n", 3, 0)
        fourth = parse_row("c d ||| x y ||| 1 1 1 1 ||| 1-0 0-1", 4, 0)
        assert second[1] is first[0] and third[0] is first[0]
        assert fourth[1] is first[1]
        assert fourth[3] is first[3] == ((0, 1), (1, 0))
        (reo,) = read_reordering_rows(["x y ||| a b ||| 1 0 0 1 0 0\n"])
        assert reo[0] is first[1] and reo[1] is first[0]

    def test_memoised_alignment_is_checked_against_the_phrase_lengths(
            self, fresh_memos):
        parse_row("a b ||| x y ||| 1 1 1 1 ||| 1-0 0-1\n", 1, 0)
        line = "a ||| x y ||| 1 1 1 1 ||| 1-0 0-1\n"
        with pytest.raises(TableError, match="line 2: alignment point 1-0 outside"
                           " phrase bounds 1x2"):
            parse_row(line, 2, 0)

    def test_a_table_read_to_its_end_empties_the_memos(self, fresh_memos):
        _, rows = read_rows(["a ||| x ||| 1 1 1 1 ||| 0-0\n"] * 2)
        next(rows)
        assert tablecore._phrase_memo and tablecore._alignment_memo
        next(rows)
        assert next(rows, None) is None
        assert not tablecore._phrase_memo and not tablecore._alignment_memo
        reordering = read_reordering_rows(["a ||| x ||| 1 0 0 1 0 0\n"])
        next(reordering)
        assert tablecore._phrase_memo
        assert next(reordering, None) is None
        assert not tablecore._phrase_memo

    def test_read_rows_past_the_memo_cap_matches_the_reference(self, fresh_memos):
        # Phrases and alignments repeat, as in a real table, across more
        # distinct phrase texts than one memo holds, and rejected lines
        # come between accepted ones.
        rng = random.Random(800)
        lines, earlier = [], []
        while len(lines) < 2 * PARSE_MEMO_CAP:
            if rng.random() < 0.03:
                lines.append(_break_line(rng, 0, 12).rstrip("\n") + "\n")
                continue
            parts = _good_parts(rng, 0, 12)
            if earlier and rng.random() < 0.5:
                src, tgt, _, links = rng.choice(earlier[-50:] if rng.random() < 0.5
                                                else earlier)
                if rng.random() < 0.5:
                    parts[:2], parts[3] = [src, tgt], links
                else:
                    parts[0] = src if rng.random() < 0.5 else tgt
                    parts[3] = [link for link in parts[3]
                                if int(link.split("-")[0]) < len(parts[0])]
            earlier.append(parts)
            lines.append(_join_parts(rng, parts).rstrip("\n") + "\n")
        outcomes = []
        for lineno, line in enumerate(lines, start=1):
            want = _outcome(oracle_parse_row, line, lineno, 0)
            assert _outcome(parse_row, line, lineno, 0) == want, line
            outcomes.append(want[0])
        accepted = [line for line, got in zip(lines, outcomes) if got == "row"]
        rejected = [k for k, got in enumerate(outcomes) if got == "error"]
        assert len({line.split(SEPARATOR)[k] for line in accepted for k in (0, 1)}
                   ) > PARSE_MEMO_CAP
        assert len(rejected) > 100

        def parse_all(parse_lines, stream):
            extras, rows = parse_lines(stream)
            return extras, list(rows)

        assert (_outcome(parse_all, read_rows, accepted)
                == _outcome(parse_all, oracle_read_rows, accepted))
        # Each stream ends at a rejected line, after the accepted lines before it.
        for k in rejected[::25]:
            stream = [line for line, got in zip(lines[:k], outcomes) if got == "row"]
            stream.append(lines[k])
            want = _outcome(parse_all, oracle_read_rows, stream)
            assert want[0] == "error" and want[3] == len(stream)
            assert _outcome(parse_all, read_rows, stream) == want


# --- read_reordering_rows against the field-by-field reference parser -----

_REO_EDGE = ("0", "-0", "1", "1.0", "0.5", "5e-324")


def _good_reordering_parts(rng: random.Random, longest: int):
    """Token lists of the three fields of a line the reader must accept, with
    phrases of at most ``longest`` tokens."""

    def phrase(prefix: str) -> list[str]:
        n = longest if rng.random() < 0.2 else rng.randint(1, min(longest, 4))
        return [f"{prefix}{rng.randrange(30)}" for _ in range(n)]

    probs = []
    for _ in range(2):
        if rng.random() < 0.3:
            triple = rng.choice((["1", "0", "-0"], ["0.5", "0.5", "0"],
                                 ["0.25", "0.25", "0.5"], ["1.0", "5e-324", "0"]))
        else:
            a = rng.random()
            b = rng.uniform(0.0, 1.0 - a)
            triple = [repr(a), repr(b), repr(1.0 - a - b)]
        rng.shuffle(triple)
        probs += triple
    return [phrase("s"), phrase("t"), probs]


def _break_reordering_line(rng: random.Random, longest: int) -> str:
    """A line with one or two problems, any of which the reader may hit first."""
    while True:
        parts = _good_reordering_parts(rng, longest)
        fields = 3
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(("empty", "double", "lead", "trail", "token",
                               "count", "text", "range", "sum", "fields"))
            side = parts[rng.randrange(2)]
            probs = parts[2]
            if kind == "empty":
                side.clear()
            elif kind in ("double", "lead", "trail"):
                where = {"double": rng.randrange(len(side) + 1), "lead": 0,
                         "trail": len(side)}[kind]
                side.insert(where, "")
            elif kind == "token":
                if not side:
                    side.append("w")
                side[rng.randrange(len(side))] += rng.choice(
                    ("\tz", "\u00a0z", "|||z", "\x1fz", "\u2028z"))
            elif kind == "count":
                if rng.random() < 0.5:
                    probs.pop()
                else:
                    probs.append("0")
            elif kind == "text":
                probs[rng.randrange(len(probs))] = rng.choice(("x", "1,5", "", "0x1"))
            elif kind == "range":
                probs[rng.randrange(len(probs))] = rng.choice(
                    ("nan", "inf", "-inf", "-0.5", "1.5"))
            elif kind == "sum":
                probs[rng.randrange(len(probs))] = rng.choice(("0.9", "0.001", "1e-5"))
            else:
                fields = rng.choice((2, 4))
        line = SEPARATOR.join(" ".join(field) for field in parts)
        if fields == 2:
            line = line.split(SEPARATOR, 1)[1]
        elif fields == 4:
            line += SEPARATOR + "x"
        line += rng.choice(("\n", "\n", ""))
        try:
            oracle_read_reordering_rows([line])
        except ValueError:
            return line
        # Two problems can cancel out, as one probability too few and one too many.


def _read_reordering(lines):
    return list(read_reordering_rows(lines))


class TestReorderingReaderMatchesFieldParsers:
    @pytest.mark.parametrize("longest", [8, 3, 12])
    def test_accepted_lines_give_the_same_row(self, longest):
        rng = random.Random(500 + longest)
        for _ in range(600):
            parts = _good_reordering_parts(rng, longest)
            line = SEPARATOR.join(" ".join(field) for field in parts) + "\n"
            want = _outcome(oracle_read_reordering_rows, [line])
            assert want[0] == "row", (line, want)
            assert _outcome(_read_reordering, [line]) == want, line

    @pytest.mark.parametrize("longest", [8, 3, 12])
    def test_rejected_lines_give_the_same_error(self, longest):
        rng = random.Random(600 + longest)
        for _ in range(1500):
            line = _break_reordering_line(rng, longest)
            want = _outcome(oracle_read_reordering_rows, [line])
            assert want[0] == "error", (line, want)
            assert _outcome(_read_reordering, [line]) == want, line

    def test_tables_give_the_same_rows_and_errors(self):
        rng = random.Random(700)
        for _ in range(200):
            lines = []
            for _ in range(rng.randint(1, 10)):
                parts = _good_reordering_parts(rng, 12)
                lines.append(SEPARATOR.join(" ".join(field) for field in parts) + "\n")
            fault = rng.random()
            if fault < 0.3:
                lines.insert(rng.randint(0, len(lines)), rng.choice(("\n", " \t\n", "")))
            elif fault < 0.6:
                lines.insert(rng.randint(0, len(lines)), _break_reordering_line(rng, 12))
            assert (_outcome(_read_reordering, lines)
                    == _outcome(oracle_read_reordering_rows, lines)), lines
