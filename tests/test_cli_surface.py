"""The file flags every subcommand shares, and filter on a combined table."""

from __future__ import annotations

import io
import re

import pytest

from pivotsmith.cli import main

COMMANDS = ("pivot", "filter", "annotate", "lexicon", "rules-check", "fc-train",
            "combine", "decode", "bleu", "stats", "estimate-size")

TABLE = ("b ||| y ||| 0.5 0.25 0.5 0.5 ||| 0-0\n"
         "a ||| x ||| 0.5 0.5 0.5 0.5 ||| 0-0\n"
         "a ||| y ||| 0.25 0.5 0.5 0.5 |||\n")
SENTENCES = "a b\nb c a\n"
TAGGED = ("a\tNOUN\tFeminine\tSingular\tNA\nb\tADJ\tMasculine\tPlural\tNA\n"
          "\na\tNOUN\tNA\tNA\tNA\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_help_names_stdout_as_the_output_default(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    # argparse puts the help on the next line after a long flag column.
    assert re.search(r"^  -o\b.*, --output OUTPUT\s+\S.* \(default stdout\)$",
                     capsys.readouterr().out, re.M)


# (argv, stdin text, input flag, output flag): argv reads its input from the
# stdin text, or from a file holding it after the input flag.
DASH_CASES = {
    "filter": (["filter", "--top-n", "1"], TABLE, "-i", "-o"),
    "annotate": (["annotate", "--kind", "connectivity"], TABLE, "-i", "-o"),
    "stats": (["stats"], TABLE, "-i", "-o"),
    "decode": (["decode", "--table", "{table}"], SENTENCES, "--input", "--output"),
    "lexicon": (["lexicon"], TAGGED, "-i", "--output"),
}


@pytest.mark.parametrize("command", sorted(DASH_CASES))
def test_dash_gives_the_bytes_of_the_omitted_flag(command, tmp_path, monkeypatch,
                                                  capsys):
    argv, text, input_flag, output_flag = DASH_CASES[command]
    table = tmp_path / "table.txt"
    table.write_text(TABLE, encoding="utf-8")
    given = tmp_path / "input.txt"
    given.write_text(text, encoding="utf-8")
    argv = [arg.format(table=table) for arg in argv]

    def run(*flags: str) -> str:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(argv + list(flags)) == 0
        return capsys.readouterr().out

    omitted = run()
    assert omitted
    assert run(input_flag, "-") == omitted
    assert run(output_flag, "-") == omitted
    assert run(input_flag, "-", output_flag, "-") == omitted
    out = tmp_path / "out.txt"
    assert run(input_flag, str(given), output_flag, str(out)) == ""
    assert out.read_text(encoding="utf-8") == omitted


@pytest.fixture
def combined(tmp_path):
    """``a ||| x`` from two tables through ``combine``, and its output path."""
    one = tmp_path / "one.txt"
    one.write_text("a ||| x ||| 0.5 0.5 0.5 0.5 ||| 0-0\n"
                   "a ||| y ||| 0.25 0.25 0.25 0.25 |||\n", encoding="utf-8")
    two = tmp_path / "two.txt"
    two.write_text("a ||| x ||| 0.9 0.9 0.9 0.9 |||\n"
                   "b ||| z ||| 0.5 0.5 0.5 0.5 |||\n", encoding="utf-8")
    both = tmp_path / "both.txt"
    assert main(["combine", "-i", f"one={one}", "-i", f"two={two}",
                 "-o", str(both)]) == 0
    return both


def test_filter_keeps_rows_that_differ_only_in_origin(combined, capsys):
    text = combined.read_text(encoding="utf-8")
    assert text.splitlines()[1:3] == [
        "a ||| x ||| 0.5 0.5 0.5 0.5 1 0 ||| 0-0",
        "a ||| x ||| 0.9 0.9 0.9 0.9 0 1 |||"]
    assert main(["filter", "-i", str(combined)]) == 0
    assert capsys.readouterr().out == text
    # The second a -> x row ranks first, and still comes out second.
    assert main(["filter", "-i", str(combined), "--top-n", "2", "--chunk-size", "1"]) == 0
    lines = text.splitlines(keepends=True)
    assert capsys.readouterr().out == "".join(lines[:3] + lines[4:])


def test_filter_top_1_keeps_one_row_per_source(combined, capsys):
    assert main(["filter", "-i", str(combined), "--top-n", "1"]) == 0
    assert capsys.readouterr().out == (
        "#features: origin_one origin_two\n"
        "a ||| x ||| 0.9 0.9 0.9 0.9 0 1 |||\n"
        "b ||| z ||| 0.5 0.5 0.5 0.5 0 1 |||\n")


def test_filter_rejects_a_row_repeated_with_equal_origin_marks(combined, tmp_path,
                                                               capsys):
    lines = combined.read_text(encoding="utf-8").splitlines(keepends=True)
    repeated = tmp_path / "repeated.txt"
    repeated.write_text("".join(lines + [lines[2]]), encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["filter", "-i", str(repeated), "-o", str(out)]) == 1
    assert ("duplicate entry in input table for pair 'a' -> 'x'"
            in capsys.readouterr().err)
    assert not out.exists()
