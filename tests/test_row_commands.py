"""annotate, combine and decode on the CLI's raw-row path.

The CLI streams rows through ``annotate_rows``, ``combine_rows`` and
``phrase_index_rows``.  These tests hold its bytes to the library's
``PhraseTable`` adapters and to naive transcriptions of each step, check
its failures, run it with a sort chunk of a few rows, and run it with the
``PhraseTable``/``PhraseEntry`` constructors disabled.
"""

from __future__ import annotations

import functools
import io
import random
from dataclasses import replace

import pytest

from conftest import phrase_pool, random_table
from pivotsmith import cli, extsort
from pivotsmith.cli import main
from pivotsmith.combine import combine_tables
from pivotsmith.evalkit import (
    DecodeConfig,
    build_phrase_index,
    decode_corpus,
    phrase_index_rows,
    read_sentences,
)
from pivotsmith.features import (
    annotate_table,
    connectivity_scores,
    induced_morph_scores,
)
from pivotsmith.morphmodel import FcModel, MorphLexicon
from pivotsmith.tablecore import (
    ORIGIN_PREFIX,
    PhraseEntry,
    PhraseTable,
    TableError,
    entry_to_row,
    parse_phrase_table,
    score_entry,
    write_phrase_table,
)

GENDERS = ("Feminine", "Masculine")
NUMBERS = ("Singular", "Plural")


def text_of(tbl: PhraseTable) -> str:
    out = io.StringIO()
    write_phrase_table(tbl, out)
    return out.getvalue()


def save(tbl: PhraseTable, path) -> str:
    path.write_text(text_of(tbl), encoding="utf-8")
    return str(path)


def with_extras(rng: random.Random, tbl: PhraseTable, names) -> PhraseTable:
    """The table with extra columns ``names`` of random non-negative values."""
    entries = [replace(e, scores=replace(e.scores, extras=tuple(
        (name, rng.choice([0.0, 1.5, rng.random()])) for name in names)))
        for e in tbl]
    return PhraseTable.build(entries, names)


def random_inputs(seed: int) -> list[PhraseTable]:
    """Three tables over one phrase pool, so that many pairs are shared."""
    rng = random.Random(seed)
    sources = phrase_pool(rng, "s", 12)
    targets = phrase_pool(rng, "t", 10)
    return [with_extras(rng, random_table(rng, sources, targets), ("f",)),
            with_extras(rng, random_table(rng, sources, targets), ("g", "f")),
            random_table(rng, sources, targets)]


def _table_key(entry: PhraseEntry):
    marks = tuple(-v for name, v in entry.scores.extras
                  if name.startswith(ORIGIN_PREFIX))
    return entry.src, entry.tgt, marks


def _naive_table(entries, extras_names) -> PhraseTable:
    entries = sorted(entries, key=_table_key)
    for prev, cur in zip(entries, entries[1:]):
        assert _table_key(prev) != _table_key(cur), "duplicate in oracle input"
    return PhraseTable(manifest=("phi_fwd", "lex_fwd", "phi_bwd", "lex_bwd")
                       + tuple(extras_names), entries=tuple(entries))


def oracle_annotate(tbl: PhraseTable, scorer, names) -> PhraseTable:
    """Each entry with the scorer's two values appended, one by one."""
    entries = []
    for e in tbl:
        extras = e.scores.extras + tuple(zip(names, scorer(e)))
        entries.append(replace(e, scores=replace(e.scores, extras=extras)))
    return _naive_table(entries, tbl.extras_names + tuple(names))


def oracle_combine(tables) -> PhraseTable:
    """Every input entry with unioned extras (0 when absent) and origin marks."""
    union = []
    for tbl, _ in tables:
        union += [name for name in tbl.extras_names if name not in union]
    origins = [ORIGIN_PREFIX + name for _, name in tables]
    entries = []
    for k, (tbl, _) in enumerate(tables):
        for e in tbl:
            have = dict(e.scores.extras)
            extras = tuple((name, have.get(name, 0.0)) for name in union)
            marks = tuple((col, float(i == k)) for i, col in enumerate(origins))
            entries.append(replace(e, scores=replace(e.scores, extras=extras + marks)))
    return _naive_table(entries, union + origins)


def oracle_index(tbl: PhraseTable, cfg: DecodeConfig):
    """Best (score, target) per source by brute force over all entries."""
    best = {}
    for e in tbl:
        if len(e.src) <= cfg.max_phrase_len:
            score = score_entry(e, tbl.manifest, cfg.weights)
            best.setdefault(e.src, []).append((-score, e.tgt))
    return {src: (-min(options)[0], min(options)[1]) for src, options in best.items()}


@pytest.fixture
def morph_model(tmp_path):
    """Lexicons for the random tables' words and an FC model over their tags."""
    rng = random.Random(5)
    paths = {}
    tags = {"s": set(), "t": set()}
    for side in ("s", "t"):
        lines = []
        # Every word phrase_pool can make for random_inputs' tables.
        for word in sorted(f"{side}{i}x{k}" for i in range(12) for k in range(2)):
            if rng.random() < 0.2:
                continue  # unknown words take the UNK tag
            gen, num = rng.choice(GENDERS), rng.choice(NUMBERS)
            tag = f"[{gen}+{num}]"
            tags[side].add(tag)
            lines.append(f"{word}\tNOUN\t{gen}\t{num}\tNA\t{tag}\t1\n")
        paths[side] = tmp_path / f"{side}.lex"
        paths[side].write_text("".join(lines), encoding="utf-8")
    model_lines = [f"{a}\t{b}\t{rng.random():.6g}\t{rng.random():.6g}\n"
                   for a in sorted(tags["s"]) for b in sorted(tags["t"])
                   if rng.random() < 0.8]
    paths["model"] = tmp_path / "fc.tsv"
    paths["model"].write_text("".join(model_lines), encoding="utf-8")
    return {key: str(path) for key, path in paths.items()}


def induced_scorer(files):
    with open(files["s"], encoding="utf-8") as src, \
            open(files["t"], encoding="utf-8") as tgt, \
            open(files["model"], encoding="utf-8") as model:
        return functools.partial(induced_morph_scores,
                                 src_lex=MorphLexicon.load(src),
                                 tgt_lex=MorphLexicon.load(tgt),
                                 model=FcModel.load(model))


# --- oracle: CLI bytes == library adapters == naive transcriptions ----------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_annotate_connectivity_matches_library_and_oracle(tmp_path, seed):
    tbl = random_inputs(seed)[1]
    out = tmp_path / "out.txt"
    assert main(["annotate", "-i", save(tbl, tmp_path / "in.txt"), "-o", str(out),
                 "--kind", "connectivity"]) == 0
    names = ("conn_s", "conn_t")
    assert out.read_text() == text_of(annotate_table(tbl, connectivity_scores, names))
    assert out.read_text() == text_of(oracle_annotate(tbl, connectivity_scores, names))


@pytest.mark.parametrize("seed", [4, 5])
def test_annotate_induced_matches_library_and_oracle(tmp_path, seed, morph_model):
    tbl = random_inputs(seed)[0]
    out = tmp_path / "out.txt"
    assert main(["annotate", "-i", save(tbl, tmp_path / "in.txt"), "-o", str(out),
                 "--kind", "induced", "--src-lex", morph_model["s"],
                 "--tgt-lex", morph_model["t"], "--fc-model", morph_model["model"]]) == 0
    scorer = induced_scorer(morph_model)
    names = ("morph_fc_s", "morph_fc_t")
    library = annotate_table(tbl, scorer, names)
    assert any(e.scores.extra("morph_fc_s") > 0 for e in library)
    assert out.read_text() == text_of(library)
    assert out.read_text() == text_of(oracle_annotate(tbl, scorer, names))


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_combine_three_and_recombine_match_library_and_oracle(tmp_path, seed):
    a, b, c = random_inputs(seed)
    named = [(a, "a"), (b, "b"), (c, "c")]
    out = tmp_path / "abc.txt"
    argv = ["combine", "-o", str(out)]
    for tbl, name in named:
        argv += ["-i", f"{name}={save(tbl, tmp_path / (name + '.txt'))}"]
    assert main(argv) == 0
    library = combine_tables(named)
    assert library.extras_names == ("f", "g", "origin_a", "origin_b", "origin_c")
    assert out.read_text() == text_of(library)
    assert out.read_text() == text_of(oracle_combine(named))
    pairs = [(e.src, e.tgt) for e in library]
    assert len(set(pairs)) < len(pairs)  # shared pairs are kept per input

    again = tmp_path / "again.txt"
    assert main(["combine", "-i", f"abc={out}", "-i", f"d={tmp_path / 'c.txt'}",
                 "-o", str(again)]) == 0
    recombined = [(parse_phrase_table(out.read_text().splitlines()), "abc"), (c, "d")]
    assert again.read_text() == text_of(combine_tables(recombined))
    assert again.read_text() == text_of(oracle_combine(recombined))


@pytest.mark.parametrize("seed", [9, 10])
def test_decode_matches_library_and_oracle_index(tmp_path, seed):
    a, b, c = random_inputs(seed)
    combined = combine_tables([(a, "a"), (b, "b"), (c, "c")])
    rng = random.Random(seed)
    words = sorted({tok for e in combined for tok in e.src}) + ["oov"]
    sentences = [tuple(rng.choice(words) for _ in range(rng.randint(0, 7)))
                 for _ in range(30)]
    inp = tmp_path / "in.txt"
    inp.write_text("".join(" ".join(s) + "\n" for s in sentences), encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["decode", "--table", save(combined, tmp_path / "t.txt"),
                 "--input", str(inp), "-o", str(out)]) == 0
    cfg = DecodeConfig()
    expected = decode_corpus(read_sentences(inp.read_text().splitlines()), combined, cfg)
    assert out.read_text() == "".join(" ".join(s) + "\n" for s in expected)
    index = phrase_index_rows(map(entry_to_row, combined), combined.extras_names, cfg)
    assert index == build_phrase_index(combined, cfg) == oracle_index(combined, cfg)


# --- failures ----------------------------------------------------------------

DUPLICATED = ("a ||| x ||| 0.5 0.5 0.5 0.5 ||| 0-0\n"
              "b ||| y ||| 0.5 0.5 0.5 0.5 |||\n"
              "a ||| x ||| 0.25 0.5 0.5 0.5 |||\n")


def _argv(command: str, table: str, tmp_path, out) -> list[str]:
    if command == "annotate":
        return ["annotate", "-i", table, "-o", str(out), "--kind", "connectivity"]
    if command == "combine":
        other = tmp_path / "other.txt"
        other.write_text("a ||| x ||| 1 1 1 1 |||\n", encoding="utf-8")
        return ["combine", "-i", f"one={table}", "-i", f"two={other}", "-o", str(out)]
    sentences = tmp_path / "in.txt"
    sentences.write_text("a b\n", encoding="utf-8")
    return ["decode", "--table", table, "--input", str(sentences), "-o", str(out)]


@pytest.mark.parametrize("command", ["annotate", "combine", "decode"])
def test_duplicate_pair_exits_one_and_leaves_no_output(tmp_path, capsys, command):
    table = tmp_path / "dup.txt"
    table.write_text(DUPLICATED, encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(_argv(command, str(table), tmp_path, out)) == 1
    assert "duplicate entry for pair 'a' -> 'x'" in capsys.readouterr().err
    assert not out.exists()
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".out.txt")]


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_bad_scorer_value_exits_one_and_leaves_no_output(tmp_path, capsys,
                                                         monkeypatch, value):
    table = tmp_path / "t.txt"
    table.write_text("a ||| x ||| 1 1 1 1 |||\nb ||| y ||| 1 1 1 1 |||\n")
    monkeypatch.setattr(cli, "connectivity_scores", lambda entry: (0.5, value))
    out = tmp_path / "out.txt"
    assert main(["annotate", "-i", str(table), "-o", str(out),
                 "--kind", "connectivity"]) == 1
    assert f"scorer returned bad value {value!r} for pair 'a' -> 'x'" in (
        capsys.readouterr().err)
    assert not out.exists()


# --- spill path ---------------------------------------------------------------

def _run_all(tmp_path, tag: str) -> dict[str, bytes]:
    """annotate, combine of three and decode on fixed random inputs."""
    a, b, c = random_inputs(11)
    work = tmp_path / "in"
    work.mkdir(exist_ok=True)
    paths = {name: save(tbl, work / f"{name}.txt")
             for tbl, name in ((a, "a"), (b, "b"), (c, "c"))}
    out = {name: tmp_path / f"{tag}-{name}.txt"
           for name in ("annotated", "combined", "decoded")}
    assert main(["annotate", "-i", paths["b"], "-o", str(out["annotated"]),
                 "--kind", "connectivity"]) == 0
    assert main(["combine", "-i", f"a={paths['a']}", "-i", f"b={out['annotated']}",
                 "-i", f"c={paths['c']}", "-o", str(out["combined"])]) == 0
    sentences = work / "in.txt"
    sentences.write_text("s0x0 s1x0 s2x0 s3x0\ns4x0 oov s5x0 s5x1\n", encoding="utf-8")
    assert main(["decode", "--table", str(out["combined"]), "--input", str(sentences),
                 "-o", str(out["decoded"])]) == 0
    return {name: path.read_bytes() for name, path in out.items()}


def test_tiny_sort_chunks_give_the_same_bytes_and_clean_up(tmp_path, monkeypatch,
                                                           capsys):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv(extsort.TMPDIR_ENV, str(scratch))
    default = _run_all(tmp_path, "default")
    runs = []
    write_run = extsort._write_run

    def counted(path, rows):
        runs.append(path)
        return write_run(path, rows)
    monkeypatch.setattr(extsort, "_write_run", counted)
    monkeypatch.setattr(extsort, "DEFAULT_CHUNK_SIZE", 3)
    assert _run_all(tmp_path, "tiny") == default
    assert runs and all(p.startswith(str(scratch)) for p in runs)
    assert list(scratch.iterdir()) == []

    # A duplicate met only when the spilled runs are merged.
    table = tmp_path / "dup.txt"
    table.write_text("".join(f"w{k} ||| x ||| 1 1 1 1 |||\n" for k in range(10))
                     + DUPLICATED, encoding="utf-8")
    del runs[:]
    for command in ("annotate", "combine", "decode"):
        out = tmp_path / f"{command}-dup.txt"
        assert main(_argv(command, str(table), tmp_path, out)) == 1
        assert "duplicate entry for pair 'a' -> 'x'" in capsys.readouterr().err
        assert not out.exists()
        assert list(scratch.iterdir()) == []
    assert len(runs) >= 3 * 4


# --- the CLI builds no PhraseTable and no PhraseEntry ---------------------------

def test_row_commands_build_no_table_objects(tmp_path, monkeypatch, morph_model):
    a, b, _ = random_inputs(12)
    pa, pb = save(a, tmp_path / "a.txt"), save(b, tmp_path / "b.txt")
    sentences = tmp_path / "in.txt"
    sentences.write_text("s0x0 s1x0\n", encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("built a table object on the row path")
    monkeypatch.setattr(PhraseTable, "build", classmethod(refuse))
    monkeypatch.setattr(PhraseEntry, "__init__", refuse)
    with pytest.raises(AssertionError):
        PhraseTable.build([])
    scored = tmp_path / "scored.txt"
    assert main(["annotate", "-i", pb, "-o", str(scored), "--kind", "induced",
                 "--src-lex", morph_model["s"], "--tgt-lex", morph_model["t"],
                 "--fc-model", morph_model["model"]]) == 0
    both = tmp_path / "both.txt"
    assert main(["combine", "-i", f"a={pa}", "-i", f"b={scored}",
                 "-o", str(both)]) == 0
    assert main(["decode", "--table", str(both), "--input", str(sentences),
                 "-o", str(tmp_path / "out.txt")]) == 0


def test_library_adapters_keep_their_errors():
    a, b, _ = random_inputs(13)
    with pytest.raises(TableError, match="duplicate table names"):
        combine_tables([(a, "x"), (b, "x")])
    with pytest.raises(TableError, match="bad feature name"):
        annotate_table(a, connectivity_scores, ("ok", "not ok"))
