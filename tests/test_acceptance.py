"""Acceptance checks, one test per numbered criterion.

Each test covers one end-to-end property of the toolkit and reports a
single PASS/FAIL line; the summary block is printed after the module
finishes so it survives output capturing.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict

import pytest

from conftest import entry, oracle_compose, random_pivot_pair, run_pivot_measured, table
from test_evalkit import all_segmentation_scores, random_decode_table
from test_features import random_entry, random_lexicon, random_model, random_rules
from pivotsmith.cli import main
from pivotsmith.evalkit import DecodeConfig, bleu4_report
from pivotsmith.features import (
    connectivity_scores,
    induced_morph_scores,
    rule_morph_scores,
)
from pivotsmith.morphmodel import (
    FcModel,
    build_lexicon,
    default_rules,
    train_fc_model,
)
from pivotsmith.tables import (
    build_phrase_index,
    combine_tables,
    decode_scored,
    filter_top_n,
    pivot_compose,
)
from pivotsmith.triangulate import DEFAULT_TOP_N, PivotConfig

CRITERIA = {
    1: "pivot output matches brute-force oracle on random tables",
    2: "composed scores stay within probability bounds",
    3: "morphology scorers match term-by-term transcriptions",
    4: "bundled rule file holds exactly the documented value pairs",
    5: "trained FC conditionals are normalized and match hand counts",
    6: "top-n filtering is monotone, tie-stable, and defaults to 1000",
    7: "table combination is additive and keeps duplicates distinct",
    8: "BLEU fixtures: identity, brevity penalty, permutation invariance",
    9: "decoder score equals exhaustive segmentation optimum",
    10: "million-entry pivot runs under time and memory bounds",
    11: "CLI pipelines are rerun- and thread-count-deterministic",
    12: "morphology features do not hurt toy end-to-end BLEU",
}

_status: dict[int, bool] = {}


@pytest.fixture(autouse=True)
def _track(request):
    yield
    marker = request.node.get_closest_marker("criterion")
    if marker is None:
        return
    report = getattr(request.node, "report_call", None)
    _status[marker.args[0]] = report is not None and report.passed


@pytest.fixture(scope="module", autouse=True)
def _print_summary(request):
    yield
    lines = []
    for num in sorted(CRITERIA):
        state = _status.get(num)
        word = "PASS" if state else ("FAIL" if state is not None else "NOT RUN")
        lines.append(f"[criterion {num:2d}] {word} - {CRITERIA[num]}")
    text = "\n".join(lines)
    capman = request.config.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(f"\nacceptance summary:\n{text}")
    else:
        print(f"\nacceptance summary:\n{text}")


@pytest.mark.criterion(1, "pivot oracle")
def test_pivot_matches_bruteforce_oracle():
    rng = random.Random(101)
    started = time.perf_counter()
    for _ in range(120):
        sp, pt = random_pivot_pair(
            rng,
            n_src=rng.randint(3, 10),
            n_pivot=rng.randint(2, 8),
            n_tgt=rng.randint(3, 10),
            max_fanout=rng.randint(2, 4),
        )
        assert len(sp.entries) <= 200 and len(pt.entries) <= 200
        expected = oracle_compose(sp.entries, pt.entries)
        got = pivot_compose(sp, pt)
        found = {(e.src, e.tgt): (e.scores.core(), frozenset(e.alignment))
                 for e in got}
        assert found.keys() == expected.keys()
        for key, (scores, links) in expected.items():
            got_scores, got_links = found[key]
            assert got_links == links
            for a, b in zip(got_scores, scores):
                assert abs(a - b) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


@pytest.mark.criterion(2, "probability bounds")
def test_composed_scores_stay_in_probability_bounds():
    rng = random.Random(202)
    for _ in range(1000):
        sp, pt = random_pivot_pair(rng, n_src=4, n_pivot=3, n_tgt=4,
                                   max_fanout=3)
        composed = pivot_compose(sp, pt)
        per_source = defaultdict(float)
        for e in composed:
            for value in e.scores.core():
                assert 0.0 <= value <= 1.0
            per_source[e.src] += e.scores.phi_fwd
        for total in per_source.values():
            assert total <= 1.0 + 1e-9


@pytest.mark.criterion(3, "equation fixtures")
def test_morphology_scorers_match_transcriptions():
    rng = random.Random(303)
    src_lex = random_lexicon(rng, "s", 30)
    tgt_lex = random_lexicon(rng, "t", 30)
    rules = random_rules(rng)
    model = random_model(rng, src_lex, tgt_lex)
    src_vocab = [f"s{k}" for k in range(30)] + ["oov_s"]
    tgt_vocab = [f"t{k}" for k in range(30)] + ["oov_t"]
    features = ("gen", "num", "det", "pos")
    for _ in range(1000):
        e = random_entry(rng, src_vocab, tgt_vocab)
        got = rule_morph_scores(e, src_lex, tgt_lex, rules, features)
        want = _transcribed_rule(e, src_lex, tgt_lex, rules, features)
        assert abs(got.w_s - want[0]) <= 1e-12
        assert abs(got.w_t - want[1]) <= 1e-12
        got = induced_morph_scores(e, src_lex, tgt_lex, model)
        want = _transcribed_induced(e, src_lex, tgt_lex, model)
        assert abs(got.w_s - want[0]) <= 1e-12
        assert abs(got.w_t - want[1]) <= 1e-12
        conn = connectivity_scores(e)
        assert 0.0 <= conn.w_s <= 1.0 and 0.0 <= conn.w_t <= 1.0

    # Published single-link fixture: both conditionals as loaded.
    tag = "[Feminine+Dual+Determiner]"
    fixture_lex = build_lexicon([[
        "w\tNOUN\tFeminine\tDual\tDeterminer\n"]])
    fixture_model = FcModel({(tag, tag): (0.0148, 0.3333)})
    e = entry("w", "w", align=[(0, 0)])
    got = induced_morph_scores(e, fixture_lex, fixture_lex, fixture_model)
    assert got.w_s == pytest.approx(0.3333, abs=1e-6)
    assert got.w_t == pytest.approx(0.0148, abs=1e-6)


def _transcribed_rule(e, src_lex, tgt_lex, rules, features):
    """Direct reading of the two averaged-indicator score definitions."""
    w_s = 0.0
    w_t = 0.0
    for f in features:
        for i, j in e.alignment:
            a = src_lex.mle(e.src[i], f)
            b = tgt_lex.mle(e.tgt[j], f)
            if a is not None and b is not None and rules.allows(f, a, b):
                w_s += 1.0 / len(e.src)
                w_t += 1.0 / len(e.tgt)
    return w_s / len(features), w_t / len(features)


def _transcribed_induced(e, src_lex, tgt_lex, model):
    """Direct reading of the averaged conditional-probability scores."""
    w_s = 0.0
    w_t = 0.0
    for i, j in e.alignment:
        a = src_lex.fc_tag(e.src[i])
        b = tgt_lex.fc_tag(e.tgt[j])
        w_s += model.p_src_given_tgt(a, b)
        w_t += model.p_tgt_given_src(a, b)
    return w_s / len(e.src), w_t / len(e.tgt)


@pytest.mark.criterion(4, "bundled rule pairs")
def test_bundled_rules_match_reference_pairs():
    rules = default_rules()
    assert rules.allows("gen", "Feminine", "Both")
    assert not rules.allows("gen", "Masculine", "Feminine")
    expected = {
        "gen": {("Feminine", "Feminine"), ("Feminine", "Both"),
                ("Masculine", "Masculine"), ("Masculine", "Both")},
        "num": {("Singular", "Singular"), ("Singular", "Singular-Plural"),
                ("Dual", "Dual"), ("Dual", "Dual-Plural"),
                ("Plural", "Plural"), ("Plural", "Dual-Plural"),
                ("Plural", "Singular-Plural")},
        "det": {("Determiner", "Determiner"),
                ("No Determiner", "No Determiner")},
    }
    assert set(rules.features()) == set(expected)
    for feature, pairs in expected.items():
        assert rules.pairs(feature) == frozenset(pairs)
        for src_value, tgt_value in pairs:
            assert rules.allows(feature, src_value, tgt_value)


@pytest.mark.criterion(5, "FC training")
def test_fc_training_normalization_and_hand_counts():
    rng = random.Random(505)
    src_lex = random_lexicon(rng, "sw", 20)
    tgt_lex = random_lexicon(rng, "tw", 20)
    src_lines = []
    tgt_lines = []
    align_lines = []
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        src_lines.append(" ".join(f"sw{rng.randrange(20)}" for _ in range(n)))
        tgt_lines.append(" ".join(f"tw{rng.randrange(20)}" for _ in range(m)))
        links = sorted({(rng.randrange(n), rng.randrange(m))
                        for _ in range(rng.randint(0, n * m))})
        align_lines.append(" ".join(f"{i}-{j}" for i, j in links))
    model = train_fc_model(src_lines, tgt_lines, align_lines,
                           src_lex, tgt_lex)
    by_src = defaultdict(float)
    by_tgt = defaultdict(float)
    for (src_fc, tgt_fc), (fwd, bwd) in model.pairs():
        # A pair key can belong to only one event family; the other
        # direction is stored as 0 and conditions nothing.
        if fwd > 0.0:
            by_src[src_fc] += fwd
        if bwd > 0.0:
            by_tgt[tgt_fc] += bwd
    assert by_src and by_tgt
    for total in by_src.values():
        assert total == pytest.approx(1.0, abs=1e-9)
    for total in by_tgt.values():
        assert total == pytest.approx(1.0, abs=1e-9)

    # Deterministic corpus: a single observed mapping carries probability 1.
    det_lex_src = build_lexicon([["wa\tNOUN\tFeminine\tSingular\tNA\n"]])
    det_lex_tgt = build_lexicon([[
        "xa\tNOUN\tFeminine\tSingular\tNA\n",
        "xb\tNOUN\tMasculine\tSingular\tNA\n"]])
    det = train_fc_model(["wa"], ["xa"], ["0-0"], det_lex_src, det_lex_tgt)
    src_tag = det_lex_src.fc_tag("wa")
    tag_a = det_lex_tgt.fc_tag("xa")
    assert det.p_tgt_given_src(src_tag, tag_a) == 1.0
    assert det.p_src_given_tgt(src_tag, tag_a) == 1.0

    # 3:1 observation split yields 0.75 / 0.25.
    skewed = train_fc_model(["wa", "wa", "wa", "wa"],
                            ["xa", "xa", "xa", "xb"],
                            ["0-0"] * 4, det_lex_src, det_lex_tgt)
    tag_b = det_lex_tgt.fc_tag("xb")
    assert skewed.p_tgt_given_src(src_tag, tag_a) == pytest.approx(0.75, abs=1e-12)
    assert skewed.p_tgt_given_src(src_tag, tag_b) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.criterion(6, "top-n filtering")
def test_filtering_monotone_tie_stable_default(tmp_path, capsys):
    rng = random.Random(606)
    for _ in range(20):
        sp, _ = random_pivot_pair(rng, n_src=6, n_pivot=30, n_tgt=4,
                                  max_fanout=4)
        previous: set | None = None
        for n in (1, 5, 10, 100):
            kept = filter_top_n(sp, None, n)
            keys = {(e.src, e.tgt) for e in kept}
            assert keys <= {(e.src, e.tgt) for e in sp}
            per_source = defaultdict(int)
            for src, _tgt in keys:
                per_source[src] += 1
            for src in {e.src for e in sp}:
                fanout = sum(1 for e in sp if e.src == src)
                assert per_source[src] == min(n, fanout)
            if previous is not None:
                assert previous <= keys
            previous = keys

    # Equal scores resolve toward smaller targets, identically on reruns.
    tied = table([entry("s", t, scores=(0.5, 0.5, 0.5, 0.5))
                  for t in ("t5", "t1", "t4", "t2", "t3")])
    first = filter_top_n(tied, None, 3)
    second = filter_top_n(tied, None, 3)
    assert [e.tgt for e in first] == [("t1",), ("t2",), ("t3",)]
    assert first.entries == second.entries

    # Default width is 1000, both in the config object and on the CLI.
    assert PivotConfig().top_n == 1000
    assert DEFAULT_TOP_N == 1000
    wide = tmp_path / "wide.txt"
    with open(wide, "w", encoding="utf-8") as stream:
        for k in range(1001):
            phi = (k + 2) / 1200
            stream.write(f"s ||| t{k:04d} ||| {phi:.6g} 1 1 1 |||\n")
    assert main(["filter", "-i", str(wide)]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    body = [line for line in out_lines if not line.startswith("#")]
    assert len(body) == 1000
    assert not any(" t0000 " in line for line in body)


@pytest.mark.criterion(7, "combination semantics")
def test_combination_additive_and_duplicate_preserving():
    rng = random.Random(707)
    direct, _ = random_pivot_pair(rng, n_src=8, n_pivot=6, n_tgt=8)
    pivoted, _ = random_pivot_pair(rng, n_src=7, n_pivot=5, n_tgt=7)
    shared = entry("shared src", "shared tgt", scores=(0.5, 0.5, 0.5, 0.5))
    direct = table(list(direct.entries) + [shared])
    pivoted = table(list(pivoted.entries)
                    + [entry("shared src", "shared tgt",
                             scores=(0.25, 0.25, 0.25, 0.25))])
    combined = combine_tables([(direct, "direct"), (pivoted, "pivoted")])
    assert len(combined.entries) == len(direct.entries) + len(pivoted.entries)
    dups = [e for e in combined
            if e.src == ("shared", "src") and e.tgt == ("shared", "tgt")]
    assert len(dups) == 2
    marks = {(e.scores.extra("origin_direct"),
              e.scores.extra("origin_pivoted")) for e in dups}
    assert marks == {(1.0, 0.0), (0.0, 1.0)}


@pytest.mark.criterion(8, "BLEU fixtures")
def test_bleu_reference_behaviors():
    rng = random.Random(808)
    corpus = [[f"w{rng.randrange(30)}" for _ in range(rng.randint(3, 12))]
              for _ in range(20)]
    identical = bleu4_report(corpus, [[s] for s in corpus])
    assert identical.bleu == 1.0

    short = bleu4_report([["a", "b", "c", "d"]], [[["a", "b", "c", "d", "e"]]])
    assert short.bleu == pytest.approx(0.778801, abs=1e-6)
    assert short.brevity_penalty == pytest.approx(math.exp(1 - 5 / 4), abs=1e-12)

    hyps = [[f"v{rng.randrange(12)}" for _ in range(rng.randint(4, 9))]
            for _ in range(50)]
    refs = [[s[:-1] + [rng.choice(("v1", "v2"))]] for s in hyps]
    base = bleu4_report(hyps, refs)
    for seed in (1, 2, 3):
        order = list(range(50))
        random.Random(seed).shuffle(order)
        shuffled = bleu4_report([hyps[i] for i in order],
                                [refs[i] for i in order])
        assert shuffled == base


@pytest.mark.criterion(9, "decoder optimality")
def test_decoder_matches_exhaustive_enumeration():
    rng = random.Random(909)
    vocab = [f"w{i}" for i in range(6)]
    cfg = DecodeConfig()
    for _ in range(200):
        tbl = random_decode_table(rng, vocab, n_entries=50)
        index = build_phrase_index(tbl, cfg)
        sentence = [rng.choice(vocab + ["zzz"])
                    for _ in range(rng.randint(1, 8))]
        _, got = decode_scored(sentence, tbl, cfg)
        assert got == max(all_segmentation_scores(sentence, index, cfg))


def _write_scale_pair(dirpath, fanout):
    """Two million-entry tables whose pivot fanout is `fanout` on each side."""
    n_entries = 1_000_000
    n_src = n_entries // fanout
    n_pivots = n_entries // fanout
    share = f"{1 / fanout:.6g}"
    sp_path = dirpath / f"sp_f{fanout}.txt"
    pt_path = dirpath / f"pt_f{fanout}.txt"
    with open(sp_path, "w", encoding="utf-8") as stream:
        chunk = []
        for i in range(n_src):
            base = fanout * i
            for k in range(fanout):
                p = (base + k) % n_pivots
                chunk.append(
                    f"s{i:07d} ||| e{p:07d} ||| "
                    f"{share} {share} {share} {share} ||| 0-0\n")
            if len(chunk) >= 20000:
                stream.write("".join(chunk))
                chunk.clear()
        stream.write("".join(chunk))
    with open(pt_path, "w", encoding="utf-8") as stream:
        chunk = []
        for p in range(n_pivots):
            base = fanout * p
            for k in range(fanout):
                t = (base + k) % n_entries
                chunk.append(
                    f"e{p:07d} ||| t{t:07d} ||| "
                    f"{share} {share} 1 1 ||| 0-0\n")
            if len(chunk) >= 20000:
                stream.write("".join(chunk))
                chunk.clear()
        stream.write("".join(chunk))
    return sp_path, pt_path


@pytest.mark.slow
@pytest.mark.criterion(10, "streaming scale")
def test_million_entry_pivot_bounded_time_and_memory(tmp_path):
    scratch = tmp_path / "scratch"
    scratch.mkdir()

    sp, pt = _write_scale_pair(tmp_path, 2)
    out_a = tmp_path / "out_f2.txt"
    elapsed_a, peak_a, hwm_a, worker_a = run_pivot_measured(sp, pt, out_a, scratch)
    with open(out_a, "rb") as stream:
        produced = sum(1 for _ in stream)
    assert produced == 2_000_000
    assert elapsed_a < 120.0, f"baseline run took {elapsed_a:.1f}s"
    assert peak_a < 2 * 1024 * 1024, f"baseline peak {peak_a} KB"
    # ru_maxrss can carry the starting process's peak across the exec;
    # VmHWM is the child's own.  It is -1 where /proc is missing.  The disk
    # pivot store's worker may peak while the command does, so the two
    # peaks are gated together.
    if hwm_a != -1:
        hwm_a += worker_a
        assert hwm_a < 2 * 1024 * 1024, f"baseline VmHWM and worker {hwm_a} KB"
    for path in (sp, pt, out_a):
        path.unlink()

    # Doubling per-pivot fanout doubles the potential cross product while
    # the table sizes stay fixed; memory must not follow the cross product.
    sp, pt = _write_scale_pair(tmp_path, 4)
    out_b = tmp_path / "out_f4.txt"
    _, peak_b, hwm_b, worker_b = run_pivot_measured(sp, pt, out_b, scratch)
    with open(out_b, "rb") as stream:
        produced = sum(1 for _ in stream)
    assert produced == 4_000_000
    assert peak_b <= 1.2 * peak_a, f"{peak_b} KB vs baseline {peak_a} KB"
    if hwm_a != -1:
        hwm_b += worker_b
        assert hwm_b <= 1.2 * hwm_a, \
            f"VmHWM and worker {hwm_b} KB vs baseline {hwm_a} KB"
    for path in (sp, pt, out_b):
        path.unlink()


def _run_to_bytes(argv, out_path):
    assert main([*argv, "-o", str(out_path)]) == 0
    return out_path.read_bytes()


@pytest.mark.criterion(11, "CLI determinism")
def test_cli_pipelines_are_deterministic(tmp_path):
    rng = random.Random(111)
    sp, pt = random_pivot_pair(rng, n_src=12, n_pivot=9, n_tgt=12)
    sp_path = tmp_path / "sp.txt"
    pt_path = tmp_path / "pt.txt"
    for tbl, path in ((sp, sp_path), (pt, pt_path)):
        with open(path, "w", encoding="utf-8") as stream:
            from pivotsmith.tables import write_phrase_table
            write_phrase_table(tbl, stream)
    reo_path = tmp_path / "reo.txt"
    with open(reo_path, "w", encoding="utf-8") as stream:
        for e in pt.entries[::2]:
            stream.write(f"{' '.join(e.src)} ||| {' '.join(e.tgt)} ||| "
                         "0.5 0.25 0.25 0.6 0.2 0.2\n")

    pivots = []
    reorders = []
    for k in range(3):
        out = tmp_path / f"pivot{k}.txt"
        reo_out = tmp_path / f"reo{k}.txt"
        assert main(["pivot", "--sp", str(sp_path), "--pt", str(pt_path),
                     "-o", str(out), "--chunk-size", "3",
                     "--reordering-pt", str(reo_path),
                     "--reordering-out", str(reo_out)]) == 0
        pivots.append(out.read_bytes())
        reorders.append(reo_out.read_bytes())
    assert pivots[0] == pivots[1] == pivots[2]
    assert reorders[0] == reorders[1] == reorders[2]

    filters = [_run_to_bytes(["filter", "-i", str(sp_path), "--top-n", "2"],
                             tmp_path / f"filter{k}.txt") for k in range(3)]
    assert filters[0] == filters[1] == filters[2]

    annotated = [
        _run_to_bytes(["annotate", "-i", str(sp_path),
                       "--kind", "connectivity", "--threads", threads],
                      tmp_path / f"ann{threads}_{k}.txt")
        for threads in ("1", "8") for k in range(3)]
    assert len(set(annotated)) == 1

    combined = [_run_to_bytes(["combine", "-i", f"a={sp_path}",
                               "-i", f"b={sp_path}"],
                              tmp_path / f"comb{k}.txt") for k in range(3)]
    assert combined[0] == combined[1] == combined[2]

    pivot_out = tmp_path / "pivot0.txt"
    sentences = tmp_path / "sentences.txt"
    sources = sorted({" ".join(e.src) for e in sp})
    sentences.write_text("".join(f"{s} zzz\n" for s in sources[:10]))
    decoded = [
        _run_to_bytes(["decode", "--table", str(pivot_out),
                       "--input", str(sentences), "--threads", threads],
                      tmp_path / f"dec{threads}_{k}.txt")
        for threads in ("1", "8") for k in range(3)]
    assert len(set(decoded)) == 1


def _end_to_end_files(tmp_path):
    lemmas = range(20)
    functions = range(1, 5)
    src_tagged = tmp_path / "src_tagged.tsv"
    tgt_tagged = tmp_path / "tgt_tagged.tsv"
    with open(src_tagged, "w", encoding="utf-8") as stream:
        for k in lemmas:
            stream.write(f"sm{k}\tNOUN\tMasculine\tSingular\tNA\n")
            stream.write(f"sf{k}\tNOUN\tFeminine\tSingular\tNA\n")
        for i in functions:
            stream.write(f"fw{i}\tPART\tNA\tNA\tNA\n")
    with open(tgt_tagged, "w", encoding="utf-8") as stream:
        for k in lemmas:
            stream.write(f"tm{k}\tNOUN\tMasculine\tSingular\tNA\n")
            stream.write(f"tf{k}\tNOUN\tFeminine\tSingular\tNA\n")
        for i in functions:
            stream.write(f"gw{i}\tPART\tNA\tNA\tNA\n")

    parallel_src = tmp_path / "parallel_src.txt"
    parallel_tgt = tmp_path / "parallel_tgt.txt"
    parallel_align = tmp_path / "parallel_align.txt"
    with open(parallel_src, "w", encoding="utf-8") as src_stream, \
            open(parallel_tgt, "w", encoding="utf-8") as tgt_stream, \
            open(parallel_align, "w", encoding="utf-8") as align_stream:
        for k in range(10):
            for s_word, t_word in ((f"sf{k}", f"tf{k}"), (f"sm{k}", f"tm{k}")):
                src_stream.write(f"fw1 {s_word} fw2 fw3 fw4\n")
                tgt_stream.write(f"gw1 {t_word} gw2 gw3 gw4\n")
                align_stream.write("0-0 1-1 2-2 3-3 4-4\n")

    sp_path = tmp_path / "sp.txt"
    pt_path = tmp_path / "pt.txt"
    with open(sp_path, "w", encoding="utf-8") as stream:
        for k in lemmas:
            stream.write(f"sm{k} ||| p{k} ||| 1 1 0.5 0.5 ||| 0-0\n")
            stream.write(f"sf{k} ||| p{k} ||| 1 1 0.5 0.5 ||| 0-0\n")
        for i in functions:
            stream.write(f"fw{i} ||| pf{i} ||| 1 1 1 1 ||| 0-0\n")
    with open(pt_path, "w", encoding="utf-8") as stream:
        for k in lemmas:
            stream.write(f"p{k} ||| tm{k} ||| 0.55 0.55 1 1 ||| 0-0\n")
            stream.write(f"p{k} ||| tf{k} ||| 0.45 0.45 1 1 ||| 0-0\n")
        for i in functions:
            stream.write(f"pf{i} ||| gw{i} ||| 1 1 1 1 ||| 0-0\n")

    test_src = tmp_path / "test_src.txt"
    test_ref = tmp_path / "test_ref.txt"
    with open(test_src, "w", encoding="utf-8") as src_stream, \
            open(test_ref, "w", encoding="utf-8") as ref_stream:
        for k in range(10, 20):
            gender = "f" if k % 2 == 0 else "m"
            src_stream.write(f"fw1 s{gender}{k} fw2 fw3 fw4\n")
            ref_stream.write(f"gw1 t{gender}{k} gw2 gw3 gw4\n")
    return (src_tagged, tgt_tagged, parallel_src, parallel_tgt,
            parallel_align, sp_path, pt_path, test_src, test_ref)


def _bleu_of(hyp_path, ref_path, capsys):
    capsys.readouterr()
    assert main(["bleu", "--hyp", str(hyp_path), "--ref", str(ref_path)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("BLEU = ")
    return float(first.split("=")[1])


@pytest.mark.criterion(12, "end-to-end pipeline shape")
def test_morphology_features_lift_toy_bleu(tmp_path, capsys):
    (src_tagged, tgt_tagged, parallel_src, parallel_tgt, parallel_align,
     sp_path, pt_path, test_src, test_ref) = _end_to_end_files(tmp_path)

    src_lex = tmp_path / "src.lex"
    tgt_lex = tmp_path / "tgt.lex"
    assert main(["lexicon", "-i", str(src_tagged), "-o", str(src_lex)]) == 0
    assert main(["lexicon", "-i", str(tgt_tagged), "-o", str(tgt_lex)]) == 0

    fc_model = tmp_path / "fc_model.tsv"
    assert main(["fc-train", "--src", str(parallel_src),
                 "--tgt", str(parallel_tgt), "--align", str(parallel_align),
                 "--src-lex", str(src_lex), "--tgt-lex", str(tgt_lex),
                 "-o", str(fc_model)]) == 0

    composed = tmp_path / "composed.txt"
    assert main(["pivot", "--sp", str(sp_path), "--pt", str(pt_path),
                 "-o", str(composed)]) == 0

    annotated = tmp_path / "annotated.txt"
    assert main(["annotate", "-i", str(composed), "-o", str(annotated),
                 "--kind", "induced", "--src-lex", str(src_lex),
                 "--tgt-lex", str(tgt_lex), "--fc-model", str(fc_model)]) == 0

    hyp_base = tmp_path / "hyp_base.txt"
    hyp_morph = tmp_path / "hyp_morph.txt"
    assert main(["decode", "--table", str(composed),
                 "--input", str(test_src), "-o", str(hyp_base)]) == 0
    assert main(["decode", "--table", str(annotated),
                 "--input", str(test_src), "-o", str(hyp_morph)]) == 0

    bleu_base = _bleu_of(hyp_base, test_ref, capsys)
    bleu_morph = _bleu_of(hyp_morph, test_ref, capsys)
    assert bleu_morph >= bleu_base
    # The planted agreement signal is decisive on this corpus: the plain
    # composed table prefers the majority gender everywhere, the annotated
    # table recovers every feminine target.
    assert bleu_morph == 1.0
    assert bleu_base < 1.0
