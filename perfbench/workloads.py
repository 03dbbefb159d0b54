"""Seeded inputs, command lists and output checks for the benchmark workloads.

Each ``make_*`` function writes one workload's input files into a work
directory, deterministically from a seed, and returns a ``Workload``: the
pivotsmith commands to run, the files they write, a manifest of the input
properties the workload exists for, and a check of the outputs against
values the generator predicts or that an independent transcription in
this file recomputes.  The program only ever sees the generated files.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SEP = " ||| "
LOG_FLOOR = 1e-9          # the program's default log-linear floor
OVERSHOOT_TOL = 1e-9      # composed sums this far above 1 are snapped to 1
DEFAULT_CHUNK = 250_000   # the program's default rows per in-memory sort


@dataclass
class Command:
    """One pivotsmith invocation; ``args`` None means import the CLI and exit."""

    label: str
    args: list[str] | None
    outputs: list[str] = field(default_factory=list)


@dataclass
class Workload:
    setup: list[Command]
    timed: list[Command]
    rows_read: int
    manifest: dict
    check: Callable[[Path], dict[str, list[str]]]


# Sizes used by the benchmark; the tests run the same generators at TINY.
SIZES = {
    "pivot-spill": dict(rows=10_000, fanout=4, chunk=2_000),
    "pivot-hub": dict(sources=1_800, pivots=600, target_pool=2_000,
                      hub_targets=40, top_n=5, sample=300),
    "score-decode": dict(lemmas=1_000, tagged_sentences=800,
                         parallel_sentences=800, pivoted=5_000,
                         direct=2_000, sentences=1_000),
}
TINY = {
    "pivot-spill": dict(rows=400, fanout=4, chunk=80),
    "pivot-hub": dict(sources=120, pivots=40, target_pool=150,
                      hub_targets=12, top_n=3, sample=30),
    "score-decode": dict(lemmas=80, tagged_sentences=60,
                         parallel_sentences=60, pivoted=300,
                         direct=120, sentences=40),
}


def make(name: str, workdir: Path, seed: int, size: dict) -> Workload:
    makers = {"pivot-spill": make_pivot_spill, "pivot-hub": make_pivot_hub,
              "score-decode": make_score_decode}
    workdir.mkdir(parents=True, exist_ok=True)
    return makers[name](workdir, seed, **size)


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("".join(lines), encoding="utf-8")


def _fmt(value: float) -> str:
    # The table format writes scores with six significant digits.
    return "%.6g" % value


# --- pivot-spill -------------------------------------------------------------

def make_pivot_spill(workdir: Path, seed: int, rows: int, fanout: int,
                     chunk: int) -> Workload:
    """Uniform tables of the acceptance scale test, resized and relabelled.

    Source i links to pivots fanout*i .. fanout*i+fanout-1 (mod the pivot
    count), pivot p to targets fanout*p .. fanout*p+fanout-1.  Distinct
    pivots reach disjoint targets, so every composed pair comes from one
    pivot and the output is fully predictable.  The seed picks the phrase
    labels and the line order, so the sorts see new inputs per seed.
    """
    rng = random.Random(seed)
    n_src = n_piv = rows // fanout
    src = [f"s{i:07d}" for i in rng.sample(range(10 * n_src), n_src)]
    piv = [f"e{i:07d}" for i in rng.sample(range(10 * n_piv), n_piv)]
    tgt = [f"t{i:07d}" for i in rng.sample(range(10 * rows), rows)]
    share = f"{1 / fanout:.6g}"
    sp_lines = [f"{src[i]} ||| {piv[(fanout * i + k) % n_piv]} ||| "
                f"{share} {share} {share} {share} ||| 0-0\n"
                for i in range(n_src) for k in range(fanout)]
    pt_lines = [f"{piv[p]} ||| {tgt[fanout * p + k]} ||| "
                f"{share} {share} 1 1 ||| 0-0\n"
                for p in range(n_piv) for k in range(fanout)]
    rng.shuffle(sp_lines)
    rng.shuffle(pt_lines)
    _write(workdir / "sp.txt", sp_lines)
    _write(workdir / "pt.txt", pt_lines)

    f = float(share)
    scores = " ".join(_fmt(v) for v in (f * f, f * f, f, f))
    expected = sorted(
        (src[i], tgt[fanout * ((fanout * i + k) % n_piv) + k2])
        for i in range(n_src) for k in range(fanout) for k2 in range(fanout))
    partials = n_src * fanout * fanout
    manifest = {
        "rows_sp": len(sp_lines), "rows_pt": len(pt_lines),
        "distinct_pivots": n_piv,
        "largest_pivot_group_sp": fanout, "largest_pivot_group_pt": fanout,
        "predicted_partials": partials, "predicted_rows_out": len(expected),
        "chunk_size": chunk,
        "sort_rows_per_chunk": {"sp_by_src": len(sp_lines) / chunk,
                                "pt_by_src": len(pt_lines) / chunk,
                                "sp_by_pivot": len(sp_lines) / chunk,
                                "partials": partials / chunk},
    }

    def check(wd: Path) -> dict[str, list[str]]:
        want = "".join(f"{s} ||| {t} ||| {scores} ||| 0-0\n" for s, t in expected)
        got = (wd / "out.txt").read_text(encoding="utf-8")
        if got == want:
            return {}
        n_got = got.count("\n")
        return {"out.txt": [f"output differs from the predicted table"
                            f" ({n_got} rows, {len(expected)} predicted)"]}

    cmd = Command("pivot", ["pivot", "--sp", "sp.txt", "--pt", "pt.txt",
                            "-o", "out.txt", "--top-n", "100",
                            "--chunk-size", str(chunk)], ["out.txt"])
    return Workload([Command("import", None)], [cmd],
                    len(sp_lines) + len(pt_lines), manifest, check)


# --- pivot-hub ---------------------------------------------------------------

def _phrase(rng: random.Random, prefix: str, vocab: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{rng.randrange(vocab)}"
                 for _ in range(rng.randint(1, 5)))


def _distinct_phrases(rng, prefix, vocab, n):
    seen: dict[tuple[str, ...], None] = {}
    while len(seen) < n:
        seen.setdefault(_phrase(rng, prefix, vocab))
    return list(seen)


def _links(rng: random.Random, n: int, m: int) -> tuple[tuple[int, int], ...]:
    count = rng.randint(1, min(n, m) + 1)
    return tuple(sorted({(rng.randrange(n), rng.randrange(m))
                         for _ in range(count)}))


def _prob(rng: random.Random) -> float:
    # Four decimals print exactly and keep normalized sums at or below 1.
    return rng.randint(1, 10_000) / 10_000


def _normalized(rng: random.Random, n: int) -> list[float]:
    weights = [rng.uniform(0.2, 1.0) for _ in range(n)]
    total = sum(weights)
    return [max(1, math.floor(w / total * 10_000)) / 10_000 for w in weights]


def _loglinear(scores) -> float:
    # Uniform weights of one, summed in column order like the program.
    total = 0.0
    for value in scores:
        total += 1.0 * math.log(value if value > LOG_FLOOR else LOG_FLOOR)
    return total


def _top_n(rows: list, n: int) -> list:
    """Best n rows of one source: higher log-linear score, then smaller target."""
    return sorted(rows, key=lambda r: (-_loglinear(r[2]), r[1]))[:n]


def _row_line(src, tgt, scores, links) -> str:
    head = SEP.join([" ".join(src), " ".join(tgt),
                     " ".join(_fmt(v) for v in scores)])
    if not links:
        return head + " |||"
    return head + SEP + " ".join(f"{i}-{j}" for i, j in links)


def make_pivot_hub(workdir: Path, seed: int, sources: int, pivots: int,
                   target_pool: int, hub_targets: int, top_n: int,
                   sample: int) -> Workload:
    """Skewed tables: Zipf (s = 1) pivot popularity, 1-5 token phrases.

    Each source links to 1-7 distinct pivots drawn by popularity, so the
    most popular pivots collect large source groups; popular pivots also
    carry many targets.  Both sides exceed ``top_n`` for some phrases, so
    pruning is real.  About half the pivot-target pairs have an
    orientation entry.  Every sort fits in one default chunk.
    """
    rng = random.Random(seed)
    piv_phrases = _distinct_phrases(rng, "p", 3 * pivots, pivots)
    src_phrases = _distinct_phrases(rng, "a", 3 * sources, sources)
    tgt_phrases = _distinct_phrases(rng, "b", 3 * target_pool, target_pool)
    cum, acc = [], 0.0
    for rank in range(pivots):
        acc += 1.0 / (rank + 1)
        cum.append(acc)

    sp: list = []
    for s in src_phrases:
        k = rng.randint(1, 7)
        chosen: dict[int, None] = {}
        while len(chosen) < k:
            chosen.setdefault(rng.choices(range(pivots), cum_weights=cum)[0])
        fwd = _normalized(rng, k)
        lex = _normalized(rng, k)
        for n, p in enumerate(chosen):
            pv = piv_phrases[p]
            sp.append((s, pv, (fwd[n], lex[n], _prob(rng), _prob(rng)),
                       _links(rng, len(s), len(pv))))
    pt_raw: list = []
    for rank, pv in enumerate(piv_phrases):
        m = rng.randint(1, 6) + int(hub_targets / (rank + 1))
        for t in rng.sample(range(target_pool), min(m, target_pool)):
            tg = tgt_phrases[t]
            pt_raw.append((pv, tg, _prob(rng), _prob(rng),
                           _links(rng, len(pv), len(tg))))
    # Backward scores are normalized over the pivots of each target.
    by_tgt: dict[tuple, list[int]] = {}
    for n, row in enumerate(pt_raw):
        by_tgt.setdefault(row[1], []).append(n)
    bwd = [0.0] * len(pt_raw)
    lbwd = [0.0] * len(pt_raw)
    for members in by_tgt.values():
        for n, v, w in zip(members, _normalized(rng, len(members)),
                           _normalized(rng, len(members))):
            bwd[n], lbwd[n] = v, w
    pt = [(pv, tg, (f, lf, bwd[n], lbwd[n]), links)
          for n, (pv, tg, f, lf, links) in enumerate(pt_raw)]
    reo = []
    for pv, tg, _, _ in pt:
        if rng.random() < 0.5:
            a, b = rng.randint(0, 1000), rng.randint(0, 1000)
            c, d = sorted((rng.randint(0, 1000), rng.randint(0, 1000)))
            a, b = min(a, b), max(a, b)
            probs = (a, b - a, 1000 - b, c, d - c, 1000 - d)
            reo.append((pv, tg, " ".join(_fmt(v / 1000) for v in probs)))

    for path, table in (("sp.txt", sp), ("pt.txt", pt)):
        lines = [_row_line(*row) + "\n" for row in table]
        rng.shuffle(lines)
        _write(workdir / path, lines)
    reo_lines = [f"{' '.join(pv)} ||| {' '.join(tg)} ||| {probs}\n"
                 for pv, tg, probs in reo]
    rng.shuffle(reo_lines)
    _write(workdir / "reo-pt.txt", reo_lines)

    def grouped(rows):
        groups: dict[tuple, list] = {}
        for row in rows:
            groups.setdefault(row[0], []).append(row)
        return groups

    sp_kept = {s: _top_n(rows, top_n) for s, rows in grouped(sp).items()}
    pt_kept = {p: _top_n(rows, top_n) for p, rows in grouped(pt).items()}
    kept_by_pivot = Counter(row[1] for rows in sp_kept.values() for row in rows)
    partials = sum(n * len(pt_kept.get(p, ())) for p, n in kept_by_pivot.items())
    n_kept_sp = sum(kept_by_pivot.values())
    manifest = {
        "rows_sp": len(sp), "rows_pt": len(pt), "rows_reordering_pt": len(reo),
        "distinct_sources": len(src_phrases), "distinct_pivots": pivots,
        "largest_pivot_group_sp": max(Counter(r[1] for r in sp).values()),
        "largest_pivot_group_pt": max(len(v) for v in grouped(pt).values()),
        "top_n": top_n,
        "kept_sp": n_kept_sp,
        "kept_pt": sum(len(v) for v in pt_kept.values()),
        "predicted_partials": partials,
        "chunk_size": DEFAULT_CHUNK,
        "sort_rows_per_chunk": {"sp_by_src": len(sp) / DEFAULT_CHUNK,
                                "pt_by_src": len(pt) / DEFAULT_CHUNK,
                                "sp_by_pivot": n_kept_sp / DEFAULT_CHUNK,
                                "partials": partials / DEFAULT_CHUNK,
                                "reordering_pt": len(reo) / DEFAULT_CHUNK},
        "oracle_sample_sources": min(sample, len(src_phrases)),
    }
    sample_srcs = random.Random(seed + 1).sample(
        sorted(sp_kept), min(sample, len(sp_kept)))

    def oracle(s) -> list[str]:
        acc: dict[tuple, tuple[list[float], set]] = {}
        for _, pv, f, a_sp in sorted(sp_kept[s], key=lambda r: r[1]):
            for _, tg, g, a_pt in pt_kept.get(pv, ()):
                sums, links = acc.setdefault(tg, ([0.0] * 4, set()))
                for k in range(4):
                    sums[k] += f[k] * g[k]
                links.update((i, m) for i, j in a_sp for j2, m in a_pt if j == j2)
        lines = []
        for tg in sorted(acc):
            sums, links = acc[tg]
            snapped = [1.0 if 1.0 < v <= 1.0 + OVERSHOOT_TOL else v for v in sums]
            lines.append(_row_line(s, tg, snapped, sorted(links)))
        return lines

    def check(wd: Path) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}
        by_src: dict[tuple, list[str]] = {}
        pairs = []
        with open(wd / "out.txt", encoding="utf-8") as stream:
            for line in stream:
                line = line.rstrip("\n")
                src, tgt, _ = line.split(SEP, 2)
                key = (tuple(src.split()), tuple(tgt.split()))
                pairs.append(key)
                by_src.setdefault(key[0], []).append(line)
        out_problems = problems.setdefault("out.txt", [])
        if pairs != sorted(pairs):
            out_problems.append("rows are not sorted by (source, target)")
        for s in sample_srcs:
            if by_src.get(s, []) != oracle(s):
                out_problems.append(f"source {' '.join(s)!r} differs from the oracle")
        reo_problems = problems.setdefault("reo-out.txt", [])
        reo_pairs = []
        with open(wd / "reo-out.txt", encoding="utf-8") as stream:
            for line in stream:
                src, tgt, probs = line.rstrip("\n").split(SEP)
                reo_pairs.append((tuple(src.split()), tuple(tgt.split())))
                values = [float(v) for v in probs.split()]
                if len(values) != 6 or any(
                        abs(sum(values[lo:lo + 3]) - 1.0) > 1e-6 for lo in (0, 3)):
                    reo_problems.append(f"bad orientation triples for {src!r} -> {tgt!r}")
        if sorted(reo_pairs) != pairs:
            reo_problems.append("reordering pairs differ from the composed pairs")
        return {path: found for path, found in problems.items() if found}

    cmd = Command("pivot", ["pivot", "--sp", "sp.txt", "--pt", "pt.txt",
                            "-o", "out.txt", "--top-n", str(top_n),
                            "--reordering-pt", "reo-pt.txt",
                            "--reordering-out", "reo-out.txt"],
                  ["out.txt", "reo-out.txt"])
    return Workload([Command("import", None)], [cmd],
                    len(sp) + len(pt) + len(reo), manifest, check)


# --- score-decode ------------------------------------------------------------

_POS = ("noun", "verb", "adj", "adv", "prep")
_GEN = ("Masculine", "Feminine", "NA")
_NUM = ("Singular", "Plural", "Dual", "NA")
_DET = ("Determiner", "NA")


def _features(rng: random.Random) -> tuple[str, str, str, str]:
    return (rng.choice(_POS), rng.choice(_GEN), rng.choice(_NUM), rng.choice(_DET))


def _noisy(rng: random.Random, values, keep: float):
    return values if rng.random() < keep else _features(rng)


def bleu_report_lines(hypotheses, references) -> list[str]:
    """Corpus BLEU-4 against one reference per sentence, no smoothing.

    An independent transcription of the definition, used to check the
    ``bleu`` command's output.
    """
    matched = [0] * 4
    totals = [0] * 4
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            if len(hyp) < n:
                continue
            totals[n - 1] += len(hyp) - n + 1
            ref_grams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            hyp_grams = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
            matched[n - 1] += sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
    precisions = [m / t if t else 0.0 for m, t in zip(matched, totals)]
    if hyp_len == 0:
        bp = 0.0
    elif hyp_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)
    bleu = 0.0 if min(precisions) == 0.0 else bp * math.exp(
        sum(math.log(p) for p in precisions) / 4.0)
    return [f"BLEU = {bleu:.6f}",
            " ".join(f"p{i} = {p:.6f}" for i, p in enumerate(precisions, 1)),
            f"BP = {bp:.6f} hyp_len = {hyp_len} ref_len = {ref_len}"]


def make_score_decode(workdir: Path, seed: int, lemmas: int,
                      tagged_sentences: int, parallel_sentences: int,
                      pivoted: int, direct: int, sentences: int) -> Workload:
    """A toy language pair with word-level translations and morphology.

    Source word i translates to target word i; target features agree with
    the source word's most of the time, so the FC model learns real
    preferences.  The tables hold the correct phrase translations among
    random distractors, so decoding and BLEU produce non-trivial output.
    """
    rng = random.Random(seed)
    src_words = [f"x{i}" for i in range(lemmas)]
    tgt_words = [f"y{i}" for i in range(lemmas)]
    src_feats = [_features(rng) for _ in range(lemmas)]
    tgt_feats = [_noisy(rng, f, 0.8) for f in src_feats]
    # Zipf-like word frequencies make some words common across files.
    cum, acc = [], 0.0
    for rank in range(lemmas):
        acc += 1.0 / (rank + 1) ** 0.8
        cum.append(acc)

    def sentence(lo: int, hi: int) -> list[int]:
        return rng.choices(range(lemmas), cum_weights=cum, k=rng.randint(lo, hi))

    for side, words, feats in (("src", src_words, src_feats),
                               ("tgt", tgt_words, tgt_feats)):
        lines = []
        for _ in range(tagged_sentences):
            for w in sentence(4, 14):
                lines.append("\t".join((words[w], *_noisy(rng, feats[w], 0.9))) + "\n")
            lines.append("\n")
        _write(workdir / f"tagged.{side}", lines)
    par_src, par_tgt, par_align = [], [], []
    for _ in range(parallel_sentences):
        ws = sentence(4, 14)
        order = list(range(len(ws)))
        for i in range(0, len(order) - 1, 3):
            if rng.random() < 0.3:
                order[i], order[i + 1] = order[i + 1], order[i]
        par_src.append(" ".join(src_words[w] for w in ws) + "\n")
        par_tgt.append(" ".join(tgt_words[ws[i]] for i in order) + "\n")
        par_align.append(" ".join(f"{order[j]}-{j}" for j in range(len(order))
                                  if rng.random() < 0.9) + "\n")
    _write(workdir / "par.src", par_src)
    _write(workdir / "par.tgt", par_tgt)
    _write(workdir / "par.align", par_align)

    def table(n_rows: int) -> list[str]:
        entries: dict[tuple, str] = {}
        while len(entries) < n_rows:
            span = sentence(1, 3)
            src = tuple(src_words[w] for w in span)
            if rng.random() < 0.5:
                tgt = tuple(tgt_words[w] for w in span)
                links = tuple((i, i) for i in range(len(span)))
            else:
                tgt = tuple(tgt_words[w] for w in sentence(1, 3))
                links = _links(rng, len(src), len(tgt))
            scores = tuple(_prob(rng) for _ in range(4))
            entries.setdefault((src, tgt), _row_line(src, tgt, scores, links) + "\n")
        lines = list(entries.values())
        rng.shuffle(lines)
        return lines

    _write(workdir / "pivoted.txt", table(pivoted))
    _write(workdir / "direct.txt", table(direct))
    test_src, test_ref = [], []
    for _ in range(sentences):
        ws = sentence(8, 20)
        test_src.append(" ".join(src_words[w] for w in ws) + "\n")
        test_ref.append(" ".join(tgt_words[w] for w in ws) + "\n")
    _write(workdir / "test.src", test_src)
    _write(workdir / "test.ref", test_ref)

    lengths = [len(s.split()) for s in test_src]
    manifest = {
        "lemmas": lemmas, "tagged_sentences_per_side": tagged_sentences,
        "parallel_sentences": parallel_sentences,
        "rows_pivoted": pivoted, "rows_direct": direct,
        "rows_combined": pivoted + direct,
        "test_sentences": sentences,
        "test_sentence_tokens_mean": sum(lengths) / len(lengths),
        "test_sentence_tokens_max": max(lengths),
    }

    def check(wd: Path) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}

        def expect(path: str, header: str, rows: int) -> None:
            lines = (wd / path).read_text(encoding="utf-8").splitlines()
            found = []
            if not lines or lines[0] != header:
                found.append(f"header is not {header!r}")
            if len(lines) - 1 != rows:
                found.append(f"{len(lines) - 1} rows, expected {rows}")
            if found:
                problems[path] = found

        expect("scored.txt", "#features: morph_fc_s morph_fc_t", pivoted)
        expect("both.txt", "#features: morph_fc_s morph_fc_t origin_direct"
               " origin_pivoted", pivoted + direct)
        hyps = [line.split() for line in
                (wd / "test.hyp").read_text(encoding="utf-8").splitlines()]
        refs = [line.split() for line in test_ref]
        if len(hyps) != sentences:
            problems["test.hyp"] = [f"{len(hyps)} lines, expected {sentences}"]
        got = (wd / "bleu.txt").read_text(encoding="utf-8").splitlines()
        if got != bleu_report_lines(hyps, refs):
            problems["bleu.txt"] = ["BLEU report differs from the recomputed one"]
        return problems

    lex = ["--src-lex", "src.lex", "--tgt-lex", "tgt.lex"]
    setup = [
        Command("lexicon_src", ["lexicon", "-i", "tagged.src", "-o", "src.lex"],
                ["src.lex"]),
        Command("lexicon_tgt", ["lexicon", "-i", "tagged.tgt", "-o", "tgt.lex"],
                ["tgt.lex"]),
        Command("fc_train", ["fc-train", "--src", "par.src", "--tgt", "par.tgt",
                             "--align", "par.align", *lex, "-o", "fc-model.tsv"],
                ["fc-model.tsv"]),
    ]
    timed = [
        Command("annotate", ["annotate", "-i", "pivoted.txt", "-o", "scored.txt",
                             "--kind", "induced", *lex,
                             "--fc-model", "fc-model.tsv"], ["scored.txt"]),
        Command("combine", ["combine", "-i", "direct=direct.txt",
                            "-i", "pivoted=scored.txt", "-o", "both.txt"],
                ["both.txt"]),
        Command("decode", ["decode", "--table", "both.txt", "--input", "test.src",
                           "-o", "test.hyp"], ["test.hyp"]),
        Command("bleu", ["bleu", "--hyp", "test.hyp", "--ref", "test.ref",
                         "-o", "bleu.txt"], ["bleu.txt"]),
    ]
    rows_read = pivoted + 2 * (pivoted + direct)
    return Workload(setup, timed, rows_read, manifest, check)
