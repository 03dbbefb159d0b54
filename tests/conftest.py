"""Shared builders and reference implementations for the test suite.

The reference functions here are deliberately naive transcriptions of the
definitions (nested loops, dict accumulation) so the streaming pipeline
has something independent to be checked against.
"""

from __future__ import annotations

import ast
import hashlib
import io
import math
import os
import random
import re
import subprocess
import sys
import time

import pytest

from pivotsmith.tablecore import (
    CORE_FEATURES,
    AlignmentLink,
    TableError,
    read_header,
)
from pivotsmith.cli import main
from pivotsmith.tables import PhraseEntry, PhraseTable, ScoreSet, write_phrase_table


@pytest.hookimpl(tryfirst=True, hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Stash each phase report on the item so fixtures can see outcomes."""
    outcome = yield
    report = outcome.get_result()
    setattr(item, f"report_{report.when}", report)


_CHILD_MEASURE = """
import resource, sys
from pivotsmith.cli import main
rc = main(sys.argv[1:])
try:
    with open("/proc/self/status") as status:
        hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
except OSError:
    hwm = -1
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, hwm, file=sys.stderr)
sys.exit(rc)
"""


def run_measured(scratch, *argv):
    """Run the CLI on ``argv`` in a child process with ``scratch`` as its
    ``PIVOTSMITH_TMPDIR``.

    Returns the wall seconds, the child's ``ru_maxrss`` and its ``VmHWM``
    (-1 without ``/proc``), both in KB.  ``ru_maxrss`` also counts the
    peak of the process that started the child, because it survives the
    exec; ``VmHWM`` is the child's own.
    """
    env = dict(os.environ)
    env["PIVOTSMITH_TMPDIR"] = str(scratch)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_MEASURE, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=600)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    maxrss_kb, hwm_kb = proc.stderr.strip().splitlines()[-1].split()
    return elapsed, int(maxrss_kb), int(hwm_kb)


def run_pivot_measured(sp_path, pt_path, out_path, scratch, *extra_args):
    """``run_measured`` on ``pivot --top-n 100`` plus ``extra_args``."""
    return run_measured(scratch, "pivot", "--sp", sp_path, "--pt", pt_path,
                        "-o", out_path, "--top-n", "100", *extra_args)


SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")

_CHILD_MODULES = """
import sys
argv = sys.argv[1:]
import pivotsmith.cli
rc = None
if argv:
    try:
        rc = pivotsmith.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
ours = sorted(m for m in sys.modules if m.split(".")[0] == "pivotsmith")
watched = [m for m in ("logging", "dataclasses", "inspect", "concurrent.futures",
                      "pickle")
           if m in sys.modules]
print(repr((rc, ours, watched)), file=sys.stderr)
"""


def child_env(**extra):
    """The environment for a child interpreter that imports this ``src``."""
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return env


def child_modules(*argv):
    """Run ``pivotsmith.cli.main(argv)`` in a fresh interpreter, or only
    import ``pivotsmith.cli`` when ``argv`` is empty.

    The repository's ``src`` comes first on the child's ``PYTHONPATH``.
    Returns the exit code (None for a bare import), the sorted names of
    the loaded ``pivotsmith`` modules, and which of ``logging``,
    ``dataclasses``, ``inspect``, ``concurrent.futures`` and ``pickle`` were
    loaded.
    """
    proc = subprocess.run([sys.executable, "-c", _CHILD_MODULES, *map(str, argv)],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    rc, ours, watched = ast.literal_eval(proc.stderr.strip().splitlines()[-1])
    return rc, ours, watched


def entry(src: str, tgt: str, scores=(1.0, 1.0, 1.0, 1.0), align=(),
          extras=()) -> PhraseEntry:
    return PhraseEntry(
        src=tuple(src.split()),
        tgt=tuple(tgt.split()),
        scores=ScoreSet(*scores, extras=tuple(extras)),
        alignment=tuple(AlignmentLink(i, j) for i, j in align))


def table(entries, extras_names=()) -> PhraseTable:
    return PhraseTable.build(entries, extras_names)


def oracle_compose(sp_entries, pt_entries, min_links=0):
    """Quadratic-loop pivot composition.

    Walks every pair of entries, multiplies matching score columns when
    the pivot phrase is shared, and sums per (src, tgt) pair.  Alignments
    compose through equal middle positions.  Returns a dict mapping
    (src, tgt) to (four summed scores, frozen link set).
    """
    acc = {}
    for sp in sp_entries:
        for pt in pt_entries:
            if sp.tgt != pt.src:
                continue
            key = (sp.src, pt.tgt)
            scores, links = acc.setdefault(key, ([0.0, 0.0, 0.0, 0.0], set()))
            scores[0] += sp.scores.phi_fwd * pt.scores.phi_fwd
            scores[1] += sp.scores.lex_fwd * pt.scores.lex_fwd
            scores[2] += sp.scores.phi_bwd * pt.scores.phi_bwd
            scores[3] += sp.scores.lex_bwd * pt.scores.lex_bwd
            for i, j in sp.alignment:
                for j2, k in pt.alignment:
                    if j == j2:
                        links.add((i, k))
    return {key: (tuple(scores), frozenset(links))
            for key, (scores, links) in acc.items()
            if len(links) >= min_links}



def oracle_reordering(sp_entries, pt_entries, pt_reo, min_links=0):
    """Quadratic-loop reordering composition for the pairs of oracle_compose.

    Every shared pivot, taken in ascending order, adds the source-pivot
    forward score times the six pivot-target orientation probabilities,
    uniform where ``pt_reo`` has no entry for the pivot-target pair.  Each
    direction triple of the sum is then divided by its own total.  Returns
    a dict mapping (src, tgt) to the six probabilities.
    """
    uniform = (1.0 / 3.0,) * 6
    probs_by_pair = {(e.src, e.tgt): e.probs for e in pt_reo}
    acc = {}
    for sp in sorted(sp_entries, key=lambda e: e.tgt):
        for pt in pt_entries:
            if sp.tgt != pt.src:
                continue
            sums = acc.setdefault((sp.src, pt.tgt), [0.0] * 6)
            probs = probs_by_pair.get((pt.src, pt.tgt), uniform)
            for k in range(6):
                sums[k] += sp.scores.phi_fwd * probs[k]
    out = {}
    for key in oracle_compose(sp_entries, pt_entries, min_links):
        sums = acc[key]
        probs = []
        for lo in (0, 3):
            total = sums[lo] + sums[lo + 1] + sums[lo + 2]
            for k in range(3):
                probs.append(sums[lo + k] / total if total > 0.0 else uniform[k])
        out[key] = tuple(probs)
    return out

def _phrase(prefix: str, index: int, length: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{index}x{k}" for k in range(length))


def _normalized_column(rng: random.Random, edges, side: int):
    """One probability per edge, normalized over groups of edges[side]."""
    groups = {}
    for edge in edges:
        groups.setdefault(edge[side], []).append(edge)
    probs = {}
    for members in groups.values():
        raw = [rng.random() + 0.01 for _ in members]
        total = sum(raw)
        for member, value in zip(members, raw):
            probs[member] = value / total
    return probs


def phrase_pool(rng: random.Random, prefix: str, count: int,
                max_len: int = 2) -> list[tuple[str, ...]]:
    return [_phrase(prefix, i, rng.randint(1, max_len)) for i in range(count)]


def random_table(rng: random.Random, lefts, rights, max_fanout: int = 4,
                 align_prob: float = 0.6) -> PhraseTable:
    """Random table whose forward scores are normalized per source phrase
    and backward scores per target phrase."""
    edges = []
    for left in lefts:
        for right in rng.sample(rights, rng.randint(1, min(max_fanout, len(rights)))):
            edges.append((left, right))
    phi_fwd = _normalized_column(rng, edges, 0)
    lex_fwd = _normalized_column(rng, edges, 0)
    phi_bwd = _normalized_column(rng, edges, 1)
    lex_bwd = _normalized_column(rng, edges, 1)
    entries = []
    for edge in edges:
        left, right = edge
        links = tuple(
            AlignmentLink(i, j)
            for i in range(len(left)) for j in range(len(right))
            if rng.random() < align_prob)
        entries.append(PhraseEntry(
            src=left, tgt=right,
            scores=ScoreSet(phi_fwd[edge], lex_fwd[edge],
                            phi_bwd[edge], lex_bwd[edge]),
            alignment=links))
    return PhraseTable.build(entries)


def random_pivot_pair(rng: random.Random, n_src: int = 8, n_pivot: int = 6,
                      n_tgt: int = 8, max_fanout: int = 4):
    """Source-pivot and pivot-target tables sharing one pivot vocabulary."""
    sources = phrase_pool(rng, "s", n_src)
    pivots = phrase_pool(rng, "p", n_pivot)
    targets = phrase_pool(rng, "t", n_tgt)
    sp = random_table(rng, sources, pivots, max_fanout)
    pt = random_table(rng, pivots, targets, max_fanout)
    return sp, pt


# --- reference parser: each field of a table line parsed on its own -------

_ORACLE_PHRASE_FIELD_RE = re.compile(r"\S+( \S+)*\Z")


def oracle_parse_row(line, lineno, n_extras):
    """One data line parsed field by field, each field by its own parser.

    Its rows and its errors (type, message and ``.line``) are what
    ``tablecore.parse_row`` must give, including which problem a line with
    several of them reports.
    """
    text = line.rstrip("\n")
    if text.endswith(" |||"):
        text += " "
    parts = text.split(" ||| ")
    if len(parts) != 4:
        raise TableError(
            f"expected 4 fields separated by '|||', got {len(parts)}", lineno)
    src = _oracle_phrase_field(parts[0], "source", lineno)
    tgt = _oracle_phrase_field(parts[1], "target", lineno)
    scores = _oracle_scores_field(parts[2], n_extras, lineno)
    align = _oracle_alignment_field(parts[3], len(src), len(tgt), lineno)
    return src, tgt, scores, align


def _oracle_phrase_field(text, side, lineno):
    if not _ORACLE_PHRASE_FIELD_RE.match(text) or "|||" in text:
        raise TableError(f"malformed {side} phrase field {text!r}", lineno)
    return tuple(text.split(" "))


def _oracle_scores_field(text, n_extras, lineno):
    fields = text.split(" ")
    expected = 4 + n_extras
    if len(fields) != expected:
        raise TableError(
            f"expected {expected} score columns, got {len(fields)}", lineno)
    try:
        values = tuple(float(f) for f in fields)
    except ValueError:
        raise TableError(f"non-numeric score in {text!r}", lineno) from None
    for name, value in zip(CORE_FEATURES, values[:4]):
        if not math.isfinite(value) or value < 0.0 or value > 1.0:
            raise TableError(f"score out of range: {name}={value!r} not in [0, 1]", lineno)
    for value in values[4:]:
        if not math.isfinite(value) or value < 0.0:
            raise TableError(f"score out of range: extra value {value!r} is negative"
                             " or not finite", lineno)
    return values


def _oracle_alignment_field(text, src_len, tgt_len, lineno):
    if not text:
        return ()
    links = []
    for item in text.split(" "):
        left, sep, right = item.partition("-")
        if not sep or not left.isdigit() or not right.isdigit():
            raise TableError(f"malformed alignment point {item!r}", lineno)
        links.append((int(left), int(right)))
    seen = set()
    for i, j in links:
        if not (0 <= i < src_len and 0 <= j < tgt_len):
            raise TableError(
                f"alignment point {i}-{j} outside phrase bounds"
                f" {src_len}x{tgt_len}", lineno)
        if (i, j) in seen:
            raise TableError(f"duplicate alignment point {i}-{j}", lineno)
        seen.add((i, j))
    return tuple(sorted(links))


def oracle_read_rows(lines):
    """``read_rows`` over ``oracle_parse_row``, rows listed."""
    extras, numbered = read_header(lines)
    rows = []
    for lineno, line in numbered:
        if not line.strip():
            raise TableError("blank line in table", lineno)
        rows.append(oracle_parse_row(line, lineno, len(extras)))
    return extras, rows


def oracle_read_reordering_rows(lines):
    """Reordering table lines parsed field by field, rows listed.

    Its rows and its errors (type, message and ``.line``) are what
    ``tablecore.read_reordering_rows`` must give.
    """
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.rstrip("\n")
        if not text.strip():
            raise TableError("blank line in reordering table", lineno)
        parts = text.split(" ||| ")
        if len(parts) != 3:
            raise TableError(
                f"expected 3 fields separated by '|||', got {len(parts)}", lineno)
        src = _oracle_phrase_field(parts[0], "source", lineno)
        tgt = _oracle_phrase_field(parts[1], "target", lineno)
        fields = parts[2].split(" ")
        if len(fields) != 6:
            raise TableError(f"expected 6 probabilities, got {len(fields)}", lineno)
        try:
            probs = tuple(float(f) for f in fields)
        except ValueError:
            raise TableError(f"non-numeric probability in {parts[2]!r}", lineno) from None
        for value in probs:
            if not math.isfinite(value) or value < 0.0 or value > 1.0:
                raise TableError(f"probability {value!r} not in [0, 1]", lineno)
        for lo in (0, 3):
            total = probs[lo] + probs[lo + 1] + probs[lo + 2]
            if abs(total - 1.0) > 1e-6:
                raise TableError(
                    f"orientation triple sums to {total!r}, expected 1", lineno)
        rows.append((src, tgt, probs, ()))
    return rows


# --- reference formatters: one line of each table format, on its own -----

def oracle_format_row(row) -> str:
    """One phrase table line, without its newline: every score as
    ``%.6g``, then the ``i-j`` links, or a trailing ``|||`` when there are
    none.  It is what ``tablecore.write_lines`` must write for ``row``."""
    src, tgt, scores, align = row
    head = " ||| ".join(
        [" ".join(src), " ".join(tgt), " ".join("%.6g" % v for v in scores)])
    if not align:
        return head + " |||"
    return head + " ||| " + " ".join(f"{i}-{j}" for i, j in align)


def oracle_format_reordering_row(src, tgt, probs) -> str:
    """One reordering table line, without its newline: every probability
    as ``repr`` gives it, so that each triple reparses exactly."""
    return " ||| ".join([" ".join(src), " ".join(tgt), " ".join(map(repr, probs))])


def oracle_project(a_sp, a_pt):
    """Every (i, k) linked through some shared middle position, sorted."""
    return tuple(sorted({(i, k) for i, j in a_sp for j2, k in a_pt if j == j2}))


def oracle_decode(sentence, index, cfg):
    """Monotone Viterbi decoding that tries every span up to
    ``cfg.max_phrase_len``, with the decoder's tie-breaks: higher score,
    then the longer source span, then the smaller target."""
    n = len(sentence)
    if n == 0:
        return (), 0.0
    best = [0.0] + [-math.inf] * n
    back = [None] * (n + 1)
    for end in range(1, n + 1):
        best_score, best_span, best_tgt, best_start = -math.inf, 0, (), 0
        for start in range(max(0, end - cfg.max_phrase_len), end):
            span = tuple(sentence[start:end])
            option = index.get(span)
            if option is not None:
                score, tgt = best[start] + option[0], option[1]
            elif end - start == 1:
                score, tgt = best[start] + cfg.unknown_word_penalty, span
            else:
                continue
            width = end - start
            if (score > best_score
                    or (score == best_score and width > best_span)
                    or (score == best_score and width == best_span
                        and tgt < best_tgt)):
                best_score, best_span, best_tgt, best_start = score, width, tgt, start
        best[end] = best_score
        back[end] = (best_start, best_tgt)
    pieces = []
    end = n
    while end > 0:
        start, tgt = back[end]
        pieces.append(tgt)
        end = start
    return tuple(tok for piece in reversed(pieces) for tok in piece), best[n]


def oracle_bleu4(hypotheses, reference_sets):
    """Corpus BLEU-4 from plain dict n-gram counts, clipped per gram by its
    largest count in any one reference."""
    matched = [0] * 5
    totals = [0] * 5
    hyp_len = ref_len = 0
    for hyp, refs in zip(hypotheses, reference_sets):
        hyp_len += len(hyp)
        ref_len += min((len(r) for r in refs),
                       key=lambda length: (abs(length - len(hyp)), length))
        for order in range(1, 5):
            grams = [tuple(hyp[i:i + order]) for i in range(len(hyp) - order + 1)]
            if not grams:
                continue
            totals[order] += len(grams)
            counts = {}
            for gram in grams:
                counts[gram] = counts.get(gram, 0) + 1
            for gram, count in counts.items():
                limit = 0
                for ref in refs:
                    in_ref = sum(1 for i in range(len(ref) - order + 1)
                                 if tuple(ref[i:i + order]) == gram)
                    limit = max(limit, in_ref)
                matched[order] += min(count, limit)
    precisions = tuple(matched[o] / totals[o] if totals[o] else 0.0
                       for o in range(1, 5))
    if hyp_len == 0:
        bp = 0.0
    elif hyp_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)
    if min(precisions) == 0.0:
        bleu = 0.0
    else:
        bleu = bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)
    return bleu, precisions, bp, hyp_len, ref_len


# --- golden bytes: every subcommand on small seeded inputs ------------------

GOLDEN_SEEDS = (1, 2, 3)

# (name, argv): each argv writes the file ``name`` through ``-o``, and a
# ``--reordering-out {reo_out}`` writes ``name.reo``.  ``{key}`` is an input of
# ``write_golden_inputs`` or the output of an earlier case.
GOLDEN_CASES = (
    ("pivot", ["pivot", "--sp", "{sp}", "--pt", "{pt}"]),
    ("pivot_chunk3", ["pivot", "--sp", "{sp}", "--pt", "{pt}", "--chunk-size", "3"]),
    ("pivot_reo", ["pivot", "--sp", "{sp}", "--pt", "{pt}",
                   "--reordering-sp", "{reo_sp}", "--reordering-pt", "{reo_pt}",
                   "--reordering-out", "{reo_out}"]),
    ("pivot_reo_chunk3", ["pivot", "--sp", "{sp}", "--pt", "{pt}",
                          "--reordering-pt", "{reo_pt}",
                          "--reordering-out", "{reo_out}", "--chunk-size", "3"]),
    ("pivot_min_links2", ["pivot", "--sp", "{sp}", "--pt", "{pt}", "--min-links", "2",
                          "--top-n", "3", "--weights-sp", "{weights}"]),
    ("filter", ["filter", "-i", "{pt}", "--top-n", "2", "--chunk-size", "3"]),
    ("lexicon_src", ["lexicon", "-i", "{src_tagged}", "-i", "{src_tagged2}"]),
    ("lexicon_tgt", ["lexicon", "-i", "{tgt_tagged}", "--fc-features", "gen,num"]),
    ("fc_train", ["fc-train", "--src", "{par_src}", "--tgt", "{par_tgt}",
                  "--align", "{par_align}", "--src-lex", "{lexicon_src}",
                  "--tgt-lex", "{lexicon_tgt}"]),
    ("rules_check", ["rules-check"]),
    ("rules_check_pairs", ["rules-check", "--rules", "{rules}",
                           "--pair", "gen", "Feminine", "Both",
                           "--pair", "NUM", "Plural", "Singular"]),
    ("annotate_connectivity", ["annotate", "-i", "{pivot}", "--kind", "connectivity"]),
    ("annotate_rules", ["annotate", "-i", "{pivot}", "--kind", "rules",
                        "--src-lex", "{lexicon_src}", "--tgt-lex", "{lexicon_tgt}",
                        "--rules", "{rules}", "--features", "gen,num"]),
    ("annotate_induced", ["annotate", "-i", "{annotate_connectivity}",
                          "--kind", "induced", "--src-lex", "{lexicon_src}",
                          "--tgt-lex", "{lexicon_tgt}", "--fc-model", "{fc_train}",
                          "--names", "fc_a,fc_b"]),
    ("combine", ["combine", "-i", "pivot={annotate_induced}",
                 "-i", "rules={annotate_rules}", "-i", "direct={direct}"]),
    # Pairs repeat across origins here: every pivot pair is in two inputs.
    ("filter_combined", ["filter", "-i", "{combine}", "--top-n", "2"]),
    ("decode", ["decode", "--table", "{combine}", "--input", "{test_src}",
                "--max-phrase-len", "2"]),
    ("bleu", ["bleu", "--hyp", "{decode}", "--ref", "{ref1}"]),
    ("bleu_refs", ["bleu", "--hyp", "{ref1}", "--ref", "{ref2}", "--ref", "{ref3}"]),
    ("stats", ["stats", "-i", "{combine}"]),
    ("estimate_size", ["estimate-size", "--sp", "{sp}", "--pt", "{pt}"]),
)


def _shuffled_table_text(rng: random.Random, tbl) -> str:
    text = io.StringIO()
    write_phrase_table(tbl, text)
    lines = text.getvalue().splitlines(keepends=True)
    rng.shuffle(lines)
    return "".join(lines)


def _orientation_lines(rng: random.Random, tbl) -> list[str]:
    lines = []
    for e in tbl:
        if rng.random() < 0.8:
            probs = []
            for _ in range(2):
                raw = [rng.random() + 0.05 for _ in range(3)]
                probs += [value / sum(raw) for value in raw]
            lines.append(f"{' '.join(e.src)} ||| {' '.join(e.tgt)} ||| "
                         + " ".join(map(repr, probs)) + "\n")
    rng.shuffle(lines)
    return lines


def _tagged_corpus(rng: random.Random, words, sentences: int) -> str:
    out = []
    for _ in range(sentences):
        for word in rng.sample(words, min(len(words), 5)):
            out.append("\t".join([word, rng.choice(("NOUN", "ADJ", "VERB")),
                                  rng.choice(("Feminine", "Masculine", "NA")),
                                  rng.choice(("Singular", "Plural", "NA")),
                                  rng.choice(("Determiner", "No Determiner"))]) + "\n")
        out.append("\n")
    return "".join(out)


def write_golden_inputs(directory, seed: int) -> dict[str, str]:
    """Write the input files of ``GOLDEN_CASES`` for ``seed`` into ``directory``.

    Returns their paths by the names the cases use.
    """
    rng = random.Random(seed)
    sources = phrase_pool(rng, "s", 12)
    pivots = phrase_pool(rng, "p", 8)
    targets = phrase_pool(rng, "t", 12)
    sp = random_table(rng, sources, pivots)
    pt = random_table(rng, pivots, targets)
    direct = random_table(rng, sources, targets, max_fanout=3)
    src_words = sorted({w for phrase in sources for w in phrase})
    tgt_words = sorted({w for phrase in targets for w in phrase})
    texts = {
        "sp": _shuffled_table_text(rng, sp),
        "pt": _shuffled_table_text(rng, pt),
        "direct": _shuffled_table_text(rng, direct),
        "reo_sp": "".join(_orientation_lines(rng, sp)),
        "reo_pt": "".join(_orientation_lines(rng, pt)),
        "weights": "phi_fwd = 1\nlex_fwd = 0.5\nphi_bwd = 0.25\nlex_bwd = 0\n",
        "rules": "gen\tFeminine\tFeminine\ngen\tMasculine\tMasculine\n"
                 "num\tSingular\tSingular\nnum\tPlural\tPlural\n",
        # Some words are left out of each corpus, so that they tag as unknown.
        "src_tagged": _tagged_corpus(rng, src_words[2:], 6),
        "src_tagged2": _tagged_corpus(rng, src_words[2:], 3),
        "tgt_tagged": _tagged_corpus(rng, tgt_words[:-2], 6),
    }
    par_src, par_tgt, par_align = [], [], []
    for _ in range(12):
        src = rng.sample(src_words, 4)
        tgt = rng.sample(tgt_words, 3)
        links = sorted({(rng.randrange(4), rng.randrange(3)) for _ in range(3)})
        par_src.append(" ".join(src) + "\n")
        par_tgt.append(" ".join(tgt) + "\n")
        par_align.append(" ".join(f"{i}-{j}" for i, j in links) + "\n")
    texts.update(par_src="".join(par_src), par_tgt="".join(par_tgt),
                 par_align="".join(par_align))
    texts["test_src"] = "".join(
        " ".join(rng.choice(src_words + ["oov"]) for _ in range(rng.randint(1, 6))) + "\n"
        for _ in range(10))
    # ref2 and ref3 each change one token of a ref1 line, so that scoring
    # ref1 against them finds n-grams of every order.
    refs = {"ref1": [], "ref2": [], "ref3": []}
    for _ in range(10):
        tokens = [rng.choice(tgt_words) for _ in range(rng.randint(4, 8))]
        refs["ref1"].append(tokens)
        k = rng.randrange(len(tokens))
        refs["ref2"].append(tokens[:k] + [rng.choice(tgt_words)] + tokens[k + 1:])
        refs["ref3"].append(tokens[:k] + tokens[k + 1:])
    for ref, lines in refs.items():
        texts[ref] = "".join(" ".join(tokens) + "\n" for tokens in lines)
    paths = {}
    for name, text in texts.items():
        paths[name] = os.path.join(directory, f"{name}.txt")
        with open(paths[name], "w", encoding="utf-8") as stream:
            stream.write(text)
    return paths


def run_golden_cases(directory, seed: int) -> dict[str, str | int]:
    """Run ``GOLDEN_CASES`` on seed ``seed``'s inputs in ``directory``.

    Returns the sha256 of each output file by ``case`` (``case.reo`` for a
    reordering output), or the exit code of a case that failed.
    """
    paths = write_golden_inputs(directory, seed)
    hashes: dict[str, str | int] = {}
    for name, argv in GOLDEN_CASES:
        # A case reading the output of one that failed fails too.
        out = paths[name] = os.path.join(directory, name)
        paths["reo_out"] = out + ".reo"
        try:
            code = main([arg.format(**paths) for arg in argv] + ["-o", out])
        except SystemExit as exc:
            code = exc.code
        if code != 0:
            hashes[name] = code
            continue
        for key, path in ((name, out), (name + ".reo", out + ".reo")):
            if os.path.exists(path):
                with open(path, "rb") as stream:
                    hashes[key] = hashlib.sha256(stream.read()).hexdigest()
    return hashes
