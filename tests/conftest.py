"""Shared builders and reference implementations for the test suite.

The reference functions here are deliberately naive transcriptions of the
definitions (nested loops, dict accumulation) so the streaming pipeline
has something independent to be checked against.
"""

from __future__ import annotations

import ast
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
    PhraseEntry,
    PhraseTable,
    ScoreSet,
    TableError,
    read_header,
)


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
watched = [m for m in ("logging", "dataclasses", "concurrent.futures")
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
    ``dataclasses`` and ``concurrent.futures`` were loaded.
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
    return PhraseTable.build(entries, max_phrase_len=None)


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


def oracle_parse_row(line, lineno, n_extras, max_phrase_len=8):
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
    src = _oracle_phrase_field(parts[0], "source", lineno, max_phrase_len)
    tgt = _oracle_phrase_field(parts[1], "target", lineno, max_phrase_len)
    scores = _oracle_scores_field(parts[2], n_extras, lineno)
    align = _oracle_alignment_field(parts[3], len(src), len(tgt), lineno)
    return src, tgt, scores, align


def _oracle_phrase_field(text, side, lineno, max_phrase_len):
    if not _ORACLE_PHRASE_FIELD_RE.match(text) or "|||" in text:
        raise TableError(f"malformed {side} phrase field {text!r}", lineno)
    tokens = text.split(" ")
    if max_phrase_len is not None and len(tokens) > max_phrase_len:
        raise TableError(
            f"{side} phrase has {len(tokens)} tokens, limit is {max_phrase_len}", lineno)
    return tuple(tokens)


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


def oracle_read_rows(lines, max_phrase_len=8):
    """``read_rows`` over ``oracle_parse_row``, rows listed."""
    extras, numbered = read_header(lines)
    rows = []
    for lineno, line in numbered:
        if not line.strip():
            raise TableError("blank line in table", lineno)
        rows.append(oracle_parse_row(line, lineno, len(extras), max_phrase_len))
    return extras, rows


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
