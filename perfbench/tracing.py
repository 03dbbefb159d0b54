"""Outside-in per-layer trace of one pivotsmith command.

Run as a child process in place of ``python3 -m pivotsmith.cli``:

    python3 perfbench/tracing.py TRACE.json pivot --sp sp.txt ...

It imports ``pivotsmith.cli`` (timing the import), wraps the public
functions each module's callers use, runs the command, and writes the
trace as JSON when the command ends.  Nothing in ``src/`` changes; the
wrappers are installed by replacing each name where its caller looks it
up, because the modules import functions by name.

Time is counted as self (exclusive) time per layer: a span's duration
minus the part of it its child spans cover, kept on one stack per thread
because ``ordered_map`` runs scorers and the decoder on worker threads.
Lazy stages are timed by wrapping the iterators they return, one span per
``next``.  Per-row helpers (the spill codec, the feature scorers) are
counted on every call and timed on every ``SAMPLE_EVERY``-th call only, so
the trace costs little more than an untraced run.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import statistics
import sys
import threading
import time
import types

SAMPLE_EVERY = 16


class _Frame:
    """One open span: where it started and how much of it child spans took."""

    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0


class _ThreadState:
    __slots__ = ("stack", "own", "calls", "counters", "samples", "spans",
                 "durations")

    def __init__(self) -> None:
        self.stack: list = []               # open _Frame or SpanIter objects
        self.own: dict[str, float] = {}     # name -> self seconds of closed spans
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}  # name -> [calls, timed calls, timed s]
        self.spans: list[tuple] = []        # recorded (name, start, end, depth)
        self.durations: dict[str, list[float]] = {}


class Tracer:
    """Span stacks per thread, folded into self time per layer name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase = "triangulate.compose"
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._iters: list[SpanIter] = []

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def enter(self, name: str) -> None:
        self.state().stack.append(_Frame(name, self.clock()))

    def exit(self, record: bool = False, keep_duration: bool = False) -> float:
        """Close the innermost span of this thread; return its duration."""
        end = self.clock()
        state = self.state()
        frame = state.stack.pop()
        name = frame.name
        duration = end - frame.start
        state.own[name] = state.own.get(name, 0.0) + duration - frame.child
        state.calls[name] = state.calls.get(name, 0) + 1
        if state.stack:
            state.stack[-1].child += duration
        if record:
            state.spans.append((name, frame.start, end, len(state.stack)))
        if keep_duration:
            state.durations.setdefault(name, []).append(duration)
        return duration

    def count(self, key: str, n: float = 1) -> None:
        counters = self.state().counters
        counters[key] = counters.get(key, 0) + n

    def maximum(self, key: str, value: float) -> None:
        counters = self.state().counters
        counters[key] = max(counters.get(key, value), value)

    def iterate(self, name: str, iterable, count_key: str | None = None) -> "SpanIter":
        it = SpanIter(self, name, iter(iterable), count_key)
        with self._lock:
            self._iters.append(it)
        return it

    def report(self) -> dict:
        """Merge every thread's state into one JSON-ready dict."""
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        counters: dict[str, float] = {}
        samples: dict[str, list] = {}
        durations: dict[str, list[float]] = {}
        spans = []
        with self._lock:
            states = list(self._states)
            iters = list(self._iters)
        for thread, state in enumerate(states):
            for name, seconds in state.own.items():
                own[name] = own.get(name, 0.0) + seconds
                calls[name] = calls.get(name, 0) + state.calls[name]
            for key, value in state.counters.items():
                if key.endswith(".max"):
                    counters[key] = max(counters.get(key, value), value)
                else:
                    counters[key] = counters.get(key, 0) + value
            for name, (n, timed, seconds) in state.samples.items():
                s = samples.setdefault(name, [0, 0, 0.0])
                s[0] += n
                s[1] += timed
                s[2] += seconds
            for name, values in state.durations.items():
                durations.setdefault(name, []).extend(values)
            spans.extend({"name": n, "thread": thread, "start": a, "end": b,
                          "depth": d} for n, a, b, d in state.spans)
        for it in iters:
            own[it.name] = own.get(it.name, 0.0) + it.own
            calls[it.name] = calls.get(it.name, 0) + it.items
            if it.count_key is not None:
                counters[it.count_key] = counters.get(it.count_key, 0) + it.items
        return {"self": own, "calls": calls, "counters": counters,
                "samples": samples, "durations": durations, "spans": spans}


class SpanIter:
    """Iterator wrapper that opens one span per ``next`` and counts items.

    The wrapper is its own stack frame and keeps its self time in ``own``,
    because this runs once per row of every wrapped stage.
    """

    __slots__ = ("_tracer", "name", "_it", "count_key", "items", "own", "child")

    def __init__(self, tracer: Tracer, name: str, it, count_key: str | None):
        self._tracer = tracer
        self.name = name
        self._it = it
        self.count_key = count_key
        self.items = 0
        self.own = 0.0
        self.child = 0.0

    def __iter__(self) -> "SpanIter":
        return self

    def __next__(self):
        tracer = self._tracer
        stack = tracer.state().stack
        clock = tracer.clock
        self.child = 0.0
        stack.append(self)
        start = clock()
        try:
            item = next(self._it)
        finally:
            duration = clock() - start
            stack.pop()
            self.own += duration - self.child
            if stack:
                stack[-1].child += duration
        self.items += 1
        return item


def _counted(tracer: Tracer, key: str, iterable):
    """Pass items through untimed, adding their number to a counter at the end."""
    n = 0
    try:
        for item in iterable:
            n += 1
            yield item
    finally:
        tracer.count(key, n)


def _span_call(tracer: Tracer, name: str, fn, count=None):
    """Wrap a whole call in one recorded span; ``count(result)`` adds counters."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(record=True)
        if count is not None:
            count(result)
        return result
    return wrapper


def _sampled(tracer: Tracer, name: str, fn):
    """Count every call of a per-row helper and time every SAMPLE_EVERY-th."""
    clock = tracer.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        samples = tracer.state().samples
        rec = samples.get(name)
        if rec is None:
            rec = samples[name] = [0, 0, 0.0]
        rec[0] += 1
        if rec[0] % SAMPLE_EVERY:
            return fn(*args, **kwargs)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[1] += 1
            rec[2] += clock() - start
    return wrapper


def install(tracer: Tracer) -> None:
    """Replace the names the CLI and the library modules call with wrappers."""
    from pivotsmith import cli, extsort, features, morphmodel, tablecore, triangulate

    def read_rows(*args, **kwargs):
        extras, rows = tablecore_read_rows(*args, **kwargs)
        return extras, tracer.iterate("tablecore.parse", rows, "tablecore.rows_parsed")
    tablecore_read_rows = tablecore.read_rows
    cli.read_rows = tablecore.read_rows = read_rows

    def count_len(key):
        return lambda result: tracer.count(key, len(result))
    cli.parse_phrase_table = _span_call(
        tracer, "tablecore.build", cli.parse_phrase_table,
        count_len("tablecore.entries_built"))

    def write_rows(rows, *args, **kwargs):
        return inner_write_rows(_counted(tracer, "tablecore.rows_written", rows),
                                *args, **kwargs)
    inner_write_rows = _span_call(tracer, "tablecore.format", cli.write_rows)
    cli.write_rows = write_rows

    def write_phrase_table(table, stream):
        tracer.count("tablecore.rows_written", len(table))
        return inner_write_table(table, stream)
    inner_write_table = _span_call(tracer, "tablecore.format", cli.write_phrase_table)
    cli.write_phrase_table = write_phrase_table

    # --- extsort and triangulate: spans per next, named by the calling phase
    ext_sorted = triangulate.ext_sorted

    def traced_sort(rows, *args, **kwargs):
        tracer.count("extsort.sort_calls")
        if not isinstance(rows, SpanIter):
            rows = tracer.iterate(tracer.phase, rows)
        key = ("triangulate.reorder_rows_sorted"
               if tracer.phase == "triangulate.reorder" else None)
        sorted_rows = ext_sorted(rows, *args, **kwargs)
        if key is not None:
            sorted_rows = _counted(tracer, key, sorted_rows)
        return tracer.iterate("extsort.sort", sorted_rows, "extsort.rows_sorted")
    triangulate.ext_sorted = traced_sort

    iter_top_n = triangulate._iter_top_n

    def traced_top_n(rows, *args, **kwargs):
        if tracer.phase != "triangulate.compose":
            return iter_top_n(rows, *args, **kwargs)
        kept = iter_top_n(_counted(tracer, "triangulate.topn_in", rows), *args, **kwargs)
        return _counted(tracer, "triangulate.topn_kept", kept)
    triangulate._iter_top_n = traced_top_n

    iter_join = triangulate._iter_join
    triangulate._iter_join = lambda *a, **k: _counted(
        tracer, "triangulate.partials", iter_join(*a, **k))

    def in_phase(phase, fn, count_key=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            previous, tracer.phase = tracer.phase, phase
            try:
                return tracer.iterate(phase, fn(*args, **kwargs), count_key)
            finally:
                tracer.phase = previous
        return wrapper
    cli.compose_rows = in_phase("triangulate.compose", cli.compose_rows,
                                "triangulate.rows_out")
    cli.reorder_rows = in_phase("triangulate.reorder", cli.reorder_rows)
    cli.parse_reordering_table = _span_call(
        tracer, "triangulate.reorder", cli.parse_reordering_table)
    cli.write_reordering_rows = _span_call(
        tracer, "triangulate.reorder", cli.write_reordering_rows)

    extsort.encode_row = _sampled(tracer, "extsort.encode", extsort.encode_row)
    extsort.decode_row = _sampled(tracer, "extsort.decode", extsort.decode_row)

    def rmtree(path, *args, **kwargs):
        # Spill runs are measured just before the sort removes them.
        for entry in os.scandir(path):
            tracer.count("extsort.spill_runs")
            tracer.count("extsort.spill_bytes", entry.stat().st_size)
        return shutil.rmtree(path, *args, **kwargs)
    extsort.shutil = types.SimpleNamespace(rmtree=rmtree)

    # --- features, parallel
    cli.annotate_table = _span_call(tracer, "features.annotate", cli.annotate_table)
    for name in ("connectivity_scores", "rule_morph_scores", "induced_morph_scores"):
        setattr(cli, name, _sampled(tracer, "features.score", getattr(cli, name)))

    def traced_map(inner):
        @functools.wraps(inner)
        def wrapper(fn, items, threads=1, *args, **kwargs):
            tracer.maximum("parallel.threads.max", threads)
            return tracer.iterate("parallel.map", inner(fn, items, threads, *args, **kwargs),
                                  "parallel.items")
        return wrapper
    features.ordered_map = traced_map(features.ordered_map)
    cli.ordered_map = traced_map(cli.ordered_map)

    # --- morphmodel, combine, evalkit
    cli.build_lexicon = _span_call(tracer, "morphmodel.lexicon", cli.build_lexicon)
    cli.train_fc_model = _span_call(tracer, "morphmodel.fc_train", cli.train_fc_model)
    for cls in (morphmodel.MorphLexicon, morphmodel.FcModel):
        cls.load = classmethod(_span_call(tracer, "morphmodel.load", cls.load.__func__))
    cli.combine_tables = _span_call(tracer, "combine.combine", cli.combine_tables,
                                    count_len("combine.entries"))
    cli.build_phrase_index = _span_call(tracer, "evalkit.index", cli.build_phrase_index,
                                        count_len("evalkit.index_entries"))
    decode_one = cli._decode_one

    def traced_decode(*args, **kwargs):
        tracer.enter("evalkit.decode")
        try:
            return decode_one(*args, **kwargs)
        finally:
            tracer.exit(keep_duration=True)
    cli._decode_one = traced_decode
    cli.bleu4_report = _span_call(tracer, "evalkit.bleu", cli.bleu4_report)


# --- folding traces into the benchmark's per-layer metrics ------------------

def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Sum the traces of one workload's commands into named per-layer metrics."""
    own: dict[str, float] = {}
    counters: dict[str, float] = {}
    samples: dict[str, list] = {}
    decode_ms: list[float] = []
    imports = []
    for trace in traces:
        imports.append(trace["import_s"])
        for name, seconds in trace["self"].items():
            own[name] = own.get(name, 0.0) + seconds
        for key, value in trace["counters"].items():
            if key.endswith(".max"):
                counters[key] = max(counters.get(key, value), value)
            else:
                counters[key] = counters.get(key, 0) + value
        for name, (calls, timed, seconds) in trace["samples"].items():
            s = samples.setdefault(name, [0, 0, 0.0])
            s[0] += calls
            s[1] += timed
            s[2] += seconds
        decode_ms.extend(1000 * d for d in trace["durations"].get("evalkit.decode", []))

    def estimate(name: str) -> float:
        calls, timed, seconds = samples.get(name, (0, 0, 0.0))
        return seconds / timed * calls if timed else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    c = counters.get
    m = {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.self_s": own.get("cli", 0.0),
        "tablecore.parse_s": own.get("tablecore.parse", 0.0),
        "tablecore.rows_parsed": c("tablecore.rows_parsed", 0),
        "tablecore.format_s": own.get("tablecore.format", 0.0),
        "tablecore.rows_written": c("tablecore.rows_written", 0),
        "tablecore.build_s": own.get("tablecore.build", 0.0),
        "tablecore.entries_built": c("tablecore.entries_built", 0),
        "extsort.sort_s": own.get("extsort.sort", 0.0),
        "extsort.sort_calls": c("extsort.sort_calls", 0),
        "extsort.rows_sorted": c("extsort.rows_sorted", 0),
        "extsort.spill_runs": c("extsort.spill_runs", 0),
        "extsort.spill_rows": samples.get("extsort.encode", [0])[0],
        "extsort.spill_bytes": c("extsort.spill_bytes", 0),
        "extsort.codec_s": estimate("extsort.encode") + estimate("extsort.decode"),
        "triangulate.compose_s": own.get("triangulate.compose", 0.0),
        "triangulate.partials": c("triangulate.partials", 0),
        "triangulate.rows_out": c("triangulate.rows_out", 0),
        "triangulate.topn_kept_frac": ratio(c("triangulate.topn_kept", 0),
                                            c("triangulate.topn_in", 0)),
        "triangulate.reorder_s": own.get("triangulate.reorder", 0.0),
        "triangulate.reorder_rows_sorted": c("triangulate.reorder_rows_sorted", 0),
        "features.score_s": estimate("features.score"),
        "features.entries_scored": samples.get("features.score", [0])[0],
        "features.annotate_s": own.get("features.annotate", 0.0),
        "parallel.map_s": own.get("parallel.map", 0.0),
        "parallel.threads": c("parallel.threads.max", 0),
        "parallel.items": c("parallel.items", 0),
        "morphmodel.lexicon_s": own.get("morphmodel.lexicon", 0.0),
        "morphmodel.fc_train_s": own.get("morphmodel.fc_train", 0.0),
        "morphmodel.load_s": own.get("morphmodel.load", 0.0),
        "combine.combine_s": own.get("combine.combine", 0.0),
        "combine.entries": c("combine.entries", 0),
        "evalkit.index_s": own.get("evalkit.index", 0.0),
        "evalkit.index_entries": c("evalkit.index_entries", 0),
        "evalkit.decode_s": own.get("evalkit.decode", 0.0),
        "evalkit.sentences": len(decode_ms),
        "evalkit.sentence_p50_ms": _percentile(decode_ms, 0.5),
        "evalkit.sentence_p99_ms": _percentile(decode_ms, 0.99),
        "evalkit.bleu_s": own.get("evalkit.bleu", 0.0),
    }
    m["tablecore.parse_us_per_row"] = 1e6 * ratio(m["tablecore.parse_s"],
                                                  m["tablecore.rows_parsed"])
    m["triangulate.partials_per_row_out"] = ratio(m["triangulate.partials"],
                                                  m["triangulate.rows_out"])
    return m


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    from pivotsmith import cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    tracer.enter("cli")
    try:
        return cli.main(cli_args)
    finally:
        tracer.exit(record=True)
        report = tracer.report()
        report["import_s"] = import_s
        report["argv"] = cli_args
        with open(out_path, "w", encoding="utf-8") as stream:
            json.dump(report, stream)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
