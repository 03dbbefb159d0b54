"""Tests of the benchmark itself: generators, self-time arithmetic, smoke runs."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.SIZES))
def test_generators_are_deterministic_per_seed(tmp_path, name):
    a = workloads.make(name, tmp_path / "a", 7, workloads.TINY[name])
    b = workloads.make(name, tmp_path / "b", 7, workloads.TINY[name])
    c = workloads.make(name, tmp_path / "c", 8, workloads.TINY[name])
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert a.manifest == b.manifest
    assert a.rows_read == b.rows_read
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans_on_two_threads():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.enter("a")
    clock.now = 1.0
    tracer.enter("b")
    clock.now = 3.0

    def worker():
        # Spans on another thread nest only within that thread.
        tracer.enter("c")
        clock.now = 7.0
        tracer.enter("b")
        clock.now = 8.0
        tracer.exit()
        tracer.exit()

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert tracer.exit() == 7.0
    clock.now = 10.0
    tracer.exit(record=True)
    report = tracer.report()
    assert report["self"] == {"a": 3.0, "b": 8.0, "c": 4.0}
    assert report["calls"] == {"a": 1, "b": 2, "c": 1}
    assert report["spans"] == [{"name": "a", "thread": 0, "start": 0.0,
                                "end": 10.0, "depth": 0}]


def test_iterator_spans_count_exclusive_time():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def advance(step, items):
        for item in items:
            clock.now += step
            yield item

    inner = tracer.iterate("inner", advance(1.0, range(3)), "inner.items")
    outer = tracer.iterate("outer", advance(2.0, inner))
    tracer.enter("consumer")
    assert list(outer) == [0, 1, 2]
    clock.now += 0.5
    tracer.exit()
    report = tracer.report()
    assert report["self"] == {"inner": 3.0, "outer": 6.0, "consumer": 0.5}
    assert report["counters"] == {"inner.items": 3}


def test_layer_metrics_derives_ratios_and_sampled_times():
    trace = {"import_s": 0.1, "self": {"tablecore.parse": 2.0, "cli": 0.5},
             "counters": {"tablecore.rows_parsed": 4, "triangulate.topn_in": 10,
                          "triangulate.topn_kept": 5, "parallel.threads.max": 2},
             "samples": {"extsort.encode": [32, 2, 0.5],
                         "extsort.decode": [32, 2, 0.25]},
             "durations": {"evalkit.decode": [0.001, 0.003, 0.002]}}
    m = tracing.layer_metrics([trace, dict(trace, import_s=0.3)])
    assert m["cli.import_s"] == pytest.approx(0.2)
    assert m["tablecore.parse_us_per_row"] == pytest.approx(5e5)
    assert m["triangulate.topn_kept_frac"] == pytest.approx(0.5)
    assert m["extsort.spill_rows"] == 64
    assert m["extsort.codec_s"] == pytest.approx(24.0)
    assert m["parallel.threads"] == 2
    assert m["evalkit.sentences"] == 6
    assert m["evalkit.sentence_p50_ms"] == pytest.approx(2.0)


def _measure(tmp_path, name, trace):
    report = run.measure(name, ROOT, tmp_path / name, seed=3, seconds=0,
                         trace=trace, size=workloads.TINY[name])
    ledger = report["ledger"]
    assert ledger.problems == []
    assert ledger.failed == 0 and ledger.attempted > 0
    return report["metrics"]


@pytest.mark.parametrize("name", sorted(workloads.SIZES))
def test_smoke_run_passes_its_checks(tmp_path, name):
    metrics = _measure(tmp_path, name, trace=False)
    units = run._spec_units("end_to_end")
    assert set(metrics) == set(units)
    assert all(metrics[m] > 0 for m in units)


def test_traced_runs_exercise_the_layers_each_workload_is_for(tmp_path):
    spill = _measure(tmp_path, "pivot-spill", trace=True)
    hub = _measure(tmp_path, "pivot-hub", trace=True)
    score = _measure(tmp_path, "score-decode", trace=True)
    assert set(spill) == set(run._spec_units("per_layer"))
    assert spill["extsort.spill_runs"] > 0 and spill["extsort.spill_rows"] > 0
    assert spill["triangulate.topn_kept_frac"] == 1.0
    assert hub["extsort.spill_runs"] == 0 and hub["extsort.spill_rows"] == 0
    assert 0 < hub["triangulate.topn_kept_frac"] < 1
    assert hub["triangulate.reorder_s"] > 0
    assert score["extsort.sort_calls"] == 0 and score["triangulate.rows_out"] == 0
    assert score["features.entries_scored"] == workloads.TINY["score-decode"]["pivoted"]
    assert score["evalkit.sentences"] == workloads.TINY["score-decode"]["sentences"]


def test_run_fails_without_result_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "pivot-spill", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_benchmark_spec_lists_every_reported_metric():
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {m["name"] for m in spec["per_layer"]} == (
        set(tracing.layer_metrics([])) | set(run.command_times([]))
        | {"trace.overhead_frac"})
