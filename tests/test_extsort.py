"""Disk-spilling sort behavior."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
import weakref
from operator import itemgetter

import pytest

import pivotsmith
from pivotsmith import extsort
from pivotsmith.extsort import decode_row, encode_row, ext_sorted, scratch_base
from pivotsmith.tablecore import AlignmentLink


def random_rows(rng, count):
    rows = []
    for i in range(count):
        src = tuple(f"s{rng.randint(0, 30)}" for _ in range(rng.randint(1, 3)))
        tgt = tuple(f"t{rng.randint(0, 30)}" for _ in range(rng.randint(1, 3)))
        scores = tuple(rng.random() for _ in range(4))
        align = tuple(sorted({(rng.randint(0, len(src) - 1),
                               rng.randint(0, len(tgt) - 1))
                              for _ in range(rng.randint(0, 3))}))
        rows.append((src, tgt, scores, align))
    return rows


def test_codec_round_trips_exactly():
    rng = random.Random(5)
    for row in random_rows(rng, 200):
        assert decode_row(encode_row(row)) == row


def test_codec_handles_empty_alignment_and_scores():
    row = (("a",), ("b",), (), ())
    assert decode_row(encode_row(row)) == row


def test_in_memory_path_matches_sorted():
    rng = random.Random(6)
    rows = random_rows(rng, 500)
    key = itemgetter(0, 1)
    assert list(ext_sorted(rows, key, chunk_size=10_000)) == sorted(rows, key=key)


class _Marker:
    """A row element that a weak reference can watch."""


def test_in_memory_rows_are_not_held_once_yielded():
    # The hash join streams a whole table through one in-memory chunk, so a
    # row its consumer lets go of must not stay alive in that chunk.
    rows = ((f"k{i % 7}-{i}", _Marker()) for i in range(50))
    stream = ext_sorted(rows, itemgetter(0), chunk_size=1000)
    for _ in range(50):
        held = weakref.ref(next(stream)[1])
        assert held() is None
    assert next(stream, None) is None


def test_spill_path_matches_sorted(tmp_path):
    rng = random.Random(7)
    rows = random_rows(rng, 500)
    key = itemgetter(0, 1)
    got = list(ext_sorted(rows, key, chunk_size=17, tmp_base=str(tmp_path)))
    assert got == sorted(rows, key=key)


def test_spill_files_cleaned_up(tmp_path):
    rng = random.Random(8)
    rows = random_rows(rng, 300)
    list(ext_sorted(rows, itemgetter(0, 1), chunk_size=13, tmp_base=str(tmp_path)))
    assert os.listdir(tmp_path) == []


def test_spill_cleanup_when_consumer_stops_early(tmp_path):
    rng = random.Random(9)
    rows = random_rows(rng, 300)
    stream = ext_sorted(rows, itemgetter(0, 1), chunk_size=13,
                        tmp_base=str(tmp_path))
    next(stream)
    stream.close()
    assert os.listdir(tmp_path) == []


def test_equal_keys_keep_arrival_order_across_chunks():
    rows = [(("k",), (f"t{i}",), (float(i),), ()) for i in range(40)]
    got = list(ext_sorted(rows, itemgetter(0), chunk_size=7))
    assert got == rows


def test_scratch_base_precedence(monkeypatch):
    monkeypatch.delenv("PIVOTSMITH_TMPDIR", raising=False)
    assert scratch_base(None) is None
    assert scratch_base("/x") == "/x"
    monkeypatch.setenv("PIVOTSMITH_TMPDIR", "/y")
    assert scratch_base(None) == "/y"
    assert scratch_base("/x") == "/x"


@pytest.mark.parametrize("value", [
    5e-324,                   # smallest subnormal
    2.225073858507201e-308,   # largest subnormal
    1.0,
    0.30000000000000004,      # 17 significant digits
    1 / 3,
    1.7976931348623157e308,
    123456789.12345679,
])
def test_codec_round_trips_float_bits(value):
    row = (("a", "b"), ("c",), (0.5, 0.25, 1.0, value, value, -value), ((0, 0),))
    got = decode_row(encode_row(row))
    assert got == row
    assert [v.hex() for v in got[2]] == [v.hex() for v in row[2]]


def test_codec_round_trips_alignment_links():
    row = (("a", "b"), ("c", "d"), (0.5,) * 4,
           (AlignmentLink(0, 1), AlignmentLink(1, 0)))
    got = decode_row(encode_row(row))
    assert got == row
    assert [tuple(pair) for pair in got[3]] == [(0, 1), (1, 0)]


@pytest.mark.parametrize("chunk_size", [1, 7, 120, 10_000])
def test_chunk_sizes_match_sorted(tmp_path, chunk_size):
    rows = random_rows(random.Random(10), 120)
    key = itemgetter(0, 1)
    got = list(ext_sorted(rows, key, chunk_size=chunk_size, tmp_base=str(tmp_path)))
    assert got == sorted(rows, key=key)
    assert os.listdir(tmp_path) == []


_FD_EXHAUSTION_CHILD = textwrap.dedent("""
    import errno, resource, sys
    from operator import itemgetter
    from pivotsmith.extsort import ext_sorted

    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
    rows = [((f"s{i:03d}",), ("t",), (0.5,), ()) for i in reversed(range(200))]
    try:
        list(ext_sorted(rows, itemgetter(0), chunk_size=1, tmp_base=sys.argv[1]))
    except OSError as exc:
        sys.exit(0 if exc.errno == errno.EMFILE else 3)
    sys.exit(4)
""")


def test_fd_exhaustion_in_merge_still_removes_scratch_dir(tmp_path):
    # 200 runs merged at once under a 64-descriptor limit, set in a child
    # process only, run out of descriptors part way through opening them.
    src_dir = os.path.dirname(os.path.dirname(pivotsmith.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _FD_EXHAUSTION_CHILD, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("chunk_size", [1, 2, 7])
def test_bounded_fan_in_matches_sorted(tmp_path, monkeypatch, chunk_size):
    monkeypatch.setattr(extsort, "MERGE_FAN_IN", 3)
    rng = random.Random(11)
    rows = [((f"s{rng.randint(0, 9)}",), (f"t{i}",), (float(i),), ())
            for i in range(120)]
    key = itemgetter(0)
    got = list(ext_sorted(rows, key, chunk_size=chunk_size, tmp_base=str(tmp_path)))
    assert got == sorted(rows, key=key)
    assert os.listdir(tmp_path) == []


_FAN_IN_CHILD = textwrap.dedent("""
    import resource, sys
    from operator import itemgetter
    from pivotsmith import extsort

    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
    extsort.MERGE_FAN_IN = 16
    rows = [((f"s{i:03d}",), ("t",), (0.5,), ()) for i in reversed(range(200))]
    got = list(extsort.ext_sorted(rows, itemgetter(0), chunk_size=1,
                                  tmp_base=sys.argv[1]))
    sys.exit(0 if got == sorted(rows, key=itemgetter(0)) else 3)
""")


def test_bounded_fan_in_sorts_more_runs_than_descriptors(tmp_path):
    # 200 single-row runs under a 64-descriptor limit, set in a child
    # process only: merging at most 16 runs at once stays under it.
    src_dir = os.path.dirname(os.path.dirname(pivotsmith.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _FAN_IN_CHILD, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert os.listdir(tmp_path) == []


def _mixed_run_rows():
    # Long and short rows, a tuple shared within a row and across rows,
    # links of both types, floats that a text codec would bend, and rows
    # with extras columns beside rows without.
    shared = ("x", "y")
    return [
        (("a",) * 7, ("b", "c"), (0.5, -0.0, 5e-324, 1.0),
         (AlignmentLink(0, 1), AlignmentLink(6, 0))),
        (("a",), ("b",), (0.25, 0.25, 0.25, 0.25), ()),
        (shared, shared, (1 / 3, 0.1, 0.2, 0.3, -5e-324, 7.0), ((0, 0), (1, 1))),
        (tuple(f"w{i}" for i in range(12)), shared, (-0.0,) * 4,
         tuple(AlignmentLink(i, i % 2) for i in range(12))),
        (("c",), ("d", "e", "f"), (1e-9, 2.0, 3.0, 4.0, 0.5), (AlignmentLink(0, 2),)),
        (shared, ("z",), (0.0, 0.0, 0.0, 0.0), ((1, 0),)),
    ]


def _read_back(path):
    with open(path, "rb") as stream:
        return list(extsort._read_run(stream))


def test_run_round_trips_mixed_rows(tmp_path):
    rows = _mixed_run_rows()
    path = str(tmp_path / "run")
    extsort._write_run(path, rows)
    got = _read_back(path)
    assert got == rows
    for got_row, row in zip(got, rows):
        assert [v.hex() for v in got_row[2]] == [v.hex() for v in row[2]]
        assert list(map(type, got_row[3])) == list(map(type, row[3]))
    assert got[2][0] is got[2][1]


def test_run_without_its_end_marker_raises(tmp_path):
    # Cut at every row boundary, from no rows to all of them: a run that
    # lost its tail must not pass for a shorter run.
    rows = _mixed_run_rows()
    encoded = [encode_row(row) for row in rows]
    path = tmp_path / "run"
    extsort._write_run(str(path), rows)
    assert path.read_bytes().startswith(b"".join(encoded))
    for kept in range(len(rows) + 1):
        path.write_bytes(b"".join(encoded[:kept]))
        with pytest.raises(EOFError):
            _read_back(path)


class Held:
    """A picklable row element that a weak reference can watch."""


def test_spilled_rows_are_not_held_once_yielded():
    # Each run's Unpickler keeps its memo between rows.  An entry holds an
    # object until a later row of the run stores at its index, so a reader
    # may hold a few yielded objects, one per memo index it has used, but
    # that number must not grow with the run.  Rows here come in three
    # shapes, so each of the 10 runs holds at most three of its 200
    # yielded elements, and the merge itself one more.
    rows = [(f"k{i:05d}", tuple(f"t{j}" for j in range(i % 3 + 1)), Held())
            for i in range(2000)]
    random.Random(12).shuffle(rows)
    stream = ext_sorted(rows, itemgetter(0), chunk_size=200)
    del rows
    yielded = []
    most = 0
    for row in stream:
        yielded.append(weakref.ref(row[2]))
        del row
        most = max(most, sum(ref() is not None for ref in yielded))
    assert most <= 3 * 10 + 2
    assert not any(ref() for ref in yielded)
