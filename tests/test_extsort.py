"""Disk-spilling sort behavior."""

from __future__ import annotations

import io
import os
import pickle
import random
import subprocess
import sys
import textwrap
import weakref
from contextlib import closing
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


def _records(rows):
    return [rows[start:start + extsort.RECORD_ROWS]
            for start in range(0, len(rows), extsort.RECORD_ROWS)]


@pytest.mark.parametrize("n_rows", [0, 1, 15, 16, 17, 33])
def test_run_is_records_of_up_to_record_rows(tmp_path, n_rows):
    rows = (_mixed_run_rows() * 6)[:n_rows]
    path = tmp_path / "run"
    extsort._write_run(str(path), rows)
    assert path.read_bytes() == b"".join(
        [encode_row(record) for record in _records(rows)] + [pickle.dumps(None, 3)])
    assert _read_back(path) == rows


def test_run_without_its_end_marker_raises(tmp_path):
    # Cut at every record boundary, from no records to all of them, and at
    # every byte inside a record: a run that lost its tail must not pass
    # for a shorter run.
    rows = (_mixed_run_rows() * 7)[:40]
    encoded = [encode_row(record) for record in _records(rows)]
    assert len(encoded) == 3
    path = tmp_path / "run"
    extsort._write_run(str(path), rows)
    data = b"".join(encoded)
    assert path.read_bytes() == data + pickle.dumps(None, 3)
    boundaries = [sum(map(len, encoded[:kept])) for kept in range(len(encoded) + 1)]
    for end in boundaries:
        with pytest.raises(EOFError):
            list(extsort._read_run(io.BytesIO(data[:end])))
    for end in sorted(set(range(len(data))) - set(boundaries)):
        with pytest.raises((EOFError, pickle.UnpicklingError)):
            list(extsort._read_run(io.BytesIO(data[:end])))


@pytest.mark.parametrize("fan_in", [extsort.MERGE_FAN_IN, 3])
@pytest.mark.parametrize("run_rows", [0, 1, 15, 16, 17, 33])
def test_runs_across_record_boundaries_sort_stably(tmp_path, monkeypatch,
                                                   fan_in, run_rows):
    # Five keys over 200 rows: every record holds equal keys, and so do its
    # neighbours, so a record that came back out of order would show.  Run
    # length 0 is the empty input, which spills nothing.
    monkeypatch.setattr(extsort, "MERGE_FAN_IN", fan_in)
    rng = random.Random(13)
    rows = [((f"s{rng.randint(0, 4)}",), (f"t{i}",), (float(i),), ())
            for i in range(200 if run_rows else 0)]
    key = itemgetter(0)
    got = list(ext_sorted(rows, key, chunk_size=max(run_rows, 1),
                          tmp_base=str(tmp_path)))
    assert got == sorted(rows, key=key)
    assert os.listdir(tmp_path) == []


class Held:
    """A picklable row element that a weak reference can watch."""


def _most_held_while_merging(n_rows, chunk_size):
    rows = [(f"k{i:05d}", tuple(f"t{j}" for j in range(i % 3 + 1)), Held())
            for i in range(n_rows)]
    random.Random(12).shuffle(rows)
    stream = ext_sorted(rows, itemgetter(0), chunk_size=chunk_size)
    del rows
    yielded = []
    most = 0
    for row in stream:
        yielded.append(weakref.ref(row[2]))
        del row
        most = max(most, sum(ref() is not None for ref in yielded))
    assert not any(ref() for ref in yielded)
    return most


def test_spilled_rows_are_not_held_once_yielded():
    # The merge reads each run a record at a time, and a record's list keeps
    # its rows until the last of them is yielded.  Each run's Unpickler also
    # keeps its memo between records, so a record may leave a few objects
    # stored past the current record's last index.  So each of the 10 runs
    # holds at most about one record of yielded rows, and the merge itself
    # one more, whether a run has 200 rows or 800: they measured 167 and 153.
    bound = 10 * (extsort.RECORD_ROWS + 2) + 2
    assert bound < 2000 / 5  # far below a run's rows, or it shows nothing
    assert _most_held_while_merging(2000, 200) <= bound
    assert _most_held_while_merging(8000, 800) <= bound


def _spilled(rows, key, chunk_size, tmp_path):
    sort = extsort.ExternalSort(key)
    sort.spill(rows, chunk_size, str(tmp_path))
    return sort


@pytest.mark.parametrize("chunk_size,index_keys", [(700, 256), (700, 4), (20, 4),
                                                   (5000, 256)],
                         ids=["spilled", "thinned", "fan-in", "in-memory"])
def test_range_merges_split_the_full_merge_at_any_key(tmp_path, monkeypatch,
                                                      chunk_size, index_keys):
    # Six keys over 3000 rows, so equal keys cross record boundaries and
    # sparse index entries; every cut, below, between and above the keys,
    # must give the full merge's rows on either side in the same order.
    # Four index keys in all thin every run's index, to one key per run
    # past four runs; 150 runs take a fan-in pass first.
    monkeypatch.setattr(extsort, "INDEX_KEYS", index_keys)
    monkeypatch.setattr(extsort, "MERGE_FAN_IN", 16)
    rng = random.Random(14)
    rows = [((f"s{rng.randint(0, 5)}",), (f"t{i}",), (float(i),), ())
            for i in range(3000)]
    key = itemgetter(0)
    want = sorted(rows, key=key)
    for cut in [("a",), ("s0",), ("s2",), ("s3", "x"), ("s5",), ("z",)]:
        low, high = _spilled(rows, key, chunk_size, tmp_path), \
            _spilled(rows, key, chunk_size, tmp_path)
        try:
            assert sum(len(keys) for _, keys, _ in low._runs) <= \
                max(index_keys, len(low._runs))
            below, above = list(low.merge(hi=cut)), list(high.merge(lo=cut))
        finally:
            low.close()
            high.close()
        assert below + above == want
        assert all(key(row) < cut for row in below)
        assert all(key(row) >= cut for row in above)
        between = _spilled(rows, key, chunk_size, tmp_path)
        with closing(between):
            assert list(between.merge(lo=("s1",), hi=cut)) == \
                [row for row in want if ("s1",) <= key(row) < cut]
    assert os.listdir(tmp_path) == []


def test_a_range_merge_seeks_past_the_records_below_it(tmp_path, monkeypatch):
    rows = [((f"k{i:05d}",), (), (), ()) for i in range(4000)]
    random.Random(15).shuffle(rows)
    key = itemgetter(0)
    read = []
    read_run = extsort._read_run

    def counted(stream):
        for row in read_run(stream):
            read.append(row)
            yield row
    monkeypatch.setattr(extsort, "_read_run", counted)
    sort = _spilled(rows, key, 1000, tmp_path)
    with closing(sort):
        assert len(list(sort.merge(lo=("k03000",)))) == 1000
    # Four runs of 63 records, fewer than the index's entries at most:
    # each is read from the record before its first row past the cut.
    assert 1000 <= len(read) <= 1000 + 4 * extsort.RECORD_ROWS


@pytest.mark.parametrize("n_records", [1, 63, 255, 256, 5000])
def test_a_run_index_names_evenly_spaced_records(tmp_path, n_records):
    rows = [((f"k{i:06d}",), (), (), ()) for i in range(n_records * extsort.RECORD_ROWS)]
    path = tmp_path / "run"
    index = extsort._write_run(str(path), rows)
    if n_records < extsort.INDEX_KEYS:
        assert len(index) == n_records
    else:
        assert extsort.INDEX_KEYS // 2 <= len(index) < extsort.INDEX_KEYS
    # Rows are numbered in order: the second entry gives the spacing.
    stride = int(index[1][0][0][0][1:]) // extsort.RECORD_ROWS if len(index) > 1 else 1
    with open(path, "rb") as stream:
        for number, (row, offset) in enumerate(index):
            assert row == rows[number * stride * extsort.RECORD_ROWS]
            stream.seek(offset)
            assert next(extsort._read_run(stream)) == row


@pytest.mark.parametrize("split_samples", [32, 4])
def test_the_spill_notes_rows_least_key_and_evenly_spaced_samples(tmp_path, monkeypatch,
                                                                   split_samples):
    # Chunks of 10, 10 and 5 rows.  32 samples keep every row.  With 4,
    # each chunk gives every third row from the second (every second in
    # the last), and neighbours merge in pairs past 4 in all.
    monkeypatch.setattr(extsort, "SPLIT_SAMPLES", split_samples)
    rows = [((f"k{i:02d}",), (), (), ()) for i in range(25)]
    random.Random(16).shuffle(rows)
    sort = _spilled(rows, itemgetter(0), 10, tmp_path)
    with closing(sort):
        assert (sort.rows, sort.least) == (25, ("k00",))
        chunks = [sorted(rows[start:start + 10]) for start in (0, 10, 20)]
        if split_samples == 32:
            assert sort.samples == [(row[0], 1) for chunk in chunks for row in chunk]
        else:
            # 3 samples of 3 rows, 3 more (the 6 merge to 3 of 6), then 2
            # of 2 (the 5 merge to 2 and the last).
            first, second, last = ([row[0] for row in chunk[step // 2::step]]
                                   for chunk, step in zip(chunks, (3, 3, 2)))
            assert sort.samples == [(first[0], 12), (second[1], 8), (last[1], 2)]
        assert list(sort.merge()) == sorted(rows)
    assert os.listdir(tmp_path) == []
