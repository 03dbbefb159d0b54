"""Runs that fail mid-stream: a full disk, a reader that goes away, a signal.

A failed write, to the output or to the sort's scratch directory, exits 1
with the system's message, leaves no output file and no scratch files.  A
closed pipe on stdout or on a FIFO output exits quietly with 141, the
status a process killed by SIGPIPE reports.  SIGTERM, SIGHUP and SIGINT
exit 128 plus the signal number, and leave nothing behind either.
"""

from __future__ import annotations

import errno
import glob
import itertools
import os
import select
import signal
import subprocess
import sys
import time

import pytest

from conftest import STORE_WORKER, child_env
from pivotsmith import cli, extsort
from pivotsmith.cli import main

ROWS = 4000


def _argv(command: str, tmp_path) -> list[str]:
    """``command`` on inputs that give ``ROWS`` output rows or more."""
    if command == "pivot":
        sp, pt = tmp_path / "sp.txt", tmp_path / "pt.txt"
        sp.write_text("".join(f"s{i} ||| p{i} ||| 1 1 1 1 ||| 0-0\n"
                              for i in range(ROWS)))
        pt.write_text("".join(f"p{i} ||| t{i} ||| 1 1 1 1 ||| 0-0\n"
                              for i in range(ROWS)))
        return ["pivot", "--sp", str(sp), "--pt", str(pt), "--chunk-size", "500"]
    tables = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(f"{name}{i} ||| t{i} ||| 0.5 0.5 0.5 0.5 ||| 0-0\n"
                                for i in range(ROWS)))
        tables.append(path)
    if command == "annotate":
        return ["annotate", "-i", str(tables[0]), "--kind", "connectivity"]
    return ["combine", "-i", f"a={tables[0]}", "-i", f"b={tables[1]}"]


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    path = tmp_path / "scratch"
    path.mkdir()
    monkeypatch.setenv(extsort.TMPDIR_ENV, str(path))
    # annotate and combine sort through extsort's default chunk: make it spill.
    monkeypatch.setattr(extsort, "DEFAULT_CHUNK_SIZE", 3)
    return path


COMMANDS = ["pivot", "annotate", "combine"]


@pytest.mark.parametrize("command", COMMANDS)
def test_full_device_exits_one_and_cleans_up(tmp_path, scratch, capsys, command):
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    assert main(_argv(command, tmp_path) + ["-o", "/dev/full"]) == 1
    assert "[Errno 28]" in capsys.readouterr().err
    assert list(scratch.iterdir()) == []


@pytest.mark.parametrize("command", COMMANDS)
def test_write_failing_after_3000_rows_leaves_no_output(tmp_path, scratch, capsys,
                                                         monkeypatch, command):
    write_rows = cli.write_rows

    def write_then_fail(rows, stream, *args):
        write_rows(itertools.islice(rows, 3000), stream, *args)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(cli, "write_rows", write_then_fail)
    work = tmp_path / "work"
    work.mkdir()
    before = sorted(os.listdir(work))
    assert main(_argv(command, tmp_path) + ["-o", str(work / "out.txt")]) == 1
    assert "[Errno 28] No space left on device" in capsys.readouterr().err
    assert sorted(os.listdir(work)) == before
    assert list(scratch.iterdir()) == []


@pytest.mark.parametrize("command", COMMANDS + ["pivot-inline"])
def test_scratch_disk_full_after_3_runs_leaves_nothing(tmp_path, scratch, capsys,
                                                       monkeypatch, command):
    # Each process's fourth spill run fails.  The runs are noted in a file,
    # so that a pivot's store worker counts its own: it fails in the
    # pivot-target sort while this process fails in the source-pivot sort,
    # and the worker's error is the one shown.  Inline, the pivot-target
    # sort fails before the source-pivot sort starts.
    write_run = extsort._write_run
    log = tmp_path / "runs"

    def runs_by_process() -> dict[int, list[tuple[str, str]]]:
        """Each process's runs: the first letter of the run's first source
        phrase, and its path."""
        runs = {}
        if log.exists():
            for line in log.read_text().splitlines():
                pid, side, path = line.split()
                runs.setdefault(int(pid), []).append((side, path))
        return runs

    def write_run_then_fail(path, rows):
        rows = iter(rows)
        first = next(rows)
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()} {first[0][0][0]} {path}\n")
        if len(runs_by_process()[os.getpid()]) > 3:
            write_run(path, [first])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
        return write_run(path, itertools.chain([first], rows))
    monkeypatch.setattr(extsort, "_write_run", write_run_then_fail)
    if command == "pivot-inline":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    work = tmp_path / "work"
    work.mkdir()
    argv = _argv(command.removesuffix("-inline"), tmp_path)
    assert main(argv + ["-o", str(work / "out.txt")]) == 1
    runs = runs_by_process()
    here = runs.pop(os.getpid())
    if command == "pivot" and STORE_WORKER:
        [there] = runs.values()
        assert [side for side, _ in here] == ["s"] * 4
        assert [side for side, _ in there] == ["p"] * 4
        failed = there[-1][1]
    else:
        assert runs == {}
        assert len(here) == 4
        if command.startswith("pivot"):
            assert [side for side, _ in here] == ["p"] * 4
        failed = here[-1][1]
    assert capsys.readouterr().err == (
        f"pivotsmith: error: [Errno 28] No space left on device: '{failed}'\n")
    assert list(work.iterdir()) == []
    assert list(scratch.iterdir()) == []


def _write_run_without_end_marker(path, rows):
    rows = iter(rows)
    records = iter(lambda: list(itertools.islice(rows, extsort.RECORD_ROWS)), [])
    with open(path, "wb") as out:
        out.writelines(map(extsort.encode_row, records))
    return []  # an empty sparse index: a merge reads from the start


def _write_run_of_bad_bytes(path, rows):
    with open(path, "wb") as out:
        out.write(b"\xff")
    return []


@pytest.mark.parametrize("write_run", [_write_run_without_end_marker,
                                       _write_run_of_bad_bytes])
@pytest.mark.parametrize("n_rows", [12, 400])
def test_damaged_spill_run_exits_one_and_cleans_up(tmp_path, scratch, capsys,
                                                   monkeypatch, write_run, n_rows):
    # 12 rows make 4 runs of 3, read by the final merge; 400 rows make more
    # runs than one merge reads, so a fan-in pass reads them first.
    monkeypatch.setattr(extsort, "_write_run", write_run)
    sp, pt = tmp_path / "sp.txt", tmp_path / "pt.txt"
    sp.write_text("".join(f"s{i} ||| p{i} ||| 1 1 1 1 ||| 0-0\n"
                          for i in range(n_rows)))
    pt.write_text("".join(f"p{i} ||| t{i} ||| 1 1 1 1 ||| 0-0\n"
                          for i in range(n_rows)))
    work = tmp_path / "work"
    work.mkdir()
    assert main(["pivot", "--sp", str(sp), "--pt", str(pt), "--chunk-size", "3",
                 "-o", str(work / "out.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pivotsmith: error: damaged spill run in {scratch}")
    assert err.count("\n") == 1
    assert list(work.iterdir()) == []
    assert list(scratch.iterdir()) == []


def _start(scratch, *argv) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "pivotsmith.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(PIVOTSMITH_TMPDIR=str(scratch)))


def _finish(proc: subprocess.Popen) -> tuple[int, bytes]:
    try:
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    stderr = proc.stderr.read()
    proc.stderr.close()
    proc.stdout.close()
    return proc.returncode, stderr


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    # stats writes one histogram line per column: far more than a pipe holds.
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    table = tmp_path / "wide.txt"
    names = [f"f{k}" for k in range(20_000)]
    table.write_text("#features: " + " ".join(names) + "\n"
                     + "a ||| x ||| " + " ".join(["0.5"] * (4 + len(names)))
                     + " ||| 0-0\n")
    proc = _start(scratch, "stats", "-i", str(table))
    assert proc.stdout.readline() == b"entries\t1\n"
    proc.stdout.close()
    assert _finish(proc) == (141, b"")
    assert list(scratch.iterdir()) == []


def test_closed_fifo_output_exits_quietly_and_removes_scratch(tmp_path):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    # A reader must exist before the child opens the FIFO for writing.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    proc = _start(scratch, *_argv("pivot", tmp_path), "-o", str(fifo))
    try:
        deadline = time.monotonic() + 120
        data = b""
        while not data and time.monotonic() < deadline and proc.poll() is None:
            select.select([reader], [], [], 0.1)
            try:
                data = os.read(reader, 100)
            except BlockingIOError:
                pass
            if not data:
                time.sleep(0.01)
        assert data.startswith(b"s0 ||| t0 |||")
    finally:
        os.close(reader)
    assert _finish(proc) == (141, b"")
    assert list(scratch.iterdir()) == []


# The program's entry point, with extsort's default chunk set from argv[1]
# so that annotate's sort spills early.
_CHILD_CONSOLE = """
import signal, sys
from pivotsmith import cli, extsort
extsort.DEFAULT_CHUNK_SIZE = int(sys.argv.pop(1))
# An interactive shell leaves SIGINT at its default, which Python turns
# into KeyboardInterrupt; a job started in the background inherits it
# ignored.
signal.signal(signal.SIGINT, signal.default_int_handler)
cli.console_main()
"""

SIGNAL_ROWS = 100_000


@pytest.mark.parametrize("signum, status", [
    (signal.SIGTERM, 143), (signal.SIGHUP, 129), (signal.SIGINT, 130)],
    ids=["SIGTERM", "SIGHUP", "SIGINT"])
@pytest.mark.parametrize("command", ["pivot", "annotate"])
def test_signal_mid_sort_exits_and_leaves_nothing(tmp_path, command, signum, status):
    scratch = tmp_path / "scratch"
    work = tmp_path / "work"
    scratch.mkdir()
    work.mkdir()
    sp = tmp_path / "sp.txt"
    sp.write_text("".join(f"s{i} ||| p{i} ||| 1 1 1 1 ||| 0-0\n"
                          for i in range(SIGNAL_ROWS)))
    if command == "pivot":
        pt = tmp_path / "pt.txt"
        pt.write_text("".join(f"p{i} ||| t{i} ||| 1 1 1 1 ||| 0-0\n"
                              for i in range(SIGNAL_ROWS)))
        argv = ["pivot", "--sp", str(sp), "--pt", str(pt), "--chunk-size", "500"]
    else:
        argv = ["annotate", "-i", str(sp), "--kind", "connectivity"]
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD_CONSOLE, "500", *argv,
         "-o", str(work / "out.txt")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(PIVOTSMITH_TMPDIR=str(scratch)))
    try:
        deadline = time.monotonic() + 60
        pattern = str(scratch / "pivotsmith-sort-*" / "run0")
        while not glob.glob(pattern):
            assert proc.poll() is None, "the command ended before it spilled"
            assert time.monotonic() < deadline, "no spill run within 60 s"
            time.sleep(0.002)
        proc.send_signal(signum)
    finally:
        rc, stderr = _finish(proc)
    assert rc == status, stderr
    assert len(stderr.splitlines()) <= 1, stderr
    assert list(scratch.iterdir()) == []
    assert list(work.iterdir()) == []


# _CHILD_CONSOLE, then whether the program left a child process behind.
_CHILD_CONSOLE_REAPED = _CHILD_CONSOLE.replace("cli.console_main()", """
import os
try:
    cli.console_main()
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        print("a child process is left", file=sys.stderr)
    except ChildProcessError:
        pass
""")


@pytest.mark.skipif(not STORE_WORKER,
                    reason="the disk pivot store's worker needs two CPUs")
@pytest.mark.parametrize("signum, status", [
    (signal.SIGTERM, 143), (signal.SIGHUP, 129), (signal.SIGINT, 130)],
    ids=["SIGTERM", "SIGHUP", "SIGINT"])
@pytest.mark.parametrize("group", [False, True], ids=["process", "group"])
def test_signal_while_the_store_worker_sorts_leaves_nothing(tmp_path, signum, status,
                                                            group):
    # The worker's sort spills under the command's scratch directory.  A
    # signal to the command alone makes it kill and reap the worker; one to
    # the whole process group, as Ctrl-C sends, ends the worker at once.
    scratch = tmp_path / "scratch"
    work = tmp_path / "work"
    scratch.mkdir()
    work.mkdir()
    sp, pt = tmp_path / "sp.txt", tmp_path / "pt.txt"
    sp.write_text("".join(f"s{i} ||| p{i} ||| 1 1 1 1 ||| 0-0\n"
                          for i in range(SIGNAL_ROWS)))
    pt.write_text("".join(f"p{i} ||| t{i} ||| 1 1 1 1 ||| 0-0\n"
                          for i in range(SIGNAL_ROWS)))
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD_CONSOLE_REAPED, "500", "pivot", "--sp", str(sp),
         "--pt", str(pt), "--chunk-size", "500", "-o", str(work / "out.txt")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=group,
        env=child_env(PIVOTSMITH_TMPDIR=str(scratch)))
    try:
        deadline = time.monotonic() + 60
        pattern = str(scratch / "pivotsmith-sort-*" / "pivotsmith-sort-*" / "run0")
        while not glob.glob(pattern):
            assert proc.poll() is None, "the command ended before its worker spilled"
            assert time.monotonic() < deadline, "no worker spill run within 60 s"
            time.sleep(0.002)
        if group:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
    finally:
        rc, stderr = _finish(proc)
    assert rc == status, stderr
    assert stderr == b"", stderr
    assert list(scratch.iterdir()) == []
    assert list(work.iterdir()) == []


@pytest.mark.skipif(not STORE_WORKER, reason="a pivot join's shard needs two CPUs")
@pytest.mark.parametrize("signum, status", [
    (signal.SIGTERM, 143), (signal.SIGHUP, 129), (signal.SIGINT, 130)],
    ids=["SIGTERM", "SIGHUP", "SIGINT"])
@pytest.mark.parametrize("group", [False, True], ids=["process", "group"])
def test_signal_while_the_shard_formats_leaves_nothing(tmp_path, signum, status, group):
    # A dict-store pivot whose sorts fit one chunk spills nothing, so the
    # only scratch directory is the one the command makes for its shard
    # process, which lives while the shard joins and writes its text.  A
    # signal to the command alone makes it kill and reap the shard; one to
    # the whole process group ends the shard at once.
    scratch = tmp_path / "scratch"
    work = tmp_path / "work"
    scratch.mkdir()
    work.mkdir()
    sp, pt = tmp_path / "sp.txt", tmp_path / "pt.txt"
    sp.write_text("".join(f"s{i} ||| p{i} ||| 1 1 1 1 ||| 0-0\n"
                          for i in range(SIGNAL_ROWS)))
    pt.write_text("".join(f"p{i} ||| t{i} ||| 1 1 1 1 ||| 0-0\n"
                          for i in range(SIGNAL_ROWS)))
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD_CONSOLE_REAPED, str(extsort.DEFAULT_CHUNK_SIZE),
         "pivot", "--sp", str(sp), "--pt", str(pt), "-o", str(work / "out.txt")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=group,
        env=child_env(PIVOTSMITH_TMPDIR=str(scratch)))
    try:
        deadline = time.monotonic() + 60
        pattern = str(scratch / "pivotsmith-sort-*")
        while not glob.glob(pattern):
            assert proc.poll() is None, "the command ended before its shard started"
            assert time.monotonic() < deadline, "no shard within 60 s"
            time.sleep(0.002)
        if group:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
    finally:
        rc, stderr = _finish(proc)
    assert rc == status, stderr
    assert stderr == b"", stderr
    assert list(scratch.iterdir()) == []
    assert list(work.iterdir()) == []


def test_no_descriptor_or_file_is_left_unclosed(tmp_path):
    # Under -X dev, ResourceWarning made an error prints "Exception
    # ignored" for any file or pipe that only the collector closes.
    sp, pt = tmp_path / "sp.txt", tmp_path / "pt.txt"
    sp.write_text("".join(f"s{i} ||| p{i} ||| 1 1 1 1 ||| 0-0\n" for i in range(200)))
    lines = [f"p{i} ||| t{i} ||| 1 1 1 1 ||| 0-0\n" for i in range(200)]
    pt.write_text("".join(lines))
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(lines[:150]) + "p ||| t ||| 1 1 1 ||| 0-0\n")
    # The last source-pivot row repeated: the join's shard, if it runs,
    # meets it.
    repeated = tmp_path / "repeated.txt"
    repeated.write_text(sp.read_text() + "s199 ||| p199 ||| 1 1 1 1 ||| 0-0\n")
    duplicate = "duplicate entry in source-pivot table for pair 's199' -> 'p199'"
    cases = [(sp, pt, 0, ""), (sp, bad, 1, f"{bad}: line 151:"),
             (repeated, pt, 1, duplicate)]
    for chunk in ("20", "1000"):  # a disk and a dict pivot store
        for sp_table, pt_table, status, err in cases:
            done = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                 "-m", "pivotsmith.cli", "pivot", "--sp", str(sp_table), "--pt",
                 str(pt_table), "--chunk-size", chunk, "--tmpdir", str(tmp_path),
                 "-o", str(tmp_path / "out.txt")],
                capture_output=True, text=True, env=child_env(), timeout=120)
            assert done.returncode == status, done.stderr
            assert err in done.stderr
            assert len(done.stderr.splitlines()) == status, done.stderr


def test_signal_ignored_at_start_stays_ignored():
    # As under nohup: the program keeps ignoring SIGHUP and handles SIGTERM.
    code = """
import os, signal
from pivotsmith import cli
signal.signal(signal.SIGHUP, signal.SIG_IGN)
try:
    cli.console_main()
except SystemExit as exc:
    print(exc.code, signal.getsignal(signal.SIGHUP) is signal.SIG_IGN,
          signal.getsignal(signal.SIGTERM) is cli._exit_on_signal)
"""
    done = subprocess.run([sys.executable, "-c", code, "rules-check", "-o", os.devnull],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 True True\n", "")
