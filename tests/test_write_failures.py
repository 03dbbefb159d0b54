"""Outputs that fail mid-stream: a full disk and a reader that goes away.

A failed write exits 1 with the system's message, leaves no output file
and no scratch files.  A closed pipe on stdout or on a FIFO output exits
quietly with 141, the status a process killed by SIGPIPE reports.
"""

from __future__ import annotations

import errno
import itertools
import os
import select
import subprocess
import sys
import time

import pytest

from conftest import child_env
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
