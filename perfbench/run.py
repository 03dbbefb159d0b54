"""Run one benchmark workload through the pivotsmith CLI and report metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pivot-spill --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from the seed into
``.perfbench-work/`` inside the checkout.  Every pivotsmith command runs in
its own child process, one at a time, against the checkout's ``src/``.
With ``--trace 0`` the workload's commands repeat until ``--seconds`` have
passed and the end-to-end metrics are medians over the repetitions.  With
``--trace 1`` untraced and traced repetitions (see ``tracing.py``)
alternate until ``--seconds`` have passed, and the per-layer metrics are
medians over the traced repetitions.
Every repetition's outputs are checked: the first against the workload's
own predictions, later ones for byte equality with the first.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name the machine, the seed, the input manifest and every metric with its
unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
SETUP_REPS = {"import": 15, "commands": 5}
CHILD_TIMEOUT_S = 150
# Sets the unit of the scaled times: seconds on a host that runs the
# reference job in this time (the baseline box does when it runs fast).
REFERENCE_NOMINAL_S = 0.18
REFERENCE_ROWS = 25_000


def reference_seconds() -> float:
    """Time a fixed pure-Python job shaped like the program's work.

    It parses, sorts and formats table-like rows in this process, with the
    garbage collector paused so that the size of this process's own heap
    does not enter the time.
    """
    gc.disable()
    try:
        return _reference_job()
    finally:
        gc.enable()


def _reference_job() -> float:
    start = time.perf_counter()
    rows = []
    for i in range(REFERENCE_ROWS):
        line = (f"s{i * 7919 % 100003:06d} ||| t{i % 997} ||| {i % 13 / 13:.6g}"
                f" 0.5 0.25 1 ||| 0-{i % 3}")
        src, tgt, scores, align = line.split(" ||| ")
        rows.append((tuple(src.split()), tuple(tgt.split()),
                     tuple(float(v) for v in scores.split()), align))
    rows.sort()
    "".join(" ||| ".join((" ".join(s), " ".join(t), " ".join("%.6g" % v for v in f), a))
            + "\n" for s, t, f, a in rows)
    return time.perf_counter() - start


class HostSpeed:
    """Scales measured times to the host's nominal speed.

    On a shared machine the host's CPU speed drifts by about ±20% over tens
    of seconds, and every process slows alike.  The reference job runs
    before and after each timed interval.  The interval's times are
    multiplied by ``REFERENCE_NOMINAL_S`` over the mean of those two
    reference times.
    """

    def __init__(self) -> None:
        self.previous = reference_seconds()
        self.references = [self.previous]

    def factor(self) -> float:
        """Scale for the interval since the last call (or since creation)."""
        current = reference_seconds()
        self.references.append(current)
        factor = REFERENCE_NOMINAL_S / ((self.previous + current) / 2)
        self.previous = current
        return factor


# Runs one pivotsmith command like ``python3 -m pivotsmith.cli`` and writes
# the peak RSS of its own process image (VmHWM) to the file named first.
# ``ru_maxrss`` of the child would not do: on exec the kernel records the
# high-water mark of the memory inherited from the parent as the child's.
CHILD_MAIN = """
import sys
from pivotsmith.cli import main
try:
    sys.exit(main(sys.argv[2:]))
finally:
    with open("/proc/self/status") as status, open(sys.argv[1], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
"""


class Runner:
    """Starts pivotsmith children one at a time and measures each from outside."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        tmp = workdir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PIVOTSMITH_TMPDIR=str(tmp), TMPDIR=str(tmp))
        self.stderr_path = workdir / "child.stderr"
        self.hwm_path = workdir / "child.hwm"

    def run(self, cmd: workloads.Command, trace_out: Path | None = None,
            ) -> tuple[int, float, float]:
        """Run one command; return (exit code, wall seconds, peak RSS in MB).

        Peak RSS is 0 for the bare import and for traced commands.
        """
        self.hwm_path.unlink(missing_ok=True)
        if cmd.args is None:
            argv = [sys.executable, "-c", "import pivotsmith.cli"]
        elif trace_out is not None:
            argv = [sys.executable, str(HERE / "tracing.py"), str(trace_out),
                    *cmd.args]
        else:
            argv = [sys.executable, "-c", CHILD_MAIN, str(self.hwm_path), *cmd.args]
        with open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        if proc.returncode != 0:
            message = self.stderr_path.read_text(errors="replace").strip()
            print(f"# {cmd.label} exited {proc.returncode}: {message[-500:]}",
                  file=sys.stderr)
        try:
            peak_kb = int(self.hwm_path.read_text().split()[1])
        except FileNotFoundError:
            peak_kb = 0
        return proc.returncode, wall, peak_kb / 1024.0


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


class Ledger:
    """Counts attempted and failed commands and keeps outputs byte-stable.

    A command fails when it exits non-zero, when an output it wrote fails
    the workload's check, or when an output differs from the first
    repetition's bytes.
    """

    def __init__(self, workload: workloads.Workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str | None] = {}
        self.problems: list[str] = []

    def record(self, cmds: list[workloads.Command], codes: list[int],
               full_check: bool) -> bool:
        """Account one repetition of ``cmds``; True when all of it passed."""
        bad_files: set[str] = set()
        if full_check and all(code == 0 for code in codes):
            for path, found in self.workload.check(self.workdir).items():
                bad_files.add(path)
                self.problems.extend(f"{path}: {p}" for p in found)
        for cmd in cmds:
            for path in cmd.outputs:
                digest = _digest(self.workdir / path)
                if self.reference.setdefault(path, digest) != digest:
                    bad_files.add(path)
                    self.problems.append(f"{path}: bytes differ between repetitions")
        ok = True
        for cmd, code in zip(cmds, codes):
            self.attempted += 1
            if code != 0 or bad_files.intersection(cmd.outputs):
                self.failed += 1
                ok = False
        return ok


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_setup(runner: Runner, ledger: Ledger, workload: workloads.Workload,
              reps: int, trace_dir: Path | None = None) -> list[float]:
    """Repeat the workload's set-up; return each passing repetition's time.

    With ``trace_dir``, set-up commands other than the bare import run
    traced and write their traces there.
    """
    traced = trace_dir is not None and workload.setup[0].args is not None
    times = []
    for _ in range(reps):
        codes, total = [], 0.0
        for n, cmd in enumerate(workload.setup):
            code, wall, _ = runner.run(
                cmd, trace_dir / f"setup{n}.json" if traced else None)
            codes.append(code)
            total += wall
        if ledger.record(workload.setup, codes, full_check=False):
            times.append(total)
    return times


def run_rep(runner: Runner, ledger: Ledger, workload: workloads.Workload,
            full_check: bool, trace_dir: Path | None = None) -> dict | None:
    """Run the timed commands once; their walls and peak RSS if all passed."""
    codes, walls, peak = [], {}, 0.0
    for n, cmd in enumerate(workload.timed):
        code, wall, rss = runner.run(
            cmd, trace_dir / f"timed{n}.json" if trace_dir is not None else None)
        codes.append(code)
        walls[cmd.label] = wall
        peak = max(peak, rss)
    if not ledger.record(workload.timed, codes, full_check):
        return None
    return {"walls": walls, "wall": sum(walls.values()), "peak_rss_mb": peak}


def run_timed(runner: Runner, ledger: Ledger, workload: workloads.Workload,
              seconds: float, host: HostSpeed) -> list[dict]:
    """Repeat the timed commands until ``seconds`` pass; one dict per passing rep."""
    reps = []
    start = time.perf_counter()
    first = True
    while first or time.perf_counter() - start < seconds:
        rep = run_rep(runner, ledger, workload, full_check=first)
        scale = host.factor()
        if rep is not None:
            rep["scale"] = scale
            reps.append(rep)
        first = False
    return reps


def _load_traces(directory: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(directory.glob("*.json"))]


def run_traced(runner: Runner, ledger: Ledger, workload: workloads.Workload,
               seconds: float, trace_dir: Path) -> tuple[list[dict], list[dict]]:
    """Alternate untraced and traced repetitions until ``seconds`` pass.

    Pairing them keeps a drift in host speed out of the overhead estimate.
    Returns the untraced repetitions and the traced ones, each traced one
    carrying its per-layer metrics (set-up traces included).
    """
    setup_dir = trace_dir / "setup"
    setup_dir.mkdir(parents=True)
    run_setup(runner, ledger, workload, 1, setup_dir)
    setup_traces = _load_traces(setup_dir)
    untraced, traced = [], []
    start = time.perf_counter()
    pairs = 0
    while not pairs or time.perf_counter() - start < seconds:
        rep = run_rep(runner, ledger, workload, full_check=not pairs)
        if rep is not None:
            untraced.append(rep)
        rep_dir = trace_dir / f"rep{pairs}"
        rep_dir.mkdir()
        pairs += 1
        rep = run_rep(runner, ledger, workload, False, rep_dir)
        if rep is not None:
            rep["layers"] = tracing.layer_metrics(setup_traces + _load_traces(rep_dir))
            traced.append(rep)
    return untraced, traced


def end_to_end(workload: workloads.Workload, setup_times: list[float],
               setup_scale: float, reps: list[dict]) -> dict[str, float]:
    """Medians of the host-scaled times, and of peak RSS."""
    walls = [rep["wall"] * rep["scale"] for rep in reps]
    return {
        "wall_s": _median(walls),
        "rows_per_s": _median([workload.rows_read / w for w in walls]),
        "peak_rss_mb": _median([rep["peak_rss_mb"] for rep in reps]),
        "setup_s": _median(setup_times) * setup_scale,
    }


def command_times(reps: list[dict]) -> dict[str, float]:
    labels = ("pivot", "annotate", "combine", "decode", "bleu")
    return {f"command.{label}_s": _median([rep["walls"][label] for rep in reps
                                           if label in rep["walls"]])
            for label in labels}


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version()}


def measure(name: str, root: Path, workdir: Path, seed: int, seconds: float,
            trace: bool, size: dict | None = None) -> dict:
    """Generate, run and check one workload; return the report as a dict."""
    workload = workloads.make(name, workdir, seed, size or workloads.SIZES[name])
    runner = Runner(root, workdir)
    ledger = Ledger(workload, workdir)
    raw: dict[str, float] = {}
    if not trace:
        kind = "import" if workload.setup[0].args is None else "commands"
        host = HostSpeed()
        setup_times = run_setup(runner, ledger, workload, SETUP_REPS[kind])
        setup_scale = host.factor()
        reps = run_timed(runner, ledger, workload, seconds, host)
        metrics = end_to_end(workload, setup_times, setup_scale, reps)
        raw = {"wall_s": _median([rep["wall"] for rep in reps]),
               "setup_s": _median(setup_times),
               "reference_s": _median(host.references)}
    else:
        reps, traced = run_traced(runner, ledger, workload, seconds,
                                  workdir / "trace")
        metrics = {name: _median([rep["layers"][name] for rep in traced])
                   for name in tracing.layer_metrics([])}
        untraced_wall = _median([rep["wall"] for rep in reps])
        traced_wall = _median([rep["wall"] for rep in traced])
        metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0
                                          if traced and untraced_wall else 0.0)
        metrics.update(command_times(reps))
    return {"workload": workload, "ledger": ledger, "metrics": metrics,
            "raw": raw, "repetitions": len(reps)}


def _spec_units(kind: str) -> dict[str, str]:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "pivotsmith" / "cli.py").is_file():
        print("perfbench: no src/pivotsmith/cli.py under the current directory;"
              " run from the root of a pivotsmith checkout", file=sys.stderr)
        return 2
    units = _spec_units("per_layer" if args.trace else "end_to_end")
    workdir = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report = measure(args.workload, root, workdir, args.seed, args.seconds,
                         bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = report["metrics"]
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))}"
                         " disagree with BENCHMARK.json")
    ledger = report["ledger"]
    print(f"# machine: {json.dumps(machine())}")
    print(f"# workload: {args.workload} seed: {args.seed}"
          f" repetitions: {report['repetitions']}")
    print(f"# manifest: {json.dumps(report['workload'].manifest)}")
    if report["raw"]:
        print("# unscaled medians: " + " ".join(
            f"{name}={value:.6g}" for name, value in report["raw"].items()))
    for problem in ledger.problems:
        print(f"# check failed: {problem}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": ledger.failed == 0 and report["repetitions"] > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
