"""Benchmark of the jcrevival CLI on the collapse, revival and thermal windows.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {collapse,revival,thermal} --seed N \
        --seconds S --trace {0,1}

Every CLI run is a fresh process started the way a user starts the
``jcrevival`` console script, with the package imported from ``src/``.
Every CSV is checked against the Fock-series oracle, which is computed in
this process outside the timed region.  The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` (CSV rows)
and ``metrics``.

``--trace 0`` reports the end-to-end metrics: the median wall time, CPU
time (CLI process plus pool workers) and peak resident set of the timed
runs, the median wall time of the same command on a single ``t = 0`` row
(set-up), and the largest deviation from the oracle.

``--trace 1`` runs the CLI through ``trace_launcher.py``, alternating with
untraced runs, and reports per-layer counts and busy times plus the
accuracy pins.  See NOTES.md for the layer -> metric -> workload table.

Exit status: 0 when every check passed, 1 when a check failed (the result
line is still printed), 2 when the package cannot be found or built.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
LAUNCHER = BENCH / "trace_launcher.py"
# what the `jcrevival` console script executes
ENTRY = "import sys; from jcrevival.cli import main; sys.exit(main())"

# a row further than this from the series oracle counts as failed; it is the
# bound of the CLI's own collapse-window residual check
ERR_LIMIT = 1e-3
SETUP_REPEATS = 5
MIN_TIMED_RUNS = 3
INVOCATION_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    physics: dict          # CLI flag -> value; the oracle reads the same values
    flags: tuple           # other CLI flags
    jobs: int
    t_end: float
    t_steps: int
    # largest t_start offset as a share of one step; revival keeps its grid
    # because its under-budget rows return rounding noise that changes ten-fold
    # under a one-ulp shift of t (see NOTES.md)
    jitter: float
    column: str            # CSV column compared with the oracle
    escalates: bool        # regime guard: extended rows expected or forbidden

    def cli_args(self, t_start: float, t_end: float, t_steps: int,
                 out: Path, jobs: int | None = None) -> list[str]:
        args = [self.command]
        for key, value in self.physics.items():
            args += [f"--{key.replace('_', '-')}", repr(value)]
        args += list(self.flags)
        args += ["--jobs", str(self.jobs if jobs is None else jobs),
                 "--t-start", repr(t_start), "--t-end", repr(t_end),
                 "--t-steps", str(t_steps), "--out", str(out)]
        return args

    def oracle(self, jcm, t: np.ndarray) -> np.ndarray:
        cfg = jcm.JcmConfig(alpha=self.physics["alpha"],
                            delta_omega=self.physics.get("delta_omega", 0.0))
        if self.command == "integrals":
            return np.atleast_1d(jcm.sigma_z_series(t, cfg))
        thermal = jcm.ThermalConfig(theta=self.physics["theta"],
                                    gamma_tilde=self.physics["gamma_tilde"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", jcm.PerturbativeRegimeWarning)
            return np.atleast_1d(jcm.pg_thermal(t, cfg, thermal, mode="series"))


WORKLOADS = {w.name: w for w in (
    Workload("collapse",
             "integrals", {"alpha": 4.0}, ("--precision", "auto"), 1,
             4.0 * math.pi, 100, 0.05, "sigma_z", False),
    Workload("revival",
             "integrals", {"alpha": 4.0}, ("--precision", "auto"), 2,
             8.0 * math.pi, 50, 0.0, "sigma_z", True),
    Workload("thermal",
             "thermal",
             {"alpha": 4.0, "delta_omega": 4.0, "gamma_tilde": 1.0,
              "theta": 0.025},
             ("--mode", "integral"), 1, 4.0 * math.pi, 10, 0.05,
             "pg_thermal", False),
)}


@dataclass
class Invocation:
    csv: Path
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    log: Path
    span_dir: Path | None = None
    table: dict = field(default_factory=dict)


def spawn(argv: list[str], log: Path) -> tuple[float, float, float, int]:
    """Run argv to completion; return wall s, CPU s, peak RSS MB, exit code.

    wait4 reports the rusage of this child alone, with the pool workers it
    joined folded in, so nothing leaks in from earlier runs.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # reap pool workers a killed CLI may have left behind
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


def read_csv(path: Path) -> dict[str, np.ndarray]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    values = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {name: values[:, i] for i, name in enumerate(header)}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One benchmark run: the invocations, their checks and the tallies."""

    def __init__(self, workload: Workload, seed: int, work: Path, jcm):
        self.w = workload
        self.work = work
        self.jcm = jcm
        step = workload.t_end / workload.t_steps
        self.t_start = random.Random(seed).random() * workload.jitter * step
        self.t = np.linspace(self.t_start, workload.t_end, workload.t_steps + 1)
        self.expected = workload.oracle(jcm, self.t)
        self.setup_t = np.zeros(1)
        self.setup_expected = workload.oracle(jcm, self.setup_t)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_sha: dict[bool, str] = {}   # keyed by "set-up run"
        self.count = 0

    # -- invocations --------------------------------------------------------

    def invoke(self, traced: bool = False, setup: bool = False,
               jobs: int | None = None) -> Invocation:
        self.count += 1
        tag = f"{self.count:03d}"
        csv = self.work / f"{tag}.csv"
        grid = (0.0, 0.0, 1) if setup else (self.t_start, self.w.t_end,
                                             self.w.t_steps)
        args = self.w.cli_args(*grid, csv, jobs)
        span_dir = None
        if traced:
            span_dir = self.work / f"{tag}.spans"
            span_dir.mkdir()
            argv = [sys.executable, str(LAUNCHER), str(span_dir), *args]
        else:
            argv = [sys.executable, "-c", ENTRY, *args]
        inv = Invocation(csv, *spawn(argv, self.work / f"{tag}.log"),
                         log=self.work / f"{tag}.log", span_dir=span_dir)
        self.check(inv, self.setup_t if setup else self.t,
                   self.setup_expected if setup else self.expected, setup)
        return inv

    # -- checks -------------------------------------------------------------

    def fail(self, message: str):
        self.problems.append(message)
        print(f"bench: {self.w.name}: {message}", file=sys.stderr)

    def check(self, inv: Invocation, t: np.ndarray, expected: np.ndarray,
              setup: bool):
        """Exit code, row grid, series oracle, status and CSV bytes."""
        rows = t.size
        self.attempted += rows
        if inv.returncode != 0 or not inv.csv.is_file():
            self.failed += rows
            tail = inv.log.read_text(errors="replace")[-2000:]
            self.fail(f"CLI exited {inv.returncode}: {tail}")
            return
        try:
            table = read_csv(inv.csv)
        except (ValueError, IndexError):
            table = {}
        if (self.w.column not in table or "t" not in table
                or not np.array_equal(table["t"], t)):
            self.failed += rows
            self.fail(f"{inv.csv.name}: unreadable, or its rows are not the "
                      "requested grid")
            return
        value = table[self.w.column]
        err = np.abs(value - expected)
        bad = ~np.isfinite(value) | ~(err <= ERR_LIMIT)
        if "status" in table:
            bad |= table["status"] == 2
        self.failed += int(bad.sum())
        if bad.any():
            self.fail(f"{inv.csv.name}: {int(bad.sum())} failed rows")
        table["err"] = err
        inv.table = table
        digest = sha256(inv.csv)
        if self.reference_sha.setdefault(setup, digest) != digest:
            self.fail(f"{inv.csv.name}: CSV bytes differ between runs of the "
                      "same command")

    def guard(self, inv: Invocation, spans: dict | None):
        """Regime guards: a drifted workload must fail, never look faster."""
        if not inv.table:
            return
        status = inv.table.get("status")
        if status is not None:
            escalated = bool((status == 1).any())
            if escalated != self.w.escalates:
                self.fail(f"regime drift: escalated rows present = {escalated}, "
                          f"expected {self.w.escalates}")
        if spans is not None:
            extended = spans["quadrature.build_grid.calls.extended"] > 0
            if extended != self.w.escalates:
                self.fail(f"regime drift: extended grids built = {extended}, "
                          f"expected {self.w.escalates}")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def result(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


# -- per-layer aggregation ---------------------------------------------------

def layer_metrics(span_dir: Path, rows: int) -> tuple[dict, dict]:
    """Per-layer counts and busy times of one traced CLI run, and the
    per-worker pool balance {pid: (busy s, escalated rows)}."""
    spans = []
    workers: dict[int, list] = {}
    for path in sorted(span_dir.glob("spans-*.jsonl")):
        pid = int(path.stem.split("-")[1])
        mine = [json.loads(ln) for ln in path.read_text().splitlines()]
        child_s: dict[int, float] = {}
        for sid, parent, layer, kind, start, end, count in mine:
            if parent is not None:
                child_s[parent] = child_s.get(parent, 0.0) + end - start
        for sid, parent, layer, kind, start, end, count in mine:
            spans.append((layer, kind, end - start,
                          end - start - child_s.get(sid, 0.0), count))
            if layer == "cli.chunk":
                workers.setdefault(pid, [0.0, 0])[0] += end - start
        escalated = sum(1 for s in mine if s[2] == "quadrature.assemble"
                        and s[3] == "extended")
        if pid in workers:
            workers[pid][1] += escalated

    def select(layer, kind=None):
        return [s for s in spans if s[0] == layer and kind in (None, s[1])]

    sweeps = select("jcm.sweep")
    sweep_rows = sum(s[4] for s in sweeps)
    escalated = len(select("quadrature.assemble", "extended"))
    busy = [w[0] for w in workers.values()]
    m = {
        "cli.worker_busy_max_s": max(busy),
        "cli.worker_busy_mean_s": statistics.fmean(busy),
        "cli.escalated_rows_max_worker": max(w[1] for w in workers.values()),
        "jcm.sweep_calls": len(sweeps),
        "jcm.sweep_self_s": sum(s[3] for s in sweeps),
        "jcm.escalated_rows": escalated,
        "jcm.escalated_share": escalated / sweep_rows,
        "quadrature.nodes_per_row":
            sum(s[4] for s in select("quadrature.assemble")) / rows,
        "special.log_gamma.calls": len(select("special.log_gamma")),
        "special.log_gamma_s": sum(s[2] for s in select("special.log_gamma")),
        "ddmath.calls": len(select("ddmath")),
        "ddmath_s": sum(s[2] for s in select("ddmath")),
    }
    for kind in ("standard", "extended"):
        m[f"quadrature.build_grid.calls.{kind}"] = len(
            select("quadrature.build_grid", kind))
        m[f"quadrature.assemble.calls.{kind}"] = len(
            select("quadrature.assemble", kind))
        m[f"quadrature.assemble_s.{kind}"] = sum(
            s[2] for s in select("quadrature.assemble", kind))
    launcher = json.loads((span_dir / "launcher.json").read_text())
    m["cli.import_s"] = launcher["import_s"]
    return m, {pid: tuple(w) for pid, w in workers.items()}


def accuracy_pins(jcm) -> dict:
    """ROADMAP item 1 pins, on the default grids in the standard kind."""
    residual = 0.0
    for alpha in (1.0, 2.0, 3.0, 4.0):
        lhs, rhs = jcm.abel_plana_identity(alpha)
        residual = max(residual, abs(lhs - rhs) / abs(rhs))
    prof = jcm.resonant_profile(np.array([4.0 * math.pi, 6.0 * math.pi]),
                                jcm.JcmConfig(alpha=4.0), escalation="ignore")
    return {"quadrature.identity_residual_max": residual,
            "quadrature.cancellation.t4pi": float(prof["cancellation"][0]),
            "quadrature.cancellation.t6pi": float(prof["cancellation"][1])}


def report(values: dict, listed: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in its order and units."""
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in listed}


# -- the two kinds of run ----------------------------------------------------

def more(start: float, seconds: float, durations: list[float],
         minimum: int) -> bool:
    """Whether to start another round: stop at the round boundary nearest
    to `seconds` after `start`, once `minimum` rounds are done."""
    if len(durations) < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(durations) / 2.0 < seconds


def measure_end_to_end(run: Run, seconds: float) -> dict:
    setup = [run.invoke(setup=True) for _ in range(SETUP_REPEATS)]
    timed = []
    start = time.perf_counter()
    while more(start, seconds, [inv.wall_s for inv in timed], MIN_TIMED_RUNS):
        timed.append(run.invoke())
        run.guard(timed[-1], None)
    if timed[0].table and "status" not in timed[0].table:
        # the CSV does not say which rows escalated; a traced run does
        inv = run.invoke(traced=True)
        if inv.table:
            run.guard(inv, layer_metrics(inv.span_dir, run.t.size)[0])
    print(f"bench: {run.w.name}: {len(timed)} timed runs, wall s "
          f"{[round(inv.wall_s, 3) for inv in timed]}", file=sys.stderr)
    errors = [float(inv.table["err"].max()) for inv in timed + setup
              if inv.table]
    return {
        "wall_s": statistics.median(inv.wall_s for inv in timed),
        "setup_s": statistics.median(inv.wall_s for inv in setup),
        "cpu_s": statistics.median(inv.cpu_s for inv in timed),
        "peak_rss_mb": statistics.median(inv.rss_mb for inv in timed),
        "sigma_err_max": max(errors, default=math.inf),
    }


def measure_layers(run: Run, seconds: float) -> dict:
    pins = accuracy_pins(run.jcm)
    traced, plain = [], []
    start = time.perf_counter()
    if run.w.jobs > 1:
        run.invoke(jobs=1)   # same bytes whatever the pool size
    while more(start, seconds, [a.wall_s + b.wall_s
                                for a, b in zip(traced, plain)], 1):
        traced.append(run.invoke(traced=True))
        plain.append(run.invoke())
    per_run, balance = [], {}
    for inv in traced:
        if inv.table:
            m, balance = layer_metrics(inv.span_dir, run.t.size)
            run.guard(inv, m)
            per_run.append(m)
    if not run.correct:
        return {}
    metrics = {name: statistics.median(m[name] for m in per_run)
               for name in per_run[0]}
    print(f"bench: {run.w.name}: pool balance (pid: busy s, escalated rows) "
          f"{balance}", file=sys.stderr)
    table = traced[0].table
    escalated = table.get("status", np.zeros_like(table["t"])) == 1
    metrics["jcm.err_max.standard_rows"] = float(
        table["err"][~escalated].max(initial=0.0))
    metrics["jcm.err_max.escalated_rows"] = float(
        table["err"][escalated].max(initial=0.0))
    untraced = statistics.median(inv.wall_s for inv in plain)
    metrics["trace_overhead_share"] = (
        statistics.median(inv.wall_s for inv in traced) - untraced) / untraced
    metrics["failed_row_share"] = run.failed / run.attempted
    metrics.update(pins)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jcrevival" / "cli.py").is_file():
        print(f"bench: no jcrevival package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # byte-compile up front so no timed run pays for it
    build = subprocess.run([sys.executable, "-m", "compileall", "-q",
                            str(SRC / "jcrevival")], capture_output=True)
    if build.returncode != 0:
        print(f"bench: compileall failed:\n{build.stdout.decode()}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from jcrevival import jcm

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        run = Run(WORKLOADS[args.workload], args.seed, work, jcm)
        if args.trace:
            metrics = measure_layers(run, args.seconds)
        else:
            metrics = measure_end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = run.result(report(metrics, listed) if run.correct else {})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
