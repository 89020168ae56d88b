"""In-process cost of each layer that one integral row passes through.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 tools/layer_costs.py [--repeats N]

Prints one JSON line of costs, each the minimum over N repeats (default
20).  All but ``startup.*`` are seconds measured in this process, so they
leave out start-up, imports and the CLI's forked workers:

* ``startup.import_cli_s`` and ``startup.cpu_s``: the wall and CPU time of
  a fresh interpreter that runs ``import jcrevival.cli`` and exits, what
  every CLI process pays besides its rows; both include the teardown;
  ``startup.teardown_s``: the time from that interpreter's last statement
  to the exit its parent sees, interpreter shutdown included;
  ``startup.threads``: the threads it runs after that import (where
  ``/proc/self/task`` lists them);
* ``line.*`` and ``correction.*``: building the resonant (J form) line and
  correction families on the default grids at alpha = 4, and one row of
  each at t = 6 pi (inside the window where rows escalate); the line
  family in the standard kind, which is its only one, and the correction
  family in the standard and the extended kind;
* ``line.*.coarse`` and ``correction.*.coarse``: the same builds, and
  one row at t = 4 pi, in the standard kind on the coarser grid that the
  band rule gives that row (a v-step of 0.01, 1,001 nodes, at alpha = 4);
* ``assemble.*``: one ``quadrature.assemble`` of the line family's row
  samples on the correction family's grid in each kind, and
  ``compensated_sum.*`` the sum inside it;
* ``special.log_gamma.*``: ``ln Gamma(1 + iy)`` on the correction grid's
  4,001 nodes in each kind;
* ``ddmath.*``: each double-double kernel on 4,001 arguments drawn from the
  range the families use; ``ddmath.tables_s`` is the one-time build of
  the exp and sincos tables from an empty cache, which every process that
  escalates pays at its first double-double exp or sincos, and which the
  per-call figures leave out.

The end-to-end yardstick stays ``bench/run.py``; these figures break a row
down for a change that targets one of its layers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import subprocess
import sys
import time

import numpy as np

from jcrevival import ddmath, jcm, quadrature, special
from jcrevival.ddmath import CDD, DD

NODES = 4001
# the time of the one row costed per family: inside the escalation window
BIG_T = 6.0 * math.pi
# the latest time of a row on a coarser grid than the default
BAND_T = 4.0 * math.pi


def best_of(repeats: int, fn) -> float:
    """The least wall time of `repeats` calls of fn()."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def startup_costs(repeats: int) -> dict:
    """Least wall and CPU time of a fresh `import jcrevival.cli`, least
    time from its last statement to its exit, and the number of threads
    that import leaves running."""
    # the child's last statement prints the monotonic clock, which is
    # system-wide, so the parent can subtract it from its own reading
    code = ("import os, time, jcrevival.cli; task = '/proc/self/task'; "
            "print(len(os.listdir(task)) if os.path.isdir(task) else ''); "
            "print(time.monotonic())")
    wall, cpu, teardown = math.inf, math.inf, math.inf
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.monotonic()
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        exited = time.monotonic()
        wall = min(wall, exited - start)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = min(cpu, (after.ru_utime + after.ru_stime)
                  - (before.ru_utime + before.ru_stime))
        threads, last = run.stdout.splitlines()
        teardown = min(teardown, exited - float(last))
    out = {"startup.import_cli_s": wall, "startup.cpu_s": cpu,
           "startup.teardown_s": teardown}
    if threads:
        out["startup.threads"] = int(threads)
    return out


def family_costs(repeats: int) -> dict:
    cfg = jcm.JcmConfig(alpha=4.0)
    out = {"line.build.standard": best_of(
        repeats, lambda: jcm._LineFamily(cfg, 0, jcm.DEFAULT_X_SPEC, j_form=True))}
    line = jcm._LineFamily(cfg, 0, jcm.DEFAULT_X_SPEC, j_form=True)
    out["line.row.standard"] = best_of(repeats, lambda: line.integral(BIG_T))
    samples = line.a0 + line.a1 * np.cos(line.sqrt_arg * (2.0 * BIG_T))
    for kind in ("standard", "extended"):
        spec = dataclasses.replace(jcm.DEFAULT_Y_SPEC, precision_kind=kind)
        out[f"correction.build.{kind}"] = best_of(
            repeats, lambda: jcm._CorrectionFamily(cfg, 0, spec, j_form=True))
        fam = jcm._CorrectionFamily(cfg, 0, spec, j_form=True)
        out[f"correction.row.{kind}"] = best_of(
            repeats, lambda: fam.integral(BIG_T))
        # the line row's samples on this family's grid, also of NODES nodes
        kind_samples = DD(samples) if kind == "extended" else samples
        out[f"assemble.{kind}"] = best_of(
            repeats, lambda: quadrature.assemble(kind_samples, fam.grid))
        terms = kind_samples * fam.grid.pattern * fam.grid.h
        out[f"compensated_sum.{kind}"] = best_of(
            repeats, lambda: special.compensated_sum(terms))
    return out


def coarse_costs(repeats: int) -> dict:
    """Build and row costs of both families, standard kind, on the grid
    the band rule gives the row at T = 4 pi."""
    cfg = jcm.JcmConfig(alpha=4.0)
    (x_spec, y_spec), _ = jcm._plan(cfg, np.array([BAND_T]), jcm.BANDED_X_SPEC,
                                    jcm.BANDED_Y_SPEC, cfg.c)[1][0]
    out = {}
    for layer, cls, spec in (("line", jcm._LineFamily, x_spec),
                             ("correction", jcm._CorrectionFamily, y_spec)):
        out[f"{layer}.build.coarse"] = best_of(
            repeats, lambda: cls(cfg, 0, spec, j_form=True))
        fam = cls(cfg, 0, spec, j_form=True)
        out[f"{layer}.row.coarse"] = best_of(repeats, lambda: fam.integral(BAND_T))
    return out


def kernel_costs(repeats: int) -> dict:
    rng = np.random.default_rng(5)
    y = np.linspace(0.0, 100.0, NODES)
    out = {
        "special.log_gamma.standard": best_of(
            repeats, lambda: special.log_gamma(1.0 + 1j * y)),
        "special.log_gamma.extended": best_of(
            repeats, lambda: special.log_gamma(special.complex_of(1.0, DD(y)))),
    }
    wide = DD(rng.uniform(-60.0, 60.0, NODES))
    positive = DD(np.exp(rng.uniform(-30.0, 30.0, NODES)))
    a = DD(rng.uniform(-5.0, 5.0, NODES))
    b = DD(rng.uniform(-5.0, 5.0, NODES))
    z = CDD(a, b)
    for name, fn in (("exp", lambda: ddmath.exp(wide)),
                     ("log", lambda: ddmath.log(positive)),
                     ("sincos", lambda: ddmath.sincos(wide)),
                     ("atan2", lambda: ddmath.atan2(a, b)),
                     ("sqrt", lambda: ddmath.sqrt(positive)),
                     ("cexp", lambda: ddmath.cexp(z)),
                     ("clog", lambda: ddmath.clog(z)),
                     ("mul", lambda: a * b),
                     ("div", lambda: a / b)):
        out[f"ddmath.{name}"] = best_of(repeats, fn)
    return out


def table_costs(repeats: int) -> dict:
    def build():
        for table in (ddmath._exp_table, ddmath._sincos_table):
            table.cache_clear()
            table()
    return {"ddmath.tables_s": best_of(repeats, build)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    costs = startup_costs(args.repeats)
    with np.errstate(all="ignore"):
        costs.update(family_costs(args.repeats))
        costs.update(coarse_costs(args.repeats))
        costs.update(kernel_costs(args.repeats))
        costs.update(table_costs(args.repeats))
    print(json.dumps({k: v if isinstance(v, int) else float(f"{v:.3g}")
                      for k, v in costs.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
