"""Command-line front end: CSV time series and consistency reports.

The commands and their help are in _COMMANDS; flags go before or after.

Outputs are CSV with a `# key=value` comment block recording the full run
configuration, so a figure can be regenerated from its data file alone: the
`command` line names the command and every other line is a flag, `--key
value` with `-` for `_`.  Identical configurations produce byte-identical files.

Exit codes: 0 ok, 1 check failure, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import os
import pickle
import signal
import sys
import typing
from dataclasses import dataclass
from typing import Literal

# one OpenBLAS thread, set before numpy loads: no command needs a BLAS pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# what the imports leave lives as long as the process: no collection walks it
_gc_was_enabled = gc.isenabled()
gc.disable()

import numpy as np

from . import jcm
from .errors import IntegrandError, PrecisionLossError
from .quadrature import QuadratureSpec

gc.freeze()
if _gc_was_enabled:
    gc.enable()

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


@dataclass
class RunConfig:
    """Every CLI setting, declared once: the fields give the flags and their
    types, and the order of the CSV header."""

    command: str
    alpha: float = 4.0
    delta_omega: float = 0.0
    gamma_tilde: float = 1.0
    theta: float = 0.025
    n_max: int = jcm.DEFAULT_SERIES_SPEC.n_max  # the Fock sum's and x's cutoff
    dx: float | None = None  # a step in sqrt(x); None: the band rule's
    y_max: float = jcm.DEFAULT_Y_SPEC.upper_limit
    dy: float | None = None  # a step in sqrt(y); None: the band rule's
    precision: Literal["standard", "extended", "auto"] = "auto"
    t_start: float = 0.0
    t_end: float = 8.0 * math.pi
    t_steps: int = 4000
    mode: jcm.Mode = "series"
    out: str | None = None
    jobs: int = 0  # 0 means every CPU this process may run on

    def __post_init__(self):  # every setting is checked whatever the command
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 means all cores)")
        # builds, and so checks, both configs and refuses a P2 that overflows
        jcm.perturbative_strength(self.jcm_config(), self.thermal_config())
        self.series_spec()  # n_max in [0, 2^20], then past the Poisson tail
        jcm._require_tail(self.jcm_config(), "n_max", self.n_max, "n_max (--n-max)")
        self.specs()
        if self.t_steps < 1:
            raise ValueError("t_steps must be >= 1")
        for name in ("t_start", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.t_start > self.t_end:
            raise ValueError("t_start must not exceed t_end")

    def jcm_config(self) -> jcm.JcmConfig:
        return jcm.JcmConfig(alpha=self.alpha, delta_omega=self.delta_omega)

    def thermal_config(self) -> jcm.ThermalConfig:
        return jcm.ThermalConfig(theta=self.theta, gamma_tilde=self.gamma_tilde)

    def series_spec(self) -> jcm.SeriesSpec:
        return jcm.SeriesSpec(n_max=self.n_max)

    def specs(self) -> tuple[QuadratureSpec, QuadratureSpec, jcm.Escalation]:
        """(x spec, y spec, escalation) of the grid flags and --precision,
        the y spec's kind (the line integral is standard-kind only); "auto"
        computes in the standard kind and escalates past its budget.  x runs
        to n_max; an unset --dx or --dy gives a banded spec (jcm._plan)."""
        kind = "standard" if self.precision == "auto" else self.precision
        x_spec = dataclasses.replace(jcm.DEFAULT_X_SPEC,
                                     upper_limit=float(self.n_max), step=self.dx)
        y_spec = dataclasses.replace(jcm.DEFAULT_Y_SPEC, upper_limit=self.y_max,
                                     step=self.dy, precision_kind=kind)
        jcm._require_weight_range(y_spec, "y")
        return x_spec, y_spec, "escalate" if self.precision == "auto" else "ignore"

    def time_grid(self) -> np.ndarray:
        if self.t_start == self.t_end:
            return np.asarray([self.t_start])
        t = np.linspace(self.t_start, self.t_end, self.t_steps + 1)
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("the time grid is not strictly increasing; "
                             "widen [t_start, t_end] or lower t_steps")
        return t


def _build_parser() -> argparse.ArgumentParser:
    """The command, then a flag for each RunConfig field but `command`, typed
    by its annotation (a Literal lists the choices, `X | None` parses as X)."""
    parser = argparse.ArgumentParser(
        prog="jcrevival", argument_default=argparse.SUPPRESS,
        description="Collapse and revival of Rabi oscillations: series, "
                    "envelope and integral representations.")
    parser.add_argument("command", choices=_COMMANDS, help="; ".join(
        f"{name}: {blurb}" for name, (_, blurb) in _COMMANDS.items()))
    for name, hint in list(typing.get_type_hints(RunConfig).items())[1:]:
        literal = typing.get_origin(hint) is Literal
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=str if literal else (typing.get_args(hint) or (hint,))[0],
            choices=typing.get_args(hint) if literal else None)
    return parser


def _format(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(cfg: RunConfig, t: np.ndarray, columns: dict[str, np.ndarray]):
    lines = []
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        # the output path and the parallelism degree never change the numbers
        if field.name not in ("out", "jobs") and value is not None:
            lines.append(f"# {field.name}={value}")
    lines.append("t," + ",".join(columns))
    cols = list(columns.values())
    for i in range(t.size):
        lines.append(",".join([repr(float(t[i]))] +
                              [_format(col[i]) for col in cols]))
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _effective_jobs(cfg: RunConfig, n_samples: int) -> int:
    """Worker count: at most one per CPU this process may run on and one
    per time sample, and one where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return max(1, min(cfg.jobs or cores, cores, n_samples))


def _chunk_columns(worker, cfg: RunConfig, t: np.ndarray) -> dict[str, np.ndarray]:
    """Run worker over (cfg, times, specs) chunks of t and scatter the
    columns back into time order.  An integral run makes one jcm._plan of
    t, whose widened y spec every chunk takes.  With several workers, the
    latest row of each of its bands runs first, alone: it needs the most
    precision of its band, so these rows build every family the run uses.
    The other rows are dealt round-robin to this process and to forked
    workers that inherit those."""
    jobs = _effective_jobs(cfg, t.size)
    x_spec, y_spec, escalation = cfg.specs()
    latest = []  # a series run plans nothing: its first chunk is empty
    if cfg.command == "integrals" or cfg.mode == "integral":
        # c: the l = 0 bracket turns fastest
        jcfg = cfg.jcm_config()
        y_spec, bands = jcm._plan(jcfg, t, x_spec, y_spec, jcfg.c)
        latest = [rows[-1] for _, rows in bands]
    rest = np.delete(np.arange(t.size), latest)
    deals = [np.arange(t.size)] if jobs == 1 else [latest] + [
        rest[i::jobs] for i in range(min(jobs, rest.size))]
    payloads = [(cfg, t[d], (x_spec, y_spec, escalation)) for d in deals]
    chunks = [worker(payloads[0])] + _run_forked(worker, payloads[1:])
    order = np.argsort(np.concatenate(deals))
    return {key: np.concatenate([c[key] for c in chunks])[order] for key in chunks[0]}


def _run_forked(worker, payloads: list[tuple]) -> list[dict]:
    """[worker(p) for p in payloads], payloads[1:] in forked children that
    pickle (ok, result or exception) down a pipe and leave by os._exit,
    running no exit handler or buffer flush of the parent's.  A child's
    exception is raised here, and every child is reaped."""
    children = {}  # pid -> the read end of its pipe, until reaped
    try:
        for payload in payloads[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                code = 1
                try:
                    try:
                        reply = (True, worker(payload))
                    except BaseException as exc:  # the parent raises it
                        reply = (False, exc)
                    with open(write_fd, "wb") as fh:
                        pickle.dump(reply, fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children[pid] = open(read_fd, "rb")
        chunks = [worker(p) for p in payloads[:1]]
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0:
                raise ChildProcessError(f"worker process {pid} ended (status "
                                        f"{status}) without reporting its rows")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            chunks.append(value)
        return chunks
    finally:
        for pid, pipe in children.items():  # this process failed first
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _integrals_chunk(payload: tuple) -> dict:
    cfg, t, specs = payload
    if cfg.delta_omega == 0.0:
        return jcm.resonant_profile(t, cfg.jcm_config(), *specs)
    return jcm.detuned_profile(t, cfg.jcm_config(), 0, *specs)


def _thermal_chunk(payload: tuple) -> dict:
    cfg, t, specs = payload
    # the parent process reports the regime and any breakdown rows
    p1, p2, pth = jcm._thermal_terms(t, cfg.jcm_config(), cfg.thermal_config(),
                                     cfg.mode, cfg.series_spec(), *specs)
    return {"P1": p1, "P2": p2, "pg_thermal": pth,
            "sigma_z_thermal": 1.0 - 2.0 * pth}


def _ensure_finite(columns: dict[str, np.ndarray]) -> None:
    for name, col in columns.items():
        if not np.all(np.isfinite(col)):
            raise FloatingPointError(
                f"column {name} contains non-finite values")


def cmd_series(cfg: RunConfig) -> int:
    t = cfg.time_grid()
    jcfg = cfg.jcm_config()
    columns = {"sigma_z_series": jcm.sigma_z_series(t, jcfg, cfg.series_spec())}
    if cfg.delta_omega == 0.0 and cfg.alpha != 0.0:
        columns["envelope"] = jcm.envelope_approximation(t, jcfg)
    _ensure_finite(columns)
    _write_csv(cfg, t, columns)
    return EXIT_OK


def cmd_integrals(cfg: RunConfig) -> int:
    t = cfg.time_grid()
    prof = _chunk_columns(_integrals_chunk, cfg, t)
    _ensure_finite({k: v for k, v in prof.items()
                    if k in ("J1", "J2", "I1", "I2", "sigma_z")})
    _write_csv(cfg, t, prof)
    lost = int((prof["status"] == 2).sum())
    if lost:
        print(f"precision loss on {lost} of {t.size} rows "
              "(status column = 2)", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_thermal(cfg: RunConfig) -> int:
    t = cfg.time_grid()
    columns = _chunk_columns(_thermal_chunk, cfg, t)
    _ensure_finite(columns)
    _write_csv(cfg, t, columns)
    for text in jcm._regime_warnings(cfg.jcm_config(), cfg.thermal_config(),
                                     columns["pg_thermal"]):
        print(f"warning: {text}", file=sys.stderr)
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    """Identity and residual self-tests; prints PASS/FAIL per item, and
    SKIP with the reason for an item the settings rule out."""
    x_spec, y_spec, escalation = cfg.specs()
    failures = 0

    def report(name: str, measured: float, bound: float):
        nonlocal failures
        ok = measured <= bound
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: measured {measured:.4e} "
              f"(bound {bound:.1e})")

    def skip(name: str, reason: str):
        print(f"SKIP  {name}: {reason}")

    for alpha in (1.0, 2.0, 3.0, 4.0):
        identity = f"sum-to-integral identity alpha={alpha:g}"
        try:  # its line integral runs to n_max, sized for the run's own alpha
            jcm._require_tail(jcm.JcmConfig(alpha), "n_max", cfg.n_max,
                              "n_max (--n-max)")
        except ValueError as exc:
            skip(identity, str(exc))
            continue
        lhs, rhs = jcm.abel_plana_identity(alpha, x_spec, y_spec)
        report(identity, abs(lhs - rhs) / abs(rhs), 1e-6)

    jcfg = cfg.jcm_config()
    no_integral = "the integral form needs alpha != 0" if jcfg.alpha == 0.0 else None
    residual = "collapse-window residual |sigma_series - sigma_z|, t in [0, 4pi]"
    if no_integral or jcfg.delta_omega != 0.0:
        skip(residual, no_integral or "the J decomposition needs delta_omega = 0")
    else:
        ts = np.linspace(0.0, 4.0 * math.pi, 201)
        spec = cfg.series_spec()
        sigma = jcm.sigma_z_series(ts, jcfg, spec)
        prof = jcm.resonant_profile(ts, jcfg, x_spec, y_spec,
                                    escalation=escalation)
        report(residual, float(np.abs(sigma - prof["sigma_z"]).max()), 1.0e-8)

    worst = max(_origin_limit_residual(jcm.JcmConfig(
        alpha=jcfg.alpha or 4.0, delta_omega=2.0 * math.sqrt(c_val)), l, t)
        for c_val in (0.0, 1.0, 4.0) for l in (0, 1, 2) for t in (0.5, 1.0, 2.0))
    report("correction integrand y->0 limits vs Richardson", worst, 1e-6)

    t_probe = 1.3
    if no_integral:
        skip("Q^(0) equals P_g (integral)", no_integral)
    else:
        pg = jcm.pg_series(t_probe, jcfg, cfg.series_spec())
        q0i = jcm.q_g(0, t_probe, jcfg, "integral", cfg.series_spec(),
                      x_spec, y_spec, escalation=escalation)
        report("Q^(0) equals P_g (integral)", abs(q0i - pg), 1e-5)

    print(f"{'ALL CHECKS PASSED' if failures == 0 else f'{failures} CHECK(S) FAILED'}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _origin_limit_residual(cfg: jcm.JcmConfig, l: int, t: float) -> float:
    """Relative gap between the analytic y->0 limit and Richardson
    extrapolation of the directly sampled correction integrand."""
    analytic = jcm.correction_origin(cfg, l, t)
    h = 1e-4
    f1, f2, f3 = (jcm.correction_integrand_probe(cfg, l, t, y)
                  for y in (h, h / 2.0, h / 4.0))
    extrapolated = (f1 - 6.0 * f2 + 8.0 * f3) / 3.0
    return abs(extrapolated - analytic) / max(abs(analytic), 1e-30)


# name -> (handler, help): the parser's choices and main's dispatch
_COMMANDS = {
    "series": (cmd_series, "Fock-space series, and the envelope on resonance"),
    "integrals": (cmd_integrals, "J1/J2, or I1/I2 off resonance, with diagnostics"),
    "thermal": (cmd_thermal, "low-temperature corrections P1, P2 and P_g"),
    "check": (cmd_check, "identity and residual self-tests; exit 1 on failure")}


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    try:
        cfg = RunConfig(**args)  # an unset flag keeps its field's default
        return _COMMANDS[cfg.command][0](cfg)
    except (PrecisionLossError, IntegrandError, OverflowError,
            FloatingPointError) as exc:
        # before ValueError, which IntegrandError subclasses
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
