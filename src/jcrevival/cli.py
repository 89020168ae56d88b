"""Command-line front end: CSV time series and consistency reports.

Subcommands
-----------
series      inversion from the Fock-space series (plus the envelope on
            resonance)
integrals   the sum-to-integral representations: J1/J2 on resonance,
            I1/I2 off resonance, with cancellation diagnostics
thermal     low-temperature corrections P1, P2 and the corrected P_g
check       identity and residual self-tests; exits nonzero on failure

Outputs are CSV with a `# key=value` comment block recording the full run
configuration, so a figure can be regenerated from its data file alone.
Identical configurations produce byte-identical files.

Exit codes: 0 ok, 1 check failure, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
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

import numpy as np

from . import jcm
from .errors import IntegrandError, PrecisionLossError
from .quadrature import QuadratureSpec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# --precision -> (scalar kind to compute with, escalation policy)
_PRECISION_PLANS = {"standard": ("standard", "ignore"),
                    "extended": ("extended", "ignore"),
                    "auto": ("standard", "escalate")}
_Precision = Literal[tuple(_PRECISION_PLANS)]
_Rule = typing.get_type_hints(QuadratureSpec)["rule"]


@dataclass
class RunConfig:
    """Every CLI setting, declared once: the fields give the flags, the
    config-file keys and their types, and the order of the CSV header."""

    command: str
    alpha: float = 4.0
    delta_omega: float = 0.0
    kappa: float = 1.0
    gamma_tilde: float = 1.0
    theta: float = 0.025
    beta_epsilon: float | None = None
    n_max: int = jcm.DEFAULT_SERIES_SPEC.n_max
    x_max: float = jcm.DEFAULT_X_SPEC.upper_limit
    dx: float = jcm.DEFAULT_X_SPEC.step  # a step in sqrt(x)
    y_max: float = jcm.DEFAULT_Y_SPEC.upper_limit
    dy: float = jcm.DEFAULT_Y_SPEC.step  # a step in sqrt(y)
    rule: _Rule = jcm.DEFAULT_X_SPEC.rule
    precision: _Precision = "auto"
    t_start: float = 0.0
    t_end: float = 8.0 * math.pi
    t_steps: int = 4000
    mode: jcm.Mode = "series"
    out: str | None = None
    jobs: int = 0  # 0 means all available cores

    def __post_init__(self):
        # beta_epsilon, when given, sets the theta the header records
        if self.beta_epsilon is not None:
            self.theta = jcm.theta_of_beta(self.beta_epsilon).exact

    def jcm_config(self) -> jcm.JcmConfig:
        return jcm.JcmConfig(alpha=self.alpha, kappa=self.kappa,
                             delta_omega=self.delta_omega)

    def thermal_config(self) -> jcm.ThermalConfig:
        return jcm.ThermalConfig(theta=self.theta, gamma_tilde=self.gamma_tilde)

    def series_spec(self) -> jcm.SeriesSpec:
        return jcm.SeriesSpec(n_max=self.n_max)

    def x_spec(self, kind: str) -> QuadratureSpec:
        return dataclasses.replace(jcm.DEFAULT_X_SPEC, rule=self.rule,
                                   upper_limit=self.x_max, step=self.dx,
                                   precision_kind=kind)

    def y_spec(self, kind: str) -> QuadratureSpec:
        return dataclasses.replace(jcm.DEFAULT_Y_SPEC, upper_limit=self.y_max,
                                   step=self.dy, precision_kind=kind)

    def time_grid(self) -> np.ndarray:
        if self.t_steps < 1:
            raise ValueError("t_steps must be >= 1")
        for name in ("t_start", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.t_start > self.t_end:
            raise ValueError("t_start must not exceed t_end")
        if self.t_start == self.t_end:
            return np.asarray([self.t_start])
        t = np.linspace(self.t_start, self.t_end, self.t_steps + 1)
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("the time grid is not strictly increasing; "
                             "widen [t_start, t_end] or lower t_steps")
        return t

    def precision_plan(self) -> tuple[str, str]:
        """(scalar kind to compute with, escalation policy)."""
        return _PRECISION_PLANS[self.precision]


def _settings_parser(**kwargs) -> argparse.ArgumentParser:
    """A flag for each RunConfig field but `command`, typed by its
    annotation: a Literal lists the choices and `X | None` parses as X."""
    parser = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS, **kwargs)
    for name, hint in list(typing.get_type_hints(RunConfig).items())[1:]:
        literal = typing.get_origin(hint) is Literal
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=str if literal else (typing.get_args(hint) or (hint,))[0],
            choices=typing.get_args(hint) if literal else None)
    return parser


def _read_config_file(path: str) -> dict:
    """Flat `key = value` lines; # starts a comment.  The keys are the flag
    names but `out`; each value is parsed and checked as its flag is."""
    parser = _settings_parser(allow_abbrev=False, exit_on_error=False)
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, text = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            text = text.strip().strip("\"'")
            try:
                values, unknown = parser.parse_known_args([f"{flag}={text}"])
            except argparse.ArgumentError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if unknown or flag == "--out":
                raise ValueError(f"{path}:{lineno}: unknown key {key.strip()!r}")
            out.update(vars(values))
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcrevival",
        description="Collapse and revival of Rabi oscillations: series, "
                    "envelope and integral representations.")
    sub = parser.add_subparsers(dest="command", required=True)
    settings = _settings_parser()
    for name, blurb in (("series", "Fock-space series inversion"),
                        ("integrals", "integral representations"),
                        ("thermal", "low-temperature corrections"),
                        ("check", "identity and residual self-tests")):
        p = sub.add_parser(name, help=blurb, parents=[settings])
        p.add_argument("--config")
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
    """Worker count: at most one per core and one per time sample, and one
    where the platform cannot fork."""
    if cfg.jobs < 0:
        raise ValueError("jobs must be >= 0 (0 means all cores)")
    cores = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    return max(1, min(cfg.jobs or cores, cores, n_samples))


def _chunk_columns(worker, cfg: RunConfig, t: np.ndarray) -> dict[str, np.ndarray]:
    """Run worker over chunks of t, the y truncation widened once for the
    latest t, and scatter the columns back into time order.  With several
    workers, the latest row runs first, alone: it needs the most precision,
    so it builds every family the run uses.  The other rows are dealt
    round-robin to this process and to forked workers that inherit those."""
    jobs = _effective_jobs(cfg, t.size)
    y_spec = jcm._peak_aware(cfg.y_spec("standard"), abs(cfg.kappa) * float(t.max()))
    run = dataclasses.replace(cfg, y_max=y_spec.upper_limit)
    rows = np.arange(t.size)
    deals = [rows] if jobs == 1 else [rows[-1:]] + [
        rows[:-1][i::jobs] for i in range(min(jobs, t.size - 1))]
    payloads = [{"cfg": run, "t": t[d].tolist()} for d in deals]
    chunks = [worker(payloads[0])] + _run_forked(worker, payloads[1:])
    order = np.argsort(np.concatenate(deals))
    return {key: np.concatenate([c[key] for c in chunks])[order] for key in chunks[0]}


def _run_forked(worker, payloads: list[dict]) -> list[dict]:
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


def _integrals_chunk(payload: dict) -> dict:
    cfg = payload["cfg"]
    kind, escalation = cfg.precision_plan()
    if cfg.delta_omega == 0.0:
        return jcm.resonant_profile(payload["t"], cfg.jcm_config(),
                                    cfg.x_spec(kind), cfg.y_spec(kind),
                                    escalation=escalation)
    return jcm.detuned_profile(payload["t"], cfg.jcm_config(), 0,
                               cfg.x_spec(kind), cfg.y_spec(kind),
                               escalation=escalation)


def _thermal_chunk(payload: dict) -> dict:
    cfg = payload["cfg"]
    ts = np.asarray(payload["t"])
    kind, escalation = cfg.precision_plan()
    # the parent process reports the regime and any breakdown rows
    p1, p2, pth = jcm._thermal_terms(
        ts, cfg.jcm_config(), cfg.thermal_config(), cfg.mode,
        cfg.series_spec(), cfg.x_spec(kind), cfg.y_spec(kind), escalation)
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
    strength = jcm.perturbative_strength(cfg.jcm_config(), cfg.thermal_config())
    if strength > 0.5:
        print(f"warning: perturbative strength {strength:.3g} > 0.5; the "
              "second-order expansion is marginal here", file=sys.stderr)
    columns = _chunk_columns(_thermal_chunk, cfg, t)
    _ensure_finite(columns)
    _write_csv(cfg, t, columns)
    outside = int(jcm._outside_unit_interval(columns["pg_thermal"]).sum())
    if outside:
        print(f"warning: thermal P_g left [0, 1] on {outside} of {t.size} "
              "rows: the perturbative expansion breaks down there",
              file=sys.stderr)
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    """Identity and residual self-tests; prints PASS/FAIL per item."""
    kind, escalation = cfg.precision_plan()
    x_spec = cfg.x_spec(kind)
    y_spec = cfg.y_spec(kind)
    failures = 0

    def report(name: str, measured: float, bound: float):
        nonlocal failures
        ok = measured <= bound
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: measured {measured:.4e} "
              f"(bound {bound:.1e})")

    for alpha in (1.0, 2.0, 3.0, 4.0):
        lhs, rhs = jcm.abel_plana_identity(alpha, x_spec, y_spec)
        report(f"sum-to-integral identity alpha={alpha:g}",
               abs(lhs - rhs) / abs(rhs), 1e-6)

    jcfg = cfg.jcm_config()
    if jcfg.delta_omega == 0.0 and jcfg.alpha != 0.0:
        ts = np.linspace(0.0, 4.0 * math.pi, 201)
        spec = cfg.series_spec()
        sigma = jcm.sigma_z_series(ts, jcfg, spec)
        prof = jcm.resonant_profile(ts, jcfg, x_spec, y_spec,
                                    escalation=escalation)
        report("collapse-window residual |sigma_series - J1|, t in [0, 4pi]",
               float(np.abs(sigma - prof["J1"]).max()), 1.0e-3)

    worst = 0.0
    for c_val in (0.0, 1.0, 4.0):
        for l in (0, 1, 2):
            for t in (0.5, 1.0, 2.0):
                probe = jcm.JcmConfig(alpha=jcfg.alpha if jcfg.alpha else 4.0,
                                      delta_omega=2.0 * math.sqrt(c_val))
                worst = max(worst, _origin_limit_residual(probe, l, t))
    report("correction integrand y->0 limits vs Richardson", worst, 1e-6)

    t_probe = 1.3
    pg = jcm.pg_series(t_probe, jcfg, cfg.series_spec())
    if jcfg.alpha != 0.0:
        q0i = jcm.q_g(0, t_probe, jcfg, "integral", cfg.series_spec(),
                      x_spec, y_spec, escalation=escalation)
        report("Q^(0) equals P_g (integral)", abs(q0i - pg), 1e-5)

    print(f"{'ALL CHECKS PASSED' if failures == 0 else f'{failures} CHECK(S) FAILED'}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _origin_limit_residual(cfg: jcm.JcmConfig, l: int, t: float) -> float:
    """Relative gap between the analytic y->0 limit and Richardson
    extrapolation of the directly sampled correction integrand."""
    analytic = jcm.correction_origin(cfg, l, abs(cfg.kappa) * t)
    h = 1e-4
    f1, f2, f3 = (jcm.correction_integrand_probe(cfg, l, t, y)
                  for y in (h, h / 2.0, h / 4.0))
    extrapolated = (f1 - 6.0 * f2 + 8.0 * f3) / 3.0
    return abs(extrapolated - analytic) / max(abs(analytic), 1e-30)


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    config = args.pop("config")
    try:
        # flags override the config file, which overrides the defaults
        cfg = RunConfig(**{**(_read_config_file(config) if config else {}), **args})
        handler = {"series": cmd_series, "integrals": cmd_integrals,
                   "thermal": cmd_thermal, "check": cmd_check}[cfg.command]
        return handler(cfg)
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
