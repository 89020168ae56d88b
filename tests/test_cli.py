"""The command-line surface: columns, exit codes, config handling."""

import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import jcrevival as jc
from jcrevival import cli
from jcrevival.cli import RunConfig, main
from jcrevival.errors import PrecisionLossError


def _read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(v) for v in line.split(",")])
    data = np.asarray(rows)
    return meta, header, {name: data[:, i] for i, name in enumerate(header)}


def test_series_reproduces_library_values(tmp_path):
    out = tmp_path / "series.csv"
    rc = main(["series", "--alpha", "4", "--t-end", "62.83",
               "--t-steps", "4000", "--out", str(out)])
    assert rc == 0
    meta, header, cols = _read_csv(out)
    assert header == ["t", "sigma_z_series", "envelope"]
    assert len(cols["t"]) == 4001
    assert meta["alpha"] == "4.0"
    cfg = jc.JcmConfig(alpha=4.0)
    i = 1234
    want = jc.sigma_z_series(cols["t"][i], cfg, jc.SeriesSpec(100))
    assert cols["sigma_z_series"][i] == pytest.approx(want, abs=1e-15)


def test_series_alpha_zero_constant(tmp_path):
    out = tmp_path / "a0.csv"
    assert main(["series", "--alpha", "0", "--t-steps", "10",
                 "--out", str(out)]) == 0
    _, header, cols = _read_csv(out)
    assert header == ["t", "sigma_z_series"]  # no envelope at alpha = 0
    assert np.abs(cols["sigma_z_series"] + 1.0).max() < 1e-12


def test_series_truncation_indifference(tmp_path):
    outs = []
    for n in (50, 100):
        out = tmp_path / f"n{n}.csv"
        assert main(["series", "--alpha", "2", "--n-max", str(n),
                     "--t-steps", "50", "--out", str(out)]) == 0
        outs.append(_read_csv(out)[2]["sigma_z_series"])
    assert np.abs(outs[0] - outs[1]).max() < 1e-12


def test_integrals_resonant_columns_and_assembly(tmp_path):
    out = tmp_path / "ints.csv"
    rc = main(["integrals", "--alpha", "4", "--t-end", "3.0",
               "--t-steps", "6", "--jobs", "1", "--out", str(out)])
    assert rc == 0
    _, header, cols = _read_csv(out)
    assert header == ["t", "J1", "J2", "sigma_z", "cancellation", "status"]
    pref = math.exp(-16.0)
    assembled = -0.5 * pref + cols["J1"] + cols["J2"]
    assert np.abs(assembled - cols["sigma_z"]).max() < 1e-15
    assert np.all(cols["status"] == 0)


def test_integrals_single_point_at_zero(tmp_path):
    out = tmp_path / "one.csv"
    rc = main(["integrals", "--alpha", "4", "--t-start", "0", "--t-end", "0",
               "--t-steps", "1", "--jobs", "1", "--out", str(out)])
    assert rc == 0
    _, _, cols = _read_csv(out)
    assert cols["sigma_z"][0] == pytest.approx(-1.0, abs=1e-6)


def test_integrals_detuned_plateau(tmp_path):
    out = tmp_path / "det.csv"
    rc = main(["integrals", "--alpha", "4", "--delta-omega", "4",
               "--t-start", "6.3", "--t-end", "15.7", "--t-steps", "8",
               "--jobs", "1", "--out", str(out)])
    assert rc == 0
    _, header, cols = _read_csv(out)
    assert header == ["t", "I1", "I2", "sigma_z", "cancellation", "status"]
    collapsed = 1.0 - 2.0 * math.exp(-16.0) * cols["I1"]
    assert np.abs(collapsed + 0.2086).max() < 1e-2


def test_integrals_standard_precision_loss_exit3(tmp_path):
    out = tmp_path / "loss.csv"
    rc = main(["integrals", "--alpha", "4", "--precision", "standard",
               "--t-start", "25.13", "--t-end", "25.13", "--t-steps", "1",
               "--jobs", "1", "--out", str(out)])
    assert rc == 3
    _, _, cols = _read_csv(out)
    assert cols["status"][0] == 2  # marked, not silently blank


@pytest.mark.parametrize("precision", ["standard", "extended"])
def test_thermal_refuses_over_budget_rows(tmp_path, capsys, precision):
    # the thermal CSV has no status column, so a row past the budget of the
    # requested kind must stop the run instead of being written as a number
    out = tmp_path / "loss.csv"
    t = "25.13" if precision == "standard" else "28.5"
    rc = main(["thermal", "--mode", "integral", "--precision", precision,
               "--t-start", t, "--t-end", t, "--t-steps", "1",
               "--dx", "1e-2", "--dy", "1e-2", "--jobs", "1", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert (f"exceeds the {precision} precision budget"
            in capsys.readouterr().err)


def test_non_finite_integrand_exit3(tmp_path, capsys):
    # IntegrandError subclasses ValueError but is a numerical failure
    rc = main(["integrals", "--alpha", "4", "--precision", "standard",
               "--t-start", "100", "--t-end", "100", "--t-steps", "1",
               "--dx", "1e-2", "--dy", "1e-2", "--jobs", "1",
               "--out", str(tmp_path / "nan.csv")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: integrand is not finite at x = 40.905")


def test_integrals_escalates_the_row_at_6_56pi(tmp_path):
    # past a cancellation of 1e10 the standard kind's rounding noise reaches
    # 1e-4 in sigma_z at this row; it must escalate and match the series
    t = repr(41.0 / 50.0 * 8.0 * math.pi)
    out = tmp_path / "noise.csv"
    rc = main(["integrals", "--alpha", "4", "--t-start", t, "--t-end", t,
               "--t-steps", "1", "--jobs", "1", "--out", str(out)])
    assert rc == 0
    _, _, cols = _read_csv(out)
    assert cols["status"][0] == 1
    want = jc.sigma_z_series(cols["t"][0], jc.JcmConfig(alpha=4.0),
                             jc.SeriesSpec(200))
    assert abs(cols["sigma_z"][0] - want) <= 1e-9


def test_integrals_auto_escalates(tmp_path):
    out = tmp_path / "auto.csv"
    rc = main(["integrals", "--alpha", "4", "--precision", "auto",
               "--t-start", "21.99", "--t-end", "21.99", "--t-steps", "1",
               "--jobs", "1", "--out", str(out)])
    assert rc == 0
    _, _, cols = _read_csv(out)
    assert cols["status"][0] == 1  # escalated row
    cfg = jc.JcmConfig(alpha=4.0)
    want = jc.sigma_z_series(21.99, cfg, jc.SeriesSpec(200))
    assert cols["sigma_z"][0] == pytest.approx(want, abs=1e-6)


def test_thermal_columns_and_limits(tmp_path):
    out = tmp_path / "th.csv"
    rc = main(["thermal", "--alpha", "4", "--gamma-tilde", "1",
               "--theta", "0.025", "--t-end", "6.0", "--t-steps", "12",
               "--jobs", "1", "--out", str(out)])
    assert rc == 0
    _, header, cols = _read_csv(out)
    assert header == ["t", "P1", "P2", "pg_thermal", "sigma_z_thermal"]
    assert np.abs(cols["sigma_z_thermal"]
                  - (1.0 - 2.0 * cols["pg_thermal"])).max() < 1e-15
    assert cols["P1"][0] == pytest.approx(0.0, abs=1e-10)
    assert cols["P2"][0] == pytest.approx(-36.0, abs=1e-9)


def test_thermal_theta_zero_equals_series(tmp_path):
    out = tmp_path / "th0.csv"
    assert main(["thermal", "--alpha", "4", "--theta", "0",
                 "--gamma-tilde", "1", "--t-end", "5.0", "--t-steps", "20",
                 "--jobs", "1", "--out", str(out)]) == 0
    _, _, cols = _read_csv(out)
    cfg = jc.JcmConfig(alpha=4.0)
    want = jc.pg_series(cols["t"], cfg, jc.SeriesSpec(100))
    assert np.abs(cols["pg_thermal"] - want).max() == 0.0


def test_thermal_integral_mode_matches_series_mode(tmp_path):
    a, b = tmp_path / "ser.csv", tmp_path / "int.csv"
    common = ["thermal", "--alpha", "4", "--gamma-tilde", "1",
              "--theta", "0.025", "--t-end", "3.0", "--t-steps", "4",
              "--jobs", "2"]
    assert main(common + ["--mode", "series", "--out", str(a)]) == 0
    assert main(common + ["--mode", "integral", "--out", str(b)]) == 0
    _, _, ca = _read_csv(a)
    _, _, cb = _read_csv(b)
    for col in ("P1", "P2", "pg_thermal"):
        assert np.abs(ca[col] - cb[col]).max() < 1e-5


@pytest.mark.parametrize("gamma_tilde, brackets", [(1.0, 3), (0.0, 2)])
def test_thermal_chunk_evaluates_each_bracket_once(gamma_tilde, brackets,
                                                   monkeypatch):
    cfg = RunConfig(command="thermal", mode="integral", delta_omega=4.0,
                    gamma_tilde=gamma_tilde, dx=1e-2, dy=1e-2)
    ts = [0.0, 1.5, 3.0]
    q_g = jc.jcm.q_g
    calls = []

    def counting(l, *args, **kwargs):
        calls.append(l)
        return q_g(l, *args, **kwargs)

    monkeypatch.setattr(jc.jcm, "q_g", counting)
    chunk = cli._thermal_chunk({"cfg": cfg, "t": ts})
    assert calls == list(range(brackets))
    kind, escalation = cfg.precision_plan()
    args = (np.asarray(ts), cfg.jcm_config(), cfg.thermal_config(), "integral",
            cfg.series_spec(), cfg.x_spec(kind), cfg.y_spec(kind), escalation)
    assert np.array_equal(chunk["P1"], jc.p1_correction(*args))
    assert np.array_equal(chunk["P2"], jc.p2_correction(*args))
    assert np.array_equal(chunk["pg_thermal"], jc.pg_thermal(*args))


def test_thermal_reports_breakdown_rows(tmp_path, capsys):
    out = tmp_path / "break.csv"
    rc = main(["thermal", "--alpha", "4", "--theta", "0.5",
               "--gamma-tilde", "1", "--t-end", "6", "--t-steps", "6",
               "--jobs", "1", "--out", str(out)])
    assert rc == 0
    _, _, cols = _read_csv(out)
    assert cols["pg_thermal"][0] == pytest.approx(-3.5)
    assert "thermal P_g left [0, 1] on 7 of 7 rows" in capsys.readouterr().err


def test_thermal_beta_epsilon_sets_theta(tmp_path):
    a, b = tmp_path / "be.csv", tmp_path / "th.csv"
    theta = math.atanh(math.exp(-4.0))
    common = ["thermal", "--alpha", "4", "--gamma-tilde", "1",
              "--t-end", "3.0", "--t-steps", "5", "--jobs", "1"]
    # beta_epsilon wins over theta, and the header records the theta used
    assert main(common + ["--beta-epsilon", "8", "--theta", "0.3",
                          "--out", str(a)]) == 0
    assert main(common + ["--theta", repr(theta), "--out", str(b)]) == 0
    ma, _, ca = _read_csv(a)
    mb, _, cb = _read_csv(b)
    assert np.array_equal(ca["pg_thermal"], cb["pg_thermal"])
    assert ma["theta"] == mb["theta"] == repr(theta)


def test_thermal_gamma_zero_p1_column(tmp_path):
    out = tmp_path / "g0.csv"
    assert main(["thermal", "--alpha", "4", "--gamma-tilde", "0",
                 "--theta", "0.025", "--t-end", "5.0", "--t-steps", "10",
                 "--jobs", "1", "--out", str(out)]) == 0
    _, _, cols = _read_csv(out)
    assert np.all(cols["P1"] == 0.0)


def test_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["integrals", "--alpha", "2", "--t-end", "4.0", "--t-steps", "10",
            "--jobs", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_jobs_parallelism_matches_serial(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)  # fork 2 workers
    # the second run's last rows need a y grid wider than --y-max, and
    # every chunk must integrate on that same grid; the third run's late
    # rows escalate, so its status column is dealt and scattered too; the
    # series sums must not round by the size of a chunk; two rows run in
    # this process alone, three fork one worker at --jobs 3
    escalating = ["integrals", "--alpha", "4", "--t-start", "18.0",
                  "--t-end", "21.0", "--t-steps", "9"]
    for args in (["integrals", "--alpha", "2", "--t-end", "6.0", "--t-steps", "12"],
                 ["integrals", "--alpha", "4", "--y-max", "20",
                  "--t-end", "18.85", "--t-steps", "8"],
                 escalating,
                 ["thermal", "--mode", "integral", "--delta-omega", "4",
                  "--dx", "1e-2", "--dy", "1e-2", "--t-end", "6.0",
                  "--t-steps", "5"],
                 ["thermal", "--theta", "0", "--mode", "series",
                  "--t-start", "0.3", "--t-end", "3.0", "--t-steps", "2"],
                 ["thermal", "--mode", "series", "--t-end", "20.0",
                  "--t-steps", "40"],
                 ["integrals", "--alpha", "4", "--t-start", "20.0",
                  "--t-end", "21.0", "--t-steps", "1"],
                 ["integrals", "--alpha", "4", "--t-start", "19.0",
                  "--t-end", "21.0", "--t-steps", "2"]):
        assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
        for jobs in ("2", "3"):
            assert main(args + ["--jobs", jobs, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), (args, jobs)
        if args is escalating:
            status = _read_csv(b)[2]["status"]
            assert 0 in status and 1 in status


def _in_workers(monkeypatch, action):
    """Make cli._integrals_chunk call action(payload) in forked workers
    only; this process computes its chunks as usual."""
    parent, chunk = os.getpid(), cli._integrals_chunk
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_integrals_chunk", lambda payload: (
        chunk(payload) if os.getpid() == parent else action(payload)))


_THREE_ROWS = ["integrals", "--alpha", "4", "--t-end", "2.0", "--t-steps", "2"]


def test_an_error_in_a_worker_is_raised_in_the_parent(tmp_path, monkeypatch,
                                                      capsys):
    def fail(payload):
        raise PrecisionLossError("worker row over budget",
                                 cancellation_magnitude=1e11)

    _in_workers(monkeypatch, fail)
    out = tmp_path / "o.csv"
    assert main(_THREE_ROWS + ["--jobs", "2", "--out", str(out)]) == 3
    assert capsys.readouterr().err == \
        "numerical failure: worker row over budget\n"
    assert not out.exists()


def _assert_gone(pid_file: Path):
    """The worker that wrote pid_file has been reaped, not left a zombie."""
    pid = int(pid_file.read_text())
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    return pid


def test_a_worker_that_dies_unreported_is_a_clean_error(tmp_path, monkeypatch,
                                                        capsys):
    pid_file = tmp_path / "pid"

    def die(payload):
        pid_file.write_text(str(os.getpid()))
        os._exit(7)

    _in_workers(monkeypatch, die)
    assert main(_THREE_ROWS + ["--jobs", "2", "--out", str(tmp_path / "o.csv")]) == 2
    pid = _assert_gone(pid_file)
    assert capsys.readouterr().err == (f"error: worker process {pid} ended "
                                       "(status 7) without reporting its rows\n")


def test_a_failing_parent_stops_and_reaps_its_workers(tmp_path, monkeypatch,
                                                      capsys):
    pid_file = tmp_path / "pid"
    parent, chunk = os.getpid(), cli._integrals_chunk
    calls = []

    def parent_fails_second(payload):
        if os.getpid() != parent:
            pid_file.write_text(str(os.getpid()))
            time.sleep(60)
        calls.append(payload)
        if len(calls) == 1:
            return chunk(payload)
        deadline = time.perf_counter() + 30.0
        while not pid_file.exists():  # until the worker is running
            assert time.perf_counter() < deadline
            time.sleep(0.01)
        raise FloatingPointError("parent chunk failed")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_integrals_chunk", parent_fails_second)
    start = time.perf_counter()
    assert main(_THREE_ROWS + ["--jobs", "2", "--out", str(tmp_path / "o.csv")]) == 3
    assert time.perf_counter() - start < 30.0
    _assert_gone(pid_file)
    assert "parent chunk failed" in capsys.readouterr().err


def test_forked_run_writes_stdout_once(tmp_path):
    # text this process left buffered is written once, before the CSV
    out = tmp_path / "o.csv"
    assert main(_THREE_ROWS + ["--jobs", "1", "--out", str(out)]) == 0
    src = str(Path(jc.__file__).resolve().parents[1])
    code = ("import os; os.cpu_count = lambda: 2\n"
            "from jcrevival.cli import main\n"
            "print('before')\n"
            f"raise SystemExit(main({_THREE_ROWS + ['--jobs', '2']!r}))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == b"before\n" + out.read_bytes()


def _fresh_python(code: str, **env) -> str:
    """Stripped stdout of code run in a new interpreter, so no other test's
    imports count; OPENBLAS_NUM_THREADS is unset unless env gives it."""
    src = str(Path(jc.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    run = subprocess.run([sys.executable, "-c", code],
                         env={**base, "PYTHONPATH": src, **env},
                         capture_output=True, text=True, check=True, timeout=60)
    return run.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _fresh_python(
        "import sys, jcrevival.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])") == "[]"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs Linux's per-thread /proc entries")
def test_cli_import_starts_one_thread():
    # numpy's OpenBLAS would start one thread per core at import
    assert _fresh_python(
        "import os, jcrevival.cli; print(len(os.listdir('/proc/self/task')))") == "1"


def test_package_import_loads_no_numpy_and_sets_no_environment():
    assert _fresh_python(
        "import os, sys, jcrevival; "
        "print('numpy' in sys.modules, "
        "[m for m in sys.modules if m.startswith('jcrevival.')], "
        "'OPENBLAS_NUM_THREADS' in os.environ)") == "False [] False"


def test_cli_keeps_a_user_blas_thread_setting():
    assert _fresh_python(
        "import os, jcrevival.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
        OPENBLAS_NUM_THREADS="2") == "2"


def test_serial_run_imports_no_process_pool(tmp_path):
    # neither does a run that forks its workers
    out = tmp_path / "one.csv"
    for t_steps, jobs in (("1", "1"), ("2", "2")):
        assert _fresh_python(
            "import os, sys; os.cpu_count = lambda: 2\n"
            "from jcrevival.cli import main\n"
            "rc = main(['integrals', '--t-start', '0', '--t-end', '1', "
            f"'--t-steps', {t_steps!r}, '--jobs', {jobs!r}, '--out', {str(out)!r}])\n"
            "print(rc, [m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules])") == "0 []"
        assert out.is_file()


def test_star_import_binds_every_public_name():
    assert _fresh_python(
        "import jcrevival; missing = set(jcrevival.__all__) - set(dir(jcrevival)); "
        "ns = {}; exec('from jcrevival import *', ns); "
        "print(sorted(missing | (set(jcrevival.__all__) - set(ns))))") == "[]"


def test_effective_jobs_is_capped_at_the_core_count(monkeypatch):
    # computes the worker count only: no process is started
    def jobs(requested, rows):
        return cli._effective_jobs(RunConfig(command="integrals", jobs=requested),
                                   rows)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert jobs(4000, 4000) == 2
    assert jobs(0, 4000) == 2  # 0 means all cores
    assert (jobs(1, 4000), jobs(3, 1), jobs(0, 1)) == (1, 1, 1)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert (jobs(0, 10), jobs(8, 10)) == (1, 1)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.delattr(cli.os, "fork")  # a platform without fork runs serially
    assert (jobs(0, 10), jobs(8, 10)) == (1, 1)
    with pytest.raises(ValueError, match="jobs must be >= 0"):
        jobs(-1, 10)


def test_config_file_merging_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("alpha = 2.0\nt_steps = 5\nt-end = 3.0  # comment\n")
    out = tmp_path / "o.csv"
    assert main(["series", "--config", str(cfgfile), "--t-steps", "3",
                 "--out", str(out)]) == 0
    meta, _, cols = _read_csv(out)
    assert meta["alpha"] == "2.0"
    assert len(cols["t"]) == 4  # flag overrode the file
    assert cols["t"][-1] == 3.0
    # a config file writes the bytes of the same settings given as flags
    cfgfile.write_text("alpha = 4\nt_steps = 10\nrule = 'bode'\n")
    common = ["integrals", "--t-end", "3", "--dx", "1e-2", "--dy", "1e-2",
              "--jobs", "1", "--out"]
    flagged = tmp_path / "flags.csv"
    assert main(common + [str(out), "--config", str(cfgfile)]) == 0
    assert main(common + [str(flagged), "--alpha", "4", "--t-steps", "10",
                          "--rule", "bode"]) == 0
    assert out.read_bytes() == flagged.read_bytes()


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    # a config value is parsed and checked as its flag is
    cfgfile = tmp_path / "bad.cfg"
    for line in ("not_a_key = 1", "alpha = abc", "t_steps = 1e1",
                 "rule = trapezoid", "precision = turbo", "out = x.csv",
                 "command = series"):
        cfgfile.write_text(line + "\n")
        for command in ("series", "check"):
            assert main([command, "--config", str(cfgfile)]) == 2, line
            assert capsys.readouterr().err.startswith(f"error: {cfgfile}:1: ")


def test_invalid_params_exit2():
    assert main(["series", "--alpha", "4", "--t-steps", "0"]) == 2
    assert main(["series", "--t-start", "5", "--t-end", "1"]) == 2
    assert main(["series", "--t-start", "1", "--t-end", "1.0000000000000002",
                 "--t-steps", "4"]) == 2
    assert main(["series", "--alpha", "4", "--kappa", "0"]) == 2
    # the default x_max = 100 does not cover the Poisson tail at alpha = 8
    assert main(["integrals", "--alpha", "8", "--t-steps", "1",
                 "--jobs", "1"]) == 2
    assert main(["integrals", "--t-steps", "1", "--jobs", "-1"]) == 2
    # beta_epsilon is checked for every subcommand, not only thermal
    assert main(["series", "--beta-epsilon", "0", "--t-steps", "1"]) == 2
    assert main(["thermal", "--beta-epsilon", "1e-20", "--t-steps", "1",
                 "--jobs", "1"]) == 2
    # alpha^2 and c = (delta_omega / 2 kappa)^2 overflow a double
    for command in ("series", "integrals"):
        for flag in ("--alpha", "--delta-omega"):
            assert main([command, flag, "1e200", "--t-steps", "1",
                         "--jobs", "1"]) == 2


def test_out_of_memory_is_usage_error(capsys, monkeypatch):
    # a grid too fine to allocate is the user's input, not a failed check (1)
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(jc.jcm, "resonant_profile", out_of_memory)
    assert main(["integrals", "--t-steps", "2", "--t-end", "1",
                 "--jobs", "1"]) == 2
    assert "error: Unable to allocate" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--x-max", "--y-max"])
def test_non_finite_upper_limit_is_usage_error(capsys, flag):
    assert main(["integrals", flag, "inf", "--t-steps", "1", "--t-end", "0",
                 "--jobs", "1"]) == 2
    assert "upper_limit must be positive and finite" in capsys.readouterr().err


def _main_recording_runtime_warnings(argv):
    """main's exit code and the RuntimeWarnings raised while it ran."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_gamma_tilde_is_usage_error(capsys, value):
    rc, warned = _main_recording_runtime_warnings(
        ["thermal", "--gamma-tilde", value, "--t-steps", "2", "--jobs", "1"])
    assert (rc, warned) == (2, [])
    assert "error: gamma_tilde must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag, name", [("--t-end=inf", "t_end"),
                                        ("--t-start=-inf", "t_start")])
def test_non_finite_time_bound_is_usage_error(capsys, flag, name):
    rc, warned = _main_recording_runtime_warnings(["series", flag, "--t-steps", "2"])
    assert (rc, warned) == (2, [])
    assert f"error: {name} must be finite" in capsys.readouterr().err


def test_check_passes_on_defaults(capsys):
    rc = main(["check", "--alpha", "4", "--t-steps", "200"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ALL CHECKS PASSED" in out
    assert out.count("PASS") >= 8


def test_check_runs_in_the_kind_of_precision(monkeypatch):
    specs = []

    def recorder(canned):
        def record(*args, **kwargs):
            specs.extend(a for a in (*args, *kwargs.values())
                         if isinstance(a, jc.QuadratureSpec))
            return canned
        return record

    monkeypatch.setattr(jc.jcm, "abel_plana_identity", recorder((1.0, 1.0)))
    monkeypatch.setattr(jc.jcm, "resonant_profile",
                        recorder({"J1": np.zeros(201)}))
    monkeypatch.setattr(jc.jcm, "q_g", recorder(0.0))
    main(["check", "--precision", "extended"])
    assert len(specs) == 2 * (4 + 1 + 1)
    assert all(s.precision_kind == "extended" for s in specs)


def test_check_fails_on_coarse_grid(capsys):
    rc = main(["check", "--dx", "0.5", "--dy", "0.5"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_public_names_resolve():
    # a name left in __all__ after its object is deleted breaks only
    # `from jcrevival import *`
    assert len(jc.__all__) == len(set(jc.__all__))
    assert [name for name in jc.__all__ if not hasattr(jc, name)] == []
