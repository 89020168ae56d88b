"""The command-line surface: columns, exit codes, the parser."""

import collections
import dataclasses
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
    # a short run, then the benchmark's collapse grid: 101 banded rows
    for t_end, t_steps in (3.0, 6), (4.0 * math.pi, 100):
        rc = main(["integrals", "--alpha", "4", "--t-end", repr(t_end),
                   "--t-steps", str(t_steps), "--jobs", "1", "--out", str(out)])
        assert rc == 0
        _, header, cols = _read_csv(out)
        assert header == ["t", "J1", "J2", "sigma_z", "cancellation", "status"]
        pref = math.exp(-16.0)
        assembled = -0.5 * pref + cols["J1"] + cols["J2"]
        assert np.abs(assembled - cols["sigma_z"]).max() < 1e-15
        assert np.all(cols["status"] == 0)
    series = jc.sigma_z_series(cols["t"], jc.JcmConfig(alpha=4.0),
                               jc.SeriesSpec(200))
    assert np.abs(cols["sigma_z"] - series).max() <= 1.5e-14


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
    # a row outside [-1, 1] is noise at any cancellation: at alpha = 1e-300
    # the weight phase 2 y ln|alpha| is under-resolved (the series gives -1)
    rc = main(["integrals", "--alpha", "1e-300", "--t-end", "6.283185307179586",
               "--t-steps", "2", "--jobs", "1", "--out", str(out)])
    assert rc == 3
    _, _, cols = _read_csv(out)
    assert list(cols["status"]) == [2, 0, 2]
    assert np.all(np.abs(cols["sigma_z"][[0, 2]]) > 1.0 + 1e-9)


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
    chunk = cli._thermal_chunk((cfg, np.asarray(ts), cfg.specs()))
    assert calls == list(range(brackets))
    args = (np.asarray(ts), cfg.jcm_config(), cfg.thermal_config(), "integral",
            cfg.series_spec(), *cfg.specs())
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


def test_thermal_gamma_zero_p1_column(tmp_path):
    out = tmp_path / "g0.csv"
    assert main(["thermal", "--alpha", "4", "--gamma-tilde", "0",
                 "--theta", "0.025", "--t-end", "5.0", "--t-steps", "10",
                 "--jobs", "1", "--out", str(out)]) == 0
    _, _, cols = _read_csv(out)
    assert np.all(cols["P1"] == 0.0)


def test_deterministic_output(tmp_path):
    # the same settings write the same bytes, their flags before, after or
    # around the command
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    flags = ["--alpha", "2", "--t-end", "4.0", "--t-steps", "10", "--jobs", "1"]
    assert main(["integrals"] + flags + ["--out", str(a)]) == 0
    assert main(flags + ["--out", str(b), "integrals"]) == 0
    assert main(flags[:4] + ["integrals"] + flags[4:] + ["--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


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


@pytest.mark.parametrize("command", [["integrals"], ["thermal", "--mode", "integral"]])
def test_forked_workers_build_no_grid(tmp_path, monkeypatch, command):
    # on [0, 8 pi] the rows up to 4 pi take the coarse band and the late
    # ones escalate: the latest row of each band, run in this process
    # first, builds every family the workers need
    parent, build_grid = os.getpid(), jc.jcm.quadrature.build_grid
    builds = []

    def in_parent_only(a, b, spec):
        assert os.getpid() == parent, "a forked worker built a grid"
        builds.append((spec.step, spec.precision_kind))
        return build_grid(a, b, spec)

    monkeypatch.setattr(jc.jcm.quadrature, "build_grid", in_parent_only)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    out = tmp_path / "o.csv"
    assert main(command + ["--t-steps", "16", "--jobs", "2", "--out", str(out)]) == 0
    # a line and a correction family per band and bracket, one extended
    brackets = 1 if command == ["integrals"] else 3
    assert collections.Counter(builds) == {
        (0.01, "standard"): 2 * brackets, (0.0025, "standard"): 2 * brackets,
        (0.0025, "extended"): brackets}


@pytest.mark.parametrize("command", [["integrals"], ["thermal", "--mode", "integral"]])
def test_the_parent_first_runs_the_latest_row_of_each_planned_band(
        tmp_path, monkeypatch, command):
    name = "_thermal_chunk" if command[0] == "thermal" else "_integrals_chunk"
    chunk, first = getattr(cli, name), []

    def recording(payload):
        if not first:
            first.append(payload[1].copy())
        return chunk(payload)

    monkeypatch.setattr(cli, name, recording)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    out = tmp_path / "o.csv"
    assert main(command + ["--t-steps", "16", "--jobs", "2", "--out", str(out)]) == 0
    cfg = RunConfig(command=command[0], mode="integral", t_steps=16)
    x_spec, y_spec, _ = cfg.specs()
    t, jcfg = cfg.time_grid(), cfg.jcm_config()
    bands = jc.jcm._plan(jcfg, abs(jcfg.kappa) * t, x_spec, y_spec, jcfg.c)[1]
    assert len(bands) == 2  # the coarse rows up to 4 pi, then the fine ones
    assert np.array_equal(first[0], t[[rows[-1] for _, rows in bands]])


def test_pinned_steps_write_the_single_step_rows(tmp_path):
    # --dx/--dy at the default step pin every row to it; unset, they band
    # the rows and the header omits them, and the rows past 4 pi keep
    # their bytes
    args = ["integrals", "--t-end", "25.132741228718345", "--t-steps", "8",
            "--jobs", "1", "--out"]
    pinned, banded = tmp_path / "pinned.csv", tmp_path / "banded.csv"
    assert main(args + [str(pinned), "--dx", "0.0025", "--dy", "0.0025"]) == 0
    assert main(args + [str(banded)]) == 0
    meta, _, cols = _read_csv(pinned)
    assert meta["dx"] == meta["dy"] == "0.0025"
    # sigma_z at t = pi on the one default step
    assert cols["sigma_z"][1].hex() == "-0x1.e7eb49e5b7ed3p-8"
    banded_meta, _, banded_cols = _read_csv(banded)
    assert "dx" not in banded_meta and "dy" not in banded_meta
    early = cols["t"] <= 4.0 * math.pi
    assert np.abs(banded_cols["sigma_z"] - cols["sigma_z"])[early].max() <= 1e-13
    assert banded.read_text().splitlines()[-4:] == \
        pinned.read_text().splitlines()[-4:]


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
            # written whole, then renamed: the kill that follows the file's
            # appearance cannot land before the pid is in it
            tmp = pid_file.with_suffix(".tmp")
            tmp.write_text(str(os.getpid()))
            os.replace(tmp, pid_file)
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


def test_cli_import_freezes_the_imported_heap_and_keeps_the_gc_setting():
    # gc.get_objects() lists the objects the collector still walks
    enabled, frozen, walked = _fresh_python(
        "import gc, jcrevival.cli; "
        "print(gc.isenabled(), gc.get_freeze_count(), len(gc.get_objects()))"
    ).split()
    assert enabled == "True"
    assert int(frozen) >= 0.9 * (int(frozen) + int(walked))
    assert _fresh_python(
        "import gc; gc.disable(); import jcrevival.cli; print(gc.isenabled())"
    ) == "False"


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


def test_the_parser_takes_one_of_four_commands(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    usage = capsys.readouterr().out
    assert "{series,integrals,thermal,check}" in usage
    # one flag per setting, and no other
    assert [line.split()[0] for line in usage.split("options:")[1].splitlines()
            if line.startswith("  --")] == [
        "--" + field.name.replace("_", "-")
        for field in dataclasses.fields(RunConfig)][1:]
    # a missing, unknown or second command, a bad flag or a bad value is a
    # usage error; there is one quadrature rule, so --rule is no flag, the
    # settings are flags only, so --config is none either, and --theta is
    # the one spelling of theta
    for argv in ([], ["--alpha", "4"], ["simulate"], ["series", "check"],
                 ["series", "--rule", "bode"], ["series", "--no-such-flag"],
                 ["series", "--config", "x.cfg"],
                 ["thermal", "--beta-epsilon", "8"], ["series", "--alpha", "abc"],
                 ["series", "--t-steps", "1e1"],
                 ["series", "--precision", "turbo"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2, argv
        assert "error:" in capsys.readouterr().err


def test_a_unique_flag_prefix_is_its_flag(tmp_path):
    short, full = tmp_path / "short.csv", tmp_path / "full.csv"
    assert main(["series", "--alp", "2", "--t-ste", "3", "--out", str(short)]) == 0
    assert main(["series", "--alpha", "2", "--t-steps", "3",
                 "--out", str(full)]) == 0
    assert short.read_bytes() == full.read_bytes()


def test_invalid_params_exit2(capsys):
    assert main(["series", "--alpha", "4", "--t-steps", "0"]) == 2
    assert main(["series", "--t-start", "5", "--t-end", "1"]) == 2
    assert main(["series", "--t-start", "1", "--t-end", "1.0000000000000002",
                 "--t-steps", "4"]) == 2
    assert main(["series", "--alpha", "4", "--kappa", "0"]) == 2
    # the default x_max = 100 does not cover the Poisson tail at alpha = 8
    assert main(["integrals", "--alpha", "8", "--t-steps", "1",
                 "--jobs", "1"]) == 2
    # --jobs is checked for every command, not only those that deal rows
    assert main(["integrals", "--t-steps", "1", "--jobs", "-1"]) == 2
    assert main(["series", "--alpha", "4", "--t-steps", "2", "--jobs", "-1"]) == 2
    assert main(["check", "--alpha", "4", "--jobs", "-3"]) == 2
    # alpha^2 and c = (delta_omega / 2 kappa)^2 overflow a double
    for command in ("series", "integrals"):
        for flag in ("--alpha", "--delta-omega"):
            assert main([command, flag, "1e200", "--t-steps", "1",
                         "--jobs", "1"]) == 2
    capsys.readouterr()
    # the line integrals at alpha = 27 pass the largest double: refused
    # before a weight is computed; the series, which takes none, holds
    wide = ["--alpha", "27", "--n-max", "2000", "--x-max", "2000",
            "--t-steps", "3", "--t-end", "6", "--jobs", "1"]
    assert main(["integrals"] + wide) == 2
    assert capsys.readouterr().err == (
        "error: alpha = 27.0 takes the line integral past the double range: "
        "the integral form holds |alpha| <= 26.6157; use the series form\n")
    assert main(["series", "--out", os.devnull] + wide) == 0
    # so does gamma_tilde^2, which every command refuses by its name
    for command in ("series", "integrals", "thermal", "check"):
        assert main([command, "--gamma-tilde", "1e200", "--t-steps", "2",
                     "--jobs", "1"]) == 2, command
        assert "error: gamma_tilde is out of range" in capsys.readouterr().err
    # 1e154 squares to a double, but 4 alpha^2 (4 gamma_tilde^2 + 1) in P2
    # overflows: refused by every command, as above, before a row is built
    for command in ("series", "integrals", "thermal", "check"):
        assert main([command, "--gamma-tilde", "1e154", "--mode", "series",
                     "--t-steps", "2", "--jobs", "1"]) == 2, command
        assert capsys.readouterr().err == ("error: alpha = 4.0 and gamma_tilde = "
                                           "1e+154 overflow the coefficients of P2\n")
    # the Poisson tail bound prints in four digits, however large alpha is
    for alpha, need in (("8", "144.6"), ("1e150", "1e+300")):
        assert main(["series", "--alpha", alpha, "--t-steps", "2"]) == 2
        err = capsys.readouterr().err
        assert f"(need >= {need}); raise n_max" in err and len(err) < 120, err
    # every setting is checked whatever the command, with the message of
    # the command that uses it; a flag given twice takes its last value
    short = ["--t-end", "1", "--t-steps", "1", "--jobs", "1"]
    for argv, message in (
            (["integrals", "--n-max", "-3"], "n_max must lie in [0, 2^20]"),
            (["integrals", "--theta", "-1"], "theta must lie in [0, 1)"),
            (["series", "--dx", "-1"], "step must be positive and finite"),
            (["series", "--x-max", "nan"], "upper_limit must be positive and finite"),
            (["series", "--theta", "1.5"], "theta must lie in [0, 1)"),
            (["series", "--gamma-tilde", "nan"], "gamma_tilde must be finite"),
            (["check", "--t-steps", "0"], "t_steps must be >= 1"),
            (["check", "--t-start", "2", "--t-end", "1"],
             "t_start must not exceed t_end")):
        assert main(argv[:1] + short + argv[1:]) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv


def test_an_aliased_late_row_is_refused_before_its_grid(capsys, no_large_grids):
    # T = 1e6 would widen y_max to about 9e10: 1.2e8 nodes per array
    late = ["--t-start", "1e6", "--t-end", "1e6", "--t-steps", "1"]
    for command in (["integrals", "--alpha", "4"],
                    ["integrals", "--alpha", "4", "--delta-omega", "4"],
                    ["thermal", "--mode", "integral"]):
        for jobs in ("1", "2"):
            assert main(command + late + ["--jobs", jobs]) == 2
            assert "aliased at any y_max" in capsys.readouterr().err
    # a series run integrates nothing in y, so it has nothing to refuse
    assert main(["thermal", "--mode", "series", "--jobs", "1"] + late) == 0
    # past T of about 1.3e154 the peak overflows: aliased, not a numerical failure
    for argv in (["integrals", "--alpha", "4", "--t-end", "1e300", "--t-steps", "2"],
                 ["integrals", "--alpha", "4", "--kappa", "1e300", "--t-end", "3",
                  "--t-steps", "2"]):
        assert main(argv) == 2
        assert "aliased at any y_max" in capsys.readouterr().err


def test_a_grid_past_the_ceiling_is_refused_before_it_is_built(capsys,
                                                               no_large_grids):
    # a wide --y-max skips the widening, and its aliasing refusal, entirely
    for argv, flag in (
            (["--t-start", "1e6", "--t-end", "1e6", "--y-max", "9.1e10"], "--y-max"),
            (["--dx", "1e-8", "--t-end", "1"], "--dx")):
        assert main(["integrals", "--alpha", "4", "--t-steps", "1",
                     "--jobs", "1"] + argv) == 2
        assert flag in capsys.readouterr().err
    # n_max sizes the series' (rows x terms) arrays the same way
    assert main(["series", "--alpha", "4", "--t-start", "3", "--t-end", "3",
                 "--t-steps", "1", "--n-max", str(2 ** 20 + 1)]) == 2
    assert "n_max must lie in [0, 2^20]" in capsys.readouterr().err
    # the README's fine grids (100,001 nodes an axis) stay accepted
    assert main(["integrals", "--alpha", "4", "--dx", "1e-4", "--dy", "1e-4",
                 "--t-end", "1", "--t-steps", "1", "--jobs", "1"]) == 0


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
    # the series and the assembled sigma_z agree to 1e-9 at any alpha
    assert main(["check", "--alpha", "2"]) == 0
    assert "ALL CHECKS PASSED" in capsys.readouterr().out


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
                        recorder({"sigma_z": np.zeros(201)}))
    monkeypatch.setattr(jc.jcm, "q_g", recorder(0.0))
    main(["check", "--precision", "extended"])
    # each call takes (x spec, y spec); the kind is the correction's
    assert [s.precision_kind for s in specs] == \
        ["standard", "extended"] * (4 + 1 + 1)


def test_extended_precision_builds_no_extended_x_grid(monkeypatch, capsys):
    # each grid is built by _sqrt_grid, whose axis names it
    calls = []
    sqrt_grid = jc.jcm._sqrt_grid

    def counting(spec, axis):
        calls.append((axis, spec.precision_kind))
        return sqrt_grid(spec, axis)

    monkeypatch.setattr(jc.jcm, "_sqrt_grid", counting)
    for argv in (["integrals", "--alpha", "4", "--precision", "extended",
                  "--t-end", "3", "--t-steps", "2", "--jobs", "1"],
                 ["check", "--alpha", "4", "--precision", "extended"]):
        calls.clear()
        jc.jcm._family.cache_clear()
        assert main(argv) == 0
        counts = collections.Counter(calls)
        assert counts[("x", "extended")] == 0, argv
        assert counts[("x", "standard")] >= 1, argv
        assert counts[("y", "extended")] >= 1, argv
    capsys.readouterr()


def test_check_fails_on_coarse_grid(capsys):
    rc = main(["check", "--dx", "0.5", "--dy", "0.5"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
    # an x step of 0.05 moves sigma_z by 1.7e-4, which only the
    # series-vs-sigma_z item catches
    assert main(["check", "--dx", "0.05"]) == 1
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
            if line.startswith("FAIL")] == [
        "FAIL  collapse-window residual |sigma_series - sigma_z|, t in [0, 4pi]"]


def test_public_names_resolve():
    # a name left in __all__ after its object is deleted breaks only
    # `from jcrevival import *`
    assert len(jc.__all__) == len(set(jc.__all__))
    assert [name for name in jc.__all__ if not hasattr(jc, name)] == []
