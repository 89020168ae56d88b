"""Reduced runs of every command write the bytes recorded here.

At a fixed spec the CSV bytes stay the same.  Each run below takes one
path: resonant rows that escalate, rows on a widened y grid, detuned rows,
the thermal corrections by integral (resonant and detuned) and by series,
the series, and the extended kind from the start; the benchmark's three
windows run at full size.  A change that moves one bit of any column on
any of them fails here, at --jobs 1 and at --jobs 2.  A change that moves
bits on purpose updates the table in the same commit and gives each moved
digest's measured maximum deviation in CHANGES.md.
"""

import hashlib
import math

import pytest

from jcrevival import cli
from jcrevival.cli import main

T_4PI, T_8PI = repr(4.0 * math.pi), repr(8.0 * math.pi)

# name -> (argv, sha256 of its CSV)
RUNS = {
    "integrals, escalating": (
        ["integrals", "--t-start", "15.0", "--t-end", T_8PI, "--t-steps", "16"],
        "5ee40668ad17fa9424260179aa34017b59c8b2ec9d299b071c41e4e035e36377"),
    # the last rows widen the y grid past --y-max (jcm._peak_aware)
    "integrals, widened y": (
        ["integrals", "--alpha", "4", "--y-max", "20", "--t-end", "18.85",
         "--t-steps", "8"],
        "98f9b17bc27f8006cd81efa0ca168fe3653a2f1a7a5ffd9084a792ef3e6ff2b1"),
    "integrals, detuned": (
        ["integrals", "--delta-omega", "4", "--t-end", "12.0", "--t-steps", "24"],
        "48cd44735dcc83732c53c526fa43ad4bb984b747bae7fde9f16029310165527f"),
    "integrals, extended": (
        ["integrals", "--precision", "extended", "--t-start", "18.0",
         "--t-end", "21.0", "--t-steps", "3"],
        "afd9776ac2b9387db22e6179b2eb488b60bdca9892519af68b2db1e7d8583daa"),
    "thermal, integral": (
        ["thermal", "--mode", "integral", "--t-end", T_8PI, "--t-steps", "16"],
        "7d445126510157d37d168b33bc12b5cfbc26bd5edcbad2b8acf880f508f3220e"),
    "thermal, integral, detuned": (
        ["thermal", "--mode", "integral", "--delta-omega", "4", "--t-end", "9.0",
         "--t-steps", "9"],
        "d9c2ffb1242906b05a1a5108efb7a247a73ea5f642256223e01a9b0b679420c8"),
    "thermal, series": (
        ["thermal", "--mode", "series", "--t-steps", "40"],
        "81aa359eec51ba569d87779c81bc8764f7b9c58423dfaba0f73098285a223730"),
    # theta = atanh(e^{-4}), the theta of beta epsilon = 8
    "thermal, beta epsilon 8": (
        ["thermal", "--theta", "0.01831768737184815", "--t-end", "6.0",
         "--t-steps", "12"],
        "74445cd4cc85cf4c0b3b27cf7271cd16619645010a895b864ed6734a58758903"),
    "series": (
        ["series", "--t-steps", "40"],
        "951e55db5b9aa71ca64e966210b3ca1a61bdc1a90fb6792a0c34a539a46717be"),
    # the benchmark's three windows at t_start = 0 (bench/run.py), whose
    # rows' rounding sets its sigma_err_max
    "bench collapse": (
        ["integrals", "--alpha", "4.0", "--precision", "auto", "--t-start", "0.0",
         "--t-end", T_4PI, "--t-steps", "100"],
        "216073effbc11dc939a4511d58764696c119b4130b6a4dcc9219f50b6c4a3d14"),
    "bench revival": (
        ["integrals", "--alpha", "4.0", "--precision", "auto", "--t-start", "0.0",
         "--t-end", T_8PI, "--t-steps", "50"],
        "283ee9f0b1d687e5e6ff0d92b394ef4286abcf01432071203b7025ee661a97ce"),
    "bench thermal": (
        ["thermal", "--alpha", "4.0", "--delta-omega", "4.0", "--gamma-tilde", "1.0",
         "--theta", "0.025", "--mode", "integral", "--t-start", "0.0",
         "--t-end", T_4PI, "--t-steps", "10"],
        "2f27700812d4e6e229bea7bd8880ee892649c05ed25f295e7e7d89df899420ef"),
    # the extended kind up to the y weights' range
    "integrals, extended to y = 452": (
        ["integrals", "--alpha", "4", "--y-max", "452", "--precision", "extended",
         "--t-end", "1", "--t-steps", "2"],
        "6494fe00c1c6783ff57617c7d7a3d89e6b12a9c548744f854b1b5e4007aa9177"),
}


@pytest.mark.parametrize("name", RUNS)
def test_a_reduced_run_writes_its_recorded_bytes(tmp_path, monkeypatch, name):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # --jobs 2 forks
    argv, digest = RUNS[name]
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, jobs
