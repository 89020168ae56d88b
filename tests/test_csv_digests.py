"""Reduced runs of every command write the bytes recorded here.

At a fixed spec the CSV bytes stay the same.  Each run below takes one
path: resonant rows that escalate, detuned rows, the thermal corrections by
integral (resonant and detuned) and by series, the series, and the
extended kind from the start.  A change that moves one bit of any column
on any of them fails here, at --jobs 1 and at --jobs 2.  A change that
moves bits on purpose updates the table in the same commit and gives each
moved digest's measured maximum deviation in CHANGES.md.
"""

import hashlib
import math

import pytest

from jcrevival import cli
from jcrevival.cli import main

T_8PI = repr(8.0 * math.pi)

# name -> (argv, sha256 of its CSV)
RUNS = {
    "integrals, escalating": (
        ["integrals", "--t-start", "15.0", "--t-end", T_8PI, "--t-steps", "16"],
        "aa357f335914f78fdfa1a9cf871ae125a8468676c34691fa087de6bfbf2a415e"),
    "integrals, detuned": (
        ["integrals", "--delta-omega", "4", "--t-end", "12.0", "--t-steps", "24"],
        "2ff767ead027711dc4196b2527b7ba4e63f735f0096b4f36be26bd4ce4c9f787"),
    "integrals, extended": (
        ["integrals", "--precision", "extended", "--t-start", "18.0",
         "--t-end", "21.0", "--t-steps", "3"],
        "67542bf606d83e3a4555f9a4246d6d5245b8bcd5275aea7f1d4259e69171fa34"),
    "thermal, integral": (
        ["thermal", "--mode", "integral", "--t-end", T_8PI, "--t-steps", "16"],
        "14bf0d73d9bcfe2a42f176801cb0506c00950d2fdcf15aead17f140d73a0ff98"),
    "thermal, integral, detuned": (
        ["thermal", "--mode", "integral", "--delta-omega", "4", "--t-end", "9.0",
         "--t-steps", "9"],
        "c257824a61dc4a922b3e9998ea823153628acc36ec3689bf174cba46f66bab3f"),
    "thermal, series": (
        ["thermal", "--mode", "series", "--t-steps", "40"],
        "fbdbd328af400e41d6eb96de6cb477cfcf546233380b0f8c16b5489d8be09a4f"),
    # theta = atanh(e^{-4}), the theta of beta epsilon = 8
    "thermal, beta epsilon 8": (
        ["thermal", "--theta", "0.01831768737184815", "--t-end", "6.0",
         "--t-steps", "12"],
        "68c69c57e4307bfed6d0316bc4b50238950ace14d0d0ff52ef618b1f7e16d24a"),
    "series": (
        ["series", "--t-steps", "40"],
        "f3030182f0732029deed9f22beb238ed6f6b7bdca52b7f0c74ad3ca59e9d0756"),
}


@pytest.mark.parametrize("name", RUNS)
def test_a_reduced_run_writes_its_recorded_bytes(tmp_path, monkeypatch, name):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # --jobs 2 forks
    argv, digest = RUNS[name]
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, jobs
