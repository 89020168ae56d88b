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

from jcrevival.cli import main

T_4PI, T_8PI = repr(4.0 * math.pi), repr(8.0 * math.pi)

# name -> (argv, sha256 of its CSV)
RUNS = {
    "integrals, escalating": (
        ["integrals", "--t-start", "15.0", "--t-end", T_8PI, "--t-steps", "16"],
        "516f5403ddaef9ced6016653d245393f97f3be166ec96da3405d362f129a977f"),
    # the last rows widen the y grid past --y-max (jcm._peak_aware)
    "integrals, widened y": (
        ["integrals", "--alpha", "4", "--y-max", "20", "--t-end", "18.85",
         "--t-steps", "8"],
        "d633f2f8ced720123c8fd86ab8358f8b8f57f9eaa4af072fc1ec53e3415fe907"),
    "integrals, detuned": (
        ["integrals", "--delta-omega", "4", "--t-end", "12.0", "--t-steps", "24"],
        "d1f0e8cad6bd49e3ac4cb04f85e7b692838ddd646d19dc6449016d43f27a16dc"),
    "integrals, extended": (
        ["integrals", "--precision", "extended", "--t-start", "18.0",
         "--t-end", "21.0", "--t-steps", "3"],
        "f477ef174e3917fd208052add60b74223dec2c69aa900cda5dac8ee799695367"),
    "thermal, integral": (
        ["thermal", "--mode", "integral", "--t-end", T_8PI, "--t-steps", "16"],
        "d245051bb932cc9a348b43b6150a0765af9b501a1ce0a6e85ceb2f5c04da33ea"),
    "thermal, integral, detuned": (
        ["thermal", "--mode", "integral", "--delta-omega", "4", "--t-end", "9.0",
         "--t-steps", "9"],
        "88ab09ad1a923f2f733900c16d3545a57642ca7834cd93a4437c9f0e8a412eed"),
    "thermal, series": (
        ["thermal", "--mode", "series", "--t-steps", "40"],
        "a14ba454729f05d09fb5cc31e2ee7209ef68d96004f122cee81889cf3f045256"),
    # theta = atanh(e^{-4}), the theta of beta epsilon = 8
    "thermal, beta epsilon 8": (
        ["thermal", "--theta", "0.01831768737184815", "--t-end", "6.0",
         "--t-steps", "12"],
        "62203964573d9e1f4a4d0675f6aa0256428e0482322c20e558aca57995b0b23e"),
    "series": (
        ["series", "--t-steps", "40"],
        "3759bea9f03e065df7ce2ee1c282affd6698878600784d703c69b0f46dc3bf3f"),
    # the benchmark's three windows at t_start = 0 (bench/run.py), whose
    # rows' rounding sets its sigma_err_max
    "bench collapse": (
        ["integrals", "--alpha", "4.0", "--precision", "auto", "--t-start", "0.0",
         "--t-end", T_4PI, "--t-steps", "100"],
        "90a824afbe0a21bff8ad5c842dcfcc32060a1fd0968bba03eb67de480f6bb9bb"),
    "bench revival": (
        ["integrals", "--alpha", "4.0", "--precision", "auto", "--t-start", "0.0",
         "--t-end", T_8PI, "--t-steps", "50"],
        "4932dbbb199d7d1377382c61eca58f6f99d1441a955195340959f5f1ec9b11a0"),
    "bench thermal": (
        ["thermal", "--alpha", "4.0", "--delta-omega", "4.0", "--gamma-tilde", "1.0",
         "--theta", "0.025", "--mode", "integral", "--t-start", "0.0",
         "--t-end", T_4PI, "--t-steps", "10"],
        "e73bff9c4ba89bf44e2d7cb5c491bbefa80fe52cd5f1ea348be4de9255816049"),
    # the extended kind up to the y weights' range
    "integrals, extended to y = 452": (
        ["integrals", "--alpha", "4", "--y-max", "452", "--precision", "extended",
         "--t-end", "1", "--t-steps", "2"],
        "21129d856068dd32f3c3d3c885f70614dfc7cb5f2d489a11f8c996a0cffc7c98"),
}


@pytest.mark.parametrize("name", RUNS)
def test_a_reduced_run_writes_its_recorded_bytes(tmp_path, cpus, name):
    cpus(2)  # --jobs 2 forks
    argv, digest = RUNS[name]
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, jobs
