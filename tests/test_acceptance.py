"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured
numbers.  Criterion 6a asserts a ceiling on the revival integral over the
collapse window that is mutually inconsistent with the criterion-2 residual
bound (the two quantities are identical up to the constant e^{-a^2}/2, and
that residual is ~8.08e-4); it is kept as stated and fails honestly.  See
the decision log outside the package for the full analysis.
"""

import dataclasses
import math

import numpy as np
import pytest

import jcrevival as jc
from jcrevival.errors import PrecisionLossError

ALPHA4 = jc.JcmConfig(alpha=4.0)
DETUNED = jc.JcmConfig(alpha=4.0, delta_omega=4.0)
SERIES = jc.SeriesSpec(n_max=200)

X_STD = jc.DEFAULT_X_SPEC
Y_STD = jc.DEFAULT_Y_SPEC
Y_EXT = dataclasses.replace(Y_STD, precision_kind="extended")


def _report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")


@pytest.fixture(scope="module")
def resonant_sweep_4pi():
    """alpha = 4 resonant J1/J2 sweep over [0, 4 pi], default grid."""
    ts = np.linspace(0.0, 4.0 * math.pi, 201)
    prof = jc.resonant_profile(ts, ALPHA4, X_STD, Y_STD, escalation="raise")
    sigma = jc.sigma_z_series(ts, ALPHA4, SERIES)
    return ts, prof, sigma


def test_criterion_1_abel_plana_identity():
    """Closed-form identity at alpha = 1..4, rel err < 1e-6, < 30 s."""
    worst = 0.0
    for alpha in (1.0, 2.0, 3.0, 4.0):
        lhs, rhs = jc.abel_plana_identity(alpha, X_STD, Y_STD)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    _report("criterion 1 (sum-to-integral identity, alpha=1..4)",
            worst < 1e-6, f"max rel err {worst:.3e} (bound 1e-6)")
    assert worst < 1e-6


def test_criterion_2_collapse_residual_default_grid(resonant_sweep_4pi):
    """alpha=4 resonant, standard precision: max |sigma - J1| <= 1e-3."""
    ts, prof, sigma = resonant_sweep_4pi
    resid = float(np.abs(sigma - prof["J1"]).max())
    _report("criterion 2 (|sigma_series - J1| on [0,4pi], default grid)",
            resid <= 1.0e-3, f"max {resid:.4e} (bound 1.0e-3)")
    assert resid <= 1.0e-3


def test_criterion_2_collapse_residual_fidelity_grid():
    """Fine grid (dx = 1e-4, the reference sampling): the measured maximum
    must land within 2e-5 of the quoted 8.0847e-4.

    The residual sigma - J1 equals J2 - e^{-16}/2, whose envelope grows
    monotonically toward t = 4 pi; a coarse scan locates the peak region and
    the reference time grid (dt = 2 pi/1000) is reproduced exactly there.
    """
    spec = dataclasses.replace(X_STD, step=1e-4)
    fam = jc.jcm._LineFamily(ALPHA4, 0, spec, j_form=True)
    pref = math.exp(-16.0)

    def j1_at(ts):
        return np.array([-pref * fam.integral(float(t)).value for t in ts])

    coarse = np.linspace(0.0, 4.0 * math.pi, 201)
    resid_coarse = np.abs(jc.sigma_z_series(coarse, ALPHA4, SERIES) - j1_at(coarse))
    window = 2.0 * math.pi * 1e-3 * np.arange(1900, 2001)  # reference grid points
    resid_window = np.abs(jc.sigma_z_series(window, ALPHA4, SERIES) - j1_at(window))
    measured = float(max(resid_coarse.max(), resid_window.max()))
    ok = abs(measured - 8.0847e-4) <= 2e-5
    _report("criterion 2 (fidelity grid dx=1e-4)", ok,
            f"max {measured:.6e} vs quoted 8.0847e-4 (within 2e-5)")
    assert ok


def test_criterion_3_revival_residual_extended():
    """alpha=4, extended kind, t in [4pi, 8pi]: max |sigma - J2| <= 1e-7."""
    ts = np.linspace(4.0 * math.pi, 8.0 * math.pi, 33)
    prof = jc.resonant_profile(ts, ALPHA4, X_STD, Y_EXT, escalation="raise")
    sigma = jc.sigma_z_series(ts, ALPHA4, SERIES)
    resid = float(np.abs(sigma - prof["J2"]).max())
    _report("criterion 3 (|sigma_series - J2| on [4pi,8pi], extended)",
            resid <= 1.0e-7, f"max {resid:.4e} (bound 1.0e-7, quoted 5.6377e-8)")
    assert resid <= 1.0e-7


def test_criterion_3_standard_precision_refuses():
    """The same computation at standard precision must signal, not return
    noise: the cancellation there is far beyond 16 digits."""
    with pytest.raises(PrecisionLossError) as err:
        jc.j2_integral(8.0 * math.pi, ALPHA4, Y_STD, escalation="raise")
    _report("criterion 3 (standard kind refuses in the revival window)", True,
            f"PrecisionLossError with cancellation "
            f"{err.value.cancellation_magnitude:.2e}")


def test_criterion_4_full_identity_alpha2():
    """alpha=2, standard precision, 400 samples on [0, 5pi]:
    |sigma_series - (-e^{-a^2}/2 + J1 + J2)| < 1e-5 everywhere."""
    cfg = jc.JcmConfig(alpha=2.0)
    ts = np.linspace(0.0, 5.0 * math.pi, 400)
    prof = jc.resonant_profile(ts, cfg, X_STD, Y_STD, escalation="raise")
    sigma = jc.sigma_z_series(ts, cfg, SERIES)
    resid = float(np.abs(sigma - prof["sigma_z"]).max())
    _report("criterion 4 (assembled identity, alpha=2, [0,5pi], standard)",
            resid < 1e-5, f"max {resid:.4e} (bound 1e-5)")
    assert resid < 1e-5


def test_criterion_5_const_plateau():
    """Detuned collapse plateau: Const = -0.2086 +- 5e-4 and the I1 trace
    stays within 1e-2 of it over [2pi, 5pi]."""
    const = jc.const_plateau(DETUNED, X_STD)
    ok_const = abs(const - (-0.2086)) <= 5e-4
    ts = np.linspace(2.0 * math.pi, 5.0 * math.pi, 31)
    prof = jc.detuned_profile(ts, DETUNED, 0, X_STD, Y_STD)
    trace = 1.0 - 2.0 * math.exp(-16.0) * prof["I1"]
    dev = float(np.abs(trace - const).max())
    _report("criterion 5 (plateau constant)", ok_const and dev < 1e-2,
            f"Const {const:.5f} (quoted -0.2086 +- 5e-4), "
            f"window deviation {dev:.3e} (bound 1e-2)")
    assert ok_const
    assert dev < 1e-2


def test_criterion_6a_j2_quiet_during_collapse(resonant_sweep_4pi):
    """As specified: max |J2| < 1e-6 on [0, 4pi].

    This ceiling cannot hold: |J2 - e^{-16}/2| is the same quantity whose
    maximum criterion 2 pins at ~8.08e-4 near t = 3.93 pi, and J2 is only
    below 1e-6 for t up to ~2 pi.  Kept as stated; fails honestly.
    """
    ts, prof, _ = resonant_sweep_4pi
    peak = float(np.abs(prof["J2"]).max())
    ok = peak < 1e-6
    _report("criterion 6a (max |J2| on [0,4pi] < 1e-6)", ok,
            f"max {peak:.4e} at t of {ts[np.abs(prof['J2']).argmax()] / math.pi:.3f} pi "
            "(equals the criterion-2 residual up to e^{-16}/2)")
    assert ok, ("max |J2| on [0,4pi] is ~8.1e-4 by the same measurement that "
                "criterion 2 validates; a 1e-6 ceiling is unattainable")


def test_criterion_6b_j1_quiet_during_revival():
    """max |J1| < 0.05 on [5pi, 8pi] (measured orders of magnitude lower)."""
    ts = np.linspace(5.0 * math.pi, 8.0 * math.pi, 151)
    fam = jc.jcm._LineFamily(ALPHA4, 0, X_STD, j_form=True)
    j1 = np.array([-math.exp(-16.0) * fam.integral(float(t)).value for t in ts])
    peak = float(np.abs(j1).max())
    _report("criterion 6b (max |J1| on [5pi,8pi] < 0.05)", peak < 0.05,
            f"max {peak:.3e} (bound 0.05)")
    assert peak < 0.05


def test_criterion_7_thermal_corrections():
    """alpha=4, gamma~=1, theta=1/40 on resonance: cross-mode agreement to
    1e-4 on [0,5pi]; total thermal shift < 0.05 on [0,8pi]; theta->0 exact."""
    thermal = jc.ThermalConfig(theta=1.0 / 40.0, gamma_tilde=1.0)
    ts = np.linspace(0.0, 5.0 * math.pi, 9)
    worst = 0.0
    for fn in (jc.p1_correction, jc.p2_correction):
        a = fn(ts, ALPHA4, thermal, "series", SERIES)
        b = fn(ts, ALPHA4, thermal, "integral", SERIES, X_STD, Y_STD)
        worst = max(worst, float(np.abs(a - b).max()))
    ts8 = np.linspace(0.0, 8.0 * math.pi, 400)
    pg = jc.pg_series(ts8, ALPHA4, SERIES)
    pth = jc.pg_thermal(ts8, ALPHA4, thermal, "series", SERIES)
    shift = float(np.abs(pth - pg).max())
    exact0 = np.array_equal(
        jc.pg_thermal(ts8, ALPHA4, jc.ThermalConfig(0.0, 1.0), "series", SERIES), pg)
    ok = worst < 1e-4 and shift < 0.05 and exact0
    _report("criterion 7 (thermal corrections)", ok,
            f"cross-mode max {worst:.3e} (bound 1e-4), "
            f"shift max {shift:.3e} (bound 0.05), theta->0 exact: {exact0}")
    assert worst < 1e-4
    assert shift < 0.05
    assert exact0


def test_criterion_8_special_function_suite():
    """Lanczos modulus identity within 1e-9 on y in [1e-3, 50], recurrence
    and conjugate symmetry; runs in seconds."""
    y = np.linspace(1e-3, 50.0, 5000)
    r = special_abs_sq = np.abs(jc.reciprocal_gamma(1.0 + 1j * y)) ** 2
    resid_mod = float(np.abs(r * np.pi * y / np.sinh(np.pi * y) - 1.0).max())
    rng = np.random.default_rng(7)
    z = rng.uniform(0.5, 10.0, 300) + 1j * rng.uniform(-10.0, 10.0, 300)
    rec = np.abs(jc.log_gamma(z + 1.0) - jc.log_gamma(z) - np.log(z)).max()
    conj_gap = np.abs(jc.reciprocal_gamma(np.conj(z))
                      - np.conj(jc.reciprocal_gamma(z))).max()
    ok = resid_mod < 1e-9 and rec < 1e-9 and conj_gap < 1e-14
    _report("criterion 8 (special-function suite)", ok,
            f"modulus {resid_mod:.2e} (<1e-9), recurrence {float(rec):.2e} "
            f"(<1e-9), conjugation {float(conj_gap):.2e}")
    assert ok


def test_criterion_9_origin_limits():
    """Analytic y->0 limits vs Richardson extrapolation on the parameter
    grid, 1e-6 relative."""
    worst = 0.0
    for c in (0.0, 1.0, 4.0):
        for l in (0, 1, 2):
            for t in (0.5, 1.0, 2.0):
                cfg = jc.JcmConfig(alpha=4.0, delta_omega=2.0 * math.sqrt(c))
                analytic = jc.correction_origin(cfg, l, t)
                h = 1e-4
                f1, f2, f3 = (jc.correction_integrand_probe(cfg, l, t, yv)
                              for yv in (h, h / 2.0, h / 4.0))
                extrap = (f1 - 6.0 * f2 + 8.0 * f3) / 3.0
                worst = max(worst, abs(extrap - analytic) / max(abs(analytic), 1e-12))
    _report("criterion 9 (y->0 limit formulas)", worst < 1e-6,
            f"max rel gap {worst:.3e} (bound 1e-6)")
    assert worst < 1e-6
