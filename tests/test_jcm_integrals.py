"""Integral representations: I/J families, limits, plateau, thermal modes."""

import dataclasses
import math

import numpy as np
import pytest

import jcrevival as jc
from jcrevival.errors import PrecisionLossError

X = jc.DEFAULT_X_SPEC
Y = jc.DEFAULT_Y_SPEC


# --- y -> 0 limits of the correction integrand ------------------------------

def _richardson_origin(cfg, l, t, j_form=False, h=1e-4):
    f1, f2, f3 = (jc.correction_integrand_probe(cfg, l, t, y, j_form)
                  for y in (h, h / 2.0, h / 4.0))
    return (f1 - 6.0 * f2 + 8.0 * f3) / 3.0


@pytest.mark.parametrize("c", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("l", [0, 1, 2])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_origin_limits_match_richardson(c, l, t):
    cfg = jc.JcmConfig(alpha=4.0, delta_omega=2.0 * math.sqrt(c))
    analytic = jc.correction_origin(cfg, l, abs(cfg.kappa) * t)
    extrapolated = _richardson_origin(cfg, l, t)
    assert abs(extrapolated - analytic) <= 1e-6 * max(abs(analytic), 1e-12)


def test_origin_limit_j_form_quoted_formula(cfg4):
    # (1/2pi)(2 ln a + gamma - 2 t^2)
    t = 1.7
    want = (2.0 * math.log(4.0) + 0.5772156649015329 - 2.0 * t * t) / (2.0 * math.pi)
    got = jc.correction_origin(cfg4, 0, t, j_form=True)
    assert got == pytest.approx(want, rel=1e-14)
    assert _richardson_origin(cfg4, 0, t, j_form=True) == pytest.approx(got, rel=1e-6)


def test_origin_limit_detuned_quoted_formula():
    # (1/4 c pi) [-1 + 2 c gamma + cos(2 sqrt(c) t) + 4 c ln a] at c = 4
    cfg = jc.JcmConfig(alpha=4.0, delta_omega=4.0)
    gamma = 0.5772156649015329
    for t in (1e-6, 0.3, 2.0):
        want = (-1.0 + 8.0 * gamma + math.cos(4.0 * t)
                + 16.0 * math.log(4.0)) / (16.0 * math.pi)
        assert jc.correction_origin(cfg, 0, t) == pytest.approx(want, rel=1e-12)


def test_i2_at_zero_real_and_finite():
    for cfg in (jc.JcmConfig(alpha=4.0), jc.JcmConfig(alpha=2.0, delta_omega=3.0)):
        for l in (0, 1, 2):
            val = jc.detuned_profile([0.0], cfg, l)["I2"][0]
            assert math.isfinite(val)


# --- identities and cross-checks --------------------------------------------

def test_resonant_assembly_at_zero_is_ground_state(cfg4):
    val = jc.resonant_profile([0.0], cfg4)["sigma_z"][0]
    assert abs(val + 1.0) < 1e-6


def test_integral_assembly_at_zero_is_ground_state(cfg4_detuned):
    val = jc.detuned_profile([0.0], cfg4_detuned)["sigma_z"][0]
    assert abs(val + 1.0) < 1e-6


def test_j_constant_term_value(cfg4):
    assert 0.5 * math.exp(-cfg4.alpha ** 2) == pytest.approx(5.63e-8, rel=2e-3)


def test_sigma_integral_matches_series_alpha2(series200):
    cfg = jc.JcmConfig(alpha=2.0)
    t = 3.0 * math.pi
    a = jc.sigma_z_series(t, cfg, series200)
    b = jc.detuned_profile([t], cfg)["sigma_z"][0]
    assert abs(a - b) < 1e-5


def test_sigma_integral_matches_series_detuned(cfg4_detuned, series200):
    for t in (0.7, 2.0, math.pi):
        a = jc.sigma_z_series(t, cfg4_detuned, series200)
        b = jc.detuned_profile([t], cfg4_detuned)["sigma_z"][0]
        assert abs(a - b) < 1e-6


def test_i1_at_zero_via_identity():
    # at t = 0 the bracket is 1 + c/(x+c) and for c = 0 exactly the weight,
    # whose half-line integral satisfies the closed-form identity
    cfg = jc.JcmConfig(alpha=1.0)
    row = jc.detuned_profile([0.0], cfg)
    i1, i2 = row["I1"][0], row["I2"][0]
    want = -0.25 + 0.5 * math.e  # equals i1/2 - i2 by the identity
    assert abs((0.5 * i1 - i2) - want) < 1e-6


@pytest.mark.parametrize("alpha,delta_omega", [
    (1.0, 0.0), (2.0, 0.0), (4.0, 0.0), (2.0, 2.0), (4.0, 4.0)])
def test_representation_agreement_matrix(alpha, delta_omega, series200):
    # series and integral representations of the same observable, over the
    # precision-safe window at the default grid
    cfg = jc.JcmConfig(alpha=alpha, delta_omega=delta_omega)
    for t in (0.5, math.pi, 2.0 * math.pi):
        a = jc.sigma_z_series(t, cfg, series200)
        b = jc.detuned_profile([t], cfg)["sigma_z"][0]
        assert abs(a - b) < 1e-4


def test_representation_agreement_extended():
    cfg = jc.JcmConfig(alpha=2.0, delta_omega=2.0)
    t = math.pi
    a = jc.sigma_z_series(t, cfg, jc.SeriesSpec(200))
    b = jc.detuned_profile(
        [t], cfg, 0,
        dataclasses.replace(X, precision_kind="extended"),
        dataclasses.replace(Y, precision_kind="extended"))["sigma_z"][0]
    assert abs(a - b) < 1e-6


def test_abel_plana_identity_all_amplitudes():
    for alpha in (1.0, 2.0, 3.0, 4.0):
        lhs, rhs = jc.abel_plana_identity(alpha)
        assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_identity_alpha4_value():
    lhs, rhs = jc.abel_plana_identity(4.0)
    assert rhs == pytest.approx(-0.25 + 0.5 * math.exp(16.0), rel=1e-15)
    assert lhs == pytest.approx(4443055.0102539, rel=1e-9)


def test_i1_bounded_for_large_shift(cfg4_detuned):
    # bracket <= 1 + c/(x+c+l) <= 2, so I1 is bounded by twice the weight
    # integral, uniformly in l; I1 at t = 0 on resonance IS that integral
    bound = 2.0 * jc.detuned_profile([0.0], jc.JcmConfig(alpha=4.0))["I1"][0]
    for l in (0, 1, 5, 25):
        val = jc.detuned_profile([2.0], cfg4_detuned, l)["I1"][0]
        assert 0.0 < val < bound


def test_alpha_zero_integral_forms_rejected():
    cfg = jc.JcmConfig(alpha=0.0)
    with pytest.raises(ValueError):
        jc.resonant_profile([1.0], cfg)
    with pytest.raises(ValueError):
        jc.detuned_profile([1.0], cfg)
    with pytest.raises(ValueError):
        jc.const_plateau(cfg)


def test_j_forms_require_resonance(cfg4_detuned):
    with pytest.raises(ValueError):
        jc.resonant_profile([1.0], cfg4_detuned)
    with pytest.raises(ValueError):
        jc.j2_integral(1.0, cfg4_detuned)


# --- plateau -----------------------------------------------------------------

def test_const_plateau_quoted_value(cfg4_detuned):
    assert jc.const_plateau(cfg4_detuned) == pytest.approx(-0.2086, abs=5e-4)


def test_plateau_tracks_collapse_average(cfg4_detuned):
    const = jc.const_plateau(cfg4_detuned)
    ts = np.linspace(2.0 * math.pi, 5.0 * math.pi, 25)
    prof = jc.detuned_profile(ts, cfg4_detuned)
    collapsed = 1.0 - 2.0 * math.exp(-16.0) * prof["I1"]
    assert np.abs(collapsed - const).max() < 1e-2


def test_detuned_correction_carries_only_the_revival(cfg4_detuned, series200):
    # through the collapse window the I2 term stays tiny (measured 8.1e-5),
    # then carries the revival (~0.2 by 8 pi); mirrors the J1/J2 split
    ts = np.linspace(0.0, 5.0 * math.pi, 26)
    prof = jc.detuned_profile(ts, cfg4_detuned)
    pref = 4.0 * math.exp(-16.0)
    assert pref * np.abs(prof["I2"]).max() < 2e-4
    ts_rev = np.linspace(6.0 * math.pi, 8.0 * math.pi, 11)
    prof_rev = jc.detuned_profile(ts_rev, cfg4_detuned, escalation="escalate")
    assert pref * np.abs(prof_rev["I2"]).max() > 0.1
    sigma = jc.sigma_z_series(ts_rev, cfg4_detuned, series200)
    assert np.abs(sigma - prof_rev["sigma_z"]).max() < 1e-5


def test_plateau_resonant_cross_check():
    # c = 0 reduces the plateau integrand to the plain weight; its integral
    # follows from the closed-form identity: L = 2(-1/4 + e^{a^2}/2) + 2C
    cfg = jc.JcmConfig(alpha=2.0)
    got = jc.const_plateau(cfg)
    weight_integral = 2.0 * (-0.25 + 0.5 * math.exp(4.0)) \
        + 2.0 * _correction_weight_integral(2.0)
    want = 1.0 - math.exp(-4.0) * weight_integral
    assert got == pytest.approx(want, abs=1e-8)


def _correction_weight_integral(alpha):
    fam = jc.jcm._CorrectionFamily(jc.JcmConfig(alpha=alpha), 0, Y, j_form=True)
    return fam.integral(0.0).value


# --- precision policy --------------------------------------------------------

def test_j2_standard_raises_deep_in_revival(cfg4):
    with pytest.raises(PrecisionLossError) as err:
        jc.j2_integral(8.0 * math.pi, cfg4)
    assert err.value.cancellation_magnitude > 1e12


def test_j2_escalation_recovers(cfg4, series200):
    t = 7.0 * math.pi
    val = jc.j2_integral(t, cfg4, escalation="escalate")
    sigma = jc.sigma_z_series(t, cfg4, series200)
    assert abs(sigma - val) < 1e-7


def test_escalated_rows_of_the_revival_grid_match_the_series(cfg4):
    # the benchmark's revival grid: its 12 rows from 6.56 pi escalate, and
    # the cancellation (up to 7.5e20 at 8 pi) amplifies every roundoff of
    # the double-double kernels into sigma_z
    ts = np.linspace(0.0, 8.0 * math.pi, 51)
    prof = jc.resonant_profile(ts, cfg4, escalation="escalate")
    esc = prof["status"] == 1
    assert esc.sum() == 12 and not (prof["status"] == 2).any()
    series = np.array([jc.sigma_z_series(t, cfg4) for t in ts[esc]])
    assert np.max(np.abs(prof["sigma_z"][esc] - series)) < 1e-10


def test_j2_extended_beyond_8pi_still_refuses(cfg4):
    spec = dataclasses.replace(Y, precision_kind="extended")
    with pytest.raises(PrecisionLossError):
        jc.j2_integral(9.0 * math.pi, cfg4, spec)


def test_j2_ignore_policy_returns_marked_noise(cfg4):
    prof = jc.resonant_profile(np.asarray([8.0 * math.pi]), cfg4,
                               escalation="ignore")
    assert prof["status"][0] == 2


def test_unmarked_entries_refuse_over_budget_rows_under_ignore(cfg4):
    # j2_integral, q_g and the thermal corrections return bare numbers with
    # no status marker, so "ignore" must not let an over-budget row through
    t = 9.0 * math.pi
    thermal = jc.ThermalConfig(theta=0.025, gamma_tilde=1.0)
    budget = "exceeds the standard precision budget"
    with pytest.raises(PrecisionLossError, match=budget):
        jc.j2_integral(t, cfg4, escalation="ignore")
    with pytest.raises(PrecisionLossError, match=budget):
        jc.q_g(0, [t], cfg4, "integral", escalation="ignore")
    with pytest.raises(PrecisionLossError, match=budget):
        jc.pg_thermal([t], cfg4, thermal, "integral", escalation="ignore")


@pytest.mark.parametrize("l", [-1, 0.5])
def test_bracket_index_must_be_a_nonnegative_integer(cfg4, l):
    for call in (lambda: jc.q_g(l, 1.0, cfg4),
                 lambda: jc.q_g(l, 1.0, cfg4, "integral"),
                 lambda: jc.detuned_profile([1.0], cfg4, l)):
        with pytest.raises(ValueError, match="l must be a nonnegative integer"):
            call()
    assert jc.q_g(np.int64(1), 1.0, cfg4) == jc.q_g(1, 1.0, cfg4)


def test_escalating_q_sweep_builds_one_extended_family(cfg4, monkeypatch):
    # both rows exceed the standard budget; the sweep must reuse one
    # extended family for them and give the values of separate calls
    coarse_x = dataclasses.replace(X, step=1e-2)
    coarse_y = dataclasses.replace(Y, step=1e-2)
    ts = np.array([7.0 * math.pi, 7.5 * math.pi])
    build_grid = jc.jcm.quadrature.build_grid
    kinds = []

    def counting(a, b, spec):
        kinds.append(spec.precision_kind)
        return build_grid(a, b, spec)

    monkeypatch.setattr(jc.jcm.quadrature, "build_grid", counting)
    swept = jc.q_g(0, ts, cfg4, "integral", x_spec=coarse_x, y_spec=coarse_y,
                   escalation="escalate")
    assert kinds.count("extended") == 1
    rows = [jc.q_g(0, t, cfg4, "integral", x_spec=coarse_x, y_spec=coarse_y,
                   escalation="escalate") for t in ts]
    assert np.array_equal(swept, rows)


def test_repeated_calls_build_each_grid_once(cfg4, cfg4_detuned, monkeypatch):
    # a family is built once per (cfg, l, spec, j_form), and a cached one
    # gives the bits of a fresh one
    coarse_x = dataclasses.replace(X, step=1e-2)
    coarse_y = dataclasses.replace(Y, step=1e-2)
    build_grid = jc.jcm.quadrature.build_grid
    calls = []

    def counting(a, b, spec):
        calls.append(spec)
        return build_grid(a, b, spec)

    monkeypatch.setattr(jc.jcm.quadrature, "build_grid", counting)

    def run():
        j2 = [jc.j2_integral(t, cfg4, coarse_y) for t in (1.0, 2.0, 3.0)]
        q = [jc.q_g(1, t, cfg4_detuned, "integral", x_spec=coarse_x,
                    y_spec=coarse_y) for t in (0.5, [0.5, 1.5], 2.5)]
        return np.hstack([j2, *q])

    first = run()
    assert calls == [coarse_y, coarse_x, coarse_y]
    jc.jcm._family.cache_clear()
    assert np.array_equal(run(), first)
    assert len(calls) == 6


def test_peak_aware_truncation_extends_grid(cfg4):
    spec = jc.jcm._peak_aware(Y, 12.0 * math.pi)
    need = 8.0 * (12.0 * math.pi) ** 2 / (9.0 * math.pi ** 2)
    assert spec.upper_limit >= need
    assert jc.jcm._peak_aware(Y, 2.0).upper_limit == Y.upper_limit


# --- thermal corrections -----------------------------------------------------

@pytest.fixture(scope="module")
def thermal():
    return jc.ThermalConfig(theta=1.0 / 40.0, gamma_tilde=1.0)


def test_q0_equals_pg_both_modes(cfg4, series200):
    t = 1.3
    pg = jc.pg_series(t, cfg4, series200)
    assert jc.q_g(0, t, cfg4, "series", series200) == pg
    assert jc.q_g(0, t, cfg4, "integral", series200) == pytest.approx(pg, abs=1e-8)


def test_q_is_one_at_t_zero(cfg4, series200):
    for l in (0, 1, 2, 7):
        assert jc.q_g(l, 0.0, cfg4, "series", series200) == pytest.approx(1.0, abs=1e-12)


def test_q_bounds_for_shifted_index(cfg4_detuned, series200):
    ts = np.linspace(0.0, 20.0, 120)
    for l in (1, 2):
        q = jc.q_g(l, ts, cfg4_detuned, "series", series200)
        assert np.all(q >= -1e-9) and np.all(q <= 1.0 + 1e-9)


@pytest.mark.parametrize("family", ["_LineFamily", "_CorrectionFamily"])
@pytest.mark.parametrize("delta_omega, l, j_form",
                         [(0.0, 0, True), (4.0, 1, False), (0.0, 0, False)])
def test_families_agree_across_kinds(family, delta_omega, l, j_form):
    # one code path serves both kinds: at a time well inside the standard
    # budget the two kinds evaluate the same formula on the same grid
    cfg = jc.JcmConfig(alpha=4.0, delta_omega=delta_omega)
    spec = dataclasses.replace(X if family == "_LineFamily" else Y, step=1e-2)
    ext = dataclasses.replace(spec, precision_kind="extended")
    cls = getattr(jc.jcm, family)
    std_val = cls(cfg, l, spec, j_form=j_form).integral(math.pi).value
    ext_val = cls(cfg, l, ext, j_form=j_form).integral(math.pi).value
    assert ext_val == pytest.approx(std_val, rel=1e-12)


def test_line_family_refuses_an_uncovered_poisson_tail(series200):
    cfg = jc.JcmConfig(alpha=8.0)
    ts = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="x_max"):
        jc.resonant_profile(ts, cfg)
    wide = dataclasses.replace(X, upper_limit=150.0)
    prof = jc.resonant_profile(ts, cfg, x_spec=wide)
    want = jc.sigma_z_series(ts, cfg, series200)
    assert np.max(np.abs(prof["sigma_z"] - want)) < 1e-9


def test_signs_of_alpha_and_kappa_do_not_change_the_inversion():
    """Only alpha^2 and |kappa| t enter the inversion, so flipping the sign
    of alpha, of kappa or of both leaves every form bit for bit unchanged.
    The thermal P1 = 2 alpha gamma_tilde (P_g - Q1) is odd in alpha, so
    pg_thermal keeps its values when alpha and gamma_tilde flip together."""
    ts = np.linspace(0.0, 6.0, 7)
    thermal = jc.ThermalConfig(theta=0.025, gamma_tilde=1.0)
    flipped = jc.ThermalConfig(theta=0.025, gamma_tilde=-1.0)

    def forms(alpha, kappa):
        cfg = jc.JcmConfig(alpha=alpha, kappa=kappa)
        prof = jc.resonant_profile(ts, cfg)
        detuned = jc.detuned_profile(
            ts, jc.JcmConfig(alpha=alpha, kappa=kappa, delta_omega=4.0 * kappa))
        return [jc.sigma_z_series(ts, cfg), jc.envelope_approximation(ts, cfg),
                prof["J1"], prof["J2"], prof["sigma_z"],
                detuned["I1"], detuned["I2"], detuned["sigma_z"]]

    want = forms(4.0, 1.0)
    for alpha, kappa in ((-4.0, 1.0), (4.0, -1.0), (-4.0, -1.0)):
        for got, ref in zip(forms(alpha, kappa), want):
            assert np.array_equal(got, ref), (alpha, kappa)
    for mode in ("series", "integral"):
        assert np.array_equal(
            jc.pg_thermal(ts, jc.JcmConfig(alpha=-4.0), flipped, mode),
            jc.pg_thermal(ts, jc.JcmConfig(alpha=4.0), thermal, mode)), mode


def test_extended_runs_are_bit_identical(cfg4):
    spec = dataclasses.replace(Y, precision_kind="extended")
    t = 5.5 * math.pi
    a = jc.j2_integral(t, cfg4, spec)
    b = jc.j2_integral(t, cfg4, spec)
    assert a == b


def test_q_cross_mode_agreement(series200):
    cfg = jc.JcmConfig(alpha=4.0)
    a = jc.q_g(1, 1.0, cfg, "series", series200)
    b = jc.q_g(1, 1.0, cfg, "integral", series200)
    assert abs(a - b) < 1e-6


@pytest.mark.parametrize("delta_omega", [0.0, 4.0])
@pytest.mark.parametrize("l", [0, 1, 2])
def test_q_integral_agrees_with_series_over_the_revival_window(
        delta_omega, l, series200):
    # the shifted brackets of the thermal corrections, escalating where the
    # standard kind runs out, against the Fock series on [0, 8pi]
    cfg = jc.JcmConfig(alpha=4.0, delta_omega=delta_omega)
    ts = np.linspace(0.0, 8.0 * math.pi, 41)
    got = jc.q_g(l, ts, cfg, "integral", escalation="escalate")
    want = jc.q_g(l, ts, cfg, "series", series200)
    err = np.abs(got - want)
    assert err.max() <= 2e-5
    assert err[ts <= 4.0 * math.pi].max() <= 1e-11


def test_p1_zero_when_gamma_zero(cfg4, series200):
    th = jc.ThermalConfig(theta=0.025, gamma_tilde=0.0)
    ts = np.linspace(0.0, 10.0, 50)
    assert np.all(jc.p1_correction(ts, cfg4, th, "series", series200) == 0.0)


def test_p1_zero_at_t_zero(cfg4, thermal, series200):
    assert jc.p1_correction(0.0, cfg4, thermal, "series", series200) == \
        pytest.approx(0.0, abs=1e-10)


def test_p2_at_t_zero_closed_form(cfg4, thermal, series200):
    # all Q's equal 1: 2(2 a^2 g^2 - g^2 - 1) - 2 a^2(4 g^2 + 1) + 4 a^2 g^2
    want = 2.0 * (2.0 * 16.0 - 1.0 - 1.0) - 2.0 * 16.0 * 5.0 + 4.0 * 16.0
    got = jc.p2_correction(0.0, cfg4, thermal, "series", series200)
    assert got == pytest.approx(want, abs=1e-9)
    assert want == -36.0


@pytest.mark.parametrize("mode", ["series", "integral"])
def test_p2_at_gamma_zero_is_the_reduced_formula(cfg4, series200, mode):
    # the one P2 formula with gamma_tilde = 0 (and Q^(2) never evaluated)
    # is -2 P_g - 2 a^2 Q^(1), bit for bit
    th = jc.ThermalConfig(theta=0.025, gamma_tilde=0.0)
    ts = np.linspace(0.0, 4.0 * math.pi, 9)
    pg = jc.q_g(0, ts, cfg4, mode, series200)
    q1 = jc.q_g(1, ts, cfg4, mode, series200)
    got = jc.p2_correction(ts, cfg4, th, mode, series200)
    assert np.array_equal(got, -2.0 * pg - 2.0 * cfg4.alpha ** 2 * q1)


def test_p2_alpha_zero_is_constant(series200, thermal):
    cfg = jc.JcmConfig(alpha=0.0)
    ts = np.linspace(0.0, 9.0, 40)
    vals = jc.p2_correction(ts, cfg, thermal, "series", series200)
    want = -2.0 * (thermal.gamma_tilde ** 2 + 1.0)
    assert np.abs(vals - want).max() < 1e-12


def test_p_corrections_cross_mode(cfg4, thermal, series200):
    ts = np.array([0.5, math.pi, 2.7, 4.0 * math.pi])
    for fn in (jc.p1_correction, jc.p2_correction):
        a = fn(ts, cfg4, thermal, "series", series200)
        b = fn(ts, cfg4, thermal, "integral", series200)
        assert np.abs(a - b).max() < 1e-5


def test_pg_thermal_recovers_pg_at_theta_zero(cfg4, series200):
    th = jc.ThermalConfig(theta=0.0, gamma_tilde=1.0)
    ts = np.linspace(0.0, 20.0, 100)
    assert np.array_equal(jc.pg_thermal(ts, cfg4, th, "series", series200),
                          jc.pg_series(ts, cfg4, series200))


def test_pg_thermal_gamma_zero_deviation_is_second_order(cfg4, series200):
    th = jc.ThermalConfig(theta=1.0 / 40.0, gamma_tilde=0.0)
    ts = np.linspace(0.0, 10.0, 60)
    dev = np.abs(jc.pg_thermal(ts, cfg4, th, "series", series200)
                 - jc.pg_series(ts, cfg4, series200))
    # P1 vanishes with gamma; what is left is the theta^2/2 P2 term
    assert dev.max() < 0.5 * th.theta ** 2 * 80.0
    assert dev.max() > 0.0


def test_theta_linear_slope_matches_p1(cfg4, series200):
    # pg_thermal is exactly quadratic in theta, so the two-step Richardson
    # difference isolates the linear coefficient
    t = 2.0
    g = 1.0
    pg = jc.pg_series(t, cfg4, series200)
    d = {}
    for theta in (1e-4, 5e-5):
        th = jc.ThermalConfig(theta=theta, gamma_tilde=g)
        d[theta] = jc.pg_thermal(t, cfg4, th, "series", series200) - pg
    slope = (4.0 * d[5e-5] - d[1e-4]) / 1e-4
    p1 = jc.p1_correction(t, cfg4, jc.ThermalConfig(theta=1e-4, gamma_tilde=g),
                          "series", series200)
    assert abs(slope - p1) < 1e-6


def test_perturbative_regime_warning(series200):
    cfg = jc.JcmConfig(alpha=4.0)
    th = jc.ThermalConfig(theta=0.2, gamma_tilde=1.0)
    assert jc.perturbative_strength(cfg, th) > 0.5
    with pytest.warns(jc.PerturbativeRegimeWarning):
        jc.pg_thermal(1.0, cfg, th, "series", series200)
