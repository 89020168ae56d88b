"""Series and envelope representations of the population inversion."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jcrevival as jc


def test_pg_is_one_at_t_zero(series200):
    for cfg in (jc.JcmConfig(alpha=4.0), jc.JcmConfig(alpha=2.0, delta_omega=3.0),
                jc.JcmConfig(alpha=0.0)):
        assert jc.pg_series(0.0, cfg, series200) == pytest.approx(1.0, abs=1e-9)


def test_vacuum_on_resonance_is_stationary(series200):
    cfg = jc.JcmConfig(alpha=0.0)
    for t in (0.0, 1.0, 7.5):
        assert jc.pg_series(t, cfg, series200) == pytest.approx(1.0, abs=1e-12)
        assert jc.sigma_z_series(t, cfg, series200) == pytest.approx(-1.0, abs=1e-12)


def test_truncation_stability_at_alpha_4():
    cfg = jc.JcmConfig(alpha=4.0)
    a = jc.pg_series(0.5, cfg, jc.SeriesSpec(100))
    b = jc.pg_series(0.5, cfg, jc.SeriesSpec(200))
    assert abs(a - b) < 1e-12


@pytest.mark.parametrize("alpha, n_max", [(0.5, 100), (4.0, 100), (-3.0, 100),
                                          (11.0, 400)])
def test_poisson_weights_match_mpmath(alpha, n_max):
    w = jc.jcm._poisson_weights(alpha, n_max)
    with mp.workdps(40):
        exact = [mp.exp(-mp.mpf(alpha) ** 2) * mp.mpf(alpha) ** (2 * n)
                 / mp.factorial(n) for n in range(n_max + 1)]
    worst = 0.0
    for got, want in zip(w, exact):
        if want > 1e-300:
            worst = max(worst, float(abs((got - want) / want)))
    assert worst <= 1e-12, f"worst relative error {worst:.3g}"


def test_sigma_starts_at_ground_state(cfg4, series200):
    assert jc.sigma_z_series(0.0, cfg4, series200) == pytest.approx(-1.0, abs=1e-9)


def test_two_series_forms_agree_to_1e12(cfg4, series200):
    ts = np.linspace(0.0, 8.0 * math.pi, 300)
    # kappa != 1 scales the phase by |kappa| instead of folding kappa^2
    # into the square root
    for cfg in (cfg4, jc.JcmConfig(alpha=4.0, kappa=0.7),
                jc.JcmConfig(alpha=4.0, kappa=-1.9)):
        a = jc.sigma_z_series(ts, cfg, series200)
        b = jc.sigma_z_series_resonant(ts, cfg, series200)
        assert np.abs(a - b).max() < 1e-12


def test_series_rows_do_not_depend_on_the_batch(cfg4):
    # a CLI chunk of any size must write the same bits for a row
    t = np.linspace(0.0, 8.0 * math.pi, 401)
    detuned = jc.JcmConfig(alpha=4.0, delta_omega=4.0)
    thermal = jc.ThermalConfig(theta=0.025, gamma_tilde=1.0)
    for batch, row in (
            (jc.pg_series(t, cfg4), lambda x: jc.pg_series(x, cfg4)),
            (jc.sigma_z_series_resonant(t, cfg4),
             lambda x: jc.sigma_z_series_resonant(x, cfg4)),
            (jc.q_g(1, t, detuned), lambda x: jc.q_g(1, x, detuned)),
            (jc.envelope_approximation(t, cfg4),
             lambda x: jc.envelope_approximation(x, cfg4)),
            (jc.p1_correction(t, cfg4, thermal),
             lambda x: jc.p1_correction(x, cfg4, thermal)),
            (jc.p2_correction(t, cfg4, thermal),
             lambda x: jc.p2_correction(x, cfg4, thermal)),
            (jc.pg_thermal(t, cfg4, thermal),
             lambda x: jc.pg_thermal(x, cfg4, thermal))):
        assert [float(v) for v in batch] == [row(x) for x in t]
        assert np.array_equal(batch[::7], row(t[::7]))
    # past about 10.6 pi the y truncation widens for the latest time of a
    # batch, so an integral row is checked against a one-row batch
    for x in t[:201:50]:
        assert jc.j2_integral(x, cfg4) == jc.resonant_profile([x], cfg4)["J2"][0]
        assert jc.q_g(1, x, detuned, "integral") == \
            jc.q_g(1, [x], detuned, "integral")[0]
        assert jc.pg_thermal(x, detuned, thermal, "integral") == \
            jc.pg_thermal([x], detuned, thermal, "integral")[0]


_DETUNED = jc.JcmConfig(alpha=4.0, delta_omega=4.0)
_THERMAL = jc.ThermalConfig(theta=0.025, gamma_tilde=1.0)
_COLD = jc.ThermalConfig(theta=0.025, gamma_tilde=0.0)
_CFG4 = jc.JcmConfig(alpha=4.0)
_TIME_ENTRIES = {
    "pg_series": lambda t: jc.pg_series(t, _CFG4),
    "sigma_z_series": lambda t: jc.sigma_z_series(t, _CFG4),
    "sigma_z_series_resonant": lambda t: jc.sigma_z_series_resonant(t, _CFG4),
    "envelope_approximation": lambda t: jc.envelope_approximation(t, _CFG4),
    "envelope_factor": lambda t: jc.envelope_factor(t, _CFG4),
    "j2_integral": lambda t: jc.j2_integral(t, _CFG4),
    "q_g series": lambda t: jc.q_g(1, t, _DETUNED),
    "q_g integral": lambda t: jc.q_g(1, t, _DETUNED, "integral"),
    "p1_correction": lambda t: jc.p1_correction(t, _CFG4, _THERMAL),
    "p1_correction cold": lambda t: jc.p1_correction(t, _CFG4, _COLD),
    "p2_correction": lambda t: jc.p2_correction(t, _CFG4, _THERMAL),
    "pg_thermal": lambda t: jc.pg_thermal(t, _CFG4, _THERMAL),
    "resonant_profile": lambda t: jc.resonant_profile([t], _CFG4),
    "detuned_profile": lambda t: jc.detuned_profile([t], _DETUNED),
}


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", list(_TIME_ENTRIES))
def test_every_time_entry_refuses_a_bad_time(entry, t):
    # a clean error naming t, not a NaN, a warning or a quadrature failure
    with pytest.raises(ValueError, match="^t must be"):
        _TIME_ENTRIES[entry](t)
    with pytest.raises(ValueError, match="^t must be"):
        _TIME_ENTRIES[entry](np.array([0.0, t]))


def test_times_are_a_scalar_or_one_dimensional(cfg4):
    with pytest.raises(ValueError, match="at most 1-d"):
        jc.pg_series(np.zeros((2, 2)), cfg4)


def test_collapsed_quiet_zone(cfg4, series200):
    ts = np.linspace(2.0 * math.pi, 4.0 * math.pi, 500)
    assert np.abs(jc.sigma_z_series(ts, cfg4, series200)).mean() < 0.02


def test_revival_reappears(cfg4, series200):
    ts = np.linspace(7.0 * math.pi, 9.0 * math.pi, 500)
    assert np.abs(jc.sigma_z_series(ts, cfg4, series200)).max() > 0.3


@given(st.floats(min_value=0.0, max_value=30.0),
       st.floats(min_value=0.0, max_value=4.5),
       st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_bounds_invariant(t, alpha, delta_omega):
    cfg = jc.JcmConfig(alpha=alpha, delta_omega=delta_omega)
    spec = jc.SeriesSpec(n_max=120)
    pg = jc.pg_series(t, cfg, spec)
    assert -1e-9 <= pg <= 1.0 + 1e-9
    sz = jc.sigma_z_series(t, cfg, spec)
    assert -1.0 - 1e-9 <= sz <= 1.0 + 1e-9


def test_negative_time_rejected(cfg4, series200):
    with pytest.raises(ValueError):
        jc.pg_series(-0.1, cfg4, series200)
    with pytest.raises(ValueError):
        jc.sigma_z_series(-1.0, cfg4, series200)


def test_tail_guard(series200):
    cfg = jc.JcmConfig(alpha=8.0)
    with pytest.raises(ValueError):
        jc.pg_series(1.0, cfg, jc.SeriesSpec(n_max=80))


def test_envelope_at_zero(cfg4):
    assert jc.envelope_approximation(0.0, cfg4) == pytest.approx(-1.0)


def test_envelope_recurrence_at_2pi_alpha(cfg4):
    t_rev = 2.0 * math.pi * abs(cfg4.alpha)
    assert jc.envelope_factor(t_rev, cfg4) == pytest.approx(1.0, abs=1e-12)


def test_envelope_collapse_bound(cfg4):
    # the small-t expansion gives exp(-t^2/2); allow 50% slack at t = 3
    assert abs(jc.envelope_factor(3.0, cfg4)) < math.exp(-4.5) * 1.5


def test_envelope_tracks_series_during_collapse(cfg4, series200):
    ts = np.linspace(0.0, 2.0, 80)
    env = jc.envelope_approximation(ts, cfg4)
    ser = jc.sigma_z_series(ts, cfg4, series200)
    assert np.abs(env - ser).max() < 0.12


def test_envelope_requires_resonance_and_field():
    with pytest.raises(ValueError):
        jc.envelope_approximation(1.0, jc.JcmConfig(alpha=4.0, delta_omega=1.0))
    with pytest.raises(ValueError):
        jc.envelope_approximation(1.0, jc.JcmConfig(alpha=0.0))


def test_config_validation():
    with pytest.raises(ValueError):
        jc.JcmConfig(alpha=1.0, kappa=0.0)
    cfg = jc.JcmConfig(alpha=1.0, kappa=2.0, delta_omega=4.0)
    assert cfg.c == pytest.approx(1.0)
    with pytest.raises(ValueError, match="alpha"):
        jc.JcmConfig(alpha=1e200)
    with pytest.raises(ValueError, match="delta_omega"):
        jc.JcmConfig(alpha=1.0, delta_omega=1e200)
    with pytest.raises(ValueError, match="delta_omega"):
        jc.JcmConfig(alpha=1.0, kappa=1e-200, delta_omega=1e200)
    # squares up to the largest double are accepted
    assert math.isfinite(jc.JcmConfig(alpha=1e154, delta_omega=1e154).c)


def test_theta_of_beta_limits():
    assert jc.theta_of_beta(200.0).exact < 1e-40
    r = jc.theta_of_beta(8.0)
    assert r.approximate == pytest.approx(math.exp(-4.0))
    assert abs(r.exact - r.approximate) == pytest.approx(r.approximate ** 3 / 3.0,
                                                         rel=1e-3)
    with pytest.raises(ValueError):
        jc.theta_of_beta(0.0)
    with pytest.raises(ValueError):
        jc.theta_of_beta(-1.0)
    # e^{-beta_epsilon / 2} rounds to 1, where atanh is undefined
    with pytest.raises(ValueError, match="beta_epsilon"):
        jc.theta_of_beta(1e-20)


def test_thermal_config_validation():
    with pytest.raises(ValueError):
        jc.ThermalConfig(theta=1.0, gamma_tilde=0.0)
    assert jc.theta_of_beta(8.0).exact == pytest.approx(
        math.atanh(math.exp(-4.0)))
