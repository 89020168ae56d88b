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
