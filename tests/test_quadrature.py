"""The composite Bode rule in both scalar kinds, and its failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jcrevival.ddmath as dd
from jcrevival.ddmath import CDD, DD
from jcrevival.errors import IntegrandError
from jcrevival.quadrature import QuadratureSpec, assemble, build_grid


def integrate(f, a, b, spec):
    """f's samples on the grid of [a, b] under spec, assembled."""
    grid = build_grid(a, b, spec)
    return assemble(f(grid.x), grid)


def test_bode_exact_through_quintics():
    spec = QuadratureSpec(step=0.25)
    r = integrate(lambda x: x ** 5, 0.0, 1.0, spec)
    assert r.value == pytest.approx(1.0 / 6.0, abs=2 * np.finfo(float).eps)
    assert build_grid(0.0, 1.0, spec).n + 1 == 5  # nodes


@pytest.mark.parametrize("degree", [5], ids=["bode-5"])
def test_exactness_degrees_on_monomials(degree):
    for k in range(degree + 1):
        r = integrate(lambda x, k=k: x ** k, 0.0, 2.0,
                      QuadratureSpec(step=0.5))
        assert r.value == pytest.approx(2.0 ** (k + 1) / (k + 1), rel=1e-14)


def test_exponential_closed_form():
    r = integrate(lambda x: np.exp(-x), 0.0, 100.0,
                  QuadratureSpec(step=1e-3))
    assert abs(r.value - (1.0 - math.exp(-100.0))) < 1e-12


def test_zero_integrand():
    spec = QuadratureSpec(step=0.1)
    r = integrate(lambda x: 0.0 * x, 0.0, 10.0, spec)
    assert r.value == 0.0
    assert r.cancellation_magnitude == 1.0


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=40)
def test_linearity_on_polynomials(a0, a1, b0, b1):
    spec = QuadratureSpec(step=0.25)
    f = lambda x: a0 + a1 * x * x
    g = lambda x: b0 + b1 * x ** 3
    lhs = integrate(lambda x: 2.0 * f(x) + 3.0 * g(x), 0.0, 1.0, spec).value
    rhs = 2.0 * integrate(f, 0.0, 1.0, spec).value + \
        3.0 * integrate(g, 0.0, 1.0, spec).value
    assert lhs == pytest.approx(rhs, abs=8 * np.finfo(float).eps * (1 + abs(rhs)))


@pytest.mark.parametrize("order", [6], ids=["bode-6"])
def test_halving_step_error_ratio(order):
    exact = math.e - 1.0
    errs = []
    for step in (0.05, 0.025):
        r = integrate(np.exp, 0.0, 1.0, QuadratureSpec(step=step))
        errs.append(abs(r.value - exact))
    ratio = errs[0] / errs[1]
    assert 0.7 * 2 ** order <= ratio <= 1.3 * 2 ** order


def test_deterministic_bit_identical():
    spec = QuadratureSpec(step=1e-3)
    f = lambda x: np.cos(7.0 * x) * np.exp(-x)
    assert integrate(f, 0.0, 50.0, spec).value == integrate(f, 0.0, 50.0, spec).value


def test_cancellation_magnitude_at_least_one():
    spec = QuadratureSpec(step=1e-2)
    r = integrate(lambda x: np.sin(20.0 * x), 0.0, 2.0 * np.pi, spec)
    assert r.cancellation_magnitude >= 1.0
    r2 = integrate(lambda x: np.ones_like(x), 0.0, 1.0, spec)
    assert r2.cancellation_magnitude == pytest.approx(1.0)


def test_non_finite_sample_reports_abscissa():
    def f(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / x
    for run in (
            lambda: integrate(f, 0.0, 1.0, QuadratureSpec(step=0.25)),
            lambda: integrate(f, 0.0, 1.0, QuadratureSpec(
                step=0.25, precision_kind="extended"))):
        with pytest.raises(IntegrandError) as err:
            run()
        assert err.value.abscissa == 0.0
        assert str(err.value).endswith("x = 0.0")


def test_incompatible_step_is_an_error():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, 1.0, QuadratureSpec(step=5.0))
    # so is a kind the package does not have
    with pytest.raises(ValueError, match="unknown"):
        QuadratureSpec(precision_kind="quad")


def test_one_step_adjustment_is_reported():
    # 1/3 tiles [0, 1] in 3 intervals, no whole Bode panel; the step
    # shrinks to 0.25
    spec = QuadratureSpec(step=1.0 / 3.0)
    r = integrate(lambda x: x * x, 0.0, 1.0, spec)
    assert build_grid(0.0, 1.0, spec).h == pytest.approx(0.25)
    assert r.value == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_reversed_bounds_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0, QuadratureSpec(step=0.1))


def test_extended_kind_agrees_with_standard():
    spec_s = QuadratureSpec(step=1e-3)
    spec_e = QuadratureSpec(step=1e-3, precision_kind="extended")
    a = integrate(lambda x: np.exp(-x) * np.cos(3.0 * x), 0.0, 10.0, spec_s)
    b = integrate(lambda x: dd.exp(-x) * dd.sincos(x * 3.0)[1], 0.0, 10.0, spec_e)
    assert abs(a.value - b.value) < 1e-14
    assert b.cancellation_magnitude == pytest.approx(
        a.cancellation_magnitude, rel=1e-12)
    # plain float64 samples on an extended grid are lifted to the kind
    c = integrate(lambda x: np.exp(-x.hi) * np.cos(3.0 * x.hi), 0.0, 10.0, spec_e)
    assert abs(c.value - b.value) < 1e-14


@pytest.mark.parametrize("kind", ["standard", "extended"])
def test_complex_samples_are_refused(kind):
    # a real sum of complex samples would drop their imaginary part
    spec = QuadratureSpec(step=0.25, precision_kind=kind)
    grid = build_grid(0.0, 1.0, spec)
    x = grid.x.hi if kind == "extended" else grid.x
    for samples in (np.exp(1j * x), CDD(DD(x), DD(x))):
        with pytest.raises(TypeError):
            assemble(samples, grid)
        with pytest.raises(TypeError):
            integrate(lambda _: samples, 0.0, 1.0, spec)
