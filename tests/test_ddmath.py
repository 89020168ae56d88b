"""Double-double arithmetic against mpmath and exactness properties."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcrevival import ddmath, special
from jcrevival.ddmath import CDD, DD

mp.mp.dps = 50

finite_floats = st.floats(min_value=-1e15, max_value=1e15,
                          allow_nan=False, allow_infinity=False)


def as_mp(x: DD):
    return mp.mpf(float(x.hi)) + mp.mpf(float(x.lo))


@given(finite_floats, finite_floats)
def test_two_sum_exact(a, b):
    s, e = ddmath._two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


# two_prod is exact only while neither the product nor its error term
# leaves the normal range; keep magnitudes well inside it
_prod_safe = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-140, max_value=1e140),
    st.floats(min_value=-1e140, max_value=-1e-140))


@given(_prod_safe, _prod_safe)
def test_two_prod_exact(a, b):
    p, e = ddmath._two_prod(a, b)
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


@given(finite_floats, finite_floats, finite_floats)
@settings(max_examples=50)
def test_add_mul_accuracy(a, b, c):
    got = as_mp(DD(a) * DD(b) + DD(c))
    want = mp.mpf(a) * mp.mpf(b) + mp.mpf(c)
    assert abs(got - want) <= abs(want) * 1e-30 + 1e-300


def test_division_reciprocal():
    x = DD(1.0) / DD(3.0)
    assert abs(as_mp(x) - mp.mpf(1) / 3) < 1e-32


@pytest.mark.parametrize("fn,mfn,points,rtol", [
    (ddmath.exp, mp.exp, [-30.0, -1.0, 1e-8, 0.5, 30.0, 250.0], 1e-29),
    (ddmath.log, mp.log, [1e-6, 0.5, 1.0, 2.0, 1e6], 1e-29),
    (ddmath.sqrt, mp.sqrt, [1e-6, 0.49, 2.0, 12345.678, 1e8], 1e-30),
    (ddmath.sinh, mp.sinh, [1e-9, 0.099, 0.5, 3.0, 200.0], 1e-28),
    (ddmath.cosh, mp.cosh, [0.0, 0.5, 3.0, 200.0], 1e-28),
])
def test_elementary_vs_mpmath(fn, mfn, points, rtol):
    for x in points:
        got = as_mp(fn(DD(x)))
        want = mfn(mp.mpf(x))
        assert abs(got - want) <= abs(want) * rtol, (fn.__name__, x)


def test_sincos_vs_mpmath(rng):
    xs = np.concatenate([rng.uniform(-400, 400, 60), [0.0, 1e-9, math.pi]])
    for x in xs:
        s, c = ddmath.sincos(DD(float(x)))
        assert abs(as_mp(s) - mp.sin(mp.mpf(float(x)))) < 3e-29
        assert abs(as_mp(c) - mp.cos(mp.mpf(float(x)))) < 3e-29


def test_atan2_quadrants(rng):
    for _ in range(40):
        x, y = rng.uniform(-5, 5, 2)
        got = as_mp(ddmath.atan2(DD(float(y)), DD(float(x))))
        assert abs(got - mp.atan2(mp.mpf(float(y)), mp.mpf(float(x)))) < 1e-31


# The checks below cover the arguments the integral families pass: phases
# of a few hundred radians and more, exponents across the double range, and
# log/atan2 of the Lanczos terms.  Each keeps the tolerance of its narrower
# check above.

def _pairs(x: DD):
    return [DD(h, l) for h, l in zip(np.ravel(x.hi), np.ravel(x.lo))]


def test_sincos_vs_mpmath_up_to_2e3(rng):
    xs = np.concatenate([rng.uniform(-2e3, 2e3, 150), [2e3, -2e3],
                         rng.choice([-1.0, 1.0], 50) * 10 ** rng.uniform(-9, 3.3, 50)])
    s, c = ddmath.sincos(DD(xs))
    for x, si, ci in zip(xs, _pairs(s), _pairs(c)):
        assert abs(as_mp(si) - mp.sin(mp.mpf(x))) < 3e-29, x
        assert abs(as_mp(ci) - mp.cos(mp.mpf(x))) < 3e-29, x


def test_exp_vs_mpmath_over_the_double_range(rng):
    # below about -678 the low word is subnormal; 2^-1074 is its spacing
    xs = np.concatenate([rng.uniform(-745.0, 709.0, 200),
                         [-745.0, -700.0, -1e-12, 1e-12, 709.0]])
    for x, got in zip(xs, _pairs(ddmath.exp(DD(xs)))):
        want = mp.exp(mp.mpf(x))
        assert abs(as_mp(got) - want) <= abs(want) * 1e-29 + 2.0 ** -1074, x


def test_log_vs_mpmath_from_1e_minus_300_to_1e300(rng):
    xs = np.concatenate([10 ** rng.uniform(-300.0, 300.0, 200),
                         [1e-300, 1e300, 0.75, 1.25]])
    for x, got in zip(xs, _pairs(ddmath.log(DD(xs)))):
        want = mp.log(mp.mpf(x))
        assert abs(as_mp(got) - want) <= abs(want) * 1e-29, x


def test_atan2_all_quadrants_at_magnitudes_1e_minus_8_to_1e8(rng):
    n = 200
    x = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-8.0, 8.0, n)
    y = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-8.0, 8.0, n)
    for xi, yi, got in zip(x, y, _pairs(ddmath.atan2(DD(y), DD(x)))):
        assert abs(as_mp(got) - mp.atan2(mp.mpf(yi), mp.mpf(xi))) < 1e-31, (xi, yi)


def test_complex_exp_log_roundtrip_across_the_plane(rng):
    # |e^z|^2 must not overflow, so Re z stays within +-300; the real part
    # comes back as ln(e^{2 Re z})/2, good to 1e-30 of max(|Re z|, 1)
    re = rng.uniform(-300.0, 300.0, 100)
    im = rng.uniform(-3.1, 3.1, 100)
    back = ddmath.clog(ddmath.cexp(CDD(DD(re), DD(im))))
    for x, y, got_re, got_im in zip(re, im, _pairs(back.re), _pairs(back.im)):
        assert abs(as_mp(got_re) - mp.mpf(x)) < 1e-30 * max(abs(x), 1.0), x
        assert abs(as_mp(got_im) - mp.mpf(y)) < 1e-30, y


def test_dd_of_an_array_spreads_its_low_word():
    # odd and even lengths: the default lo is 0-d until spread to hi's shape
    for n in (3, 4):
        x = DD(np.arange(float(n)))
        assert x.lo.shape == x.hi.shape == (n,)
        total = ddmath.dd_sum(x)
        assert float(total.hi) == n * (n - 1) / 2 and float(total.lo) == 0.0
        assert special.compensated_sum(x) == n * (n - 1) / 2


def test_log_edges_match_numpy_without_warnings():
    xs = np.array([0.0, -0.0, -1.0, -np.inf, np.inf, np.nan, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            got = ddmath.log(DD(xs))
            zero = ddmath.log(DD(0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.log(xs)
    np.testing.assert_array_equal(got.hi[:-1], want[:-1])
    assert abs(as_mp(DD(got.hi[-1], got.lo[-1])) - mp.log(2)) < 1e-31
    assert float(zero.hi) == -math.inf


def _quietly(fn):
    """fn() with every floating-point flag and warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            return fn()


def test_sqrt_edges_match_numpy_without_warnings():
    xs = np.array([0.0, -0.0, -1.0, -np.inf, np.inf, np.nan, 4.0])
    got = _quietly(lambda: ddmath.sqrt(DD(xs)))
    with np.errstate(invalid="ignore"):
        want = np.sqrt(xs)
    np.testing.assert_array_equal(got.hi, want)


def test_sqrt_vs_mpmath_from_1e_minus_320_to_1e300(rng):
    # the refinement squares the root, so the tiny ones are lifted first
    xs = np.concatenate([10 ** rng.uniform(-320.0, 300.0, 100),
                         [5e-324, 1e-300, 1e-200, 1e200, 1e300]])
    for x, got in zip(xs, _pairs(_quietly(lambda: ddmath.sqrt(DD(xs))))):
        want = mp.sqrt(mp.mpf(x))
        assert abs(as_mp(got) - want) <= want * 1e-30, x


@pytest.mark.parametrize("v", [1e200, -1e200, 1e-200, 1e300, -1e300, 1e-300])
def test_kernels_that_square_where_squares_leave_the_double_range(v):
    # no pair holds a value to better than 2^-1074 absolute: the relative
    # tolerance gains 2^-1074 / |z| for a tiny input, the absolute one a few
    # 2^-1074 for a tiny result
    def as_mpc(z):
        return mp.mpc(as_mp(z.re), as_mp(z.im))

    def close(got, want, rel):
        return abs(got - want) <= rel * abs(want) + 2.0 ** -1072

    for re, im in ((v, 0.0), (0.0, v), (v, 1.0), (1.0, v), (v, -0.5 * v),
                   (0.6 * v, 0.8 * v)):
        z = CDD(DD(re), DD(im))
        h, lg, sq, inv = _quietly(lambda: (
            ddmath.hypot(z.re, z.im), ddmath.clog(z), ddmath.csqrt(z),
            CDD(DD(2.0), DD(-1.0)) / z))
        w = mp.mpc(re, im)
        rel = 1e-30 + 2.0 ** -1074 / abs(w)
        assert close(as_mp(h), abs(w), rel), (re, im)
        # ln|z| moves by the relative error of |z|, so the log's scale is 1
        assert abs(as_mpc(lg) - mp.log(w)) <= rel * max(abs(mp.log(w)), 1), (re, im)
        assert close(as_mpc(sq), mp.sqrt(w), rel), (re, im)
        assert close(as_mpc(inv), (2 - 1j) / w, rel), (re, im)
    # the values the squares lost before: 0.0, NaN and -inf
    np.testing.assert_allclose(
        _quietly(lambda: ddmath.clog(CDD(DD(v), DD(0.0))).to_complex()),
        np.log(complex(v)), rtol=1e-15)


def test_vectorized_matches_scalar():
    xs = np.array([0.3, 1.7, -2.5])
    vec = ddmath.exp(DD(xs))
    for i, x in enumerate(xs):
        one = ddmath.exp(DD(float(x)))
        assert vec.hi[i] == float(one.hi) and vec.lo[i] == float(one.lo)


def test_dd_sum_pairwise_deterministic_and_accurate():
    ks = np.arange(1, 100001, dtype=float)
    inv = DD(1.0) / DD(ks)
    s1 = ddmath.dd_sum(inv)
    s2 = ddmath.dd_sum(inv)
    assert float(s1.hi) == float(s2.hi) and float(s1.lo) == float(s2.lo)
    want = mp.nsum(lambda k: 1 / k, [1, 100000])
    assert abs(as_mp(s1) - want) < 1e-30


def test_mixed_kind_promotion():
    x = DD(2.0) + 1.0
    assert isinstance(x, DD)
    z = CDD(DD(1.0), DD(2.0)) + (3.0 + 4.0j)
    assert isinstance(z, CDD)
    assert z.to_complex() == 4.0 + 6.0j
    w = DD(2.0) * CDD(DD(1.0), DD(1.0))
    assert isinstance(w, CDD)
    assert w.to_complex() == 2.0 + 2.0j


def test_complex_exp_log_roundtrip():
    z = CDD(DD(0.7), DD(-1.9))
    back = ddmath.clog(ddmath.cexp(z))
    assert abs(float(back.re.to_float()) - 0.7) < 1e-30
    assert abs(float(back.im.to_float()) + 1.9) < 1e-30


def test_csqrt_branch_matches_numpy():
    zs = np.array([-1 + 0j, 4 + 0j, 1j, -4 + 3j, -4 - 3j, 2 - 5j])
    got = ddmath.csqrt(CDD(DD(zs.real.copy()), DD(zs.imag.copy()))).to_complex()
    np.testing.assert_allclose(got, np.sqrt(zs), rtol=1e-15)


def test_exp_extremes():
    assert float(ddmath.exp(DD(-800.0)).hi) == 0.0
    assert math.isinf(float(ddmath.exp(DD(710.0)).hi))
