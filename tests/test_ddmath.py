"""Double-double arithmetic against mpmath and exactness properties."""

import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

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


def test_products_past_the_split_threshold_vs_mpmath(rng):
    # factors above 2^996, where Dekker's split constant times the factor
    # overflows, beside in-range ones, in either operand
    big = np.concatenate([[3e300, -1.7e308, 2.0 ** 996 * 1.5],
                          10 ** rng.uniform(299.9, 308.2, 20)])
    small = np.concatenate([[1.0, 0.5, -1e-300], rng.uniform(-1.0, 1.0, 20)])
    a = DD(big, big * 2.0 ** -60)
    b = DD(small) / DD(3.0)
    for got in _quietly(lambda: (a * b, b * a)):
        for x, y, g in zip(_pairs(a), _pairs(b), _pairs(got)):
            want = as_mp(x) * as_mp(y)
            assert abs(as_mp(g) - want) <= abs(want) * 1e-31, (x.hi, y.hi)
    z = CDD(DD(3e300), DD(-4e300))
    lg, sq = _quietly(lambda: (ddmath.clog(z), ddmath.csqrt(z)))
    w = mp.mpc(3e300, -4e300)
    assert abs(mp.mpc(as_mp(lg.re), as_mp(lg.im)) - mp.log(w)) <= 1e-30 * abs(mp.log(w))
    assert abs(mp.mpc(as_mp(sq.re), as_mp(sq.im)) - mp.sqrt(w)) <= 1e-30 * abs(mp.sqrt(w))


def test_infinite_and_overflowing_products_match_numpy():
    x = np.array([np.inf, -np.inf, 3e300, np.inf, 2.0, np.nan])
    y = np.array([2.0, 3.0, 1e10, 0.0, 4.0, 1.0])
    got = _quietly(lambda: DD(x) * DD(y))
    with np.errstate(over="ignore", invalid="ignore"):
        want = x * y
    np.testing.assert_array_equal(got.hi, want)
    assert np.all(got.lo[np.isinf(want)] == 0.0)


def test_hypot_of_an_infinite_part_is_inf():
    x = np.array([np.inf, 0.0, -np.inf, np.inf, np.nan, 1e300, 3.0])
    y = np.array([0.0, -np.inf, 1e-300, np.nan, np.inf, np.inf, 4.0])
    got = _quietly(lambda: ddmath.hypot(DD(x), DD(y)))
    np.testing.assert_array_equal(got.hi, np.hypot(x, y))


def test_vectorized_matches_scalar(rng):
    xs = np.concatenate([[0.3, 1.7, -2.5, 0.0, -0.0, 1e-300],
                         rng.uniform(-700.0, 700.0, 30)])
    x = DD(xs, xs * 1e-17)
    vec = [ddmath.exp(x), *ddmath.sincos(x)]
    for i, (h, l) in enumerate(zip(xs, xs * 1e-17)):
        one = [ddmath.exp(DD(h, l)), *ddmath.sincos(DD(h, l))]
        for v, scalar in zip(vec, one):
            assert v.hi[i] == scalar.hi and v.lo[i] == scalar.lo, h


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


# The table-driven exp and sincos: tables, reductions and edges.

def test_exp_table_vs_mpmath():
    table = ddmath._exp_table()
    for j in range(512):
        want = mp.power(2, mp.mpf(j) / 512)
        assert abs(as_mp(DD(*table[:, j])) / want - 1) < 2.5e-32, j


def test_sincos_table_vs_mpmath():
    sin_t, cos_t = ddmath._sincos_table()
    for j in range(1024):
        x = j * mp.pi / 512
        assert abs(as_mp(DD(*sin_t[:, j])) - mp.sin(x)) < 2e-32, j
        assert abs(as_mp(DD(*cos_t[:, j])) - mp.cos(x)) < 2e-32, j


def test_exp_vs_mpmath_to_4e_32_from_minus_600_to_709(rng):
    xs = np.concatenate([rng.uniform(-600.0, 709.0, 400), [-600.0, 709.0]])
    for x, got in zip(xs, _pairs(ddmath.exp(DD(xs)))):
        assert abs(as_mp(got) / mp.exp(mp.mpf(x)) - 1) < 4e-32, x


def test_sincos_vs_mpmath_to_3e_32_up_to_2e3(rng):
    xs = np.concatenate([rng.uniform(-2e3, 2e3, 400), [2e3, -2e3, 0.0]])
    s, c = ddmath.sincos(DD(xs))
    for x, si, ci in zip(xs, _pairs(s), _pairs(c)):
        assert abs(as_mp(si) - mp.sin(mp.mpf(x))) < 3e-32, x
        assert abs(as_mp(ci) - mp.cos(mp.mpf(x))) < 3e-32, x


def _around(step, ns):
    """Doubles one ulp either side of n step, and either side of the
    rounding boundary (n + 1/2) step, for each n."""
    xs = []
    for n in ns:
        for centre in (n * step, (n + mp.mpf(0.5)) * step):
            x = float(centre)
            xs += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
    return np.array(xs)


def test_reductions_at_and_between_the_table_points():
    # n = 511 -> 512 wraps j to 0 and carries into m; -513 -> -512 back
    ns = [-400000, -513, -512, -1, 0, 1, 255, 511, 512, 1023, 1024, 300000]
    xs = _around(mp.log(2) / 512, ns)
    n = np.round(xs * (512 / ddmath.LN2[0]))
    assert {511, 512, -513, -512} <= set(n)
    for x, got in zip(xs, _pairs(ddmath.exp(DD(xs)))):
        assert abs(as_mp(got) / mp.exp(mp.mpf(x)) - 1) < 4e-32, x
    # n stays below 2^27, where n times the first part of pi/512 is exact
    xs = _around(mp.pi / 512, [n for n in ns if abs(n) < 2e5] + [-1023, -1024,
                                                                 2 ** 27 - 1])
    s, c = ddmath.sincos(DD(xs))
    for x, si, ci in zip(xs, _pairs(s), _pairs(c)):
        assert abs(as_mp(si) - mp.sin(mp.mpf(x))) < 3e-32, x
        assert abs(as_mp(ci) - mp.cos(mp.mpf(x))) < 3e-32, x


def test_exp_and_sincos_edges_match_numpy_without_warnings():
    xs = np.array([np.nan, np.inf, -np.inf, 709.8, 710.0, -745.0, -746.0, 1.0])
    got = _quietly(lambda: ddmath.exp(DD(xs)))
    with np.errstate(over="ignore", under="ignore"):
        want = np.exp(xs)
    np.testing.assert_array_equal(got.hi[:-1], want[:-1])
    assert abs(as_mp(DD(got.hi[-1], got.lo[-1])) - mp.e) < 1e-31
    # past 2^18 pi, n pi/512 is no longer formed exactly
    far = DD([np.nan, np.inf, -np.inf, 2.0 ** 18 * math.pi])
    s, c = _quietly(lambda: ddmath.sincos(far))
    assert np.isnan(s.hi).all() and np.isnan(c.hi).all()
    s, c = _quietly(lambda: ddmath.sincos(DD(np.nan)))
    assert math.isnan(s.hi) and math.isnan(c.hi)


def test_infinite_parts_in_clog_csqrt_and_division_match_numpy():
    # the last lane is finite and keeps the pair's precision
    x = np.array([np.inf, -np.inf, 3.0, np.inf, -np.inf, np.nan, 0.0, 2.0])
    y = np.array([0.0, 0.0, np.inf, -np.inf, np.nan, np.inf, -np.inf, 1.0])
    z, w = CDD(DD(x), DD(y)), ddmath._complex(x, y)
    one = CDD(DD(1.0))
    for kernel, np_fn, mp_fn in (
            (lambda: ddmath.clog(z), np.log, mp.log),
            (lambda: ddmath.csqrt(z), np.sqrt, mp.sqrt),
            (lambda: one / z, lambda u: 1.0 / u, lambda u: 1 / u),
            (lambda: z / one, lambda u: u / 1.0, lambda u: u)):
        got = _quietly(kernel)
        with np.errstate(all="ignore"):
            want = np_fn(w)
        np.testing.assert_array_equal(got.re.hi[:-1], want.real[:-1])
        np.testing.assert_array_equal(got.im.hi[:-1], want.imag[:-1])
        last = mp.mpc(as_mp(_pairs(got.re)[-1]), as_mp(_pairs(got.im)[-1]))
        assert abs(last - mp_fn(mp.mpc(2, 1))) < 1e-31
    z = CDD(DD(np.inf), DD(0.0))
    assert _quietly(lambda: ddmath.clog(z).to_complex()) == np.inf


def test_cexp_on_the_real_axis_matches_numpy():
    # where y is zero, e^x's overflow or infinity must not meet sin 0 = 0
    x = np.array([800.0, np.inf, -np.inf, np.nan, 1.0, -800.0, -np.inf, 800.0])
    y = np.array([0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 1.0])
    got = _quietly(lambda: ddmath.cexp(CDD(DD(x), DD(y))))
    with np.errstate(all="ignore"):
        want = np.exp(ddmath._complex(x, y))
    for part, np_part in ((got.re.hi, want.real), (got.im.hi, want.imag)):
        np.testing.assert_array_equal(part, np_part)
        np.testing.assert_array_equal(np.signbit(part), np.signbit(np_part))
    z = _quietly(lambda: ddmath.cexp(CDD(DD(np.inf), DD(0.0))).to_complex())
    assert (z.real, z.imag) == (np.inf, 0.0)


def test_to_float_keeps_the_sign_of_zero():
    assert np.signbit(DD(-0.0).to_float())
    np.testing.assert_array_equal(np.signbit(DD([-0.0, 0.0, -1.0]).to_float()),
                                  [True, False, True])
    got = _quietly(lambda: (CDD(DD(2.0), DD(1.0))
                            / CDD(DD(-np.inf), DD(0.0))).to_complex())
    with np.errstate(all="ignore"):
        want = complex(2.0, 1.0) / ddmath._complex(-np.inf, 0.0)
    assert got == want == 0.0
    assert (np.signbit(got.real), np.signbit(got.imag)) == (
        np.signbit(want.real), np.signbit(want.imag)) == (True, True)


def test_tables_are_built_only_by_a_run_that_needs_them(tmp_path):
    # a standard-kind run never reaches the double-double exp or sincos
    out = tmp_path / "o.csv"
    code = (
        "from jcrevival import cli, ddmath\n"
        "cli.main(['integrals', '--alpha', '4', '--t-end', '1.0', '--t-steps', '2',"
        f" '--jobs', '1', '--out', {str(out)!r}])\n"
        "sizes = lambda: [t.cache_info().currsize for t in"
        " (ddmath._exp_table, ddmath._sincos_table)]\n"
        "before = sizes()\n"
        "ddmath.exp(ddmath.DD(1.0)), ddmath.sincos(ddmath.DD(1.0))\n"
        "print(before, sizes())\n")
    src = str(Path(ddmath.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert run.stdout.strip() == "[0, 0] [1, 1]"
    assert sum(line[0].isdigit() for line in out.read_text().splitlines()) == 3
