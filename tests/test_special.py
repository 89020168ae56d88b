"""The Lanczos gamma kit and branch-safe complex helpers."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jcrevival import ddmath, special
from jcrevival.ddmath import CDD, DD


def test_log_gamma_at_one_and_half():
    assert abs(special.log_gamma(1.0)) < 2e-10
    assert abs(special.log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 2e-10


def test_log_gamma_modulus_identity_at_1_plus_i():
    # |Gamma(1+i)| = sqrt(pi / sinh(pi))
    val = np.exp(special.log_gamma(1 + 1j))
    want = math.sqrt(math.pi / math.sinh(math.pi))
    assert abs(abs(val) - want) < 1e-10 * want


def test_modulus_identity_across_y():
    # |1/Gamma(1+iy)|^2 * pi y / sinh(pi y) = 1, limited by the inherent
    # Lanczos series error of ~2e-10
    y = np.linspace(1e-3, 50.0, 2000)
    r = special.reciprocal_gamma(1.0 + 1j * y)
    with np.errstate(over="ignore"):
        scaled = np.abs(r) ** 2 * np.pi * y / np.sinh(np.pi * y)
    mask = np.isfinite(scaled)  # sinh overflows past y ~ 225, far off grid
    assert mask.all()
    assert np.abs(scaled - 1.0).max() < 1e-9


def test_reciprocal_gamma_trivial_points():
    assert special.reciprocal_gamma(1.0 + 0j) == pytest.approx(1.0, abs=2e-10)
    got = special.reciprocal_gamma(1.0 + 1j)
    assert abs(abs(got) - math.sqrt(math.sinh(math.pi) / math.pi)) < 1e-9
    # the poles, and the rest of Re z <= 0, lie off its half-plane
    for z in (0.0, -1.0 + 0j, np.array([2.0, -0.5 + 1j]), 1j):
        with pytest.raises(ValueError, match=r"requires Re\(z\) > 0$"):
            special.reciprocal_gamma(z)
    # past the double range it refuses, with no numpy overflow warning first
    with pytest.raises(OverflowError, match="argument too large"):
        special.reciprocal_gamma(1.0 + 500j)


def test_log_gamma_rejects_left_half_plane():
    with pytest.raises(ValueError):
        special.log_gamma(-1.0 + 2j)
    with pytest.raises(ValueError):
        special.log_gamma(0.0 + 1j)


@given(st.floats(min_value=0.5, max_value=10.0),
       st.floats(min_value=-10.0, max_value=10.0))
@settings(max_examples=80)
def test_log_gamma_recurrence(re, im):
    z = complex(re, im)
    resid = special.log_gamma(z + 1.0) - special.log_gamma(z) - np.log(z)
    assert abs(resid) < 1e-9


def test_conjugate_symmetry(rng):
    zs = rng.uniform(0.2, 8.0, 60) + 1j * rng.uniform(-8.0, 8.0, 60)
    a = special.reciprocal_gamma(np.conj(zs))
    b = np.conj(special.reciprocal_gamma(zs))
    assert np.max(np.abs(a - b) / np.abs(b)) < 3e-16


def test_principal_sqrt_branch():
    assert special.principal_sqrt(4.0) == pytest.approx(2.0)
    assert special.principal_sqrt(1j) == pytest.approx((1 + 1j) / math.sqrt(2))
    assert special.principal_sqrt(-1.0) == pytest.approx(1j)  # not -1j


def test_principal_sqrt_roundtrip(rng):
    z = rng.uniform(-50, 50, 10000) + 1j * rng.uniform(-50, 50, 10000)
    r = special.principal_sqrt(z)
    assert np.all(r.real >= 0.0)
    assert np.max(np.abs(r * r - z) / np.abs(z)) < 4 * np.finfo(float).eps


@pytest.mark.parametrize("extended", [False, True], ids=["standard", "extended"])
def test_kind_primitives_keep_the_kind_and_agree_with_numpy(extended):
    x = np.array([0.0, 0.3, 1.7, 12.5, 40.0])
    y = np.array([0.5, -2.0, 3.25, 0.0, 7.0])
    arg = DD(x) if extended else x
    arg_y = DD(y) if extended else y

    def check(got, want, kind):
        assert isinstance(got, kind)
        if isinstance(got, CDD):
            got = got.to_complex()
        elif isinstance(got, DD):
            got = got.to_float()
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)

    real, cplx = (DD, CDD) if extended else (np.ndarray, np.ndarray)
    check(special.exp(arg), np.exp(x), real)
    s, c = special.sincos(arg)
    check(s, np.sin(x), real)
    check(c, np.cos(x), real)
    z = special.complex_of(arg, arg_y)
    check(z, x + 1j * y, cplx)
    check(special.complex_of(2.0, arg_y), 2.0 + 1j * y, cplx)
    check(special.exp(z), np.exp(x + 1j * y), cplx)
    two_pi = special.in_kind(ddmath.TWO_PI, arg)
    check(two_pi, 2.0 * np.pi, DD if extended else float)
    if extended:
        assert z.real is z.re and z.imag is z.im
        assert two_pi.lo == ddmath.TWO_PI[1]


def test_extended_matches_standard_to_15_digits():
    for z in (1 + 1j, 2.5 - 3j, 0.3 + 0.1j, 7.0 + 0j):
        std = special.log_gamma(z)
        ext = special.log_gamma(CDD.coerce(z)).to_complex()
        assert abs(std - ext) <= 5e-15 * max(abs(std), 1.0)


def test_reciprocal_gamma_refuses_the_extended_kind():
    for z in (DD(0.5), DD(np.array([-0.5, 2.0])), CDD(DD(-0.5), DD(1.0))):
        with pytest.raises(TypeError):
            special.reciprocal_gamma(z)


def test_reciprocal_gamma_vs_mpmath_on_the_right_half_plane(rng):
    # what is left is the Lanczos series error of ln Gamma(z)
    re = np.concatenate([rng.uniform(0.01, 10.0, 200), np.arange(1.0, 11.0)])
    im = np.concatenate([rng.uniform(-3.0, 3.0, 200), np.zeros(10)])
    got = special.reciprocal_gamma(re + 1j * im)
    for zr, zi, g in zip(re, im, got):
        want = mp.rgamma(mp.mpc(zr, zi))
        assert abs(complex(want) - g) <= 1e-10 * abs(want), (zr, zi)


def test_lanczos_coefficients_are_the_published_set():
    coeffs = [hi for hi, _ in special._LANCZOS_PAIRS]
    assert special.LANCZOS_G == 5.0
    assert coeffs[0] == 1.000000000190015
    assert coeffs[1] == 76.18009172947146
    assert coeffs[6] == -0.5395239384953e-5
    assert len(coeffs) == 7


def test_euler_gamma_value():
    assert special.EULER_GAMMA == pytest.approx(0.577215664901532860, abs=1e-15)


def test_extended_log_gamma_on_the_imaginary_line_is_the_lanczos_sum():
    # the same Lanczos sum in mpmath at 50 digits: what is left is the
    # extended kind's roundoff, relative to max(|ln Gamma|, 1) since
    # ln Gamma(1) is only the series error
    y = np.linspace(0.0, 400.0, 201)
    got = special.log_gamma(special.complex_of(1.0, DD(y)))
    with mp.workdps(50):
        coeffs = [mp.mpf(hi) + mp.mpf(lo) for hi, lo in special._LANCZOS_PAIRS]
        for i, yi in enumerate(y):
            z = mp.mpc(1.0, yi)
            series, den = coeffs[0], z
            for c in coeffs[1:]:
                den += 1
                series += c / den
            shifted = z + special.LANCZOS_G + 0.5
            want = ((z + 0.5) * mp.log(shifted) - shifted
                    + mp.log(mp.sqrt(2 * mp.pi)) + mp.log(series) - mp.log(z))
            have = mp.mpc(mp.mpf(got.re.hi[i]) + mp.mpf(got.re.lo[i]),
                          mp.mpf(got.im.hi[i]) + mp.mpf(got.im.lo[i]))
            assert abs(have - want) <= 1e-28 * max(abs(want), 1), yi


@st.composite
def cancelling_terms(draw):
    """Terms in [0.5, 1] shuffled among planted pairs +-p that cancel
    exactly; the pairs' magnitudes put sum|x| / |sum x| anywhere in
    [1, 1e15]."""
    small = draw(st.lists(st.floats(0.5, 1.0), min_size=1, max_size=15))
    shape = draw(st.lists(st.floats(0.01, 1.0), min_size=0, max_size=15))
    ratio = 10.0 ** draw(st.floats(0.0, 15.0))
    if shape:
        scale = (ratio - 1.0) * math.fsum(small) / (2.0 * math.fsum(shape))
        big = [s * scale for s in shape]
        small = small + big + [-b for b in big]
    return draw(st.permutations(small))


def _within_one_ulp(got: float, want) -> bool:
    return abs(Fraction(got) - Fraction(want)) <= Fraction(math.ulp(float(want)))


@given(cancelling_terms())
# twelve terms: a DD's twelve zero low words once raised 2^m from 16 to 32
# and moved the sum by one ulp from the float64 kind's
@example([0.75, 0.96875, 0.6342715452543591, 0.5602260863110488]
         + [5.956094503152177e-15] * 3 + [1.8612795322350554e-15]
         + [-5.956094503152177e-15] * 3 + [-1.8612795322350554e-15])
@settings(max_examples=200, deadline=None)
def test_compensated_sum_holds_planted_cancellation(terms):
    x = np.array(terms)
    total = special.compensated_sum(x)
    assert _within_one_ulp(total, sum(map(Fraction, terms)))
    assert _within_one_ulp(total, math.fsum(terms))
    # AccSum is deterministic: bit-identical on repeat and in either kind
    assert special.compensated_sum(x.copy()).hex() == total.hex()
    assert special.compensated_sum(DD(x)).hex() == total.hex()


def test_compensated_sum_of_no_one_and_an_odd_count_of_terms():
    assert special.compensated_sum(np.array([])) == 0.0
    assert special.compensated_sum(DD(np.array([]))) == 0.0
    assert special.compensated_sum(np.array([2.5])) == 2.5
    assert special.compensated_sum(np.array([1e16, 1.0, -1e16])) == 1.0
    assert special.compensated_sum(np.array([1e16, 1.0, -1e16, 3.0, 0.5])) == 4.5


def _faithful(got: float, words) -> bool:
    """got is the exact sum of words when that is a double, else one of
    the two doubles around it."""
    exact = sum(map(Fraction, words), Fraction(0))
    near = float(exact)  # correctly rounded
    if Fraction(near) == exact:
        return got == near
    return got in (near, math.nextafter(near, math.inf if exact > near else -math.inf))


def _cancelling(rng, small, ratio):
    """small shuffled among words that sum to zero exactly: each b of
    magnitude ratio * sum|small| is joined by -fl(0.75 b) and the exact
    -(b - fl(0.75 b)), so no word is the negative of another."""
    big = rng.uniform(0.01, 1.0, small.size) * ratio * np.sum(np.abs(small))
    x = np.concatenate([small, big, -0.75 * big, -(big - 0.75 * big)])
    return rng.permutation(x)


@pytest.mark.parametrize("ratio", [1e10, 1e25])
def test_compensated_sum_is_faithful_under_planted_cancellation(ratio):
    rng = np.random.default_rng(int(math.log10(ratio)))
    for n in (1, 7, 300, 2000):
        x = _cancelling(rng, rng.standard_normal(n), ratio)
        assert _faithful(special.compensated_sum(x), x), n


def test_compensated_sum_is_faithful_over_600_binades():
    rng = np.random.default_rng(600)
    for _ in range(20):
        x = rng.standard_normal(500) * 2.0 ** rng.integers(-300, 300, 500)
        assert _faithful(special.compensated_sum(x), x)
        # with words 1e10 times larger that cancel exactly
        x = _cancelling(rng, x, 1e10)
        assert _faithful(special.compensated_sum(x), x)


def test_compensated_sum_of_zeros_and_of_one_nonzero_term():
    for kind in (np.asarray, DD):
        assert special.compensated_sum(kind(np.array([]))) == 0.0
        assert special.compensated_sum(kind(np.zeros(6))) == 0.0
        for value in (-3.7e-200, 5e-324, 1.5e300):
            x = np.zeros(9)
            x[4] = value
            assert special.compensated_sum(kind(x)) == value


def test_compensated_sum_of_pairs_is_the_sum_of_their_words():
    assert special.compensated_sum(DD([1e16, -1e16], [1.0, 0.5])) == 1.5
    rng = np.random.default_rng(2)
    hi = _cancelling(rng, rng.standard_normal(200), 1e20)
    lo = hi * rng.uniform(-1.1e-16, 1.1e-16, hi.size)
    assert _faithful(special.compensated_sum(DD(hi, lo)), [*hi, *lo])


def test_compensated_sum_scales_terms_near_the_overflow_threshold():
    # 2^m 2^ceil(log2 max|x|) overflows here without the power-of-two scale
    rng = np.random.default_rng(1020)
    big = rng.uniform(0.5, 1.0, 40) * 2.0 ** 1020
    x = rng.permutation(np.concatenate([
        [2.0 ** 1021], big, -0.75 * big, -(big - 0.75 * big),
        rng.standard_normal(30) * 2.0 ** 900]))
    total = special.compensated_sum(x)
    assert math.isfinite(total) and _faithful(total, x)


def test_compensated_sum_of_the_harmonic_pairs():
    inv = DD(1.0) / DD(np.arange(1.0, 100001.0))
    total = special.compensated_sum(inv)
    assert special.compensated_sum(inv).hex() == total.hex()
    with mp.workdps(40):
        assert abs(mp.mpf(total) - mp.harmonic(100000)) <= math.ulp(total)
