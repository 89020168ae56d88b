"""The Lanczos gamma kit and branch-safe complex helpers."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcrevival import special
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
    poles = special.reciprocal_gamma(np.array([0.0 + 0j, -1.0 + 0j, -2.0 + 0j]))
    assert np.all(poles == 0.0)
    got = special.reciprocal_gamma(1.0 + 1j)
    assert abs(abs(got) - math.sqrt(math.sinh(math.pi) / math.pi)) < 1e-9


def test_reciprocal_gamma_reflection_negative_half():
    # Gamma(-1/2) = -2 sqrt(pi)
    got = special.reciprocal_gamma(-0.5 + 0j)
    assert got == pytest.approx(-1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-9)


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
    check(special.sqrt(arg), np.sqrt(x), real)
    check(special.cos(arg), np.cos(x), real)
    s, c = special.sincos(arg)
    check(s, np.sin(x), real)
    check(c, np.cos(x), real)
    z = special.complex_of(arg, arg_y)
    check(z, x + 1j * y, cplx)
    check(special.complex_of(2.0, arg_y), 2.0 + 1j * y, cplx)
    check(special.exp(z), np.exp(x + 1j * y), cplx)
    if extended:
        assert z.real is z.re and z.imag is z.im


def test_extended_matches_standard_to_15_digits():
    for z in (1 + 1j, 2.5 - 3j, 0.3 + 0.1j, 7.0 + 0j):
        std = special.log_gamma(z)
        ext = special.log_gamma(CDD.coerce(z)).to_complex()
        assert abs(std - ext) <= 5e-15 * max(abs(std), 1.0)


def test_reciprocal_gamma_refuses_the_extended_kind():
    for z in (DD(0.5), DD(np.array([-0.5, 2.0])), CDD(DD(-0.5), DD(1.0))):
        with pytest.raises(TypeError):
            special.reciprocal_gamma(z)


def test_reciprocal_gamma_reflection_vs_mpmath(rng):
    # Re z <= 0 takes the reflection; the poles come out as exact zeros.
    # What is left is the Lanczos series error of ln Gamma(1 - z).
    re = np.concatenate([rng.uniform(-10.0, 0.0, 200), np.arange(-10.0, 0.5),
                         np.arange(-9.5, 0.0)])
    im = np.concatenate([rng.uniform(-3.0, 3.0, 200), np.zeros(21)])
    got = special.reciprocal_gamma(re + 1j * im)
    for zr, zi, g in zip(re, im, got):
        if zi == 0.0 and zr == round(zr):
            assert g == 0.0, zr
            continue
        want = mp.rgamma(mp.mpc(zr, zi))
        assert abs(complex(want) - g) <= 1e-10 * abs(want), (zr, zi)


def test_lanczos_coefficients_are_the_published_set():
    assert special.LANCZOS_G == 5.0
    assert special.LANCZOS_COEFFS[0] == 1.000000000190015
    assert special.LANCZOS_COEFFS[1] == 76.18009172947146
    assert special.LANCZOS_COEFFS[6] == -0.5395239384953e-5
    assert len(special.LANCZOS_COEFFS) == 7


def test_euler_gamma_value():
    assert special.EULER_GAMMA == pytest.approx(0.577215664901532860, abs=1e-15)


def test_extended_log_gamma_on_the_imaginary_line_is_the_lanczos_sum():
    # the same Lanczos sum in mpmath at 50 digits: what is left is the
    # extended kind's roundoff, relative to max(|ln Gamma|, 1) since
    # ln Gamma(1) is only the series error
    y = np.linspace(0.0, 400.0, 201)
    got = special.log_gamma(special.complex_of(1.0, DD(y)))
    with mp.workdps(50):
        coeffs = [mp.mpf(hi) + mp.mpf(lo) for hi, lo in special._LANCZOS_DD]
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
@settings(max_examples=200, deadline=None)
def test_compensated_sum_holds_planted_cancellation(terms):
    x = np.array(terms)
    total = special.compensated_sum(x)
    assert _within_one_ulp(total, sum(map(Fraction, terms)))
    assert _within_one_ulp(total, math.fsum(terms))
    # one fixed tree: bit-identical on repeat and in either kind
    assert special.compensated_sum(x.copy()).hex() == total.hex()
    assert special.compensated_sum(DD(x)).hex() == total.hex()


def test_compensated_sum_of_no_one_and_an_odd_count_of_terms():
    assert special.compensated_sum(np.array([])) == 0.0
    assert special.compensated_sum(DD(np.array([]))) == 0.0
    assert special.compensated_sum(np.array([2.5])) == 2.5
    assert special.compensated_sum(np.array([1e16, 1.0, -1e16])) == 1.0
    assert special.compensated_sum(np.array([1e16, 1.0, -1e16, 3.0, 0.5])) == 4.5
