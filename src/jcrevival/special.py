"""Complex special functions: the Lanczos gamma kit and branch-safe helpers.

Every integrand in this package is built from ``1/Gamma(z)``, principal
square roots and trigonometric functions of complex arguments.  The line
integral, whose weights are positive, is computed in float64 only.  The
correction integrand, which cancels, is computed in one of two scalar kinds:

* standard - float64 / complex128 (plain numbers or numpy arrays),
* extended - double-double pairs (`ddmath.DD` real, `ddmath.CDD` complex),
  roughly 32 significant digits.

Mixing kinds promotes to extended.  This is the one module that dispatches
on the kind: :func:`exp`, :func:`log`, :func:`sincos`, :func:`complex_of`,
:func:`log_gamma` and :func:`principal_sqrt` return the kind they are
given, and :func:`in_kind` reads a constant's (hi, lo) pair in a given
kind, so the correction integrand is written once for both kinds and reads
complex parts as ``.real`` / ``.imag`` (which ``CDD`` provides too).
:func:`leading`, :func:`replace_first` and :func:`compensated_sum` serve
the real samples of ``quadrature.assemble``; the sum is one body for both
kinds and makes no ``ddmath`` call.  :func:`reciprocal_gamma` is
standard-kind only.
"""

from __future__ import annotations

import math

import numpy as np

from . import ddmath
from .ddmath import CDD, DD

# Lanczos approximation of ln Gamma for Re(z) > 0, g = 5, seven coefficients.
# The series error bound is |eps| < 2e-10 relative; the extended kind removes
# arithmetic roundoff but not this inherent series error.
LANCZOS_G = 5.0
# (hi, lo): each published coefficient and its double-double residual
_LANCZOS_PAIRS = (
    (1.000000000190015, 1.0729079953307518e-16),
    (76.18009172947146, 3.4258257737383245e-15),
    (-86.50532032941677, 5.848585530184209e-15),
    (24.01409824083091, -1.3793620781507343e-15),
    (-1.231739572450155, -2.6362618227722122e-17),
    (0.1208650973866179e-2, -2.0865807558493542e-20),
    (-0.5395239384953e-5, 3.2754456442951606e-22),
)

EULER_GAMMA = 0.5772156649015329


def is_extended(x) -> bool:
    """True if x carries the extended (double-double) kind."""
    return isinstance(x, (DD, CDD))


def in_kind(pair, like):
    """pair = (hi, lo) as a DD when like is extended, else as the double hi."""
    return DD.from_pair(pair) if is_extended(like) else pair[0]


def log(z):
    """ln z in the kind of z; math.log at a real double (np.log can be an ulp off)."""
    if isinstance(z, CDD):
        return ddmath.clog(z)
    if isinstance(z, DD):
        return ddmath.log(z)
    return math.log(z) if isinstance(z, float) else np.log(z)


def exp(z):
    """e^z, real or complex, in the kind of z."""
    if isinstance(z, CDD):
        return ddmath.cexp(z)
    if isinstance(z, DD):
        return ddmath.exp(z)
    return np.exp(z)


def sincos(x):
    """(sin x, cos x) of a real argument in the kind of x."""
    if isinstance(x, DD):
        return ddmath.sincos(x)
    return np.sin(x), np.cos(x)


def complex_of(re, im):
    """re + i im; a CDD when either part is a DD."""
    if isinstance(re, DD) or isinstance(im, DD):
        return CDD(re, im)
    return re + 1j * im


def replace_first(x, value):
    """A copy of the real array x with x[0] = value, in x's kind."""
    first = np.zeros(np.shape(leading(x)), dtype=bool)
    first[0] = True
    if isinstance(x, DD):
        return ddmath.where(first, value, x)
    return np.where(first, value, x)


def leading(x):
    """The leading doubles of x: a DD's high words, and x itself (as an
    array) in the standard kind."""
    return x.hi if isinstance(x, DD) else np.asarray(x)


def compensated_sum(x):
    """Sum of the elements of the real x, faithfully rounded to a double:
    AccSum (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008, Alg. 4.5)
    of its float64 words, a DD's high and nonzero low words alike (so DD(x)
    sums to x's bits).  Deterministic for a given input.  The terms must be
    finite, as quadrature.assemble checks: a non-finite term gives NaN."""
    p = (np.concatenate((np.ravel(x.hi), np.extract(x.lo != 0.0, x.lo)))
         if isinstance(x, DD) else np.ravel(np.asarray(x, dtype=np.float64)))
    mu = float(np.max(np.abs(p), initial=0.0))
    if mu == 0.0:
        return 0.0
    m = (p.size + 1).bit_length()  # 2^m >= n + 2
    frac, e = math.frexp(mu)
    e -= frac == 0.5  # e = ceil(log2 mu)
    # sigma = 2^(m + e), kept finite by scaling the terms by 2^-k (exact
    # for terms above 2^(k - 1022))
    k = max(0, m + e - 1023)
    p, sigma, t = p * 2.0 ** -k, 2.0 ** (m + e - k), 0.0
    while True:
        # each q is p cut to a multiple of 2^-53 sigma: their sum is exact
        q = (sigma + p) - sigma
        tau = float(np.sum(q))
        p = p - q
        t_next = t + tau
        if abs(t_next) >= 2.0 ** (2 * m - 53) * sigma or sigma <= 2.0 ** -1022:
            tau2 = tau - (t_next - t)  # exact: t + tau = t_next + tau2
            return (t_next + (tau2 + float(np.sum(p)))) * 2.0 ** k
        if t_next == 0.0:
            return compensated_sum(p) * 2.0 ** k
        t, sigma = t_next, 2.0 ** (m - 53) * sigma


def log_gamma(z):
    """ln Gamma(z) for Re(z) > 0 by the 7-coefficient, g=5 Lanczos formula.

    Accepts standard (complex, float, ndarray) or extended (DD/CDD) input
    and returns the matching kind.  Raises ValueError off the right
    half-plane, which no integrand of the package reaches.
    """
    if not np.all(leading(z.re if isinstance(z, CDD) else z).real > 0.0):
        raise ValueError("log_gamma requires Re(z) > 0")
    coeffs = [in_kind(c, z) for c in _LANCZOS_PAIRS]
    series = coeffs[0] + 0.0 * z
    den = z
    for c in coeffs[1:]:
        den = den + 1.0
        series = series + c / den
    y = z + (LANCZOS_G + 0.5)
    ln_sqrt_2pi = in_kind(ddmath.LN_SQRT_2PI, z)
    return (z + 0.5) * log(y) - y + ln_sqrt_2pi + log(series) - log(z)


def reciprocal_gamma(z):
    """1/Gamma(z) = exp(-log_gamma(z)) on Re(z) > 0, for float or complex
    input (standard kind); elsewhere log_gamma's ValueError.  A DD or CDD
    argument raises TypeError, as numpy does for any object it cannot read
    as a complex number.
    """
    scalar_in = np.isscalar(z) or (isinstance(z, np.ndarray) and z.ndim == 0)
    lg = log_gamma(np.atleast_1d(np.asarray(z, dtype=np.complex128)))
    with np.errstate(over="ignore"):  # refused below, without numpy's warning
        out = np.exp(-lg)
    if not np.all(np.isfinite(out)):
        raise OverflowError("reciprocal_gamma overflowed; argument too large")
    return out[0] if scalar_in else out


def principal_sqrt(z):
    """Principal square root: branch cut on the negative real axis, Re >= 0."""
    if is_extended(z):
        return ddmath.csqrt(CDD.coerce(z))
    out = np.sqrt(np.asarray(z, dtype=np.complex128))
    return complex(out) if out.ndim == 0 else out
