"""Complex special functions: the Lanczos gamma kit and branch-safe helpers.

Every integrand in this package is built from ``1/Gamma(z)``, principal
square roots and trigonometric functions of complex arguments, in one of
two scalar kinds:

* standard - float64 / complex128 (plain numbers or numpy arrays),
* extended - double-double pairs (`ddmath.DD` real, `ddmath.CDD` complex),
  roughly 32 significant digits.

Mixing kinds promotes to extended.  This is the one module that dispatches
on the kind: :func:`exp`, :func:`sqrt`, :func:`sincos`, :func:`cos`,
:func:`complex_of`, :func:`log_gamma` and :func:`principal_sqrt` return the
kind they are given, so an integrand is written once for both kinds and
reads complex parts as ``.real`` / ``.imag`` (which ``CDD`` provides too).
:func:`leading`, :func:`replace_first` and :func:`compensated_sum` serve
the real samples of ``quadrature.assemble``, whose sum runs ddmath's fixed
pairwise two-sum tree in both kinds.  :func:`reciprocal_gamma` is
standard-kind only.
"""

from __future__ import annotations

import numpy as np

from . import ddmath
from .ddmath import CDD, DD

# Lanczos approximation of ln Gamma for Re(z) > 0, g = 5, seven coefficients.
# The series error bound is |eps| < 2e-10 relative; the extended kind removes
# arithmetic roundoff but not this inherent series error.
LANCZOS_G = 5.0
LANCZOS_COEFFS = (
    1.000000000190015,
    76.18009172947146,
    -86.50532032941677,
    24.01409824083091,
    -1.231739572450155,
    0.1208650973866179e-2,
    -0.5395239384953e-5,
)
# the same coefficients rounded to double-double pairs
_LANCZOS_DD = (
    (1.000000000190015, 1.0729079953307518e-16),
    (76.18009172947146, 3.4258257737383245e-15),
    (-86.50532032941678, 5.848585530184209e-15),
    (24.01409824083091, -1.3793620781507343e-15),
    (-1.231739572450155, -2.6362618227722122e-17),
    (0.001208650973866179, -2.0865807558493542e-20),
    (-5.395239384953e-06, 3.2754456442951606e-22),
)

EULER_GAMMA = 0.5772156649015329


def is_extended(x) -> bool:
    """True if x carries the extended (double-double) kind."""
    return isinstance(x, (DD, CDD))


def _log(z):
    if isinstance(z, CDD):
        return ddmath.clog(z)
    if isinstance(z, DD):
        return ddmath.log(z)
    return np.log(z)


def exp(z):
    """e^z, real or complex, in the kind of z."""
    if isinstance(z, CDD):
        return ddmath.cexp(z)
    if isinstance(z, DD):
        return ddmath.exp(z)
    return np.exp(z)


def sqrt(x):
    """Square root of a real argument in the kind of x (NaN below zero)."""
    return ddmath.sqrt(x) if isinstance(x, DD) else np.sqrt(x)


def sincos(x):
    """(sin x, cos x) of a real argument in the kind of x."""
    if isinstance(x, DD):
        return ddmath.sincos(x)
    return np.sin(x), np.cos(x)


def cos(x):
    """cos x of a real argument in the kind of x."""
    return ddmath.cos(x) if isinstance(x, DD) else np.cos(x)


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
    """Sum of the elements of the real x to double-double accuracy, rounded
    to a double.  Both kinds run ddmath's fixed pairwise tree of two-sums,
    so the result is bit-identical between runs.  The terms must be finite,
    as quadrature.assemble checks: a non-finite term gives NaN."""
    if not isinstance(x, DD):
        x = DD(np.ravel(x))
    return float(ddmath.dd_sum(x).to_float())


def log_gamma(z):
    """ln Gamma(z) for Re(z) > 0 by the 7-coefficient, g=5 Lanczos formula.

    Accepts standard (complex, float, ndarray) or extended (DD/CDD) input
    and returns the matching kind.  Raises ValueError off the right
    half-plane; use :func:`reciprocal_gamma` there instead.
    """
    if not np.all(leading(z.re if isinstance(z, CDD) else z).real > 0.0):
        raise ValueError("log_gamma requires Re(z) > 0; use reciprocal_gamma "
                         "for the rest of the plane")
    if isinstance(z, (DD, CDD)):
        coeffs = [DD.from_pair(c) for c in _LANCZOS_DD]
        ln_sqrt_2pi = DD.from_pair(ddmath.LN_SQRT_2PI)
    else:
        coeffs = LANCZOS_COEFFS
        ln_sqrt_2pi = ddmath.LN_SQRT_2PI[0]
    series = coeffs[0] + 0.0 * z
    den = z
    for c in coeffs[1:]:
        den = den + 1.0
        series = series + c / den
    y = z + (LANCZOS_G + 0.5)
    return (z + 0.5) * _log(y) - y + ln_sqrt_2pi + _log(series) - _log(z)


def _sinpi(z):
    """sin(pi z) of a complex z, reduced about the nearest integer; exact
    zeros at integers."""
    n = np.round(z.real)
    return np.sin((z - n) * np.pi) * np.where(np.mod(n, 2.0) == 0, 1.0, -1.0)


def reciprocal_gamma(z):
    """1/Gamma(z), entire in z, for float or complex input (standard kind).

    Uses exp(-log_gamma) on the right half-plane and the reflection
    1/Gamma(z) = Gamma(1-z) sin(pi z)/pi elsewhere, which gives exact zeros
    at z = 0, -1, -2, ...  A DD or CDD argument raises TypeError, as numpy
    does for any object it cannot read as a complex number.
    """
    scalar_in = np.isscalar(z) or (isinstance(z, np.ndarray) and z.ndim == 0)
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    neg = z.real <= 0.0
    # each lane's unused branch sees a harmless argument
    out = np.exp(-log_gamma(np.where(neg, 1.0, z)))
    if np.any(neg):
        refl = np.exp(log_gamma(np.where(neg, 1.0 - z, 1.0))) * \
            _sinpi(np.where(neg, z, 0.0)) / np.pi
        out = np.where(neg, refl, out)
    if not np.all(np.isfinite(out)):
        raise OverflowError("reciprocal_gamma overflowed; argument too large")
    return out[0] if scalar_in else out


def principal_sqrt(z):
    """Principal square root: branch cut on the negative real axis, Re >= 0."""
    if is_extended(z):
        return ddmath.csqrt(CDD.coerce(z))
    out = np.sqrt(np.asarray(z, dtype=np.complex128))
    return complex(out) if out.ndim == 0 else out
