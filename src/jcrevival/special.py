"""Complex special functions: the Lanczos gamma kit and branch-safe helpers.

Every integrand in this package is built from ``1/Gamma(z)``, principal
square roots and trigonometric functions of complex arguments.  Two scalar
kinds are supported throughout:

* standard - float64 / complex128 (plain numbers or numpy arrays),
* extended - double-double pairs (`ddmath.DD` real, `ddmath.CDD` complex),
  roughly 32 significant digits.

Mixing kinds promotes to extended: ``CDD`` and ``DD`` operands absorb floats
and complexes.  All functions accept either kind and return the same kind
they were given.  This is the one module that dispatches on the kind: the
primitives :func:`exp`, :func:`sqrt`, :func:`sincos`, :func:`cos`,
:func:`complex_of`, :func:`constant` and :func:`select` let an integrand be
written once for both kinds, reading complex parts as ``.real`` / ``.imag``
(which ``CDD`` provides too); :func:`leading`, :func:`replace_first` and
:func:`compensated_sum` do the same for ``quadrature.assemble``.  The sum
needs no dispatch on the kind: both kinds run ddmath's fixed pairwise
two-sum tree.
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


# promote a value of either kind to the extended complex kind
to_extended = CDD.coerce


def _real_part(z):
    if isinstance(z, CDD):
        return z.re.hi
    if isinstance(z, DD):
        return z.hi
    return np.asarray(z).real


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


def constant(pair, like):
    """A (hi, lo) constant such as ddmath.PI in the kind of like."""
    return DD.from_pair(pair) if is_extended(like) else pair[0]


def _is_complex(x) -> bool:
    return isinstance(x, CDD) or (not isinstance(x, DD) and np.iscomplexobj(x))


def select(mask, a, b):
    """a where mask holds, else b, elementwise, in the wider kind of the two
    (extended over standard, complex over real)."""
    if not (is_extended(a) or is_extended(b)):
        return np.where(mask, a, b)
    if _is_complex(a) or _is_complex(b):
        a, b = to_extended(a), to_extended(b)
        return CDD(ddmath.where(mask, a.re, b.re), ddmath.where(mask, a.im, b.im))
    return ddmath.where(mask, a, b)


def replace_first(x, value):
    """A copy of the array x with x[0] = value, widened as by select."""
    first = np.zeros(np.shape(leading(x)), dtype=bool)
    first[0] = True
    return select(first, value, x)


def leading(x):
    """The leading doubles of x: a DD's high words, a CDD's high words as
    complex128, and x itself (as an array) in the standard kind."""
    if isinstance(x, CDD):
        return x.re.hi + 1j * x.im.hi
    return x.hi if isinstance(x, DD) else np.asarray(x)


def compensated_sum(x):
    """Sum of the elements of x to double-double accuracy, rounded to a
    double.  Both kinds run ddmath's fixed pairwise tree of two-sums, so the
    result is bit-identical between runs; a complex sum adds its real and
    imaginary parts separately.  The terms must be finite, as
    quadrature.assemble checks: a non-finite term gives NaN."""
    if _is_complex(x):
        return complex(compensated_sum(x.real), compensated_sum(x.imag))
    if not isinstance(x, DD):
        x = DD(np.ravel(x))
    return float(ddmath.dd_sum(x).to_float())


def log_gamma(z):
    """ln Gamma(z) for Re(z) > 0 by the 7-coefficient, g=5 Lanczos formula.

    Accepts standard (complex, float, ndarray) or extended (DD/CDD) input
    and returns the matching kind.  Raises ValueError off the right
    half-plane; use :func:`reciprocal_gamma` there instead.
    """
    re = _real_part(z)
    if not np.all(re > 0.0):
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


def _csin(z):
    return ddmath.csin(to_extended(z)) if is_extended(z) else np.sin(z)


def _sinpi(z):
    """sin(pi z) of a complex z, reduced about the nearest integer; exact
    zeros at integers."""
    n = np.round(_real_part(z))
    s = _csin((z - n) * constant(ddmath.PI, z))
    return s * np.where(np.mod(n, 2.0) == 0, 1.0, -1.0)


def reciprocal_gamma(z):
    """1/Gamma(z), entire in z.

    Uses exp(-log_gamma) on the right half-plane and the reflection
    1/Gamma(z) = Gamma(1-z) sin(pi z)/pi elsewhere, which gives exact zeros
    at z = 0, -1, -2, ...
    """
    scalar_in = np.isscalar(z) or (isinstance(z, np.ndarray) and z.ndim == 0)
    z = to_extended(z) if is_extended(z) else np.atleast_1d(
        np.asarray(z, dtype=np.complex128))
    neg = _real_part(z) <= 0.0
    # each lane's unused branch sees a harmless argument
    out = exp(-log_gamma(select(neg, 1.0, z)))
    if np.any(neg):
        refl = exp(log_gamma(select(neg, 1.0 - z, 1.0))) * \
            _sinpi(select(neg, z, 0.0)) / constant(ddmath.PI, z)
        out = select(neg, refl, out)
    if not np.all(np.isfinite(leading(out))):
        raise OverflowError("reciprocal_gamma overflowed; argument too large")
    return out[0] if scalar_in else out


def principal_sqrt(z):
    """Principal square root: branch cut on the negative real axis, Re >= 0."""
    if isinstance(z, (DD, CDD)):
        return ddmath.csqrt(z if isinstance(z, CDD) else CDD(z))
    out = np.sqrt(np.asarray(z, dtype=np.complex128))
    return complex(out) if out.ndim == 0 else out
