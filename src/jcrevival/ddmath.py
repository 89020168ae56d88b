"""Double-double arithmetic over numpy arrays.

A value is a pair of floats (hi, lo) with hi = fl(hi + lo), giving roughly
32 significant decimal digits.  All operations are vectorized and work on
scalars or ndarrays alike.  The algorithms are the classical error-free
transformations (Dekker splitting, two-sum/two-prod) plus the elementary
function schemes of the QD library: argument reduction to a small interval
followed by a fixed-length Taylor tail.

Nothing here is adaptive: a given input shape and value always executes the
same sequence of floating-point operations, so results are bit-reproducible.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1

# (hi, lo) pairs; lo is the exact double-rounding residual of the constant.
PI = (3.141592653589793, 1.2246467991473532e-16)
TWO_PI = (6.283185307179586, 2.4492935982947064e-16)
PI_OVER_2 = (1.5707963267948966, 6.123233995736766e-17)
LN2 = (0.6931471805599453, 2.3190468138462996e-17)
LN_SQRT_2PI = (0.9189385332046728, -3.8782941580672414e-17)


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _quick_two_sum(a, b):
    # requires |a| >= |b| componentwise
    s = a + b
    return s, b - (s - a)


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


class DD:
    """A double-double real number (vectorized)."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=0.0):
        self.hi = np.asarray(hi, dtype=np.float64)
        self.lo = np.asarray(lo, dtype=np.float64)

    @classmethod
    def from_pair(cls, pair):
        return cls(pair[0], pair[1])

    def to_float(self):
        """Round to nearest double."""
        return self.hi + self.lo

    def __repr__(self):
        return f"DD({self.hi!r}, {self.lo!r})"

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __abs__(self):
        neg = self.hi < 0
        return DD(np.where(neg, -self.hi, self.hi), np.where(neg, -self.lo, self.lo))

    def __add__(self, other):
        if isinstance(other, CDD):
            return NotImplemented  # promote via CDD.__radd__
        if not isinstance(other, DD):
            other = DD(other)
        s, e = _two_sum(self.hi, other.hi)
        t, f = _two_sum(self.lo, other.lo)
        e = e + t
        s, e = _quick_two_sum(s, e)
        e = e + f
        hi, lo = _quick_two_sum(s, e)
        return DD(hi, lo)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CDD):
            return NotImplemented
        if not isinstance(other, DD):
            other = DD(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, CDD):
            return NotImplemented
        if not isinstance(other, DD):
            other = DD(other)
        p, e = _two_prod(self.hi, other.hi)
        e = e + (self.hi * other.lo + self.lo * other.hi)
        hi, lo = _quick_two_sum(p, e)
        return DD(hi, lo)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, CDD):
            return NotImplemented
        if not isinstance(other, DD):
            other = DD(other)
        q1 = self.hi / other.hi
        r = self - other * DD(q1)
        q2 = r.hi / other.hi
        r = r - other * DD(q2)
        q3 = r.hi / other.hi
        s, e = _two_sum(q1, q2)
        e = e + q3
        hi, lo = _quick_two_sum(s, e)
        return DD(hi, lo)

    def __rtruediv__(self, other):
        if isinstance(other, CDD):
            return NotImplemented
        return DD(other).__truediv__(self)

    def scale_pow2(self, k):
        """Multiply by 2**k (exact)."""
        return DD(np.ldexp(self.hi, k), np.ldexp(self.lo, k))


class CDD:
    """A complex double-double number (vectorized)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        self.re = re if isinstance(re, DD) else DD(re)
        self.im = im if isinstance(im, DD) else DD(0.0 if im is None else im)

    # numpy's spelling of the parts, so code reads either kind the same way
    @property
    def real(self) -> DD:
        return self.re

    @property
    def imag(self) -> DD:
        return self.im

    def to_complex(self):
        return self.re.to_float() + 1j * self.im.to_float()

    def __repr__(self):
        return f"CDD({self.re!r}, {self.im!r})"

    def __neg__(self):
        return CDD(-self.re, -self.im)

    @staticmethod
    def coerce(z) -> "CDD":
        """z as a CDD; a DD or real value gains a zero imaginary part."""
        if isinstance(z, CDD):
            return z
        if isinstance(z, DD):
            return CDD(z)
        z = np.asarray(z)
        if np.iscomplexobj(z):
            return CDD(DD(z.real), DD(z.imag))
        return CDD(DD(z))

    def __add__(self, other):
        other = self.coerce(other)
        return CDD(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self.coerce(other)
        return CDD(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self.coerce(other)
        return CDD(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.coerce(other)
        d = other.re * other.re + other.im * other.im
        return CDD((self.re * other.re + self.im * other.im) / d,
                   (self.im * other.re - self.re * other.im) / d)

    def __rtruediv__(self, other):
        return self.coerce(other).__truediv__(self)


def where(mask, a, b):
    """Elementwise select between two DD values."""
    if not isinstance(a, DD):
        a = DD(a)
    if not isinstance(b, DD):
        b = DD(b)
    return DD(np.where(mask, a.hi, b.hi), np.where(mask, a.lo, b.lo))


def dd_sum(x):
    """Sum of all elements, via a fixed-shape pairwise tree.

    The tree shape depends only on the input length, so summation order is
    deterministic and results are bit-identical between runs.
    """
    hi = np.atleast_1d(x.hi).ravel().copy()
    lo = np.atleast_1d(x.lo).ravel().copy()
    n = hi.size
    if n == 0:
        return DD(0.0)
    acc = DD(hi, lo)
    while acc.hi.size > 1:
        m = acc.hi.size
        half = m // 2
        head = DD(acc.hi[:half], acc.lo[:half]) + DD(acc.hi[half:2 * half], acc.lo[half:2 * half])
        if m % 2:
            tail_hi = np.concatenate([head.hi, acc.hi[-1:]])
            tail_lo = np.concatenate([head.lo, acc.lo[-1:]])
            acc = DD(tail_hi, tail_lo)
        else:
            acc = head
    return DD(acc.hi[0], acc.lo[0])


def sqrt(a: DD) -> DD:
    """Square root (Karp-Markstein refinement of the double seed).

    Zero maps to zero; negative input yields NaN, as for floats.
    """
    r = 1.0 / np.sqrt(np.where(a.hi > 0, a.hi, 1.0))
    y = a.hi * r
    ydd = DD(y)
    err = (a - ydd * ydd).hi
    out = ydd + DD(err * (r * 0.5))
    out = where(a.hi > 0, out, DD(np.zeros_like(a.hi)))
    return where(a.hi < 0, DD(np.full_like(a.hi, np.nan)), out)


# dd-accurate 1/k for exp's Taylor loop; a bare float 1/k would cap the
# series accuracy at double precision
_RECIP = [None, None] + [DD(1.0) / DD(float(k)) for k in range(2, 12)]


def exp(a: DD) -> DD:
    """Exponential: reduce by ln 2, Taylor on r/512, then square out."""
    m = np.clip(np.round(a.hi / LN2[0]), -1100.0, 1100.0)
    r = (a - DD(m) * DD.from_pair(LN2)).scale_pow2(-9)
    # |r| <= ln2/1024 ~ 6.8e-4; 11 terms reach the pair roundoff
    term = r
    s = r
    for k in range(2, 12):
        term = term * r * _RECIP[k]
        s = s + term
    # (1+s)^512 - 1, tracked without the leading 1
    for _ in range(9):
        s = s * s + s.scale_pow2(1)
    out = s + 1.0
    with np.errstate(over="ignore", under="ignore"):
        out = DD(np.ldexp(out.hi, m.astype(np.int64)),
                 np.ldexp(out.lo, m.astype(np.int64)))
    # IEEE edge behaviour: underflow to 0, overflow to inf
    out = where(a.hi < -745.0, DD(np.zeros_like(a.hi)), out)
    out = where(a.hi > 709.8, DD(np.full_like(a.hi, np.inf)), out)
    return out


def log(a: DD) -> DD:
    """Natural log by Newton iteration on exp, seeded from the double log."""
    y = DD(np.log(a.hi))
    for _ in range(2):
        y = y + a * exp(-y) - 1.0
    return y


_SIN_COEF = [-(DD(1.0) / DD(float((2 * k) * (2 * k + 1)))) for k in range(1, 16)]
_COS_COEF = [-(DD(1.0) / DD(float((2 * k - 1) * (2 * k)))) for k in range(1, 16)]


def _sincos_taylor(r: DD):
    # |r| <= pi/4; fixed 15-term odd/even tails
    r2 = r * r
    s = r
    term = r
    for coef in _SIN_COEF:
        term = term * r2 * coef
        s = s + term
    c = DD(np.ones_like(r.hi))
    term = DD(np.ones_like(r.hi))
    for coef in _COS_COEF:
        term = term * r2 * coef
        c = c + term
    return s, c


def sincos(a: DD):
    """(sin a, cos a) with shared reduction modulo pi/2."""
    k = np.round(a.hi / PI_OVER_2[0])
    r = a - DD(k) * DD.from_pair(PI_OVER_2)
    s0, c0 = _sincos_taylor(r)
    q = np.mod(k, 4.0)
    sin_out = where(q == 0, s0, where(q == 1, c0, where(q == 2, -s0, -c0)))
    cos_out = where(q == 0, c0, where(q == 1, -s0, where(q == 2, -c0, s0)))
    return sin_out, cos_out


def cos(a: DD) -> DD:
    return sincos(a)[1]


_SINH_COEF = [DD(1.0) / DD(float((2 * k) * (2 * k + 1))) for k in range(1, 10)]


def sinh(a: DD) -> DD:
    """Hyperbolic sine; Taylor below 0.1 to avoid cancellation."""
    small = np.abs(a.hi) < 0.1
    asafe = where(small, a, DD(np.zeros_like(a.hi)))
    a2 = asafe * asafe
    s = asafe
    term = asafe
    for coef in _SINH_COEF:
        term = term * a2 * coef
        s = s + term
    e = exp(a)
    return where(small, s, (e - 1.0 / e).scale_pow2(-1))


def cosh(a: DD) -> DD:
    e = exp(a)
    return (e + 1.0 / e).scale_pow2(-1)


def atan2(y: DD, x: DD) -> DD:
    """Two-argument arctangent, Newton-refined from the double seed."""
    th = DD(np.arctan2(y.hi, x.hi))
    r = sqrt(x * x + y * y)
    r = where(r.hi > 0, r, DD(np.ones_like(r.hi)))
    for _ in range(2):
        s, c = sincos(th)
        th = th + (y * c - x * s) / r
    return th


def hypot(x: DD, y: DD) -> DD:
    return sqrt(x * x + y * y)


def cexp(z: CDD) -> CDD:
    r = exp(z.re)
    s, c = sincos(z.im)
    return CDD(r * c, r * s)


def clog(z: CDD) -> CDD:
    return CDD(log(z.re * z.re + z.im * z.im).scale_pow2(-1), atan2(z.im, z.re))


def csqrt(z: CDD) -> CDD:
    """Principal square root: branch cut on the negative real axis."""
    r = hypot(z.re, z.im)
    u = sqrt((r + abs(z.re)).scale_pow2(-1))
    # u > 0 except at z = 0; guard the division
    u_safe = where(u.hi > 0, u, DD(np.ones_like(u.hi)))
    v = abs(z.im).scale_pow2(-1) / u_safe
    re_neg = z.re.hi < 0
    out_re = where(re_neg, v, u)
    out_im = where(re_neg, u, v)
    im_neg = (z.im.hi < 0) | ((z.im.hi == 0) & np.signbit(z.im.hi))
    out_im = where(im_neg, -out_im, out_im)
    zero = (r.hi == 0)
    return CDD(where(zero, DD(np.zeros_like(r.hi)), out_re),
               where(zero, DD(np.zeros_like(r.hi)), out_im))


def csin(z: CDD) -> CDD:
    s, c = sincos(z.re)
    return CDD(s * cosh(z.im), c * sinh(z.im))
