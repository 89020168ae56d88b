"""Double-double arithmetic over numpy arrays.

A value is a pair of floats (hi, lo) with hi = fl(hi + lo), giving roughly
32 significant decimal digits.  All operations are vectorized and work on
scalars or ndarrays alike.  The algorithms are the classical error-free
transformations (Dekker splitting, two-sum/two-prod) plus the elementary
function schemes of the QD library (Hida, Li & Bailey, ARITH-15, 2001):

* exp and sin/cos reduce the argument to a small interval and sum a
  fixed-length Taylor polynomial in Horner form; only the terms large
  enough to reach the pair roundoff are carried as pairs, the rest of the
  tail is a plain double polynomial;
* log and atan2 take one Newton step from the double seed: the seed is
  good to ~1e-16 and convergence is at least quadratic, so one step
  reaches the pair roundoff;
* sums run through one fixed pairwise tree of two-sums whose rounding
  errors are accumulated alongside (:func:`dd_sum`).

Nothing here is adaptive: a given input shape and value always executes the
same sequence of floating-point operations, so results are bit-reproducible.
"""

from __future__ import annotations

import math

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1
# past this, _SPLITTER * a can overflow (the QD library's split threshold)
_SPLIT_MAX = 2.0 ** 996
# Leading words in this range have squares that neither overflow nor lose
# their low word to the subnormals, and a square that underflows beside one
# of them lies below the pair roundoff of the sum.
_SQUARE_SAFE = (2.0 ** -450, 2.0 ** 450)

# (hi, lo) pairs; lo is the exact double-rounding residual of the constant.
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


def _past_split(a) -> bool:
    # fmax passes over NaN lanes, which max would return
    return np.fmax.reduce(np.abs(a), axis=None, initial=0.0) > _SPLIT_MAX


def _mul_wide(x: DD, y: DD) -> DD:
    """x * y where a leading word lies past _SPLIT_MAX: such a factor is
    split after an exact scaling by 2^-28, as in the QD library.  A lane
    whose leading product is not finite returns it, as np.multiply would."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = x.hi * y.hi
    ok = np.isfinite(p)
    kx, ky = (np.where(ok & (np.abs(v.hi) > _SPLIT_MAX), 28, 0) for v in (x, y))
    q = where(ok, x, 0.0).scale_pow2(-kx) * where(ok, y, 0.0).scale_pow2(-ky)
    return where(ok, q.scale_pow2(kx + ky), DD(p))


class DD:
    """A double-double real number (vectorized)."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=0.0):
        self.hi = np.asarray(hi, dtype=np.float64)
        self.lo = np.asarray(lo, dtype=np.float64)
        if self.lo.shape != self.hi.shape:
            # the default scalar lo spreads over an array of high words
            self.lo = np.full(self.hi.shape, self.lo)

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
        if _past_split(self.hi) or _past_split(other.hi):
            return _mul_wide(self, other)
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
        # z / w = z conj(w') / |w'|^2 2^-k with w' = w 2^-k
        other = self.coerce(other)
        re, im, d, k = _square_sum(other.re, other.im)
        q = CDD((self.re * re + self.im * im) / d, (self.im * re - self.re * im) / d)
        if k is None:
            return q
        with np.errstate(under="ignore"):
            return CDD(q.re.scale_pow2(-k), q.im.scale_pow2(-k))

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
    """Sum of all elements of a DD array, by a fixed pairwise tree.

    The pairs are padded with zeros to a power of two and each level adds
    the first half to the second: an error-free two-sum of the high words,
    whose rounding error joins the low words' sum before the pair is
    renormalized (the QD library's sloppy add).  The error stays of order
    log2(n) eps^2 sum|x| (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26,
    2005), and the tree's shape depends only on the length, so results are
    bit-identical between runs.
    """
    n = np.size(x.hi)
    size = 1 << max(n - 1, 0).bit_length()
    hi = np.zeros(size)
    lo = np.zeros(size)
    hi[:n] = np.ravel(x.hi)
    lo[:n] = np.ravel(x.lo)
    while size > 1:
        size //= 2
        a, b = hi[:size], hi[size:]
        s = a + b
        bb = s - a
        e = ((a - (s - bb)) + (b - bb)) + (lo[:size] + lo[size:])
        hi = s + e
        lo = e - (hi - s)
    return DD(hi[0], lo[0])


def sqrt(a: DD) -> DD:
    """Square root (Karp-Markstein refinement of the double seed).

    Matches np.sqrt at the edges, with no floating-point warnings: zero maps
    to zero, +inf to +inf, and NaN or negative input to NaN.
    """
    ok = (a.hi > 0.0) & (a.hi < np.inf)
    hi = np.where(ok, a.hi, 1.0)
    if np.min(hi) < _SQUARE_SAFE[0] ** 2:
        # the refinement squares the root: lift tiny lanes by 4^-k first
        k = np.where(hi < _SQUARE_SAFE[0] ** 2, np.frexp(hi)[1] // 2, 0)
        return sqrt(a.scale_pow2(-2 * k)).scale_pow2(k)
    r = 1.0 / np.sqrt(hi)
    ydd = DD(hi * r)
    err = (DD(hi, np.where(ok, a.lo, 0.0)) - ydd * ydd).hi
    out = ydd + DD(err * (r * 0.5))
    if not ok.all():
        edge = np.where(a.hi == 0.0, 0.0, np.where(a.hi == np.inf, np.inf, np.nan))
        out = where(ok, out, DD(edge))
    return out


# Taylor coefficients 1/k! of e^r - 1 past the linear term.  After the 9
# squarings of exp, which amplify the error of e^r by 512, only the terms
# through r^5 (|r| <= 6.8e-4) still reach the pair roundoff: those are
# pairs, 1/2 .. 1/120, and r^6 .. r^11 are summed as plain doubles.
_EXP_DD = [DD(1.0) / DD(float(math.factorial(k))) for k in range(2, 6)]
_EXP_TAIL = [1 / math.factorial(k) for k in range(6, 12)]


def _dd_horner(x: DD, coeffs, tail):
    """coeffs[0] + coeffs[1] x + ... + x^K tail(x), K = len(coeffs).

    The pair coefficients run in pair arithmetic; the higher coefficients
    in tail run in doubles on x's leading word, then join as one pair term.
    """
    t = tail[-1]
    for c in reversed(tail[:-1]):
        t = t * x.hi + c
    u = coeffs[-1] + x.hi * t
    for c in reversed(coeffs[:-1]):
        u = c + x * u
    return u


def exp(a: DD) -> DD:
    """Exponential: reduce by ln 2, Taylor on r/512, then square out."""
    m = np.clip(np.round(a.hi / LN2[0]), -1100.0, 1100.0)
    r = (a - DD(m) * DD.from_pair(LN2)).scale_pow2(-9)
    # e^r - 1 = r + r^2 (1/2 + r/6 + ...)
    s = r + (r * r) * _dd_horner(r, _EXP_DD, _EXP_TAIL)
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
    """Natural log: a = 2^e f with f in [1/sqrt 2, sqrt 2), then one Newton
    step on exp from the double log of f, and e ln 2 added back.

    Matches np.log at the edges: -inf at zero, NaN below zero or at NaN,
    +inf at +inf, with no floating-point warnings.
    """
    ok = (a.hi > 0.0) & (a.hi < np.inf)
    hi = np.where(ok, a.hi, 1.0)
    mant, e = np.frexp(hi)
    e = e - (mant < math.sqrt(0.5))
    f = DD(np.ldexp(hi, -e), np.ldexp(np.where(ok, a.lo, 0.0), -e))
    y = DD(np.log(f.hi))
    y = y + (f * exp(-y) - 1.0)
    out = y + DD(e.astype(np.float64)) * DD.from_pair(LN2)
    if not ok.all():
        with np.errstate(divide="ignore", invalid="ignore"):
            out = where(ok, out, DD(np.log(a.hi)))
    return out


# Taylor coefficients (-1)^k/(2k+1)! of sin and (-1)^k/(2k)! of cos past
# the leading term, through r^31 and r^30.  On |r| <= pi/4 the terms
# through r^16 reach the pair roundoff and are pairs; the rest are doubles.
_SIN_DD = [DD(float((-1) ** k)) / DD(float(math.factorial(2 * k + 1)))
           for k in range(1, 8)]
_SIN_TAIL = [(-1) ** k / math.factorial(2 * k + 1) for k in range(8, 16)]
_COS_DD = [DD(float((-1) ** k)) / DD(float(math.factorial(2 * k)))
           for k in range(1, 9)]
_COS_TAIL = [(-1) ** k / math.factorial(2 * k) for k in range(9, 16)]


def _sincos_taylor(r: DD):
    # |r| <= pi/4; fixed-length odd/even polynomials in r^2
    r2 = r * r
    s = r + (r * r2) * _dd_horner(r2, _SIN_DD, _SIN_TAIL)
    c = r2 * _dd_horner(r2, _COS_DD, _COS_TAIL) + 1.0
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


def atan2(y: DD, x: DD) -> DD:
    """Two-argument arctangent: one Newton step from the double seed th.

    With theta the true angle, y cos th - x sin th = r sin(theta - th) and
    x cos th + y sin th = r cos(theta - th); adding their ratio to th
    leaves an error of order (theta - th)^3.  A term that underflows is
    below what the pair can hold at the magnitude of its inputs.
    """
    with np.errstate(under="ignore"):
        th = DD(np.arctan2(y.hi, x.hi))
        s, c = sincos(th)
        den = x * c + y * s
        # den > 0 unless x = y = 0, where th = 0 and the numerator is 0
        den = where(den.hi > 0.0, den, DD(1.0))
        return th + (y * c - x * s) / den


def _square_sum(x: DD, y: DD):
    """(x 2^-k, y 2^-k, the sum of their squares, k).  In lanes whose
    leading words lie outside _SQUARE_SAFE, k brings max(|x|, |y|) 2^-k
    into [1/2, 1); elsewhere k is 0.  Lanes with an infinite part come
    back as zeros, so that no square forms inf - inf.  When no lane needs
    either, k is None and x and y come back as they are, so in-range calls
    keep their exact operation sequence."""
    m = np.fmax(np.abs(x.hi), np.abs(y.hi))  # an infinite part outranks a NaN
    far = (m > _SQUARE_SAFE[1]) | ((m < _SQUARE_SAFE[0]) & (m > 0.0))
    k = np.where(far, np.frexp(m)[1], 0) if np.any(far) else None
    with np.errstate(under="ignore"):
        if k is not None:
            inf = np.isinf(m)
            x, y = where(inf, 0.0, x.scale_pow2(-k)), where(inf, 0.0, y.scale_pow2(-k))
        return x, y, x * x + y * y, k


def hypot(x: DD, y: DD) -> DD:
    """sqrt(x^2 + y^2); inf where a part is infinite, as np.hypot gives."""
    *_, s, k = _square_sum(x, y)
    if k is None:
        return sqrt(s)
    with np.errstate(under="ignore"):  # a tiny result's low word may be subnormal
        out = sqrt(s).scale_pow2(k)
    return where(np.isinf(x.hi) | np.isinf(y.hi), np.inf, out)


def cexp(z: CDD) -> CDD:
    r = exp(z.re)
    s, c = sincos(z.im)
    return CDD(r * c, r * s)


def clog(z: CDD) -> CDD:
    *_, s, k = _square_sum(z.re, z.im)
    log_r = log(s).scale_pow2(-1)
    if k is not None:
        log_r = log_r + DD(k.astype(np.float64)) * DD.from_pair(LN2)
    return CDD(log_r, atan2(z.im, z.re))


def csqrt(z: CDD) -> CDD:
    """Principal square root: branch cut on the negative real axis.  As in
    atan2, a term that underflows is below what the pair can hold."""
    with np.errstate(under="ignore"):
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

