"""Double-double arithmetic over numpy arrays.

A value is a pair of floats (hi, lo) with hi = fl(hi + lo), giving roughly
32 significant decimal digits.  All operations are vectorized and work on
scalars or ndarrays alike.  The algorithms are the classical error-free
transformations (Dekker splitting, two-sum/two-prod) plus the elementary
function schemes of the QD library (Hida, Li & Bailey, ARITH-15, 2001):

* exp and sin/cos are table-driven (Tang, ACM TOMS 15, 1989): the
  argument is reduced by n ln2/512 or n pi/512, with a three-part constant
  whose first part times n is exact (Cody & Waite, 1980), to |r| below
  7e-4 or 3.1e-3; a table entry at n, built once per process at first use,
  meets a short Taylor polynomial in r.  The tables come from the slow
  kernels they replace: 2^(j/512) from a squaring exponential, sin/cos of
  j pi/512 from a long Taylor series on [0, pi/4] and exact symmetries.
  Each polynomial carries as pairs only the terms that reach the pair
  roundoff; the rest of its tail is a plain double polynomial;
* log and atan2 take one Newton step from the double seed: the seed is
  good to ~1e-16 and convergence is at least quadratic, so one step
  reaches the pair roundoff;
* sums run through one fixed pairwise tree of two-sums whose rounding
  errors are accumulated alongside (:func:`dd_sum`).

Nothing here is adaptive: a given input shape and value always executes the
same sequence of floating-point operations, so results are bit-reproducible.
"""

from __future__ import annotations

import functools
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


def _mul(x: DD, y: DD) -> DD:
    """x * y for leading words below _SPLIT_MAX."""
    p, e = _two_prod(x.hi, y.hi)
    return DD(*_quick_two_sum(p, e + (x.hi * y.lo + x.lo * y.hi)))


def _add(x: DD, y: DD) -> DD:
    """x + y to within about eps^2 (|x| + |y|), by one two-sum of the
    leading words (the QD library's sloppy add, as in dd_sum)."""
    s, e = _two_sum(x.hi, y.hi)
    return DD(*_quick_two_sum(s, e + (x.lo + y.lo)))


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
        """Round to nearest double; -0.0 stays -0.0, which hi + lo loses."""
        return np.where(self.lo == 0.0, self.hi, self.hi + self.lo)[()]

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
        return _mul(self, other)

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


def _complex(re, im):
    """re + i im as a complex array, exact where re + 1j * im forms inf * 0."""
    w = np.zeros(np.broadcast(re, im).shape, complex)
    w.real, w.imag = re, im
    return w


def _numpy_at_infinity(np_fn):
    """Decorate a complex kernel: lanes where a part of an argument is
    infinite take np_fn of the leading words, numpy's C99 special cases and
    all, while the kernel sees 1 there, so that no inf - inf forms.  Without
    such a lane the kernel runs on the arguments as they are."""
    def decorate(kernel):
        @functools.wraps(kernel)
        def run(*zs):
            zs = [CDD.coerce(z) for z in zs]
            inf = functools.reduce(np.logical_or, [
                np.isinf(p.hi) for z in zs for p in (z.re, z.im)])
            if not np.any(inf):
                return kernel(*zs)
            out = kernel(*(CDD(where(inf, 1.0, z.re), where(inf, 0.0, z.im))
                           for z in zs))
            with np.errstate(all="ignore"):
                v = np_fn(*(_complex(z.re.hi, z.im.hi) for z in zs))
            return CDD(where(inf, v.real, out.re), where(inf, v.imag, out.im))
        return run
    return decorate


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
        return _complex(self.re.to_float(), self.im.to_float())[()]

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

    @_numpy_at_infinity(np.divide)
    def __truediv__(self, other):
        # z / w = z conj(w') / |w'|^2 2^-k with w' = w 2^-k
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


# Taylor coefficients of e^r - 1 past r, and the doubles that take over
# once a term lies below the pair roundoff: on exp's reduced |r| <= 6.8e-4,
# pairs 1/2 .. 1/24 and doubles r^5 .. r^9; for the table, whose 9 squarings
# amplify the error of e^r by 512, pairs through 1/120 and doubles to r^11.
_EXP_DD = [DD(1.0) / DD(float(math.factorial(k))) for k in range(2, 6)]
_EXP_TAIL = [1 / math.factorial(k) for k in range(6, 12)]
_EXP_R_TAIL = [1 / math.factorial(k) for k in range(5, 10)]
# ln2/512 and pi/512 in three parts (Cody & Waite): the first of ln 2 has
# 32 significant bits and that of pi/2 26, so n times it is exact for
# |n| < 2^21 and 2^27; the sum of the three is good to about 1e-42.
_LN2_512 = tuple(c / 512 for c in (0.6931471803691238, 1.9082149292705877e-10,
                                   1.1612227229362532e-26))
_PI_512 = tuple(c / 256 for c in (1.5707963109016418, 1.5893254773528196e-08,
                                  6.36831716351095e-25))


def _dd_horner(x: DD, coeffs, tail):
    """coeffs[0] + coeffs[1] x + ... + x^K tail(x), K = len(coeffs).

    The pair coefficients run in pair arithmetic; the higher coefficients
    in tail run in doubles on x's leading word, then join as one pair term.
    """
    t = tail[-1]
    for c in reversed(tail[:-1]):
        t = t * x.hi + c
    u = _add(coeffs[-1], DD(x.hi * t))
    for c in reversed(coeffs[:-1]):
        u = _add(c, _mul(x, u))
    return u


def _reduce(a: DD, n, c):
    """a - n (c[0] + c[1] + c[2]) for whole n with n c[0] near a.hi: that
    product is exact and within a factor 2 of a.hi, so the difference is
    exact too; n c[1] enters as an exact pair.  At a = 0 it gives -n c."""
    s, e = _two_sum(a.hi - n * c[0], a.lo)
    p, f = _two_prod(n, c[1])
    return _add(DD(s, e), DD(-p, -(f + n * c[2])))


@functools.cache
def _exp_table():
    """(hi, lo) rows of 2^(j/512) = 2^m e^r, j = 0..511, m = 0 or 1, by the
    squaring exponential: (1 + s)^512 - 1 at s = e^(r/512) - 1."""
    m = np.arange(512) // 256
    r = -_reduce(DD(np.zeros(512)), np.arange(512.0) - 512 * m, _LN2_512)
    s = r.scale_pow2(-9)
    s = s + (s * s) * _dd_horner(s, _EXP_DD, _EXP_TAIL)
    for _ in range(9):
        s = s * s + s.scale_pow2(1)
    t = (s + 1.0).scale_pow2(m)
    return np.stack([t.hi, t.lo])


def exp(a: DD) -> DD:
    """Exponential, table-driven (Tang, ACM TOMS 15, 1989): with
    n = round(512 a / ln 2) = 512 m + j and r = a - n ln2/512,
    e^a = 2^m 2^(j/512) e^r.  Outside (-746, 709.8) and at NaN it is
    np.exp's 0, inf or NaN, with no floating-point warnings."""
    ok = (a.hi > -746.0) & (a.hi < 709.8)
    edge = not ok.all()
    if edge:
        lead, a = a.hi, where(ok, a, 0.0)
    n = np.round(a.hi * (512 / LN2[0]))
    r = _reduce(a, n, _LN2_512)
    s = _add(r, _mul(_mul(r, r), _dd_horner(r, _EXP_DD[:3], _EXP_R_TAIL)))
    k = n.astype(np.int64)
    t = DD(*np.take(_exp_table(), k & 511, axis=1))
    with np.errstate(over="ignore", under="ignore"):
        out = _add(t, _mul(t, s)).scale_pow2(k >> 9)
        return where(ok, out, DD(np.exp(lead))) if edge else out


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
# the leading term, pairs while a term reaches the pair roundoff: on the
# table's [0, pi/4] through r^16, with doubles to r^31; on sincos's reduced
# |r| <= pi/1024 through 1/120 and 1/24, with doubles to r^9 and r^10.
_SIN_DD = [DD(float((-1) ** k)) / DD(float(math.factorial(2 * k + 1)))
           for k in range(1, 8)]
_SIN_TAIL = [(-1) ** k / math.factorial(2 * k + 1) for k in range(8, 16)]
_COS_DD = [DD(float((-1) ** k)) / DD(float(math.factorial(2 * k)))
           for k in range(1, 9)]
_COS_TAIL = [(-1) ** k / math.factorial(2 * k) for k in range(9, 16)]
_SIN_R_TAIL = [(-1) ** k / math.factorial(2 * k + 1) for k in range(3, 5)]
_COS_R_TAIL = [(-1) ** k / math.factorial(2 * k) for k in range(3, 6)]


@functools.cache
def _sincos_table():
    """(hi, lo) rows of sin and of cos at j pi/512, j = 0..1023: Taylor on
    [0, pi/4], then sin(pi/2 - x) = cos x and the quarter turns."""
    r = -_reduce(DD(np.zeros(129)), np.arange(129.0), _PI_512)
    r2 = r * r
    s = r + (r * r2) * _dd_horner(r2, _SIN_DD, _SIN_TAIL)
    c = r2 * _dd_horner(r2, _COS_DD, _COS_TAIL) + 1.0
    s, c = np.stack([s.hi, s.lo]), np.stack([c.hi, c.lo])
    s, c = (np.concatenate([s, c[:, 127:0:-1]], axis=1),
            np.concatenate([c, s[:, 127:0:-1]], axis=1))
    return (np.concatenate([s, c, -s, -c], axis=1),
            np.concatenate([c, -s, -c, s], axis=1))


def sincos(a: DD):
    """(sin a, cos a), table-driven: with n = round(512 a / pi), r =
    a - n pi/512 and (S, C) = (sin, cos)(n pi/512), sin a = S + (C sin r +
    S (cos r - 1)) and cos a = C - (S sin r - C (cos r - 1)), whose small
    corrections add almost no rounding error.  NaN, with no floating-point
    warnings, where a is not finite or |a| >= 2^18 pi (n >= 2^27)."""
    ok = np.abs(a.hi) < 2.0 ** 18 * math.pi
    edge = not ok.all()
    if edge:
        a = where(ok, a, 0.0)
    n = np.round(a.hi * (512 / math.pi))
    r = _reduce(a, n, _PI_512)
    r2 = _mul(r, r)
    s = _add(r, _mul(_mul(r, r2), _dd_horner(r2, _SIN_DD[:2], _SIN_R_TAIL)))
    cm1 = _mul(r2, _dd_horner(r2, _COS_DD[:2], _COS_R_TAIL))
    j = n.astype(np.int64) & 1023
    big_s, big_c = (DD(*np.take(table, j, axis=1)) for table in _sincos_table())
    sin_out = _add(big_s, _add(_mul(big_c, s), _mul(big_s, cm1)))
    cos_out = _add(big_c, _add(_mul(big_c, cm1), _mul(big_s, -s)))
    if edge:
        return where(ok, sin_out, np.nan), where(ok, cos_out, np.nan)
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
    """e^x (cos y + i sin y); where y is zero the imaginary part is y, its
    sign included, so that e^x = inf gives inf + 0j as numpy does."""
    r = exp(z.re)
    s, c = sincos(z.im)
    real = z.im.hi == 0.0
    return CDD(r * c, where(real, z.im, where(real, 1.0, r) * s))


@_numpy_at_infinity(np.log)
def clog(z: CDD) -> CDD:
    *_, s, k = _square_sum(z.re, z.im)
    log_r = log(s).scale_pow2(-1)
    if k is not None:
        log_r = log_r + DD(k.astype(np.float64)) * DD.from_pair(LN2)
    return CDD(log_r, atan2(z.im, z.re))


@_numpy_at_infinity(np.sqrt)
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

