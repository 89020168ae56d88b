"""Atomic population inversion of the Jaynes-Cummings model.

A two-level atom starts in its ground state, the cavity mode in a coherent
state of real amplitude alpha (mean photon number alpha^2).  The ground-state
probability P_g(t) is a Poisson-weighted trigonometric series; the inversion
is <sigma_z>(t) = 1 - 2 P_g(t).  This module provides that series, the
large-alpha envelope approximation, and integral representations obtained by
trading the sum for a real-axis integral plus a correction integral along
the imaginary direction:

* general detuning: families I1^(l), I2^(l) and the assembled inversion,
* resonance: J1 (carries the initial collapse) and J2 (carries the revival),
* the long-time plateau constant of the detuned collapse,
* low-temperature corrections for a thermal coherent state, expanded to
  second order in the small parameter theta with tanh(theta) = e^{-be/2}.

Times are measured in units of 1/|kappa|.  The correction integrands
oscillate with an envelope that grows like exp(t^2/(3 pi)); every integral
therefore reports a cancellation diagnostic, and operations escalate to the
extended (double-double) scalar kind or signal once the standard budget of
~1e10 is exhausted.  The revival window t in [4 pi, 8 pi] at alpha = 4 needs
the extended kind; beyond roughly 8 pi even that is insufficient and the
computation refuses rather than returning noise.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import ddmath, quadrature, special
from .ddmath import DD
from .errors import PrecisionLossError
from .quadrature import IntegralResult, QuadratureSpec

EULER_GAMMA = special.EULER_GAMMA

# prefix-sum growth beyond which a kind's digits are exhausted (value rounds
# to noise); standard doubles hold ~16 digits, double-double ~32
CANCELLATION_BUDGET = {"standard": 1e10, "extended": 1e25}

Mode = Literal["series", "integral"]
Escalation = Literal["raise", "escalate", "ignore"]

# upper_limit is in x (or y); step is in v = sqrt(x), see _sqrt_grid
DEFAULT_X_SPEC = QuadratureSpec(rule="simpson", upper_limit=100.0, step=0.0025)
DEFAULT_Y_SPEC = QuadratureSpec(rule="bode", upper_limit=100.0, step=0.0025)


class PerturbativeRegimeWarning(UserWarning):
    """The thermal expansion parameters sit outside the perturbative regime."""


@dataclass(frozen=True)
class JcmConfig:
    """Physical parameters: coupling kappa, detuning, coherent amplitude."""

    alpha: float
    kappa: float = 1.0
    delta_omega: float = 0.0

    def __post_init__(self):
        if self.kappa == 0.0:
            raise ValueError("kappa must be nonzero")
        for name in ("alpha", "kappa", "delta_omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # alpha^2 and c enter every weight and bracket as plain doubles
        half_detuning = self.delta_omega / (2.0 * self.kappa)
        for name, root in (("alpha", self.alpha),
                           ("c = (delta_omega / 2 kappa)^2", half_detuning)):
            if not math.isfinite(root * root):
                raise ValueError(f"{name} is out of range: {root!r} squared "
                                 "overflows")

    @property
    def c(self) -> float:
        """Dimensionless squared detuning (delta_omega / 2 kappa)^2."""
        return (self.delta_omega / (2.0 * self.kappa)) ** 2


@dataclass(frozen=True)
class ThermalConfig:
    """Low-temperature parameters: expansion parameter theta and the
    tilde-mode amplitude gamma_tilde."""

    theta: float
    gamma_tilde: float

    def __post_init__(self):
        if not (0.0 <= self.theta < 1.0):
            raise ValueError("theta must lie in [0, 1)")
        if not math.isfinite(self.gamma_tilde):
            raise ValueError("gamma_tilde must be finite")


def perturbative_strength(cfg: JcmConfig, thermal: ThermalConfig) -> float:
    """theta^2 (4 gamma_tilde^2 + 1) alpha^2; above ~0.5 the second-order
    truncation is no longer trustworthy."""
    return thermal.theta ** 2 * (4.0 * thermal.gamma_tilde ** 2 + 1.0) * cfg.alpha ** 2


@dataclass(frozen=True)
class SeriesSpec:
    """Truncation of the photon-number sums."""

    n_max: int = 100

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be nonnegative")


DEFAULT_SERIES_SPEC = SeriesSpec()


@dataclass
class ThetaResult:
    exact: float
    approximate: float


def theta_of_beta(beta_epsilon: float) -> ThetaResult:
    """theta from tanh(theta) = e^{-beta epsilon / 2}.

    Returns both the exact inversion and the leading-order approximation
    theta ~ e^{-beta epsilon / 2} (they differ at O(theta^3)).
    """
    if not beta_epsilon > 0.0:
        raise ValueError("beta_epsilon must be positive (low-temperature regime)")
    x = math.exp(-beta_epsilon / 2.0)
    if x == 1.0:
        raise ValueError(f"beta_epsilon = {beta_epsilon!r} is too small: "
                         "e^{-beta_epsilon / 2} rounds to 1, where theta is infinite")
    return ThetaResult(exact=math.atanh(x), approximate=x)


# ---------------------------------------------------------------------------
# series representation
# ---------------------------------------------------------------------------

def _poisson_weights(alpha: float, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    if alpha == 0.0:
        w = np.zeros(n_max + 1)
        w[0] = 1.0
        return w
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(n_max + 1)])
    # 2 n log|alpha| rather than n log(alpha^2): alpha^2 can underflow
    return np.exp(2.0 * n * math.log(abs(alpha)) - log_factorial - alpha * alpha)


def _require_tail(cfg: JcmConfig, name: str, limit: float, remedy: str):
    """Refuse a truncation `name` = limit of the photon number below the
    index past which the Poisson weight (peak alpha^2) is negligible."""
    need = cfg.alpha ** 2 + 10.0 * math.sqrt(cfg.alpha ** 2 + 1.0)
    if limit < need:
        raise ValueError(f"{name} = {limit:g} does not cover the Poisson tail "
                         f"for alpha = {cfg.alpha} (need >= {need:.1f}); "
                         f"raise {remedy}")


def _bracket(s, big_t, c):
    """The Abel-Plana summand f(s) = cos^2(sqrt(s) T) + (c/s) sin^2(sqrt(s) T),
    with f(0) = 1; s and big_t broadcast against each other."""
    ratio = np.divide(c, s, out=np.zeros_like(s), where=s > 0.0)
    s2 = np.sin(np.sqrt(s) * big_t) ** 2
    return (1.0 - s2) + ratio * s2


def _bracket_sum(l: int, t_arr: np.ndarray, cfg: JcmConfig, spec: SeriesSpec):
    """Q^(l)(t) = sum_n e^{-a^2} a^{2n}/n! f(c + n + l) by direct summation,
    as an array over the times t_arr."""
    _require_index(l)
    _require_tail(cfg, "n_max", spec.n_max, "n_max")
    w = _poisson_weights(cfg.alpha, spec.n_max)
    s = cfg.c + np.arange(spec.n_max + 1) + float(l)
    terms = _bracket(s[None, :], abs(cfg.kappa) * t_arr[:, None], cfg.c) * w
    # by row, not `@`: BLAS rounds a row by the size of the batch it is in
    return terms.sum(axis=1)


def pg_series(t, cfg: JcmConfig, spec: SeriesSpec = DEFAULT_SERIES_SPEC):
    """Ground-state probability P_g = Q^(0) by direct Fock-space summation.

    Values are confined to [0, 1] up to roundoff; a violation beyond 1e-9
    raises.
    """
    def values_of(t_arr):
        vals = _bracket_sum(0, t_arr, cfg, spec)
        if np.any(_outside_unit_interval(vals)):
            raise FloatingPointError("P_g left [0, 1] beyond roundoff tolerance")
        return np.clip(vals, 0.0, 1.0 + 1e-12)
    return _rows(t, values_of)


def sigma_z_series(t, cfg: JcmConfig, spec: SeriesSpec = DEFAULT_SERIES_SPEC):
    """Population inversion 1 - 2 P_g(t); -1 is the ground state."""
    return 1.0 - 2.0 * pg_series(t, cfg, spec)


def sigma_z_series_resonant(t, cfg: JcmConfig,
                            spec: SeriesSpec = DEFAULT_SERIES_SPEC):
    """Resonant form -e^{-a^2} sum w_n cos(2 sqrt(n) |kappa| t).

    Equals sigma_z_series when delta_omega = 0 (cross-checked in tests to
    1e-12); kept as an independent implementation of the same observable.
    """
    if cfg.delta_omega != 0.0:
        raise ValueError("the resonant series form requires delta_omega = 0")
    def values_of(t_arr):
        _require_tail(cfg, "n_max", spec.n_max, "n_max")
        w = _poisson_weights(cfg.alpha, spec.n_max)
        n = np.arange(spec.n_max + 1)
        phase = 2.0 * np.sqrt(n)[None, :] * (abs(cfg.kappa) * t_arr[:, None])
        return -(np.cos(phase) * w).sum(axis=1)
    return _rows(t, values_of)


def envelope_approximation(t, cfg: JcmConfig):
    """Large-alpha resonant approximation of the inversion.

    -exp[a^2 (cos(T/|a|) - 1)] cos(|a| T + a^2 sin(T/|a|)) with T = |kappa| t.
    The exponential factor is the beat envelope: it collapses on a time
    scale of order one and recurs with period 2 pi |alpha|.
    """
    if cfg.delta_omega != 0.0:
        raise ValueError("the envelope approximation is derived on resonance only")
    if cfg.alpha == 0.0:
        raise ValueError("the envelope approximation requires alpha != 0")
    def values_of(t_arr):
        a = abs(cfg.alpha)
        big_t = abs(cfg.kappa) * t_arr
        return -envelope_factor(t_arr, cfg) * np.cos(
            a * big_t + cfg.alpha ** 2 * np.sin(big_t / a))
    return _rows(t, values_of)


def envelope_factor(t, cfg: JcmConfig):
    """Just the beat envelope exp[a^2 (cos(T/|a|) - 1)]."""
    if cfg.alpha == 0.0:
        raise ValueError("the envelope factor requires alpha != 0")
    return _rows(t, lambda t_arr: np.exp(
        cfg.alpha ** 2 * (np.cos(abs(cfg.kappa) * t_arr / abs(cfg.alpha)) - 1.0)))


def _times(t) -> np.ndarray:
    """t as a 1-d float array, every time finite and nonnegative."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if t_arr.ndim != 1 or not np.all((t_arr >= 0.0) & (t_arr < math.inf)):
        raise ValueError("t must be finite and nonnegative, at most 1-d")
    return t_arr


def _rows(t, values_of):
    """values_of(_times(t)), as a Python float for a scalar t: how every
    public function of t takes its times and returns its rows."""
    vals = values_of(_times(t))
    return float(vals[0]) if np.ndim(t) == 0 else vals


def _require_index(l):
    if not (isinstance(l, (int, np.integer)) and l >= 0):
        raise ValueError("l must be a nonnegative integer")


# ---------------------------------------------------------------------------
# integrand families
# ---------------------------------------------------------------------------

def _double_angle(s, c: float, j_form: bool):
    """(b0, b1) with f(s) = b0 + b1 cos(2 sqrt(s) T) for the summand of
    _bracket, at real or complex s of either kind; (0, 1) for the J form's
    plain cosine."""
    if j_form:
        return 0.0, 1.0
    ratio = c / s if c > 0.0 else 0.0
    return (1.0 + ratio) * 0.5, (1.0 - ratio) * 0.5


def _sqrt_grid(spec: QuadratureSpec):
    """(grid, 2v): spec's grid in v = sqrt(x) on [0, sqrt(upper_limit)],
    holding x = v^2 as its abscissae, and the Jacobian dx/dv, in its kind.
    In v, cos(2 sqrt(x) T) has the uniform wavelength pi/T and the weights
    decay like a Gaussian (Trefethen & Weideman, SIAM Rev. 56, 2014)."""
    grid = quadrature.build_grid(0.0, math.sqrt(spec.upper_limit), spec)
    v = grid.x
    return dataclasses.replace(grid, x=v * v), v * 2.0


def _require_positive_alpha(cfg: JcmConfig):
    if cfg.alpha == 0.0:
        raise ValueError(
            "the integral representation needs alpha != 0 "
            "(|alpha|^{2x} is ill-defined at alpha = 0); use the series form")


class _LineFamily:
    """Integrals of |a|^{2x}/Gamma(x+1) times a trigonometric bracket.

    The weight and the square-root arguments do not depend on t, so one
    family instance amortizes them over a whole time sweep.  j_form selects
    the plain cos(2 sqrt(x) T) bracket of the resonant decomposition;
    otherwise the bracket is cos^2 + (c/(x+c+l)) sin^2 at shifted index l.
    The kind is the grid's (spec.precision_kind); a0, a1 carry its Jacobian.
    """

    def __init__(self, cfg: JcmConfig, l: int, spec: QuadratureSpec,
                 j_form: bool = False):
        _require_positive_alpha(cfg)
        _require_tail(cfg, "x_max", spec.upper_limit, "x_max (--x-max)")
        self.grid, jac = _sqrt_grid(spec)
        x = self.grid.x
        # 2*ln_alpha as a double, in either kind, is exact enough: the weight
        # is smooth and shared by every representation being compared
        ln_alpha = math.log(abs(cfg.alpha))
        w = special.exp(x * (2.0 * ln_alpha) - special.log_gamma(x + 1.0)) * jac
        s = x + (cfg.c + float(l))
        self.sqrt_arg = special.sqrt(s)
        b0, b1 = _double_angle(s, cfg.c, j_form)
        self.a0, self.a1 = w * b0, w * b1

    def integral(self, big_t: float) -> IntegralResult:
        phase = self.sqrt_arg * (2.0 * big_t)
        samples = self.a0 + self.a1 * special.cos(phase)
        return quadrature.assemble(samples, self.grid)


class _CorrectionFamily:
    """Correction integrals along the imaginary direction.

    The integrand is Im{ A(y) * B(iy) } / (e^{2 pi y} - 1) with
    A = |a|^{2iy}/Gamma(1+iy).  The Bose factor is folded into the complex
    cosine's exponentials, keeping every intermediate below
    ~exp(T^2/(3 pi)) instead of cosh's exp(T sqrt(2 y)); that is what makes
    the revival window reachable at all.  j_form selects B = cos(2 sqrt(iy) T),
    otherwise B = cos^2(sqrt(c+l+iy) T) + c/(c+l+iy) sin^2(...).  The kind
    is the grid's (spec.precision_kind); a_re, a_im carry its Jacobian.
    """

    def __init__(self, cfg: JcmConfig, l: int, spec: QuadratureSpec,
                 j_form: bool = False):
        _require_positive_alpha(cfg)
        self.grid, jac = _sqrt_grid(spec)
        y = self.grid.x
        # the extended kind needs both constants to its own ~32 digits
        if special.is_extended(y):
            two_pi = DD.from_pair(ddmath.TWO_PI)
            ln_alpha = ddmath.log(DD(abs(cfg.alpha)))
        else:
            two_pi, ln_alpha = 2.0 * np.pi, math.log(abs(cfg.alpha))
        with np.errstate(all="ignore"):
            arg = special.complex_of(0.0, y * (2.0 * ln_alpha))
            a_fac = special.exp(arg - special.log_gamma(special.complex_of(1.0, y)))
            self.a_re, self.a_im = a_fac.real * jac, a_fac.imag * jac
            self.two_pi_y = y * two_pi
            self.em2piy = special.exp(-self.two_pi_y)
            # 2v = 0 meets the Bose pole at v = 0, where the integrand in v
            # is 0: zeroing the pole there makes that sample exactly 0.0
            self.inv1m = special.replace_first(1.0 / (1.0 - self.em2piy), 0.0)
            s0 = special.complex_of(cfg.c + float(l), y)
            root = special.principal_sqrt(s0)
            self.p, self.q = root.real, root.imag
            self.b0, self.b1 = _double_angle(s0, cfg.c, j_form)

    def integral(self, big_t: float) -> IntegralResult:
        with np.errstate(all="ignore"):
            if big_t == 0.0:
                # B(iy) = b0 + b1 exactly; no oscillatory factor
                bt = self.b0 + self.b1
                samples = (self.a_re * bt.imag + self.a_im * bt.real) * \
                    (self.em2piy * self.inv1m)
                return quadrature.assemble(samples, self.grid)
            two_t = 2.0 * big_t
            su, cu = special.sincos(self.p * two_t)
            qt = self.q * two_t
            ep = special.exp(qt - self.two_pi_y)
            em = special.exp(-qt - self.two_pi_y)
            ch = (ep + em) * 0.5
            sh = (ep - em) * 0.5
            # cos(2 T z) e^{-2 pi y} for z = p + iq, in parts
            ct_re = cu * ch
            ct_im = -(su * sh)
            b0, b1 = self.b0, self.b1
            b_re = b0.real * self.em2piy + b1.real * ct_re - b1.imag * ct_im
            b_im = b0.imag * self.em2piy + b1.real * ct_im + b1.imag * ct_re
            samples = (self.a_re * b_im + self.a_im * b_re) * self.inv1m
        return quadrature.assemble(samples, self.grid)


@functools.lru_cache(maxsize=16)
def _family(cls, cfg: JcmConfig, l: int, spec: QuadratureSpec, j_form: bool):
    """cls(cfg, l, spec, j_form=j_form), built once per key.  Families do
    not change after __init__, so a cached one gives a fresh one's bits.
    Sixteen keys hold a thermal run's three brackets, each with a line, a
    correction and an escalation family."""
    return cls(cfg, l, spec, j_form=j_form)


def correction_integrand_probe(cfg: JcmConfig, l: int, t: float, y: float,
                               j_form: bool = False) -> float:
    """Direct, unfolded evaluation of the correction integrand at one y > 0.

    Deliberately independent of the folded assembly used by the integral
    families: the tests Richardson-extrapolate these samples toward y = 0
    and compare against :func:`correction_origin`.
    """
    if y <= 0.0:
        raise ValueError("the probe needs y > 0; use correction_origin at 0")
    big_t = abs(cfg.kappa) * float(t)
    a = np.exp(2j * y * math.log(abs(cfg.alpha))
               - special.log_gamma(1.0 + 1j * y))
    s0 = cfg.c + float(l)
    root = np.sqrt(s0 + 1j * y)
    if j_form:
        bracket = np.cos(2.0 * big_t * root)
    else:
        ratio = cfg.c / (s0 + 1j * y) if cfg.c > 0.0 else 0.0
        bracket = np.cos(big_t * root) ** 2 + ratio * np.sin(big_t * root) ** 2
    return float((a * bracket).imag / math.expm1(2.0 * math.pi * y))


def correction_origin(cfg: JcmConfig, l: int, big_t: float,
                      j_form: bool = False) -> float:
    """y -> 0 limit of the correction integrand.

    The 0/0 at the origin resolves to (B(0) (2 ln|a| + gamma) + B'(0))/(2 pi)
    where B is the trigonometric bracket continued in iy; the three shapes
    below cover the resonant cos form, the degenerate c = l = 0 bracket and
    the general shifted bracket.  Cross-validated against Richardson
    extrapolation of the sampled integrand in the tests and in `check`.
    """
    base = 2.0 * math.log(abs(cfg.alpha)) + EULER_GAMMA
    if j_form:
        return (base - 2.0 * big_t * big_t) / (2.0 * math.pi)
    s0 = cfg.c + float(l)
    if s0 == 0.0:
        return (base - big_t * big_t) / (2.0 * math.pi)
    rt = math.sqrt(s0)
    sin_sq = math.sin(rt * big_t) ** 2
    sin_two = math.sin(2.0 * rt * big_t)
    b_zero = math.cos(rt * big_t) ** 2 + (cfg.c / s0) * sin_sq
    b_prime = ((cfg.c / s0 - 1.0) * (big_t / (2.0 * rt)) * sin_two
               - (cfg.c / (s0 * s0)) * sin_sq)
    return (b_zero * base + b_prime) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# escalation policy and the time sweep
# ---------------------------------------------------------------------------

def _correction_sweep(cfg: JcmConfig, l: int, big_ts: np.ndarray,
                      spec: QuadratureSpec, escalation: Escalation,
                      j_form: bool = False, refuse: bool = False):
    """Correction integrals at the scaled times big_ts under one policy.

    One family serves every row, and one extended family every row past
    the standard budget under "escalate".  A row that no permitted kind can
    hold raises PrecisionLossError under "raise", and under every policy
    when refuse is set (a caller that cannot mark the row); otherwise it is
    marked.
    Returns the arrays (values, cancellation, status), status 0 for a row
    held in the requested kind, 1 for an escalated row and 2 for a row
    past the budget of its kind.
    """
    eff = _peak_aware(spec, float(big_ts.max(initial=0.0)))
    fam = _family(_CorrectionFamily, cfg, l, eff, j_form)
    vals = np.empty_like(big_ts)
    cancel = np.empty_like(big_ts)
    status = np.zeros(big_ts.shape, dtype=int)
    for i, big_t in enumerate(big_ts):
        res, kind = fam.integral(big_t), eff.precision_kind
        if (res.cancellation_magnitude > CANCELLATION_BUDGET[kind]
                and escalation == "escalate" and kind == "standard"):
            ext = dataclasses.replace(eff, precision_kind="extended")
            res = _family(_CorrectionFamily, cfg, l, ext, j_form).integral(big_t)
            kind = "extended"
            status[i] = 1
        if res.cancellation_magnitude > CANCELLATION_BUDGET[kind]:
            if refuse or escalation == "raise":
                raise PrecisionLossError(
                    f"cancellation magnitude {res.cancellation_magnitude:.3g} "
                    f"exceeds the {kind} precision budget "
                    f"{CANCELLATION_BUDGET[kind]:.1g}; the correction integral "
                    "would be noise at this time",
                    cancellation_magnitude=res.cancellation_magnitude)
            status[i] = 2
        vals[i] = res.value
        cancel[i] = res.cancellation_magnitude
    return vals, cancel, status


def _sweep(ts, cfg: JcmConfig, l: int, x_spec: QuadratureSpec,
           y_spec: QuadratureSpec, escalation: Escalation,
           j_form: bool = False, refuse: bool = False):
    """Line and correction integrals over the checked times ts, one family
    each.  Returns (line values, *_correction_sweep(...)).
    """
    _require_index(l)
    big_ts = abs(cfg.kappa) * ts
    line = _family(_LineFamily, cfg, l, x_spec, j_form)
    line_vals = np.array([line.integral(big_t).value for big_t in big_ts])
    return (line_vals, *_correction_sweep(cfg, l, big_ts, y_spec, escalation,
                                          j_form, refuse))


def _peak_aware(spec: QuadratureSpec, big_t: float) -> QuadratureSpec:
    """Widen the y-truncation to cover the integrand's exponential peak.

    The folded envelope exp(2 T q - (3/2) pi y) peaks near y* = 2 T^2/(9 pi^2);
    four times that, widened to a whole v-step, keeps the tail negligible.
    """
    need = 4.0 * 2.0 * big_t * big_t / (9.0 * math.pi ** 2)
    if need <= spec.upper_limit:
        return spec
    v_max = math.ceil(math.sqrt(need) / spec.step) * spec.step
    return dataclasses.replace(spec, upper_limit=v_max * v_max)


# ---------------------------------------------------------------------------
# integral representations at single points and rows
# ---------------------------------------------------------------------------

def j2_integral(t, cfg: JcmConfig,
                spec: QuadratureSpec = DEFAULT_Y_SPEC,
                escalation: Escalation = "raise"):
    """Revival integral J2(t) = 2 e^{-a^2} x (correction integral).

    Resonant only; negligible during the collapse and carries the revival.
    The required cancellation grows like exp(t^2/(3 pi)): standard precision
    is exhausted near t ~ 6 pi, the extended kind near t ~ 8 pi.
    """
    _require_resonant(cfg)
    scale = 2.0 * math.exp(-cfg.alpha ** 2)
    return _rows(t, lambda t_arr: scale * _correction_sweep(
        cfg, 0, abs(cfg.kappa) * t_arr, spec, escalation, j_form=True,
        refuse=True)[0])


def _require_resonant(cfg: JcmConfig):
    if cfg.delta_omega != 0.0:
        raise ValueError("the J decomposition is defined on resonance "
                         "(delta_omega = 0) only")


def const_plateau(cfg: JcmConfig,
                  spec: QuadratureSpec = DEFAULT_X_SPEC) -> float:
    """Long-time plateau of the detuned collapse.

    Replaces the squared trigonometric functions in I1^(0) by their time
    average 1/2, which leaves the line family's constant part a0:
    Const = 1 - e^{-a^2} integral of w(x) (1 + c/(c+x)) dx.
    """
    fam = _family(_LineFamily, cfg, 0, spec, False)
    return 1.0 - 2.0 * math.exp(-cfg.alpha ** 2) * \
        quadrature.assemble(fam.a0, fam.grid).value


def abel_plana_identity(alpha: float,
                        x_spec: QuadratureSpec = DEFAULT_X_SPEC,
                        y_spec: QuadratureSpec = DEFAULT_Y_SPEC) -> tuple[float, float]:
    """The closed-form check behind the resonant decomposition.

    Computes lhs = (1/2) integral of |a|^{2x}/Gamma(x+1)
                 - integral of Im{|a|^{2iy}/Gamma(1+iy)}/(e^{2 pi y} - 1)
    and returns (lhs, rhs) with rhs = -1/4 + e^{a^2}/2 exact.
    """
    cfg = JcmConfig(alpha=alpha)
    line = _family(_LineFamily, cfg, 0, x_spec, True).integral(0.0)
    corr = _family(_CorrectionFamily, cfg, 0, y_spec, True).integral(0.0)
    lhs = 0.5 * line.value - corr.value
    rhs = -0.25 + 0.5 * math.exp(alpha * alpha)
    return lhs, rhs


# ---------------------------------------------------------------------------
# profiles over a time grid (amortized families)
# ---------------------------------------------------------------------------

def resonant_profile(ts, cfg: JcmConfig,
                     x_spec: QuadratureSpec = DEFAULT_X_SPEC,
                     y_spec: QuadratureSpec = DEFAULT_Y_SPEC,
                     escalation: Escalation = "raise") -> dict[str, np.ndarray]:
    """J1, J2 and the assembled inversion over a time grid.

    Returns arrays J1, J2, sigma_z, cancellation (of the J2 correction)
    and the row status of _correction_sweep.  With escalation="ignore",
    rows of status 2 hold whatever the requested kind produced; callers
    decide whether that is acceptable.
    """
    _require_resonant(cfg)
    pref = math.exp(-cfg.alpha ** 2)
    line, corr, cancel, status = _sweep(
        _times(ts), cfg, 0, x_spec, y_spec, escalation, j_form=True)
    j1 = -pref * line
    j2 = 2.0 * pref * corr
    sigma = -0.5 * pref + j1 + j2
    return {"J1": j1, "J2": j2, "sigma_z": sigma, "cancellation": cancel,
            "status": status}


def detuned_profile(ts, cfg: JcmConfig, l: int = 0,
                    x_spec: QuadratureSpec = DEFAULT_X_SPEC,
                    y_spec: QuadratureSpec = DEFAULT_Y_SPEC,
                    escalation: Escalation = "raise") -> dict[str, np.ndarray]:
    """I1^(l), I2^(l) and the (l = 0) assembled inversion over a time grid."""
    pref = math.exp(-cfg.alpha ** 2)
    i1, i2, cancel, status = _sweep(
        _times(ts), cfg, l, x_spec, y_spec, escalation)
    sigma = 1.0 - pref * (1.0 + 2.0 * i1 - 4.0 * i2)
    return {"I1": i1, "I2": i2, "sigma_z": sigma, "cancellation": cancel,
            "status": status}


# ---------------------------------------------------------------------------
# thermal coherent state, second-order low-temperature corrections
# ---------------------------------------------------------------------------

def q_g(l: int, t, cfg: JcmConfig, mode: Mode = "series",
        series_spec: SeriesSpec = DEFAULT_SERIES_SPEC,
        x_spec: QuadratureSpec = DEFAULT_X_SPEC,
        y_spec: QuadratureSpec = DEFAULT_Y_SPEC,
        escalation: Escalation = "raise"):
    """Shifted-index ground-state weight Q_g^(l)(t); Q^(0) is P_g itself.

    series mode sums the summand f(c + n + l) of _bracket with Poisson
    weights; integral mode assembles e^{-a^2} [f(c + l)/2 + I1^(l) - 2 I2^(l)]
    and raises PrecisionLossError on a row past the budget under every policy.
    """
    def values_of(t_arr):
        if mode == "series":
            return _bracket_sum(l, t_arr, cfg, series_spec)
        if mode != "integral":
            raise ValueError(f"unknown mode {mode!r}")
        i1, i2 = _sweep(t_arr, cfg, l, x_spec, y_spec, escalation, refuse=True)[:2]
        boundary = _bracket(cfg.c + float(l), abs(cfg.kappa) * t_arr, cfg.c)
        return math.exp(-cfg.alpha ** 2) * (0.5 * boundary + i1 - 2.0 * i2)
    return _rows(t, values_of)


def _thermal_terms(t_arr: np.ndarray, cfg: JcmConfig, thermal: ThermalConfig,
                   mode: Mode, series_spec: SeriesSpec, x_spec: QuadratureSpec,
                   y_spec: QuadratureSpec, escalation: Escalation):
    """(P1, P2, thermal P_g) over the 1-d times t_arr, from one evaluation
    of each needed Q^(l).

    The brackets Q^(0) = P_g, Q^(1) and, for gamma_tilde != 0, Q^(2) are
    evaluated in turn.  Nothing here warns; callers report the regime.
    """
    q_args = (cfg, mode, series_spec, x_spec, y_spec, escalation)
    g = thermal.gamma_tilde
    pg = q_g(0, t_arr, *q_args)
    q1 = q_g(1, t_arr, *q_args)
    p1 = 2.0 * cfg.alpha * g * (pg - q1) if g != 0.0 else np.zeros_like(t_arr)
    a2 = cfg.alpha ** 2
    g2 = g ** 2
    q2 = q_g(2, t_arr, *q_args) if g != 0.0 else 0.0
    p2 = (2.0 * (2.0 * a2 * g2 - g2 - 1.0) * pg
          - 2.0 * a2 * (4.0 * g2 + 1.0) * q1
          + 4.0 * a2 * g2 * q2)
    return p1, p2, pg + thermal.theta * p1 + 0.5 * thermal.theta ** 2 * p2


def _outside_unit_interval(p) -> np.ndarray:
    """Mask of probabilities beyond [0, 1] by more than roundoff (1e-9)."""
    p = np.asarray(p)
    return (p < -1e-9) | (p > 1.0 + 1e-9)


def p1_correction(t, cfg: JcmConfig, thermal: ThermalConfig,
                  mode: Mode = "series",
                  series_spec: SeriesSpec = DEFAULT_SERIES_SPEC,
                  x_spec: QuadratureSpec = DEFAULT_X_SPEC,
                  y_spec: QuadratureSpec = DEFAULT_Y_SPEC,
                  escalation: Escalation = "raise"):
    """First-order thermal correction 2 a g~ [P_g - Q^(1)].

    The expansion parameter theta is applied at assembly (pg_thermal), not
    here.  gamma_tilde = 0 gives zeros without evaluating a bracket.
    """
    if thermal.gamma_tilde == 0.0:
        return _rows(t, np.zeros_like)
    return _rows(t, lambda t_arr: _thermal_terms(
        t_arr, cfg, thermal, mode, series_spec, x_spec, y_spec, escalation)[0])


def p2_correction(t, cfg: JcmConfig, thermal: ThermalConfig,
                  mode: Mode = "series",
                  series_spec: SeriesSpec = DEFAULT_SERIES_SPEC,
                  x_spec: QuadratureSpec = DEFAULT_X_SPEC,
                  y_spec: QuadratureSpec = DEFAULT_Y_SPEC,
                  escalation: Escalation = "raise"):
    """Second-order thermal correction.

    2 (2 a^2 g~^2 - g~^2 - 1) P_g - 2 a^2 (4 g~^2 + 1) Q^(1) + 4 a^2 g~^2 Q^(2),
    defined so that P_g(beta;t) = P_g + theta P1 + (theta^2/2) P2 holds with
    the weights applied once, at assembly.
    """
    return _rows(t, lambda t_arr: _thermal_terms(
        t_arr, cfg, thermal, mode, series_spec, x_spec, y_spec, escalation)[1])


def pg_thermal(t, cfg: JcmConfig, thermal: ThermalConfig,
               mode: Mode = "series",
               series_spec: SeriesSpec = DEFAULT_SERIES_SPEC,
               x_spec: QuadratureSpec = DEFAULT_X_SPEC,
               y_spec: QuadratureSpec = DEFAULT_Y_SPEC,
               escalation: Escalation = "raise"):
    """Thermal ground-state probability to second order in theta.

    P_g + theta P1 + (theta^2/2) P2.  Warns (but still returns) when the
    result leaves [0, 1] or the parameters sit outside the perturbative
    regime: that signals expansion breakdown, not a numerical bug.
    """
    if perturbative_strength(cfg, thermal) > 0.5:
        warnings.warn(
            "theta^2 (4 gamma_tilde^2 + 1) alpha^2 > 0.5: outside the "
            "reliable second-order regime", PerturbativeRegimeWarning,
            stacklevel=2)
    if thermal.theta == 0.0:
        return q_g(0, t, cfg, mode, series_spec, x_spec, y_spec, escalation)
    out = _rows(t, lambda t_arr: _thermal_terms(
        t_arr, cfg, thermal, mode, series_spec, x_spec, y_spec, escalation)[2])
    if np.any(_outside_unit_interval(out)):
        warnings.warn("thermal P_g left [0, 1]: perturbative breakdown",
                      PerturbativeRegimeWarning, stacklevel=2)
    return out
