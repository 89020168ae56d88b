"""Sum-to-integral transforms.

Three engines that replace a discrete sum by a real-axis integral plus a
correction integral along the imaginary direction weighted by
1/(e^{2 pi y} - 1):

* :func:`finite_transform`      half-weighted sum over n1..n2,
* :func:`semi_infinite_transform`  half phi(0) + sum over n >= 1,
* :func:`factorial_weighted_transform`  sum of f(n+c)/n!, which threads the
  sum through the entire function 1/Gamma(z+1) so the standard formula
  applies.

Callables receive fully complex abscissa arrays (complex128, or CDD for the
extended kind) and must be vectorized.  The engines never differentiate the
callable; where the correction integrand has a removable 0/0 at y = 0 the
caller may pass the analytic limit (``origin_value``), otherwise the engine
extrapolates it from samples at y = h, h/2, h/4.

This is a standalone library layer: :mod:`jcrevival.jcm` does not call it.
The physics families fold the Bose factor into the complex-cosine
exponentials, which keeps the revival integrand within range, and reuse one
family across a whole time sweep; a callable evaluated afresh per transform
can do neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ddmath, quadrature, special
from .errors import IntegrandError, PrecisionLossError
from .quadrature import IntegralResult, QuadratureSpec


@dataclass
class TransformResult:
    """Decomposition of a transformed sum.

    total = boundary_terms + line_integral + correction_integral holds
    exactly, by construction.
    """

    boundary_terms: complex | float
    line_integral: complex | float
    correction_integral: complex | float
    line_diagnostics: IntegralResult | None = None
    correction_diagnostics: IntegralResult | None = None

    @property
    def total(self):
        return self.boundary_terms + self.line_integral + self.correction_integral


def _bose_weight(y):
    """1/(e^{2 pi y} - 1) in the regularized form e^{-2piy}/(1 - e^{-2piy}).

    The y = 0 lane divides by zero; callers always replace that sample with
    an analytic limit, so the warning is suppressed here.
    """
    two_pi = special.constant(ddmath.TWO_PI, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        em = special.exp(-(y * two_pi))
        return em / (1.0 - em)


def _quiet(g: Callable) -> Callable:
    # masked-lane arithmetic (0 * inf at the replaced origin) is expected;
    # real trouble is caught by the finiteness check downstream
    def wrapped(y):
        with np.errstate(all="ignore"):
            return g(y)
    return wrapped


def _correction(g: Callable, spec: QuadratureSpec, origin_value) -> IntegralResult:
    g = _quiet(g)
    if origin_value is None:
        # limit at y -> 0+ from samples at h, h/2, h/4 (O(h^3) accurate)
        h = spec.step
        v = quadrature.sample(g, [h, h / 2.0, h / 4.0], spec.precision_kind)
        origin_value = (v[0] - 6.0 * v[1] + 8.0 * v[2]) / 3.0
    try:
        return quadrature.integrate_semi_infinite(g, spec, origin_value=origin_value)
    except (OverflowError, IntegrandError) as exc:
        raise PrecisionLossError(
            "correction integrand overflowed; re-run with the extended "
            "precision kind or rescale the summand") from exc


def _on_axis(phi: Callable) -> Callable:
    """phi restricted to real abscissae, which it receives as complex."""
    return lambda x: phi(special.complex_of(x, 0.0))


def finite_transform(phi: Callable, n1: int, n2: int, spec: QuadratureSpec,
                     y_spec: QuadratureSpec | None = None,
                     origin_value=None) -> TransformResult:
    """Transform the half-weighted sum of phi over the integers n1..n2.

    phi must be analytic and bounded on the strip n1 <= Re(z) <= n2
    (caller-asserted).  The result's total approximates

        phi(n1)/2 + phi(n1+1) + ... + phi(n2-1) + phi(n2)/2.
    """
    if not (int(n1) == n1 and int(n2) == n2):
        raise ValueError("n1 and n2 must be integers")
    if n1 >= n2:
        raise ValueError("finite_transform requires n1 < n2 (nondegenerate strip)")
    y_spec = y_spec or spec
    line = quadrature.integrate(_on_axis(phi), float(n1), float(n2), spec)

    def g(y):
        def at(n, sign):
            return phi(special.complex_of(n, sign * y))
        bracket = at(n2, 1.0) - at(n1, 1.0) - at(n2, -1.0) + at(n1, -1.0)
        return -1.0j * bracket * _bose_weight(y)

    corr = _correction(g, y_spec, origin_value)
    return TransformResult(boundary_terms=0.0, line_integral=line.value,
                           correction_integral=corr.value,
                           line_diagnostics=line, correction_diagnostics=corr)


def semi_infinite_transform(phi: Callable, spec: QuadratureSpec,
                            y_spec: QuadratureSpec | None = None,
                            origin_value=None) -> TransformResult:
    """Transform phi(0)/2 + sum of phi(n) for n >= 1.

    phi must be analytic and bounded on Re(z) >= 0 and decay as
    Re(z) -> +inf (caller-asserted); the line integral is truncated at
    spec.upper_limit.
    """
    y_spec = y_spec or spec
    line = quadrature.integrate_semi_infinite(_on_axis(phi), spec)

    def g(y):
        bracket = phi(special.complex_of(0.0, y)) - phi(special.complex_of(0.0, -y))
        return 1.0j * bracket * _bose_weight(y)

    corr = _correction(g, y_spec, origin_value)
    return TransformResult(boundary_terms=0.0, line_integral=line.value,
                           correction_integral=corr.value,
                           line_diagnostics=line, correction_diagnostics=corr)


def factorial_weighted_transform(f: Callable, c: float, spec: QuadratureSpec,
                                 y_spec: QuadratureSpec | None = None,
                                 origin_value=None) -> TransformResult:
    """Transform the factorially damped sum of f(n+c)/n! over n >= 0.

    Requires c >= 0 and f such that f(z+c)/Gamma(z+1) is analytic, bounded
    and decaying on the right half-plane (caller-asserted).  The total
    approximates

        f(c)/2 + integral of f(x+c)/Gamma(x+1)
               - 2 integral of Im[f(c+iy)/Gamma(1+iy)] / (e^{2 pi y} - 1).
    """
    if c < 0:
        raise ValueError("factorial_weighted_transform requires c >= 0")
    y_spec = y_spec or spec
    at_c = quadrature.sample(_on_axis(f), [c], spec.precision_kind)[0]
    boundary = 0.5 * float(at_c.real)

    def line_integrand(x):
        return (f(special.complex_of(x + c, 0.0))
                * special.reciprocal_gamma(special.complex_of(x + 1.0, 0.0))).real

    line = quadrature.integrate_semi_infinite(line_integrand, spec)

    def g(y):
        num = f(special.complex_of(c, y)) * special.reciprocal_gamma(
            special.complex_of(1.0, y))
        return -2.0 * num.imag * _bose_weight(y)

    corr = _correction(g, y_spec, origin_value)
    return TransformResult(boundary_terms=boundary, line_integral=line.value,
                           correction_integral=corr.value,
                           line_diagnostics=line, correction_diagnostics=corr)
