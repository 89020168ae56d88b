"""Composite Bode (Boole) quadrature on fixed grids over finite intervals.

Accumulation is ``special.compensated_sum`` in either kind: the exact sum
of the terms' float64 words, faithfully rounded to a double, so two runs
with the same spec are bit-identical.
A caller lays out a grid with :func:`build_grid`, samples its integrand
on the whole abscissa array (an ndarray for the standard kind, a
``ddmath.DD`` array for the extended kind) and hands the real samples to
:func:`assemble`, which sums them in either kind through ``special``'s
kind primitives.

Every result carries a cancellation diagnostic (largest intermediate
partial sum over the final value); callers that integrate violently
oscillatory integrands use it to decide when standard precision has run
out of digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import special
from .ddmath import CDD, DD
from .errors import IntegrandError

PrecisionKind = Literal["standard", "extended"]

# composite Bode weights follow the classical pattern
#   (7, 32, 12, 32, 14, 32, 12, 32, 14, ..., 32, 7) * 2h/45
# with 14 at interior panel joints (7 + 7 from the two adjacent panels)
_PANEL = 4  # intervals per Bode panel


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid selection for one integral family."""

    upper_limit: float = 100.0
    # None leaves the step to the caller, row by row (jcm's band rule)
    step: float | None = 1e-3
    precision_kind: PrecisionKind = "standard"

    def __post_init__(self):
        for name in ("step", "upper_limit"):
            value = getattr(self, name)
            if not ((name == "step" and value is None) or 0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite")
        if self.precision_kind not in ("standard", "extended"):
            raise ValueError(f"unknown precision kind {self.precision_kind!r}")


@dataclass
class IntegralResult:
    value: float
    cancellation_magnitude: float


def _interval_count(a: float, b: float, step: float) -> int:
    n_exact = (b - a) / step
    n = int(round(n_exact))
    if abs(n - n_exact) > 0.25:
        # step does not tile [a, b]; shrink to the next compatible count
        n = int(math.ceil(n_exact))
    n = max(n, _PANEL)
    n += (-n) % _PANEL
    step_used = (b - a) / n
    if step_used < 0.45 * step:
        raise ValueError(
            f"step {step:g} is incompatible with [{a:g}, {b:g}]; "
            f"adjusting would shrink it to {step_used:g}")
    return n


def _weight_pattern(n: int) -> np.ndarray:
    w = np.empty(n + 1)
    w[0::4] = 14.0
    w[1::4] = 32.0
    w[2::4] = 12.0
    w[3::4] = 32.0
    w[0] = w[-1] = 7.0
    return w * (2.0 / 45.0)


def _cancellation(prefix_abs: np.ndarray, total_abs: float) -> float:
    peak = float(prefix_abs.max()) if prefix_abs.size else 0.0
    if total_abs == 0.0:
        return 1.0 if peak == 0.0 else math.inf
    return max(1.0, peak / total_abs)


@dataclass
class Grid:
    """A realized quadrature grid: abscissae plus composite weights.  x may
    hold a mapped variable's physical abscissae, which assemble reports."""

    x: object            # ndarray (standard) or DD array (extended)
    pattern: np.ndarray  # Bode weights, step factor excluded
    h: object            # float or DD
    n: int
    precision_kind: PrecisionKind


def build_grid(a: float, b: float, spec: QuadratureSpec) -> Grid:
    """Lay out the composite grid for [a, b] under spec.

    The interval count is padded up to a whole number of Bode panels by
    shrinking the step slightly; h is the step actually used.
    """
    if not b > a:
        raise ValueError("integration requires a < b")
    n = _interval_count(a, b, spec.step)
    pattern = _weight_pattern(n)
    if spec.precision_kind == "extended":
        h = (DD(b) - DD(a)) / DD(float(n))
        x = DD(np.arange(n + 1, dtype=np.float64)) * h + DD(a)
    else:
        h = (b - a) / n
        x = np.linspace(a, b, n + 1)
    return Grid(x=x, pattern=pattern, h=h, n=n, precision_kind=spec.precision_kind)


def assemble(samples, grid: Grid) -> IntegralResult:
    """Turn real integrand samples on a grid into a weighted, compensated sum.

    Raises TypeError on complex samples, whose imaginary part the sum would
    drop, and IntegrandError if any sample is non-finite.
    """
    if isinstance(samples, CDD) or np.iscomplexobj(samples):
        raise TypeError("assemble sums real samples; integrate the real and "
                        "imaginary parts of a complex integrand separately")
    if grid.precision_kind == "extended" and not isinstance(samples, DD):
        samples = DD(np.asarray(samples, dtype=np.float64))
    finite = np.isfinite(special.leading(samples))
    if not finite.all():
        bad = float(special.leading(grid.x)[int(np.argmin(finite))])
        raise IntegrandError(f"integrand is not finite at x = {bad!r}",
                             abscissa=bad)
    terms = samples * grid.pattern * grid.h
    total = special.compensated_sum(terms)
    cancel = _cancellation(np.abs(np.cumsum(special.leading(terms))), abs(total))
    return IntegralResult(value=total, cancellation_magnitude=cancel)
