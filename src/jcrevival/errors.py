"""Shared exception types for numerical failure modes."""

from __future__ import annotations


class IntegrandError(ValueError):
    """An integrand sample came back non-finite.

    Carries the offending abscissa so the failure is reproducible.
    """

    def __init__(self, message: str, abscissa: float | None = None):
        super().__init__(message)
        self.abscissa = abscissa


class PrecisionLossError(ArithmeticError):
    """Destructive cancellation exceeded the precision budget.

    Carries the measured cancellation magnitude (largest intermediate
    partial sum over the final value).  Escalating to the extended scalar
    kind buys roughly sixteen further digits.
    """

    def __init__(self, message: str, cancellation_magnitude: float | None = None):
        super().__init__(message)
        self.cancellation_magnitude = cancellation_magnitude

