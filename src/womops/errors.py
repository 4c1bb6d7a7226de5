"""Exception types shared across the package."""

from __future__ import annotations


class WomopsError(Exception):
    """Base class for all package errors."""


class DomainError(WomopsError):
    """A fee (or signal value) lies outside the domain of the model it feeds."""


class InvalidParams(WomopsError):
    """Market or model parameters violate a documented invariant."""


class InvalidPolicy(WomopsError):
    """A shipment policy violates a documented invariant (e.g. zero cycle)."""


class InvalidGrid(WomopsError):
    """A brute-force grid specification is unusable (bad step or bounds)."""


class UnsupportedSignal(WomopsError):
    """An analytic result was requested for a signal it does not cover."""


class RegimeViolation(WomopsError):
    """A closed form was evaluated outside the regime where it applies."""


class InfeasibleProblem(WomopsError):
    """The equilibrium solver found no cycle with a finite profit: every grid
    or every polished point overflowed, as with a ``market.r`` of 1e306."""


class NonFiniteResult(WomopsError):
    """A result holds NaN or an infinity, which JSON output cannot carry."""


class ConfigError(WomopsError):
    """A CLI configuration failed validation.

    ``path`` names the offending field, dotted from the document root.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
