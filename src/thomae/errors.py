"""Exception types shared across the package."""

from __future__ import annotations


class ThomaeError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(ThomaeError, ValueError):
    """A named admissibility condition was violated.

    ``condition`` is a stable machine-readable code (e.g. ``"b_equals_f"``),
    so callers and tests can assert on the precise failure mode rather than
    matching message text.
    """

    def __init__(self, condition: str, message: str) -> None:
        super().__init__(message)
        self.condition = condition


class NonConvergenceError(ThomaeError, RuntimeError):
    """A numerical procedure missed its tolerance or exhausted its budget.

    ``best`` carries the best available estimate and ``history`` the
    successive iterates (or, for zeros, their residuals), so a caller can
    still inspect partial results.
    """

    def __init__(self, message: str, best=None, history=None) -> None:
        super().__init__(message)
        self.best = best
        self.history = tuple(history) if history is not None else ()
