"""Exception types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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


@dataclass(frozen=True)
class ConditionCheck:
    """One named admissibility condition together with its outcome."""

    name: str
    satisfied: bool
    detail: str


def enforce(conditions: list[ConditionCheck]) -> tuple[ConditionCheck, ...]:
    """The conditions, all satisfied, or a PreconditionError naming the first
    failure and listing every failed condition with its detail."""
    failed = [c for c in conditions if not c.satisfied]
    if failed:
        summary = "; ".join(f"{c.name}: {c.detail}" for c in failed)
        raise PreconditionError(failed[0].name, summary)
    return tuple(conditions)


def positive_tolerance(tol, name: str = "tol") -> Fraction:
    """``tol`` as an exact Fraction (an int, a float's binary value, a string
    such as "1e-480" or a Fraction), or invalid_input unless it is a finite
    positive number.  The message says what is wrong: ``must be positive``
    for a finite value <= 0, ``must be finite`` for an infinity and ``must be
    a number`` for nan or anything else.  It shows a number by its float
    repr, so 0 reads 0.0."""
    try:
        exact = Fraction(tol)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        exact = None
    if exact is not None and exact > 0:
        return exact
    try:
        number = float(tol)
    except (TypeError, ValueError, OverflowError):
        number = None
    infinite = number is not None and abs(number) == float("inf")
    if exact is not None:
        problem = "positive"
    elif infinite:
        problem = "finite"
    else:
        problem = "a number"
    # a finite value beyond float range, such as "-1e400", is shown as given
    shown = repr(tol) if number is None or (infinite and exact is not None) else repr(number)
    raise PreconditionError("invalid_input", f"{name} must be {problem}, got {shown}")
