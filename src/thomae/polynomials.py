"""Dense univariate polynomials over the rationals and the parametric
weight polynomials of the transformation theorems.

The two weight families built here are degree-m polynomials normalized to
value 1 at the origin; their nonvanishing zeros become the shifted
parameter pairs of a transformed series.  ``find_zeros`` recovers those
zeros numerically as companion-matrix eigenvalues (``numpy.roots``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonConvergenceError, PreconditionError
from .exact import (
    ParamPairs, RationalLike, _rising_product, as_rational, c_coefficients, hypergeometric_terms,
    pochhammer,
)


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense polynomial with exact rational coefficients, ascending order.

    Trailing zero coefficients are stripped; the zero polynomial is the
    empty tuple and reports degree -1.
    """

    coefficients: tuple[Fraction, ...]

    def __init__(self, coefficients: Iterable[RationalLike] = ()) -> None:
        coeffs = [as_rational(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    @cached_property
    def _integer_form(self) -> tuple[int, tuple[int, ...]]:
        """(D, integer coefficients in descending order) with self = poly / D."""
        denominator = math.lcm(*(c.denominator for c in self.coefficients))
        return denominator, tuple(
            c.numerator * (denominator // c.denominator) for c in reversed(self.coefficients)
        )

    def evaluate(self, t: RationalLike) -> Fraction:
        """Exact Horner evaluation at a rational point.

        Horner runs over integers: with t = p/q and D the common
        denominator of the coefficients, the value is
        (sum_i D c_i p^i q^(n-i)) / (D q^n), reduced once at the end.
        """
        t = as_rational(t)
        p, q = t.numerator, t.denominator
        denominator, coeffs = self._integer_form
        acc = 0
        q_power = 1
        for c in coeffs:
            acc = acc * p + c * q_power
            q_power *= q
        return Fraction(acc, denominator * q ** max(len(coeffs) - 1, 0))

    def divide_by_root(self, root: RationalLike) -> "RationalPolynomial":
        """Exact deflation by a known rational root: self / (t - root).

        Raises ValueError if ``root`` is not actually a zero.
        """
        root = as_rational(root)
        coeffs = self.coefficients
        if len(coeffs) < 2:
            raise ValueError("cannot deflate a constant polynomial")
        out = [Fraction(0)] * (len(coeffs) - 1)
        carry = coeffs[-1]
        for i in range(len(coeffs) - 2, 0, -1):
            out[i] = carry
            carry = coeffs[i] + carry * root
        out[0] = carry
        remainder = coeffs[0] + carry * root
        if remainder != 0:
            raise ValueError(f"{root} is not a root (remainder {remainder})")
        return RationalPolynomial(out)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for power, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if power == 0:
                parts.append(str(c))
            elif power == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{power}")
        return " + ".join(parts).replace("+ -", "- ")


def rising_factorial_poly(offset: RationalLike, count: int) -> RationalPolynomial:
    """The polynomial (t + offset)(t + offset + 1)...(count factors)."""
    coeffs, denominator = _rising_product([(as_rational(offset), count)])
    return RationalPolynomial(Fraction(c, denominator) for c in coeffs)


def _rising_sum(coefficients: Sequence[Fraction], offset: RationalLike = 0) -> RationalPolynomial:
    """sum_j coefficients[j] (t+offset)_j in the monomial basis."""
    out = [Fraction(0)] * len(coefficients)
    for j, h in enumerate(coefficients):
        for i, c in enumerate(rising_factorial_poly(offset, j).coefficients):
            out[i] += h * c
    return RationalPolynomial(out)


def _weight_polynomial(
    pp: ParamPairs, front: Sequence[Fraction], inner: Callable[[int], list[Fraction]]
) -> RationalPolynomial:
    """sum_k front[k] C_k (t)_k sum_i inner(k)[i] (t+k)_i, with C_k from c_coefficients.

    Since (t)_k (t+k)_i = (t)_{k+i}, this is sum_j h_j (t)_j with the
    scalars h_j = sum_{k+i=j} front[k] C_k inner(k)[i].
    """
    h = [Fraction(0)] * len(front)
    for k, ck in enumerate(c_coefficients(pp)):
        for i, g in enumerate(inner(k)):
            h[k + i] += front[k] * ck * g
    return _rising_sum(h)


def _g_coefficients(m: int, k: int, a: Fraction, b: Fraction, c: Fraction) -> list[Fraction]:
    """g_0..g_{m-k}, the coefficients of G_{m,k} in the basis (t+k)_i."""
    return hypergeometric_terms(
        [-m + k, c - a - b - m], [c - a - m + k, c - b - m + k], 1, m - k + 1
    )


def build_G(m: int, k: int, a: RationalLike, b: RationalLike, c: RationalLike) -> RationalPolynomial:
    """Inner terminating-sum polynomial of degree m - k in Q^'s expansion.

    G(t) = sum_{i=0}^{m-k} [(-m+k)_i (c-a-b-m)_i] /
           [(c-a-m+k)_i (c-b-m+k)_i i!] * (t+k)(t+k+1)...(i factors)
    """
    if not 0 <= k <= m:
        raise PreconditionError("invalid_g_index", f"need 0 <= k <= m, got k={k}, m={m}")
    a, b, c = as_rational(a), as_rational(b), as_rational(c)
    den1 = c - a - m + k
    den2 = c - b - m + k
    for i in range(m - k):
        if den1 + i == 0 or den2 + i == 0:
            raise PreconditionError(
                "degenerate_g_denominator",
                f"denominator factor vanishes at step {i}: "
                f"(c-a-m+k)={den1}, (c-b-m+k)={den2}",
            )
    return _rising_sum(_g_coefficients(m, k, a, b, c), k)


def build_Q(pp: ParamPairs, b: RationalLike, c: RationalLike) -> RationalPolynomial:
    """First parametric weight polynomial, degree total_shift, value 1 at 0.

    Defined by the expansion
        Q(t) = (1/(L)_m) * sum_k (b)_k C_k (t)_k (L - t)_{m-k},
    where m is the total shift and the base offset is L = c - b - m.  This
    offset choice is the one consistent with the degree-1 and degree-2
    closed forms and with the exact terminating transformation identities.

    Built in the rising-factorial basis.  By Chu-Vandermonde,
        (L - t)_{m-k} / (L+k)_{m-k} = sum_i (-m+k)_i / ((L+k)_i i!) (t+k)_i,
    and (L)_m = (L)_k (L+k)_{m-k}, so the k-th front factor is (b)_k / (L)_k.
    The cbm check rules out every divisor L + j (j < m).
    """
    b, c = as_rational(b), as_rational(c)
    m = pp.total_shift
    for f, _ in pp.pairs:
        if b == f:
            raise PreconditionError(
                "b_equals_f", f"parameter b={b} coincides with base parameter f={f}"
            )
    lam = c - b - m
    if pochhammer(lam, m) == 0:
        raise PreconditionError(
            "cbm_pochhammer_zero", f"(c-b-m)_m vanishes for c-b-m={lam}, m={m}"
        )
    front = hypergeometric_terms([b, 1], [lam], 1, m + 1)  # (b)_k / (L)_k
    return _weight_polynomial(
        pp, front, lambda k: hypergeometric_terms([-m + k], [lam + k], 1, m - k + 1)
    )


def build_Qhat(
    pp: ParamPairs, a: RationalLike, b: RationalLike, c: RationalLike
) -> RationalPolynomial:
    """Second parametric weight polynomial, degree total_shift, value 1 at 0.

    Q^(t) = sum_k [(-1)^k C_k (a)_k (b)_k / ((c-a-m)_k (c-b-m)_k)] (t)_k G_{m,k}(t).

    Built in the rising-factorial basis from G's coefficients, with no G
    polynomial.  build_G's degenerate_g_denominator cannot fire here: G_{m,k}
    divides only by c-a-m+j and c-b-m+j with j < m, which the cam and cbm
    checks below rule out.
    """
    a, b, c = as_rational(a), as_rational(b), as_rational(c)
    m = pp.total_shift
    if pochhammer(c - a - m, m) == 0:
        raise PreconditionError(
            "cam_pochhammer_zero", f"(c-a-m)_m vanishes for c-a-m={c - a - m}, m={m}"
        )
    if pochhammer(c - b - m, m) == 0:
        raise PreconditionError(
            "cbm_pochhammer_zero", f"(c-b-m)_m vanishes for c-b-m={c - b - m}, m={m}"
        )
    front = hypergeometric_terms([a, b, 1], [c - a - m, c - b - m], -1, m + 1)
    return _weight_polynomial(pp, front, lambda k: _g_coefficients(m, k, a, b, c))


@dataclass(frozen=True)
class ZeroSet:
    """Numerically found zeros (with multiplicity) and their residuals.

    Zeros are sorted by (real, imaginary) for deterministic output;
    residuals are |p(z)| / sum_i |c_i| |z|^i, i.e. relative to the
    coefficient magnitude at the point.  ``converged`` says whether every
    residual is within the requested tolerance.
    """

    zeros: tuple[complex, ...]
    residuals: tuple[float, ...]
    converged: bool


def find_zeros(p: RationalPolynomial, tol: float = 1e-13) -> ZeroSet:
    """All complex zeros of ``p`` as eigenvalues of its companion matrix.

    Requires degree >= 1 and p(0) != 0, with the leading and constant
    coefficients inside the float range.  The zeros come from
    ``numpy.roots`` on the float coefficients, which is backward stable in
    them (Edelman and Murakami, Math. Comp. 1995).  If any relative
    residual exceeds ``tol`` a NonConvergenceError carrying the zeros is
    raised; a zero so large that its residual overflows counts as a miss
    (residual inf).
    """
    if p.is_zero() or p.degree < 1:
        raise PreconditionError("degenerate_polynomial", "need degree >= 1")
    if p.coefficients[0] == 0:
        raise PreconditionError("degenerate_polynomial", "polynomial vanishes at 0")
    try:
        coeffs = [float(c) for c in p.coefficients]
    except OverflowError as exc:
        raise PreconditionError("degenerate_polynomial", "a coefficient overflows a float") from exc
    if coeffs[0] == 0 or coeffs[-1] == 0:
        raise PreconditionError(
            "degenerate_polynomial", "the leading or constant coefficient underflows to 0.0"
        )

    def relative_residual(z: complex) -> float:
        val = 0j
        for c in reversed(coeffs):
            val = val * z + c
        try:
            scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(coeffs))
            return abs(val) / scale if scale else abs(val)
        except OverflowError:  # a zero too far out to judge: a miss
            return math.inf

    zs = sorted((complex(z) for z in np.roots(coeffs[::-1])), key=lambda z: (z.real, z.imag))
    residuals = tuple(relative_residual(z) for z in zs)
    converged = all(r <= tol for r in residuals)
    result = ZeroSet(tuple(zs), residuals, converged)
    if not converged:
        raise NonConvergenceError(
            f"zeros miss tolerance {tol}: worst residual {max(residuals):.3e}",
            best=result,
            history=residuals,
        )
    return result
