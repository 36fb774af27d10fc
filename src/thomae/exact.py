"""Exact rational building blocks.

Rising factorials, the hypergeometric term ratio, Stirling numbers of the
second kind, and the coefficient family attached to a list of parameter
pairs whose members differ by positive integers.  Everything in this module
is computed over the integers or ``fractions.Fraction``, with no rounding
anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .errors import PreconditionError

RationalLike = Union[Fraction, int, str]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, ``"p/q"`` string, or Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def pochhammer(a: RationalLike, n: int) -> Fraction:
    """Ascending factorial a(a+1)...(a+n-1), with the empty product equal to 1."""
    if n < 0:
        raise ValueError("ascending factorial needs n >= 0")
    a = as_rational(a)
    p, q = a.numerator, a.denominator
    return Fraction(math.prod(range(p, p + q * n, q)), q**n)  # (a)_n = prod (p + i q) / q^n


def nonpositive_integer(x: Fraction) -> Optional[int]:
    """Return q >= 0 when x == -q for an integer q, else None: the pole rule
    of Gamma(x), and (x)_k = 0 exactly for k > q."""
    if x.denominator == 1 and x.numerator <= 0:
        return -x.numerator
    return None


def pochhammer_vanishes(a: RationalLike, n: int) -> bool:
    """Whether (a)_n = 0, that is, whether a is one of 0, -1, ..., 1 - n."""
    q = nonpositive_integer(as_rational(a))
    return q is not None and q < n


def pochhammer_product(params: Iterable[RationalLike], k: int) -> Fraction:
    """Product of ascending factorials (a_1)_k ... (a_p)_k; empty list gives 1."""
    return math.prod((pochhammer(a, k) for a in params), start=Fraction(1))


def _rising_numerators(params: Iterable[RationalLike], count: int) -> tuple[list[int], int]:
    """Integers N_0..N_{count-1} and q with (a_1)_k ... (a_p)_k = N_k / q^k.

    A parameter p/q_a contributes the factors p + q_a l, l < k, and q is the
    product of the q_a.
    """
    params = [as_rational(a) for a in params]
    numerators = [1]
    for step in range(count - 1):
        numerators.append(
            numerators[-1] * math.prod(a.numerator + a.denominator * step for a in params)
        )
    return numerators, math.prod(a.denominator for a in params)


def term_ratios(
    numerators: Iterable[RationalLike],
    denominators: Iterable[RationalLike],
    x: RationalLike,
) -> Iterator[tuple[int, int]]:
    """Iterate (num_k, den_k) with term_{k+1} / term_k = num_k / den_k, k = 0, 1, ...

    The terms are those of sum_k prod_a (a)_k / (prod_b (b)_k k!) x^k.  Each
    ratio is formed over the integers: a parameter p/q contributes p + q*k,
    and the q's and the numerator and denominator of x are folded into two
    constants once.  Each factor steps from k to k + 1 by adding q (an
    ``itertools.count``).  den_k is 0 where some b + k vanishes.
    """
    x = as_rational(x)
    nums = [(a.numerator, a.denominator) for a in map(as_rational, numerators)]
    dens = [(b.numerator, b.denominator) for b in map(as_rational, denominators)]
    up = x.numerator * math.prod(q for _, q in dens)
    down = x.denominator * math.prod(q for _, q in nums)
    num_factors = zip(itertools.repeat(up), *(itertools.count(p, q) for p, q in nums))
    den_factors = zip(itertools.count(down, down), *(itertools.count(p, q) for p, q in dens))
    return zip(map(math.prod, num_factors), map(math.prod, den_factors))


def falling_factorial(x: RationalLike, k: int) -> Fraction:
    """Descending factorial x(x-1)...(x-k+1)."""
    if k < 0:
        raise ValueError("descending factorial needs k >= 0")
    return (-1) ** k * pochhammer(-as_rational(x), k)  # x(x-1)... = (-1)^k (-x)(-x+1)...


_STIRLING_ROWS: list[list[int]] = [[1]]


def stirling2(j: int, k: int) -> int:
    """Stirling number of the second kind S(j, k).

    Computed row by row from S(j,k) = k*S(j-1,k) + S(j-1,k-1) with
    S(0,0) = 1; rows are cached for reuse.
    """
    if j < 0 or k < 0:
        raise ValueError("Stirling indices must be nonnegative")
    if k > j:
        return 0
    while len(_STIRLING_ROWS) <= j:
        prev = _STIRLING_ROWS[-1]
        n = len(_STIRLING_ROWS)
        row = [0] * (n + 1)
        for i in range(1, n + 1):
            above = prev[i] if i < n else 0
            row[i] = i * above + prev[i - 1]
        _STIRLING_ROWS.append(row)
    return _STIRLING_ROWS[j][k]


@dataclass(frozen=True)
class ParamPairs:
    """The base parameters and positive-integer offsets of the shifted pairs.

    Each entry (f, shift) stands for the numerator/denominator pair
    (f + shift, f).  The empty list is a first-class value: it has total
    shift 0 and describes the classical, unshifted setting.
    """

    pairs: tuple[tuple[Fraction, int], ...]

    def __init__(self, pairs: Iterable[tuple[RationalLike, int]] = ()) -> None:
        normalized = []
        for f, shift in pairs:
            f = as_rational(f)
            shift = int(shift)
            if shift < 1:
                raise PreconditionError(
                    "invalid_param_pairs", f"pair offset must be >= 1, got {shift}"
                )
            # A nonpositive-integer base makes (f)_k vanish at some index, so
            # the pair ratio (f+shift)_k/(f)_k stops matching its polynomial
            # form and the transformation identities genuinely break.
            if nonpositive_integer(f) is not None:
                raise PreconditionError(
                    "invalid_param_pairs",
                    f"base parameter must not be a nonpositive integer, got {f}",
                )
            normalized.append((f, shift))
        object.__setattr__(self, "pairs", tuple(normalized))

    @property
    def r(self) -> int:
        return len(self.pairs)

    @property
    def total_shift(self) -> int:
        """Sum of the pair offsets; the degree of the weight polynomials."""
        return sum(shift for _, shift in self.pairs)

    @property
    def poch_product(self) -> Fraction:
        """(f_1)_{shift_1} ... (f_r)_{shift_r}, guaranteed nonzero."""
        return math.prod((pochhammer(f, shift) for f, shift in self.pairs), start=Fraction(1))

    def numerator_parameters(self) -> tuple[Fraction, ...]:
        return tuple(f + shift for f, shift in self.pairs)

    def denominator_parameters(self) -> tuple[Fraction, ...]:
        return tuple(f for f, _ in self.pairs)


def _rising_product(pairs: Iterable[tuple[Fraction, int]]) -> tuple[list[int], int]:
    """prod_j (t + f_j)_{shift_j} as (integer coefficients, ascending; one denominator).

    Over the integers: f = p/q contributes the factors q t + p + i q, i < shift,
    and the product is divided by prod_j q_j^shift_j at the end.
    """
    coeffs, denominator = [1], 1
    for f, shift in pairs:
        p, q = f.numerator, f.denominator
        for step in range(p, p + shift * q, q):  # p + i q, i < shift
            coeffs = [step * c + q * lower for c, lower in zip(coeffs + [0], [0] + coeffs)]
        denominator *= q**shift
    return coeffs, denominator


def sigma_coefficients(pp: ParamPairs) -> list[Fraction]:
    """Coefficients of prod_j (f_j + x)_{shift_j} expanded in powers of x.

    Returns the ascending list of length total_shift + 1.  The constant
    term equals ``pp.poch_product`` and the leading term is 1.
    """
    coeffs, denominator = _rising_product(pp.pairs)
    return [Fraction(c, denominator) for c in coeffs]


def _c_numerators(pp: ParamPairs) -> tuple[list[int], int]:
    """Integers n_0..n_m and L with C_k = n_k / L (see :func:`c_coefficients`).

    n_k = sum_{j>=k} sigma_j S(j, k) over the integer coefficients sigma_j of
    :func:`_rising_product`, and L = sigma_0: their common denominator cancels.
    """
    m = pp.total_shift
    sigma, _ = _rising_product(pp.pairs)
    numerators = [sum(sigma[j] * stirling2(j, k) for j in range(k, m + 1)) for k in range(m + 1)]
    return numerators, sigma[0]


def c_coefficients(pp: ParamPairs) -> list[Fraction]:
    """The pair-expansion coefficients C_0..C_m of the shifted product.

    C_k = (1/L) * sum_{j=k}^{m} sigma_j * S(j, k) where L is the
    ascending-factorial product over the pairs and S the Stirling numbers
    of the second kind.  Always C_0 = 1 and C_m = 1/L exactly.
    """
    numerators, denominator = _c_numerators(pp)
    return [Fraction(n, denominator) for n in numerators]


def c_via_terminating_series(pp: ParamPairs, k: int) -> Fraction:
    """Independent route to C_k as a finite unit-argument hypergeometric sum.

    C_k = ((-1)^k / k!) * sum_{i=0}^{k} (-k)_i * prod_j (f_j+shift_j)_i/(f_j)_i / i!

    Exact, and used as a cross-check oracle for :func:`c_coefficients`.
    """
    if k < 0 or k > pp.total_shift:
        raise ValueError(f"index {k} outside 0..{pp.total_shift}")
    nums, dens = [-k, *pp.numerator_parameters()], pp.denominator_parameters()
    ratios = itertools.islice(term_ratios(nums, dens, 1), k)
    terms = itertools.accumulate(ratios, lambda term, r: term * r[0] / r[1], initial=Fraction(1))
    return Fraction((-1) ** k, math.factorial(k)) * sum(terms)
