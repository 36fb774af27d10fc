"""Dense univariate polynomials over the rationals and the parametric
weight polynomials of the transformation theorems.

The two weight families built here are degree-m polynomials normalized to
value 1 at the origin, built over the integers in the rising-factorial
basis; their nonvanishing zeros become the shifted parameter pairs of a
transformed series.  ``find_zeros`` recovers those zeros numerically by the
Aberth-Ehrlich iteration in complex floats, started from the Newton polygon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    ConditionCheck, NonConvergenceError, PreconditionError, enforce, positive_tolerance,
)
from .exact import (
    ParamPairs, RationalLike, _c_numerators, _rising_numerators, _rising_product, as_rational,
    pochhammer_vanishes,
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


def _rising_sum(numerators: Sequence[int], denominator: int, offset: int = 0) -> RationalPolynomial:
    """sum_j numerators[j] (t+offset)_j / denominator in the monomial basis.

    The offset is an integer, so every row (t+offset)_j has integer
    coefficients and the sum stays in integers up to the one division.
    """
    out = [0] * len(numerators)
    for j, h in enumerate(numerators):
        for i, c in enumerate(rising_factorial_poly(offset, j).coefficients):
            out[i] += h * c.numerator
    return RationalPolynomial(Fraction(c, denominator) for c in out)


def _rising_scalars(
    lead: tuple[Sequence[int], int],
    n: int,
    sign: int,
    front: Sequence[Fraction],
    inner: Sequence[Fraction],
    dens: Sequence[Fraction],
) -> tuple[list[int], int]:
    """Integers h_0..h_n and one denominator E with

        h_j / E = sum_{k+i=j} lead_k s^k (front)_k (-1)^i C(n-k, i) (inner)_i / (dens)_j,

    the scalar of (t)_j in both weight polynomials and in G.  Here lead is
    (numerators, denominator) of the lead_k, s = sign, and (list)_k is the
    product of the rising factorials of the list.  Each such product is
    N_k / q^k (``_rising_numerators``), so the (k, i) term times
    (q_front q_inner)^j is an integer, and N_dens[j] divides N_dens[n]: E =
    lead denominator * N_dens[n] * (q_front q_inner)^n serves every j.  The
    caller rules out a vanishing (dens)_n.
    """
    lead_numerators, lead_denominator = lead
    fronts, front_q = _rising_numerators(front, n + 1)
    inners, inner_q = _rising_numerators(inner, n + 1)
    bottoms, dens_q = _rising_numerators(dens, n + 1)
    left = [c * sign**k * f * inner_q**k for k, (c, f) in enumerate(zip(lead_numerators, fronts))]
    right = [(-1) ** i * g * front_q**i for i, g in enumerate(inners)]
    scale = front_q * inner_q
    h = []
    for j in range(n + 1):
        total = sum(
            left[k] * right[j - k] * math.comb(n - k, j - k) for k in range(min(j + 1, len(left)))
        )
        h.append(total * dens_q**j * (bottoms[n] // bottoms[j]) * scale ** (n - j))
    return h, lead_denominator * bottoms[n] * scale**n


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
    if any(pochhammer_vanishes(den, m - k) for den in (den1, den2)):
        raise PreconditionError(
            "degenerate_g_denominator",
            f"a denominator factor vanishes: (c-a-m+k)={den1}, (c-b-m+k)={den2}, m-k={m - k}",
        )
    return _rising_sum(*_rising_scalars(([1], 1), m - k, 1, [], [c - a - b - m], [den1, den2]), k)


def _shifted_pochhammer(letter: str, c: Fraction, p: Fraction, m: int) -> ConditionCheck:
    """(c-p-m)_m != 0 for the numerator parameter p named ``letter``."""
    return ConditionCheck(
        f"c{letter}m_pochhammer_zero",
        not pochhammer_vanishes(c - p - m, m),
        f"(c-{letter}-m)_m must be nonzero, c-{letter}-m={c - p - m}",
    )


def q_conditions(pp: ParamPairs, b: Fraction, c: Fraction) -> list[ConditionCheck]:
    """When Q is defined: b differs from every base parameter f, and (c-b-m)_m != 0."""
    return [
        *(ConditionCheck("b_equals_f", b != f, f"b={b} must differ from base parameter {f}")
          for f, _ in pp.pairs),
        _shifted_pochhammer("b", c, b, pp.total_shift),
    ]


def qhat_conditions(pp: ParamPairs, a: Fraction, b: Fraction, c: Fraction) -> list[ConditionCheck]:
    """When Q^ is defined: (c-a-m)_m != 0 and (c-b-m)_m != 0."""
    m = pp.total_shift
    return [_shifted_pochhammer("a", c, a, m), _shifted_pochhammer("b", c, b, m)]


def build_Q(pp: ParamPairs, b: RationalLike, c: RationalLike) -> RationalPolynomial:
    """First parametric weight polynomial, degree total_shift, value 1 at 0.

    Defined by the expansion
        Q(t) = (1/(L)_m) * sum_k (b)_k C_k (t)_k (L - t)_{m-k},
    where m is the total shift and the base offset is L = c - b - m.  This
    offset choice is the one consistent with the degree-1 and degree-2
    closed forms and with the exact terminating transformation identities.

    Built in the rising-factorial basis.  By Chu-Vandermonde,
        (L - t)_{m-k} / (L+k)_{m-k} = sum_i (-m+k)_i / ((L+k)_i i!) (t+k)_i,
    and (L)_m = (L)_k (L+k)_{m-k}, so the scalar of (t)_j is
        h_j = sum_{k+i=j} C_k (b)_k (-1)^i C(m-k, i) / (L)_j.
    ``_rising_scalars`` forms every h_j over one integer denominator and
    ``_rising_sum`` changes to monomials in integers, so no Fraction is
    built before the coefficients.  The cbm check rules out every divisor
    L + j (j < m).
    """
    b, c = as_rational(b), as_rational(c)
    enforce(q_conditions(pp, b, c))
    m = pp.total_shift
    return _rising_sum(*_rising_scalars(_c_numerators(pp), m, 1, [b], [], [c - b - m]))


def build_Qhat(
    pp: ParamPairs, a: RationalLike, b: RationalLike, c: RationalLike
) -> RationalPolynomial:
    """Second parametric weight polynomial, degree total_shift, value 1 at 0.

    Q^(t) = sum_k [(-1)^k C_k (a)_k (b)_k / ((c-a-m)_k (c-b-m)_k)] (t)_k G_{m,k}(t).

    Built in the rising-factorial basis, with no G polynomial.  G_{m,k}'s
    coefficient of (t+k)_i carries (c-a-m+k)_i (c-b-m+k)_i in its
    denominator, which joins the front's to give the scalar of (t)_j
        h_j = sum_{k+i=j} (-1)^k C_k (a)_k (b)_k (-1)^i C(m-k, i) (c-a-b-m)_i
              / ((c-a-m)_j (c-b-m)_j),
    formed over one integer denominator as in :func:`build_Q`.
    build_G's degenerate_g_denominator cannot fire here: G_{m,k} divides
    only by c-a-m+j and c-b-m+j with j < m, which ``qhat_conditions``
    rules out.
    """
    a, b, c = as_rational(a), as_rational(b), as_rational(c)
    enforce(qhat_conditions(pp, a, b, c))
    m = pp.total_shift
    return _rising_sum(*_rising_scalars(
        _c_numerators(pp), m, -1, [a, b], [c - a - b - m], [c - a - m, c - b - m]
    ))


@dataclass(frozen=True)
class ZeroSet:
    """Numerically found zeros (with multiplicity) and their residuals.

    Zeros are sorted by (real, imaginary) for deterministic output;
    residuals are |p(z)| / sum_i |c_i| |z|^i, i.e. relative to the
    coefficient magnitude at the point.  ``converged`` says whether every
    residual is within the requested tolerance; ``iterations`` is the
    number of Aberth sweeps taken.
    """

    zeros: tuple[complex, ...]
    residuals: tuple[float, ...]
    converged: bool
    iterations: int


MAX_SWEEPS = 200


def _log2(c: Fraction) -> int:
    """log2 |c| to within one, from the bit lengths (c != 0)."""
    return c.numerator.bit_length() - c.denominator.bit_length()


def _float_coefficients(p: RationalPolynomial, e: int) -> list[float]:
    """The coefficients c_i 2^(e i) of p(2^e u) in u, ascending, as floats.

    All are divided by one power of two taken from the largest, in one
    correctly rounded integer division each: the largest lands below 2 in
    magnitude, none overflows, and a tiny one may underflow to 0.0.
    """
    scaled = [
        (c.numerator << max(e * i, 0), c.denominator << max(-e * i, 0))
        for i, c in enumerate(p.coefficients)
    ]
    shift = max(n.bit_length() - d.bit_length() for n, d in scaled)
    up, down = max(-shift, 0), max(shift, 0)
    return [(n << up) / (d << down) for n, d in scaled]


def _exact_residual(p: RationalPolynomial, z: complex) -> float:
    """|p(z)| / sum_i |c_i| |z|^i at a float z, on p's integer coefficients.

    z = (a + b i) / q with q a power of two, so q^n D p(z) is the Gaussian
    integer sum_j N_j (a + b i)^j q^(n-j); the sum of magnitudes takes |a + b i|
    to 64 fractional bits.
    """
    _, coeffs = p._integer_form
    (a, qa), (b, qb) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    q = max(qa, qb)
    a, b = a * (q // qa), b * (q // qb)
    modulus, wide = math.isqrt((a * a + b * b) << 128), q << 64
    x = y = size = 0
    for k, c in enumerate(coeffs):
        x, y = x * a - y * b + c * q**k, x * b + y * a
        size = size * modulus + abs(c) * wide**k
    return math.isqrt((x * x + y * y) << (128 * p.degree)) / size


def _polygon_starts(p: RationalPolynomial, e: int) -> list[complex]:
    """Starting points for the zeros of p(2^e u), from its Newton polygon.

    The upper convex hull of the points (i, log2 |c_i 2^(e i)|), read from
    the exact coefficients' bit lengths, has an edge from i to j for every
    group of j - i zeros of about the modulus (|c_i| / |c_j|)^(1/(j-i))
    (Bini, Numer. Algorithms 1996).  Each edge gets one circle of j - i
    starts at that radius, turned by 2 pi i / n + 0.7, so that no start is
    real and no two circles line up.
    """
    n = p.degree
    hull: list[tuple[int, int]] = []
    for i, c in enumerate(p.coefficients):
        if not c:
            continue
        y = _log2(c) + e * i
        while len(hull) > 1 and (
            (hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
            >= (hull[-1][1] - hull[-2][1]) * (i - hull[-2][0])
        ):
            hull.pop()
        hull.append((i, y))
    starts = []
    for (i, lo), (j, hi) in zip(hull, hull[1:]):
        radius = 2.0 ** max(min((lo - hi) / (j - i), 1023), -1074)
        angles = (2 * math.pi * (k / (j - i) + i / n) + 0.7 for k in range(j - i))
        starts += (complex(radius * math.cos(a), radius * math.sin(a)) for a in angles)
    return starts


def _conjugate_pairs(zs: list[complex]) -> None:
    """Make the zeros of a real polynomial symmetric, in place.

    Each zero is matched with the nearest conjugate image among the zeros;
    where two zeros choose each other they become exact conjugates x +- iy,
    and a zero that chooses itself becomes real.
    """
    partner = [min(range(len(zs)), key=lambda j: abs(z.conjugate() - zs[j])) for z in zs]
    for i, j in enumerate(partner):
        if partner[j] != i or j < i:
            continue
        z, w = zs[i], zs[j]
        x = (z.real + w.real) / 2
        if i == j:
            zs[i] = complex(x, 0.0)
        else:
            y = math.copysign((abs(z.imag) + abs(w.imag)) / 2, z.imag)
            zs[i], zs[j] = complex(x, y), complex(x, -y)


def find_zeros(p: RationalPolynomial, tol: RationalLike = 1e-13) -> ZeroSet:
    """All complex zeros of ``p`` by the Aberth-Ehrlich iteration.

    Requires degree >= 1, p(0) != 0 and tol > 0.  The coefficients are
    divided by a power of two taken from the largest before they become
    floats, so none overflows and both residual sums stay finite.  When the
    constant coefficient underflows to 0.0 at that scale, or the leading one
    is subnormal, the zeros are sought in u = t / 2^e instead, with
    e = log2 |c_0 / c_n| / n rounded, which brings the leading and constant
    coefficients of p(2^e u) to the same size.  If either still misses, or
    2^e or a zero is not a finite nonzero float, p is rejected.  Every
    polynomial whose coefficients fit at e = 0 keeps e = 0.

    The zeros of the float coefficients in u are found by Gauss-Seidel
    Aberth sweeps (Aberth, Math. Comp. 1973; Ehrlich, CACM 1967) in complex
    floats, started from the Newton polygon (``_polygon_starts``).  Each
    zero u is moved by N / (1 - N sum_j 1 / (u - u_j)), N = p / p', until its
    relative residual is within 4 n 2^-53, and then for as long as the
    residual still falls and the step is above the rounding of u; of the
    last two places the one with the smaller residual is kept.  The sweeps
    stop when every zero has stopped, or after MAX_SWEEPS.  For |u| > 1,
    p / p' and the residual are evaluated on the reversed coefficients at
    1 / u, so no power of |u| overflows.  The coefficients are real, so the
    zeros are then made exact conjugate pairs and real zeros
    (``_conjugate_pairs``), and reported as z = 2^e u.

    The relative residual of z is the same ratio taken in u; where float
    rounding makes it 0.0, it is recomputed exactly (``_exact_residual``).
    If a residual exceeds ``tol`` a NonConvergenceError carrying the zeros
    is raised.  The zeros are stepped, judged and reported on the same float
    coefficients, so a tol below 4 n 2^-53, the sweeps' own floor, is met
    only where float rounding allows.
    """
    exact_tol = positive_tolerance(tol)
    if p.is_zero() or p.degree < 1:
        raise PreconditionError("degenerate_polynomial", "need degree >= 1")
    if p.coefficients[0] == 0:
        raise PreconditionError("degenerate_polynomial", "polynomial vanishes at 0")

    def unfit(cs: list[float]) -> bool:
        # a subnormal leading coefficient has lost bits, and with them the
        # zeros of largest modulus that it decides
        return cs[0] == 0 or abs(cs[-1]) < 2.0**-1022

    e = 0
    coeffs = _float_coefficients(p, e)
    if unfit(coeffs):
        e = round((_log2(p.coefficients[0]) - _log2(p.coefficients[-1])) / p.degree)
        coeffs = _float_coefficients(p, e)
    scale = 2.0**e if e < 1024 else math.inf
    if unfit(coeffs) or not 0 < scale < math.inf:
        raise PreconditionError(
            "degenerate_polynomial",
            "the constant coefficient underflows to 0.0, the leading one is subnormal, "
            "or 2^e is outside the float range",
        )
    n = p.degree
    backward = [(c, abs(c)) for c in coeffs]
    forward = backward[::-1]

    def horner(u: complex) -> tuple[complex, complex, float]:
        """p, p' and sum |c_i| |x|^i at x = u, or for |u| > 1 those of the
        reversed coefficients at x = 1 / u."""
        cs, x = (forward, u) if abs(u) <= 1 else (backward, 1 / u)
        value, slope, size, ax = 0j, 0j, 0.0, abs(x)
        for c, magnitude in cs:
            slope = slope * x + value
            value = value * x + c
            size = size * ax + magnitude
        return value, slope, size

    def relative_residual(z: complex) -> float:
        value, _, size = horner(z / scale)  # p(t) and sum |c_i| |t|^i equal their forms in u
        # 0.0 claims an exact zero of p, and float rounding can cancel to it elsewhere
        return abs(value) / size or _exact_residual(p, z)

    us = _polygon_starts(p, e)
    floor = 4 * n * 2.0**-53
    last = [math.inf] * n  # residual where each zero was last stepped from; -1 when done
    kept = list(us)
    active = list(range(n))
    sweeps = 0
    while active and sweeps < MAX_SWEEPS:
        sweeps += 1
        for i in active:
            u = us[i]
            value, slope, size = horner(u)
            residual = abs(value) / size
            if not value or floor >= residual >= last[i]:
                if residual > last[i]:
                    us[i] = kept[i]
                last[i] = -1.0
                continue
            last[i], kept[i] = residual, u
            if abs(u) <= 1:
                ratio = slope / value  # p'/p at u
            else:  # p(u) = u^n q(1/u), so p'/p = (n - q'/(u q)) / u
                ratio = (n - slope / (u * value)) / u
            try:
                pull = ratio - sum(1 / (u - w) for j, w in enumerate(us) if j != i)
            except ZeroDivisionError:  # another zero sits exactly at u
                continue
            if not pull:
                continue
            step = 1 / pull
            if math.isfinite(step.real) and math.isfinite(step.imag):
                us[i] = u - step
            if residual <= floor and abs(step) <= abs(u) * 2.0**-53:
                last[i] = -1.0  # the step is below the rounding of u
        active = [i for i in active if last[i] >= 0]
    _conjugate_pairs(us)
    zs = [complex(u.real * scale, u.imag * scale) for u in us]
    if not all(z and math.isfinite(z.real) and math.isfinite(z.imag) for z in zs):
        raise PreconditionError("degenerate_polynomial", "a zero leaves the float range")
    residuals = [relative_residual(z) for z in zs]
    pairs = sorted(zip(zs, residuals), key=lambda pair: (pair[0].real, pair[0].imag))
    zs, residuals = [z for z, _ in pairs], tuple(r for _, r in pairs)
    converged = all(r <= exact_tol for r in residuals)
    result = ZeroSet(tuple(zs), residuals, converged, sweeps)
    if not converged:
        raise NonConvergenceError(
            f"zeros miss tolerance {float(exact_tol):.3g}: worst residual {max(residuals):.3e}",
            best=result,
            history=residuals,
        )
    return result
