"""Hypergeometric series descriptors and their evaluation.

A series is either a plain parameter list (``SeriesSpec``) or a kernel
plus a polynomial weight evaluated at the negated summation index
(``WeightedSeriesSpec``); the latter is how a transformed series is
carried around without computing any polynomial zeros.

Terminating series are summed exactly over the rationals.  Everything
else is summed in extended-precision floating point: a geometric tail
bound for arguments inside the unit disk, and an asymptotic tail
completion (fitted inverse powers combined with Hurwitz zeta values) at
unit argument, where terms only decay like a power of the index.

Every path, exact or numeric, draws its terms from one recurrence, which
forms each term ratio exactly over the integers and applies it with one
multiply and one divide.  Inside the disk the tail bound uses only the
parameters and the absolute values of the weight's coefficients, never a
bound on the weight's zeros, so a weight with a tiny leading coefficient
does not delay it; a rounding term covers the partial sum.  At unit
argument the term list is extended, not rebuilt, when the term budget
doubles, and each budget's Hurwitz zeta values are computed once and
shared by the tail fit and its lower-order check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence, Union

from mpmath import mp, mpf

from .errors import PreconditionError
from .exact import RationalLike, as_rational, term_ratios
from .polynomials import RationalPolynomial


def _nonpositive_integer(x: Fraction) -> Optional[int]:
    """Return q >= 0 when x == -q for an integer q, else None."""
    if x.denominator == 1 and x.numerator <= 0:
        return -x.numerator
    return None


def _termination_index(numerators: Sequence[Fraction]) -> Optional[int]:
    """The smallest n with -n among the numerators, or None."""
    stops = [q for a in numerators if (q := _nonpositive_integer(a)) is not None]
    return min(stops) if stops else None


def _kernel(
    numerators: Sequence[RationalLike],
    denominators: Sequence[RationalLike],
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Parameters as rationals, checked against the denominator-pole rule.

    A denominator parameter equal to -q (integer q >= 0) is only allowed
    when some numerator parameter -n with n <= q stops the series first.
    """
    nums = tuple(as_rational(a) for a in numerators)
    dens = tuple(as_rational(b) for b in denominators)
    stop = _termination_index(nums)
    for b in dens:
        q = _nonpositive_integer(b)
        if q is not None and (stop is None or stop > q):
            raise PreconditionError(
                "denominator_pole",
                f"denominator parameter {b} hits a pole before any "
                f"numerator parameter terminates the series",
            )
    return nums, dens


class _Series:
    """What the plain and the weighted descriptors share.

    Both expose ``kernel_numerators``, ``kernel_denominators``, ``weight``
    (None for a plain series) and ``argument``.
    """

    def termination_index(self) -> Optional[int]:
        return _termination_index(self.kernel_numerators)

    def excess(self) -> Fraction:
        """Sum of denominator minus numerator parameters, less the weight degree.

        The tail exponent: governs convergence at unit argument when the
        numerator list is one longer than the denominator list.
        """
        degree = self.weight.degree if self.weight is not None else 0
        return (
            sum(self.kernel_denominators, Fraction(0))
            - sum(self.kernel_numerators, Fraction(0))
            - degree
        )

    def describe(self) -> str:
        p, q = len(self.kernel_numerators), len(self.kernel_denominators)
        nums = ", ".join(str(a) for a in self.kernel_numerators)
        dens = ", ".join(str(b) for b in self.kernel_denominators) or "-"
        text = f"{p}F{q}[{nums}; {dens}; {self.argument}]"
        if self.weight is not None:
            text += f" weighted by {self.weight} at the negated index"
        return text


@dataclass(frozen=True)
class SeriesSpec(_Series):
    """Parameters and argument of a generalized hypergeometric series."""

    numerator_params: tuple[Fraction, ...]
    denominator_params: tuple[Fraction, ...]
    argument: Fraction

    def __init__(
        self,
        numerator_params: Sequence[RationalLike],
        denominator_params: Sequence[RationalLike],
        argument: RationalLike,
    ) -> None:
        nums, dens = _kernel(numerator_params, denominator_params)
        object.__setattr__(self, "numerator_params", nums)
        object.__setattr__(self, "denominator_params", dens)
        object.__setattr__(self, "argument", as_rational(argument))

    @property
    def kernel_numerators(self) -> tuple[Fraction, ...]:
        return self.numerator_params

    @property
    def kernel_denominators(self) -> tuple[Fraction, ...]:
        return self.denominator_params

    @property
    def weight(self) -> Optional[RationalPolynomial]:
        return None


@dataclass(frozen=True)
class WeightedSeriesSpec(_Series):
    """A hypergeometric kernel with a polynomial weight at the negated index.

    Represents  sum_k  [prod(nums)_k / (prod(dens)_k k!)] * weight(-k) * x^k.
    When the weight is one of the parametric polynomials with zeros z_i,
    this equals the plain series with the pairs (z_i + 1)/(z_i) appended,
    via the exact identity (z+1)_k / (z)_k = 1 + k/z.
    """

    kernel_numerators: tuple[Fraction, ...]
    kernel_denominators: tuple[Fraction, ...]
    weight: RationalPolynomial
    argument: Fraction

    def __init__(
        self,
        kernel_numerators: Sequence[RationalLike],
        kernel_denominators: Sequence[RationalLike],
        weight: RationalPolynomial,
        argument: RationalLike,
    ) -> None:
        nums, dens = _kernel(kernel_numerators, kernel_denominators)
        if weight.is_zero():
            raise PreconditionError("zero_weight", "weight polynomial is zero")
        object.__setattr__(self, "kernel_numerators", nums)
        object.__setattr__(self, "kernel_denominators", dens)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "argument", as_rational(argument))


AnySeries = Union[SeriesSpec, WeightedSeriesSpec]


@dataclass(frozen=True)
class EvalResult:
    """Outcome of a numeric series evaluation.

    ``exact_value`` is set exactly when the series terminates, in which
    case ``value`` is its floating rendition and the bound only covers
    that final rounding.
    """

    value: object
    abs_error_bound: object
    terms_used: int
    terminated_exactly: bool
    exact_value: Optional[Fraction] = None


def eval_terminating(spec: AnySeries) -> Fraction:
    """Exact rational sum of a terminating series."""
    n = spec.termination_index()
    if n is None:
        raise PreconditionError(
            "nonterminating",
            "no numerator parameter is a nonpositive integer; series does not terminate",
        )
    terms = islice(_kernel_and_weight(spec, Fraction(1)), n + 1)
    return sum((kernel * w for kernel, w in terms), Fraction(0))


def _max_param_magnitude(spec: AnySeries) -> float:
    vals = [abs(float(a)) for a in spec.kernel_numerators]
    vals += [abs(float(b)) for b in spec.kernel_denominators]
    return max(vals, default=0.0)


def _weight_zero_radius(weight: Optional[RationalPolynomial]) -> float:
    """Fujiwara bound on the moduli of the weight's zeros (0 for constants)."""
    if weight is None or weight.degree < 1:
        return 0.0
    deg = weight.degree
    lead = weight.coefficients[-1]
    bound = 0.0
    for i, c in enumerate(weight.coefficients[:-1]):
        ratio = abs(float(c / lead))
        if i == 0:
            ratio /= 2.0
        bound = max(bound, ratio ** (1.0 / (deg - i)))
    return 2.0 * bound


def _kernel_and_weight(spec: AnySeries, one=mpf(1)) -> Iterator[tuple]:
    """Yield (kernel_k / D, D * weight(-k)) for k = 0, 1, 2, ...

    kernel_k = prod (nums)_k / (prod (dens)_k k!) * x^k, and D is the
    common denominator of the weight's coefficients (1 without a weight),
    so the product of the pair is term k and the second entry is an
    integer, from Horner on the weight's integer form.  Each kernel ratio
    is the integer pair of :func:`thomae.exact.term_ratios`, applied with
    one multiply and one divide in the type of ``one``: ``mpf(1)`` for the
    numeric paths (consume the generator inside the precision context it
    was started in), ``Fraction(1)`` for exact terms.
    """
    denominator, coeffs = spec.weight._integer_form if spec.weight is not None else (1, (1,))
    kernel = one / denominator
    ratios = term_ratios(spec.kernel_numerators, spec.kernel_denominators, spec.argument)
    for k, (num, den) in enumerate(ratios):
        w = 0
        for c in coeffs:
            w = c - w * k  # Horner at -k
        yield kernel, w
        kernel = kernel * num / den


def _disk_tail_bound(spec: AnySeries) -> Callable[[int, object], object]:
    """(k, kernel_k / D) -> bound on sum_{j >= k} |term_j| for |x| < 1.

    Valid, and finite, once k > max|param| + 1 and rho_k (1 + 1/k)^deg < 1:
    - rho_k = |x| prod max(1, (a + k)/(b + k)) bounds every kernel ratio
      from index k on, pairing the numerators with the denominators plus
      1 (for k!), both sorted in descending order.  Each paired factor
      (a + j)/(b + j) is monotone in j and tends to 1; a leftover
      denominator divides by (b + k).  Leftover numerators only reach
      here with x = 0, where rho_k = 0.
    - |weight(-j)| <= W(j) = sum_i |c_i| j^i, and W(j+1)/W(j) <= (1 + 1/k)^deg.

    So the tail is at most |kernel_k| W(k) / (1 - rho_k (1 + 1/k)^deg), and
    needs no bound on the weight's zeros.  W is evaluated on the integer
    coefficients of D * weight, to match the generator's kernel_k / D.
    Before the bound is valid it is inf.  |x| is rounded up by 2^-40 so
    that the float product can only overestimate rho_k.
    """
    x = abs(float(spec.argument)) * (1 + 2.0**-40)
    big = _max_param_magnitude(spec)
    nums = sorted((float(a) for a in spec.kernel_numerators), reverse=True)
    dens = sorted([1.0, *(float(b) for b in spec.kernel_denominators)], reverse=True)
    growing = [(a, b) for a, b in zip(nums, dens) if a > b]
    leftover = dens[len(nums):]
    if spec.weight is None:
        deg, coeffs = 0, (1,)
    else:
        deg = spec.weight.degree
        coeffs = tuple(abs(c) for c in spec.weight._integer_form[1])

    def bound(k: int, kernel):
        if k <= big + 1:
            return mp.inf
        rho = x
        for a, b in growing:
            rho *= (a + k) / (b + k)
        for b in leftover:
            rho /= b + k
        if deg:
            rho *= (1 + 1 / k) ** deg
        if rho >= 1:
            return mp.inf
        weight = 0
        for c in coeffs:
            weight = weight * k + c
        return abs(kernel) * weight / (1 - rho)

    return bound


def _sum_inside_disk(spec: AnySeries, precision: int, tol, max_terms: int) -> EvalResult:
    """Direct summation for |x| < 1; the bound is the geometric tail plus the rounding.

    With u = 2^-prec, term j carries 2j + 2 roundings (1/D, a multiply and
    a divide per ratio, the weight), so its relative error is (2j + 2)u to
    first order, and each addition errs by at most u |partial_j|.  As
    |term_j| <= |partial_j| + |partial_{j-1}| to first order, the k summed
    terms err by at most
        u S + 2k u (S + S) = (4k + 1) u S,   S = sum_{j<k} |partial_j|.
    The bound adds (4k + 3) u S: the spare 2u S covers the second-order
    terms while k^2 u << 1.  Summing stops on the tail bound alone.  If the
    rounding term by itself misses the target, the terms cancelled (or tol
    is below the working precision), and the series is summed once more
    with log10(rounding / tol) + 2 more digits: enough for the rounding
    term to meet the smallest possible target, tol, with room for the
    second pass to run up to 100 times as many terms or reach a 100 times
    larger S.
    """
    tail = _disk_tail_bound(spec)
    digits = precision + 10
    while True:
        with mp.workdps(digits):
            tol = mpf(tol)
            partial = magnitude = mpf(0)
            terms = _kernel_and_weight(spec)
            kernel, weight_k = next(terms)
            k, bound, target = 0, mp.inf, tol
            while k < max_terms and bound > target:
                partial += kernel * weight_k
                size = abs(partial)
                magnitude += size
                kernel, weight_k = next(terms)
                k += 1
                bound = tail(k, kernel)
                target = tol * max(1, size)
            rounding = mp.ldexp(magnitude, -mp.prec) * (4 * k + 3)
            if rounding <= target or digits > precision + 10:  # at most one more pass
                return EvalResult(+partial, +(bound + rounding), k, False)
            digits += int(mp.log10(rounding / tol)) + 2


def _fit_tail(terms, upto: int, s, zetas) -> mpf:
    """Tail sum_{k > upto} T_k from an inverse-power fit of the last terms.

    Models T_k ~ k^(-1-s) * sum_i d_i (upto/k)^i, i < len(zetas), on nodes
    in [upto/2, upto] and completes the tail with the Hurwitz zeta values
    zetas[i] = zeta(1 + s + i, upto + 1).
    """
    order = len(zetas)
    delta = max(1, upto // (2 * order))
    ks = [upto - j * delta for j in range(order)]
    rows = []
    rhs = []
    for k in ks:
        v = mpf(upto) / k
        rows.append([v**i for i in range(order)])
        rhs.append(terms[k] * mpf(k) ** (1 + s))
    coeffs = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
    tail = mpf(0)
    for i in range(order):
        tail += coeffs[i] * mpf(upto) ** i * zetas[i]
    return tail


def _sum_unit_argument(
    spec: AnySeries, precision: int, tol, max_terms: int
) -> EvalResult:
    """Unit-argument summation: partial sum plus asymptotic tail completion.

    The term ratio approaches 1 - (1+s)/k, so the tail behaves like an
    inverse-power series; a direct cutoff alone decays only like K^(-s).
    The completion fits that inverse-power behavior and sums it exactly
    with Hurwitz zeta values, with a conservative integral-comparison
    cap retained as fallback bound.

    The term budget doubles until the bound meets ``tol``.  One term list
    is extended across the doublings, and each budget's zeta values are
    computed once and shared by the tail fit and its lower-order check.
    """
    s = spec.excess()
    if s <= 0:
        raise PreconditionError(
            "divergent", f"unit-argument series needs positive excess, got {s}"
        )
    big = _max_param_magnitude(spec) + _weight_zero_radius(spec.weight)
    start = max(128, int(8 * big) + 16)
    with mp.workdps(precision + 25):
        s_mp = mpf(s.numerator) / s.denominator
        tol = mpf(tol)
        budget = min(max_terms, start)
        best: Optional[EvalResult] = None
        source = (kernel * w for kernel, w in _kernel_and_weight(spec))
        terms = []
        while True:
            terms.extend(islice(source, budget + 1 - len(terms)))
            partial = mp.fsum(terms)
            window = [abs(terms[k]) * mpf(k) ** (1 + s_mp) for k in range(budget // 2, budget + 1)]
            crude = mpf("1.5") * max(window) * mpf(budget + 1) ** (-s_mp) / s_mp
            order = min(12, max(4, budget // 24))
            zetas = [mp.zeta(1 + s_mp + i, budget + 1) for i in range(order)]
            tail = _fit_tail(terms, budget, s_mp, zetas)
            tail_check = _fit_tail(terms, budget, s_mp, zetas[: max(3, order - 3)])
            stability = 4 * abs(tail - tail_check)
            value = partial + tail
            floor = abs(value) * mpf(10) ** (-precision)
            bound = min(crude, stability + floor)
            result = EvalResult(+value, +bound, budget + 1, False)
            if best is None or bound < best.abs_error_bound:
                best = result
            target = tol * max(mpf(1), abs(value))
            if bound <= target or budget >= max_terms:
                return best
            budget = min(max_terms, budget * 2)


def _levin_unit_argument(spec: AnySeries, precision: int, count: int) -> EvalResult:
    """Optional sequence acceleration for unit argument (cross-check path).

    The transform peaks at moderate order and loses accuracy past it, so
    the input stays short; the error estimate compares two orders.
    """
    count = max(24, min(count, 56))
    with mp.workdps(2 * precision + 20):
        partials = []
        acc = mpf(0)
        for kernel, w in islice(_kernel_and_weight(spec), count):
            acc += kernel * w
            partials.append(+acc)
        transform = mp.levin(method="levin", variant="u")
        value, _ = transform.update_psum(partials)
        short = mp.levin(method="levin", variant="u")
        value_short, _ = short.update_psum(partials[: count - 12])
        bound = 4 * abs(value - value_short) + abs(value) * mpf(10) ** (-precision)
        return EvalResult(+value, +bound, count, False)


def eval_numeric(
    spec: AnySeries,
    precision: int = 50,
    tol: RationalLike = Fraction(1, 10**12),
    max_terms: int = 400_000,
    acceleration: Optional[str] = None,
) -> EvalResult:
    """Evaluate a series numerically with an explicit error bound.

    ``precision`` is the working precision in decimal digits; ``tol`` the
    requested bound relative to max(1, |value|).  Terminating series are
    summed exactly and reported with the exact value attached.  Arguments
    must satisfy |x| < 1 (with at most one numerator beyond the
    denominators unless x = 0), or x = 1 with positive excess.  If the bound
    cannot be met within ``max_terms`` the best estimate is returned with
    its (larger) bound; callers decide whether that is conclusive.

    ``acceleration="levin"`` switches the unit-argument path to Levin
    sequence acceleration (off by default; used for cross-checks).  Any
    other acceleration, or a tol that is not positive, is invalid_input.
    """
    tol = float(tol)
    if not tol > 0:  # also rejects nan
        raise PreconditionError("invalid_input", f"tol must be positive, got {tol!r}")
    if acceleration not in (None, "levin"):
        raise PreconditionError("invalid_input", f"unknown acceleration {acceleration!r}")
    n = spec.termination_index()
    if n is not None:
        exact = eval_terminating(spec)
        with mp.workdps(precision + 10):
            value = mpf(exact.numerator) / exact.denominator
            bound = abs(value) * mpf(10) ** (-precision) + mpf(10) ** (-precision - 30)
            return EvalResult(+value, +bound, n + 1, True, exact)
    x = spec.argument
    if abs(x) < 1:
        if x != 0 and len(spec.kernel_numerators) > len(spec.kernel_denominators) + 1:
            raise PreconditionError(
                "divergent",
                "a nonterminating series with more than one numerator beyond its "
                "denominators diverges for every x != 0",
            )
        return _sum_inside_disk(spec, precision, tol, max_terms)
    if x == 1:
        if len(spec.kernel_numerators) != len(spec.kernel_denominators) + 1:
            raise PreconditionError(
                "argument_out_of_range",
                "unit-argument evaluation expects one more numerator than "
                "denominator parameter",
            )
        if acceleration == "levin":
            return _levin_unit_argument(spec, precision, min(max_terms, 400))
        return _sum_unit_argument(spec, precision, tol, max_terms)
    raise PreconditionError(
        "argument_out_of_range",
        f"argument {x} outside the supported range (|x| < 1 or x = 1)",
    )


def _gamma_argument(a):
    """a as an mpf, rejected at a pole of Gamma."""
    value = mpf(a.numerator) / a.denominator if isinstance(a, Fraction) else mpf(a)
    if value <= 0 and value == mp.floor(value):
        raise PreconditionError("gamma_pole", f"gamma pole at nonpositive integer {a}")
    return value


def gamma_ratio(numerators, denominators, precision: int = 50):
    """prod Gamma(n_i) / prod Gamma(d_j), by ``mp.gammaprod``.

    Accepts exact rationals or floats; rejects any argument at a pole.
    """
    with mp.workdps(precision + 10):
        return mp.gammaprod(
            [_gamma_argument(a) for a in numerators], [_gamma_argument(b) for b in denominators]
        )


def parametric_excess(
    a: RationalLike,
    b: RationalLike,
    c: RationalLike,
    d: RationalLike,
    e: RationalLike,
    m: int,
) -> Fraction:
    """The unit-argument convergence quantity c + e - a - b - d - m."""
    return (
        as_rational(c)
        + as_rational(e)
        - as_rational(a)
        - as_rational(b)
        - as_rational(d)
        - m
    )
