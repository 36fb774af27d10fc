"""Hypergeometric series descriptors and their evaluation.

A series is either a plain parameter list (``SeriesSpec``) or a kernel
plus a polynomial weight evaluated at the negated summation index
(``WeightedSeriesSpec``); the latter is how a transformed series is
carried around without computing any polynomial zeros.

Every path draws its terms from one integer recurrence of term ratios.
Terminating series are summed exactly over the rationals.  Every numeric
sum is formed in fixed point over the Python integers: each kernel is an
integer in units of 2^-P, stepped by one multiply and one floor division,
the terms add up exactly, and the floor errors are tracked as integers
beside them, so the rounding part of every bound is proven.  P rises
whenever a kernel runs short of bits, so neither a decaying kernel nor a
huge weight denominator costs precision.  Inside the unit disk a tail
bound from the parameters and the absolute values of the weight's
coefficients (never a bound on its zeros) ends the sum once tail plus
rounding meets the request.  At unit argument, where terms only decay
like a power of the index, the partial sum is completed with an
asymptotic tail (fitted inverse powers combined with Hurwitz zeta values),
whose start budget reads the parameters alone.  The fit is read through
its exact integer Lagrange weights, with no linear solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Callable, Iterator, Optional, Sequence, Union

from mpmath import mp, mpf

from .errors import NonConvergenceError, PreconditionError, positive_tolerance
from .exact import RationalLike, as_rational, nonpositive_integer, term_ratios
from .polynomials import RationalPolynomial


def _termination_index(numerators: Sequence[Fraction]) -> Optional[int]:
    """The smallest n with -n among the numerators, or None."""
    stops = [q for a in numerators if (q := nonpositive_integer(a)) is not None]
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
        q = nonpositive_integer(b)
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
    exact_value: Optional[Fraction] = None

    @property
    def terminated_exactly(self) -> bool:
        return self.exact_value is not None


def eval_terminating(spec: AnySeries) -> Fraction:
    """Exact rational sum of a series whose terms stop after index n.

    Horner on the term recurrence: with the ratios num_k / den_k of
    :func:`term_ratios` and the integers D w_k of :func:`_weights`,
    S_n = D w_n and S_k = D w_k + (num_k / den_k) S_{k+1}, kept as one
    integer numerator and one integer denominator; the sum is S_0 / D.
    The ratio at k = n is never formed, so a denominator pole -q with
    q >= n is never divided by.
    """
    n = spec.termination_index()
    if n is None:
        raise PreconditionError(
            "nonterminating",
            "no numerator parameter is a nonpositive integer; series does not terminate",
        )
    ratios = term_ratios(spec.kernel_numerators, spec.kernel_denominators, spec.argument)
    ratios = list(islice(ratios, n))
    denominator, weights = _weights(spec)
    weights = list(islice(weights, n + 1))
    top, bottom = weights.pop(), 1
    for (num, den), w in zip(reversed(ratios), reversed(weights)):
        top, bottom = w * den * bottom + num * top, den * bottom
    return Fraction(top, bottom * denominator)


def _max_param(spec: AnySeries) -> Fraction:
    """max |param| over the kernel's parameters, exactly (0 when there are none)."""
    return max(map(abs, (*spec.kernel_numerators, *spec.kernel_denominators)), default=Fraction(0))


def _weights(spec: AnySeries) -> tuple[int, Iterator[int]]:
    """(D, D * weight(-k) for k = 0, 1, 2, ...), from Horner on the integer form.

    D is the common denominator of the weight's coefficients (1 without a
    weight), so every yielded value is an integer.
    """
    denominator, coeffs = spec.weight._integer_form if spec.weight is not None else (1, (1,))

    def values() -> Iterator[int]:
        for k in count():
            w = 0
            for c in coeffs:
                w = c - w * k  # Horner at -k
            yield w

    return denominator, values()


# M_k of the disk tail bound is W(k) / (1 - rho'_k) in units of 2^-_TAIL_BITS, rounded up
_TAIL_BITS = 40


def _disk_tail_bound(spec: AnySeries) -> Callable[[int], Optional[int]]:
    """k -> an integer M_k with sum_{j >= k} |term_j| <= |kernel_k / D| M_k 2^-40.

    For |x| < 1.  M_k is valid once k > max|param| + 1 and
    rho'_k = rho_k (1 + 1/k)^deg < 1; before that the function returns None.
    - rho_k = |x| prod max(1, (a + k)/(b + k)) bounds every kernel ratio
      from index k on, pairing the numerators with the denominators plus
      1 (for k!), both sorted in descending order.  Each paired factor
      (a + j)/(b + j) is monotone in j and tends to 1; a leftover
      denominator divides by (b + k).  Leftover numerators only reach
      here with x = 0, where rho_k = 0.
    - |weight(-j)| <= W(j) = sum_i |c_i| j^i, and W(j+1)/W(j) <= (1 + 1/k)^deg.

    So the tail is at most |kernel_k| W(k) / (1 - rho'_k), and needs no
    bound on the weight's zeros.  Every step is exact over the integers:
    with a = p/q and b = r/s, (a + k)/(b + k) = (p + q k) s / ((r + s k) q),
    so rho'_k = top / bottom for two integers, and
    M_k = W(k) ceil(2^40 bottom / (bottom - top)), with W(k) on the
    integer coefficients of D * weight to match kernel_k / D.
    """
    x = abs(spec.argument)
    start = math.floor(_max_param(spec)) + 1  # k > start iff k > max|param| + 1
    nums = sorted(spec.kernel_numerators, reverse=True)
    dens = sorted([Fraction(1), *spec.kernel_denominators], reverse=True)
    growing = [
        (a.numerator, a.denominator, b.numerator, b.denominator)
        for a, b in zip(nums, dens)
        if a > b
    ]
    leftover = [(b.numerator, b.denominator) for b in dens[len(nums):]]
    # the s's and q's of those quotients, folded into two constants once
    up = x.numerator * math.prod(s for *_, s in growing) * math.prod(s for _, s in leftover)
    down = x.denominator * math.prod(q for _, q, _, _ in growing)
    if spec.weight is None:
        deg, coeffs = 0, (1,)
    else:
        deg = spec.weight.degree
        coeffs = tuple(abs(c) for c in spec.weight._integer_form[1])

    def bound(k: int) -> Optional[int]:
        if k <= start:
            return None
        top, bottom = up * (k + 1) ** deg, down * k**deg
        for p, q, r, s in growing:
            top *= p + q * k
            bottom *= r + s * k
        for r, s in leftover:
            bottom *= r + s * k
        if top >= bottom:
            return None
        weight = 0
        for c in coeffs:
            weight = weight * k + c
        return weight * -((-bottom << _TAIL_BITS) // (bottom - top))

    return bound


# Bits the fixed-point sum carries below the working precision, so that its
# floor errors stay well under the final rounding to mp.prec bits.
_GUARD_BITS = 8


def _fixed_point_sums(spec: AnySeries, prec: int) -> Iterator[tuple[int, ...]]:
    """Yield (S_k, R_k, X_k, E_k, w_k, P_k), k = 0, 1, 2, ..., in units of 2^-P_k.

    Term k is X_k w_k 2^-P_k, with the integer weights w_k of :func:`_weights`.
    X_k lies within E_k of 2^P_k kernel_k / D: X_0 = floor(2^P_0 / D), E_0 = 1,
    X_{k+1} = floor(X_k num_k / den_k) and E_{k+1} = ceil(E_k |num_k / den_k|)
    + 1, since the error scales by the ratio and the floor adds less than 1.
    S_k = sum_{j<k} X_j w_j and R_k = sum_{j<k} E_j |w_j| are exact, so the
    first k terms add up to S_k 2^-P_k within R_k 2^-P_k.

    P_0 = prec + _GUARD_BITS + bits(D - 1), so 2^P_0 / D lies in
    [2^(prec + _GUARD_BITS), 2^(prec + _GUARD_BITS + 1)) and X_0 has exactly
    prec + _GUARD_BITS + 1 bits for every D.  Whenever a nonzero X_k has
    fewer than max(prec - 64, prec // 2) bits, X_k, E_k, S_k and R_k are
    shifted left until X_k has prec + _GUARD_BITS bits, and P_k rises by the
    shift.  The shifts are exact, so the bounds hold.
    """
    bits = prec + _GUARD_BITS
    low = max(prec - 64, prec // 2)
    denominator, weights = _weights(spec)
    scale, slack, total, err = bits + (denominator - 1).bit_length(), 1, 0, 0
    kernel = (1 << scale) // denominator
    ratios = term_ratios(spec.kernel_numerators, spec.kernel_denominators, spec.argument)
    for (num, den), w in zip(ratios, weights):
        yield total, err, kernel, slack, w, scale
        total += kernel * w
        err += slack * abs(w)
        kernel = kernel * num // den
        slack = -(-slack * abs(num) // abs(den)) + 1
        if kernel.bit_length() < low and kernel:
            shift = bits - kernel.bit_length()
            kernel, slack, total, err = (v << shift for v in (kernel, slack, total, err))
            scale += shift


def _round_up(n: int, prec: int) -> int:
    """The least integer >= n with at most ``prec`` significant bits (n >= 0)."""
    drop = n.bit_length() - prec
    return n if drop <= 0 else ((n >> drop) + 1) << drop


def _fixed_point_pass(
    spec: AnySeries, tol, max_terms: int, tail: Callable[[int], Optional[int]]
) -> tuple[EvalResult, int]:
    """One pass of :func:`_sum_inside_disk` at the current ``mp.prec``.

    Returns the result and the extra decimal digits a second pass needs
    (0 when none does).
    """
    prec = mp.prec
    tol_num, tol_den = tol.as_integer_ratio()
    tol_bits = tol_num.bit_length() - tol_den.bit_length() + 1  # tol < 2^tol_bits

    def state(k: int, total: int, err: int, kernel: int, slack: int, scale: int):
        """(tail, rounding, target) after k terms, in units of 2^-P; tail None while invalid."""
        size = abs(total)
        factor = tail(k)
        tail_units = None if factor is None else ((abs(kernel) + slack) * factor >> _TAIL_BITS) + 1
        target = max(1 << scale, size) * tol_num // tol_den
        return tail_units, err + (size >> (prec - 1)) + 1, target

    sums = islice(_fixed_point_sums(spec, prec), max_terms + 1)
    for k, (total, err, kernel, slack, w, scale) in enumerate(sums):
        # M_k >= 2^40 W(k) >= 2^40 max(1, |w_k|), so the tail is at least
        # |X_k| max(1, |w_k|), and the target is below 2^(max(P, bits of S_k)
        # + tol_bits): while the bit lengths put the tail above it, no stop holds
        if kernel.bit_length() + w.bit_length() > max(scale, total.bit_length()) + tol_bits + 1:
            continue
        tail_units, rounding, target = state(k, total, err, kernel, slack, scale)
        if tail_units is not None and tail_units <= target and (
            tail_units <= target - rounding or 2 * rounding > target
        ):
            break
    tail_units, rounding, target = state(k, total, err, kernel, slack, scale)
    met = tail_units is not None and tail_units <= target - rounding
    value = mp.ldexp(mpf(total), -scale)
    if tail_units is None:
        bound = mp.inf
    else:
        bound = mp.ldexp(mpf(_round_up(tail_units + rounding, prec)), -scale)
    extra = 0
    if not met and 2 * rounding > target:
        extra = int(math.log10(rounding * tol_den) - math.log10(tol_num << scale)) + 2
    return EvalResult(value, bound, k), extra


def _sum_inside_disk(spec: AnySeries, precision: int, tol, max_terms: int) -> EvalResult:
    """Direct summation for |x| < 1, in fixed point over the integers.

    At mp.prec bits (precision + 10 digits) the first k terms add up to
    S_k 2^-P within R_k 2^-P (:func:`_fixed_point_sums`), and the value is
    S_k rounded once to mp.prec bits, which errs by at most |value| 2^(1 - prec).
    So the rounding part of the bound, in units of 2^-P, is
    R_k + |S_k| 2^(1 - prec) + 1, proven rather than estimated.  The
    tail from term k on is at most (|X_k| + E_k) M_k 2^-40 units
    (:func:`_disk_tail_bound`).

    Summing stops once tail + rounding <= tol max(2^P, |S_k|), so the
    reported bound meets the request.  It also stops once the tail alone
    meets that target while the rounding takes more than half of it: the
    terms cancelled (or tol is below the working precision), and more
    terms cannot help.  The series is then summed once more with
    log10(rounding / tol) + 2 more digits: enough for the rounding to meet
    the smallest possible target, tol, with room for the second pass to
    run up to 100 times as many terms or keep 100 times larger terms.
    """
    tail = _disk_tail_bound(spec)
    digits = precision + 10
    with mp.workdps(digits):
        result, extra = _fixed_point_pass(spec, tol, max_terms, tail)
    if extra:
        with mp.workdps(digits + extra):
            result, _ = _fixed_point_pass(spec, tol, max_terms, tail)
    return result


def _fit_orders(budget: int) -> tuple[int, int]:
    """The orders of the tail fit at ``budget`` and of its lower-order check."""
    order = min(12, max(4, budget // 24))
    return order, max(3, order - 3)


def _fit_nodes(upto: int, order: int) -> range:
    """The term indices an order-``order`` fit at ``upto`` reads, in [upto/2, upto]."""
    delta = max(1, upto // (2 * order))
    return range(upto, upto - order * delta, -delta)


def _fit_tail(terms, upto: int, s, zetas) -> mpf:
    """Tail sum_{k > upto} T_k from an inverse-power fit of the last terms.

    Models T_k k^(1+s) = sum_i e_i u^i in u = 1/k, i < n = len(zetas),
    through the n nodes k_j of :func:`_fit_nodes`, and completes the tail
    as sum_i e_i zetas[i], with the Hurwitz zeta values
    zetas[i] = zeta(1 + s + i, upto + 1).  The fit is read through its
    exact Lagrange weights, with no linear solve: the basis polynomial of
    node j is k_j^(n-1) P_j(u) / D_j, where P_j(u) = prod_{m != j}
    (k_m u - 1) has integer coefficients and D_j = prod_{m != j}
    (k_m - k_j) is an integer.  So the tail is sum_j y_j k_j^(n-1) / D_j
    sum_i [u^i]P_j zetas[i], with y_j = T_{k_j} k_j^(1+s).  ``terms`` is
    the node store: terms[k] is the pair (n, P) with T_k = n 2^-P, for at
    least every node k.
    """
    nodes = _fit_nodes(upto, len(zetas))
    full = [1]  # prod_m (k_m u - 1), lowest power first
    for k in nodes:
        full = [a * k - b for a, b in zip([0, *full], [*full, 0])]
    ys, weights = [], []
    for k in nodes:
        # P_j = full / (k_j u - 1), by synthetic division from the lowest power
        quotient, carry = [], 0
        for f in full[:-1]:
            carry = carry * k - f
            quotient.append(carry)
        denominator = math.prod(m - k for m in nodes if m != k)
        ys.append(mp.ldexp(terms[k][0], -terms[k][1]) * mpf(k) ** (1 + s))
        weights.append(mp.fdot(quotient, zetas) * k ** (len(nodes) - 1) / denominator)
    return mp.fdot(ys, weights)


def _sum_unit_argument(
    spec: AnySeries, precision: int, tol, max_terms: int
) -> EvalResult:
    """Unit-argument summation: partial sum plus asymptotic tail completion.

    The term ratio approaches 1 - (1+s)/k, so the tail behaves like an
    inverse-power series; a direct cutoff alone decays only like K^(-s).
    The completion fits that inverse-power behavior and sums it exactly
    with Hurwitz zeta values; :func:`_fit_tail` reads the fit through its
    exact integer Lagrange weights, with no linear solve.  The bound is
    four times the change when the fit drops three orders, plus the
    proven rounding of the fixed-point partial sum
    (:func:`_fixed_point_sums`, at precision + 25 digits) and of its one
    conversion, with the tail added, to mp.prec bits.

    The term budget starts at max(128, floor(8 max|param|) + 16), from the
    kernel parameters alone and exactly: it reads no bound on the weight's
    zeros and floats no parameter.  A budget too small for the weight shows
    in the fit's lower-order check, and the budget doubles, the last
    doubling capped at max_terms, until the bound meets ``tol``; below that
    start no fit is made, and the sum of max_terms + 1 terms comes with an
    infinite bound.  The schedule of budgets is known up front, so only the
    terms that some budget's fit or check fit reads are stored (the capped
    last budget's nodes reach back below the budget before it).  Each
    budget's zeta values are computed once and shared by the tail fit and
    its lower-order check.
    """
    start = max(128, math.floor(8 * _max_param(spec)) + 16)
    # 25 digits (83 bits) above the request: the tail fit extrapolates its
    # nodes and magnifies their rounding, by up to about 2^30 ulps of the
    # tail at order 12 (tested to stay within 2^40), so over 40 bits remain
    with mp.workdps(precision + 25):
        if max_terms < start:
            return _unbounded_partial_sum(spec, max_terms)
        sums = _fixed_point_sums(spec, mp.prec)
        budgets = [start]
        while budgets[-1] < max_terms:
            budgets.append(min(max_terms, 2 * budgets[-1]))
        nodes = {
            k
            for budget in budgets
            for order in _fit_orders(budget)
            for k in _fit_nodes(budget, order)
        }
        s = spec.excess()
        s_mp = mpf(s.numerator) / s.denominator
        tol_num, tol_den = tol.as_integer_ratio()
        best: Optional[EvalResult] = None
        terms = {}  # (X_k w_k, P_k) for each node k
        taken = 0
        for budget in budgets:
            # up to item budget + 1, whose S and R cover terms 0..budget
            for total, err, kernel, _, w, scale in islice(sums, budget + 2 - taken):
                if taken in nodes:
                    terms[taken] = (kernel * w, scale)
                taken += 1
            order, check_order = _fit_orders(budget)
            zetas = [mp.zeta(1 + s_mp + i, budget + 1) for i in range(order)]
            tail = _fit_tail(terms, budget, s_mp, zetas)
            tail_check = _fit_tail(terms, budget, s_mp, zetas[:check_order])
            value = mp.ldexp(total, -scale) + tail  # S 2^-P is exact, so one rounding
            rounding = mp.ldexp(err, -scale) + mp.ldexp(abs(value), 1 - mp.prec)
            bound = 4 * abs(tail - tail_check) + rounding
            result = EvalResult(value, bound, budget + 1)
            if best is None or bound < best.abs_error_bound:
                best = result
            if bound * tol_den <= tol_num * max(mpf(1), abs(value)):
                break
        return best


def _unbounded_partial_sum(spec: AnySeries, max_terms: int) -> EvalResult:
    """The sum of max_terms + 1 terms at the current mp.prec, with an infinite
    bound: what a unit-argument path returns below its least term count."""
    sums = _fixed_point_sums(spec, mp.prec)
    total, _, _, _, _, scale = next(islice(sums, max_terms + 1, None))
    return EvalResult(mp.ldexp(mpf(total), -scale), mp.inf, max_terms + 1)


def _levin_unit_argument(spec: AnySeries, precision: int, max_terms: int) -> EvalResult:
    """Optional sequence acceleration for unit argument (cross-check path).

    The transform peaks at moderate order and loses accuracy past it, so
    the input stays short, 24 to 56 terms; the error estimate compares two
    orders.  Below 24 terms no transform is made, and the sum of
    max_terms + 1 terms comes with an infinite bound.  The transform
    divides by each term, so a term that is 0 at the working precision
    raises NonConvergenceError.
    """
    with mp.workdps(2 * precision + 20):
        if max_terms < 24:
            return _unbounded_partial_sum(spec, max_terms)
        count = min(max_terms, 56)
        sums = islice(_fixed_point_sums(spec, mp.prec), 1, count + 1)
        partials = [mp.ldexp(mpf(total), -scale) for total, _, _, _, _, scale in sums]
        zero = next((k for k, (a, b) in enumerate(zip(partials, [0] + partials)) if a == b), None)
        if zero is not None:
            raise NonConvergenceError(
                f"levin acceleration divides by each term, and term {zero} is 0"
            )
        transform = mp.levin(method="levin", variant="u")
        value, _ = transform.update_psum(partials)
        short = mp.levin(method="levin", variant="u")
        value_short, _ = short.update_psum(partials[: count - 12])
        bound = 4 * abs(value - value_short) + abs(value) * mpf(10) ** (-precision)
        return EvalResult(+value, +bound, count)


def eval_numeric(
    spec: AnySeries,
    precision: int = 50,
    tol: RationalLike = Fraction(1, 10**12),
    max_terms: int = 400_000,
    acceleration: Optional[str] = None,
) -> EvalResult:
    """Evaluate a series numerically with an explicit error bound.

    ``precision`` is the working precision in decimal digits; ``tol`` the
    requested bound relative to max(1, |value|), read exactly by
    ``positive_tolerance``.  Terminating series are summed exactly and
    reported with the exact value attached.  Arguments must satisfy |x| < 1
    (with at most one numerator beyond the denominators unless x = 0), or
    x = 1 with positive excess.  If the bound cannot be met within
    ``max_terms`` the best estimate is returned with its (larger) bound;
    callers decide whether that is conclusive.

    ``acceleration="levin"`` switches the unit-argument path to Levin
    sequence acceleration (off by default; used for cross-checks).  Any
    other acceleration, or a tol that is not positive, is invalid_input.
    """
    tol = positive_tolerance(tol)
    if acceleration not in (None, "levin"):
        raise PreconditionError("invalid_input", f"unknown acceleration {acceleration!r}")
    n = spec.termination_index()
    if n is not None:
        exact = eval_terminating(spec)
        with mp.workdps(precision + 10):
            value = mpf(exact.numerator) / exact.denominator
            bound = abs(value) * mpf(10) ** (-precision) + mpf(10) ** (-precision - 30)
            return EvalResult(+value, +bound, n + 1, exact)
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
        s = spec.excess()
        if s <= 0:
            raise PreconditionError(
                "divergent", f"unit-argument series needs positive excess, got {s}"
            )
        if acceleration == "levin":
            return _levin_unit_argument(spec, precision, max_terms)
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
