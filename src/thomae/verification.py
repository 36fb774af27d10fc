"""Independent verification of the transformation identities.

Three instruments: a two-sided checker that evaluates both sides of a
constructed identity (exactly when both sides terminate, numerically
otherwise), a quadrature oracle that replays the moment-integral
construction behind the unit-argument identities on a Gauss-Jacobi rule,
and a reproducible rejection sampler for admissible random cases.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from mpmath import mp, mpf
from mpmath.libmp import to_rational

from .errors import NonConvergenceError, PreconditionError, enforce, positive_tolerance
from .exact import ParamPairs, RationalLike, as_rational
from .series import SeriesSpec, eval_numeric, eval_terminating
from .transforms import (
    PochhammerRatioPrefactor,
    TransformResult,
    _ed_positive,
    euler1,
    euler2,
    thomae,
    thomae_terminating,
)

if TYPE_CHECKING:  # numpy is imported where the oracle runs, not on every start
    import numpy as np


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity.

    ``verdict`` is "pass", "fail", or "inconclusive"; the last means the
    evaluators could not push their error bounds below the requested
    tolerance within budget, so no judgement is possible.  For exact
    (rational) checks the discrepancy is an exact Fraction and the
    combined tolerance is zero.
    """

    description: str
    lhs_value: object
    rhs_value: object
    discrepancy: object
    combined_tolerance: object
    budget_used: tuple[int, int]
    verdict: str
    exact: bool

    def passed(self) -> bool:
        return self.verdict == "pass"


def verify_transform(
    transform: TransformResult,
    tol: RationalLike = 1e-10,
    budget: int = 40_000,
    precision: int = 50,
) -> VerificationReport:
    """Evaluate both sides of an identity and compare.

    When both sides terminate and the prefactor is a rational Pochhammer
    ratio the comparison is exact with zero tolerance.  Otherwise both
    sides are evaluated numerically and the verdict uses the combined
    allowance tol * scale + (lhs bound) + (rhs bound): a failure requires
    a discrepancy exceeding every reported uncertainty.
    """
    tol = positive_tolerance(tol)
    exact_possible = (
        transform.source.termination_index() is not None
        and transform.target.termination_index() is not None
        and isinstance(transform.prefactor, PochhammerRatioPrefactor)
    )
    if exact_possible:
        lhs = eval_terminating(transform.source)
        rhs = transform.prefactor.exact() * eval_terminating(transform.target)
        discrepancy = abs(lhs - rhs)
        verdict = "pass" if discrepancy == 0 else "fail"
        budgets = (
            transform.source.termination_index() + 1,
            transform.target.termination_index() + 1,
        )
        return VerificationReport(
            transform.describe(), lhs, rhs, discrepancy, Fraction(0), budgets, verdict, True
        )

    with mp.workdps(precision + 10):
        inner_tol = tol / 8
        pref = transform.prefactor_value(precision)
        lhs_res = eval_numeric(transform.source, precision, inner_tol, budget)
        target_tol = inner_tol / max(1, Fraction(*to_rational(abs(pref)._mpf_)))
        rhs_res = eval_numeric(transform.target, precision, target_tol, budget)
        lhs = lhs_res.value
        rhs = pref * rhs_res.value
        # prefactor itself is accurate to working precision
        pref_bound = abs(pref) * mpf(10) ** (5 - precision)
        rhs_bound = abs(pref) * rhs_res.abs_error_bound + abs(rhs_res.value) * pref_bound
        discrepancy = abs(lhs - rhs)
        scale = max(mpf(1), abs(lhs), abs(rhs))
        allowed = mpf(tol.numerator) / tol.denominator * scale
        combined = allowed + lhs_res.abs_error_bound + rhs_bound
        bounds_met = (lhs_res.abs_error_bound + rhs_bound) <= allowed
        if discrepancy > combined:
            verdict = "fail"
        elif bounds_met:
            verdict = "pass"
        else:
            verdict = "inconclusive"
        return VerificationReport(
            transform.describe(),
            +lhs,
            +rhs,
            +discrepancy,
            +combined,
            (lhs_res.terms_used, rhs_res.terms_used),
            verdict,
            False,
        )


# Terms in the first and the largest block of the node sums, and the most
# entries (512 KiB of float64) of a block's (nodes x terms) matrix of powers
_FIRST_BLOCK = 64
_MAX_BLOCK = 4096
_BLOCK_ELEMENTS = 1 << 16


def _series_values_on_nodes(inner: SeriesSpec, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the series at each node in float64, with each node's sum of |term|.

    The nodes share each block of terms k0 + 1 .. k0 + m.  Term k0 + j at
    node x is term_k0 * C_j * x^j, where C_j = prod(ratios[:j]) over the
    coefficient ratios prod(a + k) / (prod(b + k) (k + 1)), k >= k0, is
    taken once for every node.  The powers x^j are one ``cumprod`` along the
    rows of an (active nodes x m) matrix, and each node's total gains
    term_k0 * (powers @ C).  Blocks grow from _FIRST_BLOCK terms to
    _MAX_BLOCK, and m shrinks so that the matrix holds at most
    _BLOCK_ELEMENTS entries.  A node stops once its last term is below
    relative machine noise and no larger than the block's first; the rest
    go on.  A series that terminates at n stops at k = n, so no denominator
    pole is reached.

    The sums of |term| measure how much a node's total cancels: each block
    adds |term_k0| * (powers @ |C|), since every node is positive.
    """
    import numpy as np

    n = inner.termination_index()
    totals = np.ones_like(xs)
    magnitudes = np.ones_like(xs)
    if n == 0:
        return totals, magnitudes
    nums = [float(a) for a in inner.numerator_params]
    dens = [float(b) for b in inner.denominator_params]
    active = np.arange(len(xs))  # the nodes still summing
    terms = np.ones_like(xs)  # each active node's last term summed so far
    k0, width = 0, _FIRST_BLOCK
    while True:
        m = min(width, _BLOCK_ELEMENTS // len(active))  # >= 1: at most _MAX_NODES nodes
        if n is not None:
            m = min(m, n - k0)
        ks = np.arange(k0, k0 + m, dtype=float)
        ratios = 1.0 / (ks + 1.0)
        for a in nums:
            ratios *= a + ks
        for b in dens:
            ratios /= b + ks
        coefficients = np.cumprod(ratios)
        powers = np.repeat(xs[active, None], m, axis=1)
        np.cumprod(powers, axis=1, out=powers)
        totals[active] += terms * (powers @ coefficients)
        magnitudes[active] += np.abs(terms) * (powers @ np.abs(coefficients))
        first = terms * (coefficients[0] * powers[:, 0])
        terms = terms * (coefficients[-1] * powers[:, -1])
        del powers  # one block's matrix alive at a time
        k0 += m
        if k0 == n:
            return totals, magnitudes
        if n is None:
            last = np.abs(terms)
            small = last <= 1e-17 * np.maximum(np.abs(totals[active]), 1e-300)
            going = ~(small & (last <= np.abs(first)))
            active, terms = active[going], terms[going]
            if not len(active):
                return totals, magnitudes
            if k0 > 8_000_000:
                raise NonConvergenceError(
                    f"series at node x={xs[active[0]]} did not converge within 8e6 terms",
                    best=totals[active[0]],
                )
        width = min(2 * width, _MAX_BLOCK)


def _gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule for (1-x)^alpha (1+x)^beta on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the Jacobi polynomials, and each weight is mu0 times the
    squared first component of its eigenvector.  The k = 0 diagonal entry
    and the k = 1 off-diagonal entry are written in cancelled form, since
    the general formulas are 0/0 at alpha + beta = 0 and alpha + beta = -1.
    """
    import numpy as np

    ab = alpha + beta
    k = np.arange(1, n, dtype=float)
    diagonal = np.concatenate((
        [(beta - alpha) / (ab + 2)],
        (beta**2 - alpha**2) / ((2 * k + ab) * (2 * k + ab + 2)),
    ))
    k = k[1:]
    off = np.sqrt(np.concatenate((
        [4 * (1 + alpha) * (1 + beta) / ((2 + ab) ** 2 * (3 + ab))],
        4 * k * (k + alpha) * (k + beta) * (k + ab)
        / ((2 * k + ab) ** 2 * (2 * k + ab + 1) * (2 * k + ab - 1)),
    )))
    nodes, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
    log_mu0 = (
        (ab + 1) * math.log(2) + math.lgamma(alpha + 1) + math.lgamma(beta + 1)
        - math.lgamma(ab + 2)
    )
    return nodes, math.exp(log_mu0) * vectors[0] ** 2


# The largest Gauss-Jacobi rule the oracle tries (24 nodes, doubled up to
# it).  An inner series with a known endpoint rate stops on its
# extrapolated values, one rule earlier than on the raw estimates.
_MAX_NODES = 768
# The factor by which the oracle's first stop test inflates the size of
# its Richardson correction, its estimate of the raw rule's error
_RATE_SAFETY = 4
# The float64 rounding allowed for in each term of a node sum, 2^6 ulps.
# An estimate is refused when this much of the integrated sums of |term|
# would exceed rel_tol/2 of it, since the stop rule could not see it.
_ROUNDING = 2.0**-46


def beta_integral_oracle(
    d: RationalLike,
    e: RationalLike,
    inner: SeriesSpec,
    rel_tol: float = 1e-8,
) -> float:
    """Integrate x^(d-1) (1-x)^(e-d-1) * F(x) over [0, 1] by quadrature.

    The endpoint weight is absorbed into a Gauss-Jacobi rule (built by
    ``_gauss_jacobi``), so only the series factor is sampled, in float64
    at strictly interior nodes; the rule size doubles from 24 nodes up to
    _MAX_NODES.  The ``argument`` field of ``inner`` is ignored: the series
    is evaluated in x across the quadrature nodes.

    A series that does not terminate and has one more numerator than
    denominators behaves at x = 1 like A(x) + (1-x)^s B(x), s its excess.
    The weight absorbs (1-x)^(e-d-1) A(x), so the n-point estimate I_n
    errs like n^(-p), p = 2 (e - d + s) > 0, and each doubling gives the
    Richardson value R_n = I_n + (I_n - I_(n/2)) / (2^p - 1).  It returns
    R_n once _RATE_SAFETY times that correction, or the change from the
    previous R, is within rel_tol/2 of R_n.  Any other series (a
    polynomial, or entire) returns the raw I_n once two successive
    estimates agree to rel_tol/2.

    A node sum that cancels in float64, so that _ROUNDING times the
    integrated sums of |term| exceeds rel_tol/2 of the estimate, raises
    ``NonConvergenceError`` instead of returning rounding noise.
    """
    d = as_rational(d)
    e = as_rational(e)
    if d <= 0:
        raise PreconditionError("d_not_positive", f"need d > 0, got {d}")
    enforce([_ed_positive(d, e)])
    exact_tol = positive_tolerance(rel_tol, "rel_tol")
    correction_factor = None  # 1 / (2^p - 1) when the endpoint rate is known
    if (
        inner.termination_index() is None
        and len(inner.numerator_params) == len(inner.denominator_params) + 1
    ):
        endpoint = (e - d) + min(Fraction(0), inner.excess())
        if endpoint <= 0:
            raise PreconditionError(
                "divergent",
                f"integrand is not integrable at x=1: (e-d) + min(0, excess) = {endpoint}",
            )
        # 2^-p underflows to 0.0 rather than overflowing for a large p
        shrink = 2.0 ** -float(2 * (e - d + inner.excess()))
        correction_factor = shrink / (1.0 - shrink)

    def settled(gap: float, value: float) -> bool:
        size = max(abs(value), 1e-300)
        # a float compares exactly with a Fraction; an infinite size never settles
        return math.isfinite(size) and 2 * gap <= exact_tol * Fraction(size)

    alpha = float(e - d - 1)
    beta = float(d - 1)
    scale = 0.5 ** float(e - 1)
    estimates = []  # the raw I_n
    values = []  # the values the stop rule compares: R_n, or I_n with no known rate
    n = 24
    while n <= _MAX_NODES:
        nodes, weights = _gauss_jacobi(n, alpha, beta)
        sums, magnitudes = _series_values_on_nodes(inner, (1.0 + nodes) / 2.0)
        estimates.append(scale * float(weights @ sums))
        mass = scale * float(weights @ magnitudes)
        if not settled(_ROUNDING * mass, estimates[-1]):
            raise NonConvergenceError(
                f"the series cancels in float64 at {n} nodes: terms of integrated "
                f"magnitude {mass:.3g} sum to {estimates[-1]:.3g}",
                best=estimates[-1],
                history=estimates,
            )
        if correction_factor is None:
            values.append(estimates[-1])
        elif len(estimates) >= 2:
            correction = (estimates[-1] - estimates[-2]) * correction_factor
            values.append(estimates[-1] + correction)
            if settled(_RATE_SAFETY * abs(correction), values[-1]):
                return values[-1]
        if len(values) >= 2 and settled(abs(values[-1] - values[-2]), values[-1]):
            return values[-1]
        n *= 2
    raise NonConvergenceError(
        f"quadrature did not stabilize to {rel_tol} within {_MAX_NODES} nodes",
        best=values[-1],
        history=estimates,
    )


@dataclass(frozen=True)
class CaseProfile:
    """Constraints for the admissible-case sampler.

    Rational parameters are drawn with numerator and denominator bounded
    by ``max_abs`` in absolute value; every drawn tuple must construct
    its transform without a violated condition, plus the extra filters
    recorded here.  Every drawn case also has e - d >= 1 and weight
    coefficients at most 10**6 in absolute value.
    """

    kind: str = "thomae"
    count: int = 20
    max_r: int = 2
    max_shift: int = 3
    max_abs: int = 12
    min_excess: Fraction = Fraction(1)
    max_n: int = 6
    argument: Fraction = Fraction(3, 10)
    positive_source: bool = False


@dataclass
class GeneratedCase:
    """One admissible sampled case and its constructed transform."""

    label: str
    params: dict
    transform: TransformResult


@dataclass
class GeneratedCases:
    cases: list[GeneratedCase]
    note: Optional[str] = None


def _draw_rational(rng: random.Random, max_abs: int, positive: bool = False) -> Fraction:
    num = rng.randint(1 if positive else -max_abs, max_abs)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, max_abs))


def _draw_pairs(rng: random.Random, profile: CaseProfile) -> ParamPairs:
    r = rng.randint(0, profile.max_r)
    pairs = []
    for _ in range(r):
        shift = rng.randint(1, profile.max_shift)
        f = _draw_rational(rng, profile.max_abs, positive=profile.positive_source)
        pairs.append((f, shift))
    return ParamPairs(pairs)


def _weight_small_enough(transform: TransformResult) -> bool:
    return all(
        abs(c.numerator) <= 10**6 * c.denominator for c in transform.polynomial.coefficients
    )


# The attempt cap of :func:`generate_cases`: draws per requested case
_ATTEMPTS_PER_CASE = 400


def generate_cases(seed: int, profile: CaseProfile) -> GeneratedCases:
    """Deterministic rejection sampling of admissible parameter tuples.

    Draws parameters, attempts the construction, and applies the profile
    filters; identical (seed, profile) always reproduce the same list.
    Returns fewer cases with an explanatory note when the attempt cap is
    exhausted (e.g. for unsatisfiable profiles).
    """
    rng = random.Random(seed)
    found: list[GeneratedCase] = []
    attempts = 0
    cap = profile.count * _ATTEMPTS_PER_CASE
    while len(found) < profile.count and attempts < cap:
        attempts += 1
        try:
            pp = _draw_pairs(rng, profile)
            positive = profile.positive_source
            if profile.kind == "thomae":
                a = _draw_rational(rng, profile.max_abs, positive)
                b = _draw_rational(rng, profile.max_abs, positive)
                d = _draw_rational(rng, profile.max_abs, positive)
                c = _draw_rational(rng, profile.max_abs, positive)
                # choose e so the excess lands at min_excess plus a small bonus
                e = a + b + d + pp.total_shift - c + profile.min_excess + rng.randint(0, 3)
                params = {"a": a, "b": b, "d": d, "c": c, "e": e, "pairs": pp.pairs}
                if e - d < 1:
                    continue
                transform = thomae(a, b, d, c, e, pp)
            elif profile.kind == "thomae_terminating":
                n = rng.randint(0, profile.max_n)
                b = _draw_rational(rng, profile.max_abs, positive)
                d = _draw_rational(rng, profile.max_abs, positive)
                c = _draw_rational(rng, profile.max_abs, positive)
                e = d + 1 + Fraction(rng.randint(0, 3 * profile.max_abs), profile.max_abs)
                params = {"n": n, "b": b, "d": d, "c": c, "e": e, "pairs": pp.pairs}
                transform = thomae_terminating(n, b, d, c, e, pp)
            elif profile.kind in ("euler1", "euler2"):
                a = _draw_rational(rng, profile.max_abs, positive)
                b = _draw_rational(rng, profile.max_abs, positive)
                c = _draw_rational(rng, profile.max_abs, positive)
                params = {"a": a, "b": b, "c": c, "x": profile.argument, "pairs": pp.pairs}
                builder = euler1 if profile.kind == "euler1" else euler2
                transform = builder(a, b, c, pp, profile.argument)
            else:
                raise ValueError(f"unknown case kind {profile.kind!r}")
            if positive and any(
                v <= 0
                for v in transform.source.numerator_params
                + transform.source.denominator_params
            ):
                continue
            if not _weight_small_enough(transform):
                continue
        except PreconditionError:
            continue
        label = f"{profile.kind}[" + ", ".join(
            f"{k}={_fmt_param(v)}" for k, v in params.items()
        ) + "]"
        found.append(GeneratedCase(label, params, transform))
    note = None
    if len(found) < profile.count:
        note = (
            f"only {len(found)} of {profile.count} requested cases found "
            f"after {attempts} attempts; profile may be unsatisfiable"
        )
    return GeneratedCases(found, note)


def _fmt_param(value) -> str:
    if isinstance(value, tuple):
        return "(" + ",".join(f"{f}:{s}" for f, s in value) + ")"
    return str(value)


@dataclass
class SweepSummary:
    admissible: int
    passed: int
    failed: int
    failures: list[str] = field(default_factory=list)


# The grid of :func:`terminating_sweep`: n, the pair bases f and their
# shifts, and the values of b, d, c and e
_SWEEP_N = range(7)
_SWEEP_F = (Fraction(1, 2), Fraction(1, 3), Fraction(2))
_SWEEP_SHIFTS = (1, 2, 3)
_SWEEP_B = (Fraction(1, 2), Fraction(2), Fraction(-3, 2))
_SWEEP_D = (Fraction(1, 3), Fraction(1))
_SWEEP_C = (Fraction(5, 2), Fraction(4))
_SWEEP_E = (Fraction(7, 2), Fraction(5), Fraction(13, 3))


def terminating_sweep() -> SweepSummary:
    """Exhaustive exact check of the terminating identity on a small grid.

    The pairs are none or one f:shift.  Every admissible tuple must give
    exactly equal rationals on both sides; any discrepancy is recorded
    verbatim.
    """
    pair_choices = [ParamPairs()]
    pair_choices += [ParamPairs([(f, shift)]) for f in _SWEEP_F for shift in _SWEEP_SHIFTS]
    summary = SweepSummary(0, 0, 0)
    grid = itertools.product(_SWEEP_N, pair_choices, _SWEEP_B, _SWEEP_D, _SWEEP_C, _SWEEP_E)
    for n, pp, b, d, c, e in grid:
        try:
            transform = thomae_terminating(n, b, d, c, e, pp)
        except PreconditionError:
            continue
        summary.admissible += 1
        report = verify_transform(transform)
        if report.passed():
            summary.passed += 1
        else:
            summary.failed += 1
            summary.failures.append(report.description)
    return summary
