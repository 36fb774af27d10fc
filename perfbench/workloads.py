"""The benchmark's four workloads: seeded inputs, the timed operation and
the correctness checks.

Each workload makes a fixed-size list of cases from its own
``random.Random`` (never from ``thomae.verification.generate_cases``, so a
change to the package's sampler cannot change what is measured).  Cases
are laid out in strata: case ``i`` takes its structural class (total
shift, parameter size, excess, argument) from ``i`` itself and only the
parameter values from the generator.  Every seed therefore runs the same
mix of classes, which keeps the cost of a run nearly independent of the
seed.

``run`` is the only timed call.  ``check`` compares its output with an
independent reference (``mpmath.hyper``, ``mpmath.gamma`` or exact
``Fraction`` sums written here) and returns an error message, or None when
the output is correct.  The package is always reached through attribute
lookups on the ``thomae`` modules at call time, so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import mpmath
from mpmath import mp

import thomae
import thomae.cli

# Working precision of the mpmath references.  The identities are checked
# to a relative 1e-10 at most, so 20 digits leave a wide margin.
REF_DPS = 20


def _mpf(x: F):
    return mp.mpf(x.numerator) / x.denominator


def _rational(rng: random.Random, hi: int, max_den: int = 6, positive: bool = False) -> F:
    """A rational p/q with 1 <= q <= max_den and |p/q| <= hi that is not a
    nonpositive integer (nor zero)."""
    while True:
        q = rng.randint(1, max_den)
        p = rng.randint(1 if positive else -hi * q, hi * q)
        x = F(p, q)
        if not (x.denominator == 1 and x <= 0):
            return x


def _shifts(rng: random.Random, total: int, largest: int) -> list[int]:
    out = []
    while total:
        shift = rng.randint(1, min(largest, total))
        out.append(shift)
        total -= shift
    return out


def _hyper(nums, dens, x: F, **options):
    return mpmath.hyper([_mpf(a) for a in nums], [_mpf(b) for b in dens], _mpf(x), **options)


def _zero_radius(poly) -> float:
    """Fujiwara's bound on the moduli of a polynomial's zeros."""
    coeffs = poly.coefficients
    deg = len(coeffs) - 1
    if deg < 1:
        return 0.0
    bounds = [abs(float(c / coeffs[-1])) ** (1.0 / (deg - i)) for i, c in enumerate(coeffs[:-1])]
    bounds[0] /= 2.0 ** (1.0 / deg)
    return 2.0 * max(bounds)


def _unit_reference(nums: list[F], dens: list[F]):
    """The sum at x = 1 of the series with these parameters, from
    ``mpmath.hyper``.

    The first K terms are summed exactly and the rest is
    T_K * hyper(nums + K, 1; dens + K, K + 1; 1), whose parameters are all
    positive.  ``mpmath.hyper`` on the original parameters raises
    NoConvergence after some 20 s on part of the unit_verify inputs, since
    with negative parameters its Euler-Maclaurin fallback meets poles of
    the term function between the integers.
    """
    head = math.ceil(max([0.0] + [-float(x) for x in nums + dens])) + 2
    total, term = F(0), F(1)
    for k in range(head):
        total += term
        for a in nums:
            term *= a + k
        for b in dens:
            term /= b + k
        term /= k + 1
    tail_nums = [a + head for a in nums] + [F(1)]
    tail_dens = [b + head for b in dens] + [F(head + 1)]
    # Euler-Maclaurin summation sometimes gives up at one precision and
    # succeeds at a higher one.  Shanks extrapolation never settles at
    # x = 1, and skipping it saves a third of the time.
    for dps in (REF_DPS, 2 * REF_DPS):
        with mp.workdps(dps):
            try:
                tail = _hyper(tail_nums, tail_dens, F(1), sum_method="r+e")
            except mp.NoConvergence:
                continue
            return _mpf(total) + _mpf(term) * tail
    raise mp.NoConvergence("mpmath.hyper found no reference value")


def _pair_lists(pairs) -> tuple[list[F], list[F]]:
    return [f + shift for f, shift in pairs], [f for f, _ in pairs]


# ------------------------------------------------------------ unit_verify

# Both summations wait for the term index to pass a multiple of the
# weight's zero radius: at x = 1 eight times it, inside the disk about twice
# it, with a slack factor that stays loose long after.  Weights with a
# radius in the hundreds take seconds and some end inconclusive (see
# CHANGES.md), so cases keep to weights whose Fujiwara radius is at most
# these caps.  The caps also narrow the spread of a case's cost, and so
# of a round's cost between seeds; tighter ones make the rejection
# sampling, and so set-up, slow.
UNIT_RADIUS_CAP = 20.0
DISK_RADIUS_CAP = 10.0

UNIT_SIZES = (2, 4, 6)
UNIT_EXCESS = (F(1), F(3, 2), F(2), F(3))


def make_unit_cases(rng: random.Random, count: int) -> list[dict]:
    """Unit-argument Thomae cases: total shift i % 7, parameter size
    UNIT_SIZES[i % 3], excess UNIT_EXCESS[i % 4], e - d >= 1, and weight
    zero radius at most UNIT_RADIUS_CAP."""
    cases = []
    for i in range(count):
        m, hi, s = i % 7, UNIT_SIZES[i % 3], UNIT_EXCESS[i % 4]
        while True:
            pairs = [(_rational(rng, hi), shift) for shift in _shifts(rng, m, 3)]
            a, b, d, c = (_rational(rng, hi) for _ in range(4))
            e = a + b + d + m - c + s
            if e - d < 1:
                continue
            try:
                transform = thomae.thomae(a, b, d, c, e, thomae.ParamPairs(pairs))
            except thomae.PreconditionError:
                continue
            if _zero_radius(transform.polynomial) <= UNIT_RADIUS_CAP:
                break
        cases.append(
            {
                "kind": "thomae",
                "a": str(a), "b": str(b), "d": str(d), "c": str(c), "e": str(e),
                "pairs": [[str(f), shift] for f, shift in pairs],
            }
        )
    return cases


def run_unit(case: dict):
    """One ``thomae verify --case <json> --json`` call at the CLI defaults."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = thomae.cli.main(["verify", "--case", json.dumps(case), "--json"])
    return code, out.getvalue()


def check_unit(case: dict, output) -> str | None:
    code, text = output
    if code != 0:
        return f"exit code {code}"
    report = json.loads(text)["outputs"]["cases"][0]
    if report["verdict"] != "pass":
        return f"verdict {report['verdict']}"
    pairs = [(F(f), shift) for f, shift in case["pairs"]]
    up, down = _pair_lists(pairs)
    with mp.workdps(REF_DPS):
        ref = _unit_reference(
            [F(case["a"]), F(case["b"]), F(case["d"])] + up,
            [F(case["c"]), F(case["e"])] + down,
        )
        gap = abs(mp.mpf(report["lhs"]) - ref)
        if gap > mp.mpf(report["combined_tolerance"]):
            return f"lhs {report['lhs']} is {mp.nstr(gap, 3)} from mpmath.hyper"
    return None


# ------------------------------------------------------------- euler_disk

# euler1's target sits at x/(x-1), which leaves the unit disk for x >= 1/2.
DISK_POINTS = (
    ("euler1", F(-9, 10)), ("euler1", F(-1, 2)), ("euler1", F(3, 10)),
    ("euler2", F(-9, 10)), ("euler2", F(-1, 2)), ("euler2", F(3, 10)), ("euler2", F(9, 10)),
)




def make_disk_cases(rng: random.Random, count: int) -> list[dict]:
    """euler1/euler2 cases: total shift 1 + i % 6, point DISK_POINTS[i % 7],
    weight zero radius at most DISK_RADIUS_CAP."""
    cases = []
    for i in range(count):
        m = 1 + i % 6
        kind, x = DISK_POINTS[i % 7]
        while True:
            pairs = [(_rational(rng, 5), shift) for shift in _shifts(rng, m, 3)]
            a, b, c = (_rational(rng, 5) for _ in range(3))
            try:
                transform = getattr(thomae, kind)(a, b, c, thomae.ParamPairs(pairs), x)
            except thomae.PreconditionError:
                continue
            if _zero_radius(transform.polynomial) <= DISK_RADIUS_CAP:
                break
        cases.append({"kind": kind, "a": a, "b": b, "c": c, "x": x, "pairs": pairs})
    return cases


def run_disk(case: dict):
    build = getattr(thomae, case["kind"])
    transform = build(case["a"], case["b"], case["c"], thomae.ParamPairs(case["pairs"]), case["x"])
    return thomae.verify_transform(transform)


def check_disk(case: dict, report) -> str | None:
    if report.verdict != "pass":
        return f"verdict {report.verdict}"
    up, down = _pair_lists(case["pairs"])
    with mp.workdps(REF_DPS):
        ref = _hyper([case["a"], case["b"]] + up, [case["c"]] + down, case["x"])
        gap = abs(report.lhs_value - ref)
        if gap > report.combined_tolerance:
            return f"lhs is {mp.nstr(gap, 3)} from mpmath.hyper"
    return None


# ----------------------------------------------------------- exact_degree

DEGREE_MIN, DEGREE_MAX = 2, 32
ZEROS_UP_TO = 10  # find_zeros is unreliable above this degree (see CHANGES.md)
EXACT_POINTS = (F(3, 10), F(-1, 2), F(9, 10))


def make_exact_cases(rng: random.Random, count: int) -> list[dict]:
    """Total shift 2 + i % 31 and point EXACT_POINTS[i % 3], so 93 cases hold
    every pair of the two once.  A terminating Thomae case (n <= 6) and an
    euler2 case with a = -n2 and c - b - m = -N, N >= m, so that both
    sides of both identities are finite rational sums.

    Pair bases have denominators 2..6 and b has denominator 7, so b - f is
    never an integer: b in f + {0, ..., shift - 1} lowers the degree of Q
    below m.  The same choice keeps every admissibility condition of both
    constructors satisfied without building anything here.
    """
    cases = []
    span = DEGREE_MAX - DEGREE_MIN + 1
    for i in range(count):
        m = DEGREE_MIN + i % span
        pairs = [(_pair_base(rng), shift) for shift in _shifts(rng, m, 8)]
        b, b2 = _sevenths(rng), _sevenths(rng)
        d, c = _rational(rng, 6), _rational(rng, 6)
        while True:
            # e - d = p/q + 1/7 with q <= 6 is no integer: 1 - e + d - n is no pole
            e = d + _rational(rng, 4, positive=True) + F(1, 7)
            if not (e.denominator == 1 and e <= 0):
                break
        extra = rng.randint(0, 3)
        cases.append(
            {"m": m, "pairs": pairs, "n": rng.randint(0, 6), "b": b, "d": d, "c": c, "e": e,
             "n2": rng.randint(1, 6), "N": m + extra, "b2": b2,
             "x": EXACT_POINTS[i % len(EXACT_POINTS)]}
        )
    return cases


def _pair_base(rng: random.Random) -> F:
    """A positive non-integer with denominator 2..6, at most 6."""
    q = rng.randint(2, 6)
    while True:
        x = F(rng.randint(1, 6 * q), q)
        if x.denominator != 1:
            return x


def _sevenths(rng: random.Random) -> F:
    """A nonzero non-integer p/7 with |p/7| <= 6."""
    while True:
        p = rng.randint(-42, 42)
        if p % 7:
            return F(p, 7)


def run_exact(case: dict):
    pp = thomae.ParamPairs(case["pairs"])
    terminating = thomae.thomae_terminating(case["n"], case["b"], case["d"], case["c"], case["e"], pp)
    report = thomae.verify_transform(terminating)
    c2 = case["b2"] + case["m"] - case["N"]
    argument = thomae.euler2(-case["n2"], case["b2"], c2, pp, case["x"])
    zeros = None
    if case["m"] <= ZEROS_UP_TO:
        zeros = (
            thomae.find_zeros(terminating.polynomial),
            thomae.find_zeros(argument.polynomial),
        )
    return terminating, report, argument, zeros


def _poch(a: F, k: int) -> F:
    out = F(1)
    for i in range(k):
        out *= a + i
    return out


def _weighted_sum(nums, dens, x: F, stop: int, weight=None) -> F:
    """sum_{k<=stop} prod (nums)_k / (prod (dens)_k k!) * weight(-k) * x^k,
    with every term built from scratch."""
    total = F(0)
    fact = 1
    for k in range(stop + 1):
        if k:
            fact *= k
        term = F(1, fact) * x**k
        for a in nums:
            term *= _poch(a, k)
        for b in dens:
            term /= _poch(b, k)
        if weight is not None:
            term *= weight.evaluate(-k)
        total += term
    return total


def _zero_error(poly, zero_set) -> str | None:
    if len(zero_set.zeros) != poly.degree:
        return f"{len(zero_set.zeros)} zeros for degree {poly.degree}"
    with mp.workdps(REF_DPS):
        coeffs = [_mpf(c) for c in poly.coefficients]
        for z in zero_set.zeros:
            z = mp.mpc(z)
            value = mp.polyval(coeffs[::-1], z)
            scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(coeffs))
            if abs(value) > 1e-10 * scale:
                return f"zero {z} has relative residual {mp.nstr(abs(value) / scale, 3)}"
    return None


def check_exact(case: dict, output) -> str | None:
    terminating, report, argument, zeros = output
    m, n = case["m"], case["n"]
    q, qhat = terminating.polynomial, argument.polynomial
    for label, poly in (("Q", q), ("Qhat", qhat)):
        if poly.evaluate(0) != 1 or poly.degree != m:
            return f"{label}(0) = {poly.evaluate(0)}, degree {poly.degree}, m = {m}"
    if report.verdict != "pass":
        return f"terminating verdict {report.verdict}"
    up, down = _pair_lists(case["pairs"])
    b, d, c, e = case["b"], case["d"], case["c"], case["e"]
    lhs = _weighted_sum([F(-n), b, d] + up, [c, e] + down, F(1), n)
    rhs = _poch(e - d, n) / _poch(e, n) * _weighted_sum(
        [F(-n), c - b - m, d], [c, 1 - e + d - n], F(1), n, q
    )
    if lhs != rhs or report.lhs_value != lhs:
        return "terminating Thomae identity is not exact"
    a2, b2, big_n, x = F(-case["n2"]), case["b2"], case["N"], case["x"]
    c2 = b2 + m - big_n
    lhs = _weighted_sum([a2, b2] + up, [c2] + down, x, case["n2"])
    rhs = (1 - x) ** (case["n2"] - big_n) * _weighted_sum(
        [c2 - a2 - m, F(-big_n)], [c2], x, big_n, qhat
    )
    if lhs != rhs:
        return "terminating euler2 identity is not exact"
    if zeros is not None:
        for poly, zero_set in zip((q, qhat), zeros):
            error = _zero_error(poly, zero_set)
            if error:
                return error
    return None


# ------------------------------------------------------------ oracle_quad

# (e - d, excess of the inner series).  The rule's convergence depends on
# the inner series' behaviour at x = 1, like (1 - x)^excess.  The total
# excess is an integer, as in criterion 09, which also keeps the mpmath
# reference fast.  With e - d = 3/2 and inner excess 1/2 the rule often
# fails to settle within its 768 nodes (see CHANGES.md), so that class is
# left out.
ORACLE_CLASSES = (
    (F(2), F(1)), (F(5, 2), F(1, 2)), (F(5, 2), F(3, 2)), (F(3), F(1)), (F(3), F(2)),
    (F(7, 2), F(1, 2)), (F(4), F(1)), (F(3, 2), F(3, 2)), (F(2), F(2)),
)


def make_oracle_cases(rng: random.Random, count: int) -> list[dict]:
    """Positive unit-argument cases as in acceptance criterion 09 (at most
    one pair, shift <= 2, parameters up to 6, integer excess 3 to 5):
    (e - d, inner excess) from ORACLE_CLASSES[i % 9], with no pair for
    the first nine cases, one for the next nine, and so on."""
    cases = []
    for i in range(count):
        gap, inner_excess = ORACLE_CLASSES[i % len(ORACLE_CLASSES)]
        r = i // len(ORACLE_CLASSES) % 2
        pairs = [(_rational(rng, 6, positive=True), rng.randint(1, 2)) for _ in range(r)]
        a, b, d = (_rational(rng, 6, positive=True) for _ in range(3))
        c = a + b + sum(shift for _, shift in pairs) + inner_excess
        up, down = _pair_lists(pairs)
        inner = thomae.SeriesSpec([a, b] + up, [c] + down, 1)
        cases.append({"d": d, "e": d + gap, "inner": inner})
    return cases


def run_oracle(case: dict):
    return thomae.beta_integral_oracle(case["d"], case["e"], case["inner"], rel_tol=2e-8)


def check_oracle(case: dict, value) -> str | None:
    d, e, inner = case["d"], case["e"], case["inner"]
    with mp.workdps(REF_DPS):
        ref = (
            mp.gamma(_mpf(d)) * mp.gamma(_mpf(e - d)) / mp.gamma(_mpf(e))
            * _unit_reference(
                list(inner.numerator_params) + [d], list(inner.denominator_params) + [e])
        )
        if abs(value - ref) > 1e-7 * abs(ref):
            return f"oracle {value} vs Gamma-ratio * hyper {mp.nstr(ref, 12)}"
    return None


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    make: Callable[[random.Random, int], list]
    run: Callable
    check: Callable
    cases: int  # distinct cases per run; the timed loop runs whole rounds of them


WORKLOADS = {
    "unit_verify": Workload(make_unit_cases, run_unit, check_unit, 84),
    "euler_disk": Workload(make_disk_cases, run_disk, check_disk, 252),
    "exact_degree": Workload(make_exact_cases, run_exact, check_exact, 93),
    "oracle_quad": Workload(make_oracle_cases, run_oracle, check_oracle, 216),
}


def check(name: str, case, output) -> str | None:
    """The workload's check, with an exception turned into its message."""
    try:
        return WORKLOADS[name].check(case, output)
    except Exception as exc:  # e.g. a report whose layout changed
        return f"check raised {exc.__class__.__name__}: {exc}"


def make_cases(name: str, seed: int, count: int | None = None) -> list:
    workload = WORKLOADS[name]
    # the workload name salts the seed so the four input streams differ
    rng = random.Random(f"{name}:{seed}")
    return workload.make(rng, workload.cases if count is None else count)
