"""Series evaluation: exact terminating sums, controlled numeric
summation inside the disk and at unit argument, and gamma ratios."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import islice

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import thomae.series
from thomae.errors import NonConvergenceError, PreconditionError
from thomae.exact import ParamPairs, pochhammer, pochhammer_product
from thomae.polynomials import RationalPolynomial, build_Q, find_zeros
from thomae.series import (
    EvalResult,
    SeriesSpec,
    WeightedSeriesSpec,
    _disk_tail_bound,
    _fixed_point_pass,
    _fit_nodes,
    _fit_tail,
    _fixed_point_sums,
    eval_numeric,
    eval_terminating,
    gamma_ratio,
    parametric_excess,
)
from thomae.transforms import euler1, euler2
from thomae.verification import verify_transform

F = Fraction

# euler1 with a weight of Fujiwara zero radius about 8300 on its target
_FOUND = euler1(F(3, 2), F(17, 4), F(-8, 3), ParamPairs([(F(19, 6), 2), (F(4), 1)]), F(-1, 2))


class TestSpecValidation:
    def test_unshielded_denominator_pole_rejected(self):
        with pytest.raises(PreconditionError) as err:
            SeriesSpec([F(1, 2), 1], [-2], F(1, 2))
        assert err.value.condition == "denominator_pole"

    def test_shielded_denominator_allowed(self):
        spec = SeriesSpec([-2, 1], [-4], F(1, 2))
        assert spec.termination_index() == 2

    def test_equal_magnitude_shield_allowed(self):
        # stops exactly at the index where the denominator would first vanish
        spec = SeriesSpec([-3, 1], [-3], 1)
        assert spec.termination_index() == 3
        eval_terminating(spec)  # must not divide by zero

    def test_excess(self):
        spec = SeriesSpec([F(1, 3), F(1, 4)], [3], 1)
        assert spec.excess() == 3 - F(1, 3) - F(1, 4)

    def test_weighted_excess_subtracts_degree(self):
        w = RationalPolynomial([1, -2, F(1, 3)])
        spec = WeightedSeriesSpec([F(1, 2), F(3, 4)], [4], w, 1)
        assert spec.excess() == 4 - F(1, 2) - F(3, 4) - 2

    def test_zero_weight_rejected(self):
        with pytest.raises(PreconditionError):
            WeightedSeriesSpec([1], [2], RationalPolynomial(), F(1, 2))


class TestEvalTerminating:
    def test_zero_numerator_parameter(self):
        spec = SeriesSpec([0, F(7, 3)], [F(11, 5)], F(1, 2))
        assert eval_terminating(spec) == 1

    def test_three_term_hand_sum(self):
        spec = SeriesSpec([-2, 1], [1], 1)
        assert eval_terminating(spec) == 0  # 1 - 2 + 1

    def test_classical_terminating_identity(self):
        # 3F2(-n, c-b, d; c, 1-e+d-n; 1) == (e)_n/(e-d)_n * 3F2(-n, b, d; c, e; 1)
        n, b, c, d, e = 2, F(1, 2), F(3), F(1), F(5)
        rhs_spec = SeriesSpec([-n, c - b, d], [c, 1 - e + d - n], 1)
        lhs_spec = SeriesSpec([-n, b, d], [c, e], 1)
        ratio = pochhammer(e, n) / pochhammer(e - d, n)
        assert eval_terminating(rhs_spec) == ratio * eval_terminating(lhs_spec)

    def test_weighted_termination(self):
        w = RationalPolynomial([1, F(1, 3)])
        spec = WeightedSeriesSpec([-3, F(1, 2)], [F(5, 2)], w, 1)
        direct = sum(
            pochhammer(-3, k)
            * pochhammer(F(1, 2), k)
            / pochhammer(F(5, 2), k)
            / pochhammer(1, k)
            * w.evaluate(-k)
            for k in range(4)
        )
        assert eval_terminating(spec) == direct

    def test_nonterminating_rejected(self):
        with pytest.raises(PreconditionError) as err:
            eval_terminating(SeriesSpec([F(1, 2)], [], F(1, 2)))
        assert err.value.condition == "nonterminating"


class TestEvalNumeric:
    def test_binomial_reduction(self):
        spec = SeriesSpec([F(1, 2), F(7, 3)], [F(7, 3)], F(1, 4))
        res = eval_numeric(spec, precision=40, tol=1e-25)
        with mp.workdps(50):
            true = (mpf(3) / 4) ** (-mpf(1) / 2)
            assert abs(res.value - true) <= res.abs_error_bound
            assert abs(res.value - true) < mpf(10) ** -25

    def test_unit_argument_matches_gamma_ratio(self):
        spec = SeriesSpec([F(1, 3), F(1, 4)], [3], 1)
        res = eval_numeric(spec, precision=50, tol=1e-14)
        ref = gamma_ratio(
            [F(3), F(3) - F(1, 3) - F(1, 4)], [F(3) - F(1, 3), F(3) - F(1, 4)]
        )
        with mp.workdps(50):
            assert abs(res.value - ref) / abs(ref) < mpf(10) ** -12

    def test_weighted_equals_explicit_pairs_for_rational_zeros(self):
        # the quadratic fixture weight has rational zeros 1/2 and 9/2, so the
        # explicit shifted-pair series is exactly constructible
        weight = build_Q(ParamPairs([(F(1, 2), 2)]), F(5, 2), F(3, 2))
        kernel_nums = (F(1, 4), F(-3))
        kernel_dens = (F(3, 2),)
        weighted = WeightedSeriesSpec(kernel_nums, kernel_dens, weight, F(3, 10))
        explicit = SeriesSpec(
            kernel_nums + (F(3, 2), F(11, 2)),
            kernel_dens + (F(1, 2), F(9, 2)),
            F(3, 10),
        )
        r1 = eval_numeric(weighted, precision=40, tol=1e-20)
        r2 = eval_numeric(explicit, precision=40, tol=1e-20)
        with mp.workdps(40):
            assert abs(r1.value - r2.value) / abs(r1.value) < mpf(10) ** -12

    def test_terminating_consistency(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(0, 5)
            spec = SeriesSpec(
                [-n, F(rng.randint(1, 9), 2)],
                [F(rng.randint(1, 9), 3)],
                F(rng.randint(-3, 3), 4),
            )
            exact = eval_terminating(spec)
            res = eval_numeric(spec, precision=30)
            assert res.terminated_exactly
            assert res.exact_value == exact
            with mp.workdps(40):
                diff = abs(res.value - mpf(exact.numerator) / exact.denominator)
                assert diff <= res.abs_error_bound

    def test_monotone_tail_bound(self):
        spec = SeriesSpec([F(1, 2), F(3, 4), F(1, 3)], [F(5, 4), F(7, 4)], 1)
        assert spec.excess() == F(5, 4) + F(7, 4) - F(1, 2) - F(3, 4) - F(1, 3)
        bounds = []
        for budget in (150, 300, 600, 1200):
            res = eval_numeric(spec, precision=50, tol=1e-45, max_terms=budget)
            bounds.append(res.abs_error_bound)
        assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_unit_argument_start_budget_is_exact(self):
        # max|param| = 10^400 is beyond float range, so the start budget
        # 8 max|param| + 16 must be taken exactly: any budget below it ends
        # with the partial sum and an infinite bound, and nothing overflows
        big = 10**400
        spec = SeriesSpec([F(1, 3), big], [big + 2], 1)
        res = eval_numeric(spec, max_terms=1000)
        assert res.abs_error_bound == mp.inf
        assert res.terms_used == 1001

    def test_unit_argument_stores_only_fit_nodes(self):
        # the fit reads at most 21 nodes per budget, so the memory must not
        # grow with the 20 001 terms summed (2.7 MB when every term was kept)
        spec = SeriesSpec([F(1, 3), F(1, 4)], [3], 1)
        tracemalloc.start()
        try:
            res = eval_numeric(spec, precision=60, tol=1e-200, max_terms=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.terms_used == 20_001
        assert peak < 1_000_000

    @pytest.mark.parametrize("max_terms", [1, 3, 4, 5, 127])
    def test_unit_argument_below_start_budget_is_unbounded(self, max_terms):
        # the tail fit starts at 128 terms here; with fewer there is no fit,
        # and the partial sum of max_terms + 1 terms has an infinite bound
        spec = SeriesSpec([F(1, 3), F(1, 4)], [3], 1)
        res = eval_numeric(spec, max_terms=max_terms)
        assert res.abs_error_bound == mp.inf
        assert res.terms_used == max_terms + 1
        partial = sum(_closed_form_terms([F(1, 3), F(1, 4)], [3], None, 1, max_terms + 1))
        with mp.workdps(80):
            partial = mpf(partial.numerator) / partial.denominator
            assert abs(res.value - partial) <= abs(partial) * mpf(10) ** -60

    def test_divergent_unit_argument_rejected(self):
        spec = SeriesSpec([F(3, 2), F(3, 2)], [F(1, 2)], 1)
        with pytest.raises(PreconditionError) as err:
            eval_numeric(spec)
        assert err.value.condition == "divergent"

    def test_divergent_inside_disk_rejected(self):
        # two numerators beyond the denominators: divergent for every x != 0
        weight = RationalPolynomial([1, 1])
        for spec in (SeriesSpec([F(1, 3), F(1, 4)], [], F(1, 2)),
                     WeightedSeriesSpec([F(1, 3), F(1, 4), 2], [3], weight, F(-1, 5))):
            with pytest.raises(PreconditionError) as err:
                eval_numeric(spec)
            assert err.value.condition == "divergent"
        # x = 0 and terminating series still evaluate
        assert eval_numeric(SeriesSpec([F(1, 3), F(1, 4)], [], 0)).value == 1
        assert eval_numeric(SeriesSpec([-2, F(1, 4)], [], F(1, 2))).exact_value == F(53, 64)

    def test_large_weight_radius_inside_disk(self):
        # euler1's target at x = 1/3: its weight's Fujiwara zero radius is
        # about 8300 (the true zero moduli are 8.4, 47.7 and 4089), which once
        # kept the tail bound infinite for 40 000 terms
        target = _FOUND.target
        assert max(abs(z) for z in find_zeros(target.weight).zeros) > 4000
        res = eval_numeric(target)
        assert mp.isfinite(res.abs_error_bound)
        assert res.terms_used < 300
        with mp.workdps(100):
            assert abs(res.value - _weighted_reference(target)) <= res.abs_error_bound

    def test_argument_outside_range_rejected(self):
        with pytest.raises(PreconditionError) as err:
            eval_numeric(SeriesSpec([F(1, 2)], [F(3, 2)], 2))
        assert err.value.condition == "argument_out_of_range"

    def test_unit_argument_needs_one_more_numerator(self):
        for nums, dens in (([F(1, 3)], [F(5, 2)]), ([F(1, 3), F(1, 4), F(1, 5)], [F(7, 2)])):
            with pytest.raises(PreconditionError) as err:
                eval_numeric(SeriesSpec(nums, dens, 1))
            assert err.value.condition == "argument_out_of_range"

    @pytest.mark.parametrize("max_terms", [1, 5, 21])
    def test_disk_budget_before_the_tail_bound_is_unbounded(self, max_terms):
        # the tail bound is valid only past k = max|param| + 1 = 21.1, so
        # these budgets end with an infinite bound on the partial sum
        spec = SeriesSpec([F(1, 2)], [F(-201, 10)], F(1, 2))
        res = eval_numeric(spec, precision=30, max_terms=max_terms)
        assert res.abs_error_bound == mp.inf
        assert res.terms_used == max_terms
        partial = sum(_closed_form_terms([F(1, 2)], [F(-201, 10)], None, F(1, 2), max_terms))
        with mp.workdps(60):
            partial = mpf(partial.numerator) / partial.denominator
            assert abs(res.value - partial) <= abs(partial) * mpf(10) ** -30

    @pytest.mark.parametrize(
        "request_",
        [dict(tol=0), dict(tol=-1e-12), dict(tol=math.nan), dict(tol=F(0)), dict(tol=F(-1, 3)),
         dict(acceleration="aitken")],
    )
    def test_bad_request_is_invalid_input(self, request_):
        spec = SeriesSpec([F(1, 3), F(1, 4)], [3], F(1, 2))
        with pytest.raises(PreconditionError) as err:
            eval_numeric(spec, **request_)
        assert err.value.condition == "invalid_input"

    def test_exact_tolerance_below_float_range(self):
        # 10^-480 as a float is 0.0; as a Fraction it is met
        spec = SeriesSpec([F(1, 3), F(1, 4)], [3], F(9, 10))
        res = eval_numeric(spec, precision=500, tol=F(1, 10**480))
        assert res.abs_error_bound <= mpf(10) ** -480
        with mp.workdps(520):
            exact = mpmath.hyp2f1(mpf(1) / 3, mpf(1) / 4, 3, mpf(9) / 10)
            assert abs(res.value - exact) <= res.abs_error_bound

    def test_levin_acceleration_cross_check(self):
        spec = SeriesSpec([F(1, 3), F(1, 4)], [3], 1)
        direct = eval_numeric(spec, precision=40, tol=1e-13)
        accelerated = eval_numeric(spec, precision=40, acceleration="levin")
        with mp.workdps(40):
            gap = abs(direct.value - accelerated.value)
            assert gap <= direct.abs_error_bound + accelerated.abs_error_bound

    @pytest.mark.parametrize("nums, dens, weight", [
        ([1, 1], [1], None),  # s = -1
        ([F(1, 2), F(1, 2)], [1], None),  # s = 0
        ([F(1, 3), F(1, 4)], [3], [1, 1, 1, 1]),  # s = -7/12, and w(-1) = 0
    ])
    def test_levin_rejects_divergent_series(self, nums, dens, weight):
        # the same excess rule as the tail-fit path, checked before any sum
        spec = (SeriesSpec(nums, dens, 1) if weight is None
                else WeightedSeriesSpec(nums, dens, RationalPolynomial(weight), 1))
        assert spec.excess() <= 0
        for acceleration in (None, "levin"):
            with pytest.raises(PreconditionError) as err:
                eval_numeric(spec, acceleration=acceleration)
            assert err.value.condition == "divergent"

    def test_levin_zero_term_is_nonconvergence(self):
        # w(t) = 1 + t vanishes at t = -1, so term 1 is 0, and Levin's
        # transform divides by every term; the series itself converges
        spec = WeightedSeriesSpec([F(1, 3), F(1, 4)], [3], RationalPolynomial([1, 1]), 1)
        assert spec.excess() == F(17, 12)
        with pytest.raises(NonConvergenceError, match="term 1 is 0"):
            eval_numeric(spec, acceleration="levin")
        assert eval_numeric(spec, tol=1e-13).abs_error_bound <= 1e-13

    @pytest.mark.parametrize("max_terms", [0, 3, 23])
    def test_levin_below_its_least_count_is_unbounded(self, max_terms):
        # Levin reads at least 24 terms; with fewer it makes no transform,
        # and the partial sum of max_terms + 1 terms has an infinite bound
        spec = SeriesSpec([F(1, 3), F(1, 4)], [3], 1)
        res = eval_numeric(spec, max_terms=max_terms, acceleration="levin")
        assert res.abs_error_bound == mp.inf
        assert res.terms_used == max_terms + 1
        partial = sum(_closed_form_terms([F(1, 3), F(1, 4)], [3], None, 1, max_terms + 1))
        with mp.workdps(80):
            partial = mpf(partial.numerator) / partial.denominator
            assert abs(res.value - partial) <= abs(partial) * mpf(10) ** -60

    def test_levin_at_its_least_count_is_bounded(self):
        spec = SeriesSpec([F(1, 3), F(1, 4)], [3], 1)
        res = eval_numeric(spec, max_terms=24, acceleration="levin")
        assert res.terms_used == 24 and res.abs_error_bound < 1e-10


def _closed_form_terms(nums, dens, weight, x, count):
    """prod (a)_k / (prod (b)_k k!) x^k weight(-k) for k < count, each from its closed form."""
    return [
        pochhammer_product(nums, k) / (pochhammer_product(dens, k) * math.factorial(k)) * x**k
        * (1 if weight is None else weight.evaluate(-k))
        for k in range(count)
    ]


_sevenths = st.fractions(min_value=F(-6), max_value=F(6), max_denominator=7)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=8),
    a=_sevenths,
    b=_sevenths.filter(lambda b: b.denominator > 1 or b > 0),
    weight=st.lists(_sevenths, min_size=1, max_size=4).filter(any).map(RationalPolynomial),
    x=st.fractions(min_value=F(-3), max_value=F(-1, 7), max_denominator=7),
)
def test_eval_terminating_matches_closed_form(n, a, b, weight, x):
    spec = WeightedSeriesSpec([-n, a], [b], weight, x)
    assert eval_terminating(spec) == sum(_closed_form_terms([-n, a], [b], weight, x, n + 1))


# euler2 at total shift 96 (pairs 1/3:48, 2/7:48): the common denominator
# of its target's weight has 1142 bits, far above 2^P at the precisions used
_M96 = euler2(F(1, 4), F(1, 5), F(5, 2), ParamPairs([(F(1, 3), 48), (F(2, 7), 48)]), F(1, 2))


class TestTermGenerator:
    """The one fixed-point recurrence against closed-form rational terms."""

    # w(t) = (t + 3)(t - 2/7), so w(-3) = 0
    ZERO_AT_3 = RationalPolynomial([F(-6, 7), F(19, 7), 1])

    @pytest.mark.parametrize("denominator", [1, 3, 2**20, 3**50])
    @pytest.mark.parametrize("prec", [40, 200])
    def test_first_kernel_has_full_width(self, denominator, prec):
        # X_0 = floor(2^P / D) at P = prec + 8 + bits(D - 1) has prec + 9 bits
        # for every D, including D = 3**50 > 2^72
        weight = RationalPolynomial([F(1, denominator), 1])
        assert weight._integer_form[0] == denominator
        spec = WeightedSeriesSpec([F(1, 3), F(1, 4)], [3], weight, F(1, 2))
        *_, kernel, _, _, scale = next(_fixed_point_sums(spec, prec))
        assert kernel.bit_length() == prec + 9
        assert kernel == (1 << scale) // denominator

    @pytest.mark.parametrize(
        "nums, dens, weight, x",
        [
            ([F(1, 3), F(-5, 7), F(9, 4)], [F(2, 7), F(11, 6)], None, F(-3, 5)),
            ([F(3, 2), F(-119, 12)], [F(-8, 3)], None, F(1, 3)),
            ([F(1, 4), F(7, 3)], [F(3, 2)], ZERO_AT_3, F(-9, 10)),
            ([F(2, 5), F(6, 7)], [F(13, 7)], ZERO_AT_3, F(1)),
            ([F(3, 2), F(-119, 12)], [F(-8, 3)], _FOUND.target.weight, F(1, 3)),
            (_M96.target.kernel_numerators, _M96.target.kernel_denominators, _M96.target.weight, 1),
        ],
    )
    def test_matches_exact_terms(self, nums, dens, weight, x):
        # every term and every partial sum within its proven floor error,
        # exactly in Fractions, over 300 terms, through the rescales
        count = 300
        exact = _closed_form_terms(nums, dens, weight, x, count)
        if weight is self.ZERO_AT_3:
            assert exact[3] == 0
        if weight is None:
            spec = SeriesSpec(nums, dens, x)
        else:
            spec = WeightedSeriesSpec(nums, dens, weight, x)
        for prec in (40, 200):
            partial = F(0)
            scales = set()
            for k, (total, err, kernel, slack, w, scale) in enumerate(
                islice(_fixed_point_sums(spec, prec), count)
            ):
                unit = F(1, 2**scale)
                assert abs(kernel * w * unit - exact[k]) <= slack * abs(w) * unit, (prec, k)
                assert abs(total * unit - partial) <= err * unit, (prec, k)
                assert kernel.bit_length() >= max(prec - 64, prec // 2), (prec, k)
                partial += exact[k]
                scales.add(scale)
            if prec == 40 and x != 1:  # the kernel decays geometrically, so the scale rises
                assert len(scales) > 1


@settings(max_examples=50, deadline=None)
@given(
    a=st.fractions(min_value=F(-8), max_value=F(8), max_denominator=9).filter(
        lambda f: f != 0
    ),
    k=st.integers(min_value=0, max_value=30),
)
def test_pochhammer_shift_ratio_identity(a, k):
    # (a+1)_k / (a)_k == 1 + k/a whenever the denominator is nonzero
    denominator = pochhammer(a, k)
    if denominator == 0:
        return
    assert pochhammer(a + 1, k) / denominator == 1 + Fraction(k, 1) / a


class TestGammaRatio:
    def test_beta_one_one(self):
        val = gamma_ratio([1, 1], [2])
        with mp.workdps(50):
            assert abs(val - 1) < mpf(10) ** -45

    def test_matches_quadrature_of_beta_integral(self):
        # B(1/2, 1) = integral of t^(-1/2) over [0,1] = 2
        val = gamma_ratio([F(1, 2), F(1)], [F(3, 2)])
        # at 15 digits mp.quad misses 2 by 5e-10 (the endpoint singularity)
        with mp.workdps(30):
            oracle = mp.quad(lambda t: t ** (-0.5), [0, 1])
        assert abs(float(val) - oracle) < 1e-10

    def test_unit_argument_prefactor_closed_form(self):
        # with a=1/4, b=5/2, c=3/2, m=2 the excess is e - d - 13/4, so the
        # prefactor collapses to G(e)G(e-d-13/4) / [G(e-d)G(e-13/4)]
        e, d = F(8), F(1)
        s = parametric_excess(F(1, 4), F(5, 2), F(3, 2), d, e, 2)
        assert s == e - d - F(13, 4)
        lhs = gamma_ratio([e, s], [e - d, s + d])
        rhs = gamma_ratio([e, e - d - F(13, 4)], [e - d, e - F(13, 4)])
        with mp.workdps(50):
            assert abs(lhs - rhs) < mpf(10) ** -40

    def test_negative_noninteger_sign_tracking(self):
        import mpmath

        val = gamma_ratio([F(-1, 2)], [])
        with mp.workdps(50):
            ref = mpmath.gamma(mpf(-1) / 2)
            assert abs(val - ref) / abs(ref) < mpf(10) ** -45
        val2 = gamma_ratio([F(-3, 2), F(-1, 2)], [F(1, 2)])
        with mp.workdps(50):
            ref2 = mpmath.gamma(mpf(-3) / 2) * mpmath.gamma(mpf(-1) / 2) / mpmath.gamma(mpf(1) / 2)
            assert abs(val2 - ref2) / abs(ref2) < mpf(10) ** -44

    def test_pole_rejected(self):
        with pytest.raises(PreconditionError) as err:
            gamma_ratio([0], [1])
        assert err.value.condition == "gamma_pole"
        with pytest.raises(PreconditionError):
            gamma_ratio([1], [-3])


class TestParametricExcess:
    def test_trivial(self):
        assert parametric_excess(0, 0, 1, 0, 1, 0) == 2

    def test_quadratic_fixture_pattern(self):
        d, e = F(2, 7), F(9)
        s = parametric_excess(F(1, 4), F(5, 2), F(3, 2), d, e, 2)
        assert s == e - d - F(13, 4)

    def test_random_recomputation(self):
        rng = random.Random(37)
        for _ in range(25):
            vals = [F(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(5)]
            m = rng.randint(0, 5)
            a, b, c, d, e = vals
            assert parametric_excess(a, b, c, d, e, m) == c + e - a - b - d - m


# Exact results of the numeric paths, as (mpf._mpf_ of the value, mpf._mpf_
# of the bound, terms_used), recorded with mpmath 1.3.0.  A change that moves
# any of these bits is a declared output change: re-record the entry and
# state the old and new tuples, with each new value inside the old bound.
# All four were re-recorded when every numeric path moved onto one
# self-rescaling fixed-point recurrence; unit_weighted and disk_weighted
# again when every kernel started at full width; unit_plain and the
# unit_weighted bound when the tail fit was read through exact Lagrange
# weights instead of a linear solve.
_PIN_WEIGHT = build_Q(ParamPairs([(F(1, 2), 2)]), F(5, 2), F(3, 2))
PINNED = {
    "unit_plain": (
        SeriesSpec([F(1, 2), F(3, 4), F(1, 3)], [F(5, 4), F(7, 4)], 1),
        dict(precision=50, tol=1e-45),
        (0, 3960820918201046311092111161666066422689045902547240591639770833472576585323, -251, 252),
        (0, 332676819004283014339234475987599064254645905254147635904751401480130684991, -398, 248),
        16385,  # seven budget doublings, from 128 terms
    ),
    "unit_weighted": (
        WeightedSeriesSpec([F(1, 4), F(7, 3)], [F(15, 2)], _PIN_WEIGHT, 1),
        dict(precision=50, tol=1e-30),
        (0, 748217274544220114333039855522589045401005902341138145591136937658878840861, -248, 249),
        (0, 2147653675439613529334007944138467990370101163311005263853762934765448593775, -360, 251),
        4097,
    ),
    "disk_weighted": (
        WeightedSeriesSpec([F(1, 4), F(7, 3)], [F(3, 2)], _PIN_WEIGHT, F(-1, 2)),
        dict(precision=40, tol=1e-30),
        (0, 461439063579377368653827883286523393510186528284067, -169, 169),
        (0, 2558651253354413816938426669601191326635016619, -251, 151),
        112,
    ),
    "levin": (
        SeriesSpec([F(1, 3), F(1, 4)], [3], 1),
        dict(precision=40, acceleration="levin"),
        (0, 72647237287026515501480273674073922913328569358135208788635052548600154796526523627566177684154679649, -335, 336),
        (0, 79133842385333735297864884619447742440575177857179221527313778248616739091711688789460356203166878119, -468, 336),
        56,
    ),
}


@pytest.mark.skipif(
    mpmath.__version__ != "1.3.0",
    reason="the pinned bits come from mpmath 1.3.0's zeta, fdot and levin",
)
@pytest.mark.parametrize("name", sorted(PINNED))
def test_numeric_paths_bit_identical(name):
    spec, options, value, bound, terms = PINNED[name]
    res = eval_numeric(spec, **options)
    assert res.value._mpf_ == value
    assert res.abs_error_bound._mpf_ == bound
    assert res.terms_used == terms


def _gamma_quotient(ups, downs):
    """prod G(u) / prod G(v) over rationals, at 60 digits."""
    def m(q):
        return mpf(q.numerator) / q.denominator

    with mp.workdps(60):
        return mpmath.fprod([mpmath.gamma(m(u)) for u in ups] + [mpmath.rgamma(m(v)) for v in downs])


def _from_zeros(zeros):
    """prod (1 - t/z) over the given nonzero rationals."""
    coeffs = [F(1)]
    for z in zeros:
        coeffs = [a - b / z for a, b in zip(coeffs + [F(0)], [F(0)] + coeffs)]
    return RationalPolynomial(coeffs)


def _weighted_reference(spec):
    """sum_k kernel_k weight(-k) at 100 digits, from mpmath.hyper alone.

    weight(-k) = sum_j d_j k(k-1)...(k-j+1) through the Stirling numbers of
    the second kind, and each such falling-factorial moment of the kernel
    is the shifted series x^j prod (a)_j / prod (b)_j pFq(a + j; b + j; x).
    """
    nums, dens, x = spec.kernel_numerators, spec.kernel_denominators, spec.argument
    deg = spec.weight.degree
    stirling = [[1] + [0] * deg]
    for _ in range(deg):
        prev = stirling[-1]
        stirling.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, deg + 1)])
    with mp.workdps(100):
        total = mpf(0)
        for j in range(deg + 1):
            d = sum((-1) ** i * c * stirling[i][j] for i, c in enumerate(spec.weight.coefficients))
            scale = d * x**j * math.prod(pochhammer(a, j) for a in nums)
            scale /= math.prod(pochhammer(b, j) for b in dens)
            if scale:
                shifted = mpmath.hyper([a + j for a in nums], [b + j for b in dens], x)
                total += mpf(scale.numerator) / scale.denominator * shifted
        return total


def _draw_parameter(rng, hi):
    """Quarters plus sevenths, up to about 3 * hi, never a nonpositive integer."""
    while True:
        x = F(rng.randint(-4 * hi, 12 * hi), 4) + F(rng.randint(0, 5), 7)
        if x.denominator != 1 or x > 0:
            return x


def _has_pole(params):
    return any(p.denominator == 1 and p <= 0 for p in params)


def _rising(x, n):
    return math.prod((x + k for k in range(n)), start=F(1))


class TestFitTail:
    """The unit-argument tail fit, read through exact Lagrange weights."""

    @staticmethod
    def _model_terms(coeffs, s, upto):
        """The node store of T_k = k^(-1-s) sum_i coeffs[i] k^-i, to 400 bits."""
        terms = {}
        with mp.workprec(400):
            for k in _fit_nodes(upto, len(coeffs)):
                t = mp.fsum(mpf(c.numerator) / c.denominator / mpf(k) ** (1 + s + i)
                            for i, c in enumerate(coeffs))
                scale = 400 - mp.mag(t)
                terms[k] = (int(mp.nint(mp.ldexp(t, scale))), scale)
        return terms

    @staticmethod
    def _inputs(order):
        """(upto, s, model coefficients): nine fits of the given order."""
        rng = random.Random(order)
        for upto in (128, 256, 16384):
            for s in (F(1), F(3, 2), F(7, 3)):
                coeffs = [F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                          for _ in range(order)]
                yield upto, s, coeffs

    @staticmethod
    def _fit(terms, upto, s, order):
        """The tail fit at the current precision, with its zeta values."""
        s_mp = mpf(s.numerator) / s.denominator
        zetas = [mp.zeta(1 + s_mp + i, upto + 1) for i in range(order)]
        return _fit_tail(terms, upto, s_mp, zetas)

    @pytest.mark.parametrize("order", [3, 5, 10, 12])
    def test_exact_on_inverse_power_terms(self, order):
        # terms that are exactly the fit's model must give back the model's
        # tail, sum_i e_i zeta(1 + s + i, upto + 1).  The fit extrapolates
        # the node values from u = 1/k in [1/upto, 2/upto] to (0, 1/upto],
        # which magnifies their rounding about 2^(2.5 order) (2^30 measured
        # at order 12), so 8^order ulps at the working precision covers it
        for upto, s, coeffs in self._inputs(order):
            with mp.workprec(300):
                s_mp = mpf(s.numerator) / s.denominator
                tail = self._fit(self._model_terms(coeffs, s_mp, upto), upto, s, order)
                with mp.workprec(400):
                    exact = mp.fsum(mpf(c.numerator) / c.denominator * mp.zeta(1 + s_mp + i, upto + 1)
                                    for i, c in enumerate(coeffs))
                assert abs(tail - exact) <= mp.ldexp(abs(exact), 3 * order - 300), (upto, s)

    @pytest.mark.parametrize("order", [3, 5, 10, 12])
    def test_rounding_stays_inside_the_working_margin(self, order):
        # the unit-argument sum works 25 digits (83 bits) above the request;
        # at its default working precision the fit must lose at most 2^40
        # ulps (2^30 measured at order 12) against the same fit 1000 bits wider
        for upto, s, coeffs in self._inputs(order):
            with mp.workdps(50 + 25):
                terms = self._model_terms(coeffs, mpf(s.numerator) / s.denominator, upto)
                tail = self._fit(terms, upto, s, order)
                with mp.workprec(mp.prec + 1000):
                    wide = self._fit(terms, upto, s, order)
                assert abs(tail - wide) <= mp.ldexp(abs(wide), 40 - mp.prec), (upto, s)

    def test_unit_argument_needs_no_linear_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the tail fit called mpmath's linear algebra")

        monkeypatch.setattr(mp, "lu_solve", refuse)
        monkeypatch.setattr(mp, "matrix", refuse)
        a, b, c = F(1, 3), F(1, 4), F(3)
        res = eval_numeric(SeriesSpec([a, b], [c], 1), precision=50, tol=1e-40)
        exact = gamma_ratio([c, c - a - b], [c - a, c - b], precision=60)
        with mp.workdps(60):
            assert abs(res.value - exact) <= res.abs_error_bound <= mpf(10) ** -40


class TestDiskTailBound:
    SPECS = {
        "weighted": WeightedSeriesSpec([F(1, 4), F(7, 3)], [F(3, 2)], _PIN_WEIGHT, F(-1, 2)),
        "weighted_large_radius": _FOUND.target,
        "plain": SeriesSpec([F(1, 3), F(7, 4)], [F(5, 2)], F(9, 10)),
        "zero_argument": SeriesSpec([F(1, 2), F(1, 3), F(-7, 4)], [], 0),
        "zero_argument_weighted": WeightedSeriesSpec(
            [F(1, 2)], [F(3, 2)], RationalPolynomial([F(1, 3), F(-2, 5)]), 0
        ),
        # the 1 for k! pairs with 5/2, so 1/3 is left over and divides by (1/3 + k)
        "leftover_denominator": SeriesSpec([F(5, 2)], [F(1, 3)], F(-9, 10)),
        # rho'_k >= 1 for a stretch of k past max|param| + 1 (at k = 5, 1.64)
        "ratio_above_one": SeriesSpec([F(3), F(5, 2)], [F(1, 2)], F(-9, 10)),
    }

    @staticmethod
    def _reference(spec, k):
        """W(k) ceil(2^40 / (1 - rho'_k)) over Fractions, or None while invalid."""
        if k <= max(abs(p) for p in (*spec.kernel_numerators, *spec.kernel_denominators)) + 1:
            return None
        nums = sorted(spec.kernel_numerators, reverse=True)
        dens = sorted([F(1), *spec.kernel_denominators], reverse=True)
        rho = abs(spec.argument)
        for a, b in zip(nums, dens):
            rho *= max(F(1), (a + k) / (b + k))
        for b in dens[len(nums):]:
            rho /= b + k
        weight = spec.weight if spec.weight is not None else RationalPolynomial([1])
        rho *= F(k + 1, k) ** weight.degree
        if rho >= 1:
            return None
        scale = math.lcm(*(c.denominator for c in weight.coefficients))
        w_k = sum(abs(c) * scale * k**i for i, c in enumerate(weight.coefficients))
        return w_k * math.ceil(2**40 / (1 - rho))

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_matches_fraction_reference(self, name):
        spec = self.SPECS[name]
        bound = _disk_tail_bound(spec)
        expected = [self._reference(spec, k) for k in range(400)]
        assert [bound(k) for k in range(400)] == expected
        assert expected[-1] is not None


class TestBoundEncloses:
    """|value - exact| <= abs_error_bound against independent closed forms."""

    EXCESS = (F(1, 10), F(1, 7), F(1, 3), F(1, 2), F(1), F(5, 2))

    def _check_unit_argument(self, cases):
        """Each (numerators, denominators, closed form): the bound encloses the error."""
        checked = 0
        for nums, dens, (ups, downs) in cases:
            if _has_pole(nums + dens):
                continue
            res = eval_numeric(SeriesSpec(nums, dens, 1))
            with mp.workdps(60):
                exact = _gamma_quotient(ups, downs)
                assert abs(res.value - exact) <= res.abs_error_bound, (nums, dens)
            checked += 1
        return checked

    def test_gauss_unit_argument(self):
        rng = random.Random(2026)

        def gauss(i):
            s, hi = self.EXCESS[i % 6], (1, 4, 12)[i // 6]  # parameters up to ~50
            a, b = _draw_parameter(rng, hi), _draw_parameter(rng, hi)
            c = a + b + s
            return [a, b], [c], ([c, c - a - b], [c - a, c - b])

        assert self._check_unit_argument(gauss(i) for i in range(18)) >= 15

    def test_dixon_unit_argument(self):
        # 3F2(a, b, c; 1+a-b, 1+a-c; 1), excess 2 + a - 2b - 2c
        rng = random.Random(2027)

        def dixon(i):
            s, hi = self.EXCESS[i % 6], (1, 2, 4)[i // 6]
            a, b = _draw_parameter(rng, hi), _draw_parameter(rng, hi)
            c = (2 + a - 2 * b - s) / 2
            half = a / 2
            return [a, b, c], [1 + a - b, 1 + a - c], (
                [1 + half, 1 + a - b, 1 + a - c, 1 + half - b - c],
                [1 + a, 1 + half - b, 1 + half - c, 1 + a - b - c],
            )

        assert self._check_unit_argument(dixon(i) for i in range(18)) >= 15

    def test_watson_unit_argument(self):
        # 3F2(a, b, c; (a+b+1)/2, 2c; 1), excess c - (a+b-1)/2
        rng = random.Random(2028)

        def watson(i):
            s, hi = self.EXCESS[i % 6], (1, 2, 4)[i // 6]
            a, b = _draw_parameter(rng, hi), _draw_parameter(rng, hi)
            c = s + (a + b - 1) / 2
            return [a, b, c], [(a + b + 1) / 2, 2 * c], (
                [F(1, 2), c + F(1, 2), (a + b + 1) / 2, s],
                [(a + 1) / 2, (b + 1) / 2, c - (a - 1) / 2, c - (b - 1) / 2],
            )

        assert self._check_unit_argument(watson(i) for i in range(18)) >= 15

    def _weighted_gauss(self, rng, i):
        """Case i of the weighted unit-argument sweep: a 2F1 kernel at x = 1
        times a weight of degree 1 to 4, whose leading coefficient is divided
        by 10^3 to 10^9 in every odd case."""
        degree, s = 1 + i // 2 % 4, self.EXCESS[i // 8 % 6]
        a, b = _draw_parameter(rng, 1), _draw_parameter(rng, 1)
        coeffs = [F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(degree)]
        coeffs.append(F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)))
        if i % 2:
            coeffs[-1] /= 10 ** rng.randint(3, 9)
        return WeightedSeriesSpec([a, b], [a + b + degree + s], RationalPolynomial(coeffs), 1)

    def test_weighted_unit_argument(self):
        # the start budget reads the kernel parameters alone, so a weight
        # with a tiny leading coefficient must neither break the bound nor
        # keep it from meeting tol within the budget
        rng = random.Random(2031)
        checked = tiny = 0
        for i in range(72):
            spec = self._weighted_gauss(rng, i)
            if _has_pole([*spec.kernel_numerators, *spec.kernel_denominators]):
                continue
            res = eval_numeric(spec, precision=30, tol=1e-12, max_terms=40_000)
            exact = _weighted_reference(spec)  # at x = 1, mpmath.hyper sums by Gauss
            with mp.workdps(100):
                assert abs(res.value - exact) <= res.abs_error_bound, i
                assert res.abs_error_bound <= 1e-12 * max(1, abs(res.value)), i
            checked += 1
            tiny += i % 2
        assert checked >= 60 and tiny >= 30

    @pytest.mark.parametrize("precision", [5, 50])
    def test_unit_argument_partial_sum_rounding(self, precision, monkeypatch):
        # with the tail fit taken out (both fits give 0), the bound is the
        # proven rounding alone, and it must enclose the exact partial sum
        monkeypatch.setattr(thomae.series, "_fit_tail", lambda terms, upto, s, zetas: mpf(0))
        nums, dens = [F(1, 4), F(7, 3)], [F(15, 2)]
        res = eval_numeric(WeightedSeriesSpec(nums, dens, _PIN_WEIGHT, 1), precision, max_terms=128)
        assert res.terms_used == 129
        partial = sum(_closed_form_terms(nums, dens, _PIN_WEIGHT, 1, 129))
        with mp.workdps(precision + 60):
            partial = mpf(partial.numerator) / partial.denominator
            assert 0 < abs(res.value - partial) <= res.abs_error_bound

    def test_pfaff_saalschutz_exact(self):
        # 3F2(-n, a, b; c, 1+a+b-c-n; 1) = (c-a)_n (c-b)_n / ((c)_n (c-a-b)_n)
        rng = random.Random(2029)
        checked = 0
        for i in range(40):
            n = i % 8
            a, b, c = (_draw_parameter(rng, 2) for _ in range(3))
            dens = [c, 1 + a + b - c - n]
            if _has_pole(dens):
                continue
            res = eval_numeric(SeriesSpec([-n, a, b], dens, 1))
            assert res.terminated_exactly
            assert res.exact_value == (
                _rising(c - a, n) * _rising(c - b, n) / (_rising(c, n) * _rising(c - a - b, n))
            ), (n, a, b, c)
            checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("x", [F(-9, 10), F(-1, 2), F(3, 10), F(9, 10)])
    def test_weighted_inside_disk(self, x):
        # the weight has zeros 1/2 and 9/2, so the weighted series equals the
        # plain one with the pairs 3/2 over 1/2 and 11/2 over 9/2 appended
        nums, dens = [F(1, 4), F(7, 3)], [F(3, 2)]
        res = eval_numeric(WeightedSeriesSpec(nums, dens, _PIN_WEIGHT, x), precision=40, tol=1e-30)
        with mp.workdps(60):
            exact = mpmath.hyper(
                [F(1, 4), F(7, 3), F(3, 2), F(11, 2)], [F(3, 2), F(1, 2), F(9, 2)], x
            )
            assert abs(res.value - exact) <= res.abs_error_bound

    # kernel numerators, kernel denominators, weight: Fujiwara zero radii of
    # about 10, 90, 640, 8100 and 8300 (the last is euler1's target above)
    RADIUS_WEIGHTS = [
        ([F(1, 4), F(7, 3)], [F(3, 2)], _from_zeros([F(-13, 2), F(23, 3)])),
        ([F(5, 7), F(-13, 6)], [F(11, 4)], _from_zeros([F(21, 5), F(-143, 3)])),
        ([F(1, 4), F(7, 3)], [F(3, 2)], _from_zeros([F(-9, 4), F(31, 2), F(613, 2)])),
        ([F(2, 3), F(9, 5)], [F(1, 7)], _from_zeros([F(42, 5), F(-143, 3), F(4089)])),
        (_FOUND.target.kernel_numerators, _FOUND.target.kernel_denominators, _FOUND.target.weight),
    ]

    @pytest.mark.parametrize("x", [F(-9, 10), F(1, 3), F(9, 10)])
    @pytest.mark.parametrize("case", range(len(RADIUS_WEIGHTS)))
    def test_weighted_inside_disk_any_radius(self, case, x):
        nums, dens, weight = self.RADIUS_WEIGHTS[case]
        spec = WeightedSeriesSpec(nums, dens, weight, x)
        exact = _weighted_reference(spec)
        for options in (dict(), dict(precision=40, tol=1e-30)):
            res = eval_numeric(spec, **options)
            with mp.workdps(100):
                assert abs(res.value - exact) <= res.abs_error_bound, options

    @pytest.mark.parametrize("x", [F(-9, 10), F(1, 3), F(9, 10)])
    @pytest.mark.parametrize(
        "nums, dens",
        [
            # each has a numerator above its paired denominator, so
            # sup_k (a + k)/(b + k) > 1
            ([F(37, 4), F(2, 3)], [F(3, 2)]),
            ([F(29, 3), F(5, 7), F(1, 6)], [F(5, 4), F(2, 5)]),
            ([F(41, 6)], []),
            ([F(-61, 7), F(13, 4)], [F(-11, 3)]),
            # b + k changes sign: the terms dip, then jump near k = 20, so
            # the ratio bound is only valid past the largest parameter
            ([F(1, 2)], [F(-201, 10)]),
        ],
    )
    def test_plain_inside_disk(self, nums, dens, x):
        with mp.workdps(100):
            exact = mpmath.hyper(nums, dens, x)
        for options in (dict(), dict(precision=40, tol=1e-30)):
            res = eval_numeric(SeriesSpec(nums, dens, x), **options)
            with mp.workdps(100):
                assert abs(res.value - exact) <= res.abs_error_bound, options

    @pytest.mark.parametrize(
        "nums, dens, x",
        [
            # the terms peak near 1e74 and cancel to about 0.1
            ([F(1, 2), F(161, 2)], [F(3, 2)], F(-9, 10)),
            # no cancellation, but the tail bound (about 1e-213) is far
            # below the rounding of the sum
            ([F(101, 2)], [F(121, 2)], F(1, 100)),
        ],
    )
    def test_rounding_inside_disk(self, nums, dens, x):
        with mp.workdps(100):
            exact = mpmath.hyper(nums, dens, x)
        for options in (dict(), dict(precision=40, tol=1e-30)):
            res = eval_numeric(SeriesSpec(nums, dens, x), **options)
            with mp.workdps(100):
                assert abs(res.value - exact) <= res.abs_error_bound, options
                # a cancelling sum is redone at a higher precision, and
                # summing stops on tail plus rounding, so the bound meets
                # the request
                tol = options.get("tol", 1e-12)
                assert res.abs_error_bound <= tol * max(1, abs(res.value)), options

    @pytest.mark.parametrize("max_terms", [80, 100])
    def test_weighted_inside_disk_budget_exhausted(self, max_terms):
        # the term budget runs out before tol is met, so the bound is the
        # geometric tail from the next term, weight factor included
        nums, dens, x = [F(1, 4), F(7, 3)], [F(3, 2)], F(-1, 2)
        res = eval_numeric(
            WeightedSeriesSpec(nums, dens, _PIN_WEIGHT, x), precision=40, tol=1e-30,
            max_terms=max_terms,
        )
        assert res.terms_used == max_terms
        with mp.workdps(60):
            exact = mpmath.hyper(
                [F(1, 4), F(7, 3), F(3, 2), F(11, 2)], [F(3, 2), F(1, 2), F(9, 2)], x
            )
            assert abs(res.value - exact) <= res.abs_error_bound

    def _disk_case(self, rng, i):
        """Case i of the disk sweeps: a plain 2F1, a weight with D > 1, or a
        kernel that dips and then grows, at x = -9/10, 9/10, -1/2 or 1/3."""
        x = (F(-9, 10), F(9, 10), F(-1, 2), F(1, 3))[i % 4]
        kind = i // 4 % 3
        nums = [_draw_parameter(rng, 2), _draw_parameter(rng, 2)]
        if kind == 2:
            # b + k changes sign near k = n: the terms shrink, then jump
            n = rng.randint(5, 20)
            return SeriesSpec(nums, [-n - F(rng.randint(1, 9), 10)], x)
        dens = [_draw_parameter(rng, 2)]
        if kind == 0:
            return SeriesSpec(nums, dens, x)
        degree = rng.randint(1, 3)
        coeffs = [F(rng.randint(-30, 30), rng.randint(2, 12)) for _ in range(degree)]
        # an even denominator on the leading coefficient keeps D > 1
        coeffs.append(F(rng.choice([-1, 1]) * (2 * rng.randint(0, 14) + 1), 2 * rng.randint(1, 6)))
        return WeightedSeriesSpec(nums, dens, RationalPolynomial(coeffs), x)

    @staticmethod
    def _reference(spec):
        if spec.weight is not None:
            return _weighted_reference(spec)
        with mp.workdps(100):
            return mpmath.hyper(spec.kernel_numerators, spec.kernel_denominators, spec.argument)

    @pytest.mark.parametrize("precision", [20, 50])
    def test_disk_sweep(self, precision):
        rng = random.Random(2030 + precision)
        weighted = 0
        for i in range(24):
            spec = self._disk_case(rng, i)
            if spec.weight is not None:
                assert spec.weight._integer_form[0] > 1
                weighted += 1
            exact = self._reference(spec)
            for tol in (1e-12, 10.0 ** (5 - precision)):
                res = eval_numeric(spec, precision=precision, tol=tol)
                with mp.workdps(100):
                    assert abs(res.value - exact) <= res.abs_error_bound, (i, tol)
                    # summing stops on tail plus rounding
                    assert res.abs_error_bound <= tol * max(1, abs(res.value)), (i, tol)
        assert weighted == 8

    @pytest.mark.parametrize("prec", [12, 24])
    def test_fixed_point_rounding_at_low_precision(self, prec):
        # one pass at a few bits, with tol far below them, sums all 2000
        # terms: the tail is negligible and the bound is the rounding alone,
        # the floor errors of the kernel recurrence (large against the value
        # when D is large) plus the final rounding to prec bits
        rng = random.Random(2040 + prec)
        cases = [self._disk_case(rng, i) for i in range(24)]
        # only the first term is nonzero, so the value is 1/3 rounded once
        cases.append(WeightedSeriesSpec([F(1, 2)], [F(3, 2)], RationalPolynomial([F(1, 3)]), 0))
        for i, spec in enumerate(cases):
            with mp.workprec(prec):
                res, _ = _fixed_point_pass(spec, 2.0**-200, 2000, _disk_tail_bound(spec))
            exact = self._reference(spec)
            with mp.workdps(100):
                assert abs(res.value - exact) <= res.abs_error_bound, i

    def test_disk_at_high_precision_and_huge_coefficients(self):
        # 2^P and the weight's integer coefficients far beyond float range
        spec = SeriesSpec([F(1, 3), F(7, 4)], [F(5, 2)], F(-1, 2))
        res = eval_numeric(spec, precision=300, tol=1e-290)
        with mp.workdps(320):
            exact = mpmath.hyper(spec.kernel_numerators, spec.kernel_denominators, spec.argument)
            assert abs(res.value - exact) <= res.abs_error_bound <= 1e-290 * abs(exact)
        weight = RationalPolynomial([F(10**400, 3), F(-1, 7), F(10**350)])
        spec = WeightedSeriesSpec([F(1, 3), F(7, 4)], [F(5, 2)], weight, F(9, 10))
        res = eval_numeric(spec, tol=1e-30)
        with mp.workdps(100):
            exact = _weighted_reference(spec)
            assert abs(res.value - exact) <= res.abs_error_bound <= 1e-30 * abs(exact)

    def test_large_degree_in_one_pass(self, monkeypatch):
        # at X_0 = floor(2^P / D) with a fixed P, the kernels of _M96's target
        # would round to nothing: the first pass ran all 40 000 terms, and a
        # second one at hundreds more digits redid the sum
        passes = []

        def counting(*args):
            passes.append(args)
            return _fixed_point_pass(*args)

        monkeypatch.setattr(thomae.series, "_fixed_point_pass", counting)
        res = eval_numeric(_M96.target, tol=1.25e-11, max_terms=40_000)
        assert len(passes) == 1 and res.terms_used < 300
        assert res.abs_error_bound <= 1.25e-11 * max(1, abs(res.value))
        assert verify_transform(_M96).verdict == "pass"
