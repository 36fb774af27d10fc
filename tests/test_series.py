"""Series evaluation: exact terminating sums, controlled numeric
summation inside the disk and at unit argument, and gamma ratios."""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from scipy import integrate

from thomae.errors import PreconditionError
from thomae.exact import ParamPairs, pochhammer
from thomae.polynomials import RationalPolynomial, build_Q
from thomae.series import (
    EvalResult,
    SeriesSpec,
    WeightedSeriesSpec,
    eval_numeric,
    eval_terminating,
    gamma_ratio,
    parametric_excess,
)

F = Fraction


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

    def test_divergent_unit_argument_rejected(self):
        spec = SeriesSpec([F(3, 2), F(3, 2)], [F(1, 2)], 1)
        with pytest.raises(PreconditionError) as err:
            eval_numeric(spec)
        assert err.value.condition == "divergent"

    def test_argument_outside_range_rejected(self):
        with pytest.raises(PreconditionError) as err:
            eval_numeric(SeriesSpec([F(1, 2)], [F(3, 2)], 2))
        assert err.value.condition == "argument_out_of_range"

    def test_levin_acceleration_cross_check(self):
        spec = SeriesSpec([F(1, 3), F(1, 4)], [3], 1)
        direct = eval_numeric(spec, precision=40, tol=1e-13)
        accelerated = eval_numeric(spec, precision=40, acceleration="levin")
        with mp.workdps(40):
            gap = abs(direct.value - accelerated.value)
            assert gap <= direct.abs_error_bound + accelerated.abs_error_bound


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
        oracle, _ = integrate.quad(lambda t: t ** (-0.5), 0, 1)
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
# of the bound, terms_used), recorded with mpmath 1.3.0.  They were recorded
# before the term list was extended across budget doublings and the zeta
# values were shared between the two tail fits; those changes must not move
# a single bit.
_PIN_WEIGHT = build_Q(ParamPairs([(F(1, 2), 2)]), F(5, 2), F(3, 2))
PINNED = {
    "unit_plain": (
        SeriesSpec([F(1, 2), F(3, 4), F(1, 3)], [F(5, 4), F(7, 4)], 1),
        dict(precision=50, tol=1e-45),
        (0, 3960820918201046311092111161666066422689045902547240591639770833474741214583, -251, 252),
        (0, 5322942165518862708348443073708433979620706248242251609558108013460524013579, -402, 252),
        16385,  # seven budget doublings, from 128 terms
    ),
    "unit_weighted": (
        WeightedSeriesSpec([F(1, 4), F(7, 3)], [F(15, 2)], _PIN_WEIGHT, 1),
        dict(precision=50, tol=1e-30),
        (0, 2992869098176880457332159422090356181600182274774639223245082165569294080309, -250, 251),
        (0, 6007002788645036251598500547004899266387119319863445649920894008964416088631, -353, 252),
        2497,
    ),
    "disk_weighted": (
        WeightedSeriesSpec([F(1, 4), F(7, 3)], [F(3, 2)], _PIN_WEIGHT, F(-1, 2)),
        dict(precision=40, tol=1e-30),
        (0, 57679882947422171081728485410847653654522024723663, -166, 166),
        (0, 195371814374053152303988419244937672319260020288539, -267, 168),
        113,
    ),
    "levin": (
        SeriesSpec([F(1, 3), F(1, 4)], [3], 1),
        dict(precision=40, acceleration="levin"),
        (0, 72647237287026515501480273674073922913328569358135208788635052548600154753227323856485487945988651165, -335, 336),
        (0, 19783460596333433824466221154861464123583963501870981942174472536933590096055945828823860074484145269, -466, 334),
        56,
    ),
}


@pytest.mark.skipif(
    mpmath.__version__ != "1.3.0",
    reason="the pinned bits come from mpmath 1.3.0's zeta, lu_solve and levin",
)
@pytest.mark.parametrize("name", sorted(PINNED))
def test_numeric_paths_bit_identical(name):
    spec, options, value, bound, terms = PINNED[name]
    res = eval_numeric(spec, **options)
    assert res.value._mpf_ == value
    assert res.abs_error_bound._mpf_ == bound
    assert res.terms_used == terms


def _gauss_sum(a, b, c):
    """Gauss: 2F1(a, b; c; 1) = G(c) G(c-a-b) / (G(c-a) G(c-b)), at 60 digits."""
    def m(q):
        return mpf(q.numerator) / q.denominator

    with mp.workdps(60):
        return (
            mpmath.gamma(m(c)) * mpmath.gamma(m(c - a - b))
            * mpmath.rgamma(m(c - a)) * mpmath.rgamma(m(c - b))
        )


class TestBoundEncloses:
    """|value - exact| <= abs_error_bound against independent closed forms."""

    EXCESS = (F(1, 10), F(1, 7), F(1, 3), F(1, 2), F(1), F(5, 2))

    def test_gauss_unit_argument(self):
        rng = random.Random(2026)

        def draw(hi):
            # quarters plus sevenths, never a nonpositive integer
            while True:
                x = F(rng.randint(-4 * hi, 12 * hi), 4) + F(rng.randint(0, 5), 7)
                if x.denominator != 1 or x > 0:
                    return x

        checked = 0
        for i in range(18):
            s, hi = self.EXCESS[i % 6], (1, 4, 12)[i // 6]  # parameters up to ~50
            a, b = draw(hi), draw(hi)
            c = a + b + s
            if c.denominator == 1 and c <= 0:
                continue
            res = eval_numeric(SeriesSpec([a, b], [c], 1))
            with mp.workdps(60):
                assert abs(res.value - _gauss_sum(a, b, c)) <= res.abs_error_bound, (a, b, c)
            checked += 1
        assert checked >= 15

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
