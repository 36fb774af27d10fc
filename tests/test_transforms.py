"""Transformation constructors: classical reductions, printed fixtures,
two-sided numeric soundness, contraction, and named failure modes."""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from thomae.errors import PreconditionError
from thomae.exact import ParamPairs, pochhammer
from thomae.polynomials import RationalPolynomial
from thomae.series import SeriesSpec, WeightedSeriesSpec, eval_numeric, eval_terminating
from thomae.transforms import (
    GammaRatioPrefactor,
    PochhammerRatioPrefactor,
    PowerOfOneMinusX,
    contract_pairs,
    euler1,
    euler2,
    thomae,
    thomae_terminating,
)

F = Fraction
QUAD_PAIRS = ParamPairs([(F(1, 2), 2)])
A, B, C = F(1, 4), F(5, 2), F(3, 2)


def _two_sided_gap(transform, precision=40, tol=1e-22):
    lhs = eval_numeric(transform.source, precision=precision, tol=tol)
    rhs = eval_numeric(transform.target, precision=precision, tol=tol)
    pref = transform.prefactor_value(precision)
    with mp.workdps(precision):
        return abs(lhs.value - pref * rhs.value) / max(mpf(1), abs(lhs.value))


class TestEuler1:
    def test_classical_reduction_structure(self):
        t = euler1(F(1, 3), F(1, 5), F(7, 4), ParamPairs(), F(1, 4))
        assert t.target.kernel_numerators == (F(1, 3), F(7, 4) - F(1, 5))
        assert t.target.kernel_denominators == (F(7, 4),)
        assert t.target.weight.coefficients == (F(1),)
        assert t.target.argument == F(1, 4) / (F(1, 4) - 1)
        assert t.prefactor == PowerOfOneMinusX(F(-1, 3))

    def test_classical_reduction_matches_hyp2f1(self):
        a, b, c, x = F(1, 3), F(1, 5), F(7, 4), F(1, 4)
        t = euler1(a, b, c, ParamPairs(), x)
        rhs = eval_numeric(t.target, precision=40, tol=1e-25)
        with mp.workdps(40):
            lhs = mpmath.hyp2f1(float(a), float(b), float(c), float(x))
            value = t.prefactor_value(40) * rhs.value
            assert abs(lhs - value) / abs(lhs) < 1e-14

    def test_linear_weight_zero_closed_form(self):
        b, c, f = F(2), F(7), F(3)
        t = euler1(F(1, 3), b, c, ParamPairs([(f, 1)]), F(1, 5))
        expected = (c - b - 1) * f / (f - b)
        zero = -t.polynomial.coefficients[0] / t.polynomial.coefficients[1]
        assert zero == expected

    def test_quadratic_fixture_two_sided(self):
        t = euler1(A, B, C, QUAD_PAIRS, F(3, 10))
        assert _two_sided_gap(t) < mpf(10) ** -20

    def test_negative_argument(self):
        t = euler1(A, B, C, QUAD_PAIRS, F(-1, 2))
        assert _two_sided_gap(t) < mpf(10) ** -20


class TestEuler2:
    def test_classical_reduction_structure(self):
        a, b, c, x = F(1, 3), F(1, 5), F(7, 4), F(1, 4)
        t = euler2(a, b, c, ParamPairs(), x)
        assert t.target.kernel_numerators == (c - a, c - b)
        assert t.target.weight.coefficients == (F(1),)
        assert t.target.argument == x
        assert t.prefactor == PowerOfOneMinusX(c - a - b)

    def test_linear_weight_zero_closed_form(self):
        a, b, c, f = F(1, 3), F(2), F(7), F(3)
        t = euler2(a, b, c, ParamPairs([(f, 1)]), F(1, 5))
        expected = (c - a - 1) * (c - b - 1) * f / (a * b + (c - a - b - 1) * f)
        zero = -t.polynomial.coefficients[0] / t.polynomial.coefficients[1]
        assert zero == expected

    def test_quadratic_fixture_two_sided(self):
        t = euler2(A, B, C, QUAD_PAIRS, F(1, 4))
        assert _two_sided_gap(t) < mpf(10) ** -20


class TestThomae:
    def test_classical_reduction_structure(self):
        a, b, d, c, e = F(1, 3), F(1, 4), F(1, 5), F(2), F(3)
        t = thomae(a, b, d, c, e, ParamPairs())
        s = c + e - a - b - d
        assert t.target.kernel_numerators == (c - a, c - b, d)
        assert t.target.kernel_denominators == (c, s + d)
        assert t.target.weight.coefficients == (F(1),)
        assert t.prefactor == GammaRatioPrefactor((e, s), (e - d, s + d))
        assert _two_sided_gap(t, precision=40, tol=1e-16) < mpf(10) ** -13

    def test_quadratic_fixture_contracted_matches_print(self):
        t = thomae(A, B, F(1), C, F(8), QUAD_PAIRS)
        contracted = contract_pairs(t.target)
        assert contracted.kernel_numerators == (F(-3, 4), F(-3), F(1))
        assert contracted.kernel_denominators == (F(1, 2), F(19, 4))
        # remaining weight zero -27/34 carries the pair (7/34)/(-27/34)
        zero = -contracted.weight.coefficients[0] / contracted.weight.coefficients[1]
        assert zero == F(-27, 34)
        assert t.target.termination_index() == 3

    def test_random_cases_two_sided(self):
        rng = random.Random(41)
        done = 0
        while done < 5:
            a = F(rng.randint(-6, 6), rng.randint(1, 6))
            b = F(rng.randint(-6, 6), rng.randint(1, 6))
            d = F(rng.randint(-6, 6), rng.randint(1, 6))
            c = F(rng.randint(1, 6), rng.randint(1, 6))
            pp_f = F(rng.randint(1, 6), rng.randint(1, 6))
            try:
                pp = ParamPairs([(pp_f, rng.randint(1, 2))])
                e = a + b + d + pp.total_shift - c + 1 + rng.randint(0, 2)
                t = thomae(a, b, d, c, e, pp)
            except PreconditionError:
                continue
            done += 1
            lhs = eval_numeric(t.source, precision=40, tol=1e-14)
            rhs = eval_numeric(t.target, precision=40, tol=1e-14)
            pref = t.prefactor_value(40)
            with mp.workdps(40):
                gap = abs(lhs.value - pref * rhs.value)
                allowance = lhs.abs_error_bound + abs(pref) * rhs.abs_error_bound
                assert gap <= allowance + mpf(10) ** -12 * max(1, abs(lhs.value))


class TestThomaeTerminating:
    def test_empty_series(self):
        t = thomae_terminating(0, F(1, 2), F(1, 3), F(5, 2), F(7, 2), ParamPairs())
        assert eval_terminating(t.source) == 1
        assert eval_terminating(t.target) == 1
        assert t.prefactor.exact() == 1

    def test_printed_family_terminates_at_min_n_three(self):
        for n in range(6):
            t = thomae_terminating(n, B, F(1, 3), C, F(9, 2), QUAD_PAIRS)
            assert t.target.termination_index() == min(n, 3)
            lhs = eval_terminating(t.source)
            rhs = t.prefactor.exact() * eval_terminating(t.target)
            assert lhs == rhs

    def test_exact_equality_with_pair(self):
        t = thomae_terminating(4, F(1, 3), F(2, 3), F(3), F(6), ParamPairs([(F(1, 5), 1)]))
        assert eval_terminating(t.source) == t.prefactor.exact() * eval_terminating(t.target)

    def test_prefactor_is_exact_rational(self):
        t = thomae_terminating(3, F(1, 2), F(1, 3), F(5, 2), F(7, 2), ParamPairs())
        pref = t.prefactor
        assert isinstance(pref, PochhammerRatioPrefactor)
        assert pref.exact() == pochhammer(F(7, 2) - F(1, 3), 3) / pochhammer(F(7, 2), 3)


class TestContraction:
    def test_constant_weight_untouched(self):
        spec = WeightedSeriesSpec([F(1, 2)], [F(3, 2)], RationalPolynomial([1]), F(1, 3))
        assert contract_pairs(spec) == spec

    def test_no_matching_zero_untouched(self):
        weight = RationalPolynomial([1, F(1, 7)])  # zero at -7, matches nothing
        spec = WeightedSeriesSpec([F(1, 2)], [F(3, 2)], weight, F(1, 3))
        contracted = contract_pairs(spec)
        assert contracted == spec
        r1 = eval_numeric(spec, precision=30, tol=1e-16)
        r2 = eval_numeric(contracted, precision=30, tol=1e-16)
        with mp.workdps(30):
            assert abs(r1.value - r2.value) / abs(r1.value) < mpf(10) ** -12

    def test_numerator_side_contraction(self):
        # weight zero z equal to a kernel numerator: numerator becomes z+1
        z = F(2, 5)
        weight = RationalPolynomial([1, -1 / z])
        spec = WeightedSeriesSpec([z, F(1, 3)], [F(7, 3)], weight, F(1, 4))
        contracted = contract_pairs(spec)
        assert contracted.weight.coefficients == (F(1),)
        assert contracted.kernel_numerators == (z + 1, F(1, 3))
        r1 = eval_numeric(spec, precision=30, tol=1e-16)
        r2 = eval_numeric(contracted, precision=30, tol=1e-16)
        with mp.workdps(30):
            assert abs(r1.value - r2.value) / abs(r1.value) < mpf(10) ** -12

    def test_denominator_tried_before_numerator(self):
        # the weight zero 2/5 matches the numerator 2/5 and the denominator
        # 7/5 alike; the denominator is contracted, the numerator kept
        weight = RationalPolynomial([1, F(-5, 2)])
        spec = WeightedSeriesSpec([F(2, 5), F(1, 3)], [F(7, 5)], weight, F(1, 4))
        contracted = contract_pairs(spec)
        assert contracted.kernel_numerators == (F(2, 5), F(1, 3))
        assert contracted.kernel_denominators == (F(2, 5),)
        assert contracted.weight.coefficients == (F(1),)

    def test_value_preserved_on_denominator_contraction(self):
        t = thomae(A, B, F(1), C, F(8), QUAD_PAIRS)
        contracted = contract_pairs(t.target)
        lhs = eval_terminating(t.target)
        rhs = eval_terminating(contracted)
        assert lhs == rhs


class TestNamedPreconditions:
    def test_euler1_conditions(self):
        with pytest.raises(PreconditionError) as err:
            euler1(F(1, 4), F(1, 2), F(3, 2), QUAD_PAIRS, F(1, 4))
        assert err.value.condition == "b_equals_f"
        with pytest.raises(PreconditionError) as err:
            euler1(F(1, 4), F(1, 2), F(5, 2), ParamPairs([(F(1, 3), 2)]), F(1, 4))
        assert err.value.condition == "cbm_pochhammer_zero"
        with pytest.raises(PreconditionError) as err:
            euler1(F(1, 4), F(1, 3), F(5, 2), ParamPairs(), F(3, 2))
        assert err.value.condition == "argument_out_of_range"

    def test_euler2_conditions(self):
        with pytest.raises(PreconditionError) as err:
            euler2(F(1, 2), F(1, 4), F(5, 2), ParamPairs([(F(1, 3), 2)]), F(1, 4))
        assert err.value.condition == "cam_pochhammer_zero"

    def test_thomae_conditions(self):
        with pytest.raises(PreconditionError) as err:
            thomae(F(1, 4), F(5, 2), F(9), C, F(8), QUAD_PAIRS)
        assert err.value.condition == "ed_not_positive"
        with pytest.raises(PreconditionError) as err:
            thomae(F(1, 4), F(5, 2), F(1), C, F(4), QUAD_PAIRS)
        assert err.value.condition == "excess_not_positive"
        with pytest.raises(PreconditionError) as err:
            thomae(F(1, 4), F(5, 2), F(1), F(-2), F(12), QUAD_PAIRS)
        assert err.value.condition == "c_nonpositive_integer"

    def test_thomae_gamma_pole_condition(self):
        # e a nonpositive integer poisons the prefactor even with e-d > 0, s > 0
        with pytest.raises(PreconditionError) as err:
            thomae(F(1, 4), F(1, 4), F(-2), F(1, 2), F(-1), ParamPairs())
        assert err.value.condition == "gamma_pole"

    def test_terminating_conditions(self):
        with pytest.raises(PreconditionError) as err:
            thomae_terminating(-1, B, F(1), C, F(8), QUAD_PAIRS)
        assert err.value.condition == "invalid_terminating_index"
        with pytest.raises(PreconditionError) as err:
            thomae_terminating(3, F(1, 2), F(1), C, F(-2), ParamPairs())
        assert err.value.condition in ("ed_not_positive", "en_pochhammer_zero")
        with pytest.raises(PreconditionError) as err:
            thomae_terminating(3, F(1, 2), F(-7), C, F(-2), ParamPairs())
        assert err.value.condition == "en_pochhammer_zero"

    def test_condition_log_recorded_on_success(self):
        t = thomae(A, B, F(1), C, F(8), QUAD_PAIRS)
        names = {c.name for c in t.conditions}
        assert {"cam_pochhammer_zero", "cbm_pochhammer_zero", "ed_not_positive",
                "excess_not_positive"} <= names
        assert all(c.satisfied for c in t.conditions)
