"""Exact-arithmetic layer: rising factorials, Stirling numbers, and the
pair-expansion coefficients, cross-checked against independent routes."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thomae.errors import PreconditionError
from thomae.exact import (
    ParamPairs,
    _rising_numerators,
    as_rational,
    c_coefficients,
    c_via_terminating_series,
    falling_factorial,
    pochhammer,
    pochhammer_product,
    pochhammer_vanishes,
    sigma_coefficients,
    stirling2,
    term_ratios,
)

nonzero_fractions = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=8
).filter(lambda f: f != 0)


def test_as_rational_rejects_floats():
    assert as_rational("-7/3") == Fraction(-7, 3) and as_rational(4) == 4
    with pytest.raises(TypeError):
        as_rational(0.5)


class TestPochhammer:
    def test_empty_product_is_one(self):
        for a in (Fraction(0), Fraction(5, 3), Fraction(-7, 2)):
            assert pochhammer(a, 0) == 1

    def test_half_squared(self):
        assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_zero_factor(self):
        assert pochhammer(-3, 4) == 0

    def test_product_conventions(self):
        assert pochhammer_product([], 5) == 1
        assert pochhammer_product([1, 2], 2) == 12
        assert pochhammer_product([Fraction(1, 2)], 3) == Fraction(15, 8)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1, -1)

    def test_vanishes_exactly_when_a_factor_is_zero(self):
        for a in [Fraction(p, q) for p in range(-12, 5) for q in (1, 2, 3)]:
            for n in range(8):
                assert pochhammer_vanishes(a, n) == (pochhammer(a, n) == 0)

    def test_integer_numerators(self):
        rng = random.Random(13)
        for _ in range(30):
            params = [Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                      for _ in range(rng.randint(0, 3))]
            numerators, q = _rising_numerators(params, 9)
            assert q == math.prod(a.denominator for a in params)
            for k, n in enumerate(numerators):
                assert Fraction(n, q**k) == pochhammer_product(params, k)


class TestTermRatios:
    def test_against_the_closed_form(self):
        # num_k = x.num prod q_b prod (p_a + q_a k), den_k = x.den prod q_a (k + 1) prod (p_b + q_b k)
        rng = random.Random(41)
        draw = lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 12))  # noqa: E731
        for _ in range(20):
            nums = [draw() for _ in range(rng.randint(0, 4))]
            dens = [draw() for _ in range(rng.randint(0, 4))]
            x = draw()
            pairs = itertools.islice(term_ratios(nums, dens, x), 500)
            for k, (num, den) in enumerate(pairs):
                up = x.numerator * math.prod(b.denominator for b in dens)
                down = x.denominator * math.prod(a.denominator for a in nums) * (k + 1)
                assert num == up * math.prod(a.numerator + a.denominator * k for a in nums)
                assert den == down * math.prod(b.numerator + b.denominator * k for b in dens)
            assert k == 499

    def test_cumulative_products_are_the_terms(self):
        # term_k = prod_{j<k} num_j / den_j is the Pochhammer form of the series
        rng = random.Random(29)
        draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))  # noqa: E731
        for _ in range(40):
            nums = [draw() for _ in range(rng.randint(0, 3))]
            dens = [draw() + Fraction(1, 7) for _ in range(rng.randint(0, 3))]  # no poles
            x = draw()
            ratios = itertools.islice(term_ratios(nums, dens, x), 12)
            terms = itertools.accumulate(ratios, lambda t, r: t * r[0] / r[1], initial=Fraction(1))
            for k, term in enumerate(terms):
                expected = pochhammer_product(nums, k) * x**k
                assert term == expected / (pochhammer_product(dens, k) * math.factorial(k))
            assert k == 12

    def test_terminates_and_accepts_exact_inputs(self):
        # (-2)_k stops the series after k = 2: num_2 = 0; ints and strings are exact rationals
        ratios = list(itertools.islice(term_ratios([-2, "1/2"], [3], 2), 4))
        assert ratios == [(-4, 6), (-6, 16), (0, 30), (14, 48)]
        terms = itertools.accumulate(ratios, lambda t, r: t * r[0] / r[1], initial=Fraction(1))
        assert list(terms) == [1, Fraction(-2, 3), Fraction(1, 4), 0, 0]
        assert next(term_ratios([], [], 1)) == (1, 1)


class TestStirling2:
    def test_diagonal(self):
        for n in range(9):
            assert stirling2(n, n) == 1

    def test_small_values(self):
        assert stirling2(3, 2) == 3

    def test_against_partition_enumeration(self):
        # S(4, 2) counts the two-block set partitions of {0,1,2,3}
        blocks = set()
        for assignment in itertools.product(range(2), repeat=4):
            if len(set(assignment)) != 2:
                continue
            part = frozenset(
                frozenset(i for i in range(4) if assignment[i] == b) for b in range(2)
            )
            blocks.add(part)
        assert stirling2(4, 2) == len(blocks) == 7

    def test_falling_factorial_row_identity(self):
        # sum_k S(j,k) x(x-1)...(x-k+1) == x^j
        for j in range(7):
            for x in range(7):
                total = sum(
                    stirling2(j, k) * falling_factorial(x, k) for k in range(j + 1)
                )
                assert total == Fraction(x) ** j

    def test_out_of_range(self):
        assert stirling2(2, 5) == 0
        assert stirling2(5, 0) == 0
        assert stirling2(0, 0) == 1


class TestParamPairs:
    def test_empty_is_first_class(self):
        pp = ParamPairs()
        assert pp.r == 0
        assert pp.total_shift == 0
        assert pp.poch_product == 1
        assert pp.numerator_parameters() == ()

    def test_derived_quantities(self):
        pp = ParamPairs([(Fraction(1, 2), 2), (Fraction(1, 3), 1)])
        assert pp.total_shift == 3
        assert pp.poch_product == Fraction(3, 4) * Fraction(1, 3)
        assert pp.numerator_parameters() == (Fraction(5, 2), Fraction(4, 3))
        assert pp.denominator_parameters() == (Fraction(1, 2), Fraction(1, 3))

    def test_rejects_nonpositive_offset(self):
        with pytest.raises(PreconditionError) as err:
            ParamPairs([(Fraction(1, 2), 0)])
        assert err.value.condition == "invalid_param_pairs"

    def test_rejects_nonpositive_integer_base(self):
        for bad in (0, -1, -5):
            with pytest.raises(PreconditionError) as err:
                ParamPairs([(bad, 2)])
            assert err.value.condition == "invalid_param_pairs"


class TestSigmaCoefficients:
    def test_empty_product(self):
        assert sigma_coefficients(ParamPairs()) == [Fraction(1)]

    def test_single_pair_shift_two(self):
        pp = ParamPairs([(Fraction(1, 2), 2)])
        assert sigma_coefficients(pp) == [Fraction(3, 4), Fraction(2), Fraction(1)]

    def test_unit_pair(self):
        assert sigma_coefficients(ParamPairs([(1, 1)])) == [Fraction(1), Fraction(1)]

    def test_boundary_coefficients(self):
        rng = random.Random(5)
        for _ in range(20):
            pp = _random_pairs(rng)
            sigma = sigma_coefficients(pp)
            assert sigma[0] == pp.poch_product
            assert sigma[-1] == 1

    def test_evaluation_matches_direct_product(self):
        rng = random.Random(11)
        pp = ParamPairs([(Fraction(1, 2), 2), (Fraction(2, 3), 1)])
        sigma = sigma_coefficients(pp)
        for _ in range(20):
            t = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            by_sigma = sum(s * t**j for j, s in enumerate(sigma))
            direct = Fraction(1)
            for f, shift in pp.pairs:
                direct *= pochhammer(f + t, shift)
            assert by_sigma == direct


def _random_pairs(rng: random.Random, max_r: int = 2, max_shift: int = 3) -> ParamPairs:
    pairs = []
    for _ in range(rng.randint(0, max_r)):
        while True:
            f = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
            if not (f.denominator == 1 and f.numerator <= 0):
                break
        pairs.append((f, rng.randint(1, max_shift)))
    return ParamPairs(pairs)


class TestCCoefficients:
    def test_first_is_always_one(self):
        rng = random.Random(3)
        for _ in range(25):
            pp = _random_pairs(rng)
            cs = c_coefficients(pp)
            assert cs[0] == 1
            assert cs[-1] == 1 / pp.poch_product

    def test_quadratic_example(self):
        pp = ParamPairs([(Fraction(1, 2), 2)])
        assert c_coefficients(pp) == [Fraction(1), Fraction(4), Fraction(4, 3)]

    def test_single_pair_closed_form(self):
        # for one pair, C_k = binom(m, k) / (f)_k
        rng = random.Random(7)
        for _ in range(15):
            m = rng.randint(1, 6)
            while True:
                f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if not (f.denominator == 1 and f.numerator <= 0):
                    break
            cs = c_coefficients(ParamPairs([(f, m)]))
            for k in range(m + 1):
                assert cs[k] == Fraction(math.comb(m, k)) / pochhammer(f, k)


class TestCAlternativeRoute:
    def test_index_zero(self):
        assert c_via_terminating_series(ParamPairs(), 0) == 1
        pp = ParamPairs([(Fraction(3, 7), 2)])
        assert c_via_terminating_series(pp, 0) == 1

    def test_quadratic_example_index_one(self):
        pp = ParamPairs([(Fraction(1, 2), 2)])
        assert c_via_terminating_series(pp, 1) == 4

    def test_two_pair_cross_check(self):
        pp = ParamPairs([(Fraction(1, 3), 1), (Fraction(2), 2)])
        direct = c_coefficients(pp)
        for k in range(pp.total_shift + 1):
            assert c_via_terminating_series(pp, k) == direct[k]

    def test_triple_agreement_random(self):
        rng = random.Random(17)
        for _ in range(25):
            pp = _random_pairs(rng)
            direct = c_coefficients(pp)
            for k in range(pp.total_shift + 1):
                assert c_via_terminating_series(pp, k) == direct[k]

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            c_via_terminating_series(ParamPairs([(Fraction(1, 2), 1)]), 2)


@settings(max_examples=60, deadline=None)
@given(f=nonzero_fractions, shift=st.integers(min_value=1, max_value=4))
def test_sigma_constant_term_is_poch_product(f, shift):
    if f.denominator == 1 and f.numerator <= 0:
        return
    pp = ParamPairs([(f, shift)])
    sigma = sigma_coefficients(pp)
    assert sigma[0] == pochhammer(f, shift)
    assert sigma[-1] == 1
