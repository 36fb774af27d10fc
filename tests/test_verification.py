"""Verification harness: two-sided reports, the quadrature oracle, and
the reproducible case generator."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf

from thomae import verification
from thomae.errors import NonConvergenceError, PreconditionError, positive_tolerance
from thomae.exact import ParamPairs
from thomae.polynomials import RationalPolynomial, find_zeros
from thomae.series import SeriesSpec, eval_numeric, gamma_ratio
from thomae.transforms import euler2, thomae, thomae_terminating
from thomae.verification import (
    CaseProfile,
    _gauss_jacobi,
    _series_values_on_nodes,
    beta_integral_oracle,
    generate_cases,
    verify_transform,
)

F = Fraction


class TestVerifyTransform:
    def test_terminating_case_is_exact_zero(self):
        t = thomae_terminating(4, F(1, 3), F(2, 3), F(3), F(6), ParamPairs([(F(1, 5), 1)]))
        report = verify_transform(t)
        assert report.verdict == "pass"
        assert report.exact
        assert report.discrepancy == 0
        assert isinstance(report.discrepancy, Fraction)

    def test_printed_unit_argument_case(self):
        t = thomae(F(1, 4), F(5, 2), F(1), F(3, 2), F(8), ParamPairs([(F(1, 2), 2)]))
        report = verify_transform(t, tol=1e-10)
        assert report.verdict == "pass"
        assert float(report.discrepancy) < 1e-10

    def test_classical_unit_argument_case(self):
        t = thomae(F(1, 3), F(1, 4), F(1, 5), F(2), F(3), ParamPairs())
        report = verify_transform(t, tol=1e-10)
        assert report.verdict == "pass"

    def test_wrong_prefactor_fails(self):
        # the prefactor times Gamma(3) = 2 doubles the right-hand side
        t = thomae(F(1, 4), F(5, 2), F(1), F(3, 2), F(8), ParamPairs([(F(1, 2), 2)]))
        wrong = dataclasses.replace(t.prefactor, numerators=t.prefactor.numerators + (F(3),))
        report = verify_transform(dataclasses.replace(t, prefactor=wrong), tol=1e-10)
        assert report.verdict == "fail" and not report.exact
        assert report.discrepancy > report.combined_tolerance

    @pytest.mark.parametrize("a", [330, 400])
    def test_prefactor_beyond_float_range(self, a):
        # (1 - 9/10)^(c - a - b) is about 10^(a - 13/6), beyond float range;
        # the target's tolerance tol / 8 / |pref| stays exact far below it
        t = euler2(F(a), F(1, 3), F(5, 2), ParamPairs(), F(9, 10))
        report = verify_transform(t)
        assert abs(t.prefactor_value(50)) > 1e308
        assert report.verdict == "pass"
        assert report.discrepancy <= report.combined_tolerance

    @pytest.mark.parametrize("budget", [1, 2, 4, 5])
    def test_budget_below_start_is_inconclusive(self, budget):
        # too few terms for the unit-argument tail fit: unbounded, never "fail"
        t = thomae(F(1, 4), F(5, 2), F(2, 7), F(3, 2), F(9), ParamPairs([(F(1, 2), 2)]))
        report = verify_transform(t, budget=budget)
        assert report.verdict == "inconclusive"
        assert report.combined_tolerance == mp.inf
        assert report.budget_used[0] == budget + 1


class TestGaussJacobiRule:
    # alpha + beta = -1 and alpha + beta = 0 are where the general formulas
    # for the first Jacobi-matrix entries are 0/0
    @pytest.mark.parametrize("alpha, beta", [(-0.5, -0.5), (0.0, 0.0), (2.5, -0.25), (-0.9, 3.7)])
    @pytest.mark.parametrize("n", [24, 96, 384])
    def test_moments_exact_below_degree_2n(self, alpha, beta, n):
        # sum w_i (1 + x_i)^j = 2^(alpha+beta+1+j) B(alpha+1, beta+1+j) for j < 2n
        nodes, weights = _gauss_jacobi(n, alpha, beta)
        with mp.workdps(30):
            for j in (0, 1, 2, 7, n - 1, n, 2 * n - 1):
                got = mp.fsum(mpf(w) * (1 + mpf(x)) ** j for x, w in zip(nodes, weights))
                exact = mpf(2) ** (alpha + beta + 1 + j) * mp.beta(alpha + 1, beta + 1 + j)
                assert abs(got / exact - 1) <= 1e-12, j


def _record_rule_sizes(monkeypatch) -> list[int]:
    """The size of every Gauss-Jacobi rule the oracle builds, in order."""
    sizes = []
    rule = verification._gauss_jacobi

    def recording(n, alpha, beta):
        sizes.append(n)
        return rule(n, alpha, beta)

    monkeypatch.setattr(verification, "_gauss_jacobi", recording)
    return sizes


_KNOWN_ERROR = 24.5


def _rule_with_known_error(monkeypatch) -> list[int]:
    """Make every oracle estimate exactly I_n = 1 + C n^-6, C = _KNOWN_ERROR.

    One node with the series at 1 there; the oracle scales the weight by
    2^(1-e) = 1/4 for e = 3.  With p = 6 every Richardson value R_n is 1.
    Returns the rule sizes the oracle asks for, in order.
    """
    sizes = []

    def rule(n, alpha, beta):
        sizes.append(n)
        return np.zeros(1), np.array([4 * (1 + _KNOWN_ERROR * n**-6.0)])

    monkeypatch.setattr(verification, "_gauss_jacobi", rule)
    monkeypatch.setattr(
        verification, "_series_values_on_nodes", lambda _, xs: (np.ones_like(xs),) * 2
    )
    return sizes


def _peak_traced_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSeriesValuesOnNodes:
    @pytest.mark.parametrize(
        "nums, dens",
        [
            # excess 1/2: near x = 1 the terms fall like k^(-3/2) x^k
            ([F(1, 3), F(5, 4), 2], [F(3, 2), F(31, 12)]),
            # terms of one sign that grow until x^k takes over
            ([F(-1, 2), F(13, 3)], [2]),
            # terminates at n = 150, past the first block; every term is positive
            ([-150, F(-301, 2)], [F(5, 2)]),
        ],
    )
    def test_matches_mpmath_hyper(self, nums, dens):
        # up to the last node of a 384-point rule, where 1 - x = 1.7e-5;
        # the float sums there are good to about 4e-13
        nodes, _ = _gauss_jacobi(384, 0.5, -0.5)
        xs = np.array([1e-3, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, (1 + nodes[-1]) / 2])
        values, _ = _series_values_on_nodes(SeriesSpec(nums, dens, 1), xs)
        with mp.workdps(30):
            ref_nums = [mpf(a.numerator) / a.denominator for a in map(F, nums)]
            ref_dens = [mpf(b.numerator) / b.denominator for b in map(F, dens)]
            for x, value in zip(xs, values):
                ref = mp.hyper(ref_nums, ref_dens, mpf(x))
                assert abs(value - ref) <= 1e-12 * abs(ref), x

    @pytest.mark.parametrize(
        "nums, dens",
        [
            # every term positive: the magnitudes are the sums themselves
            ([F(1, 3), F(5, 4), 2], [F(3, 2), F(31, 12)]),
            # the signs alternate while k < 150: terms up to 1.8e21 at
            # x = 0.5 cancel to about 0.29
            ([-150, F(1, 3)], [F(5, 2)]),
            # one negative ratio at k = 0, then terms of one sign
            ([F(-1, 2), F(13, 3)], [2]),
        ],
    )
    def test_magnitudes_sum_the_absolute_terms(self, nums, dens):
        xs = np.array([0.1, 0.5, 0.9])
        _, magnitudes = _series_values_on_nodes(SeriesSpec(nums, dens, 1), xs)
        with mp.workdps(30):
            ref_nums = [mpf(a.numerator) / a.denominator for a in map(F, nums)]
            ref_dens = [mpf(b.numerator) / b.denominator for b in map(F, dens)]
            for x, magnitude in zip(xs, magnitudes):
                total, term, k = mpf(0), mpf(1), 0
                while term and (k < 200 or abs(term) > 1e-20 * total):
                    total += abs(term)
                    term *= mpf(x) * mp.fprod(a + k for a in ref_nums)
                    term /= (k + 1) * mp.fprod(b + k for b in ref_dens)
                    k += 1
                assert abs(magnitude / total - 1) <= 1e-12, x

    def test_divergent_node_stops_at_the_term_cap(self):
        # 2F1(1, 1; 2; x) = -log(1 - x) / x: x = 1 is the harmonic series
        with pytest.raises(NonConvergenceError, match=r"node x=1\.0 did not converge") as err:
            _series_values_on_nodes(SeriesSpec([1, 1], [2], 1), np.array([0.5, 1.0]))
        assert 16 < err.value.best < 17  # H_n = log(n) + 0.577... at n = 8e6

    def test_memory_is_bounded_on_the_largest_rule(self):
        # all 768 nodes of the largest rule: each block's (nodes x terms)
        # matrix of powers stays within 2^16 floats, 512 KiB
        nodes, _ = _gauss_jacobi(768, 0.5, -0.5)
        inner = SeriesSpec([F(-1, 2), F(13, 3)], [2], 1)
        peak = _peak_traced_bytes(lambda: _series_values_on_nodes(inner, (1 + nodes) / 2))
        assert peak < 2**20


class TestBetaIntegralOracle:
    def test_constant_integrand_matches_gamma_ratio(self):
        one = SeriesSpec([0, 1], [2], 1)
        for d, e in ((F(1, 2), F(3, 2)), (F(1), F(3)), (F(3, 4), F(17, 4))):
            val = beta_integral_oracle(d, e, one)
            ref = float(gamma_ratio([d, e - d], [e]))
            assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_gauss_kernel_case(self):
        inner = SeriesSpec([F(1, 2), F(1, 2)], [2], 1)
        val = beta_integral_oracle(1, 3, inner)
        series = SeriesSpec([F(1, 2), F(1, 2), 1], [2, 3], 1)
        res = eval_numeric(series, precision=40, tol=1e-14)
        ref = float(gamma_ratio([1, 2], [3])) * float(res.value)
        assert abs(val - ref) <= 1e-8 * abs(ref)

    def test_endpoint_divergent_inner(self):
        # the quadratic-fixture kernel blows up like (1-x)^(-13/4) at x=1;
        # d=1, e=8 keeps the integral convergent (excess 15/4)
        inner = SeriesSpec([F(1, 4), F(5, 2), F(5, 2)], [F(3, 2), F(1, 2)], 1)
        val = beta_integral_oracle(1, 8, inner)
        series = SeriesSpec([F(1, 4), F(5, 2), 1, F(5, 2)], [F(3, 2), 8, F(1, 2)], 1)
        res = eval_numeric(series, precision=40, tol=1e-14)
        ref = float(gamma_ratio([1, 7], [8])) * float(res.value)
        assert abs(val - ref) <= 1e-8 * abs(ref)

    @pytest.mark.parametrize(
        "nums, dens, d, e, rel",
        [
            ([F(-1, 2), F(1, 2)], [2], F(1), F(3), 1e-12),
            # (1-x)^(-17/12) at x = 1 against the weight's (1-x)^2: slow convergence
            ([F(-7, 3), F(5, 4)], [F(-5, 2)], F(1, 2), F(7, 2), 1e-8),
            # terms of one sign that grow in magnitude past the first 4096 at
            # nodes near x = 1: the stop rule must compare magnitudes
            ([F(-1, 2), F(13, 3)], [2], F(1, 2), F(9, 2), 1e-10),
            # terminates at n = 4, with negative parameters on both sides
            ([-4, F(-7, 3), F(5, 4)], [F(-5, 2), F(1, 3)], F(1, 2), F(7, 2), 1e-12),
        ],
    )
    def test_negative_parameters(self, nums, dens, d, e, rel):
        val = beta_integral_oracle(d, e, SeriesSpec(nums, dens, 1), rel_tol=2e-8)
        res = eval_numeric(SeriesSpec(nums + [d], dens + [e], 1), precision=40, tol=1e-15)
        ref = float(gamma_ratio([d, e - d], [e])) * float(res.value)
        assert abs(val - ref) <= rel * abs(ref)

    @pytest.mark.parametrize(
        "d, e, nums, dens, rel_tol, rule",
        [
            # (e - d, s) = (3, -11/6): the raw estimates fall like n^(-7/3)
            # and do not settle to 2e-8 within 768 nodes
            (F(1), F(4), [F(-1, 2), F(13, 3)], [2], 2e-8, 768),
            # (e - d, s) = (3, -17/12): n^(-19/6), and not to 1e-8 raw
            (F(1, 2), F(7, 2), [F(-7, 3), F(5, 4)], [F(-5, 2)], 1e-8, 384),
        ],
    )
    def test_settles_at_the_endpoint_rate(self, monkeypatch, d, e, nums, dens, rel_tol, rule):
        rules = _record_rule_sizes(monkeypatch)
        val = beta_integral_oracle(d, e, SeriesSpec(nums, dens, 1), rel_tol=rel_tol)
        assert rules[-1] == rule
        res = eval_numeric(SeriesSpec(nums + [d], dens + [e], 1), precision=40, tol=1e-15)
        ref = float(gamma_ratio([d, e - d], [e])) * float(res.value)
        assert abs(val - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize(
        "inner, extrapolated",
        [
            # excess 1 with e - d = 2: p = 6
            (SeriesSpec([F(1, 2), F(1, 2)], [2], 1), True),
            # a polynomial and an entire series keep the raw estimates
            (SeriesSpec([-2, F(1, 2)], [2], 1), False),
            (SeriesSpec([F(1, 2)], [2], 1), False),
        ],
    )
    def test_stop_rule_on_estimates_with_a_known_error(self, monkeypatch, inner, extrapolated):
        # at n = 48 the correction is 2.0e-9: within rel_tol/2 = 5e-9, but
        # not four times over.  At n = 96 both tests hold.
        rules = _rule_with_known_error(monkeypatch)
        val = beta_integral_oracle(1, 3, inner)
        assert rules == [24, 48, 96]
        if extrapolated:
            assert abs(val - 1) <= 1e-14
        else:
            assert val == 1 + _KNOWN_ERROR * 96**-6.0

    def test_nonconvergence_keeps_the_raw_estimates(self, monkeypatch):
        _rule_with_known_error(monkeypatch)
        monkeypatch.setattr(verification, "_MAX_NODES", 48)
        with pytest.raises(NonConvergenceError) as err:
            beta_integral_oracle(1, 3, SeriesSpec([F(1, 2), F(1, 2)], [2], 1))
        assert err.value.history == tuple(1 + _KNOWN_ERROR * n**-6.0 for n in (24, 48))
        assert abs(err.value.best - 1) <= 1e-14

    def test_cancelling_series_raises(self):
        # 2F1(-150, 1/3; 5/2; x) has terms up to 1.8e21 at x = 0.5 and sums
        # to about 0.29 there: float64 keeps no digit of it
        with pytest.raises(NonConvergenceError, match="cancels in float64"):
            beta_integral_oracle(1, 3, SeriesSpec([-150, F(1, 3)], [F(5, 2)], 1))

    def test_memory_is_bounded(self, monkeypatch):
        # settles at 384 nodes; the Gauss-Jacobi matrices take about 2.3 MB
        inner = SeriesSpec([F(-7, 3), F(5, 4)], [F(-5, 2)], 1)
        rules = _record_rule_sizes(monkeypatch)
        peak = _peak_traced_bytes(lambda: beta_integral_oracle(F(1, 2), F(7, 2), inner))
        assert rules[-1] == 384
        assert peak < 4 * 2**20

    def test_preconditions(self):
        one = SeriesSpec([0, 1], [2], 1)
        with pytest.raises(PreconditionError) as err:
            beta_integral_oracle(F(-1, 2), F(3, 2), one)
        assert err.value.condition == "d_not_positive"
        with pytest.raises(PreconditionError) as err:
            beta_integral_oracle(F(3, 2), F(1, 2), one)
        assert err.value.condition == "ed_not_positive"
        inner = SeriesSpec([F(1, 4), F(5, 2), F(5, 2)], [F(3, 2), F(1, 2)], 1)
        with pytest.raises(PreconditionError) as err:
            beta_integral_oracle(F(1, 2), F(7, 2), inner)  # excess -1/4
        assert err.value.condition == "divergent"


class TestGenerateCases:
    def test_quota_and_admissibility(self):
        result = generate_cases(1, CaseProfile(kind="thomae", count=10))
        assert len(result.cases) == 10
        assert result.note is None
        for case in result.cases:
            assert all(c.satisfied for c in case.transform.conditions)

    def test_determinism(self):
        a = generate_cases(42, CaseProfile(kind="euler1", count=8))
        b = generate_cases(42, CaseProfile(kind="euler2", count=8))
        c = generate_cases(42, CaseProfile(kind="euler1", count=8))
        assert [x.label for x in a.cases] == [x.label for x in c.cases]
        assert [x.label for x in a.cases] != [x.label for x in b.cases]

    def test_unsatisfiable_profile_notes(self):
        profile = CaseProfile(kind="euler1", count=5, argument=F(3, 2))
        result = generate_cases(1, profile)
        assert result.cases == []
        assert result.note is not None and "unsatisfiable" in result.note

    def test_thomae_labels_pinned(self):
        # recorded while thomae(...) was still built before the e - d < 1 test;
        # every draw comes before that build, so moving the test moves no case
        path = Path(__file__).parent / "data" / "thomae_cases_2025.json"
        result = generate_cases(2025, CaseProfile(kind="thomae", count=50))
        assert [case.label for case in result.cases] == json.loads(path.read_text())

    def test_positive_source_filter(self):
        result = generate_cases(5, CaseProfile(kind="thomae", count=6, positive_source=True))
        for case in result.cases:
            spec = case.transform.source
            assert all(v > 0 for v in spec.numerator_params + spec.denominator_params)


class TestTerminatingSweep:
    def test_hundred_random_tuples_with_two_pairs_exact(self):
        generated = generate_cases(
            1234,
            CaseProfile(kind="thomae_terminating", count=100, max_r=2, max_shift=3, max_n=6),
        )
        assert len(generated.cases) == 100
        assert any(len(case.params["pairs"]) == 2 for case in generated.cases)
        for case in generated.cases:
            report = verify_transform(case.transform)
            assert report.exact
            assert report.discrepancy == 0, case.label


class TestPipelineCoherence:
    def test_oracle_agrees_with_series_side(self):
        result = generate_cases(
            3,
            CaseProfile(
                kind="thomae", count=4, positive_source=True,
                min_excess=F(2), max_abs=6, max_r=1, max_shift=2,
            ),
        )
        assert len(result.cases) == 4
        for case in result.cases:
            params = case.params
            d, e = params["d"], params["e"]
            source = case.transform.source
            # strip d from the numerators and e from the denominators to get
            # the integrand kernel
            nums = list(source.numerator_params)
            nums.remove(d)
            dens = list(source.denominator_params)
            dens.remove(e)
            inner = SeriesSpec(nums, dens, 1)
            oracle = beta_integral_oracle(d, e, inner, rel_tol=2e-8)
            res = eval_numeric(source, precision=40, tol=1e-12)
            ref = float(gamma_ratio([d, e - d], [e])) * float(res.value)
            assert abs(oracle - ref) <= 1e-7 * abs(ref)


_UNIT_CASE = thomae(F(1, 3), F(1, 4), F(1, 5), F(2), F(3), ParamPairs())
_TOLERANCE_ENTRIES = {
    "find_zeros": lambda tol: find_zeros(RationalPolynomial([1, 1]), tol),
    "eval_numeric": lambda tol: eval_numeric(SeriesSpec([F(1, 3)], [], F(-1, 2)), tol=tol),
    "verify_transform": lambda tol: verify_transform(_UNIT_CASE, tol),
    "beta_integral_oracle": lambda tol: beta_integral_oracle(
        1, 4, SeriesSpec([F(1, 3), F(1, 4)], [F(3)], 1), rel_tol=tol
    ),
}


@pytest.mark.parametrize(
    "tol, problem",
    [pytest.param(math.nan, "a number", id="nan"), pytest.param(0, "positive", id="0"),
     pytest.param(-1, "positive", id="-1"), pytest.param(math.inf, "finite", id="inf"),
     pytest.param(-math.inf, "finite", id="-inf")],
)
@pytest.mark.parametrize("entry", sorted(_TOLERANCE_ENTRIES))
def test_nonpositive_tolerance_is_invalid_input(entry, tol, problem):
    with pytest.raises(PreconditionError) as err:
        _TOLERANCE_ENTRIES[entry](tol)
    name = "rel_tol" if entry == "beta_integral_oracle" else "tol"
    assert err.value.condition == "invalid_input"
    assert str(err.value) == f"{name} must be {problem}, got {float(tol)!r}"


@pytest.mark.parametrize(
    "tol, shown",
    [("nan", "nan"), ("1e-10x", "'1e-10x'"), ([1e-10], "[1e-10]"), ("abc", "'abc'")],
    ids=["nan_string", "bad_string", "list", "word"],
)
@pytest.mark.parametrize("entry", sorted(_TOLERANCE_ENTRIES))
def test_non_numeric_tolerance_is_invalid_input(entry, tol, shown):
    with pytest.raises(PreconditionError) as err:
        _TOLERANCE_ENTRIES[entry](tol)
    name = "rel_tol" if entry == "beta_integral_oracle" else "tol"
    assert err.value.condition == "invalid_input"
    assert str(err.value) == f"{name} must be a number, got {shown}"


@pytest.mark.parametrize("entry", sorted(_TOLERANCE_ENTRIES))
def test_negative_tolerance_beyond_float_range_is_shown_as_given(entry):
    # float("-1e400") is -inf, but the value is finite, so it is not "finite"
    # that it must be, and its float repr would misquote it
    with pytest.raises(PreconditionError) as err:
        _TOLERANCE_ENTRIES[entry]("-1e400")
    name = "rel_tol" if entry == "beta_integral_oracle" else "tol"
    assert str(err.value) == f"{name} must be positive, got '-1e400'"


@pytest.mark.parametrize(
    "tol, exact",
    [
        (1e-10, Fraction(7737125245533627, 2**86)),  # the float's binary value
        (3, Fraction(3)),
        (10**400, Fraction(10**400)),
        ("1e-480", Fraction(1, 10**480)),
        (" 2/7 ", Fraction(2, 7)),
        (Fraction(1, 3), Fraction(1, 3)),
    ],
    ids=["float", "int", "int_beyond_float", "decimal_string", "rational_string", "fraction"],
)
def test_positive_tolerance_is_exact(tol, exact):
    assert positive_tolerance(tol) == exact
    assert isinstance(positive_tolerance(tol), Fraction)


@pytest.mark.parametrize("entry", sorted(_TOLERANCE_ENTRIES))
def test_float_tolerance_and_its_exact_value_agree(entry):
    tol = 1e-8
    assert _TOLERANCE_ENTRIES[entry](Fraction(tol)) == _TOLERANCE_ENTRIES[entry](tol)


def test_verify_transform_takes_a_fraction_tolerance():
    t = euler2(F(1, 4), F(5, 2), F(3, 2), ParamPairs([(F(1, 2), 2)]), F(3, 10))
    report = verify_transform(t, tol=Fraction(1, 10**10))
    assert report.verdict == "pass" and not report.exact
    assert report.discrepancy <= report.combined_tolerance


def test_eval_numeric_takes_a_decimal_string_tolerance():
    spec = SeriesSpec([F(1, 3), F(1, 4)], [F(3)], F(9, 10))
    result = eval_numeric(spec, precision=500, tol="1e-480")
    assert result.abs_error_bound * mpf(10) ** 480 <= 1
    assert result == eval_numeric(spec, precision=500, tol=Fraction(1, 10**480))
