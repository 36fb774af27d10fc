"""Parametric weight polynomials and the complex root finder."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from thomae.errors import NonConvergenceError, PreconditionError
from thomae.exact import ParamPairs, _divide_linear, c_coefficients, pochhammer
from thomae.polynomials import (
    RationalPolynomial,
    _float_coefficients,
    _polygon_starts,
    _rising_sum,
    build_G,
    build_Q,
    build_Qhat,
    find_zeros,
    rising_factorial_poly,
)

F = Fraction
QUAD_PAIRS = ParamPairs([(F(1, 2), 2)])
A, B, C = F(1, 4), F(5, 2), F(3, 2)


def _random_nondegenerate(rng, avoid_integer_c=True):
    """Random (a, b, c) staying away from the named degeneracies."""
    def draw():
        return F(rng.randint(-8, 8), rng.choice([2, 3, 4, 5, 7]))

    a, b, c = draw(), draw(), draw()
    if avoid_integer_c and c.denominator == 1:
        c += F(1, 3)
    return a, b, c


def _old_divide_by_root(coeffs, root):
    """(quotient, remainder) by the Fraction loop that ``divide_by_root`` ran
    before it shared ``exact._divide_linear``: the reference for it."""
    out = [F(0)] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for i in range(len(coeffs) - 2, 0, -1):
        out[i] = carry
        carry = coeffs[i] + carry * root
    out[0] = carry
    return out, coeffs[0] + carry * root


class TestRationalPolynomial:
    def test_trailing_zeros_stripped(self):
        p = RationalPolynomial([1, 2, 0, 0])
        assert p.coefficients == (F(1), F(2))
        assert p.degree == 1

    def test_exact_evaluation(self):
        p = RationalPolynomial([F(1, 3), F(-2, 7), F(5)])
        t = F(9, 4)
        assert p.evaluate(t) == F(1, 3) - F(2, 7) * t + 5 * t**2

    def test_divide_by_root(self):
        p = RationalPolynomial([-F(3, 2), F(5, 2), 1])  # (t - 1/2)(t + 3)
        q = p.divide_by_root(F(1, 2))
        assert q.coefficients == (F(3), F(1))
        with pytest.raises(ValueError):
            p.divide_by_root(F(7))

    def test_divide_by_root_is_the_shared_division(self):
        # random Fraction coefficients and roots: mostly non-roots, and each
        # polynomial once more multiplied by t - root
        rng = random.Random(31)
        draw = lambda: F(rng.randint(-40, 40), rng.randint(1, 9))  # noqa: E731
        for _ in range(200):
            coeffs = [draw() for _ in range(rng.randint(1, 8))] + [draw() or F(1)]
            root = draw()
            quotient, remainder = _old_divide_by_root(coeffs, root)
            assert _divide_linear(coeffs, root) == (quotient, remainder)
            if remainder:
                with pytest.raises(ValueError) as err:
                    RationalPolynomial(coeffs).divide_by_root(root)
                assert str(err.value) == f"{root} is not a root (remainder {remainder})"
            times = [low - root * high for low, high in zip([F(0)] + coeffs, coeffs + [F(0)])]
            assert _divide_linear(times, root) == _old_divide_by_root(times, root) == (coeffs, 0)
            assert RationalPolynomial(times).divide_by_root(root) == RationalPolynomial(coeffs)

    def test_constant_and_zero_polynomials(self):
        for constant in ([3], [F(-5, 7)], []):
            with pytest.raises(ValueError) as err:
                RationalPolynomial(constant).divide_by_root(1)
            assert str(err.value) == "cannot deflate a constant polynomial"
        assert str(RationalPolynomial()) == "0"
        assert str(RationalPolynomial([F(1, 2), 0, -3])) == "1/2 - 3*t^2"

    def test_factor_builders(self):
        assert rising_factorial_poly(0, 2).coefficients == (F(0), F(1), F(1))
        # (t + 1/2)(t + 3/2) = 3/4 + 2 t + t^2
        assert rising_factorial_poly(F(1, 2), 2).coefficients == (F(3, 4), F(2), F(1))
        assert rising_factorial_poly(F(-2, 3), 0).coefficients == (F(1),)
        for offset in (F(0), F(3), F(-5, 7), F(11, 4)):
            p = rising_factorial_poly(offset, 6)
            for t in (F(0), F(-3), F(2, 9)):
                assert p.evaluate(t) == pochhammer(t + offset, 6)

    def test_negative_count_rejected(self):
        for offset in (0, 3, F(1, 2), F(-5, 7)):
            with pytest.raises(ValueError, match="rising factorial needs count >= 0"):
                rising_factorial_poly(offset, -1)


class TestRisingSum:
    def test_matches_row_by_row_definition(self):
        # sum_j h_j (t+offset)_j / E with every row expanded on its own; the
        # offsets above 0 are build_G's
        rng = random.Random(30)
        for _ in range(400):
            n, offset = rng.randint(0, 24), rng.randint(0, 12)
            h = [rng.randint(-(10 ** rng.randint(0, 40)), 10 ** rng.randint(0, 40))
                 for _ in range(n + 1)]
            denominator = rng.randint(1, 10**12)
            out = [F(0)] * (n + 1)
            for j, hj in enumerate(h):
                for i, c in enumerate(rising_factorial_poly(offset, j).coefficients):
                    out[i] += hj * c
            expected = RationalPolynomial(c / denominator for c in out)
            assert _rising_sum(h, denominator, offset) == expected

    def test_one_expansion_per_weight_polynomial(self, monkeypatch):
        # only the top row is expanded; the rows below it come by division
        calls = []

        def counted(offset, count):
            calls.append((offset, count))
            return rising_factorial_poly(offset, count)

        monkeypatch.setattr("thomae.polynomials.rising_factorial_poly", counted)
        pp = ParamPairs([(F(1, 3), 4), (F(2, 7), 3)])
        for build in (lambda: build_Q(pp, B, C), lambda: build_Qhat(pp, A, B, C),
                      lambda: build_G(7, 2, A, B, C)):
            calls.clear()
            build()
            assert len(calls) == 1, calls


class TestBuildG:
    def test_top_index_is_constant_one(self):
        rng = random.Random(2)
        for _ in range(10):
            a, b, c = _random_nondegenerate(rng)
            m = rng.randint(0, 4)
            g = build_G(m, m, a, b, c)
            assert g.coefficients == (F(1),)

    def test_degree_one_hand_formula(self):
        # two-term sum by hand: 1 + (-1)_1 (c-a-b-1)_1 / [(c-a-1)(c-b-1) 1!] * t
        rng = random.Random(3)
        for _ in range(10):
            a, b, c = _random_nondegenerate(rng)
            if c - a - 1 == 0 or c - b - 1 == 0:
                continue
            g = build_G(1, 0, a, b, c)
            slope = -(c - a - b - 1) / ((c - a - 1) * (c - b - 1))
            assert g.coefficients == (F(1), slope)

    def test_degree_is_m_minus_k(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(60):
            a, b, c = _random_nondegenerate(rng)
            m = rng.randint(1, 5)
            k = rng.randint(0, m)
            try:
                g = build_G(m, k, a, b, c)
            except PreconditionError:
                continue
            # degree can only drop if the top coefficient vanishes, which
            # needs (c-a-b-m) at a nonpositive integer; skip those draws
            if (c - a - b - m).denominator == 1 and (c - a - b - m) <= 0:
                continue
            checked += 1
            assert g.degree == m - k
        assert checked >= 40

    def test_degenerate_denominator_is_named(self):
        with pytest.raises(PreconditionError) as err:
            build_G(2, 0, F(1, 2), F(1), F(5, 2))  # c - a - m = 0
        assert err.value.condition == "degenerate_g_denominator"

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            build_G(2, 3, F(1), F(1, 2), F(1, 3))


class TestBuildQ:
    def test_degree_one_closed_form(self):
        rng = random.Random(7)
        for _ in range(15):
            _, b, c = _random_nondegenerate(rng)
            f = F(rng.randint(1, 9), rng.choice([2, 3, 5]))
            if b == f or c - b - 1 == 0:
                continue
            q = build_Q(ParamPairs([(f, 1)]), b, c)
            assert q.coefficients == (F(1), (b - f) / ((c - b - 1) * f))

    def test_quadratic_fixture(self):
        q = build_Q(QUAD_PAIRS, B, C)
        assert q.coefficients == (F(1), F(-20, 9), F(4, 9))

    def test_normalization(self):
        rng = random.Random(9)
        for _ in range(20):
            _, b, c = _random_nondegenerate(rng)
            pp = ParamPairs([(F(rng.randint(1, 7), 3), rng.randint(1, 3))])
            try:
                q = build_Q(pp, b, c)
            except PreconditionError:
                continue
            assert q.evaluate(0) == 1
            assert q.degree == pp.total_shift

    def test_b_equals_f_rejected(self):
        with pytest.raises(PreconditionError) as err:
            build_Q(ParamPairs([(F(5, 2), 1)]), F(5, 2), F(9))
        assert err.value.condition == "b_equals_f"

    def test_vanishing_offset_pochhammer_rejected(self):
        # c - b - m = 0 makes (c-b-m)_m vanish for m >= 1
        with pytest.raises(PreconditionError) as err:
            build_Q(ParamPairs([(F(1, 3), 2)]), F(1, 2), F(5, 2))
        assert err.value.condition == "cbm_pochhammer_zero"

    def test_empty_pairs_constant_one(self):
        q = build_Q(ParamPairs(), F(1, 2), F(7, 3))
        assert q.coefficients == (F(1),)


class TestBuildQhat:
    def test_degree_one_closed_form(self):
        rng = random.Random(13)
        for _ in range(15):
            a, b, c = _random_nondegenerate(rng)
            f = F(rng.randint(1, 9), rng.choice([2, 3, 5]))
            if c - a - 1 == 0 or c - b - 1 == 0:
                continue
            qh = build_Qhat(ParamPairs([(f, 1)]), a, b, c)
            slope = -((c - a - b - 1) * f + a * b) / ((c - a - 1) * (c - b - 1) * f)
            assert qh.coefficients == (F(1), slope)

    def test_quadratic_fixture(self):
        qh = build_Qhat(QUAD_PAIRS, A, B, C)
        assert qh.coefficients == (F(1), F(-20, 27), F(-68, 27))

    def test_normalization(self):
        rng = random.Random(15)
        for _ in range(20):
            a, b, c = _random_nondegenerate(rng)
            pp = ParamPairs([(F(rng.randint(1, 7), 4), rng.randint(1, 3))])
            try:
                qh = build_Qhat(pp, a, b, c)
            except PreconditionError:
                continue
            assert qh.evaluate(0) == 1
            assert qh.degree == pp.total_shift

    def test_named_preconditions(self):
        with pytest.raises(PreconditionError) as err:
            build_Qhat(ParamPairs([(F(1, 3), 2)]), F(1, 2), F(1, 4), F(5, 2))
        assert err.value.condition == "cam_pochhammer_zero"
        with pytest.raises(PreconditionError) as err:
            build_Qhat(ParamPairs([(F(1, 3), 2)]), F(1, 4), F(1, 2), F(5, 2))
        assert err.value.condition == "cbm_pochhammer_zero"


class TestFindZeros:
    def test_quadratic_fixture_zeros(self):
        zq = find_zeros(build_Q(QUAD_PAIRS, B, C))
        assert abs(zq.zeros[0] - 0.5) < 1e-10
        assert abs(zq.zeros[1] - 4.5) < 1e-10
        zh = find_zeros(build_Qhat(QUAD_PAIRS, A, B, C))
        assert abs(zh.zeros[0] - (-27 / 34)) < 1e-10
        assert abs(zh.zeros[1] - 0.5) < 1e-10
        assert all(r < 1e-12 for r in zq.residuals + zh.residuals)

    def test_linear_zero_closed_form(self):
        rng = random.Random(19)
        for _ in range(10):
            _, b, c = _random_nondegenerate(rng)
            f = F(rng.randint(1, 9), rng.choice([2, 3, 5]))
            if b == f or c - b - 1 == 0:
                continue
            q = build_Q(ParamPairs([(f, 1)]), b, c)
            expected = (c - b - 1) * f / (f - b)
            zs = find_zeros(q)
            assert abs(zs.zeros[0] - float(expected)) < 1e-10 * max(1, abs(float(expected)))

    def test_against_companion_matrix_roots(self):
        rng = random.Random(21)
        for _ in range(20):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(2, 7))]
            coeffs[0] = coeffs[0] if coeffs[0] != 0 else F(1)
            if coeffs[-1] == 0:
                coeffs[-1] = F(1, 3)
            p = RationalPolynomial(coeffs)
            if p.degree < 1 or p.coefficients[0] == 0:
                continue
            ours = find_zeros(p).zeros
            with mpmath.workdps(60):
                coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in p.coefficients]
                reference = [complex(z) for z in mpmath.polyroots(coeffs[::-1], maxsteps=200)]
            # nearest matching: sort order can flip within conjugate pairs
            for z_ours in ours:
                nearest = min(abs(z_ours - z_ref) for z_ref in reference)
                assert nearest < 1e-7 * max(1.0, abs(z_ours))

    def test_conjugate_pairs_for_real_coefficients(self):
        p = RationalPolynomial([1, 0, 0, 0, 1])  # t^4 + 1, all complex zeros
        zs = find_zeros(p).zeros
        for z in zs:
            partner = min(abs(w - z.conjugate()) for w in zs)
            assert partner < 1e-12

    def test_product_form_reconstruction(self):
        rng = random.Random(23)
        for _ in range(10):
            a, b, c = _random_nondegenerate(rng)
            pp = ParamPairs([(F(rng.randint(1, 5), 2), 2)])
            try:
                q = build_Q(pp, b, c)
            except PreconditionError:
                continue
            if q.degree != pp.total_shift:
                continue
            zs = find_zeros(q).zeros
            rebuilt = np.poly(np.asarray(zs))  # monic, descending
            lead = float(q.coefficients[-1])
            rebuilt = rebuilt[::-1] * lead
            original = np.array([float(co) for co in q.coefficients])
            scale = np.abs(original).max()
            assert np.abs(rebuilt.real - original).max() <= 1e-9 * scale

    @pytest.mark.parametrize("m", [16, 24, 32, 96])
    @pytest.mark.parametrize("kind", ["q", "qhat"])
    def test_high_degree_weights(self, kind, m):
        # every zero meets 1e-13 as the Aberth sweeps leave it, and also
        # the sweeps' own floor 4 m 2^-53
        pp = ParamPairs([(F(1, 3), m // 2), (F(2, 7), m // 2)])
        q = build_Q(pp, B, C) if kind == "q" else build_Qhat(pp, A, B, C)
        assert q.degree == m
        for tol in (1e-13, 4 * m * 2.0**-53):
            zs = find_zeros(q, tol)
            assert len(zs.zeros) == m
            assert zs.converged and all(r <= tol for r in zs.residuals)

    @pytest.mark.parametrize("kind", ["q", "qhat"])
    def test_rescaled_zeros_at_m_192(self, kind):
        # the leading coefficient is below 2^-1074 of the largest, so the
        # zeros are sought in u = t / 2^e; each residual is checked again at
        # 60 digits on the exact coefficients
        pp = ParamPairs([(F(1, 3), 96), (F(2, 7), 96)])
        q = build_Q(pp, B, C) if kind == "q" else build_Qhat(pp, A, B, C)
        assert _float_coefficients(q, 0)[-1] == 0
        zs = find_zeros(q)
        assert len(zs.zeros) == 192
        assert zs.converged and all(r <= 1e-13 for r in zs.residuals)
        with mpmath.workdps(60):
            cs = [mpmath.mpf(c.numerator) / c.denominator for c in q.coefficients]
            for z, r in zip(zs.zeros[::16], zs.residuals[::16]):
                z = mpmath.mpc(z)
                exact = abs(mpmath.polyval(cs[::-1], z)) / sum(abs(c) * abs(z) ** i for i, c in enumerate(cs))
                assert exact <= 1e-13 and abs(r - exact) <= 1e-15

    def test_huge_zero_gets_a_finite_residual(self):
        # zeros 1 and 10^200: |z|^2 overflows a float, so the residual of the
        # far zero is taken on the reversed coefficients at 1/z
        tiny = F(1, 10**200)
        zs = find_zeros(RationalPolynomial([1, -(1 + tiny), tiny]))
        assert zs.converged and all(r <= 1e-13 for r in zs.residuals)
        assert abs(zs.zeros[0] - 1) < 1e-12 and abs(zs.zeros[1] / 1e200 - 1) < 1e-12

    def test_residual_at_one_over_z_matches_exact_ratio(self):
        # |p(z)| / sum |c_i| |z|^i at 60 digits, on both sides of |z| = 1
        coeffs = [F(1)]
        for zero in (F(1, 2), F(-3), F(10**4), F(7, 3)):
            coeffs = [b - zero * a for a, b in zip(coeffs + [0], [0] + coeffs)]
        p = RationalPolynomial(coeffs)
        zs = find_zeros(p)
        assert max(abs(z) for z in zs.zeros) > 9999 and min(abs(z) for z in zs.zeros) < 1
        with mpmath.workdps(60):
            cs = [mpmath.mpf(c.numerator) / c.denominator for c in p.coefficients]
            for z, r in zip(zs.zeros, zs.residuals):
                z = mpmath.mpc(z)
                exact = abs(mpmath.polyval(cs[::-1], z)) / sum(abs(c) * abs(z) ** i for i, c in enumerate(cs))
                assert abs(r - exact) <= 1e-15

    def test_nonconvergence_at_m_128_reports_finite_residuals(self):
        # 1e-18 is below the rounding of a float zero, so zeros miss it as
        # the sweeps leave them; the largest has modulus above 600, where |z|^i
        # overflowed, yet each residual is finite
        pp = ParamPairs([(F(1, 3), 64), (F(2, 7), 64)])
        with pytest.raises(NonConvergenceError) as err:
            find_zeros(build_Q(pp, B, C), tol=1e-18)
        best = err.value.best
        assert not best.converged and len(best.zeros) == 128
        assert max(abs(z) for z in best.zeros) > 100
        assert all(math.isfinite(r) for r in best.residuals)
        assert 1e-18 < max(best.residuals) < 1e-10
        assert f"worst residual {max(best.residuals):.3e}" in str(err.value)
        assert err.value.history == best.residuals

    @pytest.mark.parametrize("kind", ["q", "qhat"])
    def test_weights_at_m_128_converge(self, kind):
        pp = ParamPairs([(F(1, 3), 64), (F(2, 7), 64)])
        q = build_Q(pp, B, C) if kind == "q" else build_Qhat(pp, A, B, C)
        zs = find_zeros(q)
        assert len(zs.zeros) == 128
        assert zs.converged and all(r <= 1e-13 for r in zs.residuals)

    # worst relative error of numpy.roots' zeros, from the companion matrix
    # of the same float coefficients, against the same reference
    COMPANION_ERRORS = {
        "qhat": {8: 7.3e-13, 12: 3.5e-10, 16: 2.0e-7, 20: 3.9e-4, 24: 1.0e-1},
        "q": {8: 3.1e-14, 12: 1.1e-13, 16: 2.6e-14, 20: 7.9e-13, 24: 7.8e-13},
    }

    @pytest.mark.parametrize("m", [8, 12, 16, 20, 24])
    @pytest.mark.parametrize("kind", ["q", "qhat"])
    def test_forward_error_against_reference_zeros(self, kind, m):
        # the residual proves nothing about where a zero is; these weights'
        # real zeros near -m/2 are ill-conditioned, so measure the distance to
        # the zeros of the exact coefficients at 80 digits
        pp = ParamPairs([(F(1, 3), m // 2), (F(2, 7), m // 2)])
        q = build_Q(pp, B, C) if kind == "q" else build_Qhat(pp, A, B, C)
        zs = find_zeros(q).zeros
        with mpmath.workdps(80):
            cs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(q.coefficients)]
            reference = [complex(z) for z in mpmath.polyroots(cs, maxsteps=200, extraprec=200)]
        worst = max(
            max(min(abs(z - w) for w in zs) / abs(z) for z in reference),
            max(min(abs(z - w) for w in reference) / abs(z) for z in zs),
        )
        assert worst <= self.COMPANION_ERRORS[kind][m]

    def test_starts_on_the_newton_polygon(self):
        # (t^2 + 2^-80)(t^2 + 1)(t^2 + 2^80): three hull edges, one circle of
        # two starts on each, at the zeros' moduli to within the factor 2
        # that bit lengths allow; no start is real
        p = RationalPolynomial([1, 0, 2**80 + 1 + F(1, 2**80), 0, 2**80 + 1 + F(1, 2**80), 0, 1])
        starts = sorted(_polygon_starts(p, 0), key=abs)
        assert len(starts) == 6
        for pair, modulus in zip((starts[:2], starts[2:4], starts[4:]), (2.0**-40, 1.0, 2.0**40)):
            assert all(modulus / 2 <= abs(z) <= modulus * 2 for z in pair)
        assert all(z.imag for z in starts)

    def test_zeros_on_many_scales(self):
        # zeros +-10^(5k), k < 10: the polygon gives each its own circle, so
        # a few sweeps suffice; from one circle of starts it took 61
        roots = [F(-10) ** (5 * k) for k in range(10)]
        coeffs = [F(1)]
        for root in roots:
            coeffs = [b - root * a for a, b in zip(coeffs + [0], [0] + coeffs)]
        zs = find_zeros(RationalPolynomial(coeffs))
        assert zs.converged and zs.iterations <= 8
        for z, root in zip(zs.zeros, sorted(roots)):
            assert z.imag == 0 and abs(z.real - root) <= 1e-15 * abs(root)

    def test_far_zero_is_stepped_on_reversed_coefficients(self):
        # (t - 2^70)(t^18 + 1): at t = 2^70 the term t^19 alone is 2^1260 times
        # the largest coefficient, so p / p' there must come from the reversed
        # coefficients at 1 / t
        p = RationalPolynomial([-(2**70), 1] + [0] * 16 + [-(2**70), 1])
        zs = find_zeros(p)
        assert zs.converged and abs(zs.zeros[-1] - 2.0**70) <= 1e-15 * 2.0**70
        assert all(abs(abs(z) - 1) <= 1e-15 for z in zs.zeros[:-1])

    def test_coefficients_near_float_limit_get_true_residuals(self):
        # sum |c_i| |z|^i would overflow at 1e308; scaled by a power of two
        # first, both zeros report a finite, nonzero residual
        zs = find_zeros(RationalPolynomial([10**308, -17 * 10**307, 13 * 10**307]))
        assert zs.converged and all(0 < r <= 1e-15 for r in zs.residuals)
        with mpmath.workdps(40):
            for z in zs.zeros:  # zeros of 13 t^2 - 17 t + 10
                assert abs(mpmath.polyval([13, -17, 10], mpmath.mpc(z))) <= 1e-13

    @pytest.mark.parametrize("power", [1100, -1100])
    def test_power_of_two_scaling_gives_the_same_zero_set(self, power):
        q = build_Q(QUAD_PAIRS, B, C)
        scaled = RationalPolynomial([c * F(2) ** power for c in q.coefficients])
        assert find_zeros(scaled) == find_zeros(q)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(PreconditionError):
            find_zeros(RationalPolynomial([5]))
        with pytest.raises(PreconditionError):
            find_zeros(RationalPolynomial([0, 1, 1]))  # vanishes at 0
        # zeros outside the float range: -10^-400 twice (2^e underflows),
        # -10^320 (a subnormal leading coefficient) and about -2^1038
        for coeffs in ([F(1, 10**400), 1], [1, 10**400], [10**320, 1], [3, 1, F(1, 10**312)]):
            with pytest.raises(PreconditionError) as err:
                find_zeros(RationalPolynomial(coeffs))
            assert err.value.condition == "degenerate_polynomial"

    def test_zeros_beyond_the_float_coefficients(self):
        # the coefficients span 10^400, but the zeros +-10^200 i are floats:
        # they are found in u = t / 2^664
        zs = find_zeros(RationalPolynomial([1, 0, F(1, 10**400)]))
        assert zs.converged and all(r <= 1e-13 for r in zs.residuals)
        for z, expected in zip(zs.zeros, (-1e200j, 1e200j)):
            assert abs(z - expected) <= 1e-13 * 1e200


class TestEvaluation:
    def test_constant(self):
        assert RationalPolynomial([1]).evaluate(F(123, 7)) == 1

    def test_quadratic_fixture_zero_is_exact(self):
        q = build_Q(QUAD_PAIRS, B, C)
        assert q.evaluate(F(1, 2)) == 0
        assert q.evaluate(F(9, 2)) == 0

    def test_matches_fraction_power_sum(self):
        # integer Horner over a common denominator against the plain sum
        rng = random.Random(53)
        assert RationalPolynomial().evaluate(F(2, 3)) == 0
        for _ in range(40):
            coeffs = [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(rng.randint(1, 10))]
            p = RationalPolynomial(coeffs)
            for t in (F(0), F(-rng.randint(1, 10**5)), F(rng.randint(-99, 99), rng.randint(1, 99))):
                assert p.evaluate(t) == sum(c * t**i for i, c in enumerate(coeffs))

    def test_matches_termwise_expansion(self):
        # independent oracle: sum the defining expansion term by term at t = -1
        q = build_Q(QUAD_PAIRS, B, C)
        t = F(-1)
        m = QUAD_PAIRS.total_shift
        lam = C - B - m
        cs = c_coefficients(QUAD_PAIRS)
        direct = sum(
            pochhammer(B, k) * cs[k] * pochhammer(t, k) * pochhammer(lam - t, m - k)
            for k in range(m + 1)
        ) / pochhammer(lam, m)
        assert q.evaluate(t) == direct


class TestDefiningSums:
    """The weight polynomials at high degree against their defining sums.

    Each sum is evaluated pointwise in Fractions from plain ascending
    factorials, without the rising-factorial basis the builders use.  Two
    polynomials of degree <= m that agree at m + 1 distinct points are
    equal.
    """

    PAIRS = {
        8: [(F(1, 3), 3), (F(2, 7), 5)],
        16: [(F(1, 3), 8), (F(5, 2), 8)],
        24: [(F(1, 3), 8), (F(2, 7), 8), (F(7, 5), 8)],
    }

    # (a, b, c): generic values, then the shape of the benchmark's terminating
    # euler2 cases, a = -n, b with denominator 7 and c - b - m = -N with N = m
    # (c = b), so that every offset c - b - m + j, j < m, is a negative integer
    PARAMETERS = [(F(1, 4), F(5, 7), F(3, 2)), (F(-3), F(-9, 7), F(-9, 7))]

    @staticmethod
    def _points(m):
        return [F(j, 3) - F(m, 5) for j in range(m + 1)]

    @staticmethod
    def _g_value(m, k, a, b, c, t):
        return sum(
            pochhammer(-m + k, i) * pochhammer(c - a - b - m, i) * pochhammer(t + k, i)
            / (pochhammer(c - a - m + k, i) * pochhammer(c - b - m + k, i) * math.factorial(i))
            for i in range(m - k + 1)
        )

    def _assert_matches(self, poly, m, value_at):
        assert poly.degree <= m
        for t in self._points(m):
            assert poly.evaluate(t) == value_at(t)

    @pytest.mark.parametrize("m", [8, 16, 24])
    def test_q(self, m):
        pp = ParamPairs(self.PAIRS[m])
        cs = c_coefficients(pp)
        for _, b, c in self.PARAMETERS:
            lam = c - b - m
            self._assert_matches(build_Q(pp, b, c), m, lambda t: sum(
                pochhammer(b, k) * cs[k] * pochhammer(t, k) * pochhammer(lam - t, m - k)
                for k in range(m + 1)
            ) / pochhammer(lam, m))

    @pytest.mark.parametrize("m", [8, 16, 24])
    def test_qhat(self, m):
        pp = ParamPairs(self.PAIRS[m])
        cs = c_coefficients(pp)
        for a, b, c in self.PARAMETERS:
            fronts = [
                (-1) ** k * pochhammer(a, k) * pochhammer(b, k)
                / (pochhammer(c - a - m, k) * pochhammer(c - b - m, k))
                for k in range(m + 1)
            ]
            self._assert_matches(build_Qhat(pp, a, b, c), m, lambda t: sum(
                fronts[k] * cs[k] * pochhammer(t, k) * self._g_value(m, k, a, b, c, t)
                for k in range(m + 1)
            ))

    @pytest.mark.parametrize("m", [8, 16])
    def test_g(self, m):
        for a, b, c in self.PARAMETERS:
            for k in (0, 1, m // 2, m - 1, m):
                g = build_G(m, k, a, b, c)
                # m - k, unless a nonpositive integer c - a - b - m ends the sum early
                assert g.degree == max(
                    i for i in range(m - k + 1) if pochhammer(c - a - b - m, i) != 0
                )
                self._assert_matches(g, m, lambda t: self._g_value(m, k, a, b, c, t))
