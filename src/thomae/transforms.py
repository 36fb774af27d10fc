"""Construction of the transformation identities.

Each constructor checks every admissibility condition of its identity,
builds the parametric weight polynomial, and returns a
:class:`TransformResult` pairing a prefactor descriptor with the target
series.  Targets are carried in weighted form (kernel plus polynomial
weight), so no polynomial zeros are ever needed to evaluate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from mpmath import mp, mpf

from .errors import PreconditionError
from .exact import ParamPairs, RationalLike, as_rational, pochhammer
from .polynomials import RationalPolynomial, build_Q, build_Qhat
from .series import (
    SeriesSpec,
    WeightedSeriesSpec,
    _nonpositive_integer,
    gamma_ratio,
    parametric_excess,
)


@dataclass(frozen=True)
class PowerOfOneMinusX:
    """Prefactor (1-x)^exponent, evaluated at the source argument."""

    exponent: Fraction

    def numeric(self, x: Fraction, precision: int = 50):
        with mp.workdps(precision + 10):
            base = 1 - mpf(x.numerator) / x.denominator
            expo = mpf(self.exponent.numerator) / self.exponent.denominator
            return +(base**expo)

    def describe(self) -> str:
        return f"(1-x)^({self.exponent})"


@dataclass(frozen=True)
class GammaRatioPrefactor:
    """Prefactor prod Gamma(numerators) / prod Gamma(denominators)."""

    numerators: tuple[Fraction, ...]
    denominators: tuple[Fraction, ...]

    def numeric(self, precision: int = 50):
        return gamma_ratio(self.numerators, self.denominators, precision)

    def describe(self) -> str:
        num = " ".join(f"G({a})" for a in self.numerators)
        den = " ".join(f"G({b})" for b in self.denominators)
        return f"{num} / [{den}]"


@dataclass(frozen=True)
class PochhammerRatioPrefactor:
    """Prefactor (top)_count / (bottom)_count, exactly rational."""

    top: Fraction
    bottom: Fraction
    count: int

    def exact(self) -> Fraction:
        denominator = pochhammer(self.bottom, self.count)
        if denominator == 0:
            raise PreconditionError(
                "en_pochhammer_zero",
                f"({self.bottom})_{self.count} vanishes in the prefactor",
            )
        return pochhammer(self.top, self.count) / denominator

    def numeric(self, precision: int = 50):
        value = self.exact()
        with mp.workdps(precision + 10):
            return +(mpf(value.numerator) / value.denominator)

    def describe(self) -> str:
        return f"({self.top})_{self.count} / ({self.bottom})_{self.count}"


PrefactorDescriptor = Union[PowerOfOneMinusX, GammaRatioPrefactor, PochhammerRatioPrefactor]


@dataclass(frozen=True)
class ConditionCheck:
    """One named admissibility condition together with its outcome."""

    name: str
    satisfied: bool
    detail: str


@dataclass(frozen=True)
class TransformResult:
    """A validated identity: source series == prefactor * target series."""

    kind: str
    prefactor: PrefactorDescriptor
    target: WeightedSeriesSpec
    source: SeriesSpec
    polynomial: RationalPolynomial
    conditions: tuple[ConditionCheck, ...]

    def prefactor_value(self, precision: int = 50):
        """Numeric prefactor at the working precision."""
        if isinstance(self.prefactor, PowerOfOneMinusX):
            return self.prefactor.numeric(self.source.argument, precision)
        return self.prefactor.numeric(precision)

    def describe(self) -> str:
        return (
            f"{self.kind}: {self.source.describe()} == "
            f"{self.prefactor.describe()} * [{self.target.describe()}]"
        )


def _b_differs_from_f(b: Fraction, pp: ParamPairs) -> list[ConditionCheck]:
    return [
        ConditionCheck("b_equals_f", b != f, f"b={b} must differ from base parameter {f}")
        for f, _ in pp.pairs
    ]


def _shifted_pochhammer(letter: str, c: Fraction, p: Fraction, m: int) -> ConditionCheck:
    """(c-p-m)_m != 0 for the numerator parameter p named ``letter``."""
    return ConditionCheck(
        f"c{letter}m_pochhammer_zero",
        pochhammer(c - p - m, m) != 0,
        f"(c-{letter}-m)_m must be nonzero, c-{letter}-m={c - p - m}",
    )


def _argument_below_one(x: Fraction) -> ConditionCheck:
    return ConditionCheck("argument_out_of_range", x < 1, f"need x < 1, got {x}")


def _ed_positive(d: Fraction, e: Fraction) -> ConditionCheck:
    return ConditionCheck("ed_not_positive", e - d > 0, f"need e-d > 0, got {e - d}")


def _c_regular(c: Fraction) -> ConditionCheck:
    # A nonpositive-integer c breaks the analytic identities even when a
    # terminating numerator shields the literal series from the pole.
    return ConditionCheck(
        "c_nonpositive_integer", _nonpositive_integer(c) is None,
        f"c={c} must not be a nonpositive integer",
    )


def _gamma_regular(name: str, value: Fraction) -> ConditionCheck:
    return ConditionCheck(
        "gamma_pole", _nonpositive_integer(value) is None,
        f"gamma argument {name}={value} is a nonpositive integer",
    )


def _enforce(conditions: list[ConditionCheck]) -> tuple[ConditionCheck, ...]:
    failed = [c for c in conditions if not c.satisfied]
    if failed:
        summary = "; ".join(f"{c.name}: {c.detail}" for c in failed)
        raise PreconditionError(failed[0].name, summary)
    return tuple(conditions)


def _source(nums: tuple, dens: tuple, pp: ParamPairs, x: Fraction) -> SeriesSpec:
    """The given parameters followed by the shifted pairs."""
    return SeriesSpec(nums + pp.numerator_parameters(), dens + pp.denominator_parameters(), x)


def euler1(
    a: RationalLike,
    b: RationalLike,
    c: RationalLike,
    pp: ParamPairs,
    x: RationalLike,
) -> TransformResult:
    """Argument-mapping transformation with prefactor (1-x)^(-a).

    Sends the series at x to a weighted series at x/(x-1) whose weight is
    the first parametric polynomial.
    """
    a, b, c, x = map(as_rational, (a, b, c, x))
    m = pp.total_shift
    conditions = _enforce([
        *_b_differs_from_f(b, pp),
        _shifted_pochhammer("b", c, b, m),
        _argument_below_one(x),
        _c_regular(c),
    ])
    weight = build_Q(pp, b, c)
    source = _source((a, b), (c,), pp, x)
    target = WeightedSeriesSpec((a, c - b - m), (c,), weight, x / (x - 1))
    return TransformResult("euler1", PowerOfOneMinusX(-a), target, source, weight, conditions)


def euler2(
    a: RationalLike,
    b: RationalLike,
    c: RationalLike,
    pp: ParamPairs,
    x: RationalLike,
) -> TransformResult:
    """Argument-preserving transformation with prefactor (1-x)^(c-a-b-m)."""
    a, b, c, x = map(as_rational, (a, b, c, x))
    m = pp.total_shift
    conditions = _enforce([
        _shifted_pochhammer("a", c, a, m),
        _shifted_pochhammer("b", c, b, m),
        _argument_below_one(x),
        _c_regular(c),
    ])
    weight = build_Qhat(pp, a, b, c)
    source = _source((a, b), (c,), pp, x)
    target = WeightedSeriesSpec((c - a - m, c - b - m), (c,), weight, x)
    return TransformResult(
        "euler2", PowerOfOneMinusX(c - a - b - m), target, source, weight, conditions
    )


def thomae(
    a: RationalLike,
    b: RationalLike,
    d: RationalLike,
    c: RationalLike,
    e: RationalLike,
    pp: ParamPairs,
) -> TransformResult:
    """Unit-argument transformation with gamma-ratio prefactor.

    Source and target both sit at unit argument; positivity of the
    parametric excess s and of e-d are required for convergence.
    """
    a, b, d, c, e = map(as_rational, (a, b, d, c, e))
    m = pp.total_shift
    s = parametric_excess(a, b, c, d, e, m)
    conditions = _enforce([
        _shifted_pochhammer("a", c, a, m),
        _shifted_pochhammer("b", c, b, m),
        _ed_positive(d, e),
        ConditionCheck("excess_not_positive", s > 0, f"need excess > 0, got s={s}"),
        _c_regular(c),
        _gamma_regular("e", e),
        _gamma_regular("s_plus_d", s + d),
    ])
    weight = build_Qhat(pp, a, b, c)
    source = _source((a, b, d), (c, e), pp, Fraction(1))
    target = WeightedSeriesSpec((c - a - m, c - b - m, d), (c, s + d), weight, Fraction(1))
    prefactor = GammaRatioPrefactor((e, s), (e - d, s + d))
    return TransformResult("thomae", prefactor, target, source, weight, conditions)


def thomae_terminating(
    n: int,
    b: RationalLike,
    d: RationalLike,
    c: RationalLike,
    e: RationalLike,
    pp: ParamPairs,
) -> TransformResult:
    """Terminating unit-argument transformation; both sides exact rationals."""
    if n < 0:
        raise PreconditionError("invalid_terminating_index", f"need n >= 0, got {n}")
    b, d, c, e = map(as_rational, (b, d, c, e))
    m = pp.total_shift
    conditions = _enforce([
        *_b_differs_from_f(b, pp),
        _shifted_pochhammer("b", c, b, m),
        _ed_positive(d, e),
        ConditionCheck(
            "en_pochhammer_zero", pochhammer(e, n) != 0, f"(e)_n must be nonzero, e={e}, n={n}"
        ),
    ])
    weight = build_Q(pp, b, c)
    source = _source((Fraction(-n), b, d), (c, e), pp, Fraction(1))
    target = WeightedSeriesSpec(
        (Fraction(-n), c - b - m, d), (c, 1 - e + d - n), weight, Fraction(1)
    )
    prefactor = PochhammerRatioPrefactor(e - d, e, n)
    return TransformResult("thomae_terminating", prefactor, target, source, weight, conditions)


def contract_pairs(target: WeightedSeriesSpec) -> WeightedSeriesSpec:
    """Cancel weight zeros against matching kernel parameters.

    A weight zero z contributes the shifted pair (z+1)/(z).  When z+1
    equals a kernel denominator that denominator is traded for z; when z
    equals a kernel numerator that numerator is traded for z+1.  Either
    way the weight loses the factor (1 - t/z), the series order drops by
    one, and the value is unchanged term by term.  No-op when nothing
    matches.
    """
    nums = list(target.kernel_numerators)
    dens = list(target.kernel_denominators)
    weight = target.weight
    while weight.degree >= 1:
        # (side, index, zero, replacement), denominators first
        moves = [(dens, i, den - 1, den - 1) for i, den in enumerate(dens)]
        moves += [(nums, i, num, num + 1) for i, num in enumerate(nums)]
        for side, i, z, replacement in moves:
            if z == 0 or weight.evaluate(z) != 0:
                continue
            candidate_weight = -z * weight.divide_by_root(z)
            kept, side[i] = side[i], replacement
            try:
                WeightedSeriesSpec(nums, dens, candidate_weight, target.argument)
            except PreconditionError:
                side[i] = kept
                continue
            weight = candidate_weight
            break
        else:
            break  # no weight zero matches a kernel parameter
    return WeightedSeriesSpec(nums, dens, weight, target.argument)
