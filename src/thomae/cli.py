"""Command-line surface.

Four subcommands: ``poly`` (construct the parametric weight polynomials
and their zeros), ``transform`` (apply one of the transformation
theorems and describe the result), ``eval`` (evaluate a series spec),
and ``verify`` (run identity checks: seeded random suites, the exact
terminating sweep, or a single case).

Each command's flags are declared once, in one table per command that
builds the parser, the normalized ``inputs`` dict and the runners'
defaults.  Every command renders a report derived purely from that
dict, so ``--config '<json>'`` reproduces byte-identical output from the
``inputs`` object of a previous ``--json`` report.  Exact rationals
serialize as ``p/q`` strings; floats as decimal strings at a declared
precision.

Exit codes: 0 success / all passed, 1 verification failure, 2 a usage
error or any ThomaeError (invalid input, a violated precondition, a
numeric procedure that did not converge), reported with its condition
code.  Any other exception is a fault in the program and ends in a
traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from mpmath import mp, mpf

from . import __version__, polynomials, transforms
from .errors import PreconditionError, ThomaeError, positive_tolerance
from .exact import ParamPairs, c_coefficients, sigma_coefficients
from .polynomials import RationalPolynomial, find_zeros
from .series import SeriesSpec, WeightedSeriesSpec, eval_numeric
from .transforms import TransformResult, contract_pairs
from .verification import (
    CaseProfile,
    generate_cases,
    terminating_sweep,
    verify_transform,
)

FLOAT_DIGITS = 17

# Builder tables, one per family: kind -> (builder name, the config keys
# it reads, in the order missing ones are reported).  "pairs" is optional
# and becomes the builder's ``pp``; the keys in _INTEGER_KEYS are integers,
# the rest rationals.  Builders are looked up on their module at call time,
# so a wrapper installed on the module (the benchmark's tracer) sees them.
_THEOREMS = {
    "euler1": ("euler1", ("a", "b", "c", "x", "pairs")),
    "euler2": ("euler2", ("a", "b", "c", "x", "pairs")),
    "thomae": ("thomae", ("a", "b", "c", "d", "e", "pairs")),
    "thomae_terminating": ("thomae_terminating", ("n", "b", "c", "d", "e", "pairs")),
}
_POLYNOMIALS = {
    "q": ("build_Q", ("b", "c", "pairs")),
    "qhat": ("build_Qhat", ("a", "b", "c", "pairs")),
    "g": ("build_G", ("m", "k", "a", "b", "c")),
}
_INTEGER_KEYS = ("n", "m", "k")
_TYPE_NAMES = {Fraction: "a rational 'p/q' or integer", int: "an integer"}


def _rational(text: str) -> str:
    """A rational flag as its normalized 'p/q' string."""
    try:
        return str(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational 'p/q' or integer: {text!r}") from exc


def _rational_list(text: str) -> list[str]:
    """Comma-separated rationals as normalized 'p/q' strings."""
    return [_rational(chunk) for chunk in text.split(",") if chunk]


def _pairs(text: str) -> list:
    out = []
    if not text:
        return out
    for chunk in text.split(","):
        try:
            f_text, m_text = chunk.split(":")
            out.append([str(Fraction(f_text)), int(m_text)])
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(
                f"bad pair {chunk!r}; expected f:m like 1/2:2"
            ) from exc
    return out


def _fmt_float(value) -> str:
    return mp.nstr(mpf(value), FLOAT_DIGITS, strip_zeros=True)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.15e}{z.imag:+.15e}j"


def _typed(key: str, value, kind=Fraction, minimum=None):
    """``value`` converted to ``kind`` and at least ``minimum``, or invalid_input."""
    try:
        converted = kind(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise PreconditionError(
            "invalid_input", f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}"
        ) from exc
    if minimum is not None and converted < minimum:
        raise PreconditionError("invalid_input", f"{key} must be at least {minimum}, got {value!r}")
    return converted


def _option(command: str, config: dict, key: str, kind=int, minimum=None):
    """config[key], or else the default of ``command``'s flag, converted by _typed."""
    return _typed(key, config.get(key, _FLAGS[command][key][0]), kind, minimum)


def _tolerance(command: str, config: dict) -> Fraction:
    """The requested tolerance, exact, or invalid_input unless it is a finite
    positive number."""
    return positive_tolerance(config.get("tol", _FLAGS[command]["tol"][0]))


def _rationals(config: dict, key: str) -> list[Fraction]:
    values = config.get(key, [])
    if not isinstance(values, list):
        raise PreconditionError("invalid_input", f"{key} must be a list, got {values!r}")
    return [_typed(key, value) for value in values]


def _json_flag(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError("invalid_input", f"bad {flag} JSON: {exc}") from exc


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise PreconditionError("invalid_input", f"{what} must be a JSON object, got {value!r}")
    return value


def _pairs_from_config(config: dict) -> ParamPairs:
    pairs = config.get("pairs", [])
    try:
        parsed = [(Fraction(f), int(m)) for f, m in pairs]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(
            "invalid_input", f"pairs must be a list of [f, m] pairs, got {pairs!r}"
        ) from exc
    return ParamPairs(parsed)


def _builder_arguments(table: dict, config: dict, family: str) -> tuple[str, dict]:
    """The builder named in config's row of ``table``, and its keyword arguments."""
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in table:
        raise PreconditionError("invalid_input", f"unknown {family} kind {kind!r}")
    builder, keys = table[kind]
    _require(config, [key for key in keys if key != "pairs"])
    kwargs = {}
    for key in keys:
        if key == "pairs":
            kwargs["pp"] = _pairs_from_config(config)
        else:
            kwargs[key] = _typed(key, config[key], int if key in _INTEGER_KEYS else Fraction)
    return builder, kwargs


def _zeros_payload(poly: RationalPolynomial, tol: Fraction) -> list[dict]:
    if poly.degree < 1 or poly.coefficients[0] == 0:
        return []
    zs = find_zeros(poly, tol=tol)
    return [
        {"value": _fmt_complex(z), "residual": f"{r:.3e}"}
        for z, r in zip(zs.zeros, zs.residuals)
    ]


def _series_payload(spec) -> dict:
    payload = {
        "argument": str(spec.argument),
    }
    if isinstance(spec, WeightedSeriesSpec):
        payload["kernel_numerators"] = [str(a) for a in spec.kernel_numerators]
        payload["kernel_denominators"] = [str(b) for b in spec.kernel_denominators]
        payload["weight_coefficients"] = [str(c) for c in spec.weight.coefficients]
    else:
        payload["numerators"] = [str(a) for a in spec.numerator_params]
        payload["denominators"] = [str(b) for b in spec.denominator_params]
    return payload


# ---------------------------------------------------------------- poly


def run_poly(config: dict) -> dict:
    tol = _tolerance("poly", config)
    builder, kwargs = _builder_arguments(_POLYNOMIALS, config, "polynomial")
    poly = getattr(polynomials, builder)(**kwargs)
    outputs: dict = {"kind": config["kind"]}
    outputs["coefficients"] = [str(c) for c in poly.coefficients]
    outputs["degree"] = poly.degree
    if "pp" in kwargs:
        outputs["sigma"] = [str(s) for s in sigma_coefficients(kwargs["pp"])]
        outputs["c_coefficients"] = [str(c) for c in c_coefficients(kwargs["pp"])]
        outputs["value_at_zero"] = str(poly.evaluate(0))
    outputs["zeros"] = _zeros_payload(poly, tol)
    return outputs


def _render_poly(outputs: dict) -> list[str]:
    lines = [f"polynomial kind: {outputs['kind']} (degree {outputs['degree']})"]
    lines.append("coefficients (ascending): " + ", ".join(outputs["coefficients"]))
    if "sigma" in outputs:
        lines.append("sigma coefficients: " + ", ".join(outputs["sigma"]))
        lines.append("pair-expansion coefficients: " + ", ".join(outputs["c_coefficients"]))
        lines.append(f"value at 0: {outputs['value_at_zero']}")
    zeros = _render_zeros("zeros (sorted by real, imaginary):", outputs["zeros"])
    lines += zeros or ["zeros: none computed"]
    return lines


def _render_zeros(heading: str, zeros: list[dict]) -> list[str]:
    """The heading and one line per zero; nothing when there are none."""
    if not zeros:
        return []
    return [heading] + [f"  {z['value']}  residual {z['residual']}" for z in zeros]


# ----------------------------------------------------------- transform


def _build_transform(config: dict) -> TransformResult:
    builder, kwargs = _builder_arguments(_THEOREMS, config, "transform")
    return getattr(transforms, builder)(**kwargs)


def _prefactor_payload(transform: TransformResult, precision: int) -> dict:
    payload = {"description": transform.prefactor.describe()}
    value = transform.prefactor_value(precision)
    payload["numeric_value"] = _fmt_float(value)
    exact = getattr(transform.prefactor, "exact", None)
    if exact is not None:
        payload["exact_value"] = str(exact())
    return payload


def run_transform(config: dict) -> dict:
    precision = _option("transform", config, "precision", minimum=1)
    tol = _tolerance("transform", config)
    transform = _build_transform(config)
    outputs = {
        "kind": transform.kind,
        "conditions": [
            {"name": c.name, "ok": c.satisfied, "detail": c.detail}
            for c in transform.conditions
        ],
        "prefactor": _prefactor_payload(transform, precision),
        "source": _series_payload(transform.source),
        "target": _series_payload(transform.target),
        "weight_zeros": _zeros_payload(transform.polynomial, tol),
    }
    if config.get("contract"):
        contracted = contract_pairs(transform.target)
        outputs["contracted"] = _series_payload(contracted)
        outputs["contracted"]["weight_zeros"] = _zeros_payload(contracted.weight, tol)
    return outputs


def _render_series(payload: dict, label: str) -> list[str]:
    lines = [f"{label}:"]
    if "numerators" in payload:
        lines.append("  numerators: " + ", ".join(payload["numerators"]))
        lines.append("  denominators: " + (", ".join(payload["denominators"]) or "-"))
    else:
        lines.append("  kernel numerators: " + ", ".join(payload["kernel_numerators"]))
        lines.append(
            "  kernel denominators: " + (", ".join(payload["kernel_denominators"]) or "-")
        )
        lines.append(
            "  weight coefficients: " + ", ".join(payload["weight_coefficients"])
        )
    lines.append(f"  argument: {payload['argument']}")
    return lines


def _render_transform(outputs: dict) -> list[str]:
    lines = [f"transform: {outputs['kind']}"]
    for cond in outputs["conditions"]:
        lines.append(f"  condition {cond['name']}: ok")
    pref = outputs["prefactor"]
    line = f"prefactor: {pref['description']} = {pref['numeric_value']}"
    if "exact_value" in pref:
        line += f" (exact {pref['exact_value']})"
    lines.append(line)
    lines += _render_series(outputs["source"], "source series")
    lines += _render_series(outputs["target"], "target series (weighted form)")
    lines += _render_zeros("weight zeros (shifted pairs (z+1)/(z)):", outputs["weight_zeros"])
    if "contracted" in outputs:
        lines += _render_series(outputs["contracted"], "contracted target")
        lines += _render_zeros("remaining weight zeros:", outputs["contracted"]["weight_zeros"])
    return lines


# ---------------------------------------------------------------- eval


def run_eval(config: dict) -> dict:
    precision = _option("eval", config, "precision", minimum=1)
    tol = _tolerance("eval", config)
    max_terms = _option("eval", config, "max_terms", minimum=1)
    _require(config, ("numerators", "x"))
    kernel = _rationals(config, "numerators"), _rationals(config, "denominators")
    x = _typed("x", config["x"])
    weight = _rationals(config, "weight")
    if weight:
        spec = WeightedSeriesSpec(*kernel, RationalPolynomial(weight), x)
    else:
        spec = SeriesSpec(*kernel, x)
    result = eval_numeric(spec, precision, tol, max_terms, config.get("acceleration"))
    outputs = {
        "series": _series_payload(spec),
        "value": _fmt_float(result.value),
        "abs_error_bound": _fmt_float(result.abs_error_bound),
        "terms_used": result.terms_used,
        "terminated_exactly": result.terminated_exactly,
    }
    if result.exact_value is not None:
        outputs["exact_value"] = str(result.exact_value)
    return outputs


def _render_eval(outputs: dict) -> list[str]:
    lines = _render_series(outputs["series"], "series")
    lines.append(f"value: {outputs['value']}")
    lines.append(f"abs error bound: {outputs['abs_error_bound']}")
    lines.append(f"terms used: {outputs['terms_used']}")
    if outputs.get("exact_value") is not None:
        lines.append(f"exact value: {outputs['exact_value']}")
    return lines


# -------------------------------------------------------------- verify


def _report_payload(report) -> dict:
    fmt = str if report.exact else _fmt_float
    return {
        "description": report.description,
        "verdict": report.verdict,
        "exact": report.exact,
        "lhs": fmt(report.lhs_value),
        "rhs": fmt(report.rhs_value),
        "discrepancy": fmt(report.discrepancy),
        "combined_tolerance": fmt(report.combined_tolerance),
        "budget_used": list(report.budget_used),
    }


def run_verify(config: dict) -> dict:
    tol = _tolerance("verify", config)
    budget = _option("verify", config, "budget", minimum=1)
    precision = _option("verify", config, "precision", minimum=1)
    outputs: dict = {"cases": [], "summary": {}}
    note = None

    if config.get("sweep_small"):
        summary = terminating_sweep()
        outputs["summary"] = {
            "mode": "terminating-sweep",
            "admissible": summary.admissible,
            "passed": summary.passed,
            "failed": summary.failed,
            "inconclusive": 0,
        }
        outputs["failures"] = summary.failures
        return outputs

    if "case" in config:
        transform = _build_transform(_json_object(config["case"], "case"))
        report = verify_transform(transform, tol, budget, precision)
        outputs["cases"].append(_report_payload(report))
    else:
        theorem = _option("verify", config, "theorem", str)
        count = _option("verify", config, "count", minimum=0)
        seed = _option("verify", config, "seed")
        argument = _typed("x", config.get("x", "3/10"))
        kinds = {
            "1": ["euler1", "euler2"],
            "euler1": ["euler1"],
            "euler2": ["euler2"],
            "2": ["thomae"],
            "3": ["thomae_terminating"],
        }.get(theorem)
        if kinds is None:
            raise PreconditionError("invalid_input", f"unknown theorem {theorem!r}")
        share = count // len(kinds)
        counts = [share] * len(kinds)
        counts[-1] += count - share * len(kinds)
        for kind, kind_count in zip(kinds, counts):
            profile = CaseProfile(kind=kind, count=kind_count, argument=argument)
            generated = generate_cases(seed, profile)
            if generated.note:
                note = generated.note
            for case in generated.cases:
                report = verify_transform(case.transform, tol, budget, precision)
                payload = _report_payload(report)
                payload["label"] = case.label
                outputs["cases"].append(payload)

    verdicts = [c["verdict"] for c in outputs["cases"]]
    outputs["summary"] = {
        "mode": "cases",
        "total": len(verdicts),
        "passed": verdicts.count("pass"),
        "failed": verdicts.count("fail"),
        "inconclusive": verdicts.count("inconclusive"),
    }
    if note:
        outputs["summary"]["note"] = note
    return outputs


def _render_verify(outputs: dict) -> list[str]:
    lines = []
    for i, case in enumerate(outputs["cases"]):
        label = case.get("label", case["description"])
        lines.append(
            f"case {i:03d} [{label}]: {case['verdict']}"
            f" discrepancy={case['discrepancy']} allowed={case['combined_tolerance']}"
        )
    s = outputs["summary"]
    if s.get("mode") == "terminating-sweep":
        lines.append(
            f"sweep: {s['admissible']} admissible, {s['passed']} passed, "
            f"{s['failed']} failed (exact, zero tolerance)"
        )
        for failure in outputs.get("failures", []):
            lines.append(f"  FAILED: {failure}")
    else:
        lines.append(
            f"summary: {s['passed']}/{s['total']} passed, {s['failed']} failed, "
            f"{s['inconclusive']} inconclusive"
        )
        if s.get("note"):
            lines.append(f"note: {s['note']}")
    return lines


# ----------------------------------------------------------------- main


def _builder_flags(table: dict) -> dict:
    """Flag rows for the builder parameters that ``table``'s rows read."""
    keys = sorted({key for _, keys in table.values() for key in keys})
    return {
        key: ("", {"type": _pairs}) if key == "pairs"
        else (None, {"type": int if key in _INTEGER_KEYS else _rational})
        for key in keys
    }


# Flag tables, one per command: config key -> (default, argparse keywords);
# the flag is "--" and the key with "_" written as "-".  A default of None
# records the key in ``inputs`` only when the flag is given; any other is
# always recorded (a string one as the flag's type parses it, so each call
# gets a new list).  The runners read their defaults from here.
_SWITCH = {"action": "store_true"}
_PRECISION = {"precision": (50, {"type": int})}
_FLAGS = {
    "poly": {
        "kind": ("q", {"choices": list(_POLYNOMIALS)}),
        **_builder_flags(_POLYNOMIALS),
        "tol": (1e-13, {}),
    },
    "transform": {
        "theorem": ("thomae", {"choices": [kind.replace("_", "-") for kind in _THEOREMS]}),
        **_builder_flags(_THEOREMS),
        "contract": (False, _SWITCH),
        **_PRECISION,
        "tol": (1e-13, {}),
    },
    "eval": {
        "numerators": ("", {"type": _rational_list}),
        "denominators": ("", {"type": _rational_list}),
        "weight": (None, {"type": _rational_list}),
        "x": (None, {"type": _rational}),
        **_PRECISION,
        "tol": (1e-12, {}),
        "max_terms": (400_000, {"type": int}),
        "acceleration": (None, {"choices": ["levin"]}),
    },
    "verify": {
        "theorem": ("2", {"help": (
            "identity family: 1 or euler1/euler2 (argument transformations), "
            "2 (unit argument), 3 (terminating)"
        )}),
        "sweep_small": (None, _SWITCH),
        "seed": (1, {"type": int}),
        "count": (20, {"type": int}),
        "x": (None, {"type": _rational}),
        "case": (None, {}),
        "tol": (1e-10, {}),
        "budget": (40_000, {"type": int}),
        **_PRECISION,
        "strict": (False, _SWITCH),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thomae",
        description=(
            "Construct, apply, and verify Euler- and Thomae-type "
            "transformations for generalized hypergeometric series with "
            "integer-shifted parameter pairs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, _, help_text) in _RUNNERS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for key, (default, keywords) in _FLAGS[command].items():
            command_parser.add_argument("--" + key.replace("_", "-"), default=default, **keywords)
        command_parser.add_argument("--json", action="store_true")
        command_parser.add_argument("--config", type=str)
    return parser


def _config_from_args(args: argparse.Namespace) -> dict:
    """Normalize parsed flags into the canonical inputs dict."""
    if args.config:
        return _json_object(_json_flag(args.config, "--config"), "--config")
    values = vars(args)
    config = {key: values[key] for key in _FLAGS[args.command] if values[key] is not None}
    if args.command == "transform":
        config["kind"] = config.pop("theorem").replace("-", "_")
    elif args.command == "eval":
        if "x" not in config:
            raise PreconditionError("invalid_input", "eval requires --x")
        if config.get("weight") == []:
            del config["weight"]
    elif args.command == "verify":
        # one mode: --sweep-small, else --case, else the seeded suite's flags
        suite = ["theorem", "seed", "count", "x"]
        if config.get("sweep_small"):
            dropped = ["case", *suite]
        elif config.get("case"):
            dropped = ["sweep_small", *suite]
            config["case"] = _json_flag(config["case"], "--case")
        else:
            dropped = ["sweep_small", "case"]
        for key in dropped:
            config.pop(key, None)
    return config


def _require(config: dict, names) -> None:
    missing = [name for name in names if name not in config]
    if missing:
        raise PreconditionError(
            "invalid_input", f"missing required parameters: {', '.join(missing)}"
        )


_RUNNERS = {
    "poly": (run_poly, _render_poly, "build a parametric weight polynomial"),
    "transform": (run_transform, _render_transform, "apply a transformation theorem"),
    "eval": (run_eval, _render_eval, "evaluate a series"),
    "verify": (run_verify, _render_verify, "verify identities"),
}


def main(argv=None) -> int:
    # exact rationals of any size are read and printed: lift Python's limit on
    # int/str conversion (4300 digits; absent before 3.10.7, which has none)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        runner, renderer, _ = _RUNNERS[args.command]
        outputs = runner(config)
    except ThomaeError as exc:
        condition = getattr(exc, "condition", exc.__class__.__name__)
        print(f"error[{condition}]: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "inputs": config,
        "outputs": outputs,
        "diagnostics": {"float_digits": FLOAT_DIGITS, "package_version": __version__},
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in renderer(outputs):
            print(line)
    summary = outputs.get("summary", {})  # only verify reports carry a summary
    failed = summary.get("failed") or config.get("strict") and summary.get("inconclusive")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
