"""CLI end-to-end tests via subprocess and in-process: exact output, JSON
round-trips, determinism, and exit codes."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from thomae import cli, verification
from thomae.exact import ParamPairs
from thomae.series import SeriesSpec, eval_terminating
from thomae.transforms import thomae_terminating


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "thomae.cli", *args],
        capture_output=True,
        text=True,
    )


# Calls that run the zero finder, as flags and as the equivalent --config.
_ZERO_FINDER_FLAGS = [
    ("poly", "--kind", "qhat", "--a", "1/4", "--b", "5/2", "--c", "3/2", "--pairs", "1/2:2"),
    ("transform", "--theorem", "thomae", "--a", "1/4", "--b", "5/2", "--d", "1", "--c", "3/2",
     "--e", "8", "--pairs", "1/2:2"),
]
# One call of each command that takes --tol; the tests append the flag
_TOL_COMMANDS = {
    "eval": ("eval", "--numerators", "1/3", "--x=-1/2"),
    "verify": ("verify", "--case", '{"kind": "euler2", "a": "330", "b": "1/3", "c": "5/2", '
               '"x": "9/10"}'),
    "poly": _ZERO_FINDER_FLAGS[0],
    "transform": _ZERO_FINDER_FLAGS[1],
}
# What the invalid_input message says of each bad tolerance in those tests
_TOL_PROBLEMS = {"0": "positive", "-1": "positive", "inf": "finite", "-inf": "finite",
                 "nan": "a number"}
_ZERO_FINDER_CONFIGS = [
    ("poly", {"kind": "qhat", "a": "1/4", "b": "5/2", "c": "3/2", "pairs": [["1/2", 2]]}),
    ("transform", {"kind": "thomae", "a": "1/4", "b": "5/2", "d": "1", "c": "3/2", "e": "8",
                   "pairs": [["1/2", 2]]}),
]


class TestPolyCommand:
    def test_quadratic_second_kind(self):
        result = run_cli(
            "poly", "--kind", "qhat", "--a", "1/4", "--b", "5/2", "--c", "3/2",
            "--pairs", "1/2:2",
        )
        assert result.returncode == 0
        assert "1, -20/27, -68/27" in result.stdout
        assert "pair-expansion coefficients: 1, 4, 4/3" in result.stdout
        # zeros 1/2 and -27/34 to displayed precision
        assert "5.000000000000" in result.stdout
        assert "-7.9411764705882" in result.stdout

    def test_linear_first_kind(self):
        result = run_cli("poly", "--kind", "q", "--b", "2", "--c", "7", "--pairs", "3:1")
        assert result.returncode == 0
        assert "1, -1/12" in result.stdout

    def test_degenerate_input_named_error(self):
        result = run_cli("poly", "--kind", "q", "--b", "3", "--c", "7", "--pairs", "3:1")
        assert result.returncode == 2
        assert "b_equals_f" in result.stderr

    def test_missing_parameters(self):
        result = run_cli("poly", "--kind", "qhat", "--b", "5/2", "--c", "3/2")
        assert result.returncode == 2
        assert "missing" in result.stderr

    def test_malformed_rational(self):
        result = run_cli("poly", "--kind", "q", "--b", "2x", "--c", "7")
        assert result.returncode == 2

    def test_high_degree_zeros(self):
        result = run_cli(
            "poly", "--kind", "qhat", "--a", "1/4", "--b", "5/2", "--c", "3/2",
            "--pairs", "1/3:8,2/7:8", "--json",
        )
        assert result.returncode == 0
        zeros = json.loads(result.stdout)["outputs"]["zeros"]
        assert len(zeros) == 16
        assert all(float(z["residual"]) <= 1e-13 for z in zeros)

    def test_zero_finder_miss_is_named_error(self):
        # a tolerance below float rounding is missed: a named error, not a
        # traceback
        result = run_cli(
            "poly", "--kind", "q", "--b", "5/2", "--c", "3/2", "--pairs", "1/3:8,2/7:8",
            "--tol", "1e-30",
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error[NonConvergenceError]")
        assert "Traceback" not in result.stderr

    def test_g_index_out_of_range_is_named(self, capsys):
        argv = ["poly", "--kind", "g", "--m", "2", "--k", "3",
                "--a", "1", "--b", "1/2", "--c", "1/3"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error[invalid_g_index]: need 0 <= k <= m, got k=3, m=2\n"


class TestTransformCommand:
    def test_unit_argument_contracted_description(self):
        result = run_cli(
            "transform", "--theorem", "thomae", "--a", "1/4", "--b", "5/2",
            "--d", "1", "--c", "3/2", "--e", "8", "--pairs", "1/2:2",
            "--contract", "--json",
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        outputs = report["outputs"]
        assert outputs["target"]["kernel_numerators"] == ["-3/4", "-3", "1"]
        assert outputs["target"]["weight_coefficients"] == ["1", "-20/27", "-68/27"]
        assert outputs["contracted"]["kernel_denominators"] == ["1/2", "19/4"]
        assert outputs["contracted"]["weight_coefficients"] == ["1", "34/27"]

    def test_terminating_description(self):
        result = run_cli(
            "transform", "--theorem", "thomae-terminating", "--n", "3", "--b", "5/2",
            "--d", "1/3", "--c", "3/2", "--e", "7/2", "--pairs", "1/2:2",
            "--contract", "--json",
        )
        assert result.returncode == 0
        outputs = json.loads(result.stdout)["outputs"]
        assert outputs["target"]["weight_coefficients"] == ["1", "-20/9", "4/9"]
        assert outputs["contracted"]["kernel_denominators"][0] == "1/2"
        assert outputs["prefactor"]["exact_value"] == "14725/18711"

    def test_classical_euler_reduction(self):
        result = run_cli(
            "transform", "--theorem", "euler2", "--a", "1/3", "--b", "1/5",
            "--c", "7/4", "--x", "1/4", "--json",
        )
        outputs = json.loads(result.stdout)["outputs"]
        assert outputs["target"]["kernel_numerators"] == ["17/12", "31/20"]
        assert outputs["target"]["weight_coefficients"] == ["1"]
        assert outputs["prefactor"]["description"] == "(1-x)^(73/60)"

    def test_violated_condition_exit_code(self):
        result = run_cli(
            "transform", "--theorem", "thomae", "--a", "1/4", "--b", "5/2",
            "--d", "9", "--c", "3/2", "--e", "8", "--pairs", "1/2:2",
        )
        assert result.returncode == 2
        assert "ed_not_positive" in result.stderr


class TestEvalCommand:
    def test_unit_argument_value(self):
        result = run_cli(
            "eval", "--numerators", "1/3,1/4", "--denominators", "3", "--x", "1",
            "--json",
        )
        assert result.returncode == 0
        outputs = json.loads(result.stdout)["outputs"]
        assert abs(float(outputs["value"]) - 1.0379359528820356) < 1e-13
        assert float(outputs["abs_error_bound"]) < 1e-12

    def test_terminating_reports_exact(self):
        result = run_cli(
            "eval", "--numerators=-2,1", "--denominators", "1", "--x", "1",
            "--json",
        )
        outputs = json.loads(result.stdout)["outputs"]
        assert outputs["terminated_exactly"] is True
        assert outputs["exact_value"] == "0"

    def test_weighted_eval(self):
        result = run_cli(
            "eval", "--numerators", "1/4,-3", "--denominators", "3/2",
            "--weight", "1,-20/9,4/9", "--x", "3/10", "--json",
        )
        assert result.returncode == 0
        outputs = json.loads(result.stdout)["outputs"]
        assert outputs["series"]["weight_coefficients"] == ["1", "-20/9", "4/9"]

    def test_unit_argument_below_start_budget_is_unbounded(self, capsys):
        # three terms are too few for the tail fit: an infinite bound, no fault
        argv = ["eval", "--numerators", "1/3,1/4", "--denominators", "3", "--x", "1",
                "--max-terms", "3"]
        assert cli.main(argv) == 0
        assert "abs error bound: +inf\nterms used: 4\n" in capsys.readouterr().out

    @pytest.mark.parametrize("series", [
        ["--numerators", "1,1", "--denominators", "1"],
        ["--numerators", "1/2,1/2", "--denominators", "1"],
        ["--numerators", "1/3,1/4", "--denominators", "3", "--weight", "1,1,1,1"],
    ])
    def test_levin_on_divergent_series_is_named_error(self, series, capsys):
        assert cli.main(["eval", *series, "--x", "1", "--acceleration", "levin"]) == 2
        assert capsys.readouterr().err.startswith("error[divergent]")

    def test_levin_on_zero_term_is_named_error(self, capsys):
        argv = ["eval", "--numerators", "1/3,1/4", "--denominators", "3", "--weight", "1,1",
                "--x", "1", "--acceleration", "levin"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error[NonConvergenceError]: levin")

    def test_levin_below_its_least_count_is_unbounded(self, capsys):
        argv = ["eval", "--numerators", "1/3,1/4", "--denominators", "3", "--x", "1",
                "--acceleration", "levin", "--max-terms", "3"]
        assert cli.main(argv) == 0
        assert "abs error bound: +inf\nterms used: 4\n" in capsys.readouterr().out

    def test_divergent_inside_disk_is_named_error(self):
        # a 2F0: rejected before summing, not after 400 000 terms
        result = run_cli("eval", "--numerators", "1/3,1/4", "--x", "1/2")
        assert result.returncode == 2
        assert result.stderr.startswith("error[divergent]")


# Two valid commands whose exact results run past Python's 4300-digit int/str limit
_BIG_EVAL = ("eval", "--numerators=-3000,1/3,2/7", "--denominators", "5/2,1/9", "--x=-1/2")
_BIG_CASE = {"kind": "thomae_terminating", "n": 3000, "b": "2/5", "d": "2/7", "c": "5/2",
             "e": "9/2", "pairs": [["1/2", 2], ["1/3", 1]]}


@pytest.fixture
def unlimited_digits():
    """Lift the int/str digit limit in this process too, to parse the outputs back."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


class TestExactBeyondDigitLimit:
    """Each command runs in a fresh interpreter, where the limit is in force."""

    def test_eval_prints_the_exact_value(self, unlimited_digits):
        expected = eval_terminating(SeriesSpec(["-3000", "1/3", "2/7"], ["5/2", "1/9"], "-1/2"))
        assert len(str(expected)) > 4300
        text, report = run_cli(*_BIG_EVAL), run_cli(*_BIG_EVAL, "--json")
        assert (text.returncode, text.stderr, report.returncode) == (0, "", 0)
        assert f"\nexact value: {expected}\n" in text.stdout
        assert Fraction(json.loads(report.stdout)["outputs"]["exact_value"]) == expected

    def test_verify_passes_and_prints_the_exact_sides(self, unlimited_digits):
        text = run_cli("verify", "--case", json.dumps(_BIG_CASE))
        report = run_cli("verify", "--case", json.dumps(_BIG_CASE), "--json")
        assert (text.returncode, text.stderr, report.returncode) == (0, "", 0)
        assert ": pass " in text.stdout
        transform = thomae_terminating(3000, "2/5", "2/7", "5/2", "9/2",
                                       ParamPairs([("1/2", 2), ("1/3", 1)]))
        case = json.loads(report.stdout)["outputs"]["cases"][0]
        assert Fraction(case["lhs"]) == Fraction(case["rhs"]) == eval_terminating(transform.source)

    def test_config_reads_a_rational_of_any_size(self, unlimited_digits):
        x = Fraction(10**5000 + 1, 3)
        config = {"numerators": ["-2", "1/3"], "denominators": ["5/2"], "x": str(x)}
        result = run_cli("eval", "--config", json.dumps(config), "--json")
        assert (result.returncode, result.stderr) == (0, "")
        expected = eval_terminating(SeriesSpec([-2, Fraction(1, 3)], [Fraction(5, 2)], x))
        assert Fraction(json.loads(result.stdout)["outputs"]["exact_value"]) == expected


class TestVerifyCommand:
    def test_small_sweep_passes(self):
        result = run_cli("verify", "--theorem", "3", "--sweep-small")
        assert result.returncode == 0
        assert "failed" in result.stdout
        assert "0 failed" in result.stdout

    def test_seeded_suite_deterministic(self):
        args = ("verify", "--theorem", "2", "--seed", "7", "--count", "3", "--json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_single_case(self):
        case = {
            "kind": "thomae", "a": "1/4", "b": "5/2", "d": "1", "c": "3/2",
            "e": "8", "pairs": [["1/2", 2]],
        }
        result = run_cli("verify", "--case", json.dumps(case), "--tol", "1e-10")
        assert result.returncode == 0
        assert "pass" in result.stdout

    def test_large_weight_radius_case_passes(self):
        # the target at x = 1/3 has a weight of Fujiwara zero radius about
        # 8300; its tail bound must not wait for that radius
        case = {
            "kind": "euler1", "a": "3/2", "b": "17/4", "c": "-8/3", "x": "-1/2",
            "pairs": [["19/6", 2], ["4", 1]],
        }
        result = run_cli("verify", "--case", json.dumps(case))
        assert result.returncode == 0
        assert ": pass " in result.stdout
        assert "1/1 passed" in result.stdout

    def test_m_192_case(self, capsys):
        # total shift 192: the transform lists all weight zeros, and verify
        # passes without the start budget reading them
        case = {
            "kind": "thomae", "a": "1/4", "b": "5/3", "d": "1", "c": "3/2", "e": "196",
            "pairs": [["1/3", 96], ["2/7", 96]],
        }
        assert cli.main(["transform", "--config", json.dumps(case), "--json"]) == 0
        zeros = json.loads(capsys.readouterr().out)["outputs"]["weight_zeros"]
        assert len(zeros) == 192
        assert all(float(z["residual"]) <= 1e-13 for z in zeros)
        assert cli.main(["verify", "--case", json.dumps(case)]) == 0
        out = capsys.readouterr().out
        assert ": pass " in out and "1/1 passed" in out

    # (shift of each pair, whether the description passes the cap, SHA-256 of
    # the --json report recorded before the text report capped descriptions);
    # m = 8 is the least total shift of this family that passes the cap
    @pytest.mark.parametrize("shift, capped, json_digest", [
        (3, False, "12bda2c3fdccc2795ca3c32ad3d1f41e261e6757957ffe5377715d40e1c01bc9"),
        (4, True, "3cc9c7d5649dc5e613a8e3bac66744fb8d1fc81e760255ba17f4408c5fa5804b"),
    ])
    def test_text_report_caps_the_description(self, shift, capped, json_digest, capsys):
        case = json.dumps({
            "kind": "thomae_terminating", "n": 4, "b": "5/2", "d": "2/7", "c": "3/2",
            "e": "9/2", "pairs": [["1/3", shift], ["2/7", shift]],
        })
        assert cli.main(["verify", "--case", case, "--json"]) == 0
        report = capsys.readouterr().out
        assert hashlib.sha256(report.encode()).hexdigest() == json_digest
        description = json.loads(report)["outputs"]["cases"][0]["description"]
        assert cli.main(["verify", "--case", case]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        cap = cli.DESCRIPTION_CHARS
        assert (len(description) > cap) == capped
        if capped:
            description = (f"{description[:cap]}... (+{len(description) - cap} characters;"
                           " the full description is in --json)")
        assert line == f"case 000 [{description}]: pass discrepancy=0 allowed=0"

    @pytest.mark.parametrize("strict, code", [(False, 0), (True, 1)])
    def test_inconclusive_exit_code(self, strict, code, capsys):
        case = {
            "kind": "thomae", "a": "1/4", "b": "5/2", "d": "2/7", "c": "3/2",
            "e": "9", "pairs": [["1/2", 2]],
        }
        argv = ["verify", "--budget", "2", "--case", json.dumps(case)] + ["--strict"] * strict
        assert cli.main(argv) == code
        out = capsys.readouterr().out
        assert ": inconclusive " in out and "0 failed, 1 inconclusive" in out

    def test_failing_exit_code_on_bad_input(self):
        result = run_cli("verify", "--case", "{not json")
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--case", "[1,2]"),
            ("verify", "--case", '"thomae"'),
            ("verify", "--case", "null"),
            ("transform", "--config", "[1]"),
            ("verify", "--case", '{"kind": "euler1", "a": [1], "b": "1", "c": "3", "x": "1/2"}'),
            ("verify", "--case",
             '{"kind": "euler1", "a": "1/3", "b": "1", "c": "3", "x": "1/2", "pairs": 5}'),
            ("verify", "--case", '{"kind": ["thomae"]}'),
            ("verify", "--case", '{"kind": "thomae", "a": "1/4"}'),
            ("poly", "--config", '{"kind": "q", "b": "2", "c": "7", "pairs": [[3]]}'),
            ("eval", "--config", '{"numerators": 5, "x": "1/2"}'),
            ("eval", "--config", '{"numerators": ["1/3"], "x": "1/2", "tol": [1e-10]}'),
        ],
    )
    def test_malformed_json_input_is_invalid_input(self, argv, capsys):
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[invalid_input]: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--theorem", "2", "--count", "-3"),
            ("verify", "--theorem", "2", "--count", "1", "--precision", "-20"),
            ("verify", "--theorem", "2", "--count", "1", "--precision", "0"),
            ("verify", "--config", '{"theorem": "2", "count": -1}'),
            ("verify", "--config", '{"theorem": "2", "count": 1, "precision": 0}'),
            ("verify", "--theorem", "2", "--count", "1", "--budget", "0"),
            ("transform", "--theorem", "euler2", "--a", "1/3", "--b", "1/5", "--c", "7/4",
             "--x", "1/4", "--precision", "0"),
            ("eval", "--numerators", "1/3", "--x=-1/2", "--max-terms", "-3"),
            ("eval", "--numerators", "1/3", "--x=-1/2", "--precision", "0"),
        ],
    )
    def test_out_of_range_count_precision_or_budget(self, argv, capsys):
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[invalid_input]: ")
        assert " must be at least " in captured.err

    @pytest.mark.parametrize(
        "argv, problem",
        [pytest.param(argv, problem, id=f"argv{i}") for i, (argv, problem) in enumerate([
            (("verify", "--theorem", "2", "--count", "1", "--tol", "0"), "positive"),
            (("verify", "--theorem", "3", "--sweep-small", "--tol=-1e-10"), "positive"),
            (("verify", "--config", '{"theorem": "2", "count": 1, "tol": 0}'), "positive"),
            (("eval", "--numerators", "1/3,1/4", "--denominators", "3", "--x", "1", "--tol", "0"),
             "positive"),
            (("eval", "--numerators", "1/3", "--x=-1/2", "--tol", "nan"), "a number"),
            *[((*flags, f"--tol={tol}"), _TOL_PROBLEMS[tol])
              for flags in _ZERO_FINDER_FLAGS for tol in ("nan", "0", "-1")],
            *[((command, "--config", json.dumps(config | {"tol": tol})), _TOL_PROBLEMS[str(tol)])
              for command, config in _ZERO_FINDER_CONFIGS for tol in (float("nan"), 0, -1)],
            *[((*_TOL_COMMANDS[command], f"--tol={tol}"), _TOL_PROBLEMS[tol])
              for command in sorted(_TOL_COMMANDS) for tol in ("inf", "-inf", "nan")],
        ])],
    )
    def test_nonpositive_tol(self, argv, problem, capsys):
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error[invalid_input]: tol must be {problem}, got ")

    @pytest.mark.parametrize("x", ["1", "1/2"])
    def test_unknown_acceleration(self, x, capsys):
        config = {"numerators": ["1/3", "1/4"], "denominators": ["3"], "x": x,
                  "acceleration": "aitken"}
        assert cli.main(["eval", "--config", json.dumps(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error[invalid_input]: unknown acceleration 'aitken'\n"

    def test_zero_count_is_an_empty_suite(self, capsys):
        assert cli.main(["verify", "--theorem", "2", "--count", "0"]) == 0
        assert capsys.readouterr().out == "summary: 0/0 passed, 0 failed, 0 inconclusive\n"

    @pytest.mark.parametrize("argv", [
        *[(*_TOL_COMMANDS[command], "--tol", "1e400") for command in sorted(_TOL_COMMANDS)],
        ("eval", "--config", '{"numerators": ["1/3"], "x": "-1/2", "tol": 1%s}' % ("0" * 400)),
    ])
    def test_tol_beyond_float_range_is_valid(self, argv, capsys):
        assert cli.main(list(argv)) == 0
        assert capsys.readouterr().err == ""

    def test_sweep_failure_is_counted_listed_and_printed(self, monkeypatch, capsys):
        real = verification.verify_transform
        failed = []

        def fail_first(transform, *args):
            report = real(transform, *args)
            if failed:
                return report
            failed.append(report.description)
            return dataclasses.replace(report, verdict="fail")

        monkeypatch.setattr(verification, "verify_transform", fail_first)
        summary = verification.terminating_sweep()
        assert (summary.failed, summary.passed) == (1, summary.admissible - 1)
        assert summary.failures == failed
        failed.clear()
        assert cli.main(["verify", "--sweep-small"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(" passed, 1 failed (exact, zero tolerance)")
        assert lines[1:] == [f"  FAILED: {failed[0]}"]


@pytest.mark.parametrize(
    "flag, value", [("--numerators", "1/x"), ("--denominators", "2,q"), ("--weight", "1/0")]
)
def test_malformed_list_flag_is_usage_error(flag, value, capsys):
    argv = ["eval", "--numerators", "1/3", "--x", "1/2", flag, value]
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"thomae eval: error: argument {flag}: not a rational 'p/q' or integer: "
        f"'{value.split(',')[-1]}'\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--config", "{bad"), "bad --config JSON: "),
        (("verify", "--case", "{bad"), "bad --case JSON: "),
        (("verify", "--theorem", "9"), "unknown theorem '9'"),
        (("eval", "--numerators", "1/3"), "eval requires --x"),
    ],
)
def test_invalid_input_messages(argv, message, capsys):
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[invalid_input]: {message}")


def test_malformed_pair_is_usage_error(capsys):
    argv = ["transform", "--theorem", "euler1", "--a", "1/3", "--b", "1/2", "--c", "7/2",
            "--x", "1/2", "--pairs", "1/2"]
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "thomae transform: error: argument --pairs: bad pair '1/2'; expected f:m like 1/2:2\n"
    )


def test_degree_zero_poly_computes_no_zeros(capsys):
    assert cli.main(["poly", "--kind", "q", "--b", "5/2", "--c", "3/2"]) == 0
    out = capsys.readouterr().out
    assert "polynomial kind: q (degree 0)" in out
    assert out.endswith("zeros: none computed\n")


def test_exact_prefactor_is_printed(capsys):
    argv = ["transform", "--theorem", "thomae-terminating", "--n", "2", "--b", "1/2", "--c", "5/2",
            "--d", "1/3", "--e", "7/2", "--pairs", "1/3:1"]
    assert cli.main(argv) == 0
    assert "prefactor: (19/6)_2 / (7/2)_2 = 0.83774250440917108 (exact 475/567)\n" in (
        capsys.readouterr().out
    )


def test_short_sampler_says_so(capsys):
    assert cli.main(["verify", "--theorem", "euler1", "--x", "3/2", "--count", "2"]) == 0
    assert capsys.readouterr().out == (
        "summary: 0/0 passed, 0 failed, 0 inconclusive\n"
        "note: only 0 of 2 requested cases found after 800 attempts; "
        "profile may be unsatisfiable\n"
    )


def test_fault_below_main_is_not_reported_as_invalid_input(monkeypatch):
    def broken_builder(**kwargs):
        raise ValueError("a fault in the program")

    monkeypatch.setattr(cli.polynomials, "build_Q", broken_builder)
    with pytest.raises(ValueError, match="a fault in the program"):
        cli.main(["poly", "--kind", "q", "--b", "2", "--c", "7", "--pairs", "3:1"])


def _inputs(*argv: str) -> dict:
    return cli._config_from_args(cli._build_parser().parse_args(argv))


_VERIFY_DEFAULTS = {"tol": 1e-10, "budget": 40_000, "precision": 50, "strict": False}
_CASE = '{"kind": "thomae"}'


class TestFlagTable:
    @pytest.mark.parametrize(
        "argv, inputs",
        [
            (("poly", "--b", "4/2"), {"kind": "q", "b": "2", "pairs": [], "tol": 1e-13}),
            (("poly", "--kind", "g", "--m", "3", "--k", "1", "--pairs", "1/2:2"),
             {"kind": "g", "m": 3, "k": 1, "pairs": [["1/2", 2]], "tol": 1e-13}),
            (("transform", "--theorem", "thomae-terminating", "--n", "3"),
             {"kind": "thomae_terminating", "n": 3, "pairs": [], "contract": False,
              "precision": 50, "tol": 1e-13}),
            (("transform", "--x", "1/4", "--contract"),
             {"kind": "thomae", "x": "1/4", "pairs": [], "contract": True, "precision": 50,
              "tol": 1e-13}),
            (("eval", "--x", "2/4"),
             {"numerators": [], "denominators": [], "x": "1/2", "precision": 50, "tol": 1e-12,
              "max_terms": 400_000}),
            (("eval", "--numerators", "1/3,,2/6", "--weight", "", "--x", "1",
              "--acceleration", "levin"),
             {"numerators": ["1/3", "1/3"], "denominators": [], "x": "1", "precision": 50,
              "tol": 1e-12, "max_terms": 400_000, "acceleration": "levin"}),
            (("eval", "--weight", "1,-1/2", "--x", "1/2"),
             {"numerators": [], "denominators": [], "weight": ["1", "-1/2"], "x": "1/2",
              "precision": 50, "tol": 1e-12, "max_terms": 400_000}),
            (("verify",), {"theorem": "2", "seed": 1, "count": 20, **_VERIFY_DEFAULTS}),
            (("verify", "--x", "1/2", "--strict"),
             {"theorem": "2", "seed": 1, "count": 20, "x": "1/2", **_VERIFY_DEFAULTS,
              "strict": True}),
            (("verify", "--sweep-small", "--case", _CASE, "--theorem", "1", "--x", "1/2"),
             {"sweep_small": True, **_VERIFY_DEFAULTS}),
            (("verify", "--case", _CASE, "--theorem", "1", "--seed", "4", "--x", "1/2"),
             {"case": {"kind": "thomae"}, **_VERIFY_DEFAULTS}),
            (("verify", "--case", "", "--count", "3"),
             {"theorem": "2", "seed": 1, "count": 3, **_VERIFY_DEFAULTS}),
            (("eval", "--x", "1/2", "--tol", "1e-30"),
             {"numerators": [], "denominators": [], "x": "1/2", "precision": 50,
              "tol": "1e-30", "max_terms": 400_000}),
        ],
    )
    def test_flags_to_inputs(self, argv, inputs):
        assert _inputs(*argv) == inputs

    @pytest.mark.parametrize(
        "flags, config",
        [
            (("poly", "--b", "2", "--c", "7", "--pairs", "3:1"),
             {"kind": "q", "b": "2", "c": "7", "pairs": [["3", 1]]}),
            (("transform", "--theorem", "euler2", "--a", "1/3", "--b", "1/5", "--c", "7/4",
              "--x", "1/4"),
             {"kind": "euler2", "a": "1/3", "b": "1/5", "c": "7/4", "x": "1/4"}),
            (("eval", "--numerators", "1/3,1/4", "--denominators", "3", "--x", "1/2"),
             {"numerators": ["1/3", "1/4"], "denominators": ["3"], "x": "1/2"}),
            (("verify", "--count", "2"), {"count": 2}),
        ],
    )
    def test_flag_defaults_are_the_runner_defaults(self, flags, config, capsys):
        cli.main([*flags, "--json"])
        from_flags = json.loads(capsys.readouterr().out)["outputs"]
        cli.main([flags[0], "--config", json.dumps(config), "--json"])
        assert json.loads(capsys.readouterr().out)["outputs"] == from_flags


def test_import_leaves_scipy_unloaded():
    code = "import sys, thomae.cli; assert 'scipy' not in sys.modules, 'scipy was imported'"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_import_leaves_numpy_unloaded():
    # only the quadrature oracle imports numpy, when it runs
    code = "import sys, thomae.cli; assert 'numpy' not in sys.modules, 'numpy was imported'"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_zero_commands_leave_numpy_unloaded():
    # poly and transform print weight zeros, which are found in Python floats
    code = (
        "import sys\n"
        "from thomae import cli\n"
        "pairs = ['--pairs', '1/3:3,2/7:2']\n"
        "abc = ['--a', '1/4', '--b', '5/2', '--c', '3/2']\n"
        "assert cli.main(['poly', '--kind', 'qhat', *abc, *pairs]) == 0\n"
        "assert cli.main(['transform', '--theorem', 'euler2', *abc, '--x', '3/10', *pairs]) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("residual") == 10


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "args",
        [
            ("poly", "--kind", "qhat", "--a", "1/4", "--b", "5/2", "--c", "3/2",
             "--pairs", "1/2:2", "--json"),
            ("transform", "--theorem", "thomae", "--a", "1/4", "--b", "5/2",
             "--d", "1", "--c", "3/2", "--e", "8", "--pairs", "1/2:2",
             "--contract", "--json"),
            ("eval", "--numerators", "1/3,1/4", "--denominators", "3", "--x", "1",
             "--json"),
            ("verify", "--theorem", "2", "--seed", "3", "--count", "2", "--json"),
        ],
    )
    def test_config_reproduces_byte_identical_output(self, args):
        first = run_cli(*args)
        assert first.returncode == 0
        report = json.loads(first.stdout)
        second = run_cli(args[0], "--config", json.dumps(report["inputs"]), "--json")
        assert second.returncode == first.returncode
        assert second.stdout == first.stdout

    @pytest.mark.parametrize("argv", [
        ("eval", "--numerators", "1/4,7/3", "--denominators", "3/2", "--x=-1/2", "--tol", "1e-30"),
        ("verify", "--tol", "1/10000000000", "--case", _TOL_COMMANDS["verify"][2]),
    ])
    def test_string_tol_replays_byte_identically(self, argv, capsys):
        assert cli.main([*argv, "--json"]) == 0
        first = capsys.readouterr().out
        inputs = json.loads(first)["inputs"]
        assert inputs["tol"] == argv[argv.index("--tol") + 1]
        assert cli.main([argv[0], "--config", json.dumps(inputs), "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_rationals_serialize_exactly(self):
        result = run_cli(
            "poly", "--kind", "q", "--b", "2", "--c", "7", "--pairs", "3:1", "--json"
        )
        report = json.loads(result.stdout)
        assert report["outputs"]["coefficients"] == ["1", "-1/12"]
        assert report["inputs"]["pairs"] == [["3", 1]]


# Full --json reports (exit code, stdout, stderr) of `transform` for every
# theorem with --contract, `poly` for every kind, and one call per theorem
# that violates every condition the theorem can violate; then the text
# reports of one `transform --contract` and one `eval` call.  The prefactors
# in them are mpmath 1.3.0 values.
PINS = json.loads((Path(__file__).parent / "data" / "cli_pins.json").read_text())


@pytest.mark.skipif(
    mpmath.__version__ != "1.3.0",
    reason="the pinned reports hold values computed with mpmath 1.3.0",
)
@pytest.mark.parametrize(
    "pin",
    PINS,
    ids=lambda pin: "-".join(pin["argv"][:3:2])
    + ("-violated" if pin["exit_code"] else "")
    + ("" if "--json" in pin["argv"] else "-text"),
)
def test_pinned_report(pin, capsys):
    assert cli.main(pin["argv"]) == pin["exit_code"]
    captured = capsys.readouterr()
    assert captured.out == pin["stdout"]
    assert captured.err == pin["stderr"]
