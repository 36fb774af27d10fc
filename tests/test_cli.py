"""CLI end-to-end tests via subprocess: exact output, JSON round-trips,
determinism, and exit codes."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "thomae.cli", *args],
        capture_output=True,
        text=True,
    )


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

    def test_zero_finder_overflow_is_named_error(self):
        # at total shift 16 the float64 residual of an Aberth iterate
        # overflows; that must end as a non-convergence, not a traceback
        result = run_cli(
            "poly", "--kind", "q", "--b", "5/2", "--c", "3/2", "--pairs", "1/3:8,2/7:8"
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error[NonConvergenceError]")
        assert "Traceback" not in result.stderr


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

    def test_failing_exit_code_on_bad_input(self):
        result = run_cli("verify", "--case", "{not json")
        assert result.returncode == 2


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

    def test_rationals_serialize_exactly(self):
        result = run_cli(
            "poly", "--kind", "q", "--b", "2", "--c", "7", "--pairs", "3:1", "--json"
        )
        report = json.loads(result.stdout)
        assert report["outputs"]["coefficients"] == ["1", "-1/12"]
        assert report["inputs"]["pairs"] == [["3", 1]]
