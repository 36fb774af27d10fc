"""CLI end-to-end tests via subprocess and in-process: exact output, JSON
round-trips, determinism, and exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from thomae import cli


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

    def test_zero_count_is_an_empty_suite(self, capsys):
        assert cli.main(["verify", "--theorem", "2", "--count", "0"]) == 0
        assert capsys.readouterr().out == "summary: 0/0 passed, 0 failed, 0 inconclusive\n"


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


# Full --json reports (exit code, stdout, stderr) of `transform` for every
# theorem with --contract, `poly` for every kind, and one call per theorem
# that violates every condition the theorem can violate.  The zeros and
# prefactors in them are mpmath 1.3.0 values.
PINS = json.loads((Path(__file__).parent / "data" / "cli_pins.json").read_text())


@pytest.mark.skipif(
    mpmath.__version__ != "1.3.0",
    reason="the pinned reports hold values computed with mpmath 1.3.0",
)
@pytest.mark.parametrize(
    "pin", PINS, ids=lambda pin: "-".join(pin["argv"][:3:2]) + ("-violated" if pin["exit_code"] else "")
)
def test_pinned_report(pin, capsys):
    assert cli.main(pin["argv"]) == pin["exit_code"]
    captured = capsys.readouterr()
    assert captured.out == pin["stdout"]
    assert captured.err == pin["stderr"]
