"""The scale ladder: valid inputs at large total shift m, high precision,
small tol and large terminating degree n must keep working, each rung
within a time limit.

Each rung is one CLI call, run in-process.  The limits are about four
times the times measured on a 2-core VM (python 3.11, mpmath 1.3.0
without gmpy2; the import excluded), with at least 2 s, to leave room for
a slower or busier machine.  Rungs that fail today are not listed; each
joins the table with the change that mends it.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from thomae import cli


def _case(kind: str, pairs: tuple[tuple[str, int], ...], **params: object) -> str:
    return json.dumps({"kind": kind, **params, "pairs": [list(p) for p in pairs]})


def _verify_passes(out: str) -> None:
    assert ": pass " in out, out


def _eval_bound_below(limit: str):
    # compared exactly: 1e-480 is below the least float
    def check(out: str) -> None:
        assert Fraction(json.loads(out)["outputs"]["abs_error_bound"]) <= Fraction(limit), out

    return check


def _exact_value_printed(out: str) -> None:
    # past Python's 4300-digit limit on int/str conversion
    (line,) = [line for line in out.splitlines() if line.startswith("exact value: ")]
    assert len(line) > 4300, out


# (name, argv, check of stdout, limit in seconds), with the measured time beside it
RUNGS = [
    (
        "thomae_m256",
        ["verify", "--case", _case("thomae", (("1/3", 128), ("2/7", 128)),
                                   a="1/4", b="5/3", d="1", c="3/2", e="260")],
        _verify_passes, 10.0,  # 1.5-2.6 s
    ),
    (
        "thomae_m192",
        ["verify", "--case", _case("thomae", (("1/3", 96), ("2/7", 96)),
                                   a="1/4", b="5/3", d="1", c="3/2", e="196")],
        _verify_passes, 4.0,  # 0.8 s
    ),
    (
        "euler1_m128_precision300",
        ["verify", "--precision", "300", "--tol", "1e-250", "--case",
         _case("euler1", (("1/3", 64), ("2/7", 64)), a="1/4", b="1/5", c="5/2", x="-1/2")],
        _verify_passes, 2.0,  # 0.16 s
    ),
    (
        "euler1_m192",
        ["verify", "--case",
         _case("euler1", (("1/3", 96), ("2/7", 96)), a="1/4", b="1/5", c="5/2", x="-1/2")],
        _verify_passes, 2.0,  # 0.45 s
    ),
    (
        "euler2_m96",
        ["verify", "--case",
         _case("euler2", (("1/3", 48), ("2/7", 48)), a="1/4", b="1/5", c="5/2", x="1/2")],
        _verify_passes, 2.0,  # 0.06 s
    ),
    (
        "eval_x9_10_precision320",
        ["eval", "--numerators", "1/3,1/4", "--denominators", "3", "--x=9/10",
         "--precision", "320", "--tol", "1e-300", "--json"],
        _eval_bound_below("1e-300"), 2.0,  # 0.02 s, bound 9.55e-301
    ),
    (
        "eval_x9_10_precision500",
        ["eval", "--numerators", "1/3,1/4", "--denominators", "3", "--x=9/10",
         "--precision", "500", "--tol", "1e-480", "--json"],
        _eval_bound_below("1e-480"), 2.0,  # 0.035 s, bound 9.61e-481 after 10 198 terms
    ),
    (
        "euler1_m16_precision500",
        ["verify", "--precision", "500", "--tol", "1e-480", "--case",
         _case("euler1", (("1/3", 8), ("2/7", 8)), a="1/4", b="1/5", c="5/2", x="-1/2")],
        _verify_passes, 2.0,  # 0.016 s
    ),
    (
        "thomae_terminating_n3000",
        ["verify", "--case", _case("thomae_terminating", (("1/2", 2), ("1/3", 1)),
                                   n=3000, b="2/5", d="2/7", c="5/2", e="9/2")],
        _verify_passes, 2.0,  # 0.18 s
    ),
    (
        "eval_terminating_n3000",
        ["eval", "--numerators=-3000,1/3,2/7", "--denominators", "5/2,1/9", "--x=-1/2"],
        _exact_value_printed, 2.0,  # 0.06 s
    ),
]


@pytest.mark.parametrize("argv, check, limit", [r[1:] for r in RUNGS], ids=[r[0] for r in RUNGS])
def test_rung(argv, check, limit, capsys):
    started = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - started
    assert code == 0
    check(capsys.readouterr().out)
    assert elapsed < limit, f"{elapsed:.2f} s against a limit of {limit} s"
