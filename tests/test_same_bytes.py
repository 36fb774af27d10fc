"""Same bytes: the outputs of the benchmark's workloads, pinned by digest.

A change that means to keep behaviour (a deletion, a refactor, a faster
kernel) must leave every digest in ``tests/data/output_digests.json``
alone.  Each is the SHA-256 of the outputs of one workload of
``perfbench/workloads.py`` for one seed, as its ``run`` returns them:

- ``exact_degree``: every case; the two transforms, the exact report and
  the float zeros of both weights;
- ``euler_disk``: every case; each ``VerificationReport`` with its 50-digit
  ``mpf`` fields;
- ``unit_verify``: the first 30 cases; each ``(exit code, JSON text)`` of
  ``thomae verify --case ... --json``.

``oracle_quad`` is left out: its values come from LAPACK's ``eigh``, which
numpy builds may round differently, and its workload check against
``mpmath`` at 1e-7 already guards it.  Only ``run`` is called, never the
slow mpmath ``check``.

An output is hashed through ``_plain``, which keeps every bit: an ``mpf``
by its exact ``_mpf_`` tuple (``repr`` prints 17 digits, whatever the
precision), a Fraction by ``str``, a float by ``repr``.  After a declared
output change, re-record with

    PYTHONPATH=src python tests/test_same_bytes.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpf

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "output_digests.json"
SEEDS = (1, 1009)
CASES = {"exact_degree": None, "euler_disk": None, "unit_verify": 30}  # None: all


def _workloads():
    """``perfbench/workloads.py``, loaded read-only under its own name."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up while it loads
        spec.loader.exec_module(module)
    return sys.modules[name]


def _plain(value):
    """A JSON form of a workload output that keeps every bit of it."""
    if isinstance(value, mpf):
        sign, man, exp, bc = value._mpf_
        return {"mpf": [sign, int(man), exp, bc]}
    if isinstance(value, Fraction):
        return {"fraction": str(value)}
    if isinstance(value, float):
        return {"float": repr(value)}
    if isinstance(value, complex):
        return {"complex": [repr(value.real), repr(value.imag)]}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if dataclasses.is_dataclass(value):
        fields = {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return {type(value).__name__: fields}
    raise TypeError(f"no exact form for {type(value).__name__}")


def _digest(outputs) -> str:
    text = json.dumps(_plain(list(outputs)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _outputs(name: str, seed: int) -> list:
    workloads = _workloads()
    run = workloads.WORKLOADS[name].run
    return [run(case) for case in workloads.make_cases(name, seed, CASES[name])]


def _key(name: str, seed: int) -> str:
    return f"{name}:{seed}"


pytestmark = pytest.mark.skipif(
    mpmath.__version__ != "1.3.0",
    reason="the recorded bits come from mpmath 1.3.0's zeta, gamma and elementary functions",
)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_workload_outputs_keep_their_bytes(name, seed):
    recorded = json.loads(DIGESTS.read_text())
    assert _digest(_outputs(name, seed)) == recorded[_key(name, seed)]


def test_a_one_ulp_move_changes_the_digest():
    # repr shows 17 digits of a 50-digit mpf, so it cannot see this move
    workloads = _workloads()
    report = workloads.run_disk(workloads.make_cases("euler_disk", 1, 1)[0])
    prec = mpmath.libmp.dps_to_prec(50)  # verify_transform's default precision
    sign, man, exp, bc = report.lhs_value._mpf_
    ulp = mpmath.ldexp(1, exp + bc - prec)
    with mp.workprec(2 * prec):
        moved = dataclasses.replace(report, lhs_value=report.lhs_value + ulp)
    assert moved.lhs_value != report.lhs_value
    assert repr(moved.lhs_value) == repr(report.lhs_value)
    assert _digest([moved]) != _digest([report])


def test_the_serialiser_refuses_unknown_types():
    with pytest.raises(TypeError):
        _plain(object())


if __name__ == "__main__":
    digests = {_key(name, seed): _digest(_outputs(name, seed)) for name in sorted(CASES) for seed in SEEDS}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
