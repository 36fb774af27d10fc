"""Quick self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Runs the first few cases of each workload for seed 1 under the tracer,
checks every output against its reference, feeds each check one wrong
output to see it refused, and confirms that the tracer saw the layers
each workload should reach.  Exits 0 only when all of that holds; takes a
few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# cases per workload, and span names or counters each must reach
TINY = {
    "unit_verify": (3, ("cli.main", "series.unit_eval", "series.zeta_calls", "series.gamma_ratio")),
    "euler_disk": (7, ("series.disk_eval", "series.disk_terms", "polynomials.build_Qhat")),
    "exact_degree": (3, ("polynomials.build_Q", "polynomials.find_zeros", "series.eval_terminating",
                         "polynomials.rising_factorial_poly_calls")),
    "oracle_quad": (2, ("verification.oracle",)),
}


def _spoil(name: str, output):
    """The output with its numeric result moved off the truth."""
    if name == "unit_verify":
        code, text = output
        report = json.loads(text)
        case = report["outputs"]["cases"][0]
        case["lhs"] = repr(float(case["lhs"]) * (1 + 1e-6) + 1e-6)
        return code, json.dumps(report)
    if name == "euler_disk":
        return dataclasses.replace(output, lhs_value=output.lhs_value * (1 + 1e-6))
    if name == "exact_degree":
        terminating, report, argument, zeros = output
        return terminating, dataclasses.replace(report, lhs_value=report.lhs_value + 1), argument, zeros
    return output * (1 + 1e-6)


def main() -> int:
    problems = []
    for name, (count, layers) in TINY.items():
        workload = workloads.WORKLOADS[name]
        cases = workloads.make_cases(name, 1, count)
        tracer = Tracer()
        tracer.install()
        try:
            outputs = [workload.run(case) for case in cases]
        finally:
            tracer.uninstall()
        for index, (case, out) in enumerate(zip(cases, outputs)):
            message = workload.check(case, out)
            if message:
                problems.append(f"{name} case {index}: {message}")
        if workload.check(cases[0], _spoil(name, outputs[0])) is None:
            problems.append(f"{name}: a wrong output passed its check")
        seen = {k for k, v in tracer.self_time.items() if v > 0}
        seen |= {k for k, v in tracer.counts.items() if v > 0}
        missing = [layer for layer in layers if layer not in seen]
        if missing:
            problems.append(f"{name}: the tracer saw no {', '.join(missing)}")
        print(f"{name}: {count} cases run")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
