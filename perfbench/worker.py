"""One fresh interpreter that sets a workload up and, unless ``--setup-only``,
runs and checks it.  Started by ``run.py`` with ``src`` on ``PYTHONPATH``;
prints one JSON object as its last line.

The timed loop runs whole rounds of the workload's cases and stops at the
round boundary nearest to ``--seconds``, so every run attempts each case
equally often.  With ``--trace 1`` it alternates between untraced and
traced rounds, so the tracing overhead is measured on the same cases and
in the same minutes as the layer times, and the counts per round repeat
exactly.  A case that raises is counted in ``failed`` and makes the run
incorrect.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import statistics
import sys
import time

started = time.perf_counter()
import workloads  # noqa: E402  (imports thomae)

imported = time.perf_counter()

CHECK_PROCESSES = 2


class Runs:
    """Times each call of a workload's cases and keeps what came out: the
    first output of each case (later ones must equal it), and the
    message of each case that raised."""

    def __init__(self, workload, cases) -> None:
        self.workload, self.cases = workload, cases
        self.first: dict = {}
        self.times: list[float] = []
        self.failures: list[str] = []
        self.wrong: list[str] = []

    def run(self, index: int) -> None:
        t0 = time.perf_counter()
        try:
            out = self.workload.run(self.cases[index])
        except Exception as exc:  # a failing case is counted, not fatal
            self.times.append(time.perf_counter() - t0)
            self.failures.append(f"case {index}: {exc.__class__.__name__}: {exc}")
            return
        self.times.append(time.perf_counter() - t0)
        if index not in self.first:
            self.first[index] = out
        elif out != self.first[index]:
            self.wrong.append(f"case {index}: output changed on a repeated run")

    def check(self, name: str) -> None:
        """Check each case's first output.  The mpmath references take about
        as long as the timed cases, so the checks run on both cores."""
        checked = sorted(self.first)
        with multiprocessing.get_context("spawn").Pool(CHECK_PROCESSES) as pool:
            messages = pool.starmap(
                workloads.check, [(name, self.cases[i], self.first[i]) for i in checked])
            pool.close()
            pool.join()
        self.wrong += [f"case {i}: {m}" for i, m in zip(checked, messages) if m]


def _layer_metrics(tracer, traced_cases: int, traced_rounds: int) -> dict:
    per_case = lambda name: 1000.0 * tracer.self_time[name] / traced_cases  # noqa: E731
    per_round = lambda name: tracer.counts[name] // traced_rounds  # noqa: E731
    return {
        "cli.main_self_ms": (per_case("cli.main"), "ms"),
        "series.unit_eval_ms": (per_case("series.unit_eval"), "ms"),
        "series.unit_terms": (per_round("series.unit_terms"), "count"),
        "series.zeta_calls": (per_round("series.zeta_calls"), "count"),
        "series.lu_solve_calls": (per_round("series.lu_solve_calls"), "count"),
        "series.gamma_ratio_ms": (per_case("series.gamma_ratio"), "ms"),
        "series.disk_eval_ms": (per_case("series.disk_eval"), "ms"),
        "series.disk_terms": (per_round("series.disk_terms"), "count"),
        "series.eval_terminating_ms": (per_case("series.eval_terminating"), "ms"),
        "exact.c_coefficients_ms": (per_case("exact.c_coefficients"), "ms"),
        "polynomials.build_Q_ms": (per_case("polynomials.build_Q"), "ms"),
        "polynomials.build_Qhat_self_ms": (per_case("polynomials.build_Qhat"), "ms"),
        "polynomials.build_G_ms": (per_case("polynomials.build_G"), "ms"),
        "polynomials.build_G_calls": (per_round("polynomials.build_G_calls"), "count"),
        "polynomials.rising_factorial_poly_calls": (
            per_round("polynomials.rising_factorial_poly_calls"), "count"),
        "polynomials.find_zeros_ms": (per_case("polynomials.find_zeros"), "ms"),
        "polynomials.find_zeros_iterations": (
            per_round("polynomials.find_zeros_iterations"), "count"),
        "transforms.construct_self_ms": (per_case("transforms.construct"), "ms"),
        "verification.verify_self_ms": (per_case("verification.verify"), "ms"),
        "verification.oracle_ms": (per_case("verification.oracle"), "ms"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    cases = workloads.make_cases(args.workload, args.seed)
    inputs_done = time.perf_counter()
    workload.run(cases[0])  # warm-up: mpmath caches, Stirling rows, lazy imports
    ready = time.perf_counter()
    result = {
        "ready": ready,
        "import_s": imported - started,
        "inputs_s": inputs_done - imported,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    runs = Runs(workload, cases)
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    spent = [0.0, 0.0]  # untraced, traced seconds
    rounds = [0, 0]  # untraced, traced rounds
    begin = time.perf_counter()
    while True:
        traced = int(args.trace and rounds[0] > rounds[1])
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            for index in range(len(cases)):
                runs.run(index)
        finally:
            if traced:
                tracer.uninstall()
        spent[traced] += time.perf_counter() - t0
        rounds[traced] += 1
        # stop at the round boundary nearest to --seconds, after at least
        # one round (one of each kind when tracing)
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / sum(rounds) / 2 >= args.seconds and (rounds[1] or not args.trace):
            break
    done = [len(cases) * r for r in rounds]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs.check(args.workload)
    result.update(
        attempted=sum(done),
        failed=len(runs.failures),
        correct=not runs.wrong and not runs.failures,
        errors=(runs.wrong + runs.failures)[:20],
    )
    if args.trace:
        metrics = _layer_metrics(tracer, done[1], rounds[1])
        metrics["trace.overhead_cases_per_s"] = (
            done[0] / spent[0] - done[1] / spent[1], "1/s")
        metrics["setup.import_s"] = (result["import_s"], "s")
        metrics["setup.inputs_s"] = (result["inputs_s"], "s")
    else:
        metrics = {
            "cases_per_s": (done[0] / spent[0], "1/s"),
            "case_p50_ms": (1000.0 * statistics.median(runs.times), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
