"""How much of a workload's cost depends on the seed, with machine drift
taken out.

    python3 perfbench/seedcost.py --workload unit_verify --seeds 1-10

Makes every seed's cases in one interpreter and runs one round of each
seed's cases, interleaved case by case: case i of every seed, then case
i + 1 of every seed.  A drift of the machine's speed over seconds or
minutes then hits every seed alike, and what is left between the seeds'
round times and median case times is the seed's own doing.  Prints, for
both, the value per seed and the quartile distance as a share of the
median.  Run from the root of the repository; untimed by the benchmark's
run and not needed by it.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from spread import _seeds  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    cases = {seed: workloads.make_cases(args.workload, seed) for seed in args.seeds}
    workload.run(cases[args.seeds[0]][0])  # warm-up
    times: dict[int, list[float]] = {seed: [] for seed in args.seeds}
    for index in range(workload.cases):
        for seed in args.seeds:
            t0 = time.perf_counter()
            workload.run(cases[seed][index])
            times[seed].append(time.perf_counter() - t0)
    for label, value in (("round_s", sum), ("case_p50_ms", lambda t: 1000 * statistics.median(t))):
        series = [value(times[seed]) for seed in args.seeds]
        q1, median, q3 = statistics.quantiles(series, n=4)
        print(f"{args.workload} {label}: " + " ".join(f"{v:.4g}" for v in series)
              + f"  median {median:.4g}  spread {(q3 - q1) / median:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
