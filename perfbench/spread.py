"""Run the benchmark on one workload several times and summarise.

    python3 perfbench/spread.py --workload unit_verify --seeds 1-10
    python3 perfbench/spread.py --workload unit_verify --seeds 1 --repeat 10

Every run is untraced and lasts ``run_seconds`` from ``BENCHMARK.json``.
Each seed is run ``--repeat`` times in a row.  Each run's JSON result is
appended to ``perfbench/out/<workload>.jsonl``; the summary gives, for
every metric, the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the quartile distance as a share
of the median, which is what the bounds in ``BENCHMARK.json`` are set
against.  Run from the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--repeat", type=int, default=1, help="runs of each seed")
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    with open(out / f"{args.workload}.jsonl", "a") as log:
        for seed in [s for s in args.seeds for _ in range(args.repeat)]:
            command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            started = time.perf_counter()
            done = subprocess.run(command, capture_output=True, text=True)
            wall = time.perf_counter() - started
            if done.returncode != 0:
                print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"seed": seed, "wall_s": wall, **result}) + "\n")
            print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} wall={wall:.1f}s", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) < 2:
            print(f"{name:42s} {median:.6g}")
            continue
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:42s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
