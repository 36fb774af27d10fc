"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository; the package is taken
from ``src`` as it stands, with nothing installed.  Every measurement
happens in fresh ``worker.py`` interpreters, each single-threaded.  Set-up
is sampled SETUP_SAMPLES times (the last sample is the measuring worker's
own) and ``setup_s`` is their median: the time from starting an
interpreter until the first timed case is ready, which covers importing
``thomae``, generating the inputs and one warm-up case.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code is
0 only when that line was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_SAMPLES = 3
HERE = Path(__file__).resolve().parent


def _worker(args, extra: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Start one worker; return the start time and its JSON line."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + extra
    spawned = time.perf_counter()
    done = subprocess.run(
        command, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr}")
    return spawned, json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source = Path.cwd() / "src"
    if not (source / "thomae" / "__init__.py").is_file():
        print(f"error: no package at {source / 'thomae'}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(source)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")

    # the whole run, set-up samples and checks included: the timed loop may
    # overrun --seconds by up to a round, and the checks cost about a round
    deadline = time.perf_counter() + 90.0 + 4 * args.seconds
    setups = []
    try:
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            spawned, ready = _worker(args, ["--setup-only"], env, deadline)
            setups.append(ready["ready"] - spawned)
        spawned, result = _worker(args, [], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["ready"] - spawned)
    for message in result["errors"]:
        print(message, file=sys.stderr)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
