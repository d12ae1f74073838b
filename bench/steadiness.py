"""Run one workload over several seeds and print each metric's spread.

    python3 bench/steadiness.py corpus_sweep --seeds 1-10 [--trace 0]

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) divided by the median, the figure
that BENCHMARK.json's bounds are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = str(json.load(fh)["run_seconds"])
    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        report = ROOT / "bench" / "out" / f"{args.workload}-seed{seed}-trace{args.trace}.json"
        with open(report, encoding="utf-8") as fh:
            full = json.load(fh)
        raw = {k: v["value"] for k, v in full["metrics"].items()
               if k.startswith(("cpu.", "wall.")) or k == "reference_cpu_s"}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items())
              + " | " + " ".join(f"{k}={v:.4g}" for k, v in raw.items()), flush=True)
        for name, value in raw.items():
            values.setdefault(name, []).append(value)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        median = statistics.median(vs)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:34s} median {median:.6g}  spread {spread:.4f}  n={len(vs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
