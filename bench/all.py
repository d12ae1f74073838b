"""Run every workload once untraced and once traced, and print each report.

    python3 bench/all.py [--seed 1]

Each run is its own process, as in single-workload use, so set-up time and
peak memory are per workload. The untraced runs print the end-to-end
metrics, the traced runs the per-layer ones. Exits non-zero if any run fails
or any output check does not pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                ok = False
            elif not json.loads(proc.stdout.strip().splitlines()[-1])["correct"]:
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
