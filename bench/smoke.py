"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 bench/smoke.py

Checks that each run exits 0 with every output check passed, that the last
line holds exactly the metrics BENCHMARK.json declares for the mode, each
with its unit, that the full report names every metric of every layer, and
that each workload reaches the layers it is meant to. Last, it checks that
the benchmark refuses to run without the library next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

END_TO_END = (
    "graphs_per_ref_s", "graph_ref_s_p50", "graph_ref_s_tail", "setup_s", "peak_rss_mb", "failed_frac",
    "reference_cpu_s",
    *(f"{clock}.{name}" for clock in ("cpu", "wall")
      for name in ("graphs_per_s", "graph_s_p50", "graph_s_tail", "setup_s")),
)
LAYERS = (
    "generators.enumerate_s", "generators.random_regular_s", "generators.rr_attempts_per_graph",
    "generators.random_lift_s", "generators.lift_draws_per_graph",
    "multigraph.io_s", "multigraph.busy_frac",
    "spectra.eigen_spectrum_s", "spectra.closed_walk_profile_s", "spectra.busy_frac",
    "rho.rho_tree_s", "rho.busy_frac", "rho.probes", "rho.iterations", "rho.ambiguous_probes",
    "rho.decisive_frac", "rho.width_max", "rho.lo_overshoot", "rho.hi_undershoot",
    *(f"rho.status.{s}" for s in (
        "diverged", "converged", "certified", "slack-negative", "uncertified",
        "projected-cap", "iteration-cap")),
    "twocore.two_core_s",
    "gapcert.certify_gap_s", "gapcert.unicyclic_defect_s", "gapcert.busy_frac", "gapcert.margin_min",
    "cover.walk_profile_s", "cover.orbit_distribution_s", "cover.orbit_classes", "cover.busy_frac",
    "localstats.tree_fraction_s", "localstats.bs_histogram_s", "localstats.bs_types",
    "localstats.cycle_stats_s", "localstats.tv_distance_s", "localstats.busy_frac",
    "bench.trace_overhead_frac",
)
# layer timings each workload must produce; the others it bypasses
CALLED = {
    "corpus_sweep": (
        "generators.enumerate_s", "spectra.eigen_spectrum_s", "rho.rho_tree_s",
        "gapcert.certify_gap_s", "gapcert.unicyclic_defect_s", "twocore.two_core_s",
        "cover.orbit_distribution_s", "spectra.closed_walk_profile_s", "cover.walk_profile_s",
    ),
    "regular_sweep": (
        "generators.random_regular_s", "multigraph.io_s", "spectra.eigen_spectrum_s",
        "rho.rho_tree_s", "localstats.tree_fraction_s", "localstats.bs_histogram_s",
        "localstats.cycle_stats_s", "localstats.tv_distance_s",
    ),
    "lift_sweep": (
        "generators.random_lift_s", "rho.rho_tree_s", "spectra.eigen_spectrum_s",
        "gapcert.certify_gap_s", "cover.orbit_distribution_s", "cover.walk_profile_s",
        "localstats.bs_histogram_s",
    ),
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(workload: str, trace: int, declared: dict) -> list[str]:
    problems = []
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: output checks failed: {proc.stdout[-1500:]}")
    if {k: v["unit"] for k, v in result["metrics"].items()} != declared[trace]:
        problems.append(f"{where}: metrics differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    with open(OUT / f"{workload}-seed3-trace{trace}.json", encoding="utf-8") as fh:
        report = json.load(fh)["metrics"]
    for name in LAYERS if trace else END_TO_END:
        if name not in report or not report[name]["unit"]:
            problems.append(f"{where}: report lacks {name} with its unit")
    if trace:
        for name in CALLED[workload]:
            if report.get(name, {}).get("value") is None:
                problems.append(f"{where}: {name} was not measured")
    return problems


def check_refuses_without_library() -> list[str]:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "corpus_sweep", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["benchmark ran without the library next to it"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in CALLED:
        for trace in (0, 1):
            problems += check_run(workload, trace, declared)
    problems += check_refuses_without_library()
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
