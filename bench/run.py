"""Benchmark of cover-spectra: closed-loop sweeps through the public API.

    python3 bench/run.py --workload corpus_sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):

* ``corpus_sweep``  - the verify-thm2 / criterion-3 path on the small corpus;
* ``regular_sweep`` - the experiment / criterion-8 path on random regular graphs;
* ``lift_sweep``    - random lifts of three fixed bases, cover held fixed.

One caller analyses one graph at a time; the next starts when the previous
one ends. Inputs are generated from ``--seed`` before timing. The loop runs
whole passes over the inputs: a pass starts only while more than half a mean
pass remains of ``--seconds`` of wall time, and at least one pass runs. Each
pass starts with the library's caches empty and fresh graph objects, as a
new sweep would.

The gated timings are in reference seconds: CPU seconds of this process
(``time.process_time``, BLAS held to one thread) divided by the CPU seconds
of the fixed computation in reference.py, run in the same process around
the timed work. Each graph's time is divided by the mean of the reference
runs just before and just after it; the loop runs the reference first,
then after the graph that ends each REF_EVERY_S seconds, and after each
pass. ``setup_s`` is divided by the mean of one run before the set-up's
generation and one after it. CPU time leaves out the time the hypervisor
gives the CPU to other guests (steal time: on a 2-vCPU Xeon guest a fixed
loop's wall time ran from one to four times its CPU time within a minute);
the reference takes out the host's CPU speed, which moved by up to 1.5
times (see reference.py). The raw CPU (``cpu.*``) and wall-clock
(``wall.*``) figures are kept in the full report.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` measures half
the time untraced and half traced on the same inputs, reports the per-layer
metrics from the spans, and the tracing overhead from the two halves. Every
output is checked; a graph whose analysis raises or fails a check counts as
failed. The last line of standard output is the result as one JSON object,
holding the metrics that BENCHMARK.json declares for the mode; the full
report, provenance and spans go to ``bench/out/``.
"""

import os
import time

T_START = time.perf_counter()

# One BLAS thread: the loop has one caller, and CPU time then measures one
# thread's work. Set before numpy is imported, which reads it once.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import reference_cpu_s  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REF_EVERY_S = 3.0


def import_library() -> None:
    """Import coverspectra from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import coverspectra
    except ImportError as exc:
        sys.exit(f"error: cannot import coverspectra from {src}: {exc}")
    if not Path(coverspectra.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: coverspectra imported from {coverspectra.__file__}, not {src}")


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def warm_up(np) -> None:
    """Start BLAS and load the scipy modules the library imports
    lazily, so that the first timed graph does not pay for either."""
    import scipy.sparse
    import scipy.sparse.linalg  # noqa: F401

    a = np.random.default_rng(0).standard_normal((300, 300))
    np.linalg.eigh(a + a.T)
    reference_cpu_s()


def clear_library_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("coverspectra."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@dataclass
class Loop:
    """One closed-loop measurement: per-graph times in the order run."""

    times: list = field(default_factory=list)  # CPU seconds
    wall_times: list = field(default_factory=list)
    gids: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    passes: int = 0
    refs: list = field(default_factory=list)  # CPU seconds of each reference run
    ref_before: list = field(default_factory=list)  # per graph: index of the last run before it

    def ref_times(self) -> list[float]:
        """Per-graph times in reference seconds."""
        return [t * 2 / (self.refs[k] + self.refs[k + 1]) for t, k in zip(self.times, self.ref_before)]


def measure(workload, passes, seconds, tracer, counters, MultiGraph) -> Loop:
    """Closed loop over whole passes, stopping as the module docstring says,
    with the reference runs it describes."""
    loop = Loop()
    start = time.perf_counter()
    loop.refs.append(reference_cpu_s())
    last_ref = time.perf_counter()
    while True:
        clear_library_caches()
        state: dict = {}
        for item in passes[loop.passes % len(passes)]:
            item = replace(item, graph=MultiGraph(item.graph.n, item.graph.edges))
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with tracer.span("graph", graph=item.gid):
                    workload.analyze(item, tracer.call, counters, state)
            except Exception as exc:  # noqa: BLE001 - a failed graph is counted, the sweep goes on
                loop.errors.append(f"{item.gid}: {type(exc).__name__}: {exc}")
            loop.times.append(time.process_time() - c0)
            loop.wall_times.append(time.perf_counter() - t0)
            loop.gids.append(item.gid)
            loop.ref_before.append(len(loop.refs) - 1)
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                loop.refs.append(reference_cpu_s())
                last_ref = time.perf_counter()
        loop.passes += 1
        if loop.ref_before[-1] == len(loop.refs) - 1:
            loop.refs.append(reference_cpu_s())
            last_ref = time.perf_counter()
        spent = time.perf_counter() - start
        if seconds - spent <= 0.5 * spent / loop.passes:
            return loop


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ten samples above it.
    Below 21 samples that percentile would not lie above the median, so the
    maximum is taken instead. Returns (value, percentile, samples beyond)."""
    ordered = sorted(times)
    i = len(ordered) - 11 if len(ordered) >= 21 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def pass_tail(times: list[float], passes: int) -> tuple[float, float, int]:
    """tail() of each pass (all passes hold the same number of graphs), the
    value being the median over passes: pooled, the percentile would move
    with the number of passes that fit in a run, and with it the value."""
    per = len(times) // passes
    tails = [tail(times[i * per:(i + 1) * per]) for i in range(passes)]
    return statistics.median(t[0] for t in tails), tails[0][1], tails[0][2]


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(np, scipy, args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k) for k in BLAS_THREAD_ENV}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": threads,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def loop_metrics(loop: Loop) -> dict:
    """Per-graph figures in reference seconds, then in CPU and wall seconds."""
    ref_times = loop.ref_times()
    value, pct, beyond = pass_tail(ref_times, loop.passes)
    n = len(ref_times)
    m = {
        "graphs_per_ref_s": n / sum(ref_times),
        "graph_ref_s_p50": statistics.median(ref_times),
        "graph_ref_s_tail": value,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "graphs": n,
        "reference_cpu_s": statistics.median(loop.refs),
    }
    for clock, times in (("cpu", loop.times), ("wall", loop.wall_times)):
        m[f"{clock}.graphs_per_s"] = n / sum(times)
        m[f"{clock}.graph_s_p50"] = statistics.median(times)
        m[f"{clock}.graph_s_tail"] = pass_tail(times, loop.passes)[0]
    return m


def layer_metrics(tracer, counters, setup_info, untraced, traced, ref_s) -> dict:
    """Span timings in reference seconds, ``ref_s`` CPU seconds each."""
    m = {}
    for stem in (
        "generators.enumerate", "generators.random_regular", "generators.random_lift",
        "spectra.eigen_spectrum", "spectra.closed_walk_profile", "rho.rho_tree",
        "twocore.two_core", "gapcert.certify_gap", "gapcert.unicyclic_defect",
        "cover.walk_profile", "cover.orbit_distribution", "localstats.tree_fraction",
        "localstats.bs_histogram", "localstats.cycle_stats", "localstats.tv_distance",
    ):
        cpu_s = tracer.median(stem)
        m[f"{stem}_s"] = None if cpu_s is None else cpu_s / ref_s
    dumps, loads = tracer.durations("multigraph.dump_graph"), tracer.durations("multigraph.load_graph")
    m["multigraph.io_s"] = statistics.median(a + b for a, b in zip(dumps, loads)) / ref_s if dumps else None
    busy = tracer.busy_fractions("graph")
    for module in ("multigraph", "spectra", "rho", "twocore", "gapcert", "cover", "localstats"):
        m[f"{module}.busy_frac"] = busy.get(module, 0.0)
    m["generators.rr_attempts_per_graph"] = setup_info.get("rr_attempts_per_graph", 0.0)
    m["generators.lift_draws_per_graph"] = setup_info.get("lift_draws_per_graph", 0.0)
    c = counters
    m["rho.probes"] = c.rho_probes
    m["rho.iterations"] = c.rho_iterations
    m["rho.ambiguous_probes"] = c.rho_ambiguous
    m["rho.decisive_frac"] = (c.rho_probes - c.rho_ambiguous) / c.rho_probes if c.rho_probes else 0.0
    for status, count in c.rho_status.items():
        m[f"rho.status.{status}"] = count
    m["rho.width_max"] = c.rho_width_max
    m["rho.lo_overshoot"] = c.lo_overshoot
    m["rho.hi_undershoot"] = c.hi_undershoot
    m["gapcert.margin_min"] = c.margin_min if c.margin_min != float("inf") else None
    m["cover.orbit_classes"] = c.orbit_classes
    m["localstats.bs_types"] = c.bs_types
    m["bench.trace_overhead_frac"] = (
        traced["graphs_per_ref_s"] - untraced["graphs_per_ref_s"]
    ) / untraced["graphs_per_ref_s"]
    return m


UNITS = {
    "graphs_per_ref_s": "1/s", "graph_ref_s_p50": "s", "graph_ref_s_tail": "s",
    **{f"{clock}.{name}": unit for clock in ("cpu", "wall")
       for name, unit in (("graphs_per_s", "1/s"), ("graph_s_p50", "s"), ("graph_s_tail", "s"))},
    "peak_rss_mb": "MB", "failed_frac": "ratio", "tail_percentile": "%",
    "tail_samples_beyond": "count", "graphs": "count",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_per_graph"):
        return "count/graph"
    if name == "rho.width_max" or name == "gapcert.margin_min":
        return "1"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: minute inputs, for the smoke test")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    declared = declared_metrics()
    import_library()
    import numpy as np
    import scipy

    from coverspectra import MultiGraph
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS, Counters

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    warm_up(np)

    tracer = Tracer() if args.trace else NullTracer()
    # CPU time since the process started: interpreter, imports, BLAS warm-up
    fixed_setup = time.process_time()
    setup_refs = [reference_cpu_s()]
    generation = []
    for _ in range(workload.setup_repeats):
        clear_library_caches()
        c0 = time.process_time()
        passes, setup_info = workload.setup(args.seed, args.scale, tracer.call)
        generation.append(time.process_time() - c0)
    # one untimed analysis settles first-call costs, as in a sweep already
    # under way; a failure here shows again, and counts, in the timed loop
    c0 = time.process_time()
    warm = passes[0][-1]
    try:
        workload.analyze(replace(warm, graph=MultiGraph(warm.graph.n, warm.graph.edges)),
                         NullTracer().call, Counters(), {})
    except Exception:  # noqa: BLE001
        pass
    fixed_setup += time.process_time() - c0
    setup_refs.append(reference_cpu_s())
    setup_cpu_s = fixed_setup + statistics.median(generation)
    setup_wall_s = time.perf_counter() - T_START

    counters = Counters()
    if args.trace:
        plain = measure(workload, passes, args.seconds / 2, NullTracer(), Counters(), MultiGraph)
        traced = measure(workload, passes, args.seconds / 2, tracer, counters, MultiGraph)
        metrics = layer_metrics(tracer, counters, setup_info, loop_metrics(plain), loop_metrics(traced),
                                statistics.median(traced.refs))
        loops = {"untraced": plain, "traced": traced}
    else:
        plain = measure(workload, passes, args.seconds, NullTracer(), counters, MultiGraph)
        metrics = loop_metrics(plain)
        metrics["setup_s"] = setup_cpu_s * 2 / sum(setup_refs)
        metrics["cpu.setup_s"] = setup_cpu_s
        metrics["wall.setup_s"] = setup_wall_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        loops = {"untraced": plain}
    attempted = sum(len(loop.times) for loop in loops.values())
    errors = [e for loop in loops.values() for e in loop.errors]
    metrics["failed_frac"] = len(errors) / attempted
    samples = {name: {"graphs": len(loop.times), "passes": loop.passes} for name, loop in loops.items()}
    samples["setup_repeats"] = len(generation)
    if args.trace:
        samples["spans"] = dict(collections.Counter(span[0] for span in tracer.spans))

    prov = provenance(np, scipy, args)
    prov["samples"] = samples
    prov["setup"] = {"fixed_cpu_s": fixed_setup, "generation_cpu_s": generation,
                     "wall_s": setup_wall_s, **setup_info}
    prov["reference_cpu_s"] = {"setup": setup_refs, **{name: loop.refs for name, loop in loops.items()}}
    for name in sorted(metrics):
        value = metrics[name]
        shown = "not called" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {unit_of(name)}")
    for line in errors[:20]:
        print(f"FAILED {line}")
    print("provenance: " + json.dumps(prov, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    report = {"metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
              "errors": errors, "provenance": prov,
              "graph_s": {name: list(zip(loop.gids, loop.times)) for name, loop in loops.items()}}
    if args.trace:
        report["spans"] = tracer.spans
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh)

    result = {}
    for name, unit in declared[args.trace].items():
        if unit != unit_of(name) or metrics.get(name) is None:
            sys.exit(f"error: BENCHMARK.json metric {name} ({unit}) is not measured here")
        result[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
