"""The benchmark's three workloads: what each generates and how it analyses
and checks one graph.

A workload builds its passes from a seed during set-up. A pass is a list of
items; every pass of a workload has the same make-up (graph classes, sizes,
lift bases) and only the random draws differ, so a run that measures whole
passes measures the same mix of work whatever the seed. Each analysis calls
the library's public functions through ``call(span_name, fn, *args)``, which
is a plain call when untraced and a recorded span when traced; the span name
is ``<module>.<metric stem>``. A failed output check raises ``CheckFailed``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from coverspectra import (
    CyclomaticClass,
    backtracking_walk_profile,
    bowtie,
    bs_histogram,
    certify_gap,
    closed_walk_profile,
    complete,
    cycle_stats,
    cyclomatic_class,
    dump_graph,
    eigen_spectrum,
    load_graph,
    orbit_distribution,
    random_lift,
    random_regular,
    rho_tree,
    small_connected_multigraphs,
    theta,
    tree_fraction,
    tv_distance,
    two_core,
    unicyclic_defect,
    wr_fraction,
)

# walk profiles go to length 12, as in the acceptance suite's criterion 5
WALK_K = 12
UNICYCLIC_COPIES = 10_000
# criterion 3's tolerance for the dichotomy and the certificate cross-check
VALUE_TOL = 1e-6
LAMBDA_TOL = 1e-8
FLOAT_TOL = 1e-12
BALL_R = 2
# passes pre-generated per run; a run that measures more passes reuses them
PASSES = 4

RHO_STATUSES = (
    "diverged",
    "converged",
    "certified",
    "slack-negative",
    "uncertified",
    "projected-cap",
    "iteration-cap",
)


class CheckFailed(AssertionError):
    """An output of the library failed one of the benchmark's checks."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Counters:
    """Work counts gathered from the library's result objects."""

    rho_probes: int = 0
    rho_iterations: int = 0
    rho_ambiguous: int = 0
    rho_status: dict[str, int] = field(default_factory=lambda: dict.fromkeys(RHO_STATUSES, 0))
    rho_width_max: float = 0.0
    lo_overshoot: int = 0
    hi_undershoot: int = 0
    margin_min: float = math.inf
    orbit_classes: int = 0
    bs_types: int = 0

    def add_rho(self, r) -> None:
        self.rho_probes += len(r.probes)
        self.rho_iterations += sum(r.iterations_per_probe)
        self.rho_ambiguous += r.ambiguous_probes
        for _, _, status in r.probes:
            self.rho_status[status] = self.rho_status.get(status, 0) + 1
        self.rho_width_max = max(self.rho_width_max, r.width)

    def add_exact_case(self, r, lam: float) -> None:
        """Trees and unicyclic graphs have rho(T) = lambda1, so the bracket
        must contain lambda1; the known defect is counted, not failed."""
        self.lo_overshoot += r.lo > lam + FLOAT_TOL
        self.hi_undershoot += r.hi < lam - FLOAT_TOL

    def add_certificate(self, cert, r, lam: float) -> None:
        check(cert.margin > 0, f"gap margin {cert.margin} not positive")
        check(
            r.hi <= lam - cert.margin + VALUE_TOL,
            f"hi {r.hi} above certified bound {lam - cert.margin}",
        )
        self.margin_min = min(self.margin_min, cert.margin)


@dataclass(frozen=True)
class Item:
    gid: str
    graph: Any
    info: dict


Call = Callable[..., Any]


# -- corpus_sweep --------------------------------------------------------------


def corpus_setup(seed: int, scale: str, call: Call) -> tuple[list[list[Item]], dict]:
    """Every tree and unicyclic graph of the corpus in every pass, plus a
    fresh systematic sample of its multicyclic graphs per pass: every
    step-th graph in (n, m) order from a random start. Each multicyclic
    graph is drawn with the same probability, as in a uniform sample, and
    every pass has the same mix of sizes, so its cost depends less on the
    seed."""
    max_n, max_m, sample = (5, 7, 12) if scale == "full" else (3, 4, 3)
    corpus = call("generators.enumerate", small_connected_multigraphs, max_n, max_m)
    fixed, multi = [], []
    for i, g in enumerate(corpus):
        multicyclic = cyclomatic_class(g) is CyclomaticClass.MULTICYCLIC
        (multi if multicyclic else fixed).append((i, g))
    multi.sort(key=lambda t: (t[1].n, t[1].m, t[0]))
    step = len(multi) / sample
    rng = random.Random(seed)
    passes = []
    for _ in range(PASSES):
        start = rng.random() * step
        chosen = fixed + [multi[int(start + j * step)] for j in range(sample)]
        passes.append([Item(f"c{i}", g, {}) for i, g in chosen])
    return passes, {"corpus_size": len(corpus), "multicyclic": len(multi), "fixed": len(fixed)}


def corpus_analyze(item: Item, call: Call, counters: Counters, state: dict) -> None:
    g = item.graph
    cls = call("multigraph.cyclomatic_class", cyclomatic_class, g)
    check(int(cls) == min(g.m - g.n + 1, 2), f"class {cls.name} for cycle rank {g.m - g.n + 1}")
    s = call("spectra.eigen_spectrum", eigen_spectrum, g)
    r = call("rho.rho_tree", rho_tree, g)
    counters.add_rho(r)
    lam = s.lambda1
    if cls is CyclomaticClass.MULTICYCLIC:
        cert = call("gapcert.certify_gap", certify_gap, g, rho_result=r, spectrum=s)
        counters.add_certificate(cert, r, lam)
    else:
        check(abs(r.value - lam) <= VALUE_TOL, f"rho {r.value} != lambda1 {lam}")
        counters.add_exact_case(r, lam)
    if cls is CyclomaticClass.UNICYCLIC:
        low = call("gapcert.unicyclic_defect", unicyclic_defect, g, UNICYCLIC_COPIES, spectrum=s)
        check(0 < low <= lam, f"unicyclic lower bound {low} outside (0, lambda1]")
    if cls is not CyclomaticClass.TREE:
        core = call("twocore.two_core", two_core, g)
        check(min(core.core_degrees.values()) >= 2, "2-core has a vertex of core degree below 2")
    orbits = call("cover.orbit_distribution", orbit_distribution, g)
    check(sum(orbits.proportions) == 1, "orbit proportions do not sum to 1")
    counters.orbit_classes += len(orbits.classes)
    for v in range(g.n):
        closed = call("spectra.closed_walk_profile", closed_walk_profile, g, v, WALK_K)
        back = call("cover.walk_profile", backtracking_walk_profile, g, v, WALK_K)
        check(
            all(b <= c for b, c in zip(back, closed)),
            f"backtracking walks exceed closed walks at vertex {v}",
        )


# -- regular_sweep -------------------------------------------------------------


def regular_setup(seed: int, scale: str, call: Call) -> tuple[list[list[Item]], dict]:
    """Simple connected random regular graphs, one draw per entry of the
    pass. Three draws of rr(250, 3) put the median graph time on one size
    whatever the number of passes, and give pairs of same-size ball-type
    histograms to compare. 4-regular graphs stay small: at n = 500 rho_tree
    alone takes ~8 s and bs_histogram ~12 s, more than a whole pass may
    cost, and below n = 40 the canonizer's cost swings with the draw."""
    if scale == "full":
        configs = ((40, 4), (500, 3), (1000, 3), (250, 3), (250, 3), (250, 3))
    else:
        configs = ((10, 4), (40, 3), (20, 3), (20, 3))
    rng = random.Random(seed)
    attempts = 0
    passes = []
    for p in range(PASSES):
        items = []
        for j, (n, d) in enumerate(configs):
            while True:
                g, info = call("generators.random_regular", random_regular, n, d, rng.getrandbits(32))
                attempts += info["attempts"]
                if info["simple"] and info["connected"]:
                    break
            items.append(Item(f"p{p}.{j}.rr{n}.{d}", g, {"d": d}))
        passes.append(items)
    return passes, {"rr_attempts_per_graph": attempts / (PASSES * len(configs))}


def regular_analyze(item: Item, call: Call, counters: Counters, state: dict) -> None:
    d = item.info["d"]
    text = call("multigraph.dump_graph", dump_graph, item.graph)
    g = call("multigraph.load_graph", load_graph, text)
    check(
        g.n == item.graph.n
        and list(g.edges) == sorted((min(e), max(e)) for e in item.graph.edges),
        "dump/load round trip changed the graph",
    )
    s = call("spectra.eigen_spectrum", eigen_spectrum, g)
    check(abs(s.lambda1 - d) <= LAMBDA_TOL, f"lambda1 {s.lambda1} != {d}")
    r = call("rho.rho_tree", rho_tree, g)
    counters.add_rho(r)
    want = 2.0 * math.sqrt(d - 1)
    check(
        abs(r.lo - want) <= LAMBDA_TOL and abs(r.hi - want) <= LAMBDA_TOL,
        f"bracket [{r.lo}, {r.hi}] not within {LAMBDA_TOL} of {want}",
    )
    wr = call("spectra.wr_fraction", wr_fraction, s, r.value)
    check(0.0 < wr <= 1.0, f"weakly-Ramanujan fraction {wr} outside (0, 1]")
    tf = call("localstats.tree_fraction", tree_fraction, g, BALL_R)
    hist = call("localstats.bs_histogram", bs_histogram, g, BALL_R)
    check(sum(hist.values()) == g.n, "ball histogram does not count every vertex")
    tree_balls = sum(c for code, c in hist.items() if code.startswith("t"))
    check(tree_balls == round(tf * g.n), "tree balls disagree with tree_fraction")
    counters.bs_types += len(hist)
    tri = call("localstats.cycle_stats", cycle_stats, g, 3)
    # a vertex on a triangle cannot have a tree ball of radius >= 1
    check(sum(c > 0 for c in tri.counts) <= g.n - tree_balls, "triangle vertex with tree ball")
    key = (g.n, d)
    if key in state:
        other, other_tf = state.pop(key)
        tv = call("localstats.tv_distance", tv_distance, other, hist)
        # all tree balls of a d-regular graph share one code, so only the
        # non-tree balls of the sparser-in-trees graph can differ
        check(0.0 <= tv <= 1.0 - min(tf, other_tf) + FLOAT_TOL, f"total variation {tv} too large")
    else:
        state[key] = (hist, tf)


# -- lift_sweep ----------------------------------------------------------------


def lift_setup(seed: int, scale: str, call: Call) -> tuple[list[list[Item]], dict]:
    """Connected random lifts of three multicyclic bases, the bowtie at two
    degrees; the base's own answers are computed here and every lift is
    checked against them."""
    bases = {"bowtie": bowtie(), "K4": complete(4), "theta123": theta(1, 2, 3)}
    if scale == "full":
        jobs = (("bowtie", 40), ("bowtie", 150), ("K4", 50), ("theta123", 40))
    else:
        jobs = (("bowtie", 3), ("bowtie", 6), ("K4", 3), ("theta123", 3))
    refs = {}
    for name, base in bases.items():
        s = eigen_spectrum(base)
        r = rho_tree(base)
        back = backtracking_walk_profile(base, 0, WALK_K)
        check(all(b <= c for b, c in zip(back, closed_walk_profile(base, 0, WALK_K))), "base walks")
        refs[name] = {
            "lambda1": s.lambda1,
            "lo": r.lo,
            "hi": r.hi,
            "orbits": sorted(orbit_distribution(base).proportions),
            "walks": back,
        }
    rng = random.Random(seed)
    draws = 0
    passes = []
    for p in range(PASSES):
        items = []
        for name, k in jobs:
            while True:
                draws += 1
                g, _ = call("generators.random_lift", random_lift, bases[name], k, rng.getrandbits(32))
                if g.is_connected:
                    break
            items.append(Item(f"p{p}.{name}.{k}", g, refs[name]))
        passes.append(items)
    return passes, {"lift_draws_per_graph": draws / (PASSES * len(jobs))}


def lift_analyze(item: Item, call: Call, counters: Counters, state: dict) -> None:
    g, ref = item.graph, item.info
    r = call("rho.rho_tree", rho_tree, g)
    counters.add_rho(r)
    check(
        max(r.lo, ref["lo"]) <= min(r.hi, ref["hi"]) + FLOAT_TOL,
        f"bracket [{r.lo}, {r.hi}] misses the base's [{ref['lo']}, {ref['hi']}]",
    )
    s = call("spectra.eigen_spectrum", eigen_spectrum, g)
    check(abs(s.lambda1 - ref["lambda1"]) <= LAMBDA_TOL, "lift changed lambda1")
    cert = call("gapcert.certify_gap", certify_gap, g, rho_result=r, spectrum=s)
    counters.add_certificate(cert, r, s.lambda1)
    orbits = call("cover.orbit_distribution", orbit_distribution, g)
    check(sorted(orbits.proportions) == ref["orbits"], "lift changed the orbit proportions")
    counters.orbit_classes += len(orbits.classes)
    back = call("cover.walk_profile", backtracking_walk_profile, g, 0, WALK_K)
    check(back == ref["walks"], "lift changed the backtracking walk profile at vertex 0")
    hist = call("localstats.bs_histogram", bs_histogram, g, BALL_R)
    check(sum(hist.values()) == g.n, "ball histogram does not count every vertex")
    counters.bs_types += len(hist)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str, Call], tuple[list[list[Item]], dict]]
    analyze: Callable[[Item, Call, Counters, dict], None]
    # set-ups timed per run; the corpus enumeration alone takes ~20 s
    setup_repeats: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus_sweep", corpus_setup, corpus_analyze, 1),
        Workload("regular_sweep", regular_setup, regular_analyze, 3),
        Workload("lift_sweep", lift_setup, lift_analyze, 3),
    )
}
