import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    connected_lift,
    ends,
    gnp_giant,
    probe_status,
    rho_by_bisection,
    supersolution_by_fractions,
    tree_ball,
    tree_ball_top_eigenvalue,
)

from coverspectra import rho as rho_module
from coverspectra.cover import _DENSE_SOLVE_CAP, quotient
from coverspectra.multigraph import CyclomaticClass, MultiGraph, cyclomatic_class
from coverspectra.rho import (
    _Operators,
    _is_supersolution,
    _newton,
    _solver,
    _valid_start,
    rho_ball_power,
    rho_lower_sequence,
    rho_tree,
)
from coverspectra.generators import (
    bowtie,
    complete,
    cycle,
    path,
    random_regular,
    star,
    theta,
)
from coverspectra.spectra import eigen_spectrum

SQRT8 = 2 * math.sqrt(2)


# -- known closed forms ------------------------------------------------------------


def test_three_regular_value():
    res = rho_tree(complete(4))
    assert abs(res.value - SQRT8) <= res.tol


def test_cycles_give_two():
    for n in (3, 4, 9):
        res = rho_tree(cycle(n))
        assert abs(res.value - 2.0) <= res.tol


def test_bowtie_value():
    want = (math.sqrt(3) + math.sqrt(11)) / 2
    res = rho_tree(bowtie())
    assert abs(res.value - want) <= res.tol


def test_theta_value():
    # theta(2,2,2) covers as the 3-regular-ish tree with rho = 1 + sqrt(2)
    res = rho_tree(theta(2, 2, 2))
    assert abs(res.value - (1 + math.sqrt(2))) <= 10 * res.tol


def test_single_edge_degenerate():
    res = rho_tree(MultiGraph(2, ((0, 1),)))
    assert res.lo == res.hi == res.value == 1.0


def test_d_regular_family():
    for d in (4, 5):
        g = complete(d + 1)
        res = rho_tree(g)
        assert abs(res.value - 2 * math.sqrt(d - 1)) <= res.tol


def _lifted(g, res):
    """res.fixed_point, one value per class, lifted to g's half-edges."""
    return np.array(res.fixed_point)[quotient(g).cls]


# -- bracket contract ---------------------------------------------------------------


def test_bracket_invariants(corpus, cache):
    for g in corpus[::7]:
        res = cache.rho(g)
        assert res.lo <= res.value <= res.hi
        assert res.hi - res.lo <= res.tol
        assert res.hi <= g.max_degree + 1e-12
        assert res.vertex_slack_min >= 0
        assert [t for t, _, s in res.probes if s == "certified"] in ([], [res.hi])
        if res.fixed_point:
            assert len(res.fixed_point) == quotient(g).size
            vals = _lifted(g, res)
            assert min(vals) > 0
            assert max(vals) <= res.hi + 1e-12
            if res.lo < res.hi:
                assert max(vals) < res.hi


def test_fixed_point_slacks(zoo_graph):
    g = zoo_graph
    res = rho_tree(g)
    t = res.hi
    f = _lifted(g, res)
    for v in range(g.n):
        s = sum(f[h] for h in g.half_edges_at[v])
        assert t - s >= -1e-12


def test_trees_recover_lambda1(cache):
    for g in (path(1), path(4), star(3), path(7), star(5)):
        res = rho_tree(g)
        lam = cache.spectrum(g).lambda1
        assert abs(res.value - lam) <= res.tol
    assert rho_tree(path(1)).hi == 0.0


def test_feasibility_monotone_at_bracket(zoo_graph):
    """Anything below lo is infeasible, anything above hi feasible; within one
    run the recorded probes must split cleanly. The endpoints themselves sit
    within tol of the boundary, where classification is legitimately open."""
    res = rho_tree(zoo_graph)
    if res.lo == res.hi:
        return
    assert probe_status(zoo_graph, res.lo - 0.1) == "diverged"
    assert probe_status(zoo_graph, res.hi + 0.1) == "certified"
    feas = [t for t, ok, _ in res.probes if ok]
    infeas = [t for t, ok, _ in res.probes if not ok]
    if feas and infeas:
        assert max(infeas) < min(feas)


def test_tol_validation():
    with pytest.raises(ValueError):
        rho_tree(cycle(3), tol=0.0)
    with pytest.raises(ValueError, match="positive"):
        rho_tree(cycle(3), tol=float("nan"))
    with pytest.raises(ValueError, match="connected"):
        rho_tree(MultiGraph(2, ()))


@pytest.mark.parametrize("name", ["bowtie", "k4", "theta123", "path50", "path200", "star7"])
def test_tolerance_at_rounding_scale(name):
    """The pad is relative to the estimate, so tol can go down to a few
    units in the last place of rho(T), trees included: certified by the
    certificate ladder's smallest shift of 1e-13 t, the trees stopped at
    3.2e-13."""
    g = {
        "bowtie": bowtie(),
        "k4": complete(4),
        "theta123": theta(1, 2, 3),
        "path50": path(50),
        "path200": path(200),
        "star7": star(7),
    }[name]
    assert rho_tree(g, tol=1e-14).width <= 1e-14


@pytest.mark.parametrize(
    "name, tol",
    [("star7", 1e-15), ("bowtie", 1e-300), ("theta123", 1e-300)],
)
def test_tolerance_below_one_ulp(name, tol):
    """tol / (4 rho) rounds away against 1 here: an unfloored pad put both
    ends at the estimate, leaving star(7) at [sqrt(7), 7] and the bowtie at
    lo = 2, or doubled up from 1e-301 hundreds of times on theta(1, 2, 3)."""
    g = {"star7": star(7), "bowtie": bowtie(), "theta123": theta(1, 2, 3)}[name]
    res = rho_tree(g, tol=tol)
    assert res.width < 1e-14
    assert len(res.probes) <= 8


def test_subnormal_tolerance_returns():
    """tol / (4 rho) underflows to 0, and a pad of 0 never grows: run in a
    subprocess so that a hang fails instead of stalling the suite."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = (
        "from coverspectra.generators import path\n"
        "from coverspectra.rho import rho_tree\n"
        "print(rho_tree(path(5), tol=5e-324).width)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout) < 1e-14


def test_tighter_tolerance_nests():
    g = bowtie()
    coarse = rho_tree(g, tol=1e-6)
    fine = rho_tree(g, tol=1e-10)
    assert coarse.lo - 1e-15 <= fine.lo and fine.hi <= coarse.hi + 1e-15
    assert fine.hi - fine.lo <= 1e-10


# -- lower sequence -----------------------------------------------------------------


def test_lower_sequence_three_regular():
    seq = rho_lower_sequence(complete(4), 0, 2)
    assert seq[0] == pytest.approx(math.sqrt(3), abs=1e-12)
    assert seq[1] == pytest.approx(15 ** 0.25, abs=1e-12)


def test_lower_sequence_monotone_and_below_rho(corpus, cache):
    for g in corpus[::19]:
        seq = rho_lower_sequence(g, 0, 8)
        assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))
        assert seq[-1] <= cache.rho(g).value + 1e-9


def test_lower_sequence_tree_converges_to_lambda1(cache):
    g = star(4)
    lam = cache.spectrum(g).lambda1
    seq = rho_lower_sequence(g, 0, 40)
    assert seq[-1] <= lam + 1e-12
    assert lam - seq[-1] < 0.01


def test_lower_sequence_validation():
    with pytest.raises(ValueError):
        rho_lower_sequence(cycle(3), 0, 0)


# -- cover-ball eigenvalue -------------------------------------------------------------


def test_ball_power_cycle_closed_form():
    # radius-10 ball of the line is a 21-vertex path
    got = rho_ball_power(cycle(12), 0, 10)
    assert got == pytest.approx(2 * math.cos(math.pi / 22), abs=1e-9)


def test_ball_power_three_regular_converges():
    # truncation error decays like 1/R^2: ~0.056 at R = 12, under 0.05 from
    # R = 13 on (values cross-checked against a dense eigensolve of the ball)
    assert abs(rho_ball_power(complete(4), 0, 12) - SQRT8) < 0.06
    assert abs(rho_ball_power(complete(4), 0, 13) - SQRT8) < 0.05


def test_ball_power_tree_hits_lambda1(cache):
    g = star(3)
    lam = cache.spectrum(g).lambda1
    assert rho_ball_power(g, 0, 4) == pytest.approx(lam, abs=1e-9)


def test_ball_power_is_lower_bound_and_monotone(zoo_graph, cache):
    res = cache.rho(zoo_graph)
    vals = [rho_ball_power(zoo_graph, 0, r) for r in (2, 4, 6)]
    assert all(a <= b + 1e-10 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= res.hi + 1e-9


def _assert_matches_materialized_ball(g, radius):
    tb = tree_ball(g, 0, radius)
    for r in range(radius + 1):
        want = tree_ball_top_eigenvalue(tb, r)
        assert rho_ball_power(g, 0, r) == pytest.approx(want, abs=1e-9)


def test_ball_power_matches_materialized_ball_on_corpus(corpus):
    for g in corpus:
        _assert_matches_materialized_ball(g, 5)


def test_ball_power_matches_materialized_ball_on_zoo(zoo_graph):
    _assert_matches_materialized_ball(zoo_graph, 6)


def test_ball_power_tests_only_classes_present_at_each_depth():
    """The half-edges into the four-fold edge first enter the ball at depth
    3, so at radius 4 their classes never carry three levels below them;
    testing their pivots anyway gave 3.0455 at radius 4."""
    g = MultiGraph.from_edges(4, ((0, 0), (0, 1), (1, 2), (2, 3), (2, 3), (2, 3), (2, 3)))
    _assert_matches_materialized_ball(g, 6)
    assert rho_ball_power(g, 0, 4) == pytest.approx(2.7898714397, abs=1e-9)


def test_ball_power_validates_arguments():
    with pytest.raises(ValueError):
        rho_ball_power(cycle(3), 7, 1)
    with pytest.raises(ValueError):
        rho_ball_power(cycle(3), 0, -1)


# -- estimator agreement ---------------------------------------------------------------


def test_sandwich(corpus, cache):
    for g in corpus[::41]:
        res = cache.rho(g)
        lower = max(rho_lower_sequence(g, 0, 10))
        ball = rho_ball_power(g, 0, 8)
        assert lower - 1e-9 <= res.value
        assert ball <= res.hi + 1e-9


def test_probe_reports_are_recorded(zoo_graph):
    res = rho_tree(zoo_graph)
    assert len(res.probes) == len(res.iterations_per_probe)
    statuses = [s for _, _, s in res.probes]
    assert set(statuses) <= {"certified", "diverged", "uncertified"}
    assert res.ambiguous_probes == statuses.count("uncertified")
    for t, feasible, status in res.probes:
        assert feasible == (status == "certified")
    # a certified probe passed the exact check, so hi moved to it
    assert [t for t, _, s in res.probes if s == "certified"] in ([], [res.hi])


def test_candidate_failing_the_exact_check_is_not_certified(monkeypatch):
    """Only the exact check certifies: when it rejects the fold point, the
    midpoint fixed point is tried at the same t, and no probe reads
    "certified" at a t that hi did not move to."""
    exact = rho_module._is_supersolution
    calls = []

    def reject_first(g, t, f, cls):
        calls.append(t)
        return None if len(calls) == 1 else exact(g, t, f, cls)

    monkeypatch.setattr(rho_module, "_is_supersolution", reject_first)
    res = rho_tree(bowtie())
    certified = [t for t, _, status in res.probes if status == "certified"]
    assert certified == [res.hi] == calls[:1]
    assert res.lo <= res.hi and res.hi - res.lo <= res.tol


# -- bracket truth ----------------------------------------------------------------------


def test_bracket_contains_lambda1_on_trees_and_unicyclic(corpus, cache):
    """rho(T) = lambda1 when the cycle rank is at most 1, so the bracket must
    contain lambda1. Before lo moved only on proofs, probes that gave up far
    from convergence pushed lo above lambda1 on three unicyclic graphs with a
    loop, by up to 4.5e-7."""
    bad = []
    for i, g in enumerate(corpus):
        if cyclomatic_class(g) is CyclomaticClass.MULTICYCLIC:
            continue
        res, lam = cache.rho(g), cache.spectrum(g).lambda1
        if not (res.lo <= lam + 1e-12 and res.hi >= lam - 1e-12):
            bad.append((i, g.edges, res.lo - lam, res.hi - lam))
    assert bad == []


# -- the Perron ratio: the fold point of a cover with at most two ends ------------------


def _perron_ratio_by_hand(g: MultiGraph) -> tuple[float, np.ndarray]:
    """lambda1 and F_y[a] = x[target colour] / x[source colour] per class a,
    with x the colour matrix's Perron vector."""
    q = quotient(g)
    lam, x = q.perron
    src, dst = np.array(q.ends).T
    return lam, x[dst] / x[src]


def _lollipop(m: int, handle: int) -> MultiGraph:
    """cycle(m) with a path of `handle` edges at vertex 0."""
    edges = [*cycle(m).edges, *((0 if i == m else i - 1, i) for i in range(m, m + handle))]
    return MultiGraph.from_edges(m + handle, edges)


def _random_tree(n: int, seed: int, extra_edge: bool) -> MultiGraph:
    """Uniform attachment: vertex i joins a uniform vertex below it; with
    extra_edge one more edge between two distinct uniform vertices."""
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return MultiGraph.from_edges(n, edges + [tuple(rng.sample(range(n), 2))] * extra_edge)


def test_perron_ratio_certifies_lambda1_on_the_corpus(corpus):
    """F_y is a fixed point of phi at t = lambda1 whose vertex sums are
    lambda1, so it is a supersolution at every t > lambda1 on any graph.
    Lifted to every half-edge it passes the exact check at lambda1 (1 + pad),
    rho_tree's first hi candidate, on every corpus graph with an edge,
    multicyclic ones included: a proof of rho(T) <= lambda1 (1 + pad) on
    each."""
    graphs = [g for g in corpus if g.m > 0]
    for g in graphs:
        lam, f = _perron_ratio_by_hand(g)
        pad = max(rho_module.DEFAULT_TOL / (4.0 * lam), math.ulp(1.0))
        assert _is_supersolution(g, lam * (1.0 + pad), f, quotient(g).cls) is not None, g.edges
    assert len(graphs) == 1176


AMENABLE_BEYOND_CORPUS = {
    "cycle1000": lambda: cycle(1000),
    "lollipop3_20": lambda: _lollipop(3, 20),
    "lollipop12_6": lambda: _lollipop(12, 6),
    "tree30": lambda: _random_tree(30, 1, False),
    "tree80": lambda: _random_tree(80, 2, False),
    "unicyclic30": lambda: _random_tree(30, 3, True),
    "unicyclic80": lambda: _random_tree(80, 4, True),
}


def test_trees_and_unicyclic_graphs_start_at_the_perron_ratio(corpus):
    """Cycle rank at most 1 makes the cover amenable, so rho(T) = lambda1 and
    the Perron ratio is the fold point: the estimate is lambda1, the bracket
    contains lambda1 from a dense eigvalsh, and the certificate behind hi
    is F_y itself (on a 2-regular graph the max degree 2 is hi, and F = 1 =
    F_y its certificate)."""
    graphs = [g for g in corpus if 0 < g.m <= g.n]
    graphs += [make() for make in AMENABLE_BEYOND_CORPUS.values()]
    for g in graphs:
        res = rho_tree(g)
        lam = float(np.linalg.eigvalsh(g.adjacency.toarray().astype(float))[-1])
        assert res.lo <= lam <= res.hi, (g.edges, res.lo, lam, res.hi)
        assert res.fixed_point == tuple(_perron_ratio_by_hand(g)[1].tolist()), g.edges
    assert len(graphs) == 43 + len(AMENABLE_BEYOND_CORPUS)


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def test_trees_above_the_dense_cap_take_a_sparse_perron_pair(monkeypatch):
    """Above _DENSE_SOLVE_CAP classes a tree's Perron pair comes from
    Quotient.perron's eigsh on the sparse S, not from a dense eigh, which
    costs O(k^3) time and O(k^2) memory on k colours, and rho_tree and
    eigen_spectrum share it: the estimate, which the first hi probe pads, is
    lambda1 exactly. The bracket contains lambda1 from a dense eigvalsh,
    and each side passes at its first try."""
    import scipy.linalg

    monkeypatch.setattr(scipy.linalg, "eigh", _refuse)
    for g in (_random_tree(400, 5, False), path(300)):
        assert quotient(g).size > _DENSE_SOLVE_CAP
        res, est = rho_tree(g), eigen_spectrum(g).lambda1
        assert res.probes[0][0] == est * (1.0 + max(res.tol / (4.0 * est), math.ulp(1.0)))
        lam = float(np.linalg.eigvalsh(g.adjacency.toarray().astype(float))[-1])
        assert res.lo <= lam <= res.hi, (res.lo, lam, res.hi)
        assert [status for *_, status in res.probes] == ["certified", "diverged"]


def test_unicyclic_graphs_above_the_dense_cap_start_at_the_perron_ratio(monkeypatch):
    """A unicyclic graph above _DENSE_SOLVE_CAP classes starts at the Perron
    ratio as a small one does, with no warm-up: each side passes at its
    first try, so the width is tol / 2 up to the rounding of its two ends,
    and the bracket contains lambda1 from a dense eigvalsh."""
    g = _random_tree(800, 12, True)
    assert g.m == g.n and quotient(g).size > _DENSE_SOLVE_CAP
    monkeypatch.setattr(rho_module, "_fold", _refuse)
    res = rho_tree(g)
    lam = float(np.linalg.eigvalsh(g.adjacency.toarray().astype(float))[-1])
    assert res.lo <= lam <= res.hi, (res.lo, lam, res.hi)
    assert [status for *_, status in res.probes] == ["certified", "diverged"]
    assert res.width <= res.tol / 2 + 2 * math.ulp(res.hi)


def test_perron_ratio_null_vector(corpus):
    """On a unicyclic graph the null vector of I - J(F_y) is ends(a) /
    x[source]^2 up to scale: 0 on the classes into a pendant tree, positive
    on the rest, and J v = v to rounding. A tree has none (J is nilpotent)."""
    unicyclic = 0
    for g in corpus:
        if not 0 < g.m <= g.n:
            continue
        q = quotient(g)
        lam, fold, null = rho_module._perron_ratio(q)
        assert (lam, fold.tolist()) == (q.perron[0], _perron_ratio_by_hand(g)[1].tolist())
        if g.m < g.n:
            assert null is None
            continue
        unicyclic += 1
        outward = sorted(q.peel[0])
        assert np.all(null[outward] == 0.0) and np.all(np.delete(null, outward) > 0.0)
        jv = fold * fold * (_Operators(q).C @ null)
        assert np.abs(jv - null).max() <= 1e-13 * null.max(), g.edges
    assert unicyclic > 20


# -- the fold solve against the bisection oracle ------------------------------------


def _bowtie_with_pendant_star(leaves: int) -> MultiGraph:
    """The bowtie with a pendant vertex at its vertex 1, carrying `leaves` leaves."""
    g = bowtie()
    edges = [*g.edges, (1, g.n), *((g.n, g.n + 1 + i) for i in range(leaves))]
    return MultiGraph.from_edges(g.n + 1 + leaves, edges)


def _broom(leaves: int, handle: int, triangle: bool) -> MultiGraph:
    """A hub with `leaves` leaves and a path of `handle` edges, and an edge
    joining the first two leaves if `triangle`."""
    n = 1 + leaves + handle
    edges = [(0, i) for i in range(1, leaves + 1)]
    edges += [(0 if i == leaves + 1 else i - 1, i) for i in range(leaves + 1, n)]
    return MultiGraph.from_edges(n, edges + [(1, 2)] * triangle)


def _simple_connected_regular(n: int, d: int) -> MultiGraph:
    seed = 0
    while True:
        g, info = random_regular(n, d, seed)
        if info["simple"] and info["connected"]:
            return g
        seed += 1


BEYOND_CORPUS = {
    "cycle10": lambda: cycle(10),
    "cycle47": lambda: cycle(47),
    "rr64_3": lambda: _simple_connected_regular(64, 3),
    "gnp300": lambda: gnp_giant(300, 5),
    "bowtie_pendant2": lambda: _bowtie_with_pendant_star(2),
    "bowtie_pendant4": lambda: _bowtie_with_pendant_star(4),
    "bowtie_pendant8": lambda: _bowtie_with_pendant_star(8),
    # a loop at the end of a pendant path: from the warm-up's first start
    # near the fold, Newton on the bordered system wanders off to F < 0
    "loop_at_depth": lambda: MultiGraph.from_edges(
        23,
        ((0, 1), (0, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7), (6, 8), (7, 9), (5, 10), (3, 11),
         (11, 12), (5, 13), (1, 14), (13, 15), (5, 16), (0, 17), (5, 18), (12, 19), (0, 20),
         (10, 21), (13, 22), (19, 19)),
    ),
    "path50": lambda: path(50),
    "path200": lambda: path(200),
    "star7": lambda: star(7),
    # the bordered solve's fold point failed the exact check at s + tol/4,
    # so hi rested on the least fixed point at the midpoint s + tol/8; the
    # Perron ratio passes
    "unicyclic_fold_fails": lambda: MultiGraph.from_edges(
        11, ((0, 1), (1, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7), (2, 8), (3, 9), (3, 10), (6, 4))
    ),
    # the Perron ratio fails the exact check at s + tol/4 (see
    # test_midpoint_fixed_point_certifies_when_the_fold_point_fails)
    "broom_ratio_fails": lambda: _broom(8, 15, True),
}


def _assert_overlaps_bisection(g):
    res = rho_tree(g)
    lo, hi = rho_by_bisection(g, res.tol)
    assert max(res.lo, lo) <= min(res.hi, hi), (res.lo, res.hi, lo, hi)
    assert res.width <= res.tol
    if cyclomatic_class(g) is not CyclomaticClass.MULTICYCLIC:  # rho(T) = lambda1
        lam = eigen_spectrum(g).lambda1
        assert res.lo <= lam + 1e-12 and res.hi >= lam - 1e-12, (res.lo, res.hi, lam)


def test_bracket_overlaps_bisection_on_corpus(corpus):
    for g in corpus[::10]:
        _assert_overlaps_bisection(g)


@pytest.mark.parametrize("name", sorted(BEYOND_CORPUS))
def test_bracket_overlaps_bisection_beyond_corpus(name):
    _assert_overlaps_bisection(BEYOND_CORPUS[name]())


def test_midpoint_fixed_point_certifies_when_the_fold_point_fails(monkeypatch):
    """On this unicyclic graph the fold point is the Perron ratio. The
    Perron vector falls along the 15-edge handle to about 1e-7 of its top,
    where eigh's absolute error leaves the ratio about 1e-9 off, more than
    the pad of 1e-10: it fails the exact check at the first hi candidate,
    and the midpoint's least fixed point passes it at the same t, so hi
    moves there on the first probe."""
    g = BEYOND_CORPUS["broom_ratio_fails"]()
    exact = rho_module._is_supersolution
    checks = []

    def spy(g, t, f, cls):
        slack = exact(g, t, f, cls)
        checks.append((t, slack is not None))
        return slack

    monkeypatch.setattr(rho_module, "_is_supersolution", spy)
    res = rho_tree(g)
    assert checks == [(res.hi, False), (res.hi, True)]
    assert res.probes[0] == (res.hi, True, "certified")
    assert res.lo <= eigen_spectrum(g).lambda1 <= res.hi


@pytest.mark.parametrize("leaves, want", [(2, 2.6250003795), (4, 2.6965444222), (8, 3.1066478200)])
def test_bowtie_with_pendant_star_values(leaves, want):
    g = _bowtie_with_pendant_star(leaves)
    assert g.n == 6 + leaves
    assert abs(rho_tree(g).value - want) <= 1e-9


# -- the sparse quotient path ---------------------------------------------------------


def test_sparse_quotient_path():
    g = gnp_giant(300, 5)
    assert quotient(g).size > _DENSE_SOLVE_CAP
    res = rho_tree(g)
    assert res.width <= res.tol
    walk_root = max(max(rho_lower_sequence(g, v, 6)) for v in range(g.n))
    assert walk_root <= res.value <= g.max_degree
    assert _is_supersolution(g, res.hi, np.array(res.fixed_point), quotient(g).cls) is not None


def test_dense_and_sparse_paths_agree(corpus, cache, monkeypatch):
    """With every quotient sent down the sparse path, Newton from zero gives
    the dense path's verdict at the dense lo and hi, and rho_tree's bracket
    overlaps the dense one."""
    graphs = [g for g in corpus if g.m >= g.n][::25] + [connected_lift(bowtie(), 40)]
    dense = []
    for g in graphs:
        res = cache.rho(g)
        q = _Operators(quotient(g))
        assert q.dense
        verdicts = [_newton(q, t, np.zeros(q.size))[0] for t in (res.lo, res.hi)]
        dense.append((res, verdicts))
    monkeypatch.setattr(rho_module, "_DENSE_SOLVE_CAP", 0)
    for g, (res, verdicts) in zip(graphs, dense):
        q = _Operators(quotient(g))
        assert not q.dense
        assert [_newton(q, t, np.zeros(q.size))[0] for t in (res.lo, res.hi)] == verdicts
        sparse = rho_tree(g)
        assert max(sparse.lo, res.lo) <= min(sparse.hi, res.hi), (g.edges, sparse, res)
    assert len(graphs) > 40


# -- the one solve routine ------------------------------------------------------------------


def test_solver_matches_numpy_and_gives_nan_when_singular():
    """Both backends solve like np.linalg.solve, and an exactly singular
    matrix gives all-NaN in the shape of b."""
    from scipy.sparse import csr_matrix

    regular = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    singular = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    for backend in (np.asarray, csr_matrix):
        assert np.allclose(_solver(backend(regular))(b), np.linalg.solve(regular, b))
        x = _solver(backend(singular))(b)
        assert x.shape == b.shape and np.all(np.isnan(x))
    # one dense factorization answers every right-hand side, and keeps its
    # own copy: writing to the matrix afterwards changes no solve
    a = regular.copy()
    solve = _solver(a)
    a[:] = singular
    for rhs in (b, np.ones(3), np.array([-2.0, 0.5, 7.0]), np.zeros(3)):
        x = solve(rhs)
        assert np.allclose(x, np.linalg.solve(regular, rhs), rtol=1e-14, atol=1e-15)
        assert np.abs(regular @ x - rhs).max() <= 1e-14 * (1.0 + np.abs(rhs).max())


def test_factor_of_a_singular_newton_matrix_gives_nan():
    # a cycle has one half-edge class with one continuation: I - C is 0
    x = _Operators(quotient(cycle(5))).factor(np.ones(1))(np.ones(1))
    assert x.shape == (1,) and np.all(np.isnan(x))
    # theta(2, 2, 2) has two classes, C = [[0, 1], [2, 0]]: at w = (1, 1/2)
    # the Newton matrix is [[1, -1], [-1, 1]]
    q = _Operators(quotient(theta(2, 2, 2)))
    assert q.C.tolist() == [[0.0, 1.0], [2.0, 0.0]]
    solve = q.factor(np.array([1.0, 0.5]))
    for rhs in (np.ones(q.size), np.arange(q.size, dtype=float)):
        x = solve(rhs)
        assert x.shape == rhs.shape and np.all(np.isnan(x))


# -- Newton's work on the corpus ------------------------------------------------------------


def _diverged_steps(res) -> list[int]:
    return [n for (*_, status), n in zip(res.probes, res.iterations_per_probe) if status == "diverged"]


def test_newton_work_on_the_corpus_is_pinned(corpus, cache):
    """The Newton steps and probe statuses over the whole corpus. These
    count the work rho_tree does; a change that moves them says so.

    The steps were 47,070, 18,480 of them in diverged probes, while the lo
    run started from the warm-up's iterate; from a checked start beside the
    fold point they were 31,042 and 2,452, and a lo run takes 2 steps in the
    median instead of 16. Since trees and unicyclic graphs start at the
    Perron ratio, without warm-up or bordered solve, they are 30,064 and
    2,322. The counts were taken with numpy 2.4.6 and scipy
    1.17.1, whose LAPACK is scipy-openblas 0.3.30 (see the provenance in
    BENCH_2026-10-20-lo-start.json). A step count can hang on the last bit
    of an LU, so on another BLAS/LAPACK build a failure here first means:
    recount, and record the new values with that build."""
    results = [cache.rho(g) for g in corpus]
    statuses = Counter(status for res in results for *_, status in res.probes)
    diverged = [n for res in results for n in _diverged_steps(res)]
    assert len(results) == 1177
    assert sum(sum(res.iterations_per_probe) for res in results) == 30064
    assert sum(diverged) == 2322
    assert sum(len(res.probes) for res in results) == 2342
    assert statuses == {"diverged": 1172, "certified": 1170}
    assert sorted(diverged)[len(diverged) // 2] <= 3


# -- the lo run's start beside the fold point -----------------------------------------------


def test_start_check_on_one_class():
    """K4's quotient is one class with C = [[2]]; at t = 3 the fixed points
    of 1 / (3 - 2F) are 1/2 and 1. Below 1/2, 0.3 is a valid start. 1.2 is
    a strict subsolution too, but on the upper branch, where phi' = 2 phi^2
    > 1: I - J is no M-matrix there, and the least fixed point lies below."""
    q = _Operators(quotient(complete(4)))
    assert q.C.tolist() == [[2.0]]
    assert _valid_start(q, 3.0, np.array([0.3])) is not None
    assert _valid_start(q, 3.0, np.array([1.2])) is None
    # a fixed point is no strict subsolution, and 0.9 lies above 1/2
    for x in (0.5, 1.0, 0.9):
        assert _valid_start(q, 3.0, np.array([x])) is None


def test_start_check_rejects_the_certificate(corpus, cache):
    """The certificate behind hi is a supersolution at hi, not a strict
    subsolution."""
    graphs = [g for g in corpus if g.m >= g.n][::25] + [connected_lift(bowtie(), 40)]
    for g in graphs:
        res = cache.rho(g)
        q = _Operators(quotient(g))
        assert _valid_start(q, res.hi, np.array(res.fixed_point)) is None, g.edges


def test_accepted_starts_lie_below_the_least_fixed_point(corpus, cache):
    """At t = hi, above rho(T), the least fixed point F* exists. The points
    offered lie along the fold's null vector v on both sides of the fold
    point, and on the ray through F*. Some lie below F*; others lie above it
    somewhere, as supersolutions or beyond the upper fixed point, where they
    are strict subsolutions but I - J is no M-matrix. Every point the check
    accepts lies below F*, to rounding. Beside the zeros, which pass
    everywhere, points near the fold pass too."""
    bases = (bowtie(), complete(4), theta(1, 2, 3))
    graphs = [g for g in corpus if g.m >= g.n][::25] + [connected_lift(b, 40) for b in bases]
    accepted = rejected_above = 0
    for g in graphs:
        res = cache.rho(g)
        q = _Operators(quotient(g))
        diverged, fstar, _, _ = _newton(q, res.hi, np.zeros(q.size))
        assert not diverged
        _, fold, v, *_ = rho_module._fold(q, res.lo, float(g.max_degree))
        assert fold is not None, g.edges
        step = fold.max() / v.max() * v
        points = [fold + sign * 10.0**e * step for sign in (-1.0, 1.0) for e in range(-12, 0)]
        points += [c * fstar for c in (0.0, 0.5, 0.9, 0.999, 1.001, 1.1)]
        for x in points:
            if _valid_start(q, res.hi, x) is not None:
                accepted += 1
                assert np.all(x <= fstar * (1.0 + 1e-12)), (g.edges, x, fstar)
            elif np.any(x > fstar):
                rejected_above += 1
    assert len(graphs) > 40
    assert accepted > 2 * len(graphs) and rejected_above > 20 * len(graphs)


def test_lo_run_without_a_checked_start_starts_from_zeros(corpus, cache, monkeypatch):
    """With the check refusing every start, the lo run starts from zeros,
    as on a tree: every result is the same but for its steps, and the steps
    are pinned (4,750 in all and 2,026 in diverged probes, with the BLAS/LAPACK
    build of test_newton_work_on_the_corpus_is_pinned)."""
    sample = corpus[::10]
    checked = [cache.rho(g) for g in sample]
    monkeypatch.setattr(rho_module, "_valid_start", lambda q, t, f: None)
    fallback = [rho_tree(g) for g in sample]
    for new, old in zip(checked, fallback):
        assert replace(new, iterations_per_probe=()) == replace(old, iterations_per_probe=())
    assert sum(sum(res.iterations_per_probe) for res in fallback) == 4750
    assert sum(n for res in fallback for n in _diverged_steps(res)) == 2026


def test_dense_newton_run_ignores_a_given_solver(monkeypatch):
    """A dense run factors I - J at every step, so a solver it is given, here
    the check's LU at the lo run's start x, goes unused: the run factors as
    often as one without it, with the same verdict, iterate and steps."""
    g = MultiGraph(3, ((0, 1), (0, 1), (0, 2)))  # its lo run takes 2 steps
    res, q = rho_tree(g), _Operators(quotient(g))
    lam, fold, null = rho_module._perron_ratio(quotient(g))
    assert q.dense and null is not None
    x, solve = rho_module._start_below_fold(q, res.lo, fold, null, 1.0 - res.lo / lam)
    factored, used = [], []
    factor = _Operators.factor
    monkeypatch.setattr(_Operators, "factor", lambda self, w: factored.append(1) or factor(self, w))

    def counted(b):
        used.append(1)
        return solve(b)

    fresh = _newton(q, res.lo, x)
    n_fresh = len(factored)
    given = _newton(q, res.lo, x, counted)
    assert not used and len(factored) == 2 * n_fresh and fresh[2] >= 2
    assert given[0] and given[:3:2] == fresh[:3:2] and np.array_equal(given[1], fresh[1])


def test_sparse_lo_run_reuses_only_its_starts_factorization(monkeypatch):
    """On the sparse path a lo run from a checked start reuses the check's
    own factorization, of I - J at that start, and no other."""
    checked, runs = {}, []

    def check(q, t, f):
        solve = _valid_start(q, t, f)
        checked[t, f.tobytes()] = solve
        return solve

    def newton(q, t, f, solve=None):
        runs.append((t, f.tobytes(), solve))
        return _newton(q, t, f, solve)

    monkeypatch.setattr(rho_module, "_valid_start", check)
    monkeypatch.setattr(rho_module, "_newton", newton)
    res = rho_tree(gnp_giant(300, 5))
    t, f, solve = runs[-1]
    assert res.probes[-1] == (t, False, "diverged") and t == res.lo
    assert solve is not None and checked[t, f] is solve
    assert res.iterations_per_probe[-1] <= 3


# -- the exact supersolution check ---------------------------------------------------------


def _one_ulp_either_side(g, t, f):
    """Copies of f that pass and fail by one ulp at the non-loop half-edge
    with the least room: f[h] set to the floats next to 1 / (t - continuation
    sum), which f[h] does not enter; lowering f[h] only eases the rest."""
    fr = [Fraction(x) for x in f]
    vsum = [Fraction(0)] * g.n
    for h, x in enumerate(fr):
        vsum[ends(g, h)[0]] += x
    rooms = [
        (fr[h] * (Fraction(t) - vsum[ends(g, h)[1]] + fr[h ^ 1]), h)
        for h in range(g.num_half_edges)
        if ends(g, h)[0] != ends(g, h)[1]
    ]
    if not rooms:
        return None
    _, h = min(rooms)
    need = 1 / (Fraction(t) - vsum[ends(g, h)[1]] + fr[h ^ 1])
    near = float(need)
    if Fraction(near) < need:
        fail, ok = near, np.nextafter(near, math.inf)
    else:
        fail, ok = np.nextafter(near, -math.inf), near
    passing, failing = f.copy(), f.copy()
    passing[h], failing[h] = ok, fail
    return passing, failing


def test_exact_check_matches_fractions(corpus, cache):
    perturbed = 0
    for g in corpus:
        res = cache.rho(g)
        values, cls = np.array(res.fixed_point), quotient(g).cls
        below = float(np.nextafter(res.hi, 0.0))
        # the certificate per class, as rho_tree passes it; a copy with one
        # half-edge moved is not constant on classes, so it goes per
        # half-edge, through the identity class map
        cases = [(res.hi, values, cls, True), (below, values, cls, None)]
        pair = _one_ulp_either_side(g, res.hi, values[cls])
        if pair is not None:
            perturbed += 1
            identity = np.arange(g.num_half_edges)
            cases += [(res.hi, pair[0], identity, True), (res.hi, pair[1], identity, False)]
        for t, cert, index, want in cases:
            exact = supersolution_by_fractions(g, t, cert[index])
            assert want is None or exact is want
            assert (_is_supersolution(g, t, cert, index) is not None) is exact
    assert perturbed > 1000
