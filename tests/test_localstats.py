import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from coverspectra import localstats, multigraph
from coverspectra.cover import backtracking_walk_profile, orbit_distribution
from coverspectra.gapcert import unicyclic_defect
from coverspectra.localstats import (
    CANON_CAP,
    ball_code,
    bs_histogram,
    cycle_stats,
    enumerate_cycles,
    find_bouquet,
    mass_transport_check,
    tree_fraction,
    tv_distance,
)
from coverspectra.multigraph import (
    CyclomaticClass,
    MultiGraph,
    ball,
    canonical_code,
    cyclomatic_class,
    induced_subgraph,
)
from coverspectra.generators import (
    bowtie,
    complete,
    cycle,
    path,
    random_lift,
    random_regular,
    star,
    theta,
)
from coverspectra.rho import rho_ball_power, rho_lower_sequence
from coverspectra.spectra import closed_walk_profile

from oracles import (
    ahu_code,
    bs_histogram_by_balls,
    canonical_code_by_search,
    connected_lift,
    gnp_giant,
    mass_transport_by_distances,
    tree_ball,
    tree_fraction_by_balls,
)


def _girth(g):
    for length in range(1, g.m + 1):
        if enumerate_cycles(g, length):
            return length
    return None


# -- cycle enumeration ------------------------------------------------------------


def test_triangle_cycles():
    s = cycle_stats(cycle(3), 3)
    assert s.fraction == 1.0
    assert s.counts == (1, 1, 1)


def test_bowtie_center_on_two_triangles():
    s = cycle_stats(bowtie(), 3)
    assert s.fraction == 1.0
    assert s.counts[0] == 2
    assert s.max_count == 2


def test_c6_has_no_triangles():
    assert cycle_stats(cycle(6), 3).fraction == 0.0


def test_loops_and_parallel_pairs_are_short_cycles():
    g = MultiGraph(2, ((0, 0), (0, 1), (0, 1)))
    assert len(enumerate_cycles(g, 1)) == 1
    assert len(enumerate_cycles(g, 2)) == 1
    s1 = cycle_stats(g, 1)
    assert s1.counts == (1, 0)


def test_parallel_triple_gives_three_two_cycles():
    g = MultiGraph(2, ((0, 1),) * 3)
    assert len(enumerate_cycles(g, 2)) == 3


def test_cycle_count_bounded_by_degree_power(corpus):
    for g in corpus[::9]:
        delta = g.max_degree
        for length in (1, 2, 3):
            assert cycle_stats(g, length).max_count <= delta**length


def test_cycles_are_valid(small_corpus):
    for g in small_corpus[::5]:
        for length in (1, 2, 3, 4):
            for c in enumerate_cycles(g, length):
                assert len(c.half_edges) == length
                assert len(set(c.vertices)) == length
                assert len(c.edge_ids) == length
                # consecutive half-edges chain through the graph
                for i, h in enumerate(c.half_edges):
                    assert g.sources[h] == c.vertices[i]
                    assert g.targets[h] == c.vertices[(i + 1) % length]


# -- tree fractions --------------------------------------------------------------


def test_cycle_balls_are_paths():
    for n, r in ((8, 2), (8, 3), (100, 10)):
        assert tree_fraction(cycle(n), r) == 1.0


def test_triangle_radius_one_fraction_zero():
    assert tree_fraction(cycle(3), 1) == 0.0


def test_random_cubic_mostly_tree_like():
    g, _ = random_regular(500, 3, seed=11)
    assert tree_fraction(g, 2) >= 0.9


def test_tree_fraction_one_iff_tree(corpus):
    for g in corpus[::11]:
        r_max = max(2, g.n)
        if cyclomatic_class(g) is CyclomaticClass.TREE:
            assert all(tree_fraction(g, r) == 1.0 for r in (1, 2, r_max))
        else:
            assert tree_fraction(g, r_max) < 1.0


def test_tree_fraction_girth_consistency(corpus):
    """All radius-r balls are trees exactly when no cycle is short enough to
    fit inside one, i.e. girth at least 2r + 2."""
    for g in corpus[::13]:
        girth = _girth(g)
        for r in (1, 2):
            if tree_fraction(g, r) == 1.0:
                assert girth is None or girth >= 2 * r + 2
            else:
                assert girth is not None and girth <= 2 * r + 1


def _tree_ball_graphs():
    disconnected = next(
        lift for seed in range(50) if not (lift := random_lift(bowtie(), 3, seed)[0]).is_connected
    )
    return [
        random_regular(250, 3, 1)[0],
        random_regular(40, 4, 2)[0],
        random_lift(bowtie(), 40, 3)[0],
        random_lift(complete(4), 50, 4)[0],
        random_lift(theta(1, 2, 3), 40, 5)[0],
        disconnected,
    ]


def test_tree_ball_codes_match_ahu_oracle(corpus):
    """Every tree ball's code, read off the cover quotient, is the parenthesis
    code of the materialized ball; tree_fraction counts the same balls."""
    tree_balls = 0
    for g in list(corpus) + _tree_ball_graphs():
        for r in range(4):
            hits = 0
            for v in range(g.n):
                depth = ball(g, v, r)
                b = induced_subgraph(g, depth)
                if cyclomatic_class(b) is CyclomaticClass.TREE:
                    hits += 1
                    assert ball_code(g, v, r) == "t" + ahu_code(b, sorted(depth).index(v))
            if r:
                assert tree_fraction(g, r) == hits / g.n
            tree_balls += hits
    assert tree_balls > 5_000


def test_tree_fraction_validates_radius():
    with pytest.raises(ValueError):
        tree_fraction(cycle(3), 0)


def test_statistics_validate_arguments():
    g = cycle(3)
    with pytest.raises(ValueError, match="cycle length must be at least 1"):
        enumerate_cycles(g, 0)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        mass_transport_check(g, -1, 3)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        bs_histogram(g, -1)
    with pytest.raises(ValueError, match="histograms must be nonempty"):
        tv_distance({}, {"t()": 1})


@pytest.mark.parametrize(
    "call, bad, good, what",
    [
        (lambda x: ball(cycle(12), 0, x), 1.5, 2, "radius"),
        (lambda x: ball_code(path(5), 0, x), 1.5, 1, "radius"),
        (lambda x: enumerate_cycles(cycle(5), x), 4.5, 5, "cycle length"),
        (lambda x: mass_transport_check(cycle(5), x, 5), 1.5, 1, "radius"),
        (lambda x: unicyclic_defect(cycle(5), x), 2.5, 3, "copies"),
        (lambda x: tree_fraction(cycle(12), x), 1.5, 2, "radius"),
        (lambda x: bs_histogram(cycle(12), x), 1.5, 2, "radius"),
        (lambda x: closed_walk_profile(cycle(5), 0, x), 4.5, 4, "walk length"),
        (lambda x: backtracking_walk_profile(cycle(5), 0, x), 4.5, 4, "walk length"),
        (lambda x: rho_ball_power(cycle(5), 0, x), 2.5, 2, "radius"),
        (lambda x: rho_lower_sequence(cycle(5), 0, x), 1.5, 2, "depth"),
        (lambda x: find_bouquet(bowtie(), 0, x, 3), 3.5, 3, "k"),
        (lambda x: closed_walk_profile(bowtie(), x, 4), 1.5, 1, "vertex"),
        (lambda x: backtracking_walk_profile(bowtie(), x, 4), 1.5, 1, "vertex"),
        (lambda x: rho_ball_power(bowtie(), x, 2), 1.5, 1, "vertex"),
        (lambda x: rho_lower_sequence(bowtie(), x, 2), 1.5, 1, "vertex"),
        (lambda x: ball(bowtie(), x, 2), 1.5, 1, "vertex"),
        (lambda x: ball_code(bowtie(), x, 2), 1.5, 1, "vertex"),
        (lambda x: find_bouquet(bowtie(), x, 4, 3), 1.5, 1, "vertex"),
        (lambda x: bowtie().distances_from(x), 1.5, 1, "vertex"),
    ],
    ids=[
        "ball",
        "ball_code",
        "enumerate_cycles",
        "mass_transport_check",
        "unicyclic_defect",
        "tree_fraction",
        "bs_histogram",
        "closed_walk_profile",
        "backtracking_walk_profile",
        "rho_ball_power",
        "rho_lower_sequence",
        "find_bouquet",
        "closed_walk_profile-vertex",
        "backtracking_walk_profile-vertex",
        "rho_ball_power-vertex",
        "rho_lower_sequence-vertex",
        "ball-vertex",
        "ball_code-vertex",
        "find_bouquet-vertex",
        "distances_from-vertex",
    ],
)
def test_integer_arguments_reject_fractions(call, bad, good, what):
    """A radius, length, depth, copy count or vertex that is not an integer
    is refused under its own name, not misread or refused as the value
    derived from it (rho_lower_sequence's depth once failed as the walk
    length 2 * depth); NumPy integers are accepted."""
    for x in (bad, float(good), Fraction(good)):
        with pytest.raises(ValueError, match=f"^{what} must be an integer"):
            call(x)
    assert call(np.int64(good)) == call(good)


def test_cached_sweep_refuses_a_float_radius():
    """2.0 hashes like 2, so the radius is checked before the sweep's cache
    is read: a float radius is refused even after the integer one is cached."""
    g = cycle(12)
    tree_fraction(g, 2), bs_histogram(g, 2)
    with pytest.raises(ValueError, match="must be an integer"):
        tree_fraction(g, 2.0)
    with pytest.raises(ValueError, match="must be an integer"):
        bs_histogram(g, 2.0)


def test_mass_transport_names_itself_on_a_disconnected_graph():
    two_triangles = MultiGraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    with pytest.raises(ValueError, match="^mass_transport_check requires a connected graph$"):
        mass_transport_check(two_triangles, 1, 3)


# -- bouquets ----------------------------------------------------------------------


def test_bowtie_has_no_bouquet():
    assert find_bouquet(bowtie(), 0, 3, 3) is None


def test_two_triangles_on_a_path():
    # triangles {0,1,2} and {4,5,6} joined by the 2-path 0-3-4; from the
    # midpoint 3 both cycles sit at distance 1, within the k = 4 budget
    g = MultiGraph(
        7,
        ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 4)),
    )
    got = find_bouquet(g, 3, 4, 3)
    assert got is not None
    c1, c2 = got
    assert c1.disjoint_from(c2)
    assert {frozenset(c1.vertices), frozenset(c2.vertices)} == {
        frozenset({0, 1, 2}),
        frozenset({4, 5, 6}),
    }


def test_c8_has_no_triangle_bouquet():
    assert find_bouquet(cycle(8), 0, 5, 3) is None


def test_bouquet_needs_budget():
    with pytest.raises(ValueError):
        find_bouquet(bowtie(), 0, 2, 3)
    for v in (-1, 5):
        with pytest.raises(ValueError, match="out of range"):
            find_bouquet(bowtie(), v, 3, 3)


def test_bouquet_respects_distance_budget(corpus):
    for g in corpus[::17]:
        got = find_bouquet(g, 0, 4, 3)
        if got is None:
            continue
        c1, c2 = got
        dist = g.distances_from(0)
        for c in (c1, c2):
            assert min(dist[u] for u in c.vertex_set) <= 4 - 3


# -- mass transport ---------------------------------------------------------------


def test_balance_is_exact_everywhere(corpus):
    for g in corpus[::21]:
        for r, length in ((1, 3), (2, 2)):
            rep = mass_transport_check(g, r, length)
            assert rep.balanced
            assert rep.lhs == rep.rhs


def test_c12_full_cycle():
    rep = mass_transport_check(cycle(12), 6, 12)
    assert rep.balanced
    assert rep.nr_average == 1
    assert rep.nr_bound == Fraction(1, 2)
    assert rep.nr_holds is True


def test_bowtie_both_triangles_in_reach():
    rep = mass_transport_check(bowtie(), 2, 3)
    assert rep.nr_average == 2
    assert rep.nr_bound == Fraction(2, 3)
    assert rep.nr_holds is True


def test_nr_check_skipped_when_balls_too_small():
    # radius 3 balls of the triangle hold 3 vertices < R is false (3 >= 3),
    # so force it with a bigger radius on a tiny graph
    rep = mass_transport_check(path(3), 4, 1)
    assert rep.nr_holds is None
    assert not rep.hypothesis_holds
    assert rep.balanced


def test_nr_bound_on_corpus(corpus):
    for g in corpus[::19]:
        rep = mass_transport_check(g, 2, 3)
        if rep.hypothesis_holds:
            assert rep.nr_holds is (rep.nr_average >= rep.nr_bound)
            assert rep.nr_holds


def _torus(a, b):
    """The a x b torus grid; for a, b >= 5 every vertex lies on four 4-cycles."""
    edges = []
    for i in range(a):
        for j in range(b):
            v = i * b + j
            edges += [(v, (i + 1) % a * b + j), (v, i * b + (j + 1) % b)]
    return MultiGraph.from_edges(a * b, edges)


def test_mass_transport_matches_distance_table(corpus):
    """Against the full distance table, on graphs where the cycles' balls
    overlap (the torus) and where n = R and n = R + 1 at R = 3 (C3 and P4)."""
    graphs = list(corpus[::29]) + [
        random_regular(200, 3, 9)[0],
        random_lift(bowtie(), 40, 1)[0],
        _torus(6, 6),
        gnp_giant(60, 0),
        connected_lift(complete(4), 10),
        cycle(3),
        path(4),
    ]
    for g in graphs:
        for r, length in ((0, 3), (1, 3), (2, 4), (3, 2)):
            assert mass_transport_check(g, r, length) == mass_transport_by_distances(g, r, length)


def test_mass_transport_runs_no_sweep(monkeypatch):
    """mass_transport_check never reaches the ball sweep: it BFSes once from
    each vertex on an l-cycle and once from each cycle, each stopped at R."""
    g, R = random_lift(bowtie(), 40, 1)[0], 2
    stats = cycle_stats(g, 3)
    assert g.is_connected  # cached, so the connectivity check runs no BFS below
    radii = []
    bfs = multigraph._bfs

    def counted(g, starts, radius=None):
        radii.append(radius)
        return bfs(g, starts, radius)

    def no_sweep(*args):
        raise AssertionError("mass_transport_check ran the ball sweep")

    monkeypatch.setattr(multigraph, "_bfs", counted)
    monkeypatch.setattr(localstats, "_bfs", counted)
    monkeypatch.setattr(localstats, "_balls", no_sweep)
    mass_transport_check(g, R, 3)
    on_cycle = sum(1 for k in stats.counts if k)
    assert 0 < on_cycle < g.n
    assert radii == [R] * (on_cycle + len(stats.cycles))


# -- ball histograms ---------------------------------------------------------------


def test_tv_of_identical_histograms_is_zero():
    h = bs_histogram(bowtie(), 2)
    assert tv_distance(h, h) == 0.0


def test_long_cycles_look_alike_locally():
    assert tv_distance(bs_histogram(cycle(100), 2), bs_histogram(cycle(101), 2)) == 0.0


def test_triangle_vs_c6_disjoint_types():
    assert tv_distance(bs_histogram(cycle(3), 1), bs_histogram(cycle(6), 1)) == 1.0


def test_histogram_counts_sum_to_n(corpus):
    for g in corpus[::23]:
        h = bs_histogram(g, 2)
        assert sum(h.values()) == g.n


def test_codes_separate_known_types():
    # a path's interior and endpoints differ; C4 vertices all agree
    assert len(bs_histogram(path(4), 1)) == 2
    assert len(bs_histogram(cycle(4), 1)) == 1
    # star center vs leaves
    assert len(bs_histogram(star(3), 1)) == 2


def test_codes_respect_rooted_isomorphism(small_corpus):
    """Vertices in the same orbit class of the same graph always share a ball
    code; across graphs, equal codes pin equal ball vertex counts."""
    from coverspectra.multigraph import ball

    for g in small_corpus[::6]:
        dist = orbit_distribution(g)
        for c in dist.classes:
            codes = {ball_code(g, v, 2) for v in c.members}
            assert len(codes) == 1


def test_ball_code_cap():
    # the radius-1 ball of complete(70) is all 70 vertices, with cycles
    assert CANON_CAP < 70
    with pytest.raises(ValueError, match="cap"):
        ball_code(complete(70), 0, 1)
    with pytest.raises(ValueError, match="cap"):
        bs_histogram(complete(70), 1)


def test_tree_balls_over_the_cap_are_coded():
    # the radius-40 balls of path(200) are paths of up to 81 vertices
    g = path(200)
    hist = bs_histogram(g, 40)
    assert sum(hist.values()) == 200
    assert all(code.startswith("t") for code in hist)
    assert max(induced_subgraph(g, ball(g, v, 40)).n for v in range(200)) > CANON_CAP


def test_tree_balls_build_no_subgraph(monkeypatch):
    g = path(200)

    def refuse(*args):
        raise AssertionError("a subgraph was built")

    monkeypatch.setattr(MultiGraph, "from_edges", staticmethod(refuse))
    assert tree_fraction(g, 40) == 1.0
    assert sum(bs_histogram(g, 40).values()) == 200


def test_histogram_of_hub_heavy_random_graph_finishes():
    # cyclic radius-2 balls with 11-22 leaves on a few hubs; leaves on one hub
    # are twins, so the canonizer does not branch over their orderings
    g = gnp_giant(300, 5)
    assert sum(bs_histogram(g, 2).values()) == g.n


def test_loop_and_parallel_codes_differ():
    lp = MultiGraph(1, ((0, 0),))
    de = MultiGraph(2, ((0, 1), (0, 1)))
    assert ball_code(lp, 0, 1) != ball_code(de, 0, 1)


# -- the ball sweep against the per-vertex loop -------------------------------------


def _assert_sweep_matches_loop(g, r):
    assert bs_histogram(g, r) == bs_histogram_by_balls(g, r)
    if r:
        assert tree_fraction(g, r) == tree_fraction_by_balls(g, r)


def test_sweep_matches_loop_on_corpus(corpus):
    for g in corpus:
        for r in range(4):
            _assert_sweep_matches_loop(g, r)


def _multiplicity_graphs():
    """Balls that differ only in an edge's or a loop's multiplicity, side by
    side in one graph, and a connected lift of a base with a loop and a
    double edge."""
    triangles = MultiGraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (3, 4)))
    looped = MultiGraph(6, ((0, 1), (1, 2), (2, 0), (0, 0), (3, 4), (4, 5), (5, 3), (3, 3), (3, 3)))
    base = MultiGraph(3, ((0, 0), (0, 1), (0, 1), (1, 2), (2, 0)))
    return [triangles, looped, connected_lift(base, 30)]


def test_sweep_matches_loop_on_larger_graphs():
    """The memo of bs_histogram gives each ball with a cycle the code that
    the per-ball oracle gives it; keys carry multiplicities."""
    lifts = [connected_lift(base, 40) for base in (bowtie(), complete(4), theta(1, 2, 3))]
    for g in _tree_ball_graphs() + lifts + _multiplicity_graphs():
        for r in (1, 2, 3):
            _assert_sweep_matches_loop(g, r)
    for seed in range(6):
        _assert_sweep_matches_loop(gnp_giant(300, seed), 2)
    _assert_sweep_matches_loop(path(200), 40)


def test_sweep_keeps_the_cap_error(monkeypatch):
    """The first ball over the cap, in vertex order, is named, also when a
    later ball goes over it at a smaller depth, and in batches of one ball."""
    # a triangle at 0, tied by 0 - 3 - 10 to a K70 on 10..79: at r = 2 the
    # ball at 3 is the first over the cap, and only at depth 2
    k70 = [(10 + a, 10 + b) for a in range(70) for b in range(a)]
    tail = MultiGraph.from_edges(80, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 10)] + k70)
    for g, r in ((complete(70), 1), (tail, 2)):
        with pytest.raises(ValueError, match="cap") as want:
            bs_histogram_by_balls(g, r)
        for entries in (localstats._BLOCK_ENTRIES, 1):
            monkeypatch.setattr(localstats, "_BLOCK_ENTRIES", entries)
            with pytest.raises(ValueError, match="cap") as got:
                bs_histogram(g, r)
            assert str(got.value) == str(want.value)
    assert "vertex 3 has" in str(want.value)


def test_canonizer_matches_full_search(corpus):
    """The twin-cell leaves give the code of the full search, from the
    uniform colouring and from the degree colouring."""
    for g in corpus:
        for colors in ([0] * g.n, list(g.degrees)):
            assert canonical_code(g, colors) == canonical_code_by_search(g, colors)


def test_sweep_runs_no_bfs(monkeypatch):
    """Neither tree_fraction nor bs_histogram runs a BFS, even on balls with
    a cycle, which bs_histogram reads in one batch off the CSR; ball_code,
    the single-ball API, runs one."""
    g = random_lift(bowtie(), 150, 0)[0]
    calls = []
    bfs = multigraph._bfs

    def counted(*args):
        calls.append(args[1:])
        return bfs(*args)

    monkeypatch.setattr(multigraph, "_bfs", counted)
    localstats._balls.cache_clear()
    hist = bs_histogram(g, 2)
    trees = round(tree_fraction(g, 2) * g.n)
    assert 0 < trees < g.n and any(code.startswith("g") for code in hist)
    localstats._balls.cache_clear()
    assert tree_fraction(g, 2) == trees / g.n
    assert calls == []
    ball_code(g, 0, 2)
    assert len(calls) == 1


def test_histogram_codes_each_key_once(monkeypatch):
    """canonical_code runs once per distinct key, not once per ball with a
    cycle: most such balls repeat a key. A ball's key does not depend on the
    batch it is read in, so batches of one ball give the same calls."""
    calls = []
    code = localstats.canonical_code

    def counted(*args):
        calls.append(args)
        return code(*args)

    monkeypatch.setattr(localstats, "canonical_code", counted)
    for g in (random_lift(complete(4), 50, 1)[0], random_regular(1000, 3, 5)[0]):
        calls.clear()
        hist = bs_histogram(g, 2)
        cyclic = sum(count for key, count in hist.items() if key.startswith("g"))
        assert sum(key.startswith("g") for key in hist) <= len(calls) < cyclic
        batched = calls[:]
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(localstats, "_BLOCK_ENTRIES", 1)
            assert bs_histogram(g, 2) == hist
        assert calls == batched


def test_sweep_memory_is_bounded_by_its_blocks(monkeypatch):
    """On rr(600, 3) at r = 5 the rows of reach A hold more than four blocks'
    entries; the traced peak of the blocked sweep stays under a third of the
    sweep in one block."""
    g, r = random_regular(600, 3, 1)[0], 5
    entries = sum(len(ball(g, v, r + 1)) for v in range(g.n))
    monkeypatch.setattr(localstats, "_BLOCK_ENTRIES", 1 << 14)
    assert entries >= 4 * localstats._BLOCK_ENTRIES
    tree_fraction(g, r)  # imports and the quotient, outside the trace

    def traced() -> tuple[float, int]:
        localstats._balls.cache_clear()  # each call sweeps, not reads the cache
        tracemalloc.start()
        try:
            return tree_fraction(g, r), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    blocked, blocked_peak = traced()
    monkeypatch.setattr(localstats, "_BLOCK_ENTRIES", g.n**2)
    whole, whole_peak = traced()
    assert blocked == whole
    assert 3 * blocked_peak < whole_peak


# -- lifts converge locally to the cover -------------------------------------------


def test_lift_histograms_approach_cover_types():
    """Random n-lifts of the bowtie lose short cycles as n grows, so their
    radius-2 ball histogram drifts toward the two cover ball types weighted
    by the orbit proportions."""
    from coverspectra.generators import random_lift

    base = bowtie()
    dist = orbit_distribution(base)
    limit_hist: dict[str, int] = {}
    for c in dist.classes:
        tb = tree_ball(base, c.representative, 2)
        code = ball_code(tb.as_multigraph(), 0, 2)
        limit_hist[code] = limit_hist.get(code, 0) + len(c.members)

    # single lifts are noisy at n = 2, so the trend is asserted on the mean
    # over a fixed seed set
    seeds = range(10)
    means = []
    for n in (2, 4, 8, 16):
        total = 0.0
        for seed in seeds:
            lift, _ = random_lift(base, n, seed=seed)
            total += tv_distance(bs_histogram(lift, 2), limit_hist)
        means.append(total / 10)
    assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))
    assert means[-1] < means[0]
    assert means[-1] < 0.2
