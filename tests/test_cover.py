from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from coverspectra import spectra
from coverspectra.cover import (
    _DENSE_SOLVE_CAP,
    Quotient,
    backtracking_walk_profile,
    orbit_distribution,
    quotient,
)
from coverspectra.localstats import bs_histogram
from coverspectra.multigraph import CyclomaticClass, MultiGraph, cyclomatic_class, refine
from coverspectra.rho import _Operators, rho_tree
from coverspectra.spectra import closed_walk_profile, eigen_spectrum
from coverspectra.generators import (
    biregular,
    bowtie,
    complete,
    cycle,
    path,
    random_lift,
    random_regular,
    star,
    theta,
)

from oracles import (
    BallCapExceeded,
    ahu_code,
    connected_lift,
    gnp_giant,
    stack_walk_profile,
    tree_ball,
    tree_ball_walk_count,
)


# -- tree balls --------------------------------------------------------------------


def test_triangle_ball_is_path_segment():
    tb = tree_ball(cycle(3), 0, 2)
    assert tb.node_count == 5  # 1 + 2 + 2: the cover is the two-way infinite path
    assert tb.depth.count(1) == 2 and tb.depth.count(2) == 2
    assert cyclomatic_class(tb.as_multigraph()) is CyclomaticClass.TREE


def test_three_regular_ball_counts():
    tb = tree_ball(complete(4), 0, 2)
    assert tb.node_count == 10  # 1 + 3 + 6
    tb3 = tree_ball(complete(4), 0, 3)
    assert tb3.node_count == 22  # ... + 12


def test_loop_ball_has_two_directions():
    g = MultiGraph(1, ((0, 0),))
    tb = tree_ball(g, 0, 1)
    assert tb.node_count == 3
    assert tree_ball(g, 0, 5).node_count == 11  # the cover is the line


def test_ball_projection_is_locally_consistent(zoo_graph):
    g = zoo_graph
    tb = tree_ball(g, 0, 3)
    for x in range(tb.node_count):
        if tb.depth[x] == tb.radius:
            continue
        # children realize every half-edge at pi(x) except the inverse inbound
        hs = sorted(tb.in_half_edge[c] for c in tb.children[x])
        banned = tb.in_half_edge[x] ^ 1 if x else -1
        assert hs == sorted(h for h in g.half_edges_at[tb.pi[x]] if h != banned)
        for c in tb.children[x]:
            assert tb.pi[c] == g.targets[tb.in_half_edge[c]]
            assert tb.parent[c] == x


def test_ball_of_tree_is_the_tree():
    g = path(5)
    tb = tree_ball(g, 2, 4)
    assert tb.node_count == 5
    assert sorted(tb.pi) == [0, 1, 2, 3, 4]


def test_ball_cap_raises():
    with pytest.raises(BallCapExceeded, match="radius"):
        tree_ball(complete(4), 0, 4, cap=20)


def test_ball_validates_arguments():
    g = cycle(3)
    with pytest.raises(ValueError):
        tree_ball(g, 7, 1)
    with pytest.raises(ValueError):
        tree_ball(g, 0, -1)


# -- backtracking walk counts --------------------------------------------------------


def test_regular_small_counts():
    for g, d in ((cycle(5), 2), (complete(4), 3), (complete(6), 5)):
        counts = backtracking_walk_profile(g, 0, 4)
        assert counts[2] == d
        assert counts[4] == d * (2 * d - 1)


def test_odd_lengths_are_zero():
    g = cycle(4)
    assert backtracking_walk_profile(g, 0, 5)[1::2] == [0, 0, 0]


@pytest.mark.parametrize("v, k_max, message", [(3, 4, "out of range"), (0, -1, "nonnegative")])
def test_walk_profile_rejects_bad_input(v, k_max, message):
    with pytest.raises(ValueError, match=message):
        backtracking_walk_profile(cycle(3), v, k_max)


def test_tree_input_equals_plain_walk_counts():
    for g in (path(4), star(4), path(6)):
        for v in range(g.n):
            assert backtracking_walk_profile(g, v, 8) == closed_walk_profile(g, v, 8)


def test_against_stack_reduction_oracle(small_corpus):
    """Two independent routes to N_k: the branch convolution tables inside the
    library versus a direct enumeration over half-edge words that cancel."""
    for g in small_corpus[::3]:
        got = backtracking_walk_profile(g, 0, 8)
        want = stack_walk_profile(g, 0, 8)
        assert got == want


def test_oracle_on_loops_and_parallels(zoo_graph):
    for v in range(zoo_graph.n):
        assert backtracking_walk_profile(zoo_graph, v, 8) == stack_walk_profile(
            zoo_graph, v, 8
        )


def test_against_tree_ball_route(small_corpus):
    for g in small_corpus[::7]:
        for k in (2, 4, 6, 8):
            assert backtracking_walk_profile(g, 0, k)[k] == tree_ball_walk_count(g, 0, k)


def test_counts_dominated_by_closed_walks(small_corpus):
    for g in small_corpus[::5]:
        n = backtracking_walk_profile(g, 0, 10)
        w = closed_walk_profile(g, 0, 10)
        assert all(a <= b for a, b in zip(n, w))


def test_growth_rate_nondecreasing(corpus, cache):
    for g in corpus[::17]:
        prof = backtracking_walk_profile(g, 0, 16)
        rates = [prof[2 * k] ** (1 / (2 * k)) for k in range(1, 9)]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
        assert rates[-1] <= cache.rho(g).value + 1e-9


def test_class_walk_counts_where_classes_are_almost_half_edges():
    g = gnp_giant(300, 5)
    assert quotient(g).size == 872
    for v in range(g.n):
        assert backtracking_walk_profile(g, v, 8) == stack_walk_profile(g, v, 8)


def test_lift_vertices_have_their_base_profile():
    for base in (bowtie(), complete(4), theta(1, 2, 3)):
        want = [backtracking_walk_profile(base, v, 12) for v in range(base.n)]
        for k, seed in ((40, 1), (150, 2)):
            lift, _ = random_lift(base, k, seed)
            # lift vertex v * k + j covers base vertex v
            got = [backtracking_walk_profile(lift, v * k + j, 12) for v in range(base.n) for j in range(k)]
            assert got == [p for p in want for _ in range(k)]


def test_rebuilt_equal_graph_hits_the_quotient_cache():
    g = random_lift(bowtie(), 40, 1)[0]
    rebuilt = MultiGraph(g.n, tuple(g.edges))
    assert rebuilt is not g and rebuilt == g and hash(rebuilt) == hash(g)
    assert hash(g) == hash((g.n, g.edges))
    quotient.cache_clear()
    first = quotient(g)
    assert quotient(rebuilt) is first
    assert quotient.cache_info().hits == 1


def test_only_eigen_spectrum_builds_the_colour_matrix(monkeypatch):
    """B has k^2 cells, k close to n on an irregular graph; the quotient's
    other readers must not pay for it, and eigen_spectrum asks for it sparse
    above _DENSE_SOLVE_CAP classes (872 here)."""
    asked = []
    build = Quotient.colour_matrix

    def spy(q, dense):
        asked.append(dense)
        return build(q, dense)

    monkeypatch.setattr(Quotient, "colour_matrix", spy)
    g = gnp_giant(300, 5)
    quotient.cache_clear()
    rho_tree(g)
    orbit_distribution(g)
    backtracking_walk_profile(g, 0, 6)
    bs_histogram(g, 2)
    assert asked == []
    eigen_spectrum(g)
    assert asked == [False]


def test_dense_and_sparse_colour_matrices_agree(small_corpus):
    graphs = list(small_corpus) + [gnp_giant(300, 5), connected_lift(bowtie(), 40)]
    for g in graphs:
        q = quotient(g)
        dense, sparse = q.colour_matrix(dense=True), q.colour_matrix(dense=False)
        assert isinstance(dense, np.ndarray) and dense.dtype == np.float64
        assert sparse.dtype == np.float64
        assert np.array_equal(sparse.toarray(), dense)


def test_small_eigen_spectrum_builds_no_sparse_matrix(monkeypatch, small_corpus):
    """Up to _DENSE_SOLVE_CAP classes the quotient's colour matrix is built
    dense: no scipy.sparse matrix (every one the library makes is an
    spmatrix)."""
    from scipy.sparse import spmatrix

    def refuse(self, *args, **kwargs):
        raise AssertionError("a scipy.sparse matrix was built")

    graphs = list(small_corpus[::5]) + [connected_lift(bowtie(), 800)]
    quotient.cache_clear()
    monkeypatch.setattr(spmatrix, "__init__", refuse, raising=False)
    for g in graphs:
        assert quotient(g).size <= _DENSE_SOLVE_CAP
        eigen_spectrum(g)


def test_large_eigen_spectrum_takes_a_sparse_perron_pair(monkeypatch):
    """Above _DENSE_SOLVE_CAP classes the Perron pair comes from eigsh on the
    sparse colour matrix, with no dense eigh, whatever n is; it agrees with a
    dense eigvalsh of A."""
    import scipy.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("a dense eigh ran")

    g = gnp_giant(300, 5)
    want = np.linalg.eigvalsh(g.adjacency.toarray().astype(float))[-1]
    quotient.cache_clear()
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    assert g.n <= spectra.DENSE_EIGEN_CAP and quotient(g).size > _DENSE_SOLVE_CAP
    assert eigen_spectrum(g).lambda1 == pytest.approx(want, rel=1e-13)


def test_ball_codes_are_the_materialized_cover_balls(small_corpus):
    """The quotient's code at v is the parenthesis code of the cover's r-ball,
    whether or not v's induced ball in g is a tree."""
    graphs = list(small_corpus[::7]) + [bowtie(), theta(1, 2, 3), gnp_giant(60, 1)]
    for g in graphs:
        q = quotient(g)
        for r in range(4):
            for v in range(g.n):
                assert q.ball_code(v, r) == ahu_code(tree_ball(g, v, r).as_multigraph(), 0)


def test_single_vertex_has_no_classes():
    assert quotient(path(1)).size == 0
    assert backtracking_walk_profile(path(1), 0, 4) == [1, 0, 0, 0, 0]


# -- the cover's quotient ----------------------------------------------------------------


def _dense(m):
    return m if isinstance(m, np.ndarray) else m.toarray()


def _rows(counts, size):
    out = np.zeros((len(counts), size))
    for i, row in enumerate(counts):
        for j, m in row:
            out[i, j] = m
    return out


def _assert_equitable(g):
    q = quotient(g)
    assert list(q.colors) == refine(g, [0] * g.n)[0]
    for h in range(g.num_half_edges):
        counts = Counter(
            int(q.cls[h2]) for h2 in g.half_edges_at[g.targets[h]] if h2 != h ^ 1
        )
        assert dict(q.C[q.cls[h]]) == counts
    b = q.colour_matrix(dense=True)
    for v in range(g.n):
        counts = Counter(int(q.cls[h]) for h in g.half_edges_at[v])
        assert dict(q.D[q.colors[v]]) == counts
        neighbours = Counter(q.colors[g.targets[h]] for h in g.half_edges_at[v])
        assert {c: int(m) for c, m in enumerate(b[q.colors[v]]) if m} == neighbours
    k = len(q.members)
    assert b.shape == (k, k)
    assert q.members == tuple(
        tuple(v for v in range(g.n) if q.colors[v] == c) for c in range(k)
    )
    # rho's float64 matrices carry the same counts
    ops = _Operators(q)
    assert np.array_equal(_dense(ops.C), _rows(q.C, q.size))
    assert np.array_equal(_dense(ops.D), _rows(q.D, q.size))


def test_quotient_is_equitable_on_corpus(corpus):
    for g in corpus:
        _assert_equitable(g)


def test_quotient_is_equitable_on_lifts_and_regular():
    graphs = [random_regular(250, 3, 7)[0]]
    for base, k, seed in ((bowtie(), 40, 1), (bowtie(), 150, 2), (complete(4), 50, 3),
                          (theta(1, 2, 3), 40, 4)):
        lift, _ = random_lift(base, k, seed)
        graphs.append(lift)
    graphs.append(gnp_giant(300, 5))  # sparse matrices in rho
    for g in graphs:
        _assert_equitable(g)
    # the cover, not the vertex count, sets the size
    assert quotient(graphs[0]).size == 1
    assert quotient(graphs[2]).size == 3


# -- orbit distribution ----------------------------------------------------------------


def test_regular_graphs_single_class():
    for g in (cycle(6), complete(4)):
        dist = orbit_distribution(g)
        assert dist.proportions == (Fraction(1),)
        assert dist.classes[0].members == tuple(range(g.n))


def test_k23_two_classes():
    dist = orbit_distribution(biregular(2, 3))
    assert sorted(dist.proportions) == [Fraction(2, 5), Fraction(3, 5)]


def test_bowtie_center_vs_outer():
    dist = orbit_distribution(bowtie())
    by_size = sorted(dist.classes, key=lambda c: len(c.members))
    assert by_size[0].members == (0,) and by_size[0].p == Fraction(1, 5)
    assert len(by_size[1].members) == 4 and by_size[1].p == Fraction(4, 5)


def test_proportions_sum_to_one(corpus):
    for g in corpus[::11]:
        dist = orbit_distribution(g)
        assert sum(dist.proportions) == 1
        seen = sorted(v for c in dist.classes for v in c.members)
        assert seen == list(range(g.n))


def test_partition_is_equitable(corpus):
    for g in corpus[::9]:
        dist = orbit_distribution(g)
        color = dist.colors
        sig = [
            tuple(sorted(color[g.targets[h]] for h in g.half_edges_at[v]))
            for v in range(g.n)
        ]
        for c in dist.classes:
            assert len({sig[v] for v in c.members}) == 1


def test_same_class_same_walk_counts(corpus):
    for g in corpus[::23]:
        dist = orbit_distribution(g)
        for c in dist.classes:
            profiles = {tuple(backtracking_walk_profile(g, v, 10)) for v in c.members}
            assert len(profiles) == 1


def test_mean_walk_bound_exact(small_corpus):
    """Averaged closed walks dominate the orbit-weighted pure-backtracking
    counts, as exact rationals."""
    for g in small_corpus[::4]:
        dist = orbit_distribution(g)
        for k in (2, 4, 6, 8):
            lhs = Fraction(sum(closed_walk_profile(g, v, k)[k] for v in range(g.n)), g.n)
            rhs = sum(
                c.p * backtracking_walk_profile(g, c.representative, k)[k]
                for c in dist.classes
            )
            assert lhs >= rhs
