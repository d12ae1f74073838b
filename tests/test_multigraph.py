from functools import cached_property

import numpy as np
import pytest

from oracles import adjacency_by_edges, ball_by_full_bfs, connected_lift, ends, gnp_giant

from coverspectra.multigraph import (
    CyclomaticClass,
    GraphParseError,
    MultiGraph,
    ball,
    cyclomatic_class,
    dump_graph,
    induced_subgraph,
    load_graph,
)
from coverspectra.generators import bowtie, complete, cycle, path, random_regular, theta
from coverspectra.localstats import bs_histogram, find_bouquet, tree_fraction
from coverspectra.rho import rho_tree
from coverspectra.spectra import eigen_spectrum, wr_fraction


# -- parsing -------------------------------------------------------------------


def test_parse_triangle():
    g = load_graph("3 3\n0 1\n1 2\n2 0\n")
    assert g.n == 3
    assert g.degrees == (2, 2, 2)


def test_parse_loop_degree_two():
    g = load_graph("1 1\n0 0\n")
    assert g.degrees[0] == 2
    assert g.adjacency.toarray()[0, 0] == 2


def test_parse_parallel_edges():
    g = load_graph("2 2\n0 1\n0 1\n")
    a = g.adjacency.toarray()
    assert a[0, 1] == 2 and a[1, 0] == 2
    assert g.degrees == (2, 2)


def test_parse_comments_and_blanks():
    g = load_graph("# a triangle\n3 3\n\n0 1\n# middle\n1 2\n2 0\n")
    assert g.n == 3 and g.m == 3


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 3\n0 1\n1 2\n",          # too few edge lines
        "3 2\n0 1\n1 2\n2 0\n",     # too many
        "3 1\n0 5\n",               # endpoint out of range
        "3 1\nx y\n",
        "-1 0\n",
        "2 -1\n",
        "x 3\n",                    # non-integer header
        "3 1\n0 1 2\n",             # edge line with three fields
    ],
)
def test_parse_errors_name_a_line(text):
    with pytest.raises(GraphParseError, match=r"line \d+"):
        load_graph(text)


def test_round_trip_bit_exact():
    g = load_graph("4 5\n1 0\n0 0\n2 3\n0 1\n1 2\n")
    text = dump_graph(g)
    assert load_graph(text).edges == load_graph(dump_graph(load_graph(text))).edges
    assert dump_graph(load_graph(text)) == text


# -- half-edge structure ---------------------------------------------------------


def test_inv_is_fixed_point_free_involution(corpus):
    for g in corpus[:200]:
        for h in range(g.num_half_edges):
            u, w = ends(g, h)
            assert (g.sources[h], g.targets[h]) == (u, w)
            assert g.sources[h ^ 1] == g.targets[h] == w
            assert g.targets[h ^ 1] == g.sources[h] == u


def test_degree_sum_is_twice_edges(corpus):
    for g in corpus:
        assert sum(g.degrees) == g.num_half_edges == 2 * g.m


def test_adjacency_row_sums_are_degrees(corpus):
    for g in corpus[:300]:
        a = g.adjacency.toarray()
        assert tuple(a.sum(axis=1)) == g.degrees
        assert (a == a.T).all()


def test_adjacency_is_the_edge_count_matrix(corpus):
    """The one CSR, in canonical form, is the per-edge count matrix: loops
    and parallel edges included."""
    lifts = [connected_lift(base, 40) for base in (bowtie(), complete(4), theta(1, 2, 3))]
    for g in list(corpus) + lifts + [gnp_giant(300, 0)]:
        a = g.adjacency
        assert a.has_canonical_format and a.dtype == np.int64
        dense = g.adjacency.toarray()
        assert dense.dtype == np.int64
        assert np.array_equal(dense, adjacency_by_edges(g))


def test_adjacency_is_built_once(monkeypatch):
    """tree_fraction, bs_histogram, Spectrum.eigenvalues and wr_fraction
    share one graph's CSR."""
    rho = rho_tree(bowtie()).value
    builds = []
    build = MultiGraph.adjacency.func

    def counting(g):
        builds.append(g)
        return build(g)

    spy = cached_property(counting)
    spy.__set_name__(MultiGraph, "adjacency")
    monkeypatch.setattr(MultiGraph, "adjacency", spy)
    for read in (
        lambda g: tree_fraction(g, 2),
        lambda g: bs_histogram(g, 2),
        lambda g: eigen_spectrum(g).eigenvalues,
        lambda g: wr_fraction(eigen_spectrum(g), rho),
    ):
        g = MultiGraph(bowtie().n, bowtie().edges)
        read(g)
        assert builds == [g]
        builds.clear()
    g = MultiGraph(bowtie().n, bowtie().edges)
    tree_fraction(g, 2)
    bs_histogram(g, 1)
    eigen_spectrum(g).eigenvalues
    wr_fraction(eigen_spectrum(g), rho)
    assert builds == [g]


def test_vertex_validation():
    with pytest.raises(ValueError):
        MultiGraph(0, ())
    with pytest.raises(ValueError):
        MultiGraph(2, ((0, 2),))


# -- cyclomatic classes ----------------------------------------------------------


def test_cyclomatic_examples():
    assert cyclomatic_class(path(3)) is CyclomaticClass.TREE
    for n in (3, 4, 7):
        assert cyclomatic_class(cycle(n)) is CyclomaticClass.UNICYCLIC
    assert cyclomatic_class(bowtie()) is CyclomaticClass.MULTICYCLIC
    assert cyclomatic_class(MultiGraph(1, ((0, 0),))) is CyclomaticClass.UNICYCLIC


def test_cyclomatic_matches_edge_count(corpus):
    for g in corpus:
        cls = cyclomatic_class(g)
        if g.m == g.n - 1:
            assert cls is CyclomaticClass.TREE and g.is_connected
        elif g.m == g.n:
            assert cls is CyclomaticClass.UNICYCLIC
        else:
            assert cls is CyclomaticClass.MULTICYCLIC


def test_cyclomatic_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        cyclomatic_class(MultiGraph(4, ((0, 1), (2, 3))))


# -- balls -----------------------------------------------------------------------


def test_ball_c6_radius_2_is_path_on_5():
    depth = ball(cycle(6), 0, 2)
    assert depth == {0: 0, 1: 1, 5: 1, 2: 2, 4: 2}
    b = induced_subgraph(cycle(6), depth)
    assert b.n == 5 and b.m == 4
    assert cyclomatic_class(b) is CyclomaticClass.TREE
    assert sorted(b.degrees) == [1, 1, 2, 2, 2]


def test_ball_triangle_radius_1_is_whole_graph():
    b = induced_subgraph(cycle(3), ball(cycle(3), 1, 1))
    assert b.n == 3 and b.m == 3


def test_ball_bowtie_center_radius_1_is_whole_graph():
    depth = ball(bowtie(), 0, 1)
    b = induced_subgraph(bowtie(), depth)
    assert b.n == 5 and b.m == 6
    assert b.degrees[sorted(depth).index(0)] == 4


def test_ball_radius_0_keeps_loops():
    g = MultiGraph(2, ((0, 0), (0, 1)))
    depth = ball(g, 0, 0)
    assert depth == {0: 0}
    b = induced_subgraph(g, depth)
    assert b.n == 1
    assert b.edges == ((0, 0),)


def test_ball_keeps_parallel_edges():
    g = MultiGraph(3, ((0, 1), (0, 1), (1, 2)))
    assert induced_subgraph(g, ball(g, 0, 1)).m == 2


def test_ball_validates_input():
    g = cycle(3)
    with pytest.raises(ValueError):
        ball(g, 9, 1)
    with pytest.raises(ValueError):
        ball(g, 0, -1)


def test_induced_subgraph_keeps_edge_order_and_rejects_strangers():
    g = MultiGraph(4, ((2, 3), (1, 1), (3, 1), (0, 2), (1, 3)))
    assert induced_subgraph(g, [3, 1, 1]).edges == ((0, 0), (1, 0), (0, 1))
    for bad in ([0, 4], [-1, 2]):
        with pytest.raises(ValueError, match="out of range"):
            induced_subgraph(g, bad)


def test_ball_is_distance_induced(corpus):
    for g in corpus[:100]:
        dist = g.distances_from(0)
        for r in (1, 2):
            depth = ball(g, 0, r)
            assert depth == {u: dist[u] for u in range(g.n) if dist[u] <= r}
            chosen = sorted(depth)
            # multiset equality, so parallel edges are tested too
            got = sorted(
                tuple(sorted((chosen[a], chosen[b])))
                for a, b in induced_subgraph(g, depth).edges
            )
            expect = sorted(
                tuple(sorted(e)) for e in g.edges if dist[e[0]] <= r and dist[e[1]] <= r
            )
            assert got == expect


def test_ball_matches_full_bfs_construction(corpus):
    """The depth-limited BFS gives the same depth map, in the same visiting
    order, as a BFS over the whole graph, and induced_subgraph the same
    subgraph, edge order included, as a scan of every edge."""
    rr, _ = random_regular(250, 3, 7)
    for g in (*corpus, rr):
        for v in range(g.n):
            for r in (1, 2, 3):
                depth = ball(g, v, r)
                ref_depth, ref_graph = ball_by_full_bfs(g, v, r)
                assert list(depth.items()) == list(ref_depth.items())
                assert induced_subgraph(g, depth) == ref_graph


# -- components ------------------------------------------------------------------


def test_connected_components():
    g = MultiGraph(5, ((0, 1), (2, 3), (3, 4)))
    comps = g.connected_components()
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3, 4]]
    assert not g.is_connected
    assert cycle(4).is_connected


def test_a_numpy_integer_is_one_start():
    path_of_triangles = MultiGraph(
        7, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 4))
    )
    for g, v in ((bowtie(), 0), (path_of_triangles, 3)):
        assert g.distances_from(np.int64(v)) == g.distances_from(v)
        assert find_bouquet(g, np.int64(v), 4, 3) == find_bouquet(g, v, 4, 3)
    assert find_bouquet(path_of_triangles, np.int64(3), 4, 3) is not None


def test_distances_from_rejects_vertices_out_of_range():
    g = cycle(5)
    assert g.distances_from(4) == [1, 2, 2, 1, 0]
    for bad in (-1, 7, (0, 5)):
        with pytest.raises(ValueError, match="out of range"):
            g.distances_from(bad)
