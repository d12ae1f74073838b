import dataclasses

import pytest

from oracles import connected_lift, gnp_giant, peel_by_rounds, two_core_by_peel
from coverspectra.cover import quotient
from coverspectra.localstats import enumerate_cycles
from coverspectra.multigraph import CyclomaticClass, MultiGraph, cyclomatic_class
from coverspectra.twocore import two_core
from coverspectra.generators import bowtie, complete, cycle, path, theta


# triangle 0-1-2 plus path 0-3-4
TRIANGLE_WITH_TAIL = MultiGraph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4)))
# two loops joined by a path, with a fork hanging off its middle
LOOPS_ON_A_FORK = MultiGraph(7, ((0, 0), (0, 1), (1, 2), (2, 2), (1, 3), (3, 4), (3, 5), (5, 6)))


def _all_cycles(g):
    for length in range(1, g.m + 1):
        yield from enumerate_cycles(g, length)


def test_bowtie_core_is_whole_graph():
    dec = two_core(bowtie())
    assert dec.core_vertices == frozenset(range(5))
    assert dec.ext_vertices == frozenset()
    assert dec.int_half_edges == frozenset(range(12))
    assert dec.ext_half_edges == ()


def test_triangle_with_pendant_path():
    g = TRIANGLE_WITH_TAIL
    dec = two_core(g)
    assert dec.core_vertices == frozenset({0, 1, 2})
    assert dec.ext_vertices == frozenset({3, 4})
    assert len(dec.ext_half_edges) == 2
    # each exterior half-edge points away from the core
    dist = g.distances_from(dec.core_vertices)
    for h in dec.ext_half_edges:
        assert dist[g.sources[h]] + 1 == dist[g.targets[h]]


def test_c4_with_leaf_per_vertex():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)] + [(i, 4 + i) for i in range(4)]
    g = MultiGraph(8, tuple(edges))
    dec = two_core(g)
    assert dec.core_vertices == frozenset({0, 1, 2, 3})
    assert len(dec.ext_vertices) == 4
    assert len(dec.ext_half_edges) == 4
    for h in dec.ext_half_edges:
        assert g.sources[h] in dec.core_vertices


def test_loop_with_tail():
    g = MultiGraph(3, ((0, 0), (0, 1), (1, 2)))
    dec = two_core(g)
    assert dec.core_vertices == frozenset({0})
    assert dec.core_degrees[0] == 2
    assert len(dec.ext_half_edges) == 2


def test_rejects_trees_and_disconnected():
    with pytest.raises(ValueError, match="tree"):
        two_core(path(4))
    with pytest.raises(ValueError, match="connected"):
        two_core(MultiGraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))))


def _core_subgraph(dec):
    g = dec.graph
    idx = {v: i for i, v in enumerate(sorted(dec.core_vertices))}
    edges = [
        (idx[u], idx[v])
        for u, v in g.edges
        if u in dec.core_vertices and v in dec.core_vertices
    ]
    return MultiGraph.from_edges(len(idx), edges), idx


def test_idempotent_and_min_degree_two(corpus):
    for g in corpus[:400]:
        if g.m < g.n:
            continue
        dec = two_core(g)
        core, _ = _core_subgraph(dec)
        assert min(core.degrees) >= 2
        again = two_core(core)
        assert again.core_vertices == frozenset(range(core.n))
        assert again.ext_half_edges == ()
        # partition and half-edge bookkeeping
        assert dec.core_vertices | dec.ext_vertices == frozenset(range(g.n))
        assert not (dec.core_vertices & dec.ext_vertices)
        assert len(dec.int_half_edges) + 2 * len(dec.ext_half_edges) == g.num_half_edges


def test_every_cycle_lies_in_core(small_corpus):
    for g in small_corpus:
        if g.m < g.n:
            continue
        dec = two_core(g)
        for cyc in _all_cycles(g):
            assert set(cyc.vertices) <= dec.core_vertices


def test_multicyclic_cores_have_branch_vertex_on_every_cycle(corpus):
    """In a graph with at least two independent cycles, no cycle of the core
    can avoid vertices of core-degree > 2."""
    checked = 0
    for g in corpus:
        if cyclomatic_class(g) is not CyclomaticClass.MULTICYCLIC:
            continue
        dec = two_core(g)
        core, idx = _core_subgraph(dec)
        back = {i: v for v, i in idx.items()}
        for cyc in _all_cycles(core):
            assert any(dec.core_degrees[back[u]] > 2 for u in cyc.vertices)
        checked += 1
    assert checked > 1000


def _peel_checked_graphs(corpus):
    graphs = [g for g in corpus if g.m >= g.n]
    graphs += [connected_lift(base, 40) for base in (bowtie(), complete(4), theta(1, 2, 3))]
    graphs += [gnp_giant(300, seed) for seed in range(6)]
    return graphs


def test_matches_the_graph_peel(corpus):
    """The lift of the quotient's peel is the graph's own peel; only the
    order of the pendant half-edges may differ."""
    for g in _peel_checked_graphs(corpus):
        dec, want = two_core(g), two_core_by_peel(g)
        assert dec == dataclasses.replace(want, ext_half_edges=dec.ext_half_edges)
        assert dec.core_degrees == want.core_degrees
        assert sorted(dec.ext_half_edges) == sorted(want.ext_half_edges)


@pytest.mark.parametrize("base", [bowtie(), theta(1, 2, 3), TRIANGLE_WITH_TAIL, LOOPS_ON_A_FORK])
def test_a_lift_has_its_base_core_degrees(base):
    """Each vertex of a connected lift has its base vertex's core degree,
    and lies off the core exactly when its base vertex does."""
    k = 40
    lift, base_dec = connected_lift(base, k), two_core_by_peel(base)
    dec, base_deg = two_core(lift), base_dec.core_degrees
    assert dec.core_degrees == {v: base_deg[v // k] for v in range(lift.n) if v // k in base_deg}
    assert dec.ext_vertices == frozenset(v for v in range(lift.n) if v // k in base_dec.ext_vertices)


def test_core_degrees_match_a_recount(corpus):
    """The peel's degree count on the survivors is the degree within the
    core, loops counting 2."""
    for g in _peel_checked_graphs(corpus):
        dec = two_core(g)
        recount = {v: 0 for v in dec.core_vertices}
        for h in dec.int_half_edges:
            recount[g.sources[h]] += 1
        assert dec.core_degrees == recount


def test_ext_half_edges_grow_outward_from_the_core(corpus):
    """Each pendant half-edge leaves a core vertex or the target of an
    earlier one."""
    for g in _peel_checked_graphs(corpus):
        dec = two_core(g)
        reached = set(dec.core_vertices)
        for h in dec.ext_half_edges:
            assert g.sources[h] in reached
            reached.add(g.targets[h])
        assert reached == set(range(g.n))


def _triangle_with_path(length: int) -> MultiGraph:
    path_edges = tuple((i, i + 1) for i in range(2, 2 + length))
    return MultiGraph(3 + length, ((0, 1), (1, 2), (2, 0)) + path_edges)


def test_peel_matches_the_rounds(corpus):
    """The worklist peel gives the round-by-round fixed point: the same
    outward heights in the same key order, and the same core degrees."""
    graphs = list(corpus) + [connected_lift(base, 40) for base in (bowtie(), complete(4))]
    quotients = [quotient(g) for g in graphs]
    # a pendant path of length L peels in L rounds, one class per half-edge
    quotients += [quotient(_triangle_with_path(length)) for length in (500, 1000)]
    for q in quotients:
        out, core_deg = q.peel
        want_out, want_deg = peel_by_rounds(q)
        assert list(out.items()) == list(want_out.items())
        assert core_deg == want_deg
    assert max(quotients[-1].peel[0].values()) == 1000


def test_decomposition_is_hashable_and_compares_equal():
    g = bowtie()
    assert two_core(g) == two_core(g)
    assert hash(two_core(g)) == hash(two_core(g))
