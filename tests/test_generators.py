import hashlib
import math
import random

import pytest

from coverspectra import generators
from coverspectra.cover import orbit_distribution
from coverspectra.multigraph import CyclomaticClass, MultiGraph, cyclomatic_class
from coverspectra.rho import rho_tree
from coverspectra.spectra import closed_walk_profile, eigen_spectrum
from coverspectra.generators import (
    RANDOM_REGULAR_RETRIES,
    biregular,
    bowtie,
    canonical_key,
    complete,
    cycle,
    make,
    path,
    random_lift,
    random_regular,
    small_connected_multigraphs,
    star,
    theta,
    two_cycles_glued,
)
from oracles import corpus_by_scan


# -- fixed families ---------------------------------------------------------------


def test_bowtie_shape():
    g = bowtie()
    assert (g.n, g.m) == (5, 6)
    assert g.degrees == (4, 2, 2, 2, 2)


def test_cycle_spectrum_closed_form():
    s = eigen_spectrum(cycle(5))
    want = sorted((2 * math.cos(2 * math.pi * j / 5) for j in range(5)), reverse=True)
    assert s.eigenvalues == pytest.approx(want, abs=1e-12)


def test_cycle_edge_cases():
    assert cycle(1).edges == ((0, 0),)
    assert cycle(2).degrees == (2, 2)
    assert path(1).m == 0


def test_theta_shape():
    g = theta(2, 2, 2)
    assert (g.n, g.m) == (5, 6)
    assert sorted(g.degrees) == [2, 2, 2, 3, 3]
    assert theta(1, 1, 1).m == 3  # three parallel edges


def test_biregular_is_complete_bipartite():
    g = biregular(2, 3)
    assert (g.n, g.m) == (5, 6)
    assert sorted(g.degrees) == [2, 2, 2, 3, 3]


def test_two_cycles_glued_shape():
    g = two_cycles_glued(20, 20)
    assert g.n == 39
    assert cyclomatic_class(g) is CyclomaticClass.MULTICYCLIC
    assert g.degrees[0] == 4
    small = two_cycles_glued(3, 3)
    assert canonical_key(small) == canonical_key(bowtie())


def test_make_dispatch():
    g, info = make("bowtie")
    assert g.edges == bowtie().edges and info == {}
    g, info = make("cycle", n=7)
    assert g.n == 7
    g, info = make("random_regular", n=10, d=3, seed=1)
    assert info["simple"] and info["connected"]
    with pytest.raises(ValueError, match="unknown family"):
        make("petersen")


def test_family_validation():
    with pytest.raises(ValueError):
        cycle(0)
    with pytest.raises(ValueError):
        theta(0, 1, 1)
    with pytest.raises(ValueError):
        star(0)
    with pytest.raises(ValueError):
        two_cycles_glued(1, 0)
    with pytest.raises(ValueError, match="path needs n >= 1"):
        path(0)
    with pytest.raises(ValueError, match="complete needs n >= 1"):
        complete(0)
    with pytest.raises(ValueError, match="biregular needs a, b >= 1"):
        biregular(0, 2)
    with pytest.raises(ValueError, match="random_regular needs n, d >= 1"):
        random_regular(0, 3, seed=0)
    with pytest.raises(ValueError, match="random_regular needs n, d >= 1"):
        random_regular(4, 0, seed=0)


# -- random regular ----------------------------------------------------------------


def test_random_regular_basics():
    g, info = random_regular(20, 3, seed=7)
    assert g.degrees == (3,) * 20
    assert info["simple"] and info["connected"]
    assert info["attempts"] >= 1


def test_random_regular_deterministic():
    a, _ = random_regular(30, 3, seed=5)
    b, _ = random_regular(30, 3, seed=5)
    c, _ = random_regular(30, 3, seed=6)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_random_regular_odd_product_rejected():
    with pytest.raises(ValueError, match="even"):
        random_regular(5, 3, seed=0)


def test_random_regular_simple_means_no_parallel_pair():
    # (u, v) and (v, u) are one pair; a draw holding both is not simple
    for n, d in ((40, 4), (250, 3), (20, 3)):
        for seed in range(50):
            g, info = random_regular(n, d, seed)
            if info["simple"]:
                pairs = {(min(e), max(e)) for e in g.edges}
                assert len(pairs) == g.m and all(u != v for u, v in pairs)


def test_random_regular_exhausted_budget_is_flagged():
    # d = n forces loops/multi-edges in every configuration draw
    g, info = random_regular(2, 4, seed=3)
    assert g.degrees == (4, 4)
    assert info["attempts"] == RANDOM_REGULAR_RETRIES
    assert not info["simple"]


# -- lifts ------------------------------------------------------------------------


def test_identity_degree_lift_is_isomorphic():
    for base in (bowtie(), cycle(5), MultiGraph(2, ((0, 1), (0, 1), (0, 0)))):
        lift, perms = random_lift(base, 1, seed=9)
        assert canonical_key(lift) == canonical_key(base)
        assert perms == ((0,),) * base.m


def test_lift_degree_sequence():
    base = bowtie()
    for n in (2, 3, 8):
        lift, _ = random_lift(base, n, seed=2)
        assert lift.n == base.n * n
        assert sorted(lift.degrees) == sorted(base.degrees * n)


def test_lift_preserves_lambda1():
    base = bowtie()
    lam = eigen_spectrum(base).lambda1
    for seed in (0, 1, 2):
        lift, _ = random_lift(base, 6, seed=seed)
        if not lift.is_connected:
            continue
        assert eigen_spectrum(lift).lambda1 == pytest.approx(lam, abs=1e-8)


def test_lift_preserves_orbit_proportions():
    base = bowtie()
    want = sorted(orbit_distribution(base).proportions)
    for n in (2, 5):
        lift, _ = random_lift(base, n, seed=4)
        if not lift.is_connected:
            continue
        assert sorted(orbit_distribution(lift).proportions) == want


def test_lift_preserves_rho_bracket():
    base = bowtie()
    rb = rho_tree(base)
    lift, _ = random_lift(base, 4, seed=1)
    if lift.is_connected:
        rl = rho_tree(lift)
        assert abs(rl.value - rb.value) <= rb.width + rl.width + 1e-12


def test_loop_lift_follows_permutation():
    base = MultiGraph(1, ((0, 0),))
    lift, perms = random_lift(base, 4, seed=0)
    assert lift.n == 4 and lift.m == 4
    assert lift.degrees == (2, 2, 2, 2)
    (perm,) = perms
    assert lift.edges == tuple((j, perm[j]) for j in range(4))


def test_lift_validation():
    with pytest.raises(ValueError):
        random_lift(bowtie(), 0, seed=1)


# -- exhaustive corpus ---------------------------------------------------------------


def test_corpus_counts(corpus, small_corpus):
    assert len(corpus) == 1177
    assert len(small_corpus) == 114
    trees = sum(1 for g in corpus if g.m == g.n - 1)
    unicyclic = sum(1 for g in corpus if g.m == g.n)
    assert trees == 8
    assert unicyclic == 36
    assert trees + unicyclic + 1133 == len(corpus)


def test_corpus_members_are_connected_and_bounded(corpus):
    for g in corpus:
        assert g.n <= 5 and g.m <= 7
        assert g.is_connected


def test_corpus_has_no_isomorphic_duplicates(small_corpus):
    keys = {canonical_key(g) for g in small_corpus}
    assert len(keys) == len(small_corpus)


def test_corpus_is_deterministic(corpus):
    again = small_connected_multigraphs(5, 7)
    assert [g.edges for g in again] == [g.edges for g in corpus]
    # pins the members, their edge tuples and their order, which corpus
    # slices and samples depend on
    listing = repr([(g.n, g.edges) for g in corpus]).encode()
    assert hashlib.sha256(listing).hexdigest() == (
        "507dd318aaca3ff2f3c6e52d859a4f67736ea6602db5ed62446ba07539422042"
    )


@pytest.mark.parametrize(
    "bounds", [(0, 3), (3, -1), (1, 0), (1, 3), (2, 0), (3, 4), (4, 5), (5, 3), (6, 4)]
)
def test_corpus_equals_the_edge_multiset_scan(bounds):
    # same classes, same representatives, same order; (5, 7) is pinned above
    assert small_connected_multigraphs(*bounds) == corpus_by_scan(*bounds)


def test_corpus_canonical_key_calls(monkeypatch):
    # one call per augmentation candidate; the edge-multiset scan makes 53,886
    calls = []

    def counting(g):
        calls.append(g)
        return canonical_key(g)

    monkeypatch.setattr(generators, "canonical_key", counting)
    assert len(small_connected_multigraphs(5, 7)) == 1177
    assert len(calls) == 4001


def test_corpus_contains_the_named_small_graphs(corpus, small_corpus):
    small_keys = {canonical_key(g) for g in small_corpus}
    for named in (cycle(3), cycle(4), path(4), star(3), MultiGraph(1, ((0, 0),))):
        assert canonical_key(named) in small_keys
    full_keys = {canonical_key(g) for g in corpus}
    for named in (complete(4), bowtie(), theta(2, 2, 2), biregular(2, 3)):
        assert canonical_key(named) in full_keys


def _relabel(g: MultiGraph, seed: int) -> MultiGraph:
    p = list(range(g.n))
    random.Random(seed).shuffle(p)
    edges = [(p[u], p[v]) for u, v in g.edges]
    random.Random(seed + 1).shuffle(edges)
    return MultiGraph.from_edges(g.n, edges)


@pytest.mark.parametrize(
    "g", [complete(10), biregular(5, 5), MultiGraph(10, ())], ids=["K10", "K5,5", "empty10"]
)
def test_canonical_key_of_twin_heavy_graphs(g):
    # every cell is one twin class, so each level of the search branches once
    key = canonical_key(g)
    for seed in range(3):
        assert canonical_key(_relabel(g, seed)) == key


def _walk_invariant(g: MultiGraph) -> list[tuple[int, ...]]:
    # exact isomorphism invariant: the multiset of closed-walk profiles
    return sorted(tuple(closed_walk_profile(g, v, 8)) for v in range(g.n))


def test_canonical_key_past_eight_vertices():
    c9 = cycle(9)
    assert canonical_key(_relabel(c9, 3)) == canonical_key(c9)
    for k in (3, 4, 6):
        lifts = []
        for seed in range(12):
            lift, _ = random_lift(bowtie(), k, seed)
            if lift.is_connected:
                lifts.append(lift)
        keys = [canonical_key(g) for g in lifts]
        for seed, (g, key) in enumerate(zip(lifts, keys)):
            assert canonical_key(_relabel(g, seed)) == key
        pairs_apart = 0
        for i in range(len(lifts)):
            for j in range(i):
                if _walk_invariant(lifts[i]) != _walk_invariant(lifts[j]):
                    assert keys[i] != keys[j]
                    pairs_apart += 1
        assert pairs_apart > 0
