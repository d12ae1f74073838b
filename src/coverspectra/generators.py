"""Graph family constructors, random lifts, and the exhaustive corpus of
small connected multigraphs, built by one-edge augmentation.

Every randomized constructor takes an explicit seed and draws from
random.Random(seed) (Mersenne Twister), so identical parameters give
identical graphs on any platform. Constructors return (graph, info) where
info carries construction flags; deterministic families report nothing.
"""

from __future__ import annotations

import itertools
import random

from .multigraph import MultiGraph, canonical_code

RANDOM_REGULAR_RETRIES = 200


def cycle(n: int) -> MultiGraph:
    """C_n; n = 1 is a single loop, n = 2 a parallel pair."""
    if n < 1:
        raise ValueError("cycle needs n >= 1")
    return MultiGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> MultiGraph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return MultiGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete(n: int) -> MultiGraph:
    if n < 1:
        raise ValueError("complete needs n >= 1")
    return MultiGraph(n, tuple(itertools.combinations(range(n), 2)))


def star(k: int) -> MultiGraph:
    """K_{1,k}: hub 0 with k leaves."""
    if k < 1:
        raise ValueError("star needs k >= 1")
    return MultiGraph(k + 1, tuple((0, i) for i in range(1, k + 1)))


def bowtie() -> MultiGraph:
    """Two triangles glued at vertex 0: degrees (4, 2, 2, 2, 2)."""
    return MultiGraph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)))


def theta(a: int, b: int, c: int) -> MultiGraph:
    """Two terminals joined by three internally disjoint paths of the given
    edge lengths; length-1 paths are allowed and give parallel edges."""
    if min(a, b, c) < 1:
        raise ValueError("theta path lengths must be >= 1")
    edges: list[tuple[int, int]] = []
    nxt = 2
    for length in (a, b, c):
        prev = 0
        for step in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return MultiGraph(nxt, tuple(edges))


def biregular(a: int, b: int) -> MultiGraph:
    """The complete bipartite graph K_{a,b}: the smallest quotient whose
    cover is the (a, b)-biregular tree."""
    if a < 1 or b < 1:
        raise ValueError("biregular needs a, b >= 1")
    return MultiGraph(
        a + b, tuple((i, a + j) for i in range(a) for j in range(b))
    )


def two_cycles_glued(p: int, q: int) -> MultiGraph:
    """C_p and C_q sharing one vertex; p + q - 1 vertices."""
    if p < 1 or q < 1:
        raise ValueError("two_cycles_glued needs p, q >= 1")
    edges: list[tuple[int, int]] = []
    for length, start in ((p, 1), (q, p)):
        prev = 0
        for v in range(start, start + length - 1):
            edges.append((prev, v))
            prev = v
        edges.append((prev, 0))
    return MultiGraph(p + q - 1, tuple(edges))


def _is_simple(pairs) -> bool:
    """No loop and no unordered pair twice."""
    keys = {(u, v) if u < v else (v, u) for u, v in pairs}
    return len(keys) == len(pairs) and all(u != v for u, v in pairs)


def random_regular(n: int, d: int, seed: int) -> tuple[MultiGraph, dict]:
    """Configuration-model d-regular graph on n vertices, re-drawn until it
    is simple and connected. If none of RANDOM_REGULAR_RETRIES draws
    succeeds, the last draw is returned with its flags so the caller can
    decide."""
    if n < 1 or d < 1:
        raise ValueError("random_regular needs n, d >= 1")
    if n * d % 2:
        raise ValueError("random_regular needs n*d even")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for attempt in range(1, RANDOM_REGULAR_RETRIES + 1):
        rng.shuffle(stubs)
        pairs = tuple((stubs[2 * i], stubs[2 * i + 1]) for i in range(n * d // 2))
        if _is_simple(pairs):
            g = MultiGraph(n, pairs)
            if g.is_connected:
                return g, {"attempts": attempt, "simple": True, "connected": True}
    g = MultiGraph(n, pairs)
    flags = {"simple": _is_simple(pairs), "connected": g.is_connected}
    return g, {"attempts": RANDOM_REGULAR_RETRIES, **flags}


_FAMILIES = {
    "cycle": cycle,
    "path": path,
    "complete": complete,
    "star": star,
    "bowtie": bowtie,
    "theta": theta,
    "biregular": biregular,
    "two_cycles_glued": two_cycles_glued,
    "random_regular": random_regular,
}


def make(family: str, **params) -> tuple[MultiGraph, dict]:
    """Build a named family; returns (graph, info) with info empty for
    deterministic families."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        names = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown family {family!r}; choose from: {names}") from None
    out = builder(**params)
    if isinstance(out, MultiGraph):
        return out, {}
    return out


def random_lift(
    base: MultiGraph, n: int, seed: int
) -> tuple[MultiGraph, tuple[tuple[int, ...], ...]]:
    """Uniform permutation n-lift and its permutations, one per base edge in
    edge order. Base vertex v becomes copies v*n + j, and base edge (u, v)
    with permutation s becomes edges {u*n + j, v*n + s[j]}. A loop lifts
    through its permutation's functional graph, so fixed points stay loops.
    The lift need not be connected; callers can check."""
    if n < 1:
        raise ValueError("lift degree must be >= 1")
    rng = random.Random(seed)
    perms: list[tuple[int, ...]] = []
    edges: list[tuple[int, int]] = []
    for u, v in base.edges:
        p = list(range(n))
        rng.shuffle(p)
        perms.append(tuple(p))
        edges.extend((u * n + j, v * n + p[j]) for j in range(n))
    return MultiGraph(base.n * n, tuple(edges)), tuple(perms)


def canonical_key(g: MultiGraph) -> tuple[int, int, str]:
    """Isomorphism-invariant key (n, m, canonical code from the uniform
    colouring); equal keys iff the graphs are isomorphic. No size limit: the
    individualization-refinement search is cheap unless g is highly
    symmetric (see multigraph.canonical_code)."""
    return g.n, g.m, canonical_code(g, [0] * g.n)


def _classes(candidates) -> list[MultiGraph]:
    """One graph per isomorphism class among the candidates, sorted by edge
    list. Each is relabelled to its lexicographically smallest sorted edge
    list, pairs (u, v) with u <= v, over all n! labellings."""
    reps: dict[tuple, MultiGraph] = {}
    for g in candidates:
        key = canonical_key(g)
        if key not in reps:
            smallest = min(
                tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges))
                for p in itertools.permutations(range(g.n))
            )
            reps[key] = MultiGraph(g.n, smallest)
    return sorted(reps.values(), key=lambda g: g.edges)


def small_connected_multigraphs(
    max_vertices: int = 5, max_edges: int = 7
) -> tuple[MultiGraph, ...]:
    """Every connected multigraph with at most max_vertices vertices and
    max_edges edges (loops and parallel edges included), one representative
    per isomorphism class, in a fixed deterministic order.

    Built by one-edge augmentation, so every candidate is connected. A tree
    on n vertices is a tree on n - 1 vertices plus a leaf. Any other
    connected multigraph has a loop or a cycle edge whose removal leaves it
    connected: it is a class with one edge fewer on the same n, plus an edge
    in some vertex-pair slot. Candidates merge by canonical_key. Each class
    keeps its smallest labelling, the first that a scan of edge multisets in
    lexicographic order would meet, and classes come in order of n, then m,
    then that edge list.
    """
    out: list[MultiGraph] = []
    trees = [MultiGraph(1, ())]
    for n in range(1, min(max_vertices, max_edges + 1) + 1):
        if n > 1:
            trees = _classes(
                MultiGraph(n, g.edges + ((v, n - 1),)) for g in trees for v in range(n - 1)
            )
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        layer = trees
        out.extend(layer)
        for _ in range(n, max_edges + 1):
            layer = _classes(MultiGraph(n, g.edges + (s,)) for g in layer for s in slots)
            out.extend(layer)
    return tuple(out)
