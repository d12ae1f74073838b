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

from .multigraph import MultiGraph

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


def _smallest_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """The smallest sorted edge list, pairs (u, v) with u <= v, over all
    labellings of a multigraph: the maximal-matrix form of orderly generation
    (Read, Ann. Discrete Math. 2, 1978). Pairs run row by row, so the smaller
    list has the larger count at the first pair where two differ. Label i
    goes to a vertex with the largest counts to labels 0..i-1 in turn, which
    fixes row i: its loops, then its counts to the others in the order of
    their counts to labels 0..i. Only prefixes with the largest row i go on."""
    count = [[0] * n for _ in range(n)]
    for u, v in edges:
        count[u][v] += 1
        count[v][u] += 1  # a loop counts twice, as in A
    level = [((), {u: [] for u in range(n)})]  # labels so far, others' counts to them
    for _ in range(n):
        rows = []
        for prefix, keys in level:
            top = max(keys.values())
            for v in [u for u, key in keys.items() if key == top]:
                rest = {u: key + [count[v][u]] for u, key in keys.items() if u != v}
                row = [count[v][v]] + [key[-1] for key in sorted(rest.values(), reverse=True)]
                rows.append((row, prefix + (v,), rest))
        best = max(row for row, _, _ in rows)
        level = [(prefix, rest) for row, prefix, rest in rows if row == best]
    label = {v: i for i, v in enumerate(level[0][0])}
    return tuple(sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in edges))


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
    in some vertex-pair slot. Candidates merge by their smallest labelling
    (_smallest_edges), the first that a lexicographic scan of edge multisets
    meets; classes keep it and come in order of n, then m, then that list.
    """
    out: list[MultiGraph] = []
    trees = [()]
    for n in range(1, min(max_vertices, max_edges + 1) + 1):
        if n > 1:
            trees = sorted(
                {_smallest_edges(n, t + ((v, n - 1),)) for t in trees for v in range(n - 1)}
            )
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        layer = trees
        out.extend(MultiGraph(n, e) for e in layer)
        for _ in range(n, max_edges + 1):
            layer = sorted({_smallest_edges(n, e + (s,)) for e in layer for s in slots})
            out.extend(MultiGraph(n, e) for e in layer)
    return tuple(out)
