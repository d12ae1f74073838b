"""Graph family constructors, random lifts, and the exhaustive corpus of
small connected multigraphs.

Every randomized constructor takes an explicit seed and draws from
random.Random(seed) (Mersenne Twister), so identical parameters give
identical graphs on any platform. Constructors return (graph, info) where
info carries construction flags; deterministic families report nothing.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

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


def _is_simple(g: MultiGraph) -> bool:
    seen = set()
    for u, v in g.edges:
        if u == v or (u, v) in seen:
            return False
        seen.add((u, v))
    return True


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
        g = MultiGraph(
            n, tuple((stubs[2 * i], stubs[2 * i + 1]) for i in range(n * d // 2))
        )
        simple = _is_simple(g)
        connected = g.is_connected
        if simple and connected:
            return g, {"attempts": attempt, "simple": True, "connected": True}
    return g, {"attempts": RANDOM_REGULAR_RETRIES, "simple": simple, "connected": connected}


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


@lru_cache(maxsize=4)
def small_connected_multigraphs(
    max_vertices: int = 5, max_edges: int = 7
) -> tuple[MultiGraph, ...]:
    """Every connected multigraph with at most max_vertices vertices and
    max_edges edges (loops and parallel edges included), one representative
    per isomorphism class, in a fixed deterministic order.

    Enumerates edge multisets over the n(n+1)/2 vertex-pair slots, filters
    for connectivity with a union-find, and dedups via canonical_key. The
    default bounds scan roughly 200k labeled candidates. Each class keeps
    the first labelling seen, which is its lexicographically smallest edge
    list, and classes come in order of n, then m, then that edge list.
    """
    out: dict[tuple, MultiGraph] = {}
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        lo = max(0, n - 1)
        for m in range(lo, max_edges + 1):
            for combo in itertools.combinations_with_replacement(
                range(len(slots)), m
            ):
                parent = list(range(n))

                def find(x: int) -> int:
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                merged = 0
                for s in combo:
                    u, v = slots[s]
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[ru] = rv
                        merged += 1
                if merged != n - 1:
                    continue
                g = MultiGraph(n, tuple(slots[s] for s in combo))
                key = canonical_key(g)
                if key not in out:
                    out[key] = g
    return tuple(out.values())
