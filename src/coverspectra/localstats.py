"""Local-geometry statistics, one call each: tree-ball fractions
(tree_fraction), short-cycle structure (cycle_stats), bouquet detection
(find_bouquet), mass-transport balance checks (mass_transport_check), and
canonical radius-r ball histograms (bs_histogram) with total-variation
comparison (tv_distance).

Ball sweep. tree_fraction and bs_histogram read which radius-r balls are
trees off one sparse sweep, not a BFS per vertex: row v of reach = (A + I)^r
clipped to 0/1 is B_r(v), and B_r(v) is a tree iff rowsum((reach A) o reach)
is 2(|B_r(v)| - 1). The cover's (r + 1)-balls bound the row blocks' size.
Only a ball with a cycle is BFS'd, by ball_code, for its depth map, and
mass_transport_check BFSes only around l-cycles, stopped at depth R.

Cycle semantics on multigraphs: an l-cycle is a closed non-backtracking
half-edge sequence through l distinct vertices and l distinct edges, taken up
to rotation and reflection. A loop is a 1-cycle, a parallel edge pair a
2-cycle. Distinct edges already force the sequence to be non-backtracking,
so enumeration only tracks vertex and edge sets. Two cycles are equal iff
their edge sets are equal: a set of l distinct edges spanning l distinct
vertices forms a single 2-regular connected subgraph, which pins the cyclic
order up to rotation and reflection.
"""

from __future__ import annotations

import numbers
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cover import quotient
from .multigraph import MultiGraph, _bfs, ball, canonical_code, induced_subgraph, require_connected

CANON_CAP = 64
_BLOCK_ENTRIES = 1 << 18  # the most entries of reach A in one block of _balls


@dataclass(frozen=True)
class Cycle:
    """One l-cycle: a representative half-edge walk plus its invariant sets."""

    half_edges: tuple[int, ...]
    vertices: tuple[int, ...]
    edge_ids: frozenset[int]

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def disjoint_from(self, other: "Cycle") -> bool:
        return not (self.vertex_set & other.vertex_set)


def enumerate_cycles(g: MultiGraph, length: int) -> list[Cycle]:
    """All l-cycles of g, each reported once, anchored at its smallest vertex.

    DFS over half-edge paths from every anchor s, visiting only vertices
    above s in between, so each cycle appears exactly at its minimum vertex;
    runs of the same cycle in both directions collapse in the edge-set dedup.
    """
    if not isinstance(length, numbers.Integral):
        raise ValueError(f"cycle length must be an integer, got {length!r}")
    if length < 1:
        raise ValueError("cycle length must be at least 1")
    found: dict[frozenset[int], Cycle] = {}

    def extend(s: int, u: int, walk: list[int], seen: set[int], used: set[int]) -> None:
        depth = len(walk)
        for h in g.half_edges_at[u]:
            e = h >> 1
            if e in used:
                continue
            w = g.targets[h]
            if depth == length - 1:
                if w != s:
                    continue
                walk.append(h)
                key = frozenset(used | {e})
                if key not in found:
                    verts = tuple(g.sources[x] for x in walk)
                    found[key] = Cycle(tuple(walk), verts, key)
                walk.pop()
            elif w > s and w not in seen:
                walk.append(h)
                seen.add(w)
                used.add(e)
                extend(s, w, walk, seen, used)
                used.remove(e)
                seen.remove(w)
                walk.pop()

    for s in range(g.n):
        extend(s, s, [], {s}, set())
    return sorted(found.values(), key=lambda c: (c.vertices, sorted(c.edge_ids)))


@dataclass(frozen=True)
class CycleStats:
    length: int
    cycles: tuple[Cycle, ...]
    counts: tuple[int, ...]

    @property
    def fraction(self) -> float:
        """Fraction of vertices lying on at least one cycle of this length."""
        n = len(self.counts)
        return sum(1 for c in self.counts if c > 0) / n

    @property
    def max_count(self) -> int:
        return max(self.counts, default=0)


def cycle_stats(g: MultiGraph, length: int) -> CycleStats:
    cycles = enumerate_cycles(g, length)
    counts = [0] * g.n
    for c in cycles:
        for v in c.vertex_set:
            counts[v] += 1
    return CycleStats(length, tuple(cycles), tuple(counts))


def _balls(g: MultiGraph, r: int) -> np.ndarray:
    """The ball sweep (module docstring) on g.adjacency: whether each
    vertex's ball is a tree."""
    from scipy.sparse import identity

    n, q, adj = g.n, quotient(g), g.adjacency
    eye = identity(n, dtype=bool, format="csr")
    step = (adj + eye).astype(bool)
    sub = [1] * q.size  # cover ball sizes below each class's head, capped at n
    for _ in range(r):
        sub = [min(n, 1 + sum(m * sub[b] for b, m in row)) for row in q.C]
    sizes = np.array([min(n, 1 + sum(m * sub[a] for a, m in row)) for row in q.D])
    ends = np.cumsum(np.concatenate(([0], sizes[list(q.colors)])))
    tree = np.empty(n, bool)
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + _BLOCK_ENTRIES, "right")) - 1)
        reach = eye[lo:hi]
        for _ in range(r):
            reach = reach @ step
        inside = np.asarray((reach @ adj).multiply(reach).sum(axis=1)).ravel()
        tree[lo:hi] = inside == 2 * (np.diff(reach.indptr) - 1)
        lo = hi
    return tree


def tree_fraction(g: MultiGraph, r: int) -> float:
    """Fraction of vertices whose induced radius-r ball is a tree, off the sweep's mask."""
    if r < 1:
        raise ValueError("radius must be at least 1")
    return int(_balls(g, r).sum()) / g.n


def find_bouquet(
    g: MultiGraph, v: int, k: int, length: int
) -> tuple[Cycle, Cycle] | None:
    """A pair of vertex-disjoint l-cycles both within distance k - l of v,
    or None. With both distances r1, r2 at most k - l, the budget condition
    k >= l + max(r1, r2) holds automatically."""
    if k < length:
        raise ValueError("need k >= cycle length")
    dist = g.distances_from(v)
    reach = []
    for c in enumerate_cycles(g, length):
        d = min(dist[u] for u in c.vertex_set)
        if d >= 0 and d <= k - length:
            reach.append((d, c))
    reach.sort(key=lambda t: (t[0], t[1].vertices))
    for i in range(len(reach)):
        for j in range(i + 1, len(reach)):
            if reach[i][1].disjoint_from(reach[j][1]):
                return reach[i][1], reach[j][1]
    return None


@dataclass(frozen=True)
class MassTransportReport:
    radius: int
    length: int
    lhs: Fraction
    rhs: Fraction
    hypothesis_holds: bool
    nr_average: Fraction
    nr_bound: Fraction
    nr_holds: bool | None

    @property
    def balanced(self) -> bool:
        return self.lhs == self.rhs


def mass_transport_check(g: MultiGraph, R: int, length: int) -> MassTransportReport:
    """Double-counting balance for F(u, v) = 1{dist(u, v) <= R and u on an
    l-cycle}, plus the averaged N_R lower bound when every radius-R ball
    holds at least R vertices. N_R(v) counts l-cycles with some vertex within
    distance R of v; the bound check is skipped (nr_holds = None) whenever
    the ball-size hypothesis fails. Each ball read is a BFS stopped at depth
    R, from one vertex on an l-cycle (the mass) or one cycle (N_R's sum).

    Mass sent (the sum of F(o, v) over pairs) and mass received (the sum of
    F(v, o)) count the same pairs, so on a finite graph the balance is an
    identity, counted once and reported as both lhs and rhs. The
    mass-transport principle has content only on infinite unimodular networks."""
    if not isinstance(R, numbers.Integral):
        raise ValueError(f"radius must be an integer, got {R!r}")
    if R < 0:
        raise ValueError("radius must be nonnegative")
    require_connected(g, "mass_transport_check")
    n = g.n
    stats = cycle_stats(g, length)
    on_cycle = [v for v, k in enumerate(stats.counts) if k]
    mass = Fraction(sum(len(_bfs(g, (v,), R)) for v in on_cycle), n)
    hypothesis = n >= R  # connected: each radius-R ball holds min(n, R + 1) vertices or more
    # N_R(v) summed over v is, summed over cycles, the vertices within R of each
    nr_total = sum(len(_bfs(g, c.vertices, R)) for c in stats.cycles)
    nr_average = Fraction(nr_total, n)
    nr_bound = Fraction(R, length) * Fraction(len(on_cycle), n)
    nr_holds = (nr_average >= nr_bound) if hypothesis else None
    return MassTransportReport(R, length, mass, mass, hypothesis, nr_average, nr_bound, nr_holds)


def ball_code(g: MultiGraph, v: int, r: int) -> str:
    """Canonical code of the rooted induced ball B_r(v); equal codes iff the
    rooted balls are isomorphic. A tree ball is the cover's r-ball, fixed by
    v's refinement colour, so its parenthesis code is read off the cached
    quotient at any size. Only a ball with a cycle is built as a subgraph:
    it must have at most CANON_CAP vertices and goes through canonical_code,
    coloured by the depths of its depth map."""
    depth = ball(g, v, r)
    if sum(w in depth for u in depth for w in g.neighbours[u]) == 2 * (len(depth) - 1):
        return "t" + quotient(g).ball_code(v, r)
    if len(depth) > CANON_CAP:
        raise ValueError(f"ball at vertex {v} has {len(depth)} vertices, over the cap of {CANON_CAP}")
    vs = sorted(depth)
    return "g" + canonical_code(induced_subgraph(g, vs), [depth[u] for u in vs])


def bs_histogram(g: MultiGraph, r: int) -> dict[str, int]:
    """Counts of ball_code over all vertices: off the sweep's tree mask, tree
    balls once per refinement colour, and each ball with a cycle by ball_code."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    q = quotient(g)
    tree = _balls(g, r)
    hist: dict[str, int] = defaultdict(int)
    for v in np.flatnonzero(~tree).tolist():
        hist[ball_code(g, v, r)] += 1
    trees = np.bincount(np.array(q.colors)[tree], minlength=len(q.members))
    for c in np.flatnonzero(trees).tolist():
        hist["t" + q.ball_code(q.members[c][0], r)] += int(trees[c])
    return dict(hist)


def tv_distance(h1: dict[str, int], h2: dict[str, int]) -> float:
    """Total-variation distance between two normalized ball histograms."""
    n1 = sum(h1.values())
    n2 = sum(h2.values())
    if n1 <= 0 or n2 <= 0:
        raise ValueError("histograms must be nonempty")
    keys = set(h1) | set(h2)
    tv = (
        sum(abs(Fraction(h1.get(k, 0), n1) - Fraction(h2.get(k, 0), n2)) for k in keys)
        / 2
    )
    return float(tv)
