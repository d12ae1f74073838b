"""Local-geometry statistics, one call each: tree-ball fractions
(tree_fraction), short-cycle structure (cycle_stats), bouquet detection
(find_bouquet), mass-transport balance checks (mass_transport_check), and
canonical radius-r ball histograms (bs_histogram) with total-variation
comparison (tv_distance).

Ball sweep. tree_fraction and bs_histogram read which radius-r balls are
trees off one sparse sweep, not a BFS per vertex: row v of reach = (A + I)^r
clipped to 0/1 is B_r(v), and B_r(v) is a tree iff rowsum((reach A) o reach)
is 2(|B_r(v)| - 1). The cover's (r + 1)-balls bound the row blocks' size,
and the last few sweeps are cached, so the two statistics share one per
(graph, r). bs_histogram reads the balls with a cycle in batches off the
CSR, with no BFS of its own: their depths and induced edges, refined
together into one key per ball, and it codes each distinct key once.
ball_code BFSes its one ball, and mass_transport_check BFSes only around
l-cycles, stopped at depth R.

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

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cover import quotient
from .multigraph import (
    MultiGraph,
    _bfs,
    ball,
    canonical_code,
    induced_subgraph,
    require_connected,
    require_integer,
)

CANON_CAP = 64
# the most entries of reach A in one block of _balls, and of the CSR rows
# read for one batch of balls with a cycle in bs_histogram
_BLOCK_ENTRIES = 1 << 18


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
    require_integer(length, "cycle length", 1)
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


@lru_cache(maxsize=8)
def _balls(g: MultiGraph, r: int) -> np.ndarray:
    """The ball sweep (module docstring) on g.adjacency: whether each
    vertex's ball is a tree, read-only and cached like cover.quotient, so
    tree_fraction and bs_histogram share one sweep per (graph, r)."""
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
    tree.flags.writeable = False
    return tree


def tree_fraction(g: MultiGraph, r: int) -> float:
    """Fraction of vertices whose induced radius-r ball is a tree, off the sweep's mask."""
    require_integer(r, "radius", 1)
    return int(_balls(g, r).sum()) / g.n


def find_bouquet(
    g: MultiGraph, v: int, k: int, length: int
) -> tuple[Cycle, Cycle] | None:
    """A pair of vertex-disjoint l-cycles both within distance k - l of v,
    or None. With both distances r1, r2 at most k - l, the budget condition
    k >= l + max(r1, r2) holds automatically."""
    require_integer(k, "k")
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
    require_integer(R, "radius", 0)
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


# Helpers of bs_histogram's batch. Every sort in it is stable: the BFS and
# the cell order need that, and one sort kernel keeps the process's resident
# code small.


def _rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in a CSR's indices and data of the given rows' entries, row
    after row, and each row's entry count."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts), counts


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Whether each of a sorted array's keys differs from the one before."""
    first = np.ones(len(keys), bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _dense_rank(keys: np.ndarray) -> np.ndarray:
    """Each key's rank among the distinct keys, in increasing order."""
    order = np.argsort(keys, kind="stable")
    ranks = np.empty(len(keys), np.int64)
    ranks[order] = np.cumsum(_firsts(keys[order])) - 1
    return ranks


def _rank_rows(rows: np.ndarray) -> np.ndarray:
    """Each row's rank among the distinct rows of a nonnegative integer
    matrix, in lexicographic order: the rows packed into one integer, or
    each half ranked first when that could overflow."""
    base, width = int(rows.max()) + 1, rows.shape[1]
    if base**width < 1 << 62:
        return _dense_rank(rows @ base ** np.arange(width - 1, -1, -1))
    left, right = _rank_rows(rows[:, : width // 2]), _rank_rows(rows[:, width // 2 :])
    return _dense_rank(left * len(rows) + right)


def _refine_union(colors: np.ndarray, src: np.ndarray, dst: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Colour refinement of a disjoint union of balls, on its member ->
    member entries (src sorted): a member's next colour is the rank of its
    colour followed by its sorted (colour, multiplicity) entries, until a
    round splits no class. Colours are ranks, so the order of one ball's
    colours does not depend on which other balls share the union."""
    slot = np.arange(len(src)) - np.searchsorted(src, src) + 1
    shape = (len(colors), int(slot.max()) + 1)
    scale, mult = int(mult.max()) + 1, mult + 1
    classes = -1
    while True:
        sigs = np.zeros(shape, np.int64)  # 0 pads a short row
        sigs[src, slot] = colors[dst] * scale + mult
        sigs[:, 1:].sort(axis=1, kind="stable")
        sigs[:, 0] = colors
        colors = _rank_rows(sigs)
        if colors.max() == classes:
            return colors
        classes = colors.max()


def _cyclic_balls(g: MultiGraph, centres: np.ndarray, r: int):
    """(key, vertices, depths) of B_r(c) for each centre c, in order: one
    BFS of all the balls at once over g.adjacency's CSR, and the key of
    bs_histogram for each. Raises the cap error of ball_code for the first
    centre whose ball has more than CANON_CAP vertices."""
    adj = g.adjacency
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    n, k = g.n, len(centres)
    # a member is a pair (ball b, vertex v), held as b * n + v; members are
    # kept sorted, with their depths
    members = frontier = np.arange(k) * n + centres
    depth = np.zeros(k, np.int64)
    for d in range(1, r + 1):
        v = frontier % n
        at, counts = _rows(indptr, v)
        reached = np.repeat(frontier - v, counts) + indices[at]
        keys = np.concatenate((members, reached))
        order = np.argsort(keys, kind="stable")  # a member before its repeats
        keys = keys[order]
        first = _firsts(keys)
        new = first & (order >= len(members))
        depth = np.concatenate((depth, np.full(len(reached), d)))[order][first]
        members, frontier = keys[first], keys[new]
        size = np.bincount(members // n, minlength=k)
        frontier = frontier[size[frontier // n] <= CANON_CAP]  # an over-cap ball stops growing
    owner = members // n
    vertex = members - owner * n
    size = np.bincount(owner, minlength=k)
    over = np.flatnonzero(size > CANON_CAP)
    if len(over):
        v = int(centres[over[0]])
        raise ValueError(f"ball at vertex {v} has {len(ball(g, v, r))} vertices, over the cap of {CANON_CAP}")
    # the induced half-edges, with multiplicity, as member -> member entries
    at, counts = _rows(indptr, vertex)
    src = np.repeat(np.arange(len(members)), counts)
    target = np.repeat(members - vertex, counts) + indices[at]
    dst = np.minimum(np.searchsorted(members, target), len(members) - 1)
    inside = members[dst] == target
    src, dst, mult = src[inside], dst[inside], data[at][inside]
    # refine from the depths; individualize the lowest vertex of each ball's
    # first non-singleton cell, as canonical_code's first branch does, and
    # refine again; then order each ball by (colour, vertex)
    colors = _refine_union(depth, src, dst, mult)
    cells = owner * len(members) + colors
    order = np.argsort(cells, kind="stable")
    runs = np.flatnonzero(~_firsts(cells[order])) - 1  # i where i and i + 1 share a cell
    first = order[runs[_firsts(owner[order[runs]])]]
    if len(first):
        colors = 2 * colors
        colors[first] -= 1
        colors = _refine_union(colors, src, dst, mult)
        order = np.argsort(owner * len(members) + colors, kind="stable")
    # each ball's labelled form: its depths, and its sorted edge triples
    # (a, b, multiplicity) over places a <= b in that order
    place = np.empty(len(members), np.int64)
    place[order] = np.arange(len(members))
    keep = place[src] <= place[dst]
    src, dst, mult = src[keep], dst[keep], mult[keep]
    edges = np.argsort(place[src] * len(members) + place[dst], kind="stable")
    src, dst, mult = src[edges], dst[edges], mult[edges]
    starts = np.concatenate(([0], np.cumsum(size)))
    ends = np.searchsorted(owner[src], np.arange(k + 1))
    local = place - starts[owner]
    triples = np.empty((len(edges), 3), np.int64)
    triples[:, 0], triples[:, 1], triples[:, 2] = local[src], local[dst], mult
    labelled, triples = depth[order].tobytes(), triples.tobytes()
    cell, row = depth.itemsize, 3 * depth.itemsize
    vertex, depth = vertex.tolist(), depth.tolist()
    for i in range(k):
        lo, hi = starts[i], starts[i + 1]
        key = (labelled[lo * cell : hi * cell], triples[ends[i] * row : ends[i + 1] * row])
        yield key, vertex[lo:hi], depth[lo:hi]


def bs_histogram(g: MultiGraph, r: int) -> dict[str, int]:
    """Counts of ball_code over all vertices. Off the sweep's tree mask, tree
    balls are coded once per refinement colour. Balls with a cycle go in
    batches through _cyclic_balls, whose key is a ball's exact labelled form
    (depths and (a, b, multiplicity) edges in an order from refining the
    batch): equal keys are equal depth-coloured multigraphs, so
    canonical_code runs once per key."""
    require_integer(r, "radius", 0)
    q = quotient(g)
    tree = _balls(g, r)
    hist: dict[str, int] = defaultdict(int)
    codes: dict[tuple[bytes, bytes], str] = {}
    cyclic = np.flatnonzero(~tree)
    width = max(1, int(np.diff(g.adjacency.indptr).max()))  # CSR entries in a row
    batch = max(1, _BLOCK_ENTRIES // (CANON_CAP * width))
    for lo in range(0, len(cyclic), batch):
        for key, vs, depths in _cyclic_balls(g, cyclic[lo : lo + batch], r):
            code = codes.get(key)
            if code is None:
                code = codes[key] = "g" + canonical_code(induced_subgraph(g, vs), depths)
            hist[code] += 1
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
