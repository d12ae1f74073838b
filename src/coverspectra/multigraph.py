"""Finite undirected multigraphs stored as half-edge pairs, with file I/O,
colour refinement and canonical forms.

Loops and parallel edges are first-class: edge i contributes half-edges
2*i (u to v) and 2*i + 1 (v to u), so the inverse of h is h ^ 1 and a loop
at u is a pair of half-edges both sourced at u. A loop contributes 2 to the
degree of its vertex and 2 to the diagonal of the adjacency matrix.
"""

from __future__ import annotations

import enum
import numbers
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GraphParseError(ValueError):
    """Malformed graph file; the message names the offending line."""


class CyclomaticClass(enum.IntEnum):
    """Connected multigraphs ordered by cycle rank: m - n + 1 = 0, 1, >= 2."""

    TREE = 0
    UNICYCLIC = 1
    MULTICYCLIC = 2


@dataclass(frozen=True)
class MultiGraph:
    """Multigraph on vertices 0..n-1 with an explicit edge tuple.

    The half-edge h = 2*i + b runs from sources[h] = edges[i][b] to
    targets[h] = edges[i][1 - b]; its inverse is h ^ 1. adjacency, the one
    CSR adjacency matrix, is built from the half-edges on first read.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        for i, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {i} = ({u}, {v}) out of range for n = {self.n}")

    # the generated hash would rehash the edge tuple on every cache lookup
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.edges))

    @staticmethod
    def from_edges(n: int, edges) -> "MultiGraph":
        return MultiGraph(n, tuple((int(u), int(v)) for u, v in edges))

    # -- half-edge primitives -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def num_half_edges(self) -> int:
        return 2 * len(self.edges)

    @cached_property
    def sources(self) -> tuple[int, ...]:
        out = []
        for u, v in self.edges:
            out.append(u)
            out.append(v)
        return tuple(out)

    @cached_property
    def targets(self) -> tuple[int, ...]:
        out = []
        for u, v in self.edges:
            out.append(v)
            out.append(u)
        return tuple(out)

    @cached_property
    def half_edges_at(self) -> tuple[tuple[int, ...], ...]:
        """Half-edge ids sourced at each vertex, in increasing id order."""
        buckets: list[list[int]] = [[] for _ in range(self.n)]
        for h, u in enumerate(self.sources):
            buckets[u].append(h)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:  # sorted half-edge targets
        return tuple(tuple(sorted(self.targets[h] for h in hs)) for hs in self.half_edges_at)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.half_edges_at)

    @cached_property
    def max_degree(self) -> int:
        return max(self.degrees) if self.n else 0

    # -- matrices and traversal ----------------------------------------------

    @cached_property
    def adjacency(self):
        """A as a canonical scipy CSR matrix of int64 counts, one per half-edge
        summed: a loop puts 2 on the diagonal, parallel edges add up."""
        from scipy.sparse import csr_matrix

        ends = (self.sources, self.targets)
        return csr_matrix((np.ones(self.num_half_edges, np.int64), ends), (self.n, self.n))

    def distances_from(self, starts) -> list[int]:
        """BFS distance from a vertex or an iterable of source vertices.
        Unreachable vertices get -1."""
        if isinstance(starts, numbers.Integral):
            starts = (starts,)
        dist = _bfs(self, starts)
        return [dist.get(u, -1) for u in range(self.n)]

    def connected_components(self) -> list[tuple[int, ...]]:
        comps = []
        seen: set[int] = set()
        for s in range(self.n):
            if s not in seen:
                comp = _bfs(self, (s,))
                seen.update(comp)
                comps.append(tuple(sorted(comp)))
        return comps

    @cached_property
    def is_connected(self) -> bool:
        return len(_bfs(self, (0,))) == self.n


def _bfs(g: MultiGraph, starts, radius: int | None = None) -> dict[int, int]:
    """Distance to the nearest start for every vertex reached, in BFS order.
    With a radius, vertices at that depth are not expanded, so the cost is
    that of the ball, not of g."""
    dist: dict[int, int] = {}
    for s in starts:
        if not 0 <= s < g.n:
            raise ValueError(f"vertex {s} out of range")
        dist.setdefault(s, 0)
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        d = dist[u]
        if d == radius:
            continue
        for h in g.half_edges_at[u]:
            w = g.targets[h]
            if w not in dist:
                dist[w] = d + 1
                queue.append(w)
    return dist


def require_connected(g: MultiGraph, what: str = "this operation") -> None:
    if not g.is_connected:
        raise ValueError(f"{what} requires a connected graph")


def require_integer(value, what: str) -> None:
    """Refuse a count that is not an integer (NumPy integers pass), so that
    1.5 is not misread and 2.0 does not share a cache entry with 2."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def cyclomatic_class(g: MultiGraph) -> CyclomaticClass:
    """Classify a connected multigraph by its cycle rank m - n + 1."""
    require_connected(g, "cyclomatic_class")
    rank = g.m - g.n + 1
    if rank == 0:
        return CyclomaticClass.TREE
    if rank == 1:
        return CyclomaticClass.UNICYCLIC
    return CyclomaticClass.MULTICYCLIC


# -- neighborhoods -----------------------------------------------------------


def ball(g: MultiGraph, v: int, r: int) -> dict[int, int]:
    """B_r(v) as its depth map: each vertex within distance r of v, mapped to
    that distance, in BFS order. r = 0 gives {v: 0}."""
    require_integer(r, "radius")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return _bfs(g, (v,), r)


def induced_subgraph(g: MultiGraph, vertices) -> MultiGraph:
    """Subgraph induced on a vertex set: the vertices renumbered in
    increasing order, and every edge of g among them, loops and parallel
    edges included, in g's order."""
    chosen = sorted(set(vertices))
    if chosen and not (0 <= chosen[0] and chosen[-1] < g.n):
        raise ValueError(f"vertices out of range 0..{g.n - 1}")
    index = {u: i for i, u in enumerate(chosen)}
    # sorted edge ids keep the edges in g's order
    edge_ids = sorted(
        {h >> 1 for u in chosen for h in g.half_edges_at[u] if g.targets[h] in index}
    )
    return MultiGraph.from_edges(
        len(chosen), [(index[a], index[b]) for a, b in (g.edges[i] for i in edge_ids)]
    )


# -- colour refinement and canonical forms -------------------------------------

# individualization-refinement leaves explored before giving up; with twins
# pruned, only symmetries that are not twin swaps (disjoint copies of one
# component and the like) multiply the leaves
_CANON_LEAF_BUDGET = 1_000_000


def refine(g: MultiGraph, colors) -> tuple[list[int], int]:
    """Equitable refinement of a vertex colouring: recolour every vertex by
    (own colour, sorted colours of g.neighbours) until a round splits no
    class. Colour ids are re-ranked by signature each round, so isomorphic
    inputs end in identical id sequences. Returns the stable colours and the
    number of rounds, the final non-splitting one included.

    From the uniform colouring this is the degree refinement: two vertices
    end in one class exactly when their rooted universal covers are
    isomorphic (Leighton, JCTB 1982)."""
    colors = list(colors)
    classes = len(set(colors))
    rounds = 0
    while True:
        sigs = [(c, tuple(sorted([colors[w] for w in ws]))) for c, ws in zip(colors, g.neighbours)]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [palette[s] for s in sigs]
        rounds += 1
        if len(palette) == classes:
            return colors, rounds
        classes = len(palette)


def _code_for_order(g: MultiGraph, pos: list[int]) -> str:
    pairs = sorted(
        (min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in g.edges
    )
    return f"{g.n};" + ",".join(f"{a}-{c}" for a, c in pairs)


def canonical_code(g: MultiGraph, colors) -> str:
    """Minimal edge-list code over the vertex orderings that respect an
    initial colouring, searched by individualization-refinement (McKay and
    Piperno, 2014): refine, branch on the first non-singleton cell, keep the
    lexicographically smallest leaf. Twins (equal g.neighbours once swapped)
    are swapped by an automorphism that fixes the colouring: a branch takes
    one member per twin class of the cell, and a node whose split cells are
    each one twin class, which automorphisms permute freely, is a leaf.

    Isomorphisms that preserve the colouring give equal codes, and equal
    codes mean isomorphic graphs; the colouring itself is not recorded. The
    number of leaves grows only with the automorphisms that are not twin
    swaps, up to _CANON_LEAF_BUDGET."""
    best: str | None = None
    budget = _CANON_LEAF_BUDGET

    def twins(u: int, w: int) -> bool:
        # the transposition (u w) maps the edges at u onto those at w
        swap = {u: w, w: u}
        return sorted([swap.get(x, x) for x in g.neighbours[u]]) == list(g.neighbours[w])

    def search(colors: list[int]) -> None:
        nonlocal best, budget
        colors, _ = refine(g, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        split = [cells[c] for c in sorted(cells) if len(cells[c]) > 1]
        if all(twins(cell[0], u) for cell in split for u in cell[1:]):
            budget -= 1
            if budget < 0:  # pragma: no cover - only for huge automorphism groups
                raise RuntimeError("canonical form leaf budget exceeded")
            pos = [0] * g.n
            for i, v in enumerate(sorted(range(g.n), key=colors.__getitem__)):
                pos[v] = i
            code = _code_for_order(g, pos)
            best = code if best is None else min(best, code)
            return
        reps: list[int] = []
        for m in split[0]:
            if any(twins(m, u) for u in reps):
                continue
            reps.append(m)
            child = [2 * c for c in colors]
            child[m] = 2 * colors[m] - 1
            search(child)

    search(colors)
    return best


# -- file format ---------------------------------------------------------------
#
# Line 1: "n m". Then m lines "u v" with 0-based endpoints; "u u" is a loop and
# repeated lines are parallel edges. Lines starting with '#' are comments.


def load_graph(text: str) -> MultiGraph:
    """Parse the plain edge-list format. Raises GraphParseError with a line
    number on malformed input."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    header_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise GraphParseError(f"line {lineno}: expected header 'n m', got {raw!r}")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer header {raw!r}") from None
            if n < 1:
                raise GraphParseError(f"line {lineno}: vertex count must be positive, got {n}")
            if m < 0:
                raise GraphParseError(f"line {lineno}: negative edge count {m}")
            header = (n, m)
            header_line = lineno
            continue
        if len(fields) != 2:
            raise GraphParseError(f"line {lineno}: expected edge 'u v', got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer edge {raw!r}") from None
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: endpoint out of range 0..{n - 1}: {raw!r}")
        if len(edges) == header[1]:
            raise GraphParseError(f"line {lineno}: more than {header[1]} edge lines")
        edges.append((u, v))
    if header is None:
        raise GraphParseError("line 1: empty graph file")
    if len(edges) != header[1]:
        raise GraphParseError(
            f"line {header_line}: header promises {header[1]} edges, found {len(edges)}"
        )
    return MultiGraph.from_edges(header[0], edges)


def dump_graph(g: MultiGraph) -> str:
    """Serialize with sorted edge lines so load/dump round-trips bit-exact."""
    lines = [f"{g.n} {g.m}"]
    for u, v in sorted((min(e), max(e)) for e in g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
