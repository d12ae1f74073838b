"""2-core decomposition by iterated leaf removal.

The 2-core of a connected multigraph with at least one cycle is what remains
after repeatedly deleting degree-1 vertices. Edges with both endpoints in the
core are interior (kept in both half-edge directions); every other edge lies
in a pendant tree and is kept as the single half-edge directed away from the
core.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .multigraph import MultiGraph, require_connected


@dataclass(frozen=True)
class CoreDecomposition:
    graph: MultiGraph
    core_vertices: frozenset[int]
    ext_vertices: frozenset[int]
    int_half_edges: frozenset[int]
    ext_half_edges: frozenset[int]

    @cached_property
    def core_degrees(self) -> dict[int, int]:
        """Degree within the core subgraph, half-edge counted (loops add 2)."""
        deg = {v: 0 for v in self.core_vertices}
        for h in self.int_half_edges:
            deg[self.graph.sources[h]] += 1
        return deg


def two_core(g: MultiGraph) -> CoreDecomposition:
    """Peel leaves until every remaining vertex has degree >= 2.

    Requires a connected input with at least one cycle (a tree peels away
    completely and is rejected).
    """
    require_connected(g, "two_core")
    if g.m < g.n:
        raise ValueError("two_core requires at least one cycle; input is a tree")

    deg = list(g.degrees)
    alive = [True] * g.n
    ext_hes: list[int] = []
    queue = deque(v for v in range(g.n) if deg[v] <= 1)
    # degrees only fall, so a vertex is queued once: at the start or on its step from 2 to 1
    while queue:
        u = queue.popleft()
        alive[u] = False
        for h in g.half_edges_at[u]:
            w = g.targets[h]
            if alive[w]:
                # u's one live half-edge: its inverse points away from the core
                ext_hes.append(h ^ 1)
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)

    core = frozenset(v for v in range(g.n) if alive[v])
    ext = frozenset(v for v in range(g.n) if not alive[v])
    int_hes = (h for h, u in enumerate(g.sources) if alive[u] and alive[g.targets[h]])
    return CoreDecomposition(g, core, ext, frozenset(int_hes), frozenset(ext_hes))
