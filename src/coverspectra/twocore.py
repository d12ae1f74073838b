"""2-core decomposition by iterated leaf removal.

The 2-core of a connected multigraph with at least one cycle is what remains
after repeatedly deleting degree-1 vertices. Edges with both endpoints in the
core are interior (kept in both half-edge directions); every other edge lies
in a pendant tree and is kept as the single half-edge directed away from the
core. core_degrees is the peel's own degree count on the survivors (loops
count 2); ext_half_edges is in reverse peel order, so each half-edge's source
is a core vertex or the target of an earlier entry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .multigraph import MultiGraph, require_connected


@dataclass(frozen=True)
class CoreDecomposition:
    graph: MultiGraph
    core_vertices: frozenset[int]
    ext_vertices: frozenset[int]
    int_half_edges: frozenset[int]
    ext_half_edges: tuple[int, ...]
    core_degrees: dict[int, int] = field(compare=False)  # set by the fields above; a dict has no hash


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

    core_deg = {v: deg[v] for v in range(g.n) if alive[v]}
    ext = frozenset(v for v in range(g.n) if not alive[v])
    int_hes = frozenset(h for h, u in enumerate(g.sources) if alive[u] and alive[g.targets[h]])
    return CoreDecomposition(g, frozenset(core_deg), ext, int_hes, tuple(ext_hes[::-1]), core_deg)
