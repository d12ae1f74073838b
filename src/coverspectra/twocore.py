"""2-core decomposition, lifted from the cover's quotient.

The 2-core of a connected multigraph with a cycle is what remains after
repeatedly deleting degree-1 vertices. A half-edge points into a pendant
tree exactly when its cover branch is finite, which its class decides, so
the peel is the quotient's (cover.Quotient.peel). An interior edge keeps
both half-edges, a pendant edge the one directed away from the core, and
core_degrees counts interior half-edges (a loop twice). ext_half_edges runs
by decreasing height of the tree below, then by id: each source is a core
vertex or the target of an earlier entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cover import quotient
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
    """The 2-core of g, read off its quotient's peel.

    Requires a connected input with at least one cycle (a tree peels away
    completely and is rejected).
    """
    require_connected(g, "two_core")
    if g.m < g.n:
        raise ValueError("two_core requires at least one cycle; input is a tree")

    q = quotient(g)
    out, colour_deg = q.peel
    cls = q.cls.tolist()
    ext_hes = [h for _, h in sorted((-out[a], h) for h, a in enumerate(cls) if a in out)]
    int_hes = frozenset(h for h, a in enumerate(cls) if a not in out and cls[h ^ 1] not in out)
    core_deg = {v: colour_deg[c] for v, c in enumerate(q.colors) if colour_deg[c]}
    ext = frozenset(v for v, c in enumerate(q.colors) if not colour_deg[c])
    return CoreDecomposition(g, frozenset(core_deg), ext, int_hes, tuple(ext_hes), core_deg)
