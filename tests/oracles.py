"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's own DP tables: walk counts are
recomputed from first principles so agreement is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np

from coverspectra.cover import tree_ball
from coverspectra.multigraph import MultiGraph, Neighborhood


def stack_walk_profile(g: MultiGraph, v: int, k_max: int) -> list[int]:
    """Count closed walks whose half-edge word reduces to the identity.

    A walk pushes each half-edge onto a stack unless it inverts the current
    top, in which case the top is popped. Walks of length k from v that end
    with an empty stack are exactly the purely backtracking ones. Memoized
    on (remaining steps, stack) since the stack determines the position.
    """
    at = g.half_edges_at
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def count(r: int, stack: tuple[int, ...]) -> int:
        # each step changes the stack height by one, so a stack deeper than
        # the remaining steps can never empty
        if len(stack) > r:
            return 0
        if r == 0:
            return 1
        key = (r, stack)
        got = memo.get(key)
        if got is not None:
            return got
        u = g.target(stack[-1]) if stack else v
        total = 0
        for h in at[u]:
            if stack and h == MultiGraph.inv(stack[-1]):
                total += count(r - 1, stack[:-1])
            else:
                total += count(r - 1, stack + (h,))
        memo[key] = total
        return total

    return [count(k, ()) for k in range(k_max + 1)]


def matrix_walk_count(g: MultiGraph, v: int, k: int) -> int:
    """(A^k)[v][v] via exact integer matrix powers."""
    a = np.array(g.adjacency_matrix(), dtype=object)
    out = np.eye(g.n, dtype=object)
    for _ in range(k):
        out = out @ a
    return int(out[v][v])


def tree_ball_walk_count(g: MultiGraph, v: int, k: int) -> int:
    """Closed walks of length k (even) at the root of the materialized radius
    k/2 cover-tree ball: the same quantity as backtracking_walk_count by a
    third route. Cost is exponential in the max degree."""
    tb = tree_ball(g, v, k // 2)
    x = [0] * tb.node_count
    x[0] = 1
    for _ in range(k):
        y = [0] * tb.node_count
        for node in range(tb.node_count):
            xn = x[node]
            if xn:
                if tb.parent[node] >= 0:
                    y[tb.parent[node]] += xn
                for c in tb.children[node]:
                    y[c] += xn
        x = y
    return x[0]


def ball_by_full_bfs(g: MultiGraph, v: int, r: int) -> Neighborhood:
    """The induced radius-r ball around v, built from a BFS over the whole
    graph and a scan of every edge: a reference for multigraph.ball, which
    visits only the ball."""
    dist = g.distances_from(v)
    chosen = sorted(u for u in range(g.n) if 0 <= dist[u] <= r)
    index = {u: i for i, u in enumerate(chosen)}
    sub_edges = [
        (index[a], index[b])
        for (a, b) in g.edges
        if a in index and b in index
    ]
    return Neighborhood(MultiGraph.from_edges(len(chosen), sub_edges), tuple(chosen), index[v])
