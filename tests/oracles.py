"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's own DP tables: walk counts are
recomputed from first principles so agreement is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from coverspectra.cover import quotient
from coverspectra.generators import canonical_key, random_lift
from coverspectra.multigraph import MultiGraph, ball, induced_subgraph, require_connected
from coverspectra.rho import (
    _is_supersolution,
    _newton,
    _Operators,
    rho_lower_sequence,
)
from coverspectra.twocore import CoreDecomposition


TREE_BALL_NODE_CAP = 20_000_000


def ends(g: MultiGraph, h: int) -> tuple[int, int]:
    """(source, target) of half-edge h read off g.edges, not off the cached
    sources and targets tuples that the library reads."""
    e = g.edges[h >> 1]
    return e[h & 1], e[1 - (h & 1)]


class BallCapExceeded(RuntimeError):
    """Materializing a tree ball would exceed the node cap."""


@dataclass(frozen=True)
class TreeBall:
    """Truncated ball of the universal cover, rooted at node 0.

    pi projects nodes to base vertices; in_half_edge[x] is the base half-edge
    whose lift enters x from its parent (-1 at the root). Children of a node
    are in bijection with the half-edges at its projection, minus the inverse
    of the inbound one; the root's children realize every half-edge at pi(0).
    """

    graph: MultiGraph
    center: int
    radius: int
    pi: tuple[int, ...]
    parent: tuple[int, ...]
    in_half_edge: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    depth: tuple[int, ...]

    @property
    def node_count(self) -> int:
        return len(self.pi)

    def as_multigraph(self) -> MultiGraph:
        """The ball as a plain tree on its node ids (root stays node 0)."""
        edges = [(self.parent[x], x) for x in range(1, self.node_count)]
        return MultiGraph.from_edges(self.node_count, edges)


def tree_ball(g: MultiGraph, v: int, radius: int, cap: int = TREE_BALL_NODE_CAP) -> TreeBall:
    """Materialize B_radius of the universal cover at a lift of v.

    Children are generated in increasing half-edge id order, so node ids are
    deterministic. Raises BallCapExceeded before allocating past cap nodes.
    """
    require_connected(g, "tree_ball")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if radius < 0:
        raise ValueError("radius must be nonnegative")

    pi = [v]
    parent = [-1]
    in_he = [-1]
    depth = [0]
    children: list[list[int]] = [[]]
    frontier = [0]
    for _ in range(radius):
        next_frontier = []
        for x in frontier:
            banned = -1 if in_he[x] < 0 else (in_he[x] ^ 1)
            for h in g.half_edges_at[pi[x]]:
                if h == banned:
                    continue
                node = len(pi)
                if node >= cap:
                    raise BallCapExceeded(
                        f"tree ball at vertex {v}, radius {radius} exceeds {cap} nodes"
                    )
                pi.append(g.targets[h])
                parent.append(x)
                in_he.append(h)
                depth.append(depth[x] + 1)
                children.append([])
                children[x].append(node)
                next_frontier.append(node)
        frontier = next_frontier
    return TreeBall(
        g,
        v,
        radius,
        tuple(pi),
        tuple(parent),
        tuple(in_he),
        tuple(tuple(c) for c in children),
        tuple(depth),
    )


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
        u = ends(g, stack[-1])[1] if stack else v
        total = 0
        for h in at[u]:
            if stack and h == stack[-1] ^ 1:
                total += count(r - 1, stack[:-1])
            else:
                total += count(r - 1, stack + (h,))
        memo[key] = total
        return total

    return [count(k, ()) for k in range(k_max + 1)]


def adjacency_by_edges(g: MultiGraph) -> np.ndarray:
    """The dense int64 adjacency matrix, one edge at a time: a loop adds 2 to
    its diagonal entry and parallel edges add up."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        a[u, v] += 1
        a[v, u] += 1
    return a


def matrix_walk_count(g: MultiGraph, v: int, k: int) -> int:
    """(A^k)[v][v] via exact integer matrix powers."""
    a = np.array(adjacency_by_edges(g), dtype=object)
    out = np.eye(g.n, dtype=object)
    for _ in range(k):
        out = out @ a
    return int(out[v][v])


def spectrum_by_eigh(g: MultiGraph) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues in nonincreasing order, Perron vector) from one dense
    eigh with every eigenvector, sign-fixed and normalized like
    eigen_spectrum's."""
    require_connected(g, "spectrum_by_eigh")
    vals, vecs = np.linalg.eigh(adjacency_by_edges(g).astype(np.float64))
    order = np.argsort(vals)[::-1]
    perron = vecs[:, order[0]].copy()
    if perron.sum() < 0:
        perron = -perron
    perron /= np.linalg.norm(perron)
    return vals[order], perron


def ldl_from_dsytrf(ldu: np.ndarray, ipiv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, D) with L D L^T the matrix that LAPACK dsytrf factored, from its
    lower-triangle output: L = P(1) L(1) P(2) L(2) ..., where P(k) swaps the
    block's last column with the one ipiv names and L(k) puts the stored
    multipliers below the block. Every column to the right of the
    block is still a unit vector when L(k) is applied, so L holds the stored
    floats exactly, rows permuted, like scipy.linalg.ldl's lu."""
    n = len(ipiv)
    lmat, dmat = np.eye(n), np.zeros((n, n))
    k = 0
    while k < n:
        step = 1 if ipiv[k] > 0 else 2
        p = abs(int(ipiv[k])) - 1
        last = k + step - 1
        lmat[:, [last, p]] = lmat[:, [p, last]]
        lmat[:, k : k + step] += lmat[:, k + step :] @ ldu[k + step :, k : k + step]
        block = np.tril(ldu[k : k + step, k : k + step])
        dmat[k : k + step, k : k + step] = block + np.tril(block, -1).T
        k += step
    return lmat, dmat


def ldl_backward_error(g: MultiGraph, s: float, lmat: np.ndarray, dmat: np.ndarray) -> float:
    """||L D L^T - (A - sI)||_2, with the product and the difference in long
    double so that their own rounding (about n * 1e-19 relative) stays far
    below the float64 factorization's error being measured."""
    wide = np.longdouble
    shifted = adjacency_by_edges(g).astype(wide) - wide(s) * np.eye(g.n, dtype=wide)
    lw = lmat.astype(wide)
    err = (lw @ dmat.astype(wide)) @ lw.T - shifted
    return float(np.linalg.norm(err.astype(np.float64), 2))


def tree_ball_walk_count(g: MultiGraph, v: int, k: int) -> int:
    """Closed walks of length k (even) at the root of the materialized radius
    k/2 cover-tree ball: the same quantity as backtracking_walk_profile's
    entry k by a third route. Cost is exponential in the max degree."""
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


def ball_by_full_bfs(g: MultiGraph, v: int, r: int) -> tuple[dict[int, int], MultiGraph]:
    """The radius-r ball around v as a depth map in BFS order, from a BFS
    over the whole graph on an adjacency list built from the edge tuple, and
    its induced subgraph from a scan of every edge: a reference for
    multigraph.ball, which visits only the ball, and for
    multigraph.induced_subgraph, which visits only the ball's half-edges."""
    # neighbours in half-edge id order (a loop listed twice), so the visiting
    # order is the one the library's BFS promises
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    depth = {u: d for u, d in dist.items() if d <= r}
    index = {u: i for i, u in enumerate(sorted(depth))}
    sub_edges = [
        (index[a], index[b])
        for (a, b) in g.edges
        if a in index and b in index
    ]
    return depth, MultiGraph.from_edges(len(index), sub_edges)


def ahu_code(b: MultiGraph, root: int) -> str:
    """Canonical parenthesis string of a rooted tree, from a BFS of the tree
    itself: a reference for the quotient's tree-ball codes."""
    order = [root]
    parent = {root: -1}
    for u in order:
        for h in b.half_edges_at[u]:
            w = b.targets[h]
            if w not in parent:
                parent[w] = u
                order.append(w)
    codes: dict[int, str] = {}
    for u in reversed(order):
        kids = sorted(codes[w] for w in (b.targets[h] for h in b.half_edges_at[u]) if parent.get(w) == u)
        codes[u] = "(" + "".join(kids) + ")"
    return codes[root]


def canonical_code_by_search(g: MultiGraph, colors) -> str:
    """multigraph.canonical_code without its twin-cell leaves: every node
    refines (over half_edges_at and targets, not the cached neighbour
    lists) and branches on one member per twin class of its first
    non-singleton cell, down to discrete leaves, and the smallest leaf code
    wins."""

    def refine(colors: list[int]) -> list[int]:
        classes = len(set(colors))
        while True:
            sigs = [
                (colors[v], tuple(sorted(colors[g.targets[h]] for h in g.half_edges_at[v])))
                for v in range(g.n)
            ]
            palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
            colors = [palette[s] for s in sigs]
            if len(palette) == classes:
                return colors
            classes = len(palette)

    def twins(u: int, w: int) -> bool:
        swap = {u: w, w: u}
        mapped = sorted(swap.get(g.targets[h], g.targets[h]) for h in g.half_edges_at[u])
        return mapped == sorted(g.targets[h] for h in g.half_edges_at[w])

    codes = []

    def search(colors: list[int]) -> None:
        colors = refine(colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            pairs = sorted((min(colors[u], colors[v]), max(colors[u], colors[v])) for u, v in g.edges)
            codes.append(f"{g.n};" + ",".join(f"{a}-{c}" for a, c in pairs))
            return
        reps: list[int] = []
        for m in target:
            if not any(twins(m, u) for u in reps):
                reps.append(m)
                search([2 * c - (v == m) for v, c in enumerate(colors)])

    search(list(colors))
    return min(codes)


def _tree_ball_by_count(g: MultiGraph, depth: dict[int, int]) -> bool:
    # connected, so a tree exactly when it holds |ball| - 1 edges
    edges = sum(1 for a, b in g.edges if a in depth and b in depth)
    return edges == len(depth) - 1


def tree_fraction_by_balls(g: MultiGraph, r: int) -> float:
    """localstats.tree_fraction one vertex at a time: a depth-limited BFS
    per vertex and a count of the edges with both ends in its ball."""
    return sum(_tree_ball_by_count(g, ball(g, v, r)) for v in range(g.n)) / g.n


def bs_histogram_by_balls(g: MultiGraph, r: int) -> dict[str, int]:
    """localstats.bs_histogram one vertex at a time: a depth-limited BFS per
    vertex, a tree ball coded off the cover quotient and a ball with a cycle
    by canonical_code_by_search, with the same cap and error message."""
    from coverspectra.localstats import CANON_CAP

    hist: dict[str, int] = {}
    for v in range(g.n):
        depth = ball(g, v, r)
        if _tree_ball_by_count(g, depth):
            code = "t" + quotient(g).ball_code(v, r)
        elif len(depth) > CANON_CAP:
            raise ValueError(
                f"ball at vertex {v} has {len(depth)} vertices, over the cap of {CANON_CAP}"
            )
        else:
            sub = induced_subgraph(g, depth)
            code = "g" + canonical_code_by_search(sub, [depth[u] for u in sorted(depth)])
        hist[code] = hist.get(code, 0) + 1
    return hist


def tree_ball_top_eigenvalue(tb: TreeBall, radius: int) -> float:
    """Top adjacency eigenvalue of the materialized ball cut at radius (node
    ids grow with depth, so the cut is a prefix): dense eigvalsh up to 200
    nodes, Lanczos (scipy eigsh) on larger balls, which reach 433,175 nodes
    on the corpus at radius 5."""
    size = sum(1 for d in tb.depth if d <= radius)
    if size == 1:
        return 0.0
    child = np.arange(1, size)
    par = np.array(tb.parent[1:size])
    if size <= 200:
        adj = np.zeros((size, size))
        adj[par, child] = adj[child, par] = 1.0
        return float(np.linalg.eigvalsh(adj)[-1])
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import eigsh

    rows = np.concatenate([par, child])
    cols = np.concatenate([child, par])
    adj = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(size, size)).tocsr()
    return float(eigsh(adj, k=1, which="LA", return_eigenvectors=False)[0])


def supersolution_by_fractions(g: MultiGraph, t: float, f) -> bool:
    """The supersolution check of rho._is_supersolution in Fraction
    arithmetic, one half-edge at a time: f > 0, every vertex sum of f is at
    most t, and 1 / (t - continuation sum) <= f[h] with a positive
    denominator."""
    t = Fraction(t)
    fr = [Fraction(x) for x in f]
    if any(x <= 0 for x in fr):
        return False
    vsum = [Fraction(0)] * g.n
    for h, x in enumerate(fr):
        vsum[ends(g, h)[0]] += x
    if max(vsum) > t:
        return False
    for h, x in enumerate(fr):
        den = t - (vsum[ends(g, h)[1]] - fr[h ^ 1])
        if den <= 0 or 1 / den > x:
            return False
    return True


# probe_status's shift: the least fixed point at t (1 - eta) clears the
# rounding of the supersolution check at t by a relative margin of about eta
PROBE_SHIFT = 1e-12


def probe_status(g: MultiGraph, t: float) -> str:
    """One threshold t from rho_tree's own primitives: "diverged" when
    monotone Newton from F = 0 refutes t (rho(T) >= t), "certified" when the
    least fixed point at t (1 - PROBE_SHIFT) passes the exact supersolution
    check at t (rho(T) <= t), else "uncertified"."""
    q = _Operators(quotient(g))
    diverged, f, _, solve = _newton(q, t, np.zeros(q.size))
    if diverged:
        return "diverged"
    # f is a subsolution below every supersolution at any t' < t too
    _, cert, _, _ = _newton(q, t * (1.0 - PROBE_SHIFT), f, solve)
    if _is_supersolution(g, t, cert, q.cls) is None:
        return "uncertified"
    return "certified"


def rho_by_bisection(g: MultiGraph, tol: float) -> tuple[float, float]:
    """A bracket (lo, hi) for rho(T) that never solves for the fold:
    bisection on probe_status from the best depth-6 walk-count root and
    the max degree. lo moves on a diverged probe and hi on a certified one;
    an uncertified midpoint is settled by probes a quarter of tol either
    side of it."""
    if g.m == 0:
        return 0.0, 0.0
    hi = float(g.max_degree)
    lo = min(max(max(rho_lower_sequence(g, v, 6)) for v in range(g.n)), hi)

    def probe(t: float) -> str:
        nonlocal lo, hi
        status = probe_status(g, t)
        if status == "certified":
            hi = t
        elif status == "diverged":
            lo = t
        return status

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if probe(mid) == "uncertified":
            probe(mid - 0.25 * tol)
            probe(mid + 0.25 * tol)
            break
    return lo, hi


def two_core_by_peel(g: MultiGraph) -> CoreDecomposition:
    """twocore.two_core by the graph's own peel, without the quotient:
    leaves are deleted one at a time, breadth first, until every remaining
    vertex has degree >= 2. ext_half_edges is in reverse peel order, so each
    half-edge's source is a core vertex or the target of an earlier entry;
    core_degrees is the peel's degree count on the survivors (loops count
    2). Requires a connected graph with a cycle."""
    assert g.is_connected and g.m >= g.n, "two_core_by_peel needs a connected graph with a cycle"
    deg = list(g.degrees)
    alive = [True] * g.n
    ext_hes: list[int] = []
    queue = deque(v for v in range(g.n) if deg[v] <= 1)
    # degrees only fall, so a vertex is queued once: at the start or on its step from 2 to 1
    while queue:
        u = queue.popleft()
        alive[u] = False
        for h in g.half_edges_at[u]:
            w = ends(g, h)[1]
            if alive[w]:
                # u's one live half-edge: its inverse points away from the core
                ext_hes.append(h ^ 1)
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)

    core_deg = {v: deg[v] for v in range(g.n) if alive[v]}
    ext = frozenset(v for v in range(g.n) if not alive[v])
    int_hes = frozenset(
        h for h in range(g.num_half_edges) if all(alive[v] for v in ends(g, h))
    )
    return CoreDecomposition(g, frozenset(core_deg), ext, int_hes, tuple(ext_hes[::-1]), core_deg)


def peel_by_rounds(q) -> tuple[dict[int, int], tuple[int, ...]]:
    """cover.Quotient.peel by its fixed point, one round at a time: each
    round rescans every class and adds, in class order, those whose
    continuations are all outward, at 1 + their largest height."""
    out: dict[int, int] = {}
    succ = [{b for b, _ in row} for row in q.C]
    while grown := [a for a, s in enumerate(succ) if a not in out and s <= out.keys()]:
        out.update({a: 1 + max((out[b] for b in succ[a]), default=0) for a in grown})
    flipped = {q.ends[a][::-1] for a in out}
    inner = [a not in out and ends not in flipped for a, ends in enumerate(q.ends)]
    return out, tuple(sum(m for a, m in row if inner[a]) for row in q.D)


def gamma_assignment(core, epsilon: Fraction) -> dict[int, Fraction]:
    """Interior weights one half-edge at a time, off the graph's own peel:
    1 + j * epsilon for the integer position j of each interior half-edge on
    its chain, walked from the half-edges leaving core vertices of core
    degree above 2. Requires a multicyclic core, where every chain ends."""
    g = core.graph
    if g.m - g.n < 1:
        raise ValueError("gamma_assignment requires a multicyclic graph")
    core_deg = core.core_degrees
    position: dict[int, int] = {}
    for h in sorted(h for h in core.int_half_edges if core_deg[ends(g, h)[0]] > 2):
        j = position[h] = 0
        while core_deg[ends(g, h)[1]] == 2:  # a chain vertex: one way on
            at = g.half_edges_at[ends(g, h)[1]]
            (h,) = [h2 for h2 in at if h2 != h ^ 1 and h2 in core.int_half_edges]
            j = position[h] = j + 1
    assert set(position) == core.int_half_edges, "a chain misses an interior half-edge"
    return {h: 1 + j * epsilon for h, j in position.items()}


def delta_assignment(core) -> dict[int, Fraction]:
    """Pendant-tree weights in one pass over the graph's peel order
    (core.ext_half_edges): 1 on half-edges leaving the core, and a
    half-edge out of a pendant vertex weighs that vertex's inbound weight
    over its degree."""
    g = core.graph
    weights: dict[int, Fraction] = {}
    inbound: dict[int, Fraction] = {}
    for h in core.ext_half_edges:
        u, w = ends(g, h)
        weights[h] = inbound[w] = Fraction(1) if u in core.core_vertices else inbound[u] / g.degrees[u]
    return weights


def per_half_edge(g: MultiGraph, weights: dict) -> dict:
    """Class weights lifted to the half-edges of their classes."""
    return {h: weights[a] for h, a in enumerate(quotient(g).cls.tolist()) if a in weights}


class HalfEdgeKernel:
    """gapcert._Kernel over half-edges instead of classes: y per vertex,
    weights per half-edge, one type per interior half-edge, per pendant
    half-edge directed away from the core and per core vertex, whose row
    sums the child terms of the half-edges at its head (at the vertex for
    a root) one padded column at a time, in g.half_edges_at order."""

    def __init__(self, g: MultiGraph, y, gamma_weights, delta_weights):
        from coverspectra.gapcert import ROLE_EXT, ROLE_INT, ROLE_ROOT

        y = np.asarray(y, dtype=float)
        src = y[np.array(g.sources, dtype=np.intp)]
        tgt = y[np.array(g.targets, dtype=np.intp)]
        self.child_ratio = tgt / src
        self.parent_ratio = src / tgt
        self.products = src * tgt
        self.weights = np.zeros(g.num_half_edges)
        self.interior = np.zeros(g.num_half_edges, dtype=bool)
        for h, w in gamma_weights.items():
            self.weights[h] = float(w)
            self.interior[h] = True
        for h, w in delta_weights.items():
            self.weights[h] = float(w)

        typed = [*gamma_weights, *delta_weights]
        core_vertices = sorted({g.sources[h] for h in gamma_weights})
        self.keys = (
            [(h, ROLE_INT) for h in gamma_weights]
            + [(h, ROLE_EXT) for h in delta_weights]
            + [(v, ROLE_ROOT) for v in core_vertices]
        )
        self.typed = np.array(typed, dtype=np.intp)
        rows = [[h2 for h2 in g.half_edges_at[g.targets[h]] if h2 != (h ^ 1)] for h in typed]
        rows += [g.half_edges_at[v] for v in core_vertices]
        width = max(map(len, rows), default=0)
        self.children = np.full((len(rows), width), g.num_half_edges, dtype=np.intp)
        for row, hs in zip(self.children, rows):
            row[: len(hs)] = hs

    def __call__(self, gammas, deltas) -> np.ndarray:
        scale = np.where(self.interior, np.array(gammas)[:, None], np.array(deltas)[:, None])
        factor = 1.0 + self.weights * scale / self.products
        child = np.where(self.interior, self.child_ratio / factor, self.child_ratio * factor)
        parent = np.where(self.interior, self.parent_ratio * factor, self.parent_ratio / factor)
        child = np.hstack([child, np.zeros((len(child), 1))])
        values = np.zeros((len(child), len(self.keys)))
        values[:, : len(self.typed)] = parent[:, self.typed]
        for column in self.children.T:
            values += child[:, column]
        return values


def g_values_by_fractions(g: MultiGraph, y, gamma_weights, delta_weights, gamma, delta):
    """The exact g of every type of gapcert._Kernel, in Fractions of the
    float y (one entry per colour), of the exact class weights and of
    (gamma, delta). Each type is read at one representative, a half-edge of
    the class or a vertex of the colour, summing over its half-edges in g.
    Keyed like _Kernel.keys."""
    from coverspectra.gapcert import ROLE_EXT, ROLE_INT, ROLE_ROOT

    q = quotient(g)
    cls = q.cls.tolist()
    yv = [Fraction(float(y[c])) for c in q.colors]

    def factor(h: int) -> Fraction:
        u, w = ends(g, h)
        a = cls[h]
        weight, scale = (gamma_weights[a], gamma) if a in gamma_weights else (delta_weights[a], delta)
        return 1 + weight * Fraction(scale) / (yv[u] * yv[w])

    def child(h: int) -> Fraction:
        u, w = ends(g, h)
        # interior factors divide going down and multiply going up
        return yv[w] / yv[u] / factor(h) if cls[h] in gamma_weights else yv[w] / yv[u] * factor(h)

    first = {}
    for h, a in enumerate(cls):
        first.setdefault(a, h)
    values = {}
    for a, role in [(a, ROLE_INT) for a in gamma_weights] + [(a, ROLE_EXT) for a in delta_weights]:
        h = first[a]
        p, u = ends(g, h)
        total = yv[p] / yv[u] * factor(h) if role == ROLE_INT else yv[p] / yv[u] / factor(h)
        values[(a, role)] = total + sum(child(h2) for h2 in g.half_edges_at[u] if h2 != h ^ 1)
    for c in sorted({q.ends[a][0] for a in gamma_weights}):
        values[(c, ROLE_ROOT)] = sum(child(h) for h in g.half_edges_at[q.members[c][0]])
    return values


def collatz_wielandt_by_fractions(g: MultiGraph, y) -> list[Fraction]:
    """(A y)_v / y_v at one vertex v of each colour, in Fractions of the
    float y (one entry per colour), summed over v's half-edges."""
    q = quotient(g)
    yv = [Fraction(float(y[c])) for c in q.colors]
    return [
        sum(yv[ends(g, h)[1]] for h in g.half_edges_at[vs[0]]) / yv[vs[0]] for vs in q.members
    ]


def delta_by_dfs(core) -> dict[int, Fraction]:
    """Pendant-tree weights by a depth-first walk down from the core, without
    the peel order of core.ext_half_edges: 1 on each half-edge leaving the
    core, then a vertex with d onward half-edges gives each of them 1/(d+1)
    of its inbound weight."""
    g = core.graph
    ext = set(core.ext_half_edges)
    stack = sorted(h for h in ext if g.sources[h] in core.core_vertices)
    weights = {h: Fraction(1) for h in stack}
    while stack:
        h = stack.pop()
        onward = [h2 for h2 in g.half_edges_at[g.targets[h]] if h2 != (h ^ 1)]
        for h2 in onward:
            assert h2 in ext, "pendant tree walked into the core"
            weights[h2] = Fraction(weights[h], len(onward) + 1)
            stack.append(h2)
    assert set(weights) == ext, "exterior weights missed some half-edges"
    return weights


def mass_transport_by_distances(g: MultiGraph, R: int, length: int):
    """localstats.mass_transport_check from the n x n table of BFS
    distances over the whole graph: a reference for the version that reads
    radius-R balls."""
    from coverspectra.localstats import MassTransportReport, cycle_stats

    n = g.n
    stats = cycle_stats(g, length)
    on_cycle = [c > 0 for c in stats.counts]
    dist = [g.distances_from(v) for v in range(n)]
    mass = Fraction(
        sum(1 for o in range(n) if on_cycle[o] for d in dist[o] if 0 <= d <= R), n
    )
    hypothesis = all(sum(1 for d in dist[v] if 0 <= d <= R) >= R for v in range(n))
    nr_total = sum(
        1
        for v in range(n)
        for c in stats.cycles
        if min(dist[v][u] for u in c.vertex_set) <= R
    )
    nr_average = Fraction(nr_total, n)
    nr_bound = Fraction(R, length) * Fraction(sum(on_cycle), n)
    nr_holds = (nr_average >= nr_bound) if hypothesis else None
    return MassTransportReport(
        R, length, mass, mass, hypothesis, nr_average, nr_bound, nr_holds
    )


def gnp_giant(n: int, seed: int) -> MultiGraph:
    """Largest component of G(n, 3/n), pairs u < v scanned in order, its
    vertices relabelled in sorted order: a graph whose quotient has almost
    as many classes as half-edges."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 3 / n]
    comp = max(MultiGraph.from_edges(n, edges).connected_components(), key=len)
    index = {u: i for i, u in enumerate(comp)}
    return MultiGraph.from_edges(
        len(comp), [(index[a], index[b]) for a, b in edges if a in index]
    )


def connected_lift(base: MultiGraph, k: int) -> MultiGraph:
    """The first connected k-lift of base over seeds 0, 1, 2, ..."""
    for seed in range(100):
        lift, _ = random_lift(base, k, seed)
        if lift.is_connected:
            return lift
    raise AssertionError("no connected lift")  # pragma: no cover


def corpus_by_scan(max_vertices: int = 5, max_edges: int = 7) -> tuple[MultiGraph, ...]:
    """small_connected_multigraphs by brute force.

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
