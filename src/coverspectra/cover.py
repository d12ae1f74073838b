"""Universal cover machinery: the cover's quotient, purely backtracking
closed-walk counts and vertex orbit distributions.

The universal cover of a connected multigraph is the tree of non-backtracking
walks from a base vertex; closed walks of the base graph that lift to closed
walks of the tree are exactly the walks whose half-edge word reduces to the
empty word under cancellation of adjacent inverse pairs.

Quotient. Let the vertex colours be the degree refinement (refine from the
uniform colouring; Leighton, JCTB 1982) and the class of a half-edge the
pair (colour of its source, colour of its target). The partition is
equitable: every class-a half-edge has exactly C[a, b] continuations in
class b, and every colour-c vertex carries D[c, a] half-edges of class a.
So C and D determine the cover: the walk counts and tree-ball codes here,
rho's probes and its ball pivots run on them, at the number of classes (1 on
a regular graph, 3 on any lift of the bowtie).

Walk counts. N_k(v) counts length-k closed walks at v whose half-edge word
cancels to the empty word: closed walks of the cover at a lift of v. With
branch[a][s] the closed walks of length 2s at the head of a class-a
half-edge h that stay in the branch below h (never step back along h ^ 1
at the bottom of the excursion stack), first returns give

    branch[a][s] = sum over b, i + i' = s - 1 of C[a, b] branch[b][i] branch[a][i']
    N_2s(v) = sum over a, i + i' = s - 1 of D[colour of v, a] branch[a][i] N_2i'(v)

in exact integers, with no ball materialized; odd lengths give none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

import numpy as np

from .multigraph import MultiGraph, refine, require_connected, require_integer


class Quotient:
    """The quotient of g (module docstring). colors and rounds are refine's,
    cls[h] is half-edge h's class (numbered by first half-edge), ends[a] its
    (source, target) colours, and C[a] and D[c] list the pairs (b, C[a, b])
    and (a, D[c, a]) of nonzero counts in increasing order (count_matrix
    turns such rows into a matrix). members[c] lists the colour-c vertices in
    increasing order. The 2-core's peel is built on first read. The walk
    tables only grow: branch[a][s] does not depend on how deep they go; the
    ball codes are memoized the same way."""

    def __init__(self, g: MultiGraph):
        colors, self.rounds = refine(g, [0] * g.n)
        self.colors = tuple(colors)
        ids: dict[tuple[int, int], int] = {}
        cls = [
            ids.setdefault((colors[u], colors[v]), len(ids)) for u, v in zip(g.sources, g.targets)
        ]
        self.cls = np.array(cls, dtype=np.intp)
        self.size = len(ids)
        self.ends = tuple(ids)

        def counts(half_edges, skip: int = -1) -> tuple[tuple[int, int], ...]:
            out: dict[int, int] = {}
            for h in half_edges:
                if h != skip:
                    out[cls[h]] = out.get(cls[h], 0) + 1
            return tuple(sorted(out.items()))

        groups: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            groups.setdefault(c, []).append(v)
        self.members = tuple(tuple(groups[c]) for c in range(len(groups)))
        # any member of a colour or a class will do: the partition is equitable
        self.D = tuple(counts(g.half_edges_at[vs[0]]) for vs in self.members)
        class_rep = {a: h for h, a in enumerate(cls)}  # keys in class order
        self.C = tuple(counts(g.half_edges_at[g.targets[h]], h ^ 1) for h in class_rep.values())
        self._branch = [[1] for _ in range(self.size)]
        self._codes: dict[tuple, str] = {}

    @cached_property
    def perron(self) -> tuple[float, np.ndarray]:
        """lambda1 and B's Perron vector x, of positive sum and read-only. With
        s the colour sizes, S = sqrt(B o B^T) = diag(s)^(1/2) B diag(s)^(-1/2)
        is symmetric; its top eigenvector u (one dense eigh) gives x = u /
        sqrt(s), whose lift x[colour of v] is a unit Perron vector of A."""
        from scipy.linalg import eigh

        k, b = len(self.members), self.colour_matrix(dense=True)
        # square roots of integers: finite, so skip scipy's scan
        top, u = eigh(np.sqrt(b * b.T), subset_by_index=(k - 1, k - 1), check_finite=False)
        x = u[:, 0] / np.sqrt([len(vs) for vs in self.members]) * np.sign(u[:, 0].sum())
        x.flags.writeable = False
        return float(top[0]), x

    def colour_matrix(self, dense: bool):
        """The k x k colour matrix B, by count_matrix: B[c, c'] counts the
        colour-c' neighbours of a colour-c vertex, a loop twice."""
        rows = [[(self.ends[a][1], m) for a, m in row] for row in self.D]
        return count_matrix(rows, len(rows), dense)

    @cached_property
    def peel(self) -> tuple[dict[int, int], tuple[int, ...]]:
        """The 2-core: (outward, core degree per colour). outward, the least
        fixed point of "all continuations are outward", maps each class into
        a pendant tree to the tree's height (1 into a leaf), the round it
        joins at. A core degree counts the interior half-edges at a vertex:
        of classes neither outward nor reversed outward.

        A worklist: each class counts its continuation classes not yet
        outward, and joins, in class order, the round after that count
        reaches 0; a round's height is its number."""
        out: dict[int, int] = {}
        pending = [len(row) for row in self.C]
        preds: list[list[int]] = [[] for _ in self.C]
        for a, row in enumerate(self.C):
            for b, _ in row:
                preds[b].append(a)
        grown, height = [a for a, n in enumerate(pending) if not n], 1
        while grown:
            out.update(dict.fromkeys(grown, height))
            ready = []
            for b in grown:
                for a in preds[b]:
                    pending[a] -= 1
                    if not pending[a]:
                        ready.append(a)
            grown, height = sorted(ready), height + 1
        flipped = {self.ends[a][::-1] for a in out}
        inner = [a not in out and ends not in flipped for a, ends in enumerate(self.ends)]
        return out, tuple(sum(m for a, m in row if inner[a]) for row in self.D)

    def walk_profile(self, color: int, k_max: int) -> list[int]:
        """[N_k(v) for k in 0..k_max] at any vertex v of the colour."""
        half = k_max // 2
        branch = self._branch
        for s in range(len(branch[0]) if branch else 1, half + 1):
            for row, continuations in zip(branch, self.C):
                # row holds branch[a][:s]; map stops at the end of rev
                rev = row[::-1]
                total = 0
                for b, m in continuations:
                    total += m * sum(map(mul, branch[b], rev))
                row.append(total)
        roots = [1]
        for s in range(1, half + 1):
            rev = roots[::-1]
            roots.append(sum(m * sum(map(mul, branch[a], rev)) for a, m in self.D[color]))
        counts = [0] * (k_max + 1)
        counts[::2] = roots
        return counts

    def ball_code(self, v: int, r: int) -> str:
        """Parenthesis (AHU) code of the cover's radius-r ball at vertex v: a
        node wraps the sorted codes of its children, each repeated by its
        multiplicity; the root's children are its D row, those of a class-a
        half-edge's head its C[a] continuations."""
        return self._code(self.D[self.colors[v]], r)

    def _code(self, children: tuple[tuple[int, int], ...], depth: int) -> str:
        key = (children, depth)
        if key not in self._codes:
            kids = sorted((self._code(self.C[b], depth - 1), m) for b, m in children) if depth else ()
            self._codes[key] = "(" + "".join(code * m for code, m in kids) + ")"
        return self._codes[key]


def count_matrix(rows, width: int, dense: bool):
    """The float64 matrix of rows of (column, count) pairs, no column twice
    in a row, such as the quotient's C and D: a dense array, or a CSR matrix
    built straight from its index arrays."""
    cols = [j for row in rows for j, _ in row]
    vals = [float(m) for row in rows for _, m in row]
    if dense:
        out = np.zeros((len(rows), width))
        out[[i for i, row in enumerate(rows) for _ in row], cols] = vals
        return out
    from scipy.sparse import csr_matrix

    # int32 indices skip scipy's upcast check
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int32)
    return csr_matrix((vals, np.array(cols, np.int32), indptr), (len(rows), width))


# one graph's quotient serves its walks, ball codes, rho and orbits; a few
# entries do that without holding on to every graph of a sweep
@lru_cache(maxsize=8)
def quotient(g: MultiGraph) -> Quotient:
    return Quotient(g)


def backtracking_walk_profile(g: MultiGraph, v: int, k_max: int) -> list[int]:
    """[N_k(g, v) for k in 0..k_max]; odd entries are zero."""
    require_connected(g, "backtracking_walk_profile")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    require_integer(k_max, "walk length")
    if k_max < 0:
        raise ValueError("walk length must be nonnegative")
    q = quotient(g)
    return q.walk_profile(q.colors[v], k_max)


# -- orbit distribution --------------------------------------------------------


@dataclass(frozen=True)
class OrbitClass:
    representative: int
    members: tuple[int, ...]
    p: Fraction


@dataclass(frozen=True)
class OrbitDistribution:
    """Coarsest equitable partition of the vertices.

    Two vertices land in the same class exactly when their rooted universal
    covers are isomorphic, so p lists the proportions of cover types.
    """

    classes: tuple[OrbitClass, ...]
    colors: tuple[int, ...]
    rounds: int

    @property
    def proportions(self) -> tuple[Fraction, ...]:
        return tuple(c.p for c in self.classes)


def orbit_distribution(g: MultiGraph) -> OrbitDistribution:
    """The colours of the cover's quotient: colour refinement from the
    uniform colouring (multigraph.refine)."""
    require_connected(g, "orbit_distribution")
    q = quotient(g)
    classes = tuple(OrbitClass(vs[0], vs, Fraction(len(vs), g.n)) for vs in q.members)
    return OrbitDistribution(classes, q.colors, q.rounds)
