"""Universal cover machinery: purely backtracking closed-walk counts and
vertex orbit distributions.

The universal cover of a connected multigraph is the tree of non-backtracking
walks from a base vertex; closed walks of the base graph that lift to closed
walks of the tree are exactly the walks whose half-edge word reduces to the
empty word under cancellation of adjacent inverse pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .multigraph import MultiGraph, refine, require_connected


# -- purely backtracking closed walks -----------------------------------------
#
# N_k(v) counts length-k closed walks at v whose half-edge word cancels to the
# empty word, equivalently closed walks of the universal cover at a lift of v.
# Rather than materializing a radius k/2 ball (whose size is exponential in the
# max degree), we solve the first-return convolution system over half-edges:
#
#   branch[h][j] = closed walks of length j at the head of h that stay in the
#                  branch hanging below h (never step back along inv(h) at the
#                  bottom of the excursion stack),
#
#   branch[h][j] = sum over continuations h' of h, a + b = j - 2 of
#                  branch[h'][a] * branch[h][b],
#
# and the same decomposition at the root over all half-edges at v. Counts are
# exact integers.


# callers reuse one graph's tables across its vertices; a few entries cover
# that without holding on to every graph of a sweep
@lru_cache(maxsize=8)
def _branch_tables(g: MultiGraph, k_max: int) -> tuple[tuple[int, ...], ...]:
    hh = g.num_half_edges
    continuations = [
        tuple(h2 for h2 in g.half_edges_at[g.targets[h]] if h2 != (h ^ 1))
        for h in range(hh)
    ]
    branch = [[0] * (k_max + 1) for _ in range(hh)]
    for h in range(hh):
        branch[h][0] = 1
    for j in range(2, k_max + 1, 2):
        for h in range(hh):
            total = 0
            bh = branch[h]
            for h2 in continuations[h]:
                b2 = branch[h2]
                total += sum(b2[a] * bh[j - 2 - a] for a in range(0, j - 1, 2))
            branch[h][j] = total
    return tuple(tuple(row) for row in branch)


def backtracking_walk_profile(g: MultiGraph, v: int, k_max: int) -> list[int]:
    """[N_k(g, v) for k in 0..k_max]; odd entries are zero."""
    require_connected(g, "backtracking_walk_profile")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if k_max < 0:
        raise ValueError("walk length must be nonnegative")
    branch = _branch_tables(g, k_max if k_max % 2 == 0 else k_max - 1)
    counts = [0] * (k_max + 1)
    counts[0] = 1
    for k in range(2, k_max + 1, 2):
        total = 0
        for h in g.half_edges_at[v]:
            bh = branch[h]
            total += sum(bh[a] * counts[k - 2 - a] for a in range(0, k - 1, 2))
        counts[k] = total
    return counts


def backtracking_walk_count(g: MultiGraph, v: int, k: int) -> int:
    """Exact count of length-k purely backtracking closed walks at v (k even)."""
    if k < 0 or k % 2 != 0:
        raise ValueError(f"walk length must be even and nonnegative, got {k}")
    return backtracking_walk_profile(g, v, k)[k]


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
    """Colour refinement from the uniform colouring (multigraph.refine)."""
    require_connected(g, "orbit_distribution")
    colors, rounds = refine(g, [0] * g.n)

    members: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        members.setdefault(c, []).append(v)
    classes = tuple(
        OrbitClass(min(vs), tuple(vs), Fraction(len(vs), g.n))
        for _, vs in sorted(members.items())
    )
    return OrbitDistribution(classes, tuple(colors), rounds)
