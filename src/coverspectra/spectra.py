"""Adjacency spectra and exact closed-walk counts.

Up to a size cap lambda1 and the Perron vector come from the k x k colour
matrix of the cover's quotient (cover.quotient): its colours form an
equitable partition (Godsil & Royle, Algebraic Graph Theory, section 9.3).
That matrix is the same on every lift of a graph, and so is lambda1. The
other eigenvalues come from one dense eigenvalues-only solve when first
read. Above the cap lambda1 and its vector come from an iterative solve on
the graph's CSR adjacency (MultiGraph.adjacency). Walk counts are done in
arbitrary-precision integers so that combinatorial identities can be
asserted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cover import quotient
from .multigraph import MultiGraph, require_connected

DENSE_EIGEN_CAP = 4096
PERRON_RESIDUAL_FACTOR = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """lambda1 and the unit Perron vector of a graph, and its eigenvalues in
    nonincreasing order, solved for on first read and then kept.

    full is False when the graph is larger than the dense cap; then the
    eigenvalues are lambda1 alone.
    """

    lambda1: float
    perron: np.ndarray
    graph: MultiGraph = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.perron)

    @property
    def full(self) -> bool:
        return self.n <= DENSE_EIGEN_CAP

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        if not self.full:
            return np.array([self.lambda1])
        return np.linalg.eigvalsh(self.graph.adjacency_matrix().astype(np.float64))[::-1]


def eigen_spectrum(g: MultiGraph) -> Spectrum:
    """lambda1 and the Perron vector of a connected multigraph's adjacency.

    Up to DENSE_EIGEN_CAP vertices both come from the quotient's colour
    matrix (_quotient_perron); above it, from eigsh on g.adjacency.
    No n x n array is formed unless Spectrum.eigenvalues is read. The Perron
    vector is normalized to unit 2-norm, strictly positive, with residual
    ||A y - lambda1 y|| at most 1e-10 * max degree.
    """
    require_connected(g, "eigen_spectrum")
    sources = np.array(g.sources, dtype=np.intp)
    targets = np.array(g.targets, dtype=np.intp)
    if g.n <= DENSE_EIGEN_CAP:
        lam, perron = _quotient_perron(g)
    else:
        from scipy.sparse.linalg import eigsh

        v0 = np.ones(g.n) / np.sqrt(g.n)
        top, vec = eigsh(g.adjacency.astype(float), k=1, which="LA", v0=v0)
        lam, perron = float(top[0]), vec[:, 0].copy()

    if perron.sum() < 0:
        perron = -perron
    perron /= np.linalg.norm(perron)
    if g.m > 0 and perron.min() <= 0:
        raise ArithmeticError("Perron vector not strictly positive; eigensolve failed")
    ay = np.bincount(sources, weights=perron[targets], minlength=g.n)
    residual = float(np.linalg.norm(ay - lam * perron))
    if g.m > 0 and residual > PERRON_RESIDUAL_FACTOR * g.max_degree:
        raise ArithmeticError(f"Perron pair residual {residual:.3e} above tolerance")
    return Spectrum(lam, perron, g)


def _quotient_perron(g: MultiGraph) -> tuple[float, np.ndarray]:
    """lambda1 and A's Perron vector from the dense colour matrix B and the
    colour sizes of cover.quotient(g).

    With s_c the size of colour c, s_c B[c, c'] = s_c' B[c', c], so
    S = sqrt(B o B^T) = diag(s)^(1/2) B diag(s)^(-1/2) is symmetric and
    similar to B; its top eigenvector u lifts to y_v = u[c(v)] /
    sqrt(s[c(v)]), which has unit norm.
    """
    from scipy.linalg import eigh

    q = quotient(g)
    colors = np.array(q.colors)
    k, b = len(q.members), q.colour_matrix(dense=True)
    # square roots of integers: finite, so skip scipy's scan
    top, u = eigh(np.sqrt(b * b.T), subset_by_index=(k - 1, k - 1), check_finite=False)
    root = np.sqrt([len(vs) for vs in q.members])
    return float(top[0]), u[colors, 0] / root[colors]


def wr_fraction(spectrum: Spectrum, rho: float, eta: float = 1e-9) -> float:
    """Fraction of eigenvalues (all of them, top included) with |lam| <= rho + eta."""
    if not spectrum.full:
        raise ValueError("wr_fraction needs the full spectrum; input was truncated")
    if not 0 <= eta < float("inf"):  # NaN fails too; +inf would count every eigenvalue
        raise ValueError("eta must be finite and nonnegative")
    if np.isnan(rho):
        raise ValueError("rho must not be NaN")
    inside = int(np.count_nonzero(np.abs(spectrum.eigenvalues) <= rho + eta))
    return inside / len(spectrum.eigenvalues)


def closed_walk_profile(g: MultiGraph, v: int, k_max: int) -> list[int]:
    """Exact counts of length-k closed walks at v for k in 0..k_max, in one
    sweep that pushes each vertex's count along its half-edges. Each walk
    step picks a half-edge at the current vertex, so a loop offers two
    continuations per visit."""
    require_connected(g, "closed_walk_profile")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if k_max < 0:
        raise ValueError("walk length must be nonnegative")
    targets = g.targets
    x = [0] * g.n
    x[v] = 1
    counts = [x[v]]
    for _ in range(k_max):
        y = [0] * g.n
        for u in range(g.n):
            xu = x[u]
            if xu:
                for h in g.half_edges_at[u]:
                    y[targets[h]] += xu
        x = y
        counts.append(x[v])
    return counts
