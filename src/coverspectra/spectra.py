"""Adjacency spectra and exact closed-walk counts.

Up to a size cap lambda1 and the Perron vector come from the k x k colour
matrix of the cover's quotient (cover.quotient): its colours form an
equitable partition (Godsil & Royle, Algebraic Graph Theory, section 9.3).
The quotient keeps the matrix's Perron pair, which rho_tree reads too.
That matrix is the same on every lift of a graph, and so is lambda1. The
other eigenvalues come from one dense eigenvalues-only solve when first
read, up to the cap only. Above the cap lambda1 and its vector come from
an iterative solve on the graph's CSR adjacency (MultiGraph.adjacency),
from which every n x n matrix here is filled too. The weakly-Ramanujan
fraction counts eigenvalues by the inertia of four shifted LDL^T
factorizations, behind a backward-error guard, and falls back to the
eigenvalues where the guard refuses; it too is bounded by the dense cap.
Walk counts are done in arbitrary-precision integers so that combinatorial
identities can be asserted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cover import quotient
from .multigraph import MultiGraph, require_connected, require_integer

DENSE_EIGEN_CAP = 4096
PERRON_RESIDUAL_FACTOR = 1e-10
_INERTIA_WINDOW = 1e-6  # delta of wr_fraction's count windows, per unit of max degree


@dataclass(frozen=True)
class Spectrum:
    """lambda1 and the unit Perron vector of a graph, and its eigenvalues in
    nonincreasing order, solved for on first read and then kept.

    full is False when the graph is larger than the dense cap; then reading
    the eigenvalues raises ValueError.
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
            raise ValueError(f"n = {self.n} is over the dense cap of {DENSE_EIGEN_CAP}")
        return np.linalg.eigvalsh(self.graph.adjacency.astype(np.float64).toarray())[::-1]


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
    """lambda1 and A's Perron vector, lifted from cover.Quotient.perron."""
    q = quotient(g)
    lam, x = q.perron
    return lam, x[np.array(q.colors)]


def wr_fraction(spectrum: Spectrum, rho: float, eta: float = 1e-9) -> float:
    """Fraction of eigenvalues (all of them, top included) with |lam| <= rho + eta.

    With t = rho + eta the count is #{lam <= t} - #{lam < -t}, each read off
    inertia counts (_inertia) at the shifts t - delta, t + delta and
    -t - delta, -t + delta, where delta = 1e-6 * max(1, max degree). By
    Sylvester's law of inertia (Parlett, The Symmetric Eigenvalue Problem,
    section 3.3) the number of negative pivots of the computed factors
    L D L^T of A - sI is the number of negative eigenvalues of A - sI + E,
    and by Weyl's inequality these lie within ||E||_2 of the eigenvalues of
    A - sI. So when the bound beta on ||E||_2 is below delta / 2 at every
    shift, c(t - delta) <= #{lam < t} <= #{lam <= t} <= c(t + delta), and
    if the counts across each window agree the count is exact and no
    eigenvalue lies within delta / 2 of +-t, far outside eigvalsh's own
    error. Otherwise (a count changes inside a window, beta is too large,
    or a pivot is exactly zero) the eigenvalues are counted from
    Spectrum.eigenvalues, one dense eigvalsh. Either way the graph must be
    within DENSE_EIGEN_CAP.
    """
    if not spectrum.full:
        raise ValueError("wr_fraction needs the full spectrum; input was truncated")
    if not 0 <= eta < float("inf"):  # NaN fails too; +inf would count every eigenvalue
        raise ValueError("eta must be finite and nonnegative")
    if np.isnan(rho):
        raise ValueError("rho must not be NaN")
    t = rho + eta
    if t < 0:
        return 0.0
    if t == float("inf"):
        return 1.0
    g = spectrum.graph
    delta = _INERTIA_WINDOW * max(1, g.max_degree)
    counts, betas = zip(*_inertia(g, (t - delta, t + delta, -t - delta, -t + delta)))
    if counts[0] == counts[1] and counts[2] == counts[3] and all(b < delta / 2 for b in betas):
        return (counts[1] - counts[2]) / spectrum.n
    inside = int(np.count_nonzero(np.abs(spectrum.eigenvalues) <= t))
    return inside / len(spectrum.eigenvalues)


def _inertia(g: MultiGraph, shifts) -> list[tuple[int, float]]:
    """For each shift s, (c, beta): c is the number of negative eigenvalues
    of the computed Bunch-Kaufman factors L D L^T = P (A - sI) P^T + E
    (LAPACK dsytrf on the lower triangle, filled from the entries of
    g.adjacency with row >= column), and beta >= ||E||_2; beta is inf when
    a pivot is exactly zero.

    c counts the negative 1 x 1 pivots plus one per 2 x 2 block: the
    Bunch-Kaufman rule takes a 2 x 2 pivot [[a, b], [b, c]] only when
    |a| |c| < alpha^2 b^2 with alpha^2 ~ 0.41, so its determinant is
    negative.

    beta rests on Higham (Accuracy and Stability of Numerical Algorithms,
    2nd ed., Thm 11.3): |E| <= p(n) u (|A - sI| + |L| |D| |L^T|) + O(u^2)
    with p linear. We take p(n) = 4 (n + 2). An entry of the Schur
    complement is updated at most n - 1 times, at most four roundings each
    (the reciprocal pivot, the scaled multiplier, the product and the
    subtraction); the two spare steps cover the rounding of the shifted
    diagonal, LAPACK's 2 x 2 solves and the O(u^2) term, of relative size
    (p(n) u)^2 < 1e-23 up to DENSE_EIGEN_CAP. In the 2-norm, ||A - sI||_2 <=
    max degree + |s|. M = |L| |D| |L^T| is nonnegative and symmetric, so
    ||M||_2 = x^T M x for a unit x >= 0 (Perron-Frobenius). With y = |L^T| x
    and 2 |b| y1 y2 <= |b| (y1^2 + y2^2) on a 2 x 2 block, x^T M x <=
    y^T D' y, where D' is diagonal: |d| on a 1 x 1 block, |a| + |b| and
    |c| + |b| on a 2 x 2 one. That is at most ||D'^(1/2) |L^T| ||_F^2 =
    sum_k D'_k ||L e_k||^2. Permuting rows leaves a column's norm alone, so
    the norms are read off dsytrf's product-form columns without building L.
    tests/test_spectra.py checks beta against the measured ||E||_2.
    """
    from scipy.linalg.lapack import dsytrf

    n = g.n
    adj = g.adjacency.tocoo()
    lower = adj.row >= adj.col
    cells, counts = adj.row[lower] + n * adj.col[lower], adj.data[lower]
    buf = np.empty(n * n)
    a = buf.reshape((n, n), order="F")
    gamma = 4 * (n + 2) * np.finfo(float).eps / 2
    out = []
    for s in shifts:
        buf.fill(0.0)
        buf[cells] = counts
        buf[:: n + 1] -= s
        # lwork = n runs the unblocked dsytf2, whose rank-1 updates skip zero
        # multipliers: 3 to 4 times faster than the blocked code on sparse A
        ldu, ipiv, info = dsytrf(a, lower=1, overwrite_a=1)
        if info > 0:
            out.append((-1, float("inf")))
            continue
        # a 2 x 2 block at k, k + 1 has ipiv[k] = ipiv[k + 1] < 0, so the
        # negative entries come in consecutive pairs, one pair per block
        first = np.flatnonzero(ipiv < 0)[::2]
        d = ldu.diagonal().copy()
        b = np.abs(ldu[first + 1, first])
        count = int(np.count_nonzero(d[ipiv > 0] < 0)) + len(first)
        majorant = np.abs(d)
        majorant[first] += b
        majorant[first + 1] += b
        # squared column norms of L: the strict lower triangle less each block's b
        np.fill_diagonal(ldu, 0.0)
        ldu[first + 1, first] = 0.0
        mass = np.dot(majorant, 1.0 + np.multiply(ldu, ldu, out=ldu).sum(axis=0))
        out.append((count, float(gamma * (g.max_degree + abs(s) + mass))))
    return out


def closed_walk_profile(g: MultiGraph, v: int, k_max: int) -> list[int]:
    """Exact counts of length-k closed walks at v for k in 0..k_max, in one
    sweep that pushes each vertex's count along its half-edges. Each walk
    step picks a half-edge at the current vertex, so a loop offers two
    continuations per visit."""
    require_connected(g, "closed_walk_profile")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    require_integer(k_max, "walk length")
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
