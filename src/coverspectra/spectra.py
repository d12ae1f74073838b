"""Adjacency spectra and exact closed-walk counts.

Up to a size cap the eigenvalues come from one dense eigenvalues-only solve,
and the Perron vector from the cover's quotient (cover.quotient): its colour
classes form an equitable partition, so A's Perron vector is the lift of the
Perron vector of the colour matrix (Godsil & Royle, Algebraic Graph Theory,
section 9.3), a k x k solve with k colours. Above the cap only the top
eigenvalue and its positive eigenvector are computed, iteratively on a sparse
adjacency. Walk counts are done in arbitrary-precision integers so that
combinatorial identities can be asserted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cover import quotient
from .multigraph import MultiGraph, require_connected

DENSE_EIGEN_CAP = 4096
PERRON_RESIDUAL_FACTOR = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in nonincreasing order plus the unit Perron vector.

    full is False when only the top of the spectrum was computed (input was
    larger than the dense cap).
    """

    eigenvalues: np.ndarray
    perron: np.ndarray
    full: bool

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def n(self) -> int:
        return len(self.perron)


def eigen_spectrum(g: MultiGraph) -> Spectrum:
    """Spectrum of the adjacency matrix of a connected multigraph.

    Up to DENSE_EIGEN_CAP vertices the eigenvalues come from eigvalsh and
    the Perron vector from the quotient (_quotient_perron); above it, from
    eigsh on a sparse adjacency, so no n x n array is formed. The Perron
    vector is normalized to unit 2-norm, strictly positive, with residual
    ||A y - lambda1 y|| at most 1e-10 * max degree.
    """
    require_connected(g, "eigen_spectrum")
    if g.n <= DENSE_EIGEN_CAP:
        a = g.adjacency_matrix().astype(np.float64)
        vals = np.linalg.eigvalsh(a)[::-1]
        perron = _quotient_perron(g)
        full = True
    else:
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import eigsh

        # one entry per half-edge: a loop's two give 2 on the diagonal, and
        # parallel edges add up
        ends = (np.array(g.sources, dtype=np.intp), np.array(g.targets, dtype=np.intp))
        a = csr_matrix((np.ones(g.num_half_edges), ends), shape=(g.n, g.n))
        v0 = np.ones(g.n) / np.sqrt(g.n)
        top, vec = eigsh(a, k=1, which="LA", v0=v0)
        vals = np.array([top[0]])
        perron = vec[:, 0].copy()
        full = False

    if perron.sum() < 0:
        perron = -perron
    perron /= np.linalg.norm(perron)
    if g.m > 0 and perron.min() <= 0:
        raise ArithmeticError("Perron vector not strictly positive; eigensolve failed")
    lam = float(vals[0])
    residual = float(np.linalg.norm(a @ perron - lam * perron))
    if g.m > 0 and residual > PERRON_RESIDUAL_FACTOR * g.max_degree:
        raise ArithmeticError(f"Perron pair residual {residual:.3e} above tolerance")
    return Spectrum(vals, perron, full)


def _quotient_perron(g: MultiGraph) -> np.ndarray:
    """A's Perron vector lifted from the colour matrix of cover.quotient(g).

    With H[c, c'] the half-edges from colour c to colour c' and s_c the size
    of colour c, S = diag(s)^(-1/2) H diag(s)^(-1/2) is symmetric and similar
    to the quotient matrix; its top eigenvector u lifts to y_v = u[c(v)] /
    sqrt(s[c(v)]), which has unit norm.
    """
    from scipy.linalg import eigh

    q = quotient(g)
    colors = np.array(q.colors)
    k = len(q.D)
    root = np.sqrt(np.bincount(colors, minlength=k))
    src, tgt = (colors[np.array(ends, dtype=np.intp)] for ends in (g.sources, g.targets))
    h = np.bincount(src * k + tgt, minlength=k * k).reshape(k, k)
    # integer counts over square roots of sizes: finite, so skip scipy's scan
    _, u = eigh(h / root / root[:, None], subset_by_index=(k - 1, k - 1), check_finite=False)
    return u[colors, 0] / root[colors]


def wr_fraction(spectrum: Spectrum, rho: float, eta: float = 1e-9) -> float:
    """Fraction of eigenvalues (all of them, top included) with |lam| <= rho + eta."""
    if not spectrum.full:
        raise ValueError("wr_fraction needs the full spectrum; input was truncated")
    if not eta >= 0:  # NaN fails too
        raise ValueError("eta must be nonnegative")
    if np.isnan(rho):
        raise ValueError("rho must not be NaN")
    inside = int(np.count_nonzero(np.abs(spectrum.eigenvalues) <= rho + eta))
    return inside / len(spectrum.eigenvalues)


def closed_walk_count(g: MultiGraph, v: int, k: int) -> int:
    """Exact number of length-k closed walks at v, as a Python integer.

    Each walk step picks a half-edge at the current vertex, so a loop offers
    two continuations per visit.
    """
    return closed_walk_profile(g, v, k)[k]


def closed_walk_profile(g: MultiGraph, v: int, k_max: int) -> list[int]:
    """[closed_walk_count(g, v, k) for k in 0..k_max] in one sweep."""
    require_connected(g, "closed_walk_profile")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if k_max < 0:
        raise ValueError("walk length must be nonnegative")
    nbr = g.neighbor_multiplicities
    x = [0] * g.n
    x[v] = 1
    counts = [x[v]]
    for _ in range(k_max):
        y = [0] * g.n
        for u in range(g.n):
            xu = x[u]
            if xu:
                for w, mult in nbr[u]:
                    y[w] += xu * mult
        x = y
        counts.append(x[v])
    return counts
