"""Certified spectral gap between a multicyclic graph and its cover tree.

It runs on cover.quotient(g): the cover's vertex types, the weights and the
Perron vector, constant on colours (Godsil & Royle, Algebraic Graph Theory,
9.3), are per class or per colour, so a lift costs what its base costs.

Weights. They read the quotient's peel of the 2-core (Quotient.peel): a
class is outward (into a pendant tree) when all its continuations are,
interior when neither it nor its reverse is. An interior class weighs
1 + j * epsilon for its position j on a chain of core degree 2 colours from
one of core degree above 2, epsilon = 1 / (2 (J + 1)) for the largest J: in
[1, 1.5), outweighed by its continuations. An outward class weighs 1 out of
a core colour, its inbound class's weight over its source's degree further.

Bound. Scaled by gamma (interior) and delta (outward), the weights set an
arithmetic-geometric mean bound on each cover edge: for any positive y,
|f_T(x)| <= max g ||x||^2 over the types, a typed class (parent term plus
sum over b of C[a, b] child_b) or a core colour as root (over its D row).
With y the Perron vector at one member per colour times sqrt(n), the same
on every lift, each g is lambda1 at gamma = delta = 0 and the weights push
it below. Of 129 grid pairs, in one array pass, the smallest max g wins.

Margin. g and CW_c = (B y)_c / y_c sum products and quotients of positive
floats: with N roundings a term, a float sum is within a factor 1 -+ gamma_N,
gamma_N = N u / (1 - N u), of the exact one (Higham, Accuracy and Stability
of Numerical Algorithms, 3.1). g_hi = max g / (1 - gamma_N) and CW_lo =
min CW (1 - gamma_N), one ulp out, prove lambda1 - rho(T) >= margin =
CW_lo - g_hi rounded down, as lambda1 >= CW_lo (Collatz-Wielandt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cover import Quotient, quotient
from .multigraph import CyclomaticClass, MultiGraph, cyclomatic_class, require_integer
from .rho import RhoResult, rho_tree
from .spectra import Spectrum, eigen_spectrum
from .twocore import two_core

ROLE_INT = "int-child"
ROLE_EXT = "ext-child"
ROLE_ROOT = "root-type"

GAMMA_GRID_BITS = 40
DELTA_POWERS = (1, 2, 3)
# the search grid in search order: gamma = 2^-i, then delta = gamma^power
_GRID = tuple(
    (2.0**-i, 2.0 ** (-i * p)) for i in range(-2, GAMMA_GRID_BITS + 1) for p in DELTA_POWERS
)
# a child term's roundings: ratio, weight, product, quotient, sum, factor step, count
_TERM_ROUNDINGS = 7


class CertificationError(RuntimeError):
    """The certificate search failed or its cross-check did not hold."""


@dataclass(frozen=True)
class GapCertificate:
    """Weights per interior or outward class of cover.quotient(graph), whose
    cls lifts them; g values per (class, role) or (core colour, root) type."""

    graph: MultiGraph
    gamma: float
    delta: float
    gamma_weights: dict[int, Fraction]
    delta_weights: dict[int, Fraction]
    epsilon_chain_step: Fraction
    g_values: dict[tuple[int, str], float]
    g_max: float
    lambda1: float
    margin: float
    perron: np.ndarray

    @property
    def rho_upper_bound(self) -> float:
        """Certified upper bound for the cover tree's spectral radius."""
        return self.lambda1 - self.margin


def _weights(q: Quotient) -> tuple[dict[int, Fraction], dict[int, Fraction], Fraction]:
    """(interior weights, outward weights, epsilon) of a multicyclic quotient."""
    # out of a core colour a class is interior or outward, never inward
    outward, core_deg = q.peel
    position: dict[int, int] = {}
    for a, (s, _) in enumerate(q.ends):
        if a not in outward and core_deg[s] > 2:  # a chain's first class
            j = position[a] = 0
            while core_deg[q.ends[a][1]] == 2:  # a chain colour: one way on
                (a,) = [b for b, _ in q.C[a] if b not in outward]
                j = position[a] = j + 1
    steps = 2 * (max(position.values()) + 1)
    gamma_weights = {a: Fraction(steps + j, steps) for a, j in sorted(position.items())}
    tree = sorted(a for a in outward if core_deg[q.ends[a][0]])
    delta_weights = dict.fromkeys(tree, Fraction(1))
    for a in tree:  # from the core out; the list grows as it is read
        share = delta_weights[a] / sum(m for _, m in q.D[q.ends[a][1]])
        for b, _ in q.C[a]:
            delta_weights[b] = share
            tree.append(b)
    return gamma_weights, delta_weights, Fraction(1, steps)


def _scaled_perron(q: Quotient, spec: Spectrum) -> np.ndarray:
    """y per colour: the Perron vector at its first member, times sqrt(n)."""
    y = np.asarray(spec.perron, dtype=float)[[vs[0] for vs in q.members]]
    return y * math.sqrt(spec.n)


def _padded(rows, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, counts) arrays of rows of (class, count) pairs, padded with (pad, 0)."""
    index = np.full((len(rows), max(map(len, rows))), pad, dtype=np.intp)
    counts = np.zeros(index.shape)
    for i, row in enumerate(rows):
        for j, (a, m) in enumerate(row):
            index[i, j], counts[i, j] = a, m
    return index, counts


def _row_sums(values: np.ndarray, terms: np.ndarray, index, counts) -> np.ndarray:
    """values plus each row's sum of counts * terms, one padded column at a time."""
    terms = np.concatenate([terms, np.zeros(terms.shape[:-1] + (1,))], axis=-1)  # padding: 0
    for column, count in zip(index.T, counts.T):
        values = values + count * terms[..., column]
    return values


class _Kernel:
    """g values over the quotient's classes: per class the ratio y_t / y_s of
    its colours, its inverse, the product y_s y_t, its float weight and an
    interior mask; per type, in keys order, the padded (class, count) row of
    the child terms it sums. roundings bounds the roundings on each term."""

    def __init__(self, q: Quotient, y: np.ndarray, gamma_weights, delta_weights):
        src, tgt = y[np.array(q.ends, dtype=np.intp).reshape(-1, 2).T]
        self.child_ratio = tgt / src
        self.parent_ratio = src / tgt
        self.products = src * tgt
        weights = {**delta_weights, **gamma_weights}
        self.weights = np.array([float(weights.get(a, 0)) for a in range(q.size)])
        self.interior = np.array([a in gamma_weights for a in range(q.size)])
        roots = sorted({q.ends[a][0] for a in gamma_weights})
        self.keys = [(a, ROLE_INT) for a in gamma_weights] + [(a, ROLE_EXT) for a in delta_weights]
        self.keys += [(c, ROLE_ROOT) for c in roots]
        self.typed = np.array([*gamma_weights, *delta_weights], dtype=np.intp)
        self.children = _padded([q.C[a] for a in self.typed] + [q.D[c] for c in roots], q.size)
        self.roundings = _TERM_ROUNDINGS + self.children[0].shape[1]  # one a summed column

    def __call__(self, gammas, deltas) -> np.ndarray:
        """g at every (gamma, delta) pair: one row per pair, one column per
        type. A type's parent term comes first, then its child terms."""
        scale = np.where(self.interior, np.array(gammas)[:, None], np.array(deltas)[:, None])
        factor = 1.0 + self.weights * scale / self.products
        # interior factors divide going down and multiply going up; pendant
        # factors the other way round
        child = np.where(self.interior, self.child_ratio / factor, self.child_ratio * factor)
        parent = np.where(self.interior, self.parent_ratio * factor, self.parent_ratio / factor)
        values = np.zeros((len(factor), len(self.keys)))
        values[:, : len(self.typed)] = parent[:, self.typed]
        return _row_sums(values, child, *self.children)


def _widen(x: float, roundings: int, toward: float) -> float:
    """A bound toward +-inf on the positive sum whose float value x took
    `roundings` roundings a term; gamma for two more and the ulp step cover
    forming the bound."""
    gamma = (roundings + 2) * 2.0**-53 / (1 - (roundings + 2) * 2.0**-53)
    return math.nextafter(x / (1 - gamma) if toward > 0 else x * (1 - gamma), toward)


def _proven_bounds(q: Quotient, kernel: _Kernel, g_max: float) -> tuple[float, float]:
    """(CW_lo, g_hi) for the kernel's y and the float max g (module docstring)."""
    # CW_c sums D[c, a] * y_t / y_c: two roundings a term, one a summed column
    index, counts = _padded(q.D, q.size)
    cw = _row_sums(np.zeros(len(q.D)), kernel.child_ratio, index, counts)
    cw_lo = _widen(float(cw.min()), 2 + index.shape[1], -math.inf)
    return cw_lo, _widen(g_max, kernel.roundings, math.inf)


def certify_gap(
    g: MultiGraph,
    tol: float = 1e-6,
    rho_result: RhoResult | None = None,
    spectrum: Spectrum | None = None,
) -> GapCertificate:
    """Search gamma = 2^2 .. 2^-40 and delta in {gamma, gamma^2, gamma^3}
    for the smallest max g, prove the margin at that pair (module
    docstring), then cross-check the implied bound against rho_tree's
    certified bracket for rho(T)."""
    if not 0 <= tol < float("inf"):  # NaN fails too; +inf would skip the cross-check
        raise ValueError("tolerance must be finite and nonnegative")
    if cyclomatic_class(g) is not CyclomaticClass.MULTICYCLIC:
        raise ValueError(
            "certify_gap requires a multicyclic graph; unicyclic and tree covers "
            "carry no gap (see unicyclic_defect)"
        )
    q = quotient(g)
    gamma_w, delta_w, epsilon = _weights(q)
    spec = spectrum if spectrum is not None else eigen_spectrum(g)
    kernel = _Kernel(q, _scaled_perron(q, spec), gamma_w, delta_w)
    grid = kernel(*zip(*_GRID))
    best = int(np.argmin(grid.max(axis=1)))
    gamma, delta = _GRID[best]
    vals = dict(zip(kernel.keys, grid[best].tolist()))
    g_max = max(vals.values())
    cw_lo, g_hi = _proven_bounds(q, kernel, g_max)
    margin = math.nextafter(cw_lo - g_hi, -math.inf)
    if margin <= 0:
        raise CertificationError(f"no positive margin found (best {margin:.3e})")

    rho = rho_result if rho_result is not None else rho_tree(g)
    if rho.hi > spec.lambda1 - margin + tol:
        raise CertificationError(
            f"certified bound {spec.lambda1 - margin:.9f} is inconsistent with the "
            f"rho_tree bracket hi = {rho.hi:.9f}"
        )

    return GapCertificate(
        g, gamma, delta, gamma_w, delta_w, epsilon, vals, g_max, spec.lambda1, margin, spec.perron
    )


def unicyclic_defect(g: MultiGraph, copies: int, spectrum: Spectrum | None = None) -> float:
    """Rigorous lower bound for rho(T) of a unicyclic graph.

    Cutting one cycle edge (v1, vn) and chaining N copies of the cut graph
    along the cover produces a unit test vector whose Rayleigh quotient is
    lambda1(G) - (2 / N) * y_v1 * y_vn; it increases to rho(T) as N grows.
    The cut edge is chosen to minimize y_v1 * y_vn.
    """
    if cyclomatic_class(g) is not CyclomaticClass.UNICYCLIC:
        raise ValueError("unicyclic_defect requires a unicyclic graph")
    require_integer(copies, "copies", 1)
    spec = spectrum if spectrum is not None else eigen_spectrum(g)
    y = spec.perron
    core = two_core(g)  # the unique cycle
    cycle_edges = sorted({h >> 1 for h in core.int_half_edges})
    e = min(cycle_edges, key=lambda i: (y[g.edges[i][0]] * y[g.edges[i][1]], i))
    v1, vn = g.edges[e]
    return spec.lambda1 - 2.0 * float(y[v1]) * float(y[vn]) / copies
