"""Certified spectral gap between a multicyclic graph and its cover tree.

The certificate splits edges at the 2-core: interior half-edges (core to
core) get weights Gamma in [1, 2) built so that the weights of the
continuations of any interior half-edge strictly outsum it, and pendant-tree
half-edges directed away from the core get weights Delta in (0, 1] that
strictly shrink along the tree. Scaling these weights by small parameters
gamma and delta and pushing them through a weighted arithmetic-geometric
mean bound on the cover's quadratic form yields, for every vertex type of the
cover tree, a value g with |f_T(x)| <= max g * ||x||^2. The certified gap is
lambda1(G) - max g, valid for any positive gamma and delta; a grid search
picks a pair with a comfortable margin.

All weight bookkeeping is in exact rationals; only the g evaluation against
the Perron vector uses floats. It runs as arrays over half-edges, built once
per certificate, and evaluates the whole gamma/delta grid in one pass: a
(grid points x types) array whose every entry takes the same IEEE operations
in the same order as a per-half-edge loop would (continuation sums add one
padded column at a time, and a padded 0.0 adds exactly), so the search, the
chosen pair and g_values do not depend on how the grid is batched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .multigraph import CyclomaticClass, MultiGraph, cyclomatic_class
from .rho import RhoResult, rho_tree
from .spectra import Spectrum, eigen_spectrum
from .twocore import CoreDecomposition, two_core

ROLE_INT = "int-child"
ROLE_EXT = "ext-child"
ROLE_ROOT = "root-type"

GAMMA_GRID_BITS = 40
DELTA_POWERS = (1, 2, 3)
# the search grid in search order: gamma = 2^-i, then delta = gamma^power
_GRID = tuple(
    (2.0**-i, (2.0**-i) ** power)
    for i in range(1, GAMMA_GRID_BITS + 1)
    for power in DELTA_POWERS
)


class CertificationError(RuntimeError):
    """The certificate search failed or its cross-check did not hold."""


@dataclass(frozen=True)
class GapCertificate:
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


def _chain_steps(core: CoreDecomposition) -> int:
    """2 * interior half-edges, more than any chain: epsilon = 1 / steps keeps weights below 2."""
    return 2 * len(core.int_half_edges)


def gamma_assignment(core: CoreDecomposition) -> dict[int, Fraction]:
    """Interior weights: 1 on half-edges leaving core vertices of core degree
    above 2, then +epsilon per step walking along degree-2 chains, with
    epsilon = 1 / steps and steps = 2 * number of interior half-edges. The
    walk counts each half-edge's integer position j on its chain; its weight
    is (steps + j) / steps.

    Requires a multicyclic core, where every core cycle passes through a
    vertex of core degree above 2, so every chain terminates.
    """
    g = core.graph
    if cyclomatic_class(g) is not CyclomaticClass.MULTICYCLIC:
        raise ValueError("gamma_assignment requires a multicyclic graph")
    core_deg = core.core_degrees
    position: dict[int, int] = {}
    # walk each chain from its root, a half-edge leaving a core vertex of
    # core degree above 2, one step on per chain vertex
    for h in sorted(h for h in core.int_half_edges if core_deg[g.sources[h]] > 2):
        j = position[h] = 0
        while core_deg[g.targets[h]] == 2:  # a chain vertex: one way on
            at = g.half_edges_at[g.targets[h]]
            (h,) = [h2 for h2 in at if h2 != h ^ 1 and h2 in core.int_half_edges]
            j = position[h] = j + 1

    steps = _chain_steps(core)
    if set(position) != core.int_half_edges or max(position.values()) >= steps:  # pragma: no cover
        raise AssertionError("interior weights miss a half-edge or escape [1, 2)")
    weight = {j: Fraction(steps + j, steps) for j in set(position.values())}
    return {h: weight[j] for h, j in position.items()}


def delta_assignment(core: CoreDecomposition) -> dict[int, Fraction]:
    """Pendant-tree weights: 1 on half-edges leaving the core, then each
    vertex with d onward half-edges passes 1/(d+1) of its inbound weight to
    each, so children always sum below their parent. One pass in peel order
    (core.ext_half_edges), where a half-edge out of a pendant vertex weighs
    that vertex's inbound weight over its degree, d + 1."""
    g = core.graph
    weights: dict[int, Fraction] = {}
    inbound: dict[int, Fraction] = {}
    for h in core.ext_half_edges:
        u = g.sources[h]
        w = Fraction(1) if u in core.core_vertices else inbound[u] / g.degrees[u]
        weights[h] = inbound[g.targets[h]] = w
    return weights


class _Kernel:
    """Per-type Rayleigh bound values (the certificate's g_values) as arrays
    over g's half-edges, built once per certificate. A non-root type is the
    half-edge its parent edge projects to (interior both ways, pendant edges
    only away from the core); a root type, one per core vertex, takes the
    child factor on every incident half-edge. The arrays: source and target
    Perron entries, float weights, the interior mask, and per type (typed
    half-edges, then core vertices) a padded row of the half-edges whose
    child factors it sums, in g.half_edges_at order, with padding pointing at
    a zero column. keys names the types in g_values order."""

    def __init__(self, g, perron, gamma_weights, delta_weights):
        y = np.asarray(perron, dtype=float)
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
        """g at every (gamma, delta) pair: one row per pair, one column per
        type. A type's parent term comes first, then its child factors."""
        scale = np.where(self.interior, np.array(gammas)[:, None], np.array(deltas)[:, None])
        factor = 1.0 + self.weights * scale / self.products
        # interior factors divide going down and multiply going up; pendant
        # factors the other way round
        child = np.where(self.interior, self.child_ratio / factor, self.child_ratio * factor)
        parent = np.where(self.interior, self.parent_ratio * factor, self.parent_ratio / factor)
        child = np.hstack([child, np.zeros((len(child), 1))])
        values = np.zeros((len(child), len(self.keys)))
        values[:, : len(self.typed)] = parent[:, self.typed]
        for column in self.children.T:
            values += child[:, column]
        return values


def certify_gap(
    g: MultiGraph,
    tol: float = 1e-6,
    rho_result: RhoResult | None = None,
    spectrum: Spectrum | None = None,
) -> GapCertificate:
    """Search gamma = 2^-1 .. 2^-40 and delta in {gamma, gamma^2, gamma^3}
    for the widest certified margin lambda1 - max g, then cross-check the
    implied bound against rho_tree's certified bracket for rho(T).

    The 120 grid points are evaluated in one array pass (module docstring);
    the first widest margin in (gamma, delta) order wins, and g_values is
    expanded for that pair only."""
    if not 0 <= tol < float("inf"):  # NaN fails too; +inf would skip the cross-check
        raise ValueError("tolerance must be finite and nonnegative")
    if cyclomatic_class(g) is not CyclomaticClass.MULTICYCLIC:
        raise ValueError(
            "certify_gap requires a multicyclic graph; unicyclic and tree covers "
            "carry no gap (see unicyclic_defect)"
        )
    core = two_core(g)
    gamma_w = gamma_assignment(core)
    delta_w = delta_assignment(core)
    spec = spectrum if spectrum is not None else eigen_spectrum(g)
    lam = spec.lambda1

    kernel = _Kernel(g, spec.perron, gamma_w, delta_w)
    grid = kernel(*zip(*_GRID))
    best = int(np.argmax(lam - grid.max(axis=1)))
    gamma, delta = _GRID[best]
    vals = dict(zip(kernel.keys, grid[best]))
    g_max = max(vals.values())
    margin = lam - g_max
    if margin <= 0:
        raise CertificationError(f"no positive margin found (best {margin:.3e})")

    rho = rho_result if rho_result is not None else rho_tree(g)
    if rho.hi > lam - margin + tol:
        raise CertificationError(
            f"certified bound {lam - margin:.9f} is inconsistent with the "
            f"rho_tree bracket hi = {rho.hi:.9f}"
        )

    return GapCertificate(
        g,
        gamma,
        delta,
        gamma_w,
        delta_w,
        Fraction(1, _chain_steps(core)),
        vals,
        g_max,
        lam,
        margin,
        spec.perron,
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
    if copies < 1:
        raise ValueError("copies must be at least 1")
    spec = spectrum if spectrum is not None else eigen_spectrum(g)
    y = spec.perron
    core = two_core(g)  # the unique cycle
    cycle_edges = sorted({h >> 1 for h in core.int_half_edges})
    e = min(cycle_edges, key=lambda i: (y[g.edges[i][0]] * y[g.edges[i][1]], i))
    v1, vn = g.edges[e]
    return spec.lambda1 - 2.0 * float(y[v1]) * float(y[vn]) / copies
