"""Certified spectral radius of the universal cover tree.

For a probe value t, iterate the branch growth system over half-edges

    F[h] <- 1 / (t - sum of F[h'] over continuations h' of h)

from F = 0. The map is monotone, so iterates stay below every admissible
fixed point and every supersolution. A positive F with

    1 / (t - continuation sums) <= F   and   sum of F at each vertex <= t

certifies a positive function Z on the cover tree with (A Z)(x) <= t Z(x)
everywhere, hence rho(T) <= t; those two inequalities are checked before
any probe is declared feasible. The check runs in float64 without outward
rounding, so hi is an upper bound only up to rounding error; making the
check exact is the "Make the rho bracket true" item of ROADMAP.md. In the
other direction, a supersolution's entries never exceed t and dominate
every iterate, so an iterate escaping above t, or a collapsing denominator,
refutes feasibility outright. Bisection over t then brackets rho(T).

Near the threshold plain iteration is slow from both sides, so each probe
escalates: a damped Newton solve of the fixed-point system runs on a doubling
schedule, and its result counts only if the padded output passes the
certificate check. When Newton keeps failing and the measured contraction
rate projects convergence far past the iteration cap, the probe gives up and
is classified infeasible the way a cap hit would be; these ambiguous exits
are counted and reported, and can bias the bracket's lower edge only.

t = max degree is always feasible (F identically 1 is a supersolution), so
the initial upper endpoint needs no probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cover import backtracking_walk_profile, tree_ball, TREE_BALL_NODE_CAP
from .multigraph import MultiGraph, require_connected

ITERATION_CAP = 100_000
CONVERGENCE_TOL = 1e-12
BISECTION_TOL = 1e-9
LOWER_BOUND_DEPTH = 6

_DENSE_SOLVE_CAP = 256

_AMBIGUOUS = ("iteration-cap", "projected-cap", "uncertified")


@dataclass(frozen=True)
class ProbeReport:
    t: float
    feasible: bool
    status: str
    iterations: int
    slack_min: float | None
    fixed_point: np.ndarray | None

    @property
    def ambiguous(self) -> bool:
        return self.status in _AMBIGUOUS


@dataclass(frozen=True)
class RhoResult:
    value: float
    lo: float
    hi: float
    tol: float
    fixed_point: dict[int, float]
    vertex_slack_min: float
    iterations_per_probe: tuple[int, ...]
    ambiguous_probes: int
    probes: tuple[tuple[float, bool, str], ...]

    @property
    def width(self) -> float:
        return self.hi - self.lo


class _System:
    """Precomputed index arrays for one graph."""

    def __init__(self, g: MultiGraph):
        self.g = g
        self.n = g.n
        self.hh = g.num_half_edges
        self.src = np.array(g.sources, dtype=np.intp)
        self.tgt = np.array(g.targets, dtype=np.intp)
        self.inv = np.arange(self.hh, dtype=np.intp) ^ 1
        self.max_degree = g.max_degree
        rows: list[int] = []
        cols: list[int] = []
        for h in range(self.hh):
            for h2 in g.half_edges_at[g.targets[h]]:
                if h2 != (h ^ 1):
                    rows.append(h)
                    cols.append(h2)
        self.jac_rows = np.array(rows, dtype=np.intp)
        self.jac_cols = np.array(cols, dtype=np.intp)

    def sums(self, f: np.ndarray) -> np.ndarray:
        return np.bincount(self.src, weights=f, minlength=self.n)

    def residual(self, t: float, f: np.ndarray) -> np.ndarray | None:
        """phi(f) - f, or None when a denominator is not positive."""
        vsum = self.sums(f)
        den = t - (vsum[self.tgt] - f[self.inv])
        if den.min() <= 0.0:
            return None
        return 1.0 / den - f


def _is_supersolution(sys: _System, t: float, f: np.ndarray) -> float | None:
    """Certificate check, evaluated in float64. Returns the minimal vertex
    slack when f is a positive supersolution with nonnegative slack, else
    None."""
    if f.min() <= 0.0:
        return None
    vsum = sys.sums(f)
    slack = t - float(vsum.max())
    if slack < 0.0:
        return None
    den = t - (vsum[sys.tgt] - f[sys.inv])
    if den.min() <= 0.0:
        return None
    if not np.all(1.0 / den <= f):
        return None
    return slack


def _jacobian(sys: _System, phi: np.ndarray):
    # (row, col) pairs in the continuation pattern are distinct, so plain
    # fancy-index subtraction is safe on the dense path
    data = (phi ** 2)[sys.jac_rows]
    if sys.hh <= _DENSE_SOLVE_CAP:
        jac = np.eye(sys.hh)
        jac[sys.jac_rows, sys.jac_cols] -= data
        return jac
    from scipy.sparse import csr_matrix, identity

    return identity(sys.hh, format="csr") - csr_matrix(
        (data, (sys.jac_rows, sys.jac_cols)), shape=(sys.hh, sys.hh)
    )


def _solve(jac, rhs: np.ndarray, hh: int) -> np.ndarray | None:
    try:
        if hh <= _DENSE_SOLVE_CAP:
            out = np.linalg.solve(jac, rhs)
        else:
            from scipy.sparse.linalg import bicgstab, spsolve

            out, info = bicgstab(jac, rhs, rtol=1e-12, maxiter=1000)
            if info != 0:
                # direct factorization is slow here but only a fallback
                out = spsolve(jac.tocsc(), rhs)
    except Exception:
        return None
    return out if np.all(np.isfinite(out)) else None


def _pad_certify(sys: _System, t: float, f: np.ndarray) -> np.ndarray | None:
    """Nudge an approximate fixed point upward until the supersolution
    inequalities hold.

    A constant bump fails wherever a Jacobian row sums above 1 (hub
    half-edges), so the bump direction u solves (I - J) u = 1: then u >= 1
    and J u = u - 1 < u componentwise, which is exactly the strict room the
    branch inequality needs to absorb the residual. Every candidate is still
    checked by _is_supersolution; the direction is only a guess."""
    resid = sys.residual(t, f)
    if resid is None or f.min() <= 0.0:
        return None
    jac = _jacobian(sys, f + resid)
    u = _solve(jac, np.ones(sys.hh), sys.hh)
    if u is None or u.min() <= 0.0:
        return None
    base = max(float(resid.max()), 0.0) + 1e-16
    for eps in (2 * base, 8 * base, 64 * base, 1024 * base, 1e-10, 1e-7, 1e-5):
        cand = f + eps * u
        if _is_supersolution(sys, t, cand) is not None:
            return cand
    return None


def _newton_certify(
    sys: _System, t: float, f0: np.ndarray, max_steps: int = 40
) -> np.ndarray | None:
    """Damped Newton on phi(f) - f = 0 from f0, then pad certification.
    Steps are halved until they keep every denominator positive and reduce
    the residual, so near-critical systems cannot fling the iterate out of
    the feasible region. Returns a certified vector or None; this routine
    never classifies anything by itself."""
    hh = sys.hh
    f = f0.copy()
    resid = sys.residual(t, f)
    if resid is None:
        return None
    res = float(np.abs(resid).max())

    for _ in range(max_steps):
        if res < 1e-13 * max(1.0, float(np.abs(f).max())):
            break
        step = _solve(_jacobian(sys, f + resid), resid, hh)
        if step is None:
            break
        improved = False
        # near-singular solves can return directions many orders of magnitude
        # too long, so the halving scan has to go deep before giving up.
        # No stall heuristic: genuine near-critical convergence can creep at
        # a few percent per damped step for dozens of steps, which is
        # indistinguishable from a ghost-root plateau until it finishes.
        for damp in range(30):
            cand = f + step * (0.5 ** damp)
            if cand.min() < 0.0 or cand.max() > 2.0 * t:
                continue
            rc = sys.residual(t, cand)
            if rc is None:
                continue
            rn = float(np.abs(rc).max())
            if rn < res:
                f, resid, res = cand, rc, rn
                improved = True
                break
        if not improved:
            break

    return _pad_certify(sys, t, f)


def _probe(sys: _System, t: float, iter_cap: int, conv_tol: float) -> ProbeReport:
    hh = sys.hh
    f = np.zeros(hh)
    newton_due = 64
    newton_failures = 0
    window: list[tuple[int, float]] = []

    for it in range(1, iter_cap + 1):
        vsum = sys.sums(f)
        den = t - (vsum[sys.tgt] - f[sys.inv])
        if den.min() <= 0.0:
            return ProbeReport(t, False, "diverged", it, None, None)
        fn = 1.0 / den
        if fn.max() > t:
            # supersolutions dominate every iterate and stay at or below t
            return ProbeReport(t, False, "diverged", it, None, None)
        delta = float(np.abs(fn - f).max())
        f = fn
        if delta < conv_tol:
            cert = _pad_certify(sys, t, f)
            if cert is not None:
                slack = _is_supersolution(sys, t, cert)
                return ProbeReport(t, True, "converged", it, slack, cert)
            cert = _newton_certify(sys, t, f)
            if cert is not None:
                slack = _is_supersolution(sys, t, cert)
                return ProbeReport(t, True, "certified", it, slack, cert)
            slack = t - float(sys.sums(f).max())
            if slack < 0.0:
                return ProbeReport(t, False, "slack-negative", it, slack, f)
            return ProbeReport(t, False, "uncertified", it, slack, f)

        if it % 25 == 0:
            window.append((it, delta))
            if len(window) > 3:
                window.pop(0)
            # a rising update norm means the iterate is escaping past the
            # ghost root; the f > t divergence test will fire on its own
            escaping = len(window) >= 2 and window[-1][1] > window[-2][1]
            if it >= newton_due and not escaping:
                newton_due *= 2
                cert = _newton_certify(sys, t, f, max_steps=60)
                if cert is not None:
                    slack = _is_supersolution(sys, t, cert)
                    return ProbeReport(t, True, "certified", it, slack, cert)
                newton_failures += 1
            # exits before it=600 would skip the rescue attempts seeded from
            # closer iterates, which are the ones that convert feasible
            # near-critical probes with tiny Newton basins
            if newton_failures >= 2 and it >= 600 and len(window) >= 2:
                it0, d0 = window[0]
                rate = (delta / d0) ** (1.0 / (it - it0)) if d0 > 0 else 0.0
                if rate >= 1.0:
                    projected = math.inf
                else:
                    projected = math.log(max(delta / conv_tol, 1.0)) / -math.log(rate)
                # flat horizon: once two Newton rescues have failed there is
                # no point crawling thousands of iterations toward a ghost
                # root, whatever the remaining budget is
                if projected > min(2_000.0, 1.5 * (iter_cap - it)):
                    cert = _newton_certify(sys, t, f, max_steps=80)
                    if cert is not None:
                        slack = _is_supersolution(sys, t, cert)
                        return ProbeReport(t, True, "certified", it, slack, cert)
                    return ProbeReport(t, False, "projected-cap", it, None, None)

    cert = _newton_certify(sys, t, f, max_steps=80)
    if cert is not None:
        slack = _is_supersolution(sys, t, cert)
        return ProbeReport(t, True, "certified", iter_cap, slack, cert)
    return ProbeReport(t, False, "iteration-cap", iter_cap, None, None)


def feasibility_probe(
    g: MultiGraph,
    t: float,
    iter_cap: int = ITERATION_CAP,
    conv_tol: float = CONVERGENCE_TOL,
) -> ProbeReport:
    """Classify a single threshold t for rho(T) <= t. Feasible answers carry
    a certificate vector that passed _is_supersolution; infeasible answers
    may be cap-limited (see ProbeReport.ambiguous)."""
    require_connected(g, "feasibility_probe")
    return _probe(_System(g), float(t), iter_cap, conv_tol)


def rho_tree(
    g: MultiGraph,
    tol: float = BISECTION_TOL,
    iter_cap: int = ITERATION_CAP,
    lower_depth: int = LOWER_BOUND_DEPTH,
) -> RhoResult:
    """Bracket the cover tree's spectral radius to width tol by bisection.

    The initial bracket is [best walk-count root, max degree]; both endpoints
    are certified without probes (walk roots never exceed rho, and F = 1 is a
    supersolution at t = max degree).
    """
    require_connected(g, "rho_tree")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if g.m == 0:
        return RhoResult(0.0, 0.0, 0.0, tol, {}, 0.0, (), 0, ())

    sys = _System(g)
    delta_max = float(g.max_degree)
    walk_root = max(max(rho_lower_sequence(g, v, lower_depth)) for v in range(g.n))
    lo = min(walk_root, delta_max)
    hi = delta_max

    probes: list[tuple[float, bool, str]] = []
    iterations: list[int] = []
    ambiguous = 0
    best: ProbeReport | None = None

    while hi - lo > tol and len(probes) < 200:
        mid = 0.5 * (lo + hi)
        rep = _probe(sys, mid, iter_cap, CONVERGENCE_TOL)
        probes.append((mid, rep.feasible, rep.status))
        iterations.append(rep.iterations)
        if rep.ambiguous:
            ambiguous += 1
        if rep.feasible:
            hi = mid
            best = rep
        else:
            lo = mid

    if best is not None:
        fixed = {h: float(best.fixed_point[h]) for h in range(sys.hh)}
        slack_min = float(best.slack_min)
    else:
        # hi never moved off the a priori endpoint: F = 1 certifies t = max degree
        fixed = {h: 1.0 for h in range(sys.hh)}
        slack_min = delta_max - float(max(g.degrees))

    value = 0.5 * (lo + hi)
    return RhoResult(
        value,
        lo,
        hi,
        tol,
        fixed,
        slack_min,
        tuple(iterations),
        ambiguous,
        tuple(probes),
    )


def rho_lower_sequence(g: MultiGraph, v: int, depth: int) -> list[float]:
    """Nondecreasing lower bounds N_{2k}(v)^(1/2k) for k = 1..depth.

    Each term is a closed-walk count of the cover at a lift of v, so the
    sequence converges to rho(T) from below.
    """
    require_connected(g, "rho_lower_sequence")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    profile = backtracking_walk_profile(g, v, 2 * depth)
    out = []
    for k in range(1, depth + 1):
        count = profile[2 * k]
        out.append(math.exp(math.log(count) / (2 * k)) if count > 0 else 0.0)
    return out


def rho_ball_power(
    g: MultiGraph,
    v: int,
    radius: int,
    cap: int = TREE_BALL_NODE_CAP,
    tol: float = 1e-11,
    max_iterations: int = 50_000,
) -> float:
    """Rayleigh-quotient estimate of the top eigenvalue of the truncated cover
    ball, by shifted power iteration. The returned value is the quotient of
    the final iterate, hence always a valid lower bound for rho(T)."""
    require_connected(g, "rho_ball_power")
    tb = tree_ball(g, v, radius, cap=cap)
    size = tb.node_count
    if size == 1:
        return 0.0

    from scipy.sparse import coo_matrix

    child = np.arange(1, size, dtype=np.intp)
    par = np.array(tb.parent[1:], dtype=np.intp)
    rows = np.concatenate([par, child])
    cols = np.concatenate([child, par])
    adj = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(size, size)).tocsr()

    x = np.full(size, 1.0 / math.sqrt(size))
    rayleigh = 0.0
    for _ in range(max_iterations):
        ax = adj @ x
        new_rayleigh = float(x @ ax)
        y = ax + x  # shift by +1 keeps the top eigenvalue strictly dominant
        x = y / np.linalg.norm(y)
        if abs(new_rayleigh - rayleigh) < tol:
            rayleigh = new_rayleigh
            break
        rayleigh = new_rayleigh
    return rayleigh
