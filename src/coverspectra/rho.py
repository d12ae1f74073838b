"""Certified spectral radius of the universal cover tree.

For a threshold t, the branch growth map over half-edges is

    phi(F)[h] = 1 / (t - sum of F[h'] over continuations h' of h).

A positive F with

    phi(F) <= F   and   sum of F at each vertex <= t

(a supersolution) certifies a positive function Z on the cover tree with
(A Z)(x) <= t Z(x) everywhere, hence rho(T) <= t. Its entries never exceed
t. Iterates from F = 0 stay constant on half-edge classes, so probes run
on the cover's quotient (cover.quotient), with its continuation counts C
and per-colour counts D, and check both inequalities there in float64. The
certificate behind a reported hi is checked again on every half-edge in
exact arithmetic: t and F are dyadic rationals, like every float, so one
power of two scales them to integers. hi is therefore a proof, not an
upper bound up to rounding.

Probe. Monotone Newton (Esparza, Kiefer and Luttenberger, SIAM J. Comput.
2010): phi = phi(F), r = phi - F, J = diag(phi^2) C, and F += d where
(I - J) d = r. phi is monotone and convex, so for a subsolution F below a
supersolution G, G - F >= r + J (G - F), hence G - F >= sum_k J^k r = d:
every iterate is again a subsolution below every supersolution. The first
probe starts at F = 0 and later ones at Newton's iterate at hi, which lies
below every supersolution at any t < hi. A probe ends in one of three
statuses:

* diverged: a denominator is <= 0 or phi exceeds t, which no iterate below
  a supersolution can do (its entries are at most t), so rho(T) > t; or
  (I - J) e = 1 has a solution with a negative entry. Then x = max(-e, 0)
  has J x >= x + 1 on its support; J x >= x is checked, and it gives
  rho(J) >= 1 (Collatz-Wielandt). For t > rho(T) the least fixed point F*
  is a supersolution with rho(J(F*)) < 1 (it reaches 1 only at the fold
  t = rho(T)), and J(F) <= J(F*) below it, so t <= rho(T). By convexity
  this is how a probe below the fold ends: within a few steps Newton
  reaches an iterate where I - J stops being an M-matrix. No eigensolve is
  needed.
* certified: Newton converged, and the fixed point at t (1 - eta), for the
  first eta of a short ladder, passes the supersolution check at t.
* uncertified: Newton converged but no certificate was found. Then rho(T)
  is within rounding of t, and rho_tree probes t -/+ tol / 4 and stops.

So lo moves only on a refutation and hi only on a checked certificate.
rho_tree bisects between the best walk-count root and the max degree, where
F = 1 is a supersolution, so neither initial endpoint needs a probe. The
final certificate is lifted to every half-edge and checked exactly on the
full graph, so hi rests neither on the quotient code nor on rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cover import Quotient, backtracking_walk_profile, quotient
from .multigraph import MultiGraph, require_connected

BISECTION_TOL = 1e-9
LOWER_BOUND_DEPTH = 6

_DENSE_SOLVE_CAP = 256
# relative shifts eta of the certificate's fixed point t (1 - eta): the
# smallest one whose margin clears rounding in the check wins
_CERT_SHIFTS = (1e-13, 1e-12, 1e-11, 1e-10)
# monotone Newton gains about a bit per step even at the fold, so a probe
# that has not stopped by then is stuck in rounding
_NEWTON_STEPS = 200
# a step of a few units in the last place is rounding, not progress
_ROUNDING = 4 * np.finfo(float).eps


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
        return self.status == "uncertified"


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


def _matrix(counts, shape: tuple[int, int], dense: bool):
    rows = [i for i, row in enumerate(counts) for _ in row]
    cols = [j for row in counts for j, _ in row]
    vals = [float(m) for row in counts for _, m in row]
    if dense:
        out = np.zeros(shape)
        out[rows, cols] = vals
        return out
    from scipy.sparse import csr_matrix

    return csr_matrix((vals, (rows, cols)), shape=shape)


class _Operators:
    """The float64 view of a cover.Quotient that probes and pivots use: C
    and D as dense arrays up to _DENSE_SOLVE_CAP classes and as CSR
    matrices above, and solvers for I - diag(w) C."""

    def __init__(self, q: Quotient):
        self.cls = q.cls
        self.size = k = q.size
        self.dense = k <= _DENSE_SOLVE_CAP
        self.C = _matrix(q.C, (k, k), self.dense)
        self.D = _matrix(q.D, (len(q.D), k), self.dense)

    def factor(self, w: np.ndarray):
        """A solver for (I - diag(w) C) x = b: dense up to _DENSE_SOLVE_CAP
        classes, from one sparse LU factorization above. A singular matrix
        gives non-finite solutions."""
        if self.dense:
            a = np.eye(self.size) - w[:, None] * self.C

            def solve(b):
                try:
                    return np.linalg.solve(a, b)
                except np.linalg.LinAlgError:  # exactly singular
                    return np.full(b.shape, np.nan)

            return solve
        from scipy.sparse import diags, identity
        from scipy.sparse.linalg import splu

        try:
            return splu((identity(self.size) - diags(w) @ self.C).tocsc()).solve
        except RuntimeError:  # exactly singular
            return lambda b: np.full(b.shape, np.nan)


def _supersolution_slack(t, f, vertex_sums, continuation_sums) -> float | None:
    """Minimal vertex slack t - (sum of f at a vertex) when f is a positive
    supersolution at t, else None. Evaluated in float64."""
    if f.min() <= 0.0:
        return None
    slack = t - float(vertex_sums.max())
    if slack < 0.0:
        return None
    den = t - continuation_sums
    if den.min() <= 0.0 or not np.all(1.0 / den <= f):
        return None
    return slack


def _is_supersolution(g: MultiGraph, t: float, f: np.ndarray) -> float | None:
    """The supersolution check on every half-edge of g, in exact arithmetic.

    Every float is a dyadic rational, so t and f are scaled by one power of
    two, 2^k, to the Python integers T and F; then the vertex sums of F are
    at most T, and f (t - continuation sum) >= 1 is F (T - continuation
    sum) >= 4^k. Returns the vertex slack t - (largest vertex sum of f),
    evaluated in float64, when f passes, else None."""
    if not np.all(np.isfinite(f) & (f > 0.0)):
        return None
    # a lifted certificate has one distinct value per class: convert those
    values, index = np.unique(f, return_inverse=True)
    ratios = [x.as_integer_ratio() for x in [t, *values.tolist()]]
    k = max(den.bit_length() for _, den in ratios) - 1
    big_t, *big_values = [num << (k + 1 - den.bit_length()) for num, den in ratios]
    big_f = [big_values[i] for i in index.tolist()]
    vsum = [0] * g.n
    for u, x in zip(g.sources, big_f):
        vsum[u] += x
    if max(vsum) > big_t:
        return None
    # F > 0, so this also fails every non-positive denominator
    one = 1 << (2 * k)
    for h, (x, w) in enumerate(zip(big_f, g.targets)):
        if x * (big_t - vsum[w] + big_f[h ^ 1]) < one:
            return None
    vsum_float = np.bincount(np.array(g.sources, dtype=np.intp), weights=f, minlength=g.n)
    slack = t - float(vsum_float.max())
    # the exact vertex sums are at most t; only float rounding can say less
    return max(slack, 0.0)


def _newton(q: _Operators, t: float, f: np.ndarray, solve=None):
    """Monotone Newton at t from a subsolution f below every supersolution.
    Returns (diverged, last iterate, steps, solver): diverged is True on one
    of the refutations of the module docstring and False once Newton has
    converged, that is, once a step is down to rounding.

    A factorization of I - J is reused while each step at least halves the
    residual, starting with solve when given. J only grows along the
    iterates and as t falls, so a step d with an older J0 <= J is still
    safe: (I - J0)^-1 <= (I - J)^-1 keeps F + d below every supersolution,
    and r + J d >= r + J0 d = d keeps it a subsolution."""
    last = math.inf
    for step in range(1, _NEWTON_STEPS + 1):
        den = t - q.C @ f
        if den.min() <= 0.0:
            return True, f, step, solve
        phi = 1.0 / den
        if phi.max() > t:
            return True, f, step, solve
        r = phi - f
        w = phi * phi
        # t - C f is off by about eps t, which moves phi by about eps t w
        if np.all(r <= _ROUNDING * t * w):
            return False, f, step, solve
        if solve is None or r.max() > 0.5 * last:
            solve = q.factor(w)
            # (I - J) e = 1 with e < 0 somewhere gives the witness
            # x = max(-e, 0): J x >= x + 1 on its support
            x = np.maximum(-solve(np.ones(q.size)), 0.0)
            if x.max() > 0.0 and np.all(w * (q.C @ x) >= x):
                return True, f, step, solve
        last = r.max()
        # with J0 the factorized Jacobian, r + J0 max(d, r) >= max(d, r)
        # keeps F a subsolution; below a supersolution d = sum_k J0^k r >= r,
        # so taking max(d, r) only repairs rounding, which I - J0 amplifies
        d = np.maximum(np.maximum(solve(r), r), 0.0)
        if not np.all(np.isfinite(d)) or np.all(d <= _ROUNDING * f):
            return False, f, step, solve
        f = f + d
    return False, f, _NEWTON_STEPS, solve


def _probe(q: _Operators, t: float, start: np.ndarray, solve=None):
    """Classify t from a subsolution start below every supersolution at t,
    reusing solve (a factorization at start or below) if given. Also
    returns Newton's last iterate at t and its solver."""
    diverged, f, steps, solve = _newton(q, t, start, solve)
    if diverged:
        return ProbeReport(t, False, "diverged", steps, None, None), f, solve
    # f and its solver serve every t' < t too, so they start the ladder
    for eta in _CERT_SHIFTS:
        diverged, cert, more, _ = _newton(q, t * (1.0 - eta), f, solve)
        steps += more
        if diverged:
            break
        slack = _supersolution_slack(t, cert, q.D @ cert, q.C @ cert)
        if slack is not None:
            return ProbeReport(t, True, "certified", steps, slack, cert), f, solve
    return ProbeReport(t, False, "uncertified", steps, None, None), f, solve


def _lift_certificate(g: MultiGraph, q: _Operators, t: float, f: np.ndarray):
    """Per-half-edge certificate and its full-graph slack; raises if the
    lifted vector fails the check the quotient passed."""
    lifted = f[q.cls]
    slack = _is_supersolution(g, t, lifted)
    if slack is None:
        raise RuntimeError(f"certificate at t = {t!r} fails the full-graph check")
    return lifted, slack


def feasibility_probe(g: MultiGraph, t: float) -> ProbeReport:
    """Classify a single threshold t for rho(T) <= t. Certified answers carry
    a per-half-edge certificate that passed _is_supersolution on g."""
    require_connected(g, "feasibility_probe")
    if g.m == 0:  # rho(T) = 0, and the empty vector is the certificate
        slack = _is_supersolution(g, float(t), np.zeros(0))
        if slack is None:
            return ProbeReport(float(t), False, "diverged", 0, None, None)
        return ProbeReport(float(t), True, "certified", 0, slack, np.zeros(0))
    q = _Operators(quotient(g))
    rep, _, _ = _probe(q, float(t), np.zeros(q.size))
    if not rep.feasible:
        return rep
    lifted, slack = _lift_certificate(g, q, rep.t, rep.fixed_point)
    return replace(rep, fixed_point=lifted, slack_min=slack)


def rho_tree(g: MultiGraph, tol: float = BISECTION_TOL) -> RhoResult:
    """Bracket the cover tree's spectral radius to width tol by bisection.

    The initial bracket is [best walk-count root, max degree]; both endpoints
    are certified without probes (walk roots never exceed rho, and F = 1 is a
    supersolution at t = max degree). lo moves only on a diverged probe and
    hi only on a certified one. A tol below about 1e-12 t stops wider than
    tol: the smallest certificate shift is 1e-13 t, so probes that close to
    rho(T) end uncertified.
    """
    require_connected(g, "rho_tree")
    if not tol > 0:  # NaN fails too
        raise ValueError("tolerance must be positive")
    if g.m == 0:
        return RhoResult(0.0, 0.0, 0.0, tol, {}, 0.0, (), 0, ())

    cq = quotient(g)
    q = _Operators(cq)
    delta_max = float(g.max_degree)
    # walk profiles depend only on the colour, so one vertex per colour will do
    reps = {c: v for v, c in enumerate(cq.colors)}.values()
    walk_root = max(max(rho_lower_sequence(g, v, LOWER_BOUND_DEPTH)) for v in reps)
    lo = min(walk_root, delta_max)
    hi = delta_max

    reports: list[ProbeReport] = []
    best: ProbeReport | None = None
    # Newton's iterate at hi: a subsolution at every t < hi that lies below
    # F*(hi), hence below every supersolution at t, so probes start there,
    # with the factorization made at or below it
    start, solve = np.zeros(q.size), None

    def probe(t: float) -> str:
        nonlocal lo, hi, best, start, solve
        rep, f, factored = _probe(q, t, start, solve)
        reports.append(rep)
        if rep.status == "certified":
            hi, best, start, solve = t, rep, f, factored
        elif rep.status == "diverged":
            lo = t
        return rep.status

    while hi - lo > tol and len(reports) < 200:
        mid = 0.5 * (lo + hi)
        if probe(mid) == "uncertified":
            probe(mid - 0.25 * tol)
            probe(mid + 0.25 * tol)
            break

    # hi still at the max degree means F = 1 is the certificate
    cert = best.fixed_point if best is not None else np.ones(q.size)
    fixed, slack_min = _lift_certificate(g, q, hi, cert)
    return RhoResult(
        0.5 * (lo + hi),
        lo,
        hi,
        tol,
        dict(enumerate(fixed.tolist())),
        slack_min,
        tuple(r.iterations for r in reports),
        sum(r.ambiguous for r in reports),
        tuple((r.t, r.feasible, r.status) for r in reports),
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


def rho_ball_power(g: MultiGraph, v: int, radius: int) -> float:
    """Top eigenvalue of the radius-`radius` ball of the cover tree at a lift
    of v, a lower bound for rho(T).

    Eliminating t I - A_ball from the leaves (LDL^T) leaves the pivot
    1 / F[a, j] at a node whose in-half-edge has class a and which has j
    levels below it, where F[a, 0] = 1 / t and F[a, j] = 1 / (t - (C F[j-1])[a]);
    the root's pivot is t minus the sum of F[radius - 1] over the half-edges
    at v. By Sylvester's law t exceeds the top eigenvalue exactly when every
    pivot is positive, so t is bisected on [0, max degree] to float
    precision and the last t that failed is returned. Only the classes
    present at a depth are tested: a class that no node there carries can
    have a non-positive pivot of its own.
    """
    require_connected(g, "rho_ball_power")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0 or g.m == 0:  # a single node
        return 0.0

    cq = quotient(g)
    q = _Operators(cq)
    at_root = _matrix([cq.D[cq.colors[v]]], (1, q.size), True)[0]
    # present[d - 1]: the classes of the half-edges entering depth d
    present = [at_root > 0]
    for _ in range(1, radius):
        present.append(q.C.T @ present[-1].astype(float) > 0.0)

    def exceeds_top(t: float) -> bool:
        f = np.zeros(q.size)
        for p in reversed(present):
            den = np.where(p, t - q.C @ f, 1.0)
            if den.min() <= 0.0:
                return False
            f = p / den
        return t - at_root @ f > 0.0

    lo, hi = 0.0, float(g.max_degree)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if exceeds_top(mid):
            hi = mid
        else:
            lo = mid
    return lo
