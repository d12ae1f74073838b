"""Certified spectral radius of the universal cover tree.

For a threshold t, the branch growth map over half-edges is

    phi(F)[h] = 1 / (t - sum of F[h'] over continuations h' of h).

A positive F with

    phi(F) <= F   and   sum of F at each vertex <= t

(a supersolution) certifies a positive function Z on the cover tree with
(A Z)(x) <= t Z(x) everywhere, hence rho(T) <= t. Its entries never exceed
t. Iterates from F = 0 stay constant on half-edge classes, so everything
here runs on the cover's quotient (cover.quotient), with its continuation
counts C and per-colour counts D, in float64. The certificate behind a
reported hi is checked on every half-edge in exact arithmetic instead: t
and F are dyadic rationals, like every float, so one power of two scales
them to integers. hi is therefore a proof, not an upper bound up to rounding.

Newton. Monotone Newton (Esparza, Kiefer and Luttenberger, SIAM J. Comput.
2010): phi = phi(F), r = phi - F, J = diag(phi^2) C, and F += d where
(I - J) d = r. phi is monotone and convex, so for a subsolution F below a
supersolution G, G - F >= r + J (G - F), hence G - F >= sum_k J^k r = d:
every iterate is again a subsolution below every supersolution, and so is
phi of it. From such a start a run converges (a step is down to rounding)
or diverges, which proves rho(T) >= t. It diverges when a denominator is
<= 0 or a vertex sum of phi exceeds t, which no iterate below a
supersolution can do (phi of it lies below the supersolution, whose vertex
sums are at most t), or when (I - J) e = 1 has a solution with a negative
entry. Then x = max(-e, 0) has J x >= x + 1 on its support; J x >= x is
checked, and it gives rho(J) >= 1 (Collatz-Wielandt). For t > rho(T) the
least fixed point F* is a supersolution with rho(J(F*)) < 1 (it reaches 1
only at the fold t = rho(T)), and J(F) <= J(F*) below it, so t <= rho(T).
By convexity this is how a run below the fold ends: within a few steps
Newton reaches an iterate where I - J stops being an M-matrix. No
eigensolve is needed. Each linear system is factored once, by LAPACK's LU
(getrf) up to _DENSE_SOLVE_CAP classes and by a sparse LU (splu) above, and
that factorization serves every solve with it.

Estimate. A graph with m <= n has an amenable cover, so rho(T) = lambda1,
and the fold point is the Perron ratio F_y (_perron_ratio): the estimate
is lambda1, with no Newton step. Other graphs, and unicyclic ones above
_DENSE_SOLVE_CAP classes, solve for the fold. The least fixed points
F*(t), t > rho(T), form a branch that folds at t = rho(T), where I - J
becomes singular. Newton's method on the bordered system

    F (t - C F) = 1,   (diag(t - C F) - diag(F) C) v = 0,   sum(v) = 1

(F = phi(F) and (I - J) v = 0, each row times its denominator) converges
quadratically to the fold (F*, v, rho(T)) from a start near it (Moore and
Spence, SIAM J. Numer. Anal. 17, 1980). A warm-up supplies that start. It
bisects t between the bracket's initial ends (below), running monotone
Newton at each t from the last iterate that converged: a run that
diverges is a refutation and raises the lower end, and one that converges
lowers the upper end, until the Perron root mu of J there, estimated by
inverse iteration with Newton's factorization, has 1 - mu below
_NEAR_FOLD (near the fold 1 - mu shrinks like sqrt(t - rho(T))). A
bordered solve that loses its way (an iterate leaves F > 0, or it does not
settle) sends the warm-up on to try again closer to the fold; should the
warm-up's interval run down to rounding first, the estimate is its last t.

Certify. With the estimate s and pad = tol / (4 s), at least one ulp of
1, hi = s (1 + pad) needs a candidate F that, lifted to every half-edge,
passes the supersolution check at hi exactly on the full graph, so hi rests
neither on the quotient code nor on rounding. The candidate is the fold
point, a supersolution at any t > rho(T), or, when there is none or it
fails, the least fixed point at the midpoint s (1 + pad / 2) from one
Newton run. At the default tol the fold point passes on every corpus graph
(n <= 5, m <= 7), but not on all graphs: where the Perron vector falls
steeply along a pendant path, its rounding leaves F_y off, and hi rests on
the midpoint's fixed point (a 24-vertex unicyclic graph in the tests).
lo = s (1 - pad) needs one Newton run that diverges.
The midpoint's run starts from zeros, a subsolution below every
supersolution, so it is monotone Newton from below. The lo run starts
beside the fold point instead, at x = fold - c v with v the fold's null
vector, once x passes a check at t: t - C x > 0, phi(x) > x, and
u = (I - J(x))^-1 1 > 0 with J u < u, each by more than rounding. Then
I - J is a nonsingular M-matrix, and convexity gives every supersolution
G at t (I - J)(G - x) >= phi(x) - x >= 0, so G >= x: x is a valid start.
From there the run diverges in about 2 steps, where one from below takes
about 17 to cross the fold's stretch of linear convergence. c grows by
doubling until x passes; when no x passes, or there is no null vector, the
lo run starts from zeros too. The run from x starts with the check's
factorization at x.
A side whose check fails doubles its pad, so the bracket is always a proof,
only wider. hi stays at most the max degree, where F = 1 is a
supersolution, and lo at least sqrt(max degree), rounded down, the top
eigenvalue of the star the cover contains at a vertex of max degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .cover import Quotient, backtracking_walk_profile, count_matrix, quotient
from .multigraph import MultiGraph, require_connected, require_integer

DEFAULT_TOL = 1e-9

_DENSE_SOLVE_CAP = 256
# monotone Newton gains about a bit per step even at the fold, so a run
# that has not stopped by then is stuck in rounding
_NEWTON_STEPS = 200
# a step of a few units in the last place is rounding, not progress
_ROUNDING = 4 * np.finfo(float).eps
# 1 - mu below which the warm-up tries the bordered solve; on the corpus
# it settled from every start up to 0.6 and missed one graph at 0.7
_NEAR_FOLD = 0.5
# the bordered solve settles within 18 steps on the corpus and on random
# sparse multigraphs; one still moving after this many has lost its way
_FOLD_STEPS = 30
# the multiples s in the lo run's candidate starts (_start_below_fold): the
# first passes on 1,141 of the corpus's 1,169 graphs with a cycle and on
# gnp_giant(300, 0..2) and (1000, 3); 1024 was needed on 2 corpus graphs
_START_STEPS = (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)


@dataclass(frozen=True)
class RhoResult:
    """A bracket lo <= rho(T) <= hi. probes lists the checks behind it as
    (t, feasible, status): a hi candidate "certified" by the exact check,
    which moves hi to t, or "uncertified", and a lo Newton run "diverged"
    or "uncertified" (it converged). iterations_per_probe holds their
    Newton steps, the first also counting the estimate's. fixed_point, the
    certificate behind hi, has one value per class of cover.quotient(g)."""

    value: float
    lo: float
    hi: float
    tol: float
    fixed_point: tuple[float, ...]
    vertex_slack_min: float
    iterations_per_probe: tuple[int, ...]
    ambiguous_probes: int
    probes: tuple[tuple[float, bool, str], ...]

    @property
    def width(self) -> float:
        return self.hi - self.lo


@cache
def _lapack_lu():
    """LAPACK's dense LU routines (getrf, getrs), imported on first use:
    importing scipy.linalg costs about 0.24 s, which `import coverspectra`
    does not pay."""
    from scipy.linalg.lapack import dgetrf, dgetrs

    return dgetrf, dgetrs


def _solver(a):
    """b -> a^-1 b from one LU factorization of a, shared by every solve:
    LAPACK's getrf for a dense array, splu for a sparse matrix. All-NaN in
    the shape of b when a is exactly singular."""
    if isinstance(a, np.ndarray):
        dgetrf, dgetrs = _lapack_lu()
        lu, piv, info = dgetrf(a)
        if info == 0:
            return lambda b: dgetrs(lu, piv, b)[0]
    else:
        from scipy.sparse.linalg import splu

        try:
            return splu(a.tocsc()).solve
        except RuntimeError:  # exactly singular
            pass
    return lambda b: np.full(b.shape, np.nan)


class _Operators:
    """The float64 view of a cover.Quotient that Newton, the fold solve and
    pivots use: C and D (cover.count_matrix) as dense arrays up to
    _DENSE_SOLVE_CAP classes and as CSR matrices above. Every linear solve,
    dense or sparse, goes through _solver."""

    def __init__(self, q: Quotient):
        self.cls = q.cls
        self.size = k = q.size
        self.dense = k <= _DENSE_SOLVE_CAP
        self.C = count_matrix(q.C, k, self.dense)
        self.D = count_matrix(q.D, k, self.dense)

    def factor(self, w: np.ndarray):
        """A solver (_solver) for (I - diag(w) C) x = b."""
        if self.dense:
            return _solver(np.eye(self.size) - w[:, None] * self.C)
        from scipy.sparse import diags, identity

        return _solver(identity(self.size) - diags(w) @ self.C)

    def fold_step(self, f: np.ndarray, v: np.ndarray, t: float):
        """Newton's step (df, dv, dt) on the bordered fold system of the
        module docstring at (f, v, t); non-finite if its matrix is singular."""
        k = self.size
        den, cv = t - self.C @ f, self.C @ v
        rhs = -np.concatenate([f * den - 1.0, den * v - f * cv, [v.sum() - 1.0]])
        if self.dense:
            a = np.zeros((2 * k + 1, 2 * k + 1))
            a[:k, :k] = a[k:-1, k:-1] = np.diag(den) - f[:, None] * self.C
            a[k:-1, :k] = -v[:, None] * self.C - np.diag(cv)
            a[:k, -1], a[k:-1, -1], a[-1, k:-1] = f, v, 1.0
        else:
            from scipy.sparse import bmat, diags

            h = diags(den) - diags(f) @ self.C
            dh = -(diags(v) @ self.C) - diags(cv)
            a = bmat([[h, None, f[:, None]], [dh, h, v[:, None]], [None, np.ones((1, k)), None]])
        d = _solver(a)(rhs)
        return d[:k], d[k : 2 * k], d[2 * k]


def _is_supersolution(g: MultiGraph, t: float, f: np.ndarray, cls: np.ndarray) -> float | None:
    """The supersolution check of f[cls] (f per class, cls each half-edge's)
    on every half-edge of g, in exact arithmetic. Every float is a dyadic
    rational, so t and f are scaled by one power of two, 2^k, to the Python
    integers T and F; then the vertex sums of F are at most T, and f (t -
    continuation sum) >= 1 is F (T - continuation sum) >= 4^k. Returns the
    vertex slack t - (largest vertex sum of f[cls]), evaluated in float64,
    when f passes, else None."""
    if not np.all(np.isfinite(f) & (f > 0.0)):
        return None
    ratios = [x.as_integer_ratio() for x in [t, *f.tolist()]]
    k = max(den.bit_length() for _, den in ratios) - 1
    big_t, *big_values = [num << (k + 1 - den.bit_length()) for num, den in ratios]
    big_f = [big_values[a] for a in cls.tolist()]
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
    vsum_float = np.bincount(np.array(g.sources, dtype=np.intp), weights=f[cls], minlength=g.n)
    slack = t - float(vsum_float.max())
    # the exact vertex sums are at most t; only float rounding can say less
    return max(slack, 0.0)


def _newton(q: _Operators, t: float, f: np.ndarray, solve=None, checked: bool = False):
    """Monotone Newton at t from a subsolution f below every supersolution.
    Returns (diverged, last iterate, steps, solver): diverged is True on one
    of the refutations of the module docstring and False once Newton has
    converged, that is, once a step is down to rounding.

    A dense factorization costs about one solve, so the dense path factors
    I - J at every step and solves the witness and the step with that one LU,
    but for a checked first step: solve is then _valid_start's LU at f, whose
    u > 0 rules out a witness. The sparse path reuses a factorization while
    each step at least halves the residual, starting with solve when given,
    which must factor I - J0 for a J0 <= J(f). J only grows along the
    iterates and as t falls, so a step d with an older J0 <= J is still
    safe: (I - J0)^-1 <= (I - J)^-1 keeps F + d below every supersolution,
    and r + J d >= r + J0 d = d keeps it a subsolution. The reductions call
    the ufuncs' reduce, which skips the Python-level wrapper of .all(),
    .max() and .min(): 2% of rho_tree's time on the corpus."""
    last = math.inf
    for step in range(1, _NEWTON_STEPS + 1):
        den = t - q.C @ f
        if np.minimum.reduce(den) <= 0.0:
            return True, f, step, solve
        phi = 1.0 / den
        if np.maximum.reduce(q.D @ phi) > t:
            return True, f, step, solve
        r = phi - f
        w = phi * phi
        # t - C f is off by about eps t, which moves phi by about eps t w
        if np.logical_and.reduce(r <= _ROUNDING * t * w):
            return False, f, step, solve
        if solve is None or (q.dense and not (checked and step == 1)) or np.maximum.reduce(r) > 0.5 * last:
            solve = q.factor(w)
            # (I - J) e = 1 with e < 0 somewhere gives the witness
            # x = max(-e, 0): J x >= x + 1 on its support
            x = np.maximum(-solve(np.ones(q.size)), 0.0)
            if np.maximum.reduce(x) > 0.0 and np.logical_and.reduce(w * (q.C @ x) >= x):
                return True, f, step, solve
        last = np.maximum.reduce(r)
        # with J0 the factorized Jacobian, r + J0 max(d, r) >= max(d, r)
        # keeps F a subsolution; below a supersolution d = sum_k J0^k r >= r,
        # so taking max(d, r) only repairs rounding, which I - J0 amplifies
        d = np.maximum(np.maximum(solve(r), r), 0.0)
        if not np.logical_and.reduce(np.isfinite(d)) or np.logical_and.reduce(d <= _ROUNDING * f):
            return False, f, step, solve
        f = f + d
    return False, f, _NEWTON_STEPS, solve


def _valid_start(q: _Operators, t: float, f: np.ndarray):
    """A solver for I - J(f) if f is a valid start of monotone Newton at t
    (the module docstring's check: t - C f > 0, phi(f) > f, and u = (I -
    J)^-1 1 > 0 with J u < u), else None. Each inequality must hold by more
    than the rounding of phi, about eps t phi relative, which _newton's
    convergence test allows for too."""
    den = t - q.C @ f
    if not np.minimum.reduce(den) > 0.0:
        return None
    phi = 1.0 / den
    w = phi * phi
    room = _ROUNDING * t * phi
    if not np.logical_and.reduce(phi - f > room * phi):
        return None
    solve = q.factor(w)
    u = solve(np.ones(q.size))
    # NaN fails, as on an exactly singular I - J
    if np.logical_and.reduce(u > 0.0) and np.logical_and.reduce(w * (q.C @ u) < (1.0 - room) * u):
        return solve
    return None


def _start_below_fold(q: _Operators, t: float, fold: np.ndarray, v: np.ndarray, pad: float):
    """The first of fold - s pad max(fold) v / max(v), s in _START_STEPS,
    that is a valid start at t (_valid_start), with its solver, or None."""
    scale = pad * fold.max() / v.max()
    for s in _START_STEPS:
        x = fold - (s * scale) * v
        solve = _valid_start(q, t, x)
        if solve is not None:
            return x, solve
    return None


def _perron(solve, v: np.ndarray) -> tuple[float, np.ndarray]:
    """Estimate of the Perron root mu of J and its vector from v > 0: three
    steps of inverse iteration with a solver for I - J, an M-matrix whose
    inverse has the top eigenvalue 1 / (1 - mu). A start of the bordered
    solve needs no more."""
    for _ in range(3):
        y = solve(v / v.sum())
        if not y.sum() > 0.0:  # singular to rounding: mu is 1
            return 1.0, v
        v = y
    return 1.0 - 1.0 / v.sum(), v / v.sum()


def _moore_spence(q: _Operators, f: np.ndarray, v: np.ndarray, t: float, lo: float):
    """Newton on the bordered fold system from the warm-up's least fixed
    point f at t > rho(T) >= lo, with v its Perron vector estimate. Returns
    (estimate, fold point, its null vector v, steps); the estimate is None
    when the solve lost its way: an iterate fails F > 0 or rises above the
    start, none settles in _FOLD_STEPS steps, or one settles below lo. The
    first step may overshoot below lo, as Newton from above a fold does."""
    top = t
    for step in range(1, _FOLD_STEPS + 1):
        df, dv, dt = q.fold_step(f, v, t)
        f, v, t = f + df, v + dv, t + dt
        if not (t <= top and f.min() > 0.0):  # NaN fails too
            break
        if abs(dt) <= _ROUNDING * t:
            return (float(t) if t >= lo else None), f, v, step
    return None, f, v, step


def _fold(q: _Operators, lo: float, hi: float):
    """Estimate rho(T) of a graph with a cycle from lo <= rho(T) <= hi (the
    module docstring's warm-up and bordered solve). Returns the estimate,
    its fold point and null vector (both None when no bordered solve settled
    and the estimate is the warm-up's last t), and the Newton steps taken."""
    f, v, solve, steps = np.zeros(q.size), np.ones(q.size), None, 0
    top = t = hi
    while True:
        diverged, iterate, n, factored = _newton(q, t, f, solve)
        steps += n
        if diverged:
            lo = t
        else:
            top, f, solve = t, iterate, factored
            mu, v = _perron(solve, v)
            if 1.0 - mu < _NEAR_FOLD:
                est, fold, null, n = _moore_spence(q, f, v, top, lo)
                steps += n
                if est is not None:
                    return est, fold, null, steps
        t = 0.5 * (lo + top)
        if not lo < t < top:  # rho(T) = top, or [lo, top] is down to rounding
            return top, None, None, steps


def _perron_ratio(q: Quotient, dense: bool):
    """lambda1, the Perron ratio F_y[a] = x[w] / x[u] of each class a from
    colour u to w, B x = lambda1 x (Quotient.perron, or above the dense cap,
    reached here by trees only, eigsh on its sparse S), and the null vector
    v of I - J(F_y): F_y = phi(F_y) at lambda1 with vertex sums lambda1, so
    on an amenable cover it is the fold point. v[a] = ends(a) / x[u]^2 with
    ends(a) the cover's ends beyond a class-a half-edge: 0 into a pendant
    tree (Quotient.peel), 2 out of one, 1 along the cycle; None on a tree
    (J is nilpotent). Both are None where x is not positive."""
    if dense:
        lam, x = q.perron
    else:
        from scipy.sparse.linalg import eigsh

        b, root = q.colour_matrix(dense=False), np.sqrt([len(vs) for vs in q.members])
        top, u = eigsh(b.multiply(b.T).sqrt(), k=1, which="LA", v0=root)
        lam, x = float(top[0]), u[:, 0] / root * np.sign(u[:, 0].sum())
    if not x.min() > 0.0:
        return lam, None, None
    src, dst = np.array(q.ends).T
    outward = q.peel[0]
    inward = {q.ends[a][::-1] for a in outward}
    ends = np.array([0 if a in outward else 2 if e in inward else 1 for a, e in enumerate(q.ends)])
    null = ends * (x.min() / x[src]) ** 2  # scaled so that it cannot overflow
    return lam, x[dst] / x[src], (null if ends.any() else None)


def rho_tree(g: MultiGraph, tol: float = DEFAULT_TOL) -> RhoResult:
    """Bracket the cover tree's spectral radius to width at most tol / 2,
    wider only where a check failed.

    The module docstring has the steps: an estimate at the fold (lambda1
    when m <= n), then hi and lo a quarter of tol either side of it, doubling
    that distance on a side whose check fails. hi moves only on a candidate
    that passes the exact check, lo only on a Newton run that diverges. tol
    can go down to a few units in the last place of rho(T).
    """
    require_connected(g, "rho_tree")
    if not tol > 0:  # NaN fails too
        raise ValueError("tolerance must be positive")
    if g.m == 0:
        return RhoResult(0.0, 0.0, 0.0, tol, (), 0.0, (), 0, ())

    q = _Operators(quotient(g))
    hi = float(g.max_degree)
    # the cover contains the star at a vertex of max degree, whose top
    # eigenvalue is sqrt(hi): rounded down, it needs no probe
    lo = math.sqrt(hi)
    if Fraction(lo) ** 2 > hi:
        lo = math.nextafter(lo, 0.0)
    if g.m < g.n or (g.m == g.n and q.dense):  # a tree has no fold to warm up to
        (est, fold, null), steps = _perron_ratio(quotient(g), q.dense), 0
    else:
        est, fold, null, steps = _fold(q, lo, hi)
    zeros = np.zeros(q.size)

    checks: list[tuple[float, bool, str, int]] = []  # t, feasible, status, steps
    fixed = None
    # one ulp at least: a pad that rounds away would never grow
    first_pad = pad = max(tol / (4.0 * est), math.ulp(1.0))
    while fixed is None and lo < (t := est * (1.0 + pad)) < hi:
        cand, n = fold, 0
        slack = None if fold is None else _is_supersolution(g, t, fold, q.cls)
        if slack is None:
            _, cand, n, _ = _newton(q, est * (1.0 + 0.5 * pad), zeros)
            slack = _is_supersolution(g, t, cand, q.cls)
        checks.append((t, slack is not None, "uncertified" if slack is None else "certified", n))
        if slack is not None:
            hi, fixed, slack_min = t, cand, slack
        pad *= 2.0
    if fixed is None:  # F = 1 is a supersolution at the max degree
        fixed = np.ones(q.size)
        slack_min = _is_supersolution(g, hi, fixed, q.cls)
        if slack_min is None:
            raise RuntimeError(f"certificate at t = {hi!r} fails the full-graph check")

    pad = first_pad
    while lo < (t := est * (1.0 - pad)) < hi:
        near = None if null is None else _start_below_fold(q, t, fold, null, pad)
        diverged, _, n, _ = _newton(q, t, *(near or (zeros,)), checked=near is not None)
        checks.append((t, False, "diverged" if diverged else "uncertified", n))
        if diverged:
            lo = t
            break
        pad *= 2.0

    iterations = [n for *_, n in checks]
    if iterations:
        iterations[0] += steps
    return RhoResult(
        0.5 * (lo + hi),
        lo,
        hi,
        tol,
        tuple(fixed.tolist()),
        slack_min,
        tuple(iterations),
        sum(status == "uncertified" for _, _, status, _ in checks),
        tuple(c[:3] for c in checks),
    )


def rho_lower_sequence(g: MultiGraph, v: int, depth: int) -> list[float]:
    """Nondecreasing lower bounds N_{2k}(v)^(1/2k) for k = 1..depth.

    Each term is a closed-walk count of the cover at a lift of v, so the
    sequence converges to rho(T) from below.
    """
    require_connected(g, "rho_lower_sequence")
    require_integer(depth, "depth")
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
    require_integer(radius, "radius")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0 or g.m == 0:  # a single node
        return 0.0

    cq = quotient(g)
    q = _Operators(cq)
    at_root = count_matrix([cq.D[cq.colors[v]]], q.size, True)[0]
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
