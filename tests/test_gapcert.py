import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    HalfEdgeKernel,
    collatz_wielandt_by_fractions,
    connected_lift,
    delta_assignment,
    delta_by_dfs,
    g_values_by_fractions,
    gamma_assignment,
    gnp_giant,
    per_half_edge,
    two_core_by_peel,
)
from coverspectra import spectra
from coverspectra.cover import quotient
from coverspectra.gapcert import (
    _GRID,
    ROLE_ROOT,
    CertificationError,
    _Kernel,
    _proven_bounds,
    _scaled_perron,
    _weights,
    _widen,
    certify_gap,
    unicyclic_defect,
)
from coverspectra.multigraph import CyclomaticClass, MultiGraph, cyclomatic_class
from coverspectra.rho import rho_tree
from coverspectra.spectra import eigen_spectrum
from coverspectra.generators import (
    bowtie,
    complete,
    cycle,
    path,
    theta,
    two_cycles_glued,
)

# two cycles joined by a pendant path: the smallest margin of the n <= 6 run
# before the chain step stopped depending on the graph's size
TWO_LOOPS_ON_A_PATH = MultiGraph(6, ((0, 0), (0, 0), (0, 1), (1, 2), (1, 3), (2, 4), (4, 5), (5, 5)))


def _multicyclic(graphs):
    return [g for g in graphs if cyclomatic_class(g) is CyclomaticClass.MULTICYCLIC]


@pytest.fixture(scope="module")
def sweep(corpus):
    """Every multicyclic corpus graph, gnp_giant(300, 0..5) and 10-lifts of
    the bowtie, K4 and theta(1, 2, 3)."""
    graphs = _multicyclic(corpus) + [gnp_giant(300, seed) for seed in range(6)]
    return graphs + [connected_lift(base, 10) for base in (bowtie(), complete(4), theta(1, 2, 3))]


def _lifted_weights(g):
    """certify_gap's class weights lifted to half-edges, and epsilon."""
    gw, dw, eps = _weights(quotient(g))
    return per_half_edge(g, gw), per_half_edge(g, dw), eps


def _kernel(g, spec):
    q = quotient(g)
    gw, dw, _ = _weights(q)
    return _Kernel(q, _scaled_perron(q, spec), gw, dw)


# -- interior weighting -------------------------------------------------------------


def test_bowtie_gamma_chain():
    g = bowtie()
    w, _, eps = _lifted_weights(g)
    assert eps == Fraction(1, 6)  # the longest chain has positions 0, 1, 2
    # half-edges leaving the degree-4 center carry weight 1
    for h, val in w.items():
        if g.sources[h] == 0:
            assert val == 1
    # each triangle: one +eps hop between the outer vertices, then +2eps back in
    assert sorted(w.values()) == sorted(
        [Fraction(1)] * 4 + [1 + eps] * 4 + [1 + 2 * eps] * 4
    )


def test_theta_gamma_values():
    g = theta(2, 2, 2)
    w, _, eps = _lifted_weights(g)
    assert eps == Fraction(1, 4)
    hubs = [v for v in range(g.n) if g.degrees[v] == 3]
    assert len(hubs) == 2
    for h, val in w.items():
        assert val == (1 if g.sources[h] in hubs else 1 + eps)


def test_dense_core_gamma_all_one():
    w, _, _ = _lifted_weights(complete(4))
    assert set(w.values()) == {Fraction(1)}
    assert len(w) == 12


def test_gamma_covers_interior_and_stays_in_range(corpus):
    for g in _multicyclic(corpus[::10]):
        core = two_core_by_peel(g)
        w, _, _ = _lifted_weights(g)
        assert set(w) == set(core.int_half_edges)
        assert all(1 <= val < Fraction(3, 2) for val in w.values())


def test_gamma_inequality_exact(corpus):
    """At the far end of any interior half-edge, the outgoing interior weights
    must strictly dominate the incoming one, in exact rationals."""
    for g in _multicyclic(corpus[::10]):
        core = two_core_by_peel(g)
        w, _, _ = _lifted_weights(g)
        for h in core.int_half_edges:
            v = g.targets[h]
            onward = [
                h2 for h2 in g.half_edges_at[v] if h2 != (h ^ 1) and h2 in core.int_half_edges
            ]
            assert sum(w[h2] for h2 in onward) > w[h]


def test_gamma_rejects_thin_inputs():
    with pytest.raises(ValueError, match="multicyclic"):
        gamma_assignment(two_core_by_peel(cycle(4)), Fraction(1, 8))
    with pytest.raises(ValueError, match="multicyclic"):
        certify_gap(cycle(4))


def test_class_weights_match_half_edge_oracles(sweep):
    """The peel on the quotient gives every half-edge of a class the weight
    that the peel on the graph gives it, at the same epsilon."""
    for g in sweep:
        core = two_core_by_peel(g)
        gw, dw, eps = _lifted_weights(g)
        assert gw == gamma_assignment(core, eps)
        assert dw == delta_assignment(core)


# -- exterior weighting -------------------------------------------------------------


def test_pendant_path_deltas():
    # two triangles at vertex 0 with a two-edge tail hanging off it
    g = MultiGraph(7, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 5), (5, 6)))
    _, w, _ = _lifted_weights(g)
    by_edge = {(g.sources[h], g.targets[h]): val for h, val in w.items()}
    assert by_edge == {(0, 5): Fraction(1), (5, 6): Fraction(1, 2)}


def test_pendant_branching_deltas():
    # a tail that forks: 0-5, then 5-6 and 5-7
    g = MultiGraph(
        8, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 5), (5, 6), (5, 7))
    )
    _, w, _ = _lifted_weights(g)
    assert sorted(w.values()) == [Fraction(1, 3), Fraction(1, 3), Fraction(1)]


def test_no_exterior_empty_map():
    assert _weights(quotient(bowtie()))[1] == {}


def test_delta_one_pass_matches_depth_first_walk(corpus):
    """The pass over the peel order gives exactly the weights of a
    depth-first walk down each pendant tree, and so does the peel on the
    quotient."""
    graphs = [g for g in corpus if g.m >= g.n]
    graphs += [gnp_giant(300, seed) for seed in range(6)]  # many pendant trees
    graphs += [
        MultiGraph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4))),
        MultiGraph(6, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (3, 5))),
    ]
    for g in graphs:
        core = two_core_by_peel(g)
        want = delta_by_dfs(core)
        assert delta_assignment(core) == want
        if cyclomatic_class(g) is CyclomaticClass.MULTICYCLIC:
            assert _lifted_weights(g)[1] == want


def test_delta_inequality_exact(corpus):
    for g in _multicyclic(corpus[::10]):
        core = two_core_by_peel(g)
        _, w, _ = _lifted_weights(g)
        assert set(w) == set(core.ext_half_edges)
        for h, val in w.items():
            assert 0 < val <= 1
            u = g.targets[h]
            onward = [h2 for h2 in g.half_edges_at[u] if h2 != (h ^ 1)]
            assert sum(w[h2] for h2 in onward) < val


# -- the bound function ---------------------------------------------------------------


def test_g_collapses_to_lambda1_at_zero(zoo_graph, cache):
    g = zoo_graph
    if cyclomatic_class(g) is not CyclomaticClass.MULTICYCLIC:
        return
    spec = cache.spectrum(g)
    for val in _kernel(g, spec)([0.0], [0.0])[0]:
        assert val == pytest.approx(spec.lambda1, abs=1e-8)


def test_root_types_never_dominate(corpus, cache):
    for g in _multicyclic(corpus[::25]):
        kernel = _kernel(g, cache.spectrum(g))
        for gamma in (2.0**-6, 2.0**-12):
            vals = kernel([gamma], [gamma**2])[0]
            roots = [v for (_, role), v in zip(kernel.keys, vals) if role == ROLE_ROOT]
            others = [v for (_, role), v in zip(kernel.keys, vals) if role != ROLE_ROOT]
            assert max(roots) <= max(others) + 1e-12


def test_grid_matches_loop_oracle_bit_for_bit(sweep, cache):
    """Every grid row of the class kernel equals its own one-point evaluation
    with ==, and the half-edge kernel's value at each type's half-edges and
    core vertices within 1e-12 relative; certify_gap takes the first pair
    with the smallest max."""
    for g in sweep:
        spec = cache.spectrum(g)
        q = quotient(g)
        kernel = _kernel(g, spec)
        grid = kernel(*zip(*_GRID))
        assert grid.shape == (len(_GRID), len(kernel.keys))
        maxima = []
        for (gamma, delta), row in zip(_GRID, grid):
            point = kernel([gamma], [delta])[0]
            assert row.tolist() == point.tolist()
            maxima.append(point.max())

        gw, dw, _ = _lifted_weights(g)
        y = _scaled_perron(q, spec)
        oracle = HalfEdgeKernel(g, y[list(q.colors)], gw, dw)
        column = {key: i for i, key in enumerate(kernel.keys)}
        cls = q.cls.tolist()
        mapped = [
            column[(q.colors[x], role) if role == ROLE_ROOT else (cls[x], role)]
            for x, role in oracle.keys
        ]
        assert set(mapped) == set(range(len(kernel.keys)))
        want = oracle(*zip(*_GRID))
        assert np.all(np.abs(grid[:, mapped] - want) <= 1e-12 * np.abs(want))

        cert = certify_gap(g, rho_result=cache.rho(g), spectrum=spec)
        assert (cert.gamma, cert.delta) == _GRID[maxima.index(min(maxima))]
        best = kernel([cert.gamma], [cert.delta])[0]
        assert cert.g_values == dict(zip(kernel.keys, best.tolist()))
        assert cert.g_max == max(cert.g_values.values())


def test_kernel_grid_ignores_weight_key_order(corpus, cache):
    """Building _Kernel from the weight dicts in reversed key order only
    permutes the type columns: every grid row holds the same multiset of
    values and the same max, so certify_gap's choice does not depend on the
    order in which the peel writes its keys."""
    graphs = _multicyclic(corpus)[::7] + [connected_lift(bowtie(), 40)]
    for g in graphs:
        q = quotient(g)
        gw, dw, _ = _weights(q)
        y = _scaled_perron(q, cache.spectrum(g))
        forward = _Kernel(q, y, gw, dw)(*zip(*_GRID))
        backward = _Kernel(q, y, dict(reversed(gw.items())), dict(reversed(dw.items())))
        backward = backward(*zip(*_GRID))
        assert forward.max(axis=1).tolist() == backward.max(axis=1).tolist()
        assert [sorted(row) for row in forward.tolist()] == [
            sorted(row) for row in backward.tolist()
        ]


def test_proven_bounds_enclose_the_exact_values(sweep, cache):
    """At the chosen pair, every widened g is at least its exact value and
    CW_lo at most every exact (B y)_c / y_c, both in Fractions of the float
    y; the margin is at most CW_lo - g_hi in exact arithmetic."""
    for g in sweep:
        spec = cache.spectrum(g)
        cert = certify_gap(g, rho_result=cache.rho(g), spectrum=spec)
        q = quotient(g)
        kernel = _kernel(g, spec)
        y = _scaled_perron(q, spec)
        exact = g_values_by_fractions(g, y, cert.gamma_weights, cert.delta_weights, cert.gamma, cert.delta)
        assert list(exact) == kernel.keys
        for key, value in cert.g_values.items():
            assert Fraction(_widen(value, kernel.roundings, math.inf)) >= exact[key]
        cw_lo, g_hi = _proven_bounds(q, kernel, cert.g_max)
        assert Fraction(g_hi) >= max(exact.values())
        assert Fraction(cw_lo) <= min(collatz_wielandt_by_fractions(g, y))
        assert 0 < Fraction(cert.margin) <= Fraction(cw_lo) - Fraction(g_hi)


# -- certificates ----------------------------------------------------------------------


def test_bowtie_certificate():
    cert = certify_gap(bowtie())
    true_gap = eigen_spectrum(bowtie()).lambda1 - (math.sqrt(3) + math.sqrt(11)) / 2
    assert 0 < cert.margin <= true_gap + 1e-12
    assert cert.margin <= 0.04
    assert cert.rho_upper_bound >= (math.sqrt(3) + math.sqrt(11)) / 2 - 1e-9
    assert cert.rho_upper_bound >= cert.g_max


def test_k4_certificate():
    cert = certify_gap(complete(4))
    assert 0 < cert.margin <= 3 - 2 * math.sqrt(2) + 1e-12
    assert cert.margin == pytest.approx(1 / 6, abs=1e-12)


def test_grid_reaches_weights_above_one():
    """Three loops at one vertex: lambda1 = 6 and rho(T) = sqrt(20). The
    best pair has gamma = delta = 1, above the grid's old top of 1/2, where
    the margin was 7/6."""
    cert = certify_gap(MultiGraph(1, ((0, 0), (0, 0), (0, 0))))
    assert cert.margin >= 1.5 - 1e-12
    assert cert.margin <= 6 - math.sqrt(20)


def test_glued_cycles_tiny_but_positive():
    g = two_cycles_glued(20, 20)
    cert = certify_gap(g)
    assert 0 < cert.margin < 1e-4


def test_certificates_sound_on_corpus(corpus, cache):
    """margin > 0 exists for every multicyclic graph here, and the implied
    upper bound never undercuts rho_tree's independently certified bracket."""
    for g in _multicyclic(corpus[::15]):
        rho = cache.rho(g)
        cert = certify_gap(g, rho_result=rho, spectrum=cache.spectrum(g))
        assert cert.margin > 0
        assert rho.hi <= cert.lambda1 - cert.margin + 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_sparse_random_graphs_certify(seed, cache):
    """A chain step fixed by the cover, not by the graph's size, leaves a
    margin well above rounding on a sparse random graph's giant component."""
    g = gnp_giant(300, seed)
    rho, spec = cache.rho(g), cache.spectrum(g)
    cert = certify_gap(g, rho_result=rho, spectrum=spec)
    assert 1e-11 < cert.margin <= spec.lambda1 - rho.lo
    assert rho.hi <= spec.lambda1 - cert.margin + 1e-6


def test_two_cycles_on_a_pendant_path_keep_a_margin():
    assert certify_gap(TWO_LOOPS_ON_A_PATH).margin >= 1e-8


@pytest.mark.parametrize("name", ["bowtie", "k4", "theta123", "glued20"])
def test_lifts_keep_the_base_certificate(name, cache):
    """On connected 10-, 40- and 150-lifts the chain step and the chosen
    pair are the base's, and the margin is within 1e-12 of it (the
    glued(20, 20) 150-lift has 5,850 vertices, above the dense cap)."""
    base = {
        "bowtie": bowtie(),
        "k4": complete(4),
        "theta123": theta(1, 2, 3),
        "glued20": two_cycles_glued(20, 20),
    }[name]
    want = certify_gap(base)
    for k in (10, 40, 150):
        lift = connected_lift(base, k)
        cert = certify_gap(lift, rho_result=cache.rho(lift), spectrum=cache.spectrum(lift))
        assert (cert.epsilon_chain_step, cert.gamma, cert.delta) == (
            want.epsilon_chain_step,
            want.gamma,
            want.delta,
        )
        assert abs(cert.margin - want.margin) <= 1e-12


@pytest.mark.parametrize(
    "base", [bowtie(), complete(4), theta(1, 2, 3)], ids=["bowtie", "k4", "theta123"]
)
def test_perron_repair_above_the_dense_cap(base, cache, monkeypatch):
    """With the dense cap lowered below a 40-lift's size, y is still the
    dense route's per colour, since both lift the colour matrix's Perron
    vector: the certificate is the base's."""
    want = certify_gap(base)
    lift = connected_lift(base, 40)
    q = quotient(lift)
    dense = _scaled_perron(q, cache.spectrum(lift))
    monkeypatch.setattr(spectra, "DENSE_EIGEN_CAP", 10)
    spec = eigen_spectrum(lift)
    assert not spec.full
    y = _scaled_perron(q, spec)
    assert np.max(np.abs(y - dense) / dense) <= 1e-12
    cert = certify_gap(lift, rho_result=cache.rho(lift), spectrum=spec)
    assert (cert.gamma, cert.delta) == (want.gamma, want.delta)
    assert (cert.gamma_weights, cert.delta_weights) == (want.gamma_weights, want.delta_weights)
    assert abs(cert.margin - want.margin) <= 1e-12


@pytest.mark.parametrize(
    "base", [bowtie(), complete(4), theta(1, 2, 3)], ids=["bowtie", "k4", "theta123"]
)
def test_lift_above_the_dense_cap_keeps_its_bases_perron_pair(base, monkeypatch):
    """Above the dense cap a 40-lift's Perron vector is still lifted from the
    colour matrix, so it is exactly constant on colours, and lambda1 is the
    base's bit for bit."""
    want = eigen_spectrum(base).lambda1
    lift = connected_lift(base, 40)
    monkeypatch.setattr(spectra, "DENSE_EIGEN_CAP", 10)
    spec = eigen_spectrum(lift)
    assert not spec.full and spec.lambda1 == want
    for members in quotient(lift).members:
        assert np.all(spec.perron[list(members)] == spec.perron[members[0]])


def test_certificate_rejects_thin_graphs():
    with pytest.raises(ValueError, match="multicyclic"):
        certify_gap(cycle(5))
    with pytest.raises(ValueError, match="multicyclic"):
        certify_gap(path(3))


def test_certificate_rejects_nan_tolerance():
    with pytest.raises(ValueError, match="tolerance"):
        certify_gap(bowtie(), tol=float("nan"))
    # an infinite tolerance would switch the rho_tree cross-check off
    g = bowtie()
    real = rho_tree(g)
    fake = dataclasses.replace(real, hi=real.hi + 1.0)
    with pytest.raises(ValueError, match="tolerance"):
        certify_gap(g, tol=math.inf, rho_result=fake)


def test_inconsistent_cross_check_raises():
    g = bowtie()
    real = rho_tree(g)
    fake = dataclasses.replace(real, hi=real.hi + 1.0)
    with pytest.raises(CertificationError, match="inconsistent"):
        certify_gap(g, rho_result=fake)


def test_no_positive_margin_is_an_error(monkeypatch):
    """Every type at lambda1 leaves no positive margin: the widened g is
    above lambda1 and CW_lo at or below it, whatever the weights."""
    g = bowtie()
    lam = eigen_spectrum(g).lambda1
    monkeypatch.setattr(
        _Kernel, "__call__", lambda self, gammas, deltas: np.full((len(gammas), len(self.keys)), lam)
    )
    with pytest.raises(CertificationError, match="no positive margin"):
        certify_gap(g)


# -- unicyclic approximation -------------------------------------------------------------


def test_triangle_defect_exact():
    assert unicyclic_defect(cycle(3), 1) == pytest.approx(4 / 3, rel=1e-12)


def test_defect_increases_to_rho(cache):
    g = MultiGraph(5, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4)))  # C4 plus a leaf
    vals = [unicyclic_defect(g, n) for n in (1, 10, 100, 10_000)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    rho = cache.rho(g)
    assert abs(vals[2] - rho.value) < 0.01  # N = 100
    assert vals[-1] <= rho.value + 1e-9


def test_defect_limit_is_lambda1(corpus, cache):
    unicyclic = [g for g in corpus[::7] if g.m == g.n]
    assert unicyclic
    for g in unicyclic:
        spec = cache.spectrum(g)
        assert unicyclic_defect(g, 10**9, spectrum=spec) == pytest.approx(
            spec.lambda1, abs=1e-6
        )
        # and it is a genuine lower bound for the bracketed rho
        assert unicyclic_defect(g, 50, spectrum=spec) <= cache.rho(g).hi + 1e-9


def test_defect_input_validation():
    with pytest.raises(ValueError, match="unicyclic"):
        unicyclic_defect(bowtie(), 10)
    with pytest.raises(ValueError, match="unicyclic"):
        unicyclic_defect(path(3), 10)
    with pytest.raises(ValueError, match="copies"):
        unicyclic_defect(cycle(3), 0)
