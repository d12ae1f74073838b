import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import connected_lift, delta_by_dfs, g_values_by_loop, gap_search_by_loop, gnp_giant
from coverspectra.gapcert import (
    _GRID,
    ROLE_ROOT,
    CertificationError,
    _Kernel,
    certify_gap,
    delta_assignment,
    gamma_assignment,
    unicyclic_defect,
)
from coverspectra.multigraph import CyclomaticClass, MultiGraph, cyclomatic_class
from coverspectra.rho import rho_tree
from coverspectra.twocore import two_core
from coverspectra.spectra import eigen_spectrum
from coverspectra.generators import (
    bowtie,
    complete,
    cycle,
    path,
    theta,
    two_cycles_glued,
)


def _multicyclic(graphs):
    return [g for g in graphs if cyclomatic_class(g) is CyclomaticClass.MULTICYCLIC]


# -- interior weighting -------------------------------------------------------------


def test_bowtie_gamma_chain():
    g = bowtie()
    w = gamma_assignment(two_core(g))
    eps = Fraction(1, 24)
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
    w = gamma_assignment(two_core(g))
    eps = Fraction(1, 24)
    hubs = [v for v in range(g.n) if g.degrees[v] == 3]
    assert len(hubs) == 2
    for h, val in w.items():
        assert val == (1 if g.sources[h] in hubs else 1 + eps)


def test_dense_core_gamma_all_one():
    w = gamma_assignment(two_core(complete(4)))
    assert set(w.values()) == {Fraction(1)}
    assert len(w) == 12


def test_gamma_covers_interior_and_stays_in_range(corpus):
    for g in _multicyclic(corpus[::10]):
        core = two_core(g)
        w = gamma_assignment(core)
        assert set(w) == set(core.int_half_edges)
        assert all(1 <= val < 2 for val in w.values())


def test_gamma_inequality_exact(corpus):
    """At the far end of any interior half-edge, the outgoing interior weights
    must strictly dominate the incoming one, in exact rationals."""
    for g in _multicyclic(corpus[::10]):
        core = two_core(g)
        w = gamma_assignment(core)
        for h in core.int_half_edges:
            v = g.targets[h]
            onward = [
                h2 for h2 in g.half_edges_at[v] if h2 != (h ^ 1) and h2 in core.int_half_edges
            ]
            assert sum(w[h2] for h2 in onward) > w[h]


def test_gamma_rejects_thin_inputs():
    with pytest.raises(ValueError, match="multicyclic"):
        gamma_assignment(two_core(cycle(4)))


# -- exterior weighting -------------------------------------------------------------


def test_pendant_path_deltas():
    # triangle with a two-edge tail hanging off vertex 0
    g = MultiGraph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4)))
    core = two_core(g)
    w = delta_assignment(core)
    by_edge = {(g.sources[h], g.targets[h]): val for h, val in w.items()}
    assert by_edge == {(0, 3): Fraction(1), (3, 4): Fraction(1, 2)}


def test_pendant_branching_deltas():
    # tail that forks: 0-3, then 3-4 and 3-5
    g = MultiGraph(6, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (3, 5)))
    w = delta_assignment(two_core(g))
    assert sorted(w.values()) == [Fraction(1, 3), Fraction(1, 3), Fraction(1)]


def test_no_exterior_empty_map():
    assert delta_assignment(two_core(bowtie())) == {}


def test_delta_one_pass_matches_depth_first_walk(corpus):
    """The pass over the peel order gives exactly the weights of a
    depth-first walk down each pendant tree."""
    graphs = [g for g in corpus if g.m >= g.n]
    graphs += [gnp_giant(300, seed) for seed in range(6)]  # many pendant trees
    graphs += [
        MultiGraph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4))),
        MultiGraph(6, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (3, 5))),
    ]
    for g in graphs:
        core = two_core(g)
        assert delta_assignment(core) == delta_by_dfs(core)


def test_delta_inequality_exact(corpus):
    for g in corpus[::10]:
        if g.m < g.n:
            continue
        core = two_core(g)
        w = delta_assignment(core)
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
    core = two_core(g)
    spec = cache.spectrum(g)
    kernel = _Kernel(g, spec.perron, gamma_assignment(core), delta_assignment(core))
    for val in kernel([0.0], [0.0])[0]:
        assert val == pytest.approx(spec.lambda1, abs=1e-8)


def test_root_types_never_dominate(corpus, cache):
    for g in _multicyclic(corpus[::25]):
        core = two_core(g)
        spec = cache.spectrum(g)
        kernel = _Kernel(g, spec.perron, gamma_assignment(core), delta_assignment(core))
        for gamma in (2.0**-6, 2.0**-12):
            vals = kernel([gamma], [gamma**2])[0]
            roots = [v for (_, role), v in zip(kernel.keys, vals) if role == ROLE_ROOT]
            others = [v for (_, role), v in zip(kernel.keys, vals) if role != ROLE_ROOT]
            assert max(roots) <= max(others) + 1e-12


def test_grid_matches_loop_oracle_bit_for_bit(corpus, cache):
    """Every grid point of the one-pass evaluation equals the per-half-edge
    loop with ==, and so do certify_gap's chosen pair, margin and g values."""
    graphs = _multicyclic(corpus)[::5]
    graphs.append(two_cycles_glued(20, 20))
    graphs += [connected_lift(base, 10) for base in (bowtie(), complete(4), theta(1, 2, 3))]
    for g in graphs:
        core = two_core(g)
        gw, dw = gamma_assignment(core), delta_assignment(core)
        spec = cache.spectrum(g)
        kernel = _Kernel(g, spec.perron, gw, dw)
        grid = kernel(*zip(*_GRID))
        assert grid.shape == (120, len(kernel.keys))
        for (gamma, delta), row in zip(_GRID, grid):
            want = g_values_by_loop(g, spec.perron, gw, dw, gamma, delta)
            assert list(want) == kernel.keys
            assert row.tolist() == list(want.values())

        margin, gamma, delta, vals = gap_search_by_loop(g, spec.perron, gw, dw, spec.lambda1)
        cert = certify_gap(g, rho_result=cache.rho(g), spectrum=spec)
        assert (cert.gamma, cert.delta, cert.margin) == (gamma, delta, margin)
        assert cert.g_values == vals
        assert cert.g_max == max(vals.values())
        assert dict(zip(kernel.keys, kernel([gamma], [delta])[0])) == vals


def test_kernel_grid_ignores_weight_key_order(corpus, cache):
    """Building _Kernel from the weight dicts in reversed key order only
    permutes the type columns: every grid row holds the same multiset of
    values and the same max, so certify_gap's choice does not depend on the
    order in which gamma_assignment and delta_assignment write their keys."""
    graphs = _multicyclic(corpus)[::7] + [connected_lift(bowtie(), 40)]
    for g in graphs:
        core = two_core(g)
        gw, dw = gamma_assignment(core), delta_assignment(core)
        perron = cache.spectrum(g).perron
        forward = _Kernel(g, perron, gw, dw)(*zip(*_GRID))
        backward = _Kernel(g, perron, dict(reversed(gw.items())), dict(reversed(dw.items())))
        backward = backward(*zip(*_GRID))
        assert forward.max(axis=1).tolist() == backward.max(axis=1).tolist()
        assert [sorted(row) for row in forward.tolist()] == [
            sorted(row) for row in backward.tolist()
        ]


# -- certificates ----------------------------------------------------------------------


def test_bowtie_certificate():
    cert = certify_gap(bowtie())
    true_gap = eigen_spectrum(bowtie()).lambda1 - (math.sqrt(3) + math.sqrt(11)) / 2
    assert 0 < cert.margin <= true_gap + 1e-12
    assert cert.margin <= 0.04
    assert cert.rho_upper_bound >= (math.sqrt(3) + math.sqrt(11)) / 2 - 1e-9
    assert cert.g_max == cert.lambda1 - cert.margin


def test_k4_certificate():
    cert = certify_gap(complete(4))
    assert 0 < cert.margin <= 3 - 2 * math.sqrt(2) + 1e-12
    assert cert.margin == pytest.approx(1 / 6, abs=1e-12)


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
    """Every type at lambda1 leaves a best margin of 0, whatever the chain
    step and the weights."""
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
