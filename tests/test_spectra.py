import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack, ldl
from scipy.sparse import csr_matrix

from coverspectra import spectra
from coverspectra.cover import quotient
from coverspectra.gapcert import certify_gap, unicyclic_defect
from coverspectra.multigraph import CyclomaticClass, MultiGraph, cyclomatic_class
from coverspectra.spectra import (
    closed_walk_profile,
    eigen_spectrum,
    wr_fraction,
)
from coverspectra.generators import (
    bowtie,
    complete,
    cycle,
    path,
    random_lift,
    random_regular,
    star,
    theta,
)
from coverspectra.rho import rho_tree

from oracles import (
    adjacency_by_edges,
    ldl_backward_error,
    ldl_from_dsytrf,
    matrix_walk_count,
    spectrum_by_eigh,
)


# -- eigen_spectrum --------------------------------------------------------------


def test_triangle_spectrum():
    s = eigen_spectrum(cycle(3))
    assert s.eigenvalues == pytest.approx([2.0, -1.0, -1.0], abs=1e-12)
    assert s.lambda1 == pytest.approx(2.0, abs=1e-12)


def test_bowtie_lambda1():
    s = eigen_spectrum(bowtie())
    assert s.lambda1 == pytest.approx((1 + math.sqrt(17)) / 2, abs=1e-12)


def test_single_loop_spectrum():
    s = eigen_spectrum(MultiGraph(1, ((0, 0),)))
    assert s.eigenvalues == pytest.approx([2.0])
    assert s.perron == pytest.approx([1.0])


def test_star_lambda1():
    assert eigen_spectrum(star(3)).lambda1 == pytest.approx(math.sqrt(3), abs=1e-12)


def test_spectrum_shape_and_perron(corpus, cache):
    for g in corpus[:300]:
        s = cache.spectrum(g)
        assert len(s.eigenvalues) == g.n
        assert all(a >= b - 1e-12 for a, b in zip(s.eigenvalues, s.eigenvalues[1:]))
        assert max(abs(l) for l in s.eigenvalues) <= g.max_degree + 1e-9
        assert s.perron.min() > 0
        assert np.linalg.norm(s.perron) == pytest.approx(1.0, abs=1e-12)
        a = g.adjacency.toarray()
        resid = np.linalg.norm(a @ s.perron - s.lambda1 * s.perron)
        assert resid <= 1e-10 * g.max_degree


def test_eigenvector_identity_every_vertex(zoo_graph):
    s = eigen_spectrum(zoo_graph)
    y = s.perron
    for u in range(zoo_graph.n):
        total = sum(y[zoo_graph.targets[h]] for h in zoo_graph.half_edges_at[u])
        assert total / y[u] == pytest.approx(s.lambda1, abs=1e-8)


def test_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        eigen_spectrum(MultiGraph(4, ((0, 1), (2, 3))))


def test_wrong_perron_pair_is_rejected(monkeypatch):
    """The quotient route's pair is checked on the whole graph: a vector with
    a negative entry, or a lambda1 off by 0.1, raises."""
    g = bowtie()
    lam, perron = spectra._quotient_perron(g)
    flipped = perron.copy()
    flipped[1] = -flipped[1]
    assert flipped.sum() > 0
    monkeypatch.setattr(spectra, "_quotient_perron", lambda g: (lam, flipped))
    with pytest.raises(ArithmeticError, match="not strictly positive"):
        eigen_spectrum(g)
    monkeypatch.setattr(spectra, "_quotient_perron", lambda g: (lam + 0.1, perron.copy()))
    with pytest.raises(ArithmeticError, match="residual"):
        eigen_spectrum(g)


def test_iterative_path_agrees_with_dense(monkeypatch):
    # the second graph adds a loop at 0 and a second edge 1-2: A[0, 0] = 2
    # and A[1, 2] = 2 in the sparse adjacency too
    graphs = (cycle(30), MultiGraph(30, cycle(30).edges + ((0, 0), (1, 2))))
    fulls = [eigen_spectrum(g) for g in graphs]
    monkeypatch.setattr(spectra, "DENSE_EIGEN_CAP", 10)
    for g, full in zip(graphs, fulls):
        top = eigen_spectrum(g)
        assert not top.full
        assert top.lambda1 == pytest.approx(full.lambda1, abs=1e-9)
        assert top.perron == pytest.approx(full.perron, abs=1e-6)


def test_iterative_path_forms_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an n x n adjacency was formed")

    monkeypatch.setattr(spectra, "DENSE_EIGEN_CAP", 10)
    monkeypatch.setattr(csr_matrix, "toarray", refuse)
    monkeypatch.setattr(spectra, "_inertia", refuse)
    top = eigen_spectrum(cycle(30))
    assert not top.full
    assert top.lambda1 == pytest.approx(2.0, abs=1e-9)


def _connected_lift(base, n, seed):
    g, _ = random_lift(base, n, seed)
    while not g.is_connected:
        seed += 100
        g, _ = random_lift(base, n, seed)
    return g


def test_nothing_n_by_n_unless_eigenvalues_are_read(monkeypatch, corpus):
    class Refused(AssertionError):
        pass

    def refuse(*args, **kwargs):
        raise Refused("an n x n solve or adjacency was formed")

    lift = _connected_lift(bowtie(), 150, 1)
    unicyclic = next(g for g in corpus if cyclomatic_class(g) is CyclomaticClass.UNICYCLIC)
    monkeypatch.setattr(csr_matrix, "toarray", refuse)
    monkeypatch.setattr(spectra, "_inertia", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    s = eigen_spectrum(lift)
    assert s.lambda1 == eigen_spectrum(bowtie()).lambda1
    assert certify_gap(lift).margin > 0
    assert unicyclic_defect(unicyclic, 4) > 0
    with pytest.raises(Refused):
        s.eigenvalues


@pytest.mark.parametrize("n", [100, 1000])
def test_lambda1_is_exactly_the_degree_on_regular_graphs(n):
    for seed in range(3):
        g, info = random_regular(n, 3, seed)
        assert info["connected"]
        assert eigen_spectrum(g).lambda1 == 3.0


@pytest.mark.parametrize(
    "base", [bowtie(), complete(4), theta(1, 2, 3)], ids=["bowtie", "K4", "theta123"]
)
def test_lambda1_is_the_same_float_on_every_lift(base):
    want = eigen_spectrum(base).lambda1
    for n, seed in ((10, 1), (40, 2), (150, 3)):
        assert eigen_spectrum(_connected_lift(base, n, seed)).lambda1 == want


# -- dense path against the full-eigh oracle --------------------------------------


def _assert_matches_eigh(g, rho=None):
    """lambda1 and the values within 1e-12 * max(1, max degree) of one full
    eigh, the Perron vector within 1e-10 and constant on every colour of the
    quotient, and the weakly-Ramanujan fraction at rho_tree's value equal to
    the count over eigh's values."""
    s = eigen_spectrum(g)
    vals, perron = spectrum_by_eigh(g)
    tol = 1e-12 * max(1, g.max_degree)
    assert abs(s.lambda1 - vals[0]) <= tol
    assert np.abs(s.eigenvalues - vals).max() <= tol
    assert np.abs(s.perron - perron).max() <= 1e-10
    colors = np.array(quotient(g).colors)
    for c in range(colors.max() + 1):
        assert np.ptp(s.perron[colors == c]) == 0
    rho = rho_tree(g).value if rho is None else rho
    assert wr_fraction(s, rho) == np.count_nonzero(np.abs(vals) <= rho + 1e-9) / g.n


def test_dense_path_matches_eigh_on_corpus(corpus, cache):
    for g in corpus:
        _assert_matches_eigh(g, cache.rho(g).value)


@pytest.mark.parametrize(
    "base", [bowtie(), complete(4), theta(1, 2, 3)], ids=["bowtie", "K4", "theta123"]
)
def test_dense_path_matches_eigh_on_lifts(base):
    for n, seed in ((2, 1), (7, 2), (40, 3)):
        _assert_matches_eigh(_connected_lift(base, n, seed))


@pytest.mark.parametrize("n", [4, 26, 100, 300, 1000])
def test_dense_path_matches_eigh_on_random_regular(n):
    for seed in (n, n + 1):
        g, info = random_regular(n, 3, seed=seed)
        assert info["simple"] and info["connected"]
        _assert_matches_eigh(g)


def test_dense_path_matches_eigh_on_discrete_colouring():
    # a path with a pendant at its third vertex has no symmetry, so every
    # vertex is its own colour and the quotient solve is an n x n one
    g = MultiGraph.from_edges(31, [(i, i + 1) for i in range(29)] + [(2, 30)])
    assert len(set(quotient(g).colors)) == g.n
    _assert_matches_eigh(g)


def test_eigenvalues_are_eigvalsh_of_the_edge_count_matrix(corpus, cache):
    """eigvalsh gets the same float64 entries as from the per-edge oracle,
    so the eigenvalues are equal bit for bit."""
    lifts = [_connected_lift(base, 40, 3) for base in (bowtie(), complete(4), theta(1, 2, 3))]
    for g in list(corpus) + lifts + [random_regular(1000, 3, seed=0)[0]]:
        want = np.linalg.eigvalsh(adjacency_by_edges(g).astype(np.float64))[::-1]
        assert np.array_equal(cache.spectrum(g).eigenvalues, want)


def test_eigenvalues_form_one_float_n_by_n_array():
    g, _ = random_regular(1000, 3, seed=0)
    s = eigen_spectrum(g)
    g.adjacency  # the CSR and its imports, outside the trace
    tracemalloc.start()
    try:
        s.eigenvalues
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * g.n**2


# -- wr_fraction -----------------------------------------------------------------


def test_wr_cycles_at_two():
    # lambda1 = 2 = rho lies inside the count's window, so eigvalsh counts
    for n in (3, 4, 10, 31):
        s = eigen_spectrum(cycle(n))
        assert wr_fraction(s, 2.0) == 1.0
        assert "eigenvalues" in s.__dict__


def test_wr_bowtie_below_one():
    rho = (math.sqrt(3) + math.sqrt(11)) / 2
    frac = wr_fraction(eigen_spectrum(bowtie()), rho)
    assert frac < 1.0
    assert frac == 0.8  # only lambda1 = (1+sqrt(17))/2 ~ 2.5616 exceeds 2.5243


def test_wr_at_max_degree_is_one(corpus, cache):
    for g in corpus[:200]:
        assert wr_fraction(cache.spectrum(g), float(g.max_degree), eta=0.0) == 1.0


def test_wr_counts_multiplicity():
    s = eigen_spectrum(complete(4))  # eigenvalues 3, -1, -1, -1
    assert wr_fraction(s, 1.0) == 0.75
    assert wr_fraction(s, 3.0) == 1.0
    assert wr_fraction(s, 0.5) == 0.0


def test_wr_where_a_guarded_inertia_count_goes_wrong():
    # eigenvalues -2.414, -1, 0, 0.414, 3: at rho = 1, t = rho + eta, a
    # no-pivot symmetric LU of A + tI counts -1 below -t at both t(1 - 1e-12)
    # and t(1 + 1e-12), so a guard that only asks the two counts to agree
    # would accept a fraction of 0.4; three of the five lie in [-1, 1]. The
    # window at -t holds -1, so the guarded count leaves it to eigvalsh
    g = MultiGraph(5, ((0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 4)))
    s = eigen_spectrum(g)
    assert wr_fraction(s, 1.0) == 0.6
    assert "eigenvalues" in s.__dict__


def test_wr_eigenvalue_just_outside_the_interval():
    # lambda1 = 2 of an odd cycle and the triple -1 of K4 lie within delta
    # outside +-t, where a count at t + delta (or -t - delta) alone would
    # take them in; the window clause sends both to eigvalsh
    for n in (3, 5, 31):
        s = eigen_spectrum(cycle(n))
        assert wr_fraction(s, 2.0 - 1e-7) == (n - 1) / n
        assert "eigenvalues" in s.__dict__
    assert wr_fraction(eigen_spectrum(complete(4)), 1.0 - 1e-7) == 0.0


def test_wr_rejects_nan_eta():
    for eta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eta"):
            wr_fraction(eigen_spectrum(cycle(4)), 2.0, eta=eta)
    with pytest.raises(ValueError, match="rho"):
        wr_fraction(eigen_spectrum(cycle(4)), float("nan"))
    assert wr_fraction(eigen_spectrum(cycle(4)), float("inf")) == 1.0


def test_wr_below_zero_or_at_infinity_factors_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("an inertia count ran")

    monkeypatch.setattr(spectra, "_inertia", refuse)
    s = eigen_spectrum(complete(4))
    for rho, eta in ((-1.0, 1e-9), (-2e-9, 1e-9), (float("-inf"), 0.0)):
        assert wr_fraction(s, rho, eta) == 0.0
    assert wr_fraction(s, float("inf")) == 1.0
    assert "eigenvalues" not in s.__dict__


def test_wr_refuses_a_window_lost_to_rounding():
    # at t = 1e12 the shifts t +- delta round to t, so the window clause
    # holds vacuously; beta, which carries |s|, sends the count to eigvalsh
    s = eigen_spectrum(complete(4))
    assert wr_fraction(s, 1e12) == 1.0
    assert "eigenvalues" in s.__dict__


def test_wr_needs_full_spectrum(monkeypatch):
    monkeypatch.setattr(spectra, "DENSE_EIGEN_CAP", 10)
    top = eigen_spectrum(cycle(30))
    with pytest.raises(ValueError, match="full spectrum"):
        wr_fraction(top, 2.0)
    with pytest.raises(ValueError, match="over the dense cap of 10"):
        top.eigenvalues


# -- the guarded inertia count -------------------------------------------------


def _assert_beta_bounds_the_backward_error(monkeypatch, cases) -> int:
    """Run wr_fraction on each (graph, rho), spying on its factorizations. At
    every shift the library's beta is at least the measured
    ||L D L^T - (A - sI)||_2 of its own factors, and its count is the number
    of negative eigenvalues of D; returns the number of 2 x 2 blocks seen."""
    calls, factors = [], []
    real_inertia, real_dsytrf = spectra._inertia, lapack.dsytrf

    def inertia(g, shifts):
        out = real_inertia(g, shifts)
        calls.extend((g, s, cb) for s, cb in zip(shifts, out))
        return out

    def dsytrf(a, **kwargs):
        ldu, ipiv, info = real_dsytrf(a, **kwargs)
        factors.append((ldu.copy(), ipiv.copy(), info))
        return ldu, ipiv, info

    monkeypatch.setattr(spectra, "_inertia", inertia)
    monkeypatch.setattr(lapack, "dsytrf", dsytrf)
    for g, rho in cases:
        wr_fraction(eigen_spectrum(g), rho)
    assert len(calls) == len(factors) == 4 * len(cases)
    blocks = 0
    for (g, s, (count, beta)), (ldu, ipiv, info) in zip(calls, factors):
        if info > 0:
            assert beta == float("inf")
            continue
        lmat, dmat = ldl_from_dsytrf(ldu, ipiv)
        assert ldl_backward_error(g, s, lmat, dmat) <= beta
        assert count == np.count_nonzero(np.linalg.eigvalsh(dmat) < 0)
        blocks += np.count_nonzero(ipiv < 0) // 2
    return blocks


def test_ldl_oracle_rebuilds_scipys_factors():
    # dsytrf stores the same product form blocked (n > 64) or not
    for g, s in ((cycle(6), 0.3), (bowtie(), 0.5), (_connected_lift(complete(4), 40, 3), 0.1)):
        shifted = np.eye(g.n) * -s + g.adjacency.toarray()
        lwork = int(lapack.dsytrf_lwork(g.n, lower=1)[0])
        ldu, ipiv, info = lapack.dsytrf(shifted, lower=1, lwork=lwork)
        lu, d, _ = ldl(shifted, lower=True)
        lmat, dmat = ldl_from_dsytrf(ldu, ipiv)
        assert info == 0 and np.any(ipiv < 0)
        assert np.array_equal(lmat, lu) and np.array_equal(dmat, d)


def test_inertia_bound_on_corpus(monkeypatch, corpus, cache):
    cases = [(g, cache.rho(g).value) for g in corpus]
    assert _assert_beta_bounds_the_backward_error(monkeypatch, cases) > 0


def test_inertia_bound_on_random_regular(monkeypatch):
    g, _ = random_regular(300, 3, seed=300)
    _assert_beta_bounds_the_backward_error(monkeypatch, [(g, rho_tree(g).value)])


@pytest.mark.parametrize(
    "base", [bowtie(), complete(4), theta(1, 2, 3)], ids=["bowtie", "K4", "theta123"]
)
def test_inertia_bound_on_lifts(monkeypatch, base):
    cases = [(_connected_lift(base, 40, 3), rho_tree(base).value)]
    _assert_beta_bounds_the_backward_error(monkeypatch, cases)


def test_zero_pivot_refuses_the_count():
    # A of C4 has rank 2, so at s = 0 dsytrf meets an exactly zero pivot
    (_, zero_beta), (count, beta) = spectra._inertia(cycle(4), (0.0, 1.0))
    assert zero_beta == float("inf")
    assert count == 3 and beta < 1e-12
    # at t = delta the shifts t - delta and -t + delta are 0: eigvalsh counts
    s = eigen_spectrum(cycle(4))
    assert wr_fraction(s, 2 * spectra._INERTIA_WINDOW, eta=0.0) == 0.5
    assert "eigenvalues" in s.__dict__


@pytest.mark.parametrize("n", [100, 500, 1000])
def test_count_path_leaves_eigenvalues_unread_on_random_regular(n):
    g, _ = random_regular(n, 3, seed=n)
    rho = rho_tree(g).value
    s = eigen_spectrum(g)
    wr = wr_fraction(s, rho)
    assert "eigenvalues" not in s.__dict__
    assert wr == np.count_nonzero(np.abs(s.eigenvalues) <= rho + 1e-9) / n


@pytest.mark.parametrize(
    "base, k",
    [(bowtie(), 40), (bowtie(), 150), (complete(4), 50), (theta(1, 2, 3), 40)],
    ids=["bowtie40", "bowtie150", "K4-50", "theta123-40"],
)
def test_count_path_leaves_eigenvalues_unread_on_lifts(base, k):
    rho = rho_tree(base).value
    s = eigen_spectrum(_connected_lift(base, k, 1))
    wr = wr_fraction(s, rho)
    assert "eigenvalues" not in s.__dict__
    assert wr == np.count_nonzero(np.abs(s.eigenvalues) <= rho + 1e-9) / s.n


# -- closed walk counts ------------------------------------------------------------


def test_triangle_walk_examples():
    g = cycle(3)
    counts = closed_walk_profile(g, 0, 3)
    assert counts[2] == 2
    assert counts[3] == 2


def test_loop_walk_example():
    g = MultiGraph(1, ((0, 0),))
    assert closed_walk_profile(g, 0, 3)[3] == 8


@pytest.mark.parametrize("v, k_max", [(-1, 4), (3, 4), (0, -1)])
def test_walk_profile_rejects_bad_input(v, k_max):
    g = path(3)
    with pytest.raises(ValueError):
        closed_walk_profile(g, v, k_max)


def test_walks_match_matrix_powers(small_corpus):
    for g in small_corpus[:150]:
        profile = closed_walk_profile(g, 0, 6)
        assert profile == [matrix_walk_count(g, 0, k) for k in range(7)]


def test_profile_matches_pointwise(zoo_graph):
    profile = closed_walk_profile(zoo_graph, 0, 8)
    assert profile == [closed_walk_profile(zoo_graph, 0, k)[k] for k in range(9)]


def test_walk_counts_are_exact_big_integers():
    g = complete(5)
    got = closed_walk_profile(g, 0, 120)[120]
    assert got == matrix_walk_count(g, 0, 120)
    assert got > 2**200  # would overflow any fixed-width integer


def test_walk_counts_distance_comparable(small_corpus):
    """Closed-walk counts at vertices distance d apart differ by at most a
    factor max_degree^(2d), exactly in integers."""
    for g in small_corpus[:80]:
        dist = g.distances_from(0)
        delta = g.max_degree
        for k in (1, 2, 3, 4):
            w0 = closed_walk_profile(g, 0, 2 * k)[2 * k]
            for y in range(1, g.n):
                d = dist[y]
                wy = closed_walk_profile(g, y, 2 * k)[2 * k]
                assert wy <= delta ** (2 * d) * w0
                assert w0 <= delta ** (2 * d) * wy


def test_walk_counts_length_comparable(small_corpus):
    for g in small_corpus[:80]:
        delta = g.max_degree
        for v in range(g.n):
            prof = closed_walk_profile(g, v, 10)
            for k in (0, 1, 2, 3):
                for j in (1, 2):
                    if 2 * k + 2 * j <= 10:
                        assert prof[2 * k + 2 * j] <= delta ** (2 * j) * prof[2 * k]


def test_trace_identity(corpus, cache):
    for g in corpus[:150]:
        s = cache.spectrum(g)
        for k in (2, 3, 5):
            trace = sum(closed_walk_profile(g, v, k)[k] for v in range(g.n))
            spectral = sum(l**k for l in s.eigenvalues)
            assert spectral == pytest.approx(trace, rel=1e-8, abs=1e-8)


def test_lambda1_dominates_rho(corpus, cache):
    for g in corpus[::13]:
        assert cache.spectrum(g).lambda1 >= cache.rho(g).value - 1e-9
