"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL summary line with its measured numbers
and wall time, then asserts the full criterion (budget included). Failures
therefore show the one-line verdict plus the detail that produced it.

Two criteria encode targets the arithmetic cannot meet; they are asserted
as stated rather than weakened, and are expected to FAIL:

* criterion 6, last clause: the radius-12 cover ball of a 3-regular graph
  has top eigenvalue 2*sqrt(2) - 0.0562 (cross-checked against a dense
  eigensolve), so no estimator can land within 0.05 at that radius. The
  truncation error first drops below 0.05 at radius 13.
* criterion 10, first clause: the chained-copies lower bound sits below
  rho_tree.lo by its own deficit term (about 2e-4 at N = 1e4 here), while
  the bracket floor is within 1e-9 of the limit, for every unicyclic graph
  in the corpus. The convergence clause (within 1e-3) does hold.
"""

import math
import statistics
import time
from fractions import Fraction

import pytest

from oracles import stack_walk_profile

from coverspectra.cover import backtracking_walk_profile, orbit_distribution
from coverspectra.gapcert import certify_gap, unicyclic_defect
from coverspectra.generators import (
    bowtie,
    complete,
    cycle,
    random_lift,
    random_regular,
)
from coverspectra.localstats import cycle_stats, mass_transport_check, tree_fraction
from coverspectra.multigraph import CyclomaticClass, cyclomatic_class
from coverspectra.rho import rho_ball_power, rho_lower_sequence, rho_tree
from coverspectra.spectra import closed_walk_profile, eigen_spectrum, wr_fraction

SQRT8 = 2 * math.sqrt(2)

@pytest.fixture
def verdict(capsys):
    """One always-visible PASS/FAIL line per criterion, then the assert."""

    def _verdict(num, name, budget, started, ok, detail):
        elapsed = time.perf_counter() - started
        ok = ok and elapsed < budget
        line = (
            f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'} {name}: {detail} "
            f"[{elapsed:.1f}s, budget {budget:.0f}s]"
        )
        with capsys.disabled():
            print(f"\n{line}")
        assert ok, line

    return _verdict


def test_criterion_01_bowtie_numbers(cache, verdict):
    t0 = time.perf_counter()
    g = bowtie()
    lam = cache.spectrum(g).lambda1
    rho = cache.rho(g).value
    lam_err = abs(lam - (1 + math.sqrt(17)) / 2)
    rho_err = abs(rho - (math.sqrt(3) + math.sqrt(11)) / 2)
    gap_err = abs((lam - rho) - 0.0372150)
    ok = lam_err <= 1e-6 and rho_err <= 1e-6 and gap_err <= 1e-4
    verdict(
        1,
        "bowtie numbers",
        1.0,
        t0,
        ok,
        f"lambda1 err {lam_err:.1e}, rho err {rho_err:.1e}, gap err {gap_err:.1e}",
    )


def test_criterion_02_regular_cover_radius(verdict):
    rr, info = random_regular(64, 3, seed=7)
    assert info["simple"] and info["connected"]
    t0 = time.perf_counter()
    worst = 0.0
    slowest = 0.0
    for g, want in ((complete(4), SQRT8), (rr, SQRT8), (cycle(10), 2.0), (cycle(47), 2.0)):
        t1 = time.perf_counter()
        err = abs(rho_tree(g).value - want)
        slowest = max(slowest, time.perf_counter() - t1)
        worst = max(worst, err)
    ok = worst <= 1e-8 and slowest < 1.0
    verdict(
        2,
        "regular covers",
        10.0,
        t0,
        ok,
        f"worst err {worst:.1e}, slowest call {slowest:.2f}s (each < 1s)",
    )


def test_criterion_03_gap_dichotomy_exhaustive(corpus, cache, verdict):
    t0 = time.perf_counter()
    counts = {c: 0 for c in CyclomaticClass}
    bad = []
    min_margin = math.inf
    for g in corpus:
        cls = cyclomatic_class(g)
        counts[cls] += 1
        rho = cache.rho(g)
        spec = cache.spectrum(g)
        near = abs(spec.lambda1 - rho.value) <= 1e-6
        if near != (cls <= CyclomaticClass.UNICYCLIC):
            bad.append(("dichotomy", g.edges))
            continue
        if cls is CyclomaticClass.MULTICYCLIC:
            cert = certify_gap(g, rho_result=rho, spectrum=spec)
            if not (cert.margin > 0 and rho.hi <= spec.lambda1 - cert.margin + 1e-6):
                bad.append(("certificate", g.edges))
            else:
                min_margin = min(min_margin, cert.margin)
    ok = not bad and counts[CyclomaticClass.MULTICYCLIC] > 1000
    verdict(
        3,
        "gap dichotomy, exhaustive",
        600.0,
        t0,
        ok,
        f"{len(corpus)} graphs ({counts[CyclomaticClass.TREE]} trees, "
        f"{counts[CyclomaticClass.UNICYCLIC]} unicyclic, "
        f"{counts[CyclomaticClass.MULTICYCLIC]} certified, min margin "
        f"{min_margin:.1e}), {len(bad)} failures {bad[:3]}",
    )


def test_criterion_04_walk_oracle_equivalence(corpus, verdict):
    t0 = time.perf_counter()
    mismatches = 0
    for g in corpus:
        if backtracking_walk_profile(g, 0, 8) != stack_walk_profile(g, 0, 8):
            mismatches += 1
    regular_bad = 0
    for g, d in ((complete(4), 3), (random_regular(20, 3, seed=0)[0], 3),
                 (complete(5), 4), (random_regular(10, 4, seed=0)[0], 4)):
        for v in range(g.n):
            prof = backtracking_walk_profile(g, v, 4)
            if prof[2] != d or prof[4] != d * (2 * d - 1):
                regular_bad += 1
    ok = mismatches == 0 and regular_bad == 0
    verdict(
        4,
        "walk oracle equivalence",
        60.0,
        t0,
        ok,
        f"{len(corpus)} graphs vs stack-reduction enumerator, "
        f"{mismatches} mismatches; regular N2/N4 failures {regular_bad}",
    )


def test_criterion_05_walk_inequalities(corpus, verdict):
    t0 = time.perf_counter()
    violations = 0
    for g in corpus:
        delta = g.max_degree
        profiles = [closed_walk_profile(g, v, 12) for v in range(g.n)]
        dist = g.distances_from(0)
        for y in range(1, g.n):
            bound = delta ** (2 * dist[y])
            for k in range(1, 7):
                if (profiles[y][2 * k] > bound * profiles[0][2 * k]
                        or profiles[0][2 * k] > bound * profiles[y][2 * k]):
                    violations += 1
        for v in range(g.n):
            for k in range(0, 6):
                for j in (1, 2):
                    if 2 * k + 2 * j <= 12:
                        if profiles[v][2 * k + 2 * j] > delta ** (2 * j) * profiles[v][2 * k]:
                            violations += 1
        dist_classes = orbit_distribution(g)
        reps = {c.representative: c.p for c in dist_classes.classes}
        back = {v: backtracking_walk_profile(g, v, 12) for v in reps}
        for k in range(1, 7):
            lhs = Fraction(sum(p[2 * k] for p in profiles), g.n)
            rhs = sum(p * back[v][2 * k] for v, p in reps.items())
            if lhs < rhs:
                violations += 1
    verdict(
        5,
        "walk inequalities",
        60.0,
        t0,
        violations == 0,
        f"{len(corpus)} graphs, k <= 6, exact integers, {violations} violations",
    )


def test_criterion_06_sandwich_consistency(corpus, cache, verdict):
    t0 = time.perf_counter()
    lower_bad = 0
    power_bad = 0
    for g in corpus:
        rho = cache.rho(g)
        if max(rho_lower_sequence(g, 0, 6)) > rho.value + 1e-9:
            lower_bad += 1
        if rho_ball_power(g, 0, 10) > rho.hi + 1e-9:
            power_bad += 1
    rr, info = random_regular(64, 3, seed=7)
    assert info["simple"] and info["connected"]
    est = rho_ball_power(rr, 0, 12)
    # the radius-12 truncation alone costs 0.0562, so this clause cannot pass
    radius_ok = est >= SQRT8 - 0.05
    ok = lower_bad == 0 and power_bad == 0 and radius_ok
    verdict(
        6,
        "sandwich consistency",
        120.0,
        t0,
        ok,
        f"lower-seq failures {lower_bad}, ball-power failures {power_bad} "
        f"({len(corpus)} radius-10 balls); 3-regular R=12 "
        f"estimate {est:.5f} vs required {SQRT8 - 0.05:.5f} "
        f"(shortfall {SQRT8 - 0.05 - est:.4f})",
    )


def _connected_lifts(base, n, want=3):
    out = []
    seed = 0
    while len(out) < want:
        lift, _ = random_lift(base, n, seed)
        if lift.is_connected:
            out.append(lift)
        seed += 1
        assert seed < 50
    return out


def test_criterion_07_lift_invariance(cache, verdict):
    t0 = time.perf_counter()
    bad = []
    for base in (bowtie(), complete(4)):
        base_rho = cache.rho(base)
        base_lam = cache.spectrum(base).lambda1
        base_props = sorted(orbit_distribution(base).proportions)
        for n in (2, 3, 5):
            for lift in _connected_lifts(base, n):
                lam = eigen_spectrum(lift).lambda1
                if abs(lam - base_lam) > 1e-8:
                    bad.append(("lambda1", base.n, n))
                if sorted(orbit_distribution(lift).proportions) != base_props:
                    bad.append(("orbits", base.n, n))
                lr = rho_tree(lift)
                if max(lr.lo, base_rho.lo) > min(lr.hi, base_rho.hi) + 1e-12:
                    bad.append(("rho bracket", base.n, n))
    verdict(
        7,
        "lift invariance",
        60.0,
        t0,
        not bad,
        f"2-, 3-, 5-lifts of bowtie and K4, 3 connected seeds each: "
        f"{len(bad)} failures {bad[:3]}",
    )


def test_criterion_08_regular_ensemble_trend(verdict):
    t0 = time.perf_counter()
    medians = []
    all_wr_ok = True
    tf_median = None
    for n in (100, 500, 2000):
        wrs = []
        tfs = []
        for seed in range(5):
            g, info = random_regular(n, 3, seed)
            assert info["simple"] and info["connected"]
            wr = wr_fraction(eigen_spectrum(g), SQRT8, 0.01)
            wrs.append(wr)
            tfs.append(tree_fraction(g, 2))
            if wr < 0.7:
                all_wr_ok = False
        medians.append(statistics.median(wrs))
        if n == 2000:
            tf_median = statistics.median(tfs)
    monotone = medians == sorted(medians)
    ok = all_wr_ok and monotone and tf_median >= 0.9
    verdict(
        8,
        "regular ensemble trend",
        300.0,
        t0,
        ok,
        f"wr medians {[round(m, 4) for m in medians]} "
        f"(all seeds >= 0.7: {all_wr_ok}), tree fraction median at n=2000 "
        f"{tf_median:.4f}",
    )


def test_criterion_09_mass_transport_combinatorics(corpus, verdict):
    t0 = time.perf_counter()
    unbalanced = 0
    nr_failures = 0
    nr_checked = 0
    count_bad = 0
    for g in corpus:
        delta = g.max_degree
        for length in (1, 2, 3, 4):
            if any(c > delta**length for c in cycle_stats(g, length).counts):
                count_bad += 1
        for radius, length in ((1, 1), (2, 2), (2, 3), (3, 2)):
            rep = mass_transport_check(g, radius, length)
            if not rep.balanced:
                unbalanced += 1
            if rep.nr_holds is not None:
                nr_checked += 1
                if not rep.nr_holds:
                    nr_failures += 1
    ok = unbalanced == 0 and nr_failures == 0 and count_bad == 0 and nr_checked > 1000
    verdict(
        9,
        "mass transport combinatorics",
        60.0,
        t0,
        ok,
        f"{len(corpus)} graphs x 4 (R, l) pairs: {unbalanced} unbalanced, "
        f"{nr_failures}/{nr_checked} N_R failures, {count_bad} count-bound failures",
    )


def test_criterion_10_unicyclic_defect_convergence(corpus, cache, verdict):
    t0 = time.perf_counter()
    picked = [g for g in corpus if cyclomatic_class(g) is CyclomaticClass.UNICYCLIC][:10]
    assert len(picked) == 10
    floor_misses = []
    conv_misses = 0
    for g in picked:
        rho = cache.rho(g)
        defect = unicyclic_defect(g, 10_000, spectrum=cache.spectrum(g))
        if defect < rho.lo - 1e-6:
            floor_misses.append(rho.lo - defect)
        if abs(defect - rho.value) > 1e-3:
            conv_misses += 1
    # the bound approaches the limit from below by ~2e-4 at N = 1e4 while
    # the bracket floor is within 1e-9 of it, so the floor clause fails
    ok = not floor_misses and conv_misses == 0
    verdict(
        10,
        "unicyclic defect convergence",
        10.0,
        t0,
        ok,
        f"10 unicyclic graphs at N=1e4: {conv_misses} outside 1e-3 of the value; "
        f"{len(floor_misses)} below lo - 1e-6 "
        f"(max shortfall {max(floor_misses, default=0):.1e})",
    )
