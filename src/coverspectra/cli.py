"""Command-line front end.

Single-graph analyses print JSON (schema "cover-spectra/1", keys sorted);
sweeps print CSV. All failures exit nonzero after a one-line
"error: <reason>" on stderr. Identical argv and seeds produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import sys
from fractions import Fraction

from .cover import backtracking_walk_profile, orbit_distribution
from .gapcert import certify_gap, unicyclic_defect
from .generators import _FAMILIES, make, random_lift, small_connected_multigraphs
from .localstats import bs_histogram, find_bouquet, tree_fraction, tv_distance
from .multigraph import (
    CyclomaticClass,
    MultiGraph,
    cyclomatic_class,
    dump_graph,
    load_graph,
)
from .rho import rho_tree
from .spectra import closed_walk_profile, eigen_spectrum, wr_fraction
from .twocore import two_core

SCHEMA = "cover-spectra/1"

# the parameters of each family builder, in signature order
_FAMILY_PARAMS = {
    name: tuple(inspect.signature(builder).parameters) for name, builder in _FAMILIES.items()
}


def _read_graph(path: str) -> MultiGraph:
    if path == "-":
        return load_graph(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return load_graph(fh.read())


def _emit_json(payload: dict, out: str | None) -> None:
    payload = {"schema": SCHEMA, **payload}
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    _write_text(text, out)


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_finite(flag: str, value: float) -> None:
    # JSON has no infinity to echo the value back with, and an infinite
    # tolerance switches off the comparison it bounds
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {value}")


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def cmd_spectra(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    spec = eigen_spectrum(g)
    _emit_json(
        {
            "n": g.n,
            "m": len(g.edges),
            "lambda1": spec.lambda1,
            "eigenvalues": list(spec.eigenvalues) if spec.full else None,
        },
        args.out,
    )
    return 0


def cmd_rho(args: argparse.Namespace) -> int:
    _require_finite("--tol", args.tol)
    g = _read_graph(args.graph)
    r = rho_tree(g, tol=args.tol)
    _emit_json(
        {
            "rho": r.value,
            "lo": r.lo,
            "hi": r.hi,
            "tol": r.tol,
            "probes": r.probes,
            "ambiguous_probes": r.ambiguous_probes,
            "vertex_slack_min": r.vertex_slack_min,
        },
        args.out,
    )
    return 0


def cmd_wr(args: argparse.Namespace) -> int:
    _require_finite("--rho", args.rho)
    _require_finite("--eta", args.eta)
    g = _read_graph(args.graph)
    spec = eigen_spectrum(g)
    frac = wr_fraction(spec, args.rho, eta=args.eta)
    _emit_json(
        {
            "wr_fraction": frac,
            "rho": args.rho,
            "eta": args.eta,
            "n": g.n,
        },
        args.out,
    )
    return 0


def cmd_treefrac(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    _emit_json({"r": args.r, "tree_fraction": tree_fraction(g, args.r)}, args.out)
    return 0


def cmd_core(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    core = two_core(g)
    _emit_json(
        {
            "cyclomatic_class": cyclomatic_class(g).name.lower(),
            "core_vertices": sorted(core.core_vertices),
            "ext_vertices": sorted(core.ext_vertices),
            "int_half_edges": sorted(core.int_half_edges),
            "ext_half_edges": sorted(core.ext_half_edges),
        },
        args.out,
    )
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    _require_finite("--tol", args.tol)
    g = _read_graph(args.graph)
    cert = certify_gap(g, tol=args.tol)
    _emit_json(
        {
            "gamma": cert.gamma,
            "delta": cert.delta,
            "epsilon_chain_step": _frac(cert.epsilon_chain_step),
            "margin": cert.margin,
            "g_max": cert.g_max,
            "lambda1": cert.lambda1,
            "rho_upper_implied": cert.rho_upper_bound,
            "gamma_weights": {str(h): _frac(w) for h, w in cert.gamma_weights.items()},
            "delta_weights": {str(h): _frac(w) for h, w in cert.delta_weights.items()},
        },
        args.out,
    )
    return 0


def cmd_unicyclic(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    spec = eigen_spectrum(g)
    bound = unicyclic_defect(g, args.copies, spectrum=spec)
    _emit_json(
        {"copies": args.copies, "defect_bound": bound, "lambda1": spec.lambda1},
        args.out,
    )
    return 0


def cmd_walks(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    closed = closed_walk_profile(g, args.vertex, args.kmax)
    back = backtracking_walk_profile(g, args.vertex, args.kmax)
    _emit_json(
        {"vertex": args.vertex, "closed": list(closed), "backtracking": list(back)},
        args.out,
    )
    return 0


def cmd_orbits(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    dist = orbit_distribution(g)
    _emit_json(
        {
            "rounds": dist.rounds,
            "classes": [
                {
                    "representative": c.representative,
                    "size": len(c.members),
                    "p": _frac(c.p),
                }
                for c in dist.classes
            ],
        },
        args.out,
    )
    return 0


def cmd_bouquet(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    pair = find_bouquet(g, args.vertex, args.k, args.length)
    payload: dict = {"found": pair is not None, "k": args.k, "length": args.length}
    if pair:
        payload["cycles"] = [sorted(c.vertex_set) for c in pair]
    _emit_json(payload, args.out)
    return 0


def cmd_bs_dist(args: argparse.Namespace) -> int:
    g1 = _read_graph(args.graph)
    g2 = _read_graph(args.other)
    h1 = bs_histogram(g1, args.r)
    h2 = bs_histogram(g2, args.r)
    if args.csv is not None:
        rows = "".join(f"{code},{count}\n" for code, count in sorted(h1.items()))
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("code,count\n" + rows)
    _emit_json(
        {
            "r": args.r,
            "tv_distance": tv_distance(h1, h2),
            "types_first": len(h1),
            "types_second": len(h2),
        },
        args.out,
    )
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    params = {}
    # an unknown family has no parameters here and is rejected by make
    for name in _FAMILY_PARAMS.get(args.family, ()):
        value = getattr(args, name)
        if value is None:
            raise ValueError(f"family {args.family!r} requires --{name}")
        params[name] = value
    g, info = make(args.family, **params)
    header = "".join(f"# {k}={v}\n" for k, v in sorted(info.items()))
    _write_text(header + dump_graph(g), args.out)
    return 0


def cmd_lift(args: argparse.Namespace) -> int:
    base = _read_graph(args.graph)
    lift, _ = random_lift(base, args.n, args.seed)
    components = len(lift.connected_components())
    header = f"# components={components}\n"
    _write_text(header + dump_graph(lift), args.out)
    return 0


def _experiment_row(args: argparse.Namespace, size: int, seed: int) -> dict:
    params = {"n": size}
    if args.family == "random_regular":
        params.update(d=args.d, seed=seed)
    g, info = make(args.family, **params)
    if info and not (info["simple"] and info["connected"]):
        raise ValueError(
            f"random_regular drew no simple connected graph for n={size}, d={args.d}, "
            f"seed={seed} in {info['attempts']} attempts"
        )
    spec = eigen_spectrum(g)
    rho = rho_tree(g).value
    return {
        "n": size,
        "seed": seed,
        "wr_fraction": wr_fraction(spec, rho, eta=args.eta),
        "tree_fraction": tree_fraction(g, args.r),
        "rho": rho,
        "lambda1": spec.lambda1,
    }


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.family not in _FAMILY_PARAMS or "n" not in _FAMILY_PARAMS[args.family]:
        raise ValueError(f"family {args.family!r} has no size parameter")
    if args.family == "random_regular" and args.d is None:
        raise ValueError("random_regular requires --d")
    sizes = [int(s) for s in args.sizes.split(",") if s]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not sizes:
        raise ValueError("need at least one size")
    if not seeds:
        raise ValueError("need at least one seed")
    rows = [_experiment_row(args, n, seed) for n in sizes for seed in seeds]
    rows.sort(key=lambda r: (r["n"], r["seed"]))
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["n", "seed", "wr_fraction", "tree_fraction", "rho", "lambda1"]
    )
    writer.writeheader()
    writer.writerows(rows)
    _write_text(buf.getvalue(), args.out)
    return 0


def cmd_verify_thm2(args: argparse.Namespace) -> int:
    # an infinite tol reads every gap as "equal", a negative one every tree
    # as a failure
    _require_finite("--tol", args.tol)
    if args.tol < 0:
        raise ValueError("tolerance must be nonnegative")
    lines = []
    failures = 0
    for g in small_connected_multigraphs(args.max_n, args.max_m):
        klass = cyclomatic_class(g)
        lam = eigen_spectrum(g).lambda1
        r = rho_tree(g)
        equal = abs(lam - r.value) <= args.tol
        if klass is CyclomaticClass.MULTICYCLIC:
            try:
                cert = certify_gap(g, tol=args.tol, rho_result=r)
                ok = not equal and cert.margin > 0
                note = f"margin={cert.margin:.3e}"
            except Exception as exc:  # noqa: BLE001 - reported in the table
                ok = False
                note = f"certify failed: {exc}"
        else:
            ok = equal
            note = "no gap expected"
        failures += not ok
        lines.append(
            f"{'PASS' if ok else 'FAIL'} n={g.n} m={len(g.edges)} "
            f"{klass.name.lower():<12} lambda1={lam:.9f} rho={r.value:.9f} {note}"
        )
    if not lines:  # checking nothing is no pass
        raise ValueError(f"no connected graph has n <= {args.max_n} and m <= {args.max_m}")
    lines.append(
        f"checked {len(lines)} graphs "
        f"(n <= {args.max_n}, m <= {args.max_m}): "
        + ("all pass" if not failures else f"{failures} FAILED")
    )
    _write_text("\n".join(lines) + "\n", args.out)
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverspectra",
        description="Spectra of finite multigraphs against their universal cover trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str, graph: bool = True):
        p = sub.add_parser(name, help=help_)
        if graph:
            p.add_argument("graph", help="graph file, or - for stdin")
        p.add_argument("--out", help="write output here instead of stdout")
        p.set_defaults(func=func)
        return p

    add("spectra", cmd_spectra, "adjacency eigenvalues and lambda1")

    p = add("rho", cmd_rho, "certified cover-tree spectral radius")
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("wr", cmd_wr, "fraction of eigenvalues at or below rho")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--eta", type=float, default=1e-9)

    p = add("treefrac", cmd_treefrac, "fraction of tree radius-r balls")
    p.add_argument("--r", type=int, required=True)

    add("core", cmd_core, "2-core decomposition")

    p = add("certify", cmd_certify, "spectral-gap certificate (multicyclic)")
    p.add_argument("--tol", type=float, default=1e-6)

    p = add("unicyclic", cmd_unicyclic, "unicyclic approximation defect bound")
    p.add_argument("--copies", type=int, required=True)

    p = add("walks", cmd_walks, "closed and cover closed walk counts")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)

    add("orbits", cmd_orbits, "cover vertex-type distribution")

    p = add("bouquet", cmd_bouquet, "two disjoint short cycles near a vertex")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--length", type=int, required=True)

    p = add("bs-dist", cmd_bs_dist, "TV distance between ball histograms")
    p.add_argument("other", help="second graph file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--csv", help="also write the first histogram as code,count rows")

    p = add("gen", cmd_gen, "emit a named graph family", graph=False)
    p.add_argument("--family", required=True)
    for flag in dict.fromkeys(name for names in _FAMILY_PARAMS.values() for name in names):
        p.add_argument(f"--{flag}", type=int)

    p = add("lift", cmd_lift, "random permutation n-lift")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("experiment", cmd_experiment, "size/seed sweep to CSV", graph=False)
    p.add_argument("--family", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--eta", type=float, default=1e-9)

    p = add("verify-thm2", cmd_verify_thm2, "exhaustive small-graph gap check", graph=False)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-m", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-6)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single CLI error funnel
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
