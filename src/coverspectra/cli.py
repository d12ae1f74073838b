"""Command-line front end.

Single-graph analyses print JSON (schema "cover-spectra/1", keys sorted);
sweeps print CSV. Each subcommand maps its parsed arguments, graph files
already read, to a JSON payload, or to text and an exit code; main alone
checks that float flags are finite, reads the graphs, writes the output and
turns every failure into exit 2 after a one-line "error: <reason>" on
stderr. Identical argv and seeds produce byte-identical output.
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

from .cover import backtracking_walk_profile, orbit_distribution, quotient
from .gapcert import certify_gap, unicyclic_defect
from .generators import _FAMILIES, make, random_lift, small_connected_multigraphs
from .localstats import bs_histogram, find_bouquet, tree_fraction, tv_distance
from .multigraph import CyclomaticClass, MultiGraph, cyclomatic_class, dump_graph, load_graph
from .rho import DEFAULT_TOL, rho_tree
from .spectra import closed_walk_profile, eigen_spectrum, wr_fraction
from .twocore import two_core

SCHEMA = "cover-spectra/1"

# the parameters of each family builder, in signature order
_FAMILY_PARAMS = {
    name: tuple(inspect.signature(builder).parameters) for name, builder in _FAMILIES.items()
}
# the library's defaults for --tol and --eta, so each lives in one place
_CERTIFY_TOL = inspect.signature(certify_gap).parameters["tol"].default
_WR_ETA = inspect.signature(wr_fraction).parameters["eta"].default


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


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _make_family(args: argparse.Namespace, **given) -> tuple[MultiGraph, dict]:
    """Build args.family from the values in given, else from its flags."""
    params = {}
    # an unknown family has no parameters here and is rejected by make
    for name in _FAMILY_PARAMS.get(args.family, ()):
        value = given.get(name, getattr(args, name, None))
        if value is None:
            raise ValueError(f"family {args.family!r} requires --{name}")
        params[name] = value
    return make(args.family, **params)


def cmd_spectra(args: argparse.Namespace) -> dict:
    spec = eigen_spectrum(args.graph)
    return {
        "n": args.graph.n,
        "m": len(args.graph.edges),
        "lambda1": spec.lambda1,
        "eigenvalues": list(spec.eigenvalues) if spec.full else None,
    }


def cmd_rho(args: argparse.Namespace) -> dict:
    r = rho_tree(args.graph, tol=args.tol)
    return {
        "rho": r.value,
        "lo": r.lo,
        "hi": r.hi,
        "tol": r.tol,
        "probes": r.probes,
        "ambiguous_probes": r.ambiguous_probes,
        "vertex_slack_min": r.vertex_slack_min,
    }


def cmd_wr(args: argparse.Namespace) -> dict:
    spec = eigen_spectrum(args.graph)
    return {
        "wr_fraction": wr_fraction(spec, args.rho, eta=args.eta),
        "rho": args.rho,
        "eta": args.eta,
        "n": args.graph.n,
    }


def cmd_treefrac(args: argparse.Namespace) -> dict:
    return {"r": args.r, "tree_fraction": tree_fraction(args.graph, args.r)}


def cmd_core(args: argparse.Namespace) -> dict:
    core = two_core(args.graph)
    return {
        "cyclomatic_class": cyclomatic_class(args.graph).name.lower(),
        "core_vertices": sorted(core.core_vertices),
        "ext_vertices": sorted(core.ext_vertices),
        "int_half_edges": sorted(core.int_half_edges),
        "ext_half_edges": sorted(core.ext_half_edges),
    }


def cmd_certify(args: argparse.Namespace) -> dict:
    cert = certify_gap(args.graph, tol=args.tol)
    gw, dw = cert.gamma_weights, cert.delta_weights  # per class: cls lifts them to half-edges
    cls = list(enumerate(quotient(args.graph).cls.tolist()))
    return {
        "gamma": cert.gamma,
        "delta": cert.delta,
        "epsilon_chain_step": _frac(cert.epsilon_chain_step),
        "margin": cert.margin,
        "g_max": cert.g_max,
        "lambda1": cert.lambda1,
        "rho_upper_implied": cert.rho_upper_bound,
        "gamma_weights": {str(h): _frac(gw[a]) for h, a in cls if a in gw},
        "delta_weights": {str(h): _frac(dw[a]) for h, a in cls if a in dw},
    }


def cmd_unicyclic(args: argparse.Namespace) -> dict:
    spec = eigen_spectrum(args.graph)
    bound = unicyclic_defect(args.graph, args.copies, spectrum=spec)
    return {"copies": args.copies, "defect_bound": bound, "lambda1": spec.lambda1}


def cmd_walks(args: argparse.Namespace) -> dict:
    closed = closed_walk_profile(args.graph, args.vertex, args.kmax)
    back = backtracking_walk_profile(args.graph, args.vertex, args.kmax)
    return {"vertex": args.vertex, "closed": list(closed), "backtracking": list(back)}


def cmd_orbits(args: argparse.Namespace) -> dict:
    dist = orbit_distribution(args.graph)
    return {
        "rounds": dist.rounds,
        "classes": [
            {
                "representative": c.representative,
                "size": len(c.members),
                "p": _frac(c.p),
            }
            for c in dist.classes
        ],
    }


def cmd_bouquet(args: argparse.Namespace) -> dict:
    pair = find_bouquet(args.graph, args.vertex, args.k, args.length)
    payload: dict = {"found": pair is not None, "k": args.k, "length": args.length}
    if pair:
        payload["cycles"] = [sorted(c.vertex_set) for c in pair]
    return payload


def cmd_bs_dist(args: argparse.Namespace) -> dict:
    if args.csv == "":
        raise ValueError("--csv needs a file path")
    h1 = bs_histogram(args.graph, args.r)
    h2 = bs_histogram(args.other, args.r)
    if args.csv is not None:
        rows = "".join(f"{code},{count}\n" for code, count in sorted(h1.items()))
        _write_text("code,count\n" + rows, args.csv)
    return {
        "r": args.r,
        "tv_distance": tv_distance(h1, h2),
        "types_first": len(h1),
        "types_second": len(h2),
    }


def cmd_gen(args: argparse.Namespace) -> tuple[str, int]:
    g, info = _make_family(args)
    header = "".join(f"# {k}={v}\n" for k, v in sorted(info.items()))
    return header + dump_graph(g), 0


def cmd_lift(args: argparse.Namespace) -> tuple[str, int]:
    lift, _ = random_lift(args.graph, args.n, args.seed)
    components = len(lift.connected_components())
    return f"# components={components}\n" + dump_graph(lift), 0


def _experiment_row(args: argparse.Namespace, size: int, seed: int) -> dict:
    g, info = _make_family(args, n=size, seed=seed)
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


def cmd_experiment(args: argparse.Namespace) -> tuple[str, int]:
    if "n" not in _FAMILY_PARAMS.get(args.family, ()):
        raise ValueError(f"family {args.family!r} has no size parameter")
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
    return buf.getvalue(), 0


def cmd_verify_thm2(args: argparse.Namespace) -> tuple[str, int]:
    # a negative tol reads every tree as a failure
    if args.tol < 0:
        raise ValueError("tolerance must be nonnegative")
    lines = []
    failures = 0
    for g in small_connected_multigraphs(args.max_n, args.max_m):
        klass = cyclomatic_class(g)
        spec = eigen_spectrum(g)
        lam = spec.lambda1
        r = rho_tree(g)
        equal = abs(lam - r.value) <= args.tol
        if klass is CyclomaticClass.MULTICYCLIC:
            try:
                cert = certify_gap(g, tol=args.tol, rho_result=r, spectrum=spec)
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
    return "\n".join(lines) + "\n", 0 if not failures else 1


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
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = add("wr", cmd_wr, "fraction of eigenvalues at or below rho")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--eta", type=float, default=_WR_ETA)

    p = add("treefrac", cmd_treefrac, "fraction of tree radius-r balls")
    p.add_argument("--r", type=int, required=True)

    add("core", cmd_core, "2-core decomposition")

    p = add("certify", cmd_certify, "spectral-gap certificate (multicyclic)")
    p.add_argument("--tol", type=float, default=_CERTIFY_TOL)

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
    p.add_argument("--eta", type=float, default=_WR_ETA)

    p = add("verify-thm2", cmd_verify_thm2, "exhaustive small-graph gap check", graph=False)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-m", type=int, default=5)
    p.add_argument("--tol", type=float, default=_CERTIFY_TOL)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            # JSON has no infinity to echo the value back with, and an
            # infinite tolerance switches off the comparison it bounds
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{name} must be finite, got {value}")
        for name in ("graph", "other"):  # the graph file positionals
            if name in args:
                setattr(args, name, _read_graph(getattr(args, name)))
        result = args.func(args)
        if isinstance(result, dict):
            _emit_json(result, args.out)
            return 0
        text, code = result
        _write_text(text, args.out)
        return code
    except Exception as exc:  # noqa: BLE001 - single CLI error funnel
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
