import argparse
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coverspectra import cli
from coverspectra.cli import build_parser, main
from coverspectra.multigraph import (
    CyclomaticClass,
    MultiGraph,
    cyclomatic_class,
    dump_graph,
    load_graph,
)
from coverspectra.generators import (
    _FAMILIES,
    RANDOM_REGULAR_RETRIES,
    bowtie,
    cycle,
    small_connected_multigraphs,
    star,
)


@pytest.fixture
def write_graph(tmp_path):
    def _write(g, name="g.mg"):
        p = tmp_path / name
        p.write_text(dump_graph(g), encoding="utf-8")
        return str(p)

    return _write


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    payload = json.loads(captured.out)
    assert payload["schema"] == "cover-spectra/1"
    return payload


def run_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert len(captured.err.strip().splitlines()) == 1
    return captured.err


# -- single-graph analyses ----------------------------------------------------------


def test_spectra_bowtie(capsys, write_graph):
    payload = run_json(capsys, ["spectra", write_graph(bowtie())])
    assert payload["n"] == 5 and payload["m"] == 6
    assert payload["lambda1"] == pytest.approx((1 + math.sqrt(17)) / 2, abs=1e-10)
    assert len(payload["eigenvalues"]) == 5


def test_rho_bowtie(capsys, write_graph):
    payload = run_json(capsys, ["rho", write_graph(bowtie()), "--tol", "1e-9"])
    want = (math.sqrt(3) + math.sqrt(11)) / 2
    assert payload["rho"] == pytest.approx(want, abs=1e-8)
    assert payload["hi"] - payload["lo"] <= 1e-9
    assert payload["vertex_slack_min"] >= 0
    # every probe behind the bracket certified hi or refuted lo
    statuses = {status for _, _, status in payload["probes"]}
    assert statuses and statuses <= {"certified", "diverged"}
    assert payload["ambiguous_probes"] == 0


def test_wr_long_cycle(capsys, write_graph):
    payload = run_json(capsys, ["wr", write_graph(cycle(100)), "--rho", "2"])
    assert payload["wr_fraction"] == 1.0


def test_treefrac(capsys, write_graph):
    payload = run_json(capsys, ["treefrac", write_graph(cycle(6)), "--r", "2"])
    assert payload["tree_fraction"] == 1.0
    payload = run_json(capsys, ["treefrac", write_graph(cycle(3)), "--r", "1"])
    assert payload["tree_fraction"] == 0.0


def test_core_report(capsys, write_graph):
    g = MultiGraph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4)))
    payload = run_json(capsys, ["core", write_graph(g)])
    assert payload["cyclomatic_class"] == "unicyclic"
    assert payload["core_vertices"] == [0, 1, 2]
    assert payload["ext_vertices"] == [3, 4]
    assert len(payload["ext_half_edges"]) == 2


def test_certify_bowtie(capsys, write_graph):
    payload = run_json(capsys, ["certify", write_graph(bowtie())])
    assert 0 < payload["margin"] <= 0.04
    assert payload["rho_upper_implied"] == pytest.approx(
        payload["lambda1"] - payload["margin"], abs=1e-15
    )
    assert payload["epsilon_chain_step"] == "1/6"
    assert set(payload["gamma_weights"].values()) == {"1/1", "7/6", "4/3"}


def test_certify_rejects_unicyclic(capsys, write_graph):
    err = run_error(capsys, ["certify", write_graph(cycle(4))])
    assert "multicyclic" in err


def test_unicyclic_triangle(capsys, write_graph):
    payload = run_json(
        capsys, ["unicyclic", write_graph(cycle(3)), "--copies", "1"]
    )
    assert payload["defect_bound"] == pytest.approx(4 / 3, rel=1e-12)
    run_error(capsys, ["unicyclic", write_graph(bowtie()), "--copies", "1"])


def test_walks_on_tree(capsys, write_graph):
    payload = run_json(
        capsys,
        ["walks", write_graph(star(3)), "--vertex", "0", "--kmax", "4"],
    )
    assert payload["closed"] == [1, 0, 3, 0, 9]
    assert payload["backtracking"] == payload["closed"]


def test_orbits_bowtie(capsys, write_graph):
    payload = run_json(capsys, ["orbits", write_graph(bowtie())])
    sizes = sorted(c["size"] for c in payload["classes"])
    assert sizes == [1, 4]
    assert sorted(c["p"] for c in payload["classes"]) == ["1/5", "4/5"]


def test_bouquet_found_and_not(capsys, write_graph):
    payload = run_json(
        capsys,
        ["bouquet", write_graph(bowtie()), "--vertex", "0", "--k", "3", "--length", "3"],
    )
    assert payload["found"] is False
    g = MultiGraph(7, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 4)))
    payload = run_json(
        capsys,
        ["bouquet", write_graph(g), "--vertex", "3", "--k", "4", "--length", "3"],
    )
    assert payload["found"] is True
    assert payload["cycles"] == [[0, 1, 2], [4, 5, 6]]


def test_bs_dist_with_csv(capsys, write_graph, tmp_path):
    csv_path = tmp_path / "hist.csv"
    payload = run_json(
        capsys,
        [
            "bs-dist",
            write_graph(cycle(100), "a.mg"),
            write_graph(cycle(101), "b.mg"),
            "--r",
            "2",
            "--csv",
            str(csv_path),
        ],
    )
    assert payload["tv_distance"] == 0.0
    assert payload["types_first"] == 1
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "code,count"
    assert len(lines) == 2
    assert lines[1].endswith(",100")


def test_bs_dist_rejects_an_empty_csv_path(capsys, write_graph):
    graph = write_graph(cycle(5), "a.mg")
    err = run_error(capsys, ["bs-dist", graph, graph, "--r", "1", "--csv", ""])
    assert err == "error: --csv needs a file path\n"
    assert capsys.readouterr().out == ""


def test_bs_dist_cap_error(capsys, write_graph):
    from coverspectra.generators import complete

    err = run_error(
        capsys,
        [
            "bs-dist",
            write_graph(complete(70), "a.mg"),
            write_graph(complete(70), "b.mg"),
            "--r",
            "1",
        ],
    )
    assert "over the cap" in err


# -- generation --------------------------------------------------------------------


def test_gen_bowtie_round_trips(capsys):
    code = main(["gen", "--family", "bowtie"])
    out = capsys.readouterr().out
    assert code == 0
    assert load_graph(out).degrees == (4, 2, 2, 2, 2)


def test_gen_records_draw_info(capsys):
    code = main(
        ["gen", "--family", "random_regular", "--n", "10", "--d", "3", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "# connected=True" in out and "# simple=True" in out
    g = load_graph(out)
    assert g.degrees == (3,) * 10


def test_gen_errors(capsys):
    err = run_error(capsys, ["gen", "--family", "petersen"])
    assert "unknown family" in err
    err = run_error(capsys, ["gen", "--family", "theta", "--a", "2", "--b", "2"])
    assert "requires --c" in err


def test_gen_family_parameters_follow_the_builders(capsys):
    """The CLI reads each family's parameters off its builder's signature,
    and requires every one of them."""
    err = run_error(capsys, ["gen", "--family", "petersen"])
    assert err.strip().endswith(
        "choose from: biregular, bowtie, complete, cycle, path, random_regular, "
        "star, theta, two_cycles_glued"
    )
    err = run_error(capsys, ["gen", "--family", "random_regular", "--n", "10", "--d", "3"])
    assert "family 'random_regular' requires --seed" in err
    err = run_error(capsys, ["gen", "--family", "star"])
    assert "family 'star' requires --k" in err
    err = run_error(capsys, ["experiment", "--family", "bowtie", "--sizes", "5", "--seeds", "1"])
    assert "family 'bowtie' has no size parameter" in err


def test_gen_has_a_flag_for_every_family_parameter(monkeypatch):
    for name, builder in _FAMILIES.items():
        for param in inspect.signature(builder).parameters:
            args = build_parser().parse_args(["gen", "--family", name, f"--{param}", "3"])
            assert getattr(args, param) == 3
    # a builder parameter that no other family has still gets its flag
    monkeypatch.setitem(cli._FAMILY_PARAMS, "hypercube", ("dim",))
    assert build_parser().parse_args(["gen", "--family", "hypercube", "--dim", "4"]).dim == 4


def test_lift_deterministic(capsys, write_graph):
    argv = ["lift", write_graph(bowtie()), "--n", "3", "--seed", "1"]
    code = main(argv)
    first = capsys.readouterr().out
    assert code == 0
    main(argv)
    assert capsys.readouterr().out == first
    assert first.startswith("# components=")
    lift = load_graph(first)
    assert lift.n == 15 and lift.m == 18


# -- sweeps ------------------------------------------------------------------------


def test_experiment_cycles(capsys):
    argv = [
        "experiment",
        "--family",
        "cycle",
        "--sizes",
        "10,12",
        "--r",
        "2",
    ]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,seed,wr_fraction,tree_fraction,rho,lambda1"
    assert len(lines) == 3
    for row in lines[1:]:
        n, seed, wr, tf, rho, lam = row.split(",")
        assert float(wr) == 1.0
        assert float(tf) == 1.0
        assert float(rho) == pytest.approx(2.0, abs=1e-8)
        assert float(lam) == pytest.approx(2.0, abs=1e-10)
    # deterministic byte-for-byte
    main(argv)
    assert capsys.readouterr().out == out


def test_experiment_rows_are_sorted(capsys):
    argv = [
        "experiment",
        "--family",
        "random_regular",
        "--d",
        "3",
        "--sizes",
        "12,16",
        "--seeds",
        "0,1",
        "--r",
        "2",
    ]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [
        ["12", "0"],
        ["12", "1"],
        ["16", "0"],
        ["16", "1"],
    ]


def test_experiment_validation(capsys):
    err = run_error(
        capsys, ["experiment", "--family", "random_regular", "--sizes", "10"]
    )
    assert "--d" in err
    err = run_error(capsys, ["experiment", "--family", "bowtie", "--sizes", "5"])
    assert "size" in err
    err = run_error(capsys, ["experiment", "--family", "cycle", "--sizes", ""])
    assert "size" in err
    err = run_error(capsys, ["experiment", "--family", "cycle", "--sizes", "5", "--seeds", ""])
    assert "seed" in err
    # a configuration-model draw of an 8-regular graph on 10 vertices is simple
    # with probability about exp(-(8 * 8 - 1) / 4), near 1e-7
    err = run_error(
        capsys,
        ["experiment", "--family", "random_regular", "--d", "8", "--sizes", "10", "--seeds", "0,1"],
    )
    assert f"n=10, d=8, seed=0 in {RANDOM_REGULAR_RETRIES} attempts" in err


def test_verify_thm2_small(capsys):
    code = main(["verify-thm2", "--max-n", "3", "--max-m", "4"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("all pass")
    assert "tree" in out and "unicyclic" in out and "multicyclic" in out


def test_verify_thm2_rejects_negative_tolerance(capsys):
    err = run_error(capsys, ["verify-thm2", "--tol", "-1"])
    assert err == "error: tolerance must be nonnegative\n"


@pytest.mark.parametrize("bounds", [("0", "7"), ("3", "-1")])
def test_verify_thm2_rejects_bounds_that_select_nothing(capsys, bounds):
    max_n, max_m = bounds
    err = run_error(capsys, ["verify-thm2", "--max-n", max_n, "--max-m", max_m])
    assert err == f"error: no connected graph has n <= {max_n} and m <= {max_m}\n"


def test_verify_thm2_reports_certify_failures(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("no kernel")

    monkeypatch.setattr(cli, "certify_gap", broken)
    code = main(["verify-thm2", "--max-n", "3", "--max-m", "4"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    failed = [line for line in lines[:-1] if line.startswith("FAIL")]
    multicyclic = sum(
        cyclomatic_class(g) is CyclomaticClass.MULTICYCLIC
        for g in small_connected_multigraphs(3, 4)
    )
    assert multicyclic > 0 and len(failed) == multicyclic
    assert all("multicyclic" in line and "certify failed: no kernel" in line for line in failed)
    assert lines[-1].endswith(f"{multicyclic} FAILED")


# -- plumbing ----------------------------------------------------------------------


def test_out_flag_writes_file(capsys, write_graph, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(["spectra", write_graph(cycle(4)), "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["lambda1"] == pytest.approx(2.0, abs=1e-12)


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(dump_graph(cycle(5))))
    payload = run_json(capsys, ["spectra", "-"])
    assert payload["n"] == 5


def test_missing_file_and_bad_format(capsys, tmp_path):
    run_error(capsys, ["rho", str(tmp_path / "nope.mg")])
    bad = tmp_path / "bad.mg"
    bad.write_text("3 1\n0 9\n", encoding="utf-8")
    err = run_error(capsys, ["rho", str(bad)])
    assert "line 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["rho", "--tol", "nan"],
        ["wr", "--rho", "2.5", "--eta", "nan"],
        ["wr", "--rho", "nan"],
        ["wr", "--rho", "inf"],
        ["wr", "--rho=-inf"],
        ["wr", "--rho", "2.5", "--eta", "inf"],
        ["rho", "--tol", "inf"],
        ["certify", "--tol", "nan"],
        ["verify-thm2", "--tol", "nan"],
        ["certify", "--tol", "inf"],
        ["verify-thm2", "--tol", "inf"],
        ["experiment", "--family", "cycle", "--sizes", "5", "--eta", "inf"],
        ["experiment", "--family", "cycle", "--sizes", "5", "--eta=-inf"],
    ],
)
def test_nan_tolerances_exit_with_error(capsys, write_graph, argv):
    graph = [] if argv[0] in ("verify-thm2", "experiment") else [write_graph(bowtie())]
    err = run_error(capsys, [argv[0], *graph, *argv[1:]])
    assert " must be finite, got " in err


def test_every_float_flag_must_be_finite(capsys, write_graph):
    """Walks the parser, so a float flag added later cannot skip the check."""
    graph = write_graph(bowtie())
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    checked = []
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.type is not float:
                continue
            flag = action.option_strings[0]
            argv = [command]
            for other in parser._actions:
                if not other.option_strings:
                    argv.append(graph)
                elif other.required and other is not action:
                    argv += [other.option_strings[0], "1"]
            err = run_error(capsys, [*argv, flag, "inf"])
            assert err == f"error: {flag} must be finite, got inf\n", (command, flag)
            checked.append((command, flag))
    assert ("experiment", "--eta") in checked and len(checked) >= 6


def test_non_finite_values_are_named(capsys, write_graph):
    err = run_error(capsys, ["wr", write_graph(bowtie()), "--rho", "inf"])
    assert "--rho must be finite" in err


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point(write_graph):
    # the child does not read pyproject.toml's pythonpath, so put src on its path
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "coverspectra", "spectra", write_graph(cycle(3))],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lambda1"] == pytest.approx(2.0, abs=1e-10)
