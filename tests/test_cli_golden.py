"""Byte-for-byte goldens of the command line: stdout, stderr and exit code of
every subcommand, and the histogram that `bs-dist --csv` writes.

Each case runs `main` with the working directory at tests/data/cli, so the
graph files (and the paths that error messages echo) are relative. After a
deliberate change of output, rewrite the goldens with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of tests/data/cli before committing it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
from pathlib import Path

from coverspectra.cli import build_parser, main

DATA = Path(__file__).parent / "data" / "cli"

# name -> (argv, exit code); "{tmp}" is a scratch directory outside DATA
CASES = {
    "spectra": (["spectra", "bowtie.mg"], 0),
    "rho": (["rho", "bowtie.mg"], 0),
    "wr": (["wr", "bowtie.mg", "--rho", "2.5"], 0),
    "treefrac": (["treefrac", "bowtie.mg", "--r", "2"], 0),
    "core": (["core", "bowtie.mg"], 0),
    "certify": (["certify", "bowtie.mg"], 0),
    "unicyclic-bowtie": (["unicyclic", "bowtie.mg", "--copies", "10"], 2),
    "unicyclic-cycle5": (["unicyclic", "cycle5.mg", "--copies", "10"], 0),
    "walks": (["walks", "bowtie.mg", "--vertex", "0", "--kmax", "6"], 0),
    "orbits": (["orbits", "bowtie.mg"], 0),
    "bouquet": (["bouquet", "bowtie.mg", "--vertex", "0", "--k", "3", "--length", "3"], 0),
    "bs-dist": (["bs-dist", "bowtie.mg", "cycle5.mg", "--r", "2", "--csv", "{tmp}/bs-dist.csv"], 0),
    "gen-bowtie": (["gen", "--family", "bowtie"], 0),
    "gen-theta": (["gen", "--family", "theta", "--a", "1", "--b", "2", "--c", "3"], 0),
    "gen-random-regular": (
        ["gen", "--family", "random_regular", "--n", "10", "--d", "3", "--seed", "1"],
        0,
    ),
    "lift": (["lift", "bowtie.mg", "--n", "3", "--seed", "1"], 0),
    "experiment-cycle": (["experiment", "--family", "cycle", "--sizes", "6,8", "--seeds", "0,1"], 0),
    "experiment-random-regular": (
        ["experiment", "--family", "random_regular", "--d", "3", "--sizes", "10,12", "--seeds", "0,1"],
        0,
    ),
    "verify-thm2": (["verify-thm2"], 0),
    "error-unknown-family": (["gen", "--family", "petersen"], 2),
    "error-missing-family-flag": (["gen", "--family", "theta", "--a", "2", "--b", "2"], 2),
    "error-rho-tol-inf": (["rho", "bowtie.mg", "--tol", "inf"], 2),
    "error-bad-graph": (["rho", "bad.mg"], 2),
    "error-missing-graph": (["rho", "missing.mg"], 2),
}


def run_case(name: str, tmp: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one case, run from DATA."""
    argv = [arg.replace("{tmp}", str(tmp)) for arg in CASES[name][0]]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _read(path: Path) -> str:
    # newline="" keeps the bytes as written, line endings included
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def test_cli_goldens(tmp_path):
    mismatched = []
    for name, (_, want_code) in CASES.items():
        code, out, err = run_case(name, tmp_path)
        if (code, out, err) != (want_code, _read(DATA / f"{name}.stdout"), _read(DATA / f"{name}.stderr")):
            mismatched.append(name)
    assert mismatched == []
    assert _read(tmp_path / "bs-dist.csv") == _read(DATA / "bs-dist.csv")


def test_every_subcommand_has_a_golden():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    covered = {argv[0] for argv, _ in CASES.values()}
    assert sorted(set(sub.choices) - covered) == []


def _write_goldens(tmp: Path) -> None:
    for name, (_, want_code) in CASES.items():
        code, out, err = run_case(name, tmp)
        if code != want_code:
            raise SystemExit(f"{name}: exit {code}, expected {want_code}")
        for suffix, text in (("stdout", out), ("stderr", err)):
            with open(DATA / f"{name}.{suffix}", "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    (DATA / "bs-dist.csv").write_bytes((tmp / "bs-dist.csv").read_bytes())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_goldens(Path(tmp))
