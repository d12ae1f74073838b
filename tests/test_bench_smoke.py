"""The benchmark's smoke run (`bench/smoke.py`) as part of the suite: every
workload at a tiny size, traced and untraced, with its output checks. A
library change that breaks a benchmark check fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "bench/smoke.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_bench_clears_the_quotient_cache():
    """Bench passes start with the library's caches empty; a cache the bench
    cannot clear would let a pass reuse the quotients or the ball sweeps of
    equal graphs."""
    code = (
        "import sys\n"
        "sys.path.insert(0, 'bench')\n"
        "from run import clear_library_caches, import_library\n"
        "import_library()\n"
        "from coverspectra.cover import quotient\n"
        "from coverspectra.generators import bowtie, complete\n"
        "from coverspectra.localstats import _balls, tree_fraction\n"
        "quotient(bowtie()), quotient(complete(4))\n"
        "tree_fraction(bowtie(), 1), tree_fraction(bowtie(), 2)\n"
        "assert quotient.cache_info().currsize == 2\n"
        "assert _balls.cache_info().currsize == 2\n"
        "clear_library_caches()\n"
        "print(quotient.cache_info().currsize, _balls.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0", "0"]
