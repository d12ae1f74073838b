"""A fixed computation that gauges how fast the host runs this process.

The benchmark divides each CPU timing by the CPU seconds of this
computation, run in the same process just before and just after the timed
work: the result is in reference seconds, of which one run of this
computation takes one. On a shared 2-vCPU Xeon virtual machine the same
work took up to 1.5 times more CPU seconds from one minute to the next, the
host switching between a fast and a slow state, sometimes within one run;
a fixed loop slowed by the same factor. This module does not import the
library, so a change to the library leaves it as it is.

    python3 bench/reference.py    # CPU seconds of five runs
"""

from __future__ import annotations

import itertools
import time

import numpy as np


def _canonical_classes() -> int:
    """Isomorphism classes among the simple graphs on five vertices that
    lack the edge 01, each labelled graph's form being the least relabelled
    sorted edge tuple: hashing, sorting and small tuples, as in Python-level
    graph code."""
    pairs = list(itertools.combinations(range(5), 2))
    perms = list(itertools.permutations(range(5)))
    classes: dict[tuple, int] = {}
    for mask in range(0, 1 << len(pairs), 2):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        key = min(tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges)) for p in perms)
        classes[key] = classes.get(key, 0) + 1
    return len(classes)


def _small_dense(rng: np.random.Generator) -> None:
    """Many numpy calls on 12 x 12 matrices, where call overhead dominates."""
    for _ in range(2000):
        a = rng.standard_normal((12, 12))
        a = a + a.T
        np.linalg.eigvalsh(a)
        np.linalg.solve(a + 30.0 * np.eye(12), np.ones(12))


def _mid_dense(rng: np.random.Generator) -> None:
    """Three dense symmetric eigensolves, where BLAS and memory dominate."""
    a = rng.standard_normal((500, 500))
    for k in range(3):
        np.linalg.eigvalsh(a + a.T + k * np.eye(500))


def reference_cpu_s() -> float:
    """CPU seconds of one run of the fixed computation (about 0.3 s on the
    host described above)."""
    rng = np.random.default_rng(0)
    c0 = time.process_time()
    classes = _canonical_classes()
    _small_dense(rng)
    _mid_dense(rng)
    elapsed = time.process_time() - c0
    if classes != 33:
        raise AssertionError(f"reference computation found {classes} graph classes, not 33")
    return elapsed


if __name__ == "__main__":
    print(" ".join(f"{reference_cpu_s():.4f}" for _ in range(5)))
