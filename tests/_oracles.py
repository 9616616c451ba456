"""Independent brute-force reference implementations used by the tests.

Everything here deliberately avoids the library's code paths: covariances
come from explicit centered sums over rows, subset projections go through
an explicit submatrix inverse (``numpy.linalg.inv``, not a Cholesky solve),
and norms are explicit sums of squares.  Run as a script to regenerate the
pinned population criterion constants in ``tests/data``.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).parent / "data"
PINNED_PATH = DATA_DIR / "population_criterion.json"


def bruteforce_covariances(x, y):
    """Centered covariance sums with divisor n, written as explicit loops."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    q = y.shape[1]
    xbar = [sum(x[k, i] for k in range(n)) / n for i in range(p)]
    ybar = [sum(y[k, j] for k in range(n)) / n for j in range(q)]
    v1 = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            v1[i, j] = sum((x[k, i] - xbar[i]) * (x[k, j] - xbar[j]) for k in range(n)) / n
    v12 = np.zeros((p, q))
    for i in range(p):
        for j in range(q):
            v12[i, j] = sum((x[k, i] - xbar[i]) * (y[k, j] - ybar[j]) for k in range(n)) / n
    return v1, v12


def bruteforce_criterion(v1, v12, labels):
    """Subset criterion via an explicit submatrix inverse and explicit norm.

    ``labels`` are 1-based variable indices.
    """
    v1 = np.asarray(v1, dtype=float)
    v12 = np.asarray(v12, dtype=float)
    p = v1.shape[0]
    sel = [i - 1 for i in labels]
    block_inv = np.linalg.inv(v1[np.ix_(sel, sel)])
    pi = np.zeros((p, p))
    for a, i in enumerate(sel):
        for b, j in enumerate(sel):
            pi[i, j] = block_inv[a, b]
    delta = v12 - v1 @ pi @ v12
    total = 0.0
    for row in delta:
        for value in row:
            total += value * value
    return math.sqrt(total)


def bruteforce_matmul(a, b):
    """Textbook triple-loop matrix product."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            out[i, j] = sum(a[i, k] * b[k, j] for k in range(a.shape[1]))
    return out


def bruteforce_ols(x, y, labels):
    """Least squares with an intercept: the normal equations of the design
    [1 | x_K] solved by an explicit inverse.  Returns the intercept (q,) and
    the coefficients (q, k)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones(len(x)), x[:, [i - 1 for i in labels]]])
    xtx = bruteforce_matmul(design.T, design)
    xty = bruteforce_matmul(design.T, y)
    full = bruteforce_matmul(np.linalg.inv(xtx), xty).T
    return full[:, 0], full[:, 1:]


def benchmark_matrices():
    """The benchmark generating model as raw matrices (kept independent of
    the library's constructor)."""
    b = np.array(
        [
            [3.0, 0.0, 0.0, 1.5, 0.0, 0.0, 2.0],
            [4.0, 0.0, 0.0, 2.5, 0.0, 0.0, -1.0],
            [5.0, 0.0, 0.0, 0.5, 0.0, 0.0, 3.0],
            [6.0, 0.0, 0.0, 3.0, 0.0, 0.0, 1.0],
            [7.0, 0.0, 0.0, 6.0, 0.0, 0.0, 4.0],
        ]
    )
    sigma = np.array([[0.5 ** abs(i - j) for j in range(7)] for i in range(7)])
    noise = 0.5 * np.eye(5)
    return b, sigma, noise


def all_population_criteria():
    """Brute-force population criterion for every non-empty subset of 1..7."""
    b, sigma, _ = benchmark_matrices()
    v12 = bruteforce_matmul(sigma, b.T)
    values = {}
    for size in range(1, 8):
        for labels in itertools.combinations(range(1, 8), size):
            key = ",".join(str(i) for i in labels)
            values[key] = bruteforce_criterion(sigma, v12, labels)
    return values


def load_pinned_criteria() -> dict[str, float]:
    with open(PINNED_PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    DATA_DIR.mkdir(exist_ok=True)
    values = all_population_criteria()
    with open(PINNED_PATH, "w") as fh:
        json.dump(values, fh, indent=1)
    zero = [k for k, v in values.items() if v <= 1e-10]
    positive = {k: v for k, v in values.items() if v > 1e-10}
    print(f"wrote {len(values)} constants to {PINNED_PATH}")
    print(f"zero sets ({len(zero)}): {zero}")
    print(f"smallest positive value: {min(positive.values()):.6f}")
