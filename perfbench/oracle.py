"""Independent NumPy reference for the selection pipeline.

Uses no covsel code: covariances are centered products with divisor n,
each subset criterion goes through an explicit ``numpy.linalg.solve`` on
the (K, K) block of V1, and the penalties are written out from their
definitions (f_n(i) = n**-f_rate * f_shape(i), g_n(i) = n**-g_rate *
g_shape(i)).
"""

from __future__ import annotations

import numpy as np

# Tolerances fixed from float64 before any comparison was run.  The
# benchmark's V1 blocks are AR(1) correlations with rho = 0.5, whose
# condition number is at most (1 + rho)**2 / (1 - rho)**2 = 9; sample
# estimates at n >= 2000 stay within a small factor of that.  Two stable
# solves of such a block agree to about cond * p * eps ~ 1e-13 relative,
# so 1e-9 leaves four orders of magnitude of headroom.  The absolute term,
# scaled by ||V12||_F, covers criteria that are zero up to rounding.
RTOL = 1e-9
ATOL_SCALE = 1e-9

# The penalty shapes the workloads use.
SHAPES = {
    "reciprocal": lambda i: 1.0 / i,
    "linear": lambda i: float(i),
}


def covariances(x, y):
    """(V1, V12) with mean centering and divisor n."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    return xc.T @ xc / n, xc.T @ yc / n


def xi(v1, v12, labels) -> float:
    """||V12 - V1[:, K] V1[K, K]^-1 V12[K, :]||_F for 1-based labels K."""
    sel = np.asarray(sorted(labels), dtype=int) - 1
    coef = np.linalg.solve(v1[np.ix_(sel, sel)], v12[sel, :])
    resid = v12 - v1[:, sel] @ coef
    return float(np.sqrt(np.sum(resid * resid)))


def selection(x, y, f_rate, g_rate, f_shape, g_shape, penalty_arg):
    """phi (by label), sigma_hat, psi (by rank), s_hat and selected labels."""
    v1, v12 = covariances(x, y)
    n, p = np.asarray(x).shape
    f, g = SHAPES[f_shape], SHAPES[g_shape]
    labels = list(range(1, p + 1))
    phi = np.array(
        [xi(v1, v12, [j for j in labels if j != i]) + n ** (-f_rate) * f(i) for i in labels]
    )
    # largest first; exact ties go to the smaller label
    sigma = sorted(labels, key=lambda i: (-phi[i - 1], i))
    psi = np.empty(p)
    for r in range(1, p + 1):
        arg = sigma[r - 1] if penalty_arg == "label" else r
        psi[r - 1] = xi(v1, v12, sigma[:r]) + n ** (-g_rate) * g(arg)
    s_hat = int(np.argmin(psi)) + 1
    return {
        "phi": phi,
        "sigma_hat": np.array(sigma),
        "psi": psi,
        "s_hat": s_hat,
        "selected": tuple(sorted(sigma[:s_hat])),
        "scale": float(np.sqrt(np.sum(v12 * v12))),
    }


def close(got, want, scale) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= RTOL * np.abs(want) + ATOL_SCALE * scale)
    )


def mismatches(phi, sigma_hat, psi, selected, ref) -> list[str]:
    """Names of the fields in which a program result differs from ``ref``."""
    bad = []
    if not close(phi, ref["phi"], ref["scale"]):
        bad.append("phi")
    if not np.array_equal(np.asarray(sigma_hat, dtype=int), ref["sigma_hat"]):
        bad.append("sigma_hat")
    if not close(psi, ref["psi"], ref["scale"]):
        bad.append("psi")
    if tuple(int(i) for i in selected) != ref["selected"]:
        bad.append("selected")
    return bad
