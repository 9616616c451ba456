"""Covariance operators and the subset-residual selection criterion.

The model is a multivariate linear regression y = B x + noise with random
predictors.  Everything in this module is driven by the pair of covariance
matrices (V1, V12) = (Cov(X), Cov(X, Y)), either estimated from a sample or
computed exactly from a known generating model.  The criterion ``xi_K``
measures how much of V12 is left unexplained after projecting onto a subset
K of predictor coordinates; it vanishes exactly when K contains every
predictor with a nonzero coefficient column.

The selection pipeline needs ``xi`` on 2p nested or near-complete subsets.
Two block-inverse (SWEEP) identities give each family from one
factorization, O(p**3) for the family where one solve per subset would
cost O(p**4) (Golub & Van Loan, Matrix Computations, ch. 3; Goodnight
1979, "A tutorial on the SWEEP operator"):

* leave-one-out: with B = V1^-1 and beta = B V12,
  ``xi_{all minus i} = ||beta_i|| / B_ii`` (``leave_one_out_criteria``);
* prefixes of an ordering s: with L = chol(V1[s, s]) and W = L^-1 V12[s],
  ``xi_{first i of s} = ||L[i:, i:] W[i:]||_F``, exactly 0 for the full
  prefix (``prefix_criteria``).

Every inverted block must pass the condition-number cap.  By Cauchy
interlacing no principal block of V1 has a larger eigenvalue ratio than V1
itself, so ``cap_certified`` checks the cap for all subsets with one
``eigvalsh(V1)``; when it cannot, callers fall back to ``criterion`` per
subset, which checks each block and names the one that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

DEFAULT_COND_CAP = 1e12

EMPIRICAL = "empirical"
POPULATION = "population"


class SingularSubmatrixError(ValueError):
    """A principal submatrix of V1 is singular or numerically unusable.

    Raised when the covariance block for a candidate subset fails the
    condition-number cap, which signals collinear or degenerate predictors
    inside the subset.
    """

    def __init__(self, message: str, indices: tuple[int, ...] | None = None):
        super().__init__(message)
        self.indices = indices


def _as_readonly(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Paired observation matrices: predictors ``x`` (n, p), responses ``y`` (n, q).

    Rows are observations.  Arrays are copied and frozen so instances can be
    shared across threads.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _as_readonly(self.x)
        y = _as_readonly(self.y)
        if x.ndim != 2 or y.ndim != 2:
            raise ValueError("x and y must be 2-d arrays")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x and y must have the same number of rows, got {x.shape[0]} and {y.shape[0]}"
            )
        if x.shape[0] < 1:
            raise ValueError("need at least one observation")
        if x.shape[1] < 1 or y.shape[1] < 1:
            raise ValueError("x and y must each have at least one column")
        if not np.isfinite(x).all() or not np.isfinite(y).all():
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def q(self) -> int:
        return self.y.shape[1]


@dataclass(frozen=True)
class PopulationModel:
    """Exact generating model: coefficients ``b`` (q, p), predictor covariance
    ``sigma`` (p, p, symmetric positive definite), noise covariance
    ``noise_cov`` (q, q, symmetric positive semi-definite).

    Construction also computes the sampling factors once: ``sigma_factor``,
    the lower Cholesky factor of ``sigma``, and ``noise_factor``, the
    symmetric square root of ``noise_cov`` (spectral, so a singular noise
    covariance is allowed).  They are not dataclass fields.
    """

    b: np.ndarray
    sigma: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        b = _as_readonly(self.b)
        sigma = _as_readonly(self.sigma)
        noise = _as_readonly(self.noise_cov)
        if b.ndim != 2:
            raise ValueError("b must be a 2-d (q, p) array")
        q, p = b.shape
        if p < 2 or q < 2:
            raise ValueError("the model needs at least two predictors and two responses")
        if sigma.shape != (p, p):
            raise ValueError(f"sigma must be ({p}, {p}), got {sigma.shape}")
        if noise.shape != (q, q):
            raise ValueError(f"noise_cov must be ({q}, {q}), got {noise.shape}")
        if not np.isfinite(b).all() or not np.isfinite(sigma).all() or not np.isfinite(noise).all():
            raise ValueError("model matrices must be finite")
        if np.abs(sigma - sigma.T).max() > 1e-12:
            raise ValueError("sigma must be symmetric (within 1e-12)")
        if np.linalg.eigvalsh(sigma).min() <= 0:
            raise ValueError("sigma must be positive definite")
        if np.abs(noise - noise.T).max() > 1e-12:
            raise ValueError("noise_cov must be symmetric (within 1e-12)")
        scale = max(1.0, float(np.abs(noise).max()))
        if np.linalg.eigvalsh(noise).min() < -1e-12 * scale:
            raise ValueError("noise_cov must be positive semi-definite")
        try:
            sigma_factor = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise ValueError("sigma must be positive definite (Cholesky failed)") from None
        vals, vecs = np.linalg.eigh(noise)
        noise_factor = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "noise_cov", noise)
        object.__setattr__(self, "sigma_factor", _as_readonly(sigma_factor))
        object.__setattr__(self, "noise_factor", _as_readonly(noise_factor))

    @property
    def p(self) -> int:
        return self.b.shape[1]

    @property
    def q(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class CovarianceSuite:
    """The matrix pair (V1, V12) with a tag saying where it came from.

    ``v1`` is (p, p) and must be symmetric; ``v12`` is (p, q).  Positive
    definiteness of principal blocks is checked where inversion happens,
    not here.
    """

    v1: np.ndarray
    v12: np.ndarray
    provenance: str

    def __post_init__(self):
        v1 = _as_readonly(self.v1)
        v12 = _as_readonly(self.v12)
        if v1.ndim != 2 or v1.shape[0] != v1.shape[1]:
            raise ValueError("v1 must be square")
        if v12.ndim != 2 or v12.shape[0] != v1.shape[0]:
            raise ValueError("v12 must have one row per predictor")
        if np.abs(v1 - v1.T).max() > 1e-10 * max(1.0, float(np.abs(v1).max())):
            raise ValueError("v1 must be symmetric (within 1e-10)")
        if self.provenance not in (EMPIRICAL, POPULATION):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v12", v12)

    @property
    def p(self) -> int:
        return self.v1.shape[0]

    @property
    def q(self) -> int:
        return self.v12.shape[1]

    @cached_property
    def v1_certified(self) -> bool:
        """``cap_certified(v1)`` at the default cap, computed once per suite
        for the ranking and dimension stages."""
        return cap_certified(self.v1)


@dataclass(frozen=True)
class VariableSubset:
    """A non-empty subset of predictor labels, 1-based, strictly increasing."""

    indices: tuple[int, ...]
    p: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise ValueError("subset must be non-empty")
        if any(i < 1 or i > self.p for i in idx):
            raise ValueError(f"indices must lie in 1..{self.p}, got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, labels, p: int) -> "VariableSubset":
        """Build from any iterable of labels (sorted, duplicates rejected)."""
        labels = sorted(int(i) for i in labels)
        return cls(tuple(labels), p)

    @classmethod
    def full(cls, p: int) -> "VariableSubset":
        return cls(tuple(range(1, p + 1)), p)

    def drop(self, label: int) -> "VariableSubset":
        """The subset with one label removed (label must be present)."""
        if label not in self.indices:
            raise ValueError(f"label {label} not in subset")
        return VariableSubset(tuple(i for i in self.indices if i != label), self.p)

    @property
    def zero_based(self) -> list[int]:
        return [i - 1 for i in self.indices]

    def __len__(self) -> int:
        return len(self.indices)


def empirical_covariances(data: Dataset) -> CovarianceSuite:
    """Sample covariance pair with divisor n (not n-1) and mean centering.

    Requires at least two observations; with one the centered sums are
    degenerate for selection purposes.
    """
    if data.n < 2:
        raise ValueError(f"need n >= 2 observations to estimate covariances, got {data.n}")
    n = data.n
    xc = data.x - data.x.mean(axis=0)
    yc = data.y - data.y.mean(axis=0)
    v1 = xc.T @ xc / n
    v1 = (v1 + v1.T) / 2.0  # enforce exact symmetry against rounding
    v12 = xc.T @ yc / n
    return CovarianceSuite(v1=v1, v12=v12, provenance=EMPIRICAL)


def population_covariances(model: PopulationModel) -> CovarianceSuite:
    """Exact covariance pair of the generating model: V1 = sigma, V12 = sigma b^T."""
    return CovarianceSuite(
        v1=model.sigma, v12=model.sigma @ model.b.T, provenance=POPULATION
    )


def _checked_block(
    v1: np.ndarray, k: VariableSubset, cond_cap: float
) -> tuple[list[int], np.ndarray]:
    """Zero-based indices of ``k`` and the (K, K) block of ``v1``.

    Rejects a block that is not positive definite or whose eigenvalue ratio
    exceeds ``cond_cap`` rather than silently regularizing.
    """
    if v1.shape != (k.p, k.p):
        raise ValueError(f"v1 must be ({k.p}, {k.p}), got {v1.shape}")
    sel = k.zero_based
    block = v1[np.ix_(sel, sel)]
    eigs = np.linalg.eigvalsh(block)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0 or hi / lo > cond_cap:
        raise SingularSubmatrixError(
            f"covariance block for subset {k.indices} is singular or ill-conditioned "
            f"(eigenvalues in [{lo:.3e}, {hi:.3e}], cap {cond_cap:.1e})",
            indices=k.indices,
        )
    return sel, block


def projector(v1: np.ndarray, k: VariableSubset, cond_cap: float = DEFAULT_COND_CAP) -> np.ndarray:
    """Subset projector: zero everywhere except the (K, K) block, which holds
    the inverse of the corresponding principal submatrix of ``v1``.

    Satisfies ``pi @ v1 @ pi == pi`` up to rounding whenever it exists.  A
    reference object: ``criterion`` never builds it.
    """
    sel, block = _checked_block(np.asarray(v1, dtype=float), k, cond_cap)
    inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(block, lower=True), np.eye(len(sel)))
    pi = np.zeros((k.p, k.p))
    pi[np.ix_(sel, sel)] = (inv + inv.T) / 2.0
    return pi


def criterion(suite: CovarianceSuite, k: VariableSubset, cond_cap: float = DEFAULT_COND_CAP) -> float:
    """Frobenius norm of V12 - V1 Pi_K V12: the part of the cross-covariance
    a regression on the coordinates in K cannot reproduce.

    Zero (up to rounding) on a population suite exactly when K contains all
    predictors with nonzero coefficient columns; on the full subset it is
    zero for any suite with invertible V1.

    Computed without the projector: the (K, K) block is checked against
    ``cond_cap`` and Cholesky-solved for coef = V1[K, K]^-1 V12[K], and the
    result is the norm of V12 - V1[:, K] coef, O(p**3) per subset.

    The selection pipeline calls this only when ``cap_certified(V1)`` is
    false.  Otherwise it uses two identities, O(p**3) per family of p
    subsets: with B = V1^-1 and beta = B V12, xi_{all minus i} =
    ||beta_i|| / B_ii (``leave_one_out_criteria``); with L = chol(V1[s, s])
    and W = L^-1 V12[s], the prefix of length i of an ordering s has
    xi = ||L[i:, i:] W[i:]||_F (``prefix_criteria``).  Skipping the
    per-block check there is safe: by Cauchy interlacing no principal block
    is worse conditioned than V1 itself.
    """
    sel, block = _checked_block(suite.v1, k, cond_cap)
    coef = scipy.linalg.cho_solve(scipy.linalg.cho_factor(block, lower=True), suite.v12[sel])
    return float(np.linalg.norm(suite.v12 - suite.v1[:, sel] @ coef))


def cap_certified(v1: np.ndarray, cond_cap: float = DEFAULT_COND_CAP) -> bool:
    """True when one eigendecomposition of ``v1`` shows that every principal
    block passes ``cond_cap``.

    By Cauchy interlacing a principal block's eigenvalues lie within
    [min eig(V1), max eig(V1)], so its ratio is at most V1's.  The factor 2
    absorbs eigenvalue rounding (about p * eps * cond_cap, 1% at p = 48):
    a V1 near the cap is left to the per-block checks of ``criterion``.
    """
    eigs = np.linalg.eigvalsh(v1)
    lo, hi = float(eigs[0]), float(eigs[-1])
    return lo > 0 and hi / lo <= cond_cap / 2


def leave_one_out_criteria(suite: CovarianceSuite) -> np.ndarray:
    """``xi`` of every leave-one-out subset, position i-1 for the set
    without label i, from one Cholesky factorization of V1.

    With B = V1^-1 and beta = B V12, the residual of the regression on all
    but i vanishes outside row i, where it is beta_i / B_ii (block-inverse
    identity).  Requires ``cap_certified(suite.v1)``.
    """
    factor = scipy.linalg.cho_factor(suite.v1, lower=True)
    b = scipy.linalg.cho_solve(factor, np.eye(suite.p))
    return np.linalg.norm(b @ suite.v12, axis=1) / np.diag(b)


def prefix_criteria(suite: CovarianceSuite, order) -> np.ndarray:
    """``xi`` of every prefix of ``order`` (a permutation of the labels
    1..p), position i-1 for the first i labels, from one Cholesky
    factorization of V1 permuted by ``order``.

    With L = chol(V1[s, s]) and W = L^-1 V12[s], the residual of the
    regression on the first i coordinates is L[i:, i:] W[i:] on the
    remaining rows and zero elsewhere, so the full prefix gives exactly
    0.0.  Requires ``cap_certified(suite.v1)``.
    """
    s = np.asarray(order, dtype=int) - 1
    l = np.linalg.cholesky(suite.v1[np.ix_(s, s)])
    w = scipy.linalg.solve_triangular(l, suite.v12[s], lower=True)
    return np.array([np.linalg.norm(l[i:, i:] @ w[i:]) for i in range(1, suite.p)] + [0.0])


def relevant_set(b) -> tuple[int, ...]:
    """Labels (1-based) of columns of ``b`` with a nonzero entry.

    Comparison is exact: ``b`` is ground truth supplied by the caller, not
    an estimate.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise ValueError("b must be a 2-d (q, p) array")
    return tuple(j + 1 for j in range(b.shape[1]) if np.any(b[:, j] != 0.0))
