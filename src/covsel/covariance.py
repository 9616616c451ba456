"""Covariance operators and the subset-residual selection criterion.

The model is a multivariate linear regression y = B x + noise with random
predictors.  Everything in this module is driven by the pair of covariance
matrices (V1, V12) = (Cov(X), Cov(X, Y)), either estimated from a sample or
computed exactly from a known generating model.  The criterion ``xi_K``
measures how much of V12 is left unexplained after projecting onto a subset
K of predictor coordinates; it vanishes exactly when K contains every
predictor with a nonzero coefficient column.

An estimated pair comes from one centered copy of ``[x | y]``
(``covariance_pairs``), or from ``[x | y]`` centered in place where the
caller already holds it joined (``joined_covariance_pairs``): V1 is the
symmetric product of its x columns and V12 their product with its y
columns.

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
itself, so ``cap_certified`` checks the cap for all subsets on V1 alone.
A well-conditioned V1 is certified by its Cholesky factor and a norm bound
on the inverse the leave-one-out criteria use anyway, with no
eigendecomposition; an ill-conditioned V1 costs that Cholesky factor and
two norms more than one ``eigvalsh(V1)``, which then decides it.  When V1
is not certified, callers fall back to ``criterion`` per subset, which
checks each block, LU-solves it and names the one that fails.

The kernels (``covariance_pairs``, ``eig_bounds``, ``certified_inverse``,
``subset_criteria``, ``criterion_values``, ``refit_values``,
``leave_one_out_values``, ``prefix_values``) take one
suite or a stack of them along a leading axis, so the Monte Carlo engine
runs a whole chunk of replications through one call each, and the
single-suite functions are the same calls with no stack axis.  Each matrix
of a stack gets the bits of the single call: every solve, inverse and
factorization is one NumPy linear-algebra gufunc, which, like ``matmul``,
loops over the batch in C with the same LAPACK routine per matrix.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from functools import cached_property, reduce

import numpy as np

# The largest eigenvalue ratio a covariance block may have before it is
# rejected as singular or ill-conditioned.
DEFAULT_COND_CAP = 1e12

# The most rows in one block of ``joined_covariance_pairs``, which takes
# its column sums and products one block at a time; a block of a sample
# wider than 16 columns holds at most 16 * SUM_ROWS entries.  On a 2-vCPU
# host OpenBLAS split one product over a 12-column sample from about
# 50 000 rows and over a 100-column one from 8192, rounding it by CPU
# count; the products of one block did not.
SUM_ROWS = 8192


class SingularSubmatrixError(ValueError):
    """A principal submatrix of V1 is singular or numerically unusable.

    Raised when the covariance block for a candidate subset fails the
    condition-number cap, which signals collinear or degenerate predictors
    inside the subset.
    """

    def __init__(self, message: str, indices: tuple[int, ...] | None = None):
        super().__init__(message)
        self.indices = indices


def _fields_equal(a, b) -> bool:
    """Exact value equality for the dataclasses with array fields, which
    set ``__eq__`` to it: the same type, array fields of the same shape and
    entries (``np.array_equal``), other fields equal by ``==``.  A
    dataclass holding one of them, such as ``SimulationConfig``, compares
    through it."""
    if type(a) is not type(b):
        return NotImplemented
    for f in fields(a):
        u, v = getattr(a, f.name), getattr(b, f.name)
        if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
            if not np.array_equal(u, v):
                return False
        elif u != v:
            return False
    return True


def _is_int(value) -> bool:
    """An integer, of a NumPy integer type too, but not a bool, which
    Python counts as one (JSON true/false load as bool)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _int_arg(name: str, value) -> int:
    """``value`` as a Python int; a value that is not an integer (see
    :func:`_is_int`) raises ``ValueError`` naming ``name``, where ``int()``
    would truncate 1.5 to 1 and read ``True`` as 1."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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

    __eq__ = _fields_equal

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
    covariance is allowed), and ``relevant``, the labels of the columns of
    ``b`` with a nonzero entry (``relevant_set(b)``).  They follow from
    the three fields, and ``==`` compares those fields alone, exactly.
    A model whose response variance, ``risk`` of zero coefficients
    tr(b sigma b^T + noise_cov), is not finite raises ``ValueError``.
    """

    b: np.ndarray
    sigma: np.ndarray
    noise_cov: np.ndarray

    __eq__ = _fields_equal

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
        vals, vecs = np.linalg.eigh(noise)
        if vals.min() < -1e-12 * scale:
            raise ValueError("noise_cov must be positive semi-definite")
        try:
            sigma_factor = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise ValueError("sigma must be positive definite (Cholesky failed)") from None
        noise_factor = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "noise_cov", noise)
        object.__setattr__(self, "sigma_factor", _as_readonly(sigma_factor))
        object.__setattr__(self, "noise_factor", _as_readonly(noise_factor))
        object.__setattr__(self, "relevant", relevant_set(b))
        with np.errstate(all="ignore"):
            if not np.isfinite(self.risk(np.zeros((p, q)))):
                raise ValueError("the response variance tr(b sigma b^T + noise_cov) overflows")

    @property
    def p(self) -> int:
        return self.b.shape[1]

    @property
    def q(self) -> int:
        return self.b.shape[0]

    def risk(self, coef) -> np.ndarray:
        """Exact mean squared prediction error E||y - coef^T x||^2 of the
        coefficients ``coef`` (..., p, q) on a fresh draw from the model,
        one value per matrix of a stack.

        With x of mean zero and covariance sigma = L L^T, independent of
        the noise, and D = coef - b^T, the error is
        ``tr(noise_cov) + sum(D * (sigma @ D)) = tr(noise_cov) + ||L^T D||_F^2``
        (Breiman & Freedman, JASA 1983, on prediction error with random
        predictors).  The sum of squares is never negative in floating
        point, so no risk falls below the noise floor ``tr(noise_cov)``,
        which ``b^T`` attains exactly.  Each matrix of a stack gets the bits
        of the single call.
        """
        coef = np.asarray(coef, dtype=float)
        if coef.shape[-2:] != (self.p, self.q):
            raise ValueError(f"coef must be (..., {self.p}, {self.q}), got {coef.shape}")
        d = self.sigma_factor.T @ (coef - self.b.T)
        sq = (d * d).reshape(d.shape[:-2] + (self.p * self.q,))
        return float(np.trace(self.noise_cov)) + sq.sum(axis=-1)


@dataclass(frozen=True)
class CovarianceSuite:
    """The matrix pair (V1, V12).

    ``v1`` is (p, p) and must be symmetric; ``v12`` is (p, q); the entries
    of both must be finite, as those of ``Dataset`` and ``PopulationModel``
    are.  Positive definiteness of principal blocks is checked where
    inversion happens, not here.
    """

    v1: np.ndarray
    v12: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        v1 = _as_readonly(self.v1)
        v12 = _as_readonly(self.v12)
        if v1.ndim != 2 or v1.shape[0] != v1.shape[1]:
            raise ValueError("v1 must be square")
        if v12.ndim != 2 or v12.shape[0] != v1.shape[0]:
            raise ValueError("v12 must have one row per predictor")
        for name, a in (("v1", v1), ("v12", v12)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} entries must be finite")
        if np.abs(v1 - v1.T).max() > 1e-10 * max(1.0, float(np.abs(v1).max())):
            raise ValueError("v1 must be symmetric (within 1e-10)")
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v12", v12)

    @property
    def p(self) -> int:
        return self.v1.shape[0]

    @property
    def q(self) -> int:
        return self.v12.shape[1]

    @cached_property
    def _certificate(self) -> tuple[np.ndarray, np.ndarray]:
        return certified_inverse(self.v1)

    @property
    def v1_certified(self) -> bool:
        """``cap_certified(v1)``, computed once per suite for the ranking
        and dimension stages."""
        return bool(self._certificate[0])

    @property
    def v1_inverse(self) -> np.ndarray:
        """V1^-1 as the certificate took it (:func:`certified_inverse`),
        with the bits of ``np.linalg.inv(v1)``; unspecified unless
        ``v1_certified``."""
        return self._certificate[1]


@dataclass(frozen=True)
class VariableSubset:
    """A non-empty subset of predictor labels, 1-based, strictly increasing.
    Labels are integers, NumPy's too, but not ``bool``."""

    indices: tuple[int, ...]
    p: int

    def __post_init__(self):
        idx = tuple(_int_labels(self.indices))
        if len(idx) == 0:
            raise ValueError("subset must be non-empty: need at least one label")
        if any(i < 1 or i > self.p for i in idx):
            raise ValueError(f"indices must lie in 1..{self.p}, got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, labels, p: int) -> "VariableSubset":
        """Build from any iterable of labels (sorted, duplicates rejected)."""
        labels = sorted(_int_labels(labels))
        for a, b in zip(labels, labels[1:]):
            if a == b:
                raise ValueError(f"labels must be distinct: label {a} is repeated in the subset")
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


def _int_labels(labels) -> list[int]:
    """``labels`` as Python ints; a label that is not an integer raises
    ``ValueError`` naming it, where ``int()`` would truncate 1.5 to 1, and
    so do labels that are not an iterable."""
    try:
        labels = list(labels)
    except TypeError:
        message = f"subset labels must be an iterable of integers, got {labels!r}"
        raise ValueError(message) from None
    for label in labels:
        if not _is_int(label):
            raise ValueError(f"subset labels must be integers, got {label!r}")
    return [int(i) for i in labels]


def covariance_pairs(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance pairs (V1, V12) of stacked samples x (..., n, p) and
    y (..., n, q), with divisor n and mean centering; V1 is made exactly
    symmetric.  The kernel behind ``empirical_covariances``: ``[x | y]``
    copied once and reduced by :func:`joined_covariance_pairs`.
    """
    return joined_covariance_pairs(np.concatenate([x, y], axis=-1), x.shape[-1])


def joined_covariance_pairs(z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`covariance_pairs` of the samples whose first ``p`` columns
    are x and the rest y, z = [x | y] (..., n, p + q), centering z in place.

    The rows are cut into blocks of at most ``SUM_ROWS`` rows and
    ``16 * SUM_ROWS`` entries, and each of the three reductions is one
    BLAS product per block, added in row order: the column sums (a product
    with a vector of ones; a NumPy reduction over the row axis runs one
    short C loop per row), V1, the product of the centered x columns with
    themselves, which NumPy hands to BLAS ``syrk`` (half the work of a
    general product), and V12, their product with the y columns.  A
    sample of one block is one product of each.  So that the results do
    not depend on the CPU count, no product is long enough for OpenBLAS
    to split it across threads by rows.  OpenBLAS still splits a product
    over its output, so V12 of a wide sample with more than a few y
    columns, and V1 when x has about 100 columns or more, may round by
    CPU count.  A sum that overflows is left inf (or NaN), with no
    warning, for the callers' finiteness checks.
    """
    n, cols = z.shape[-2:]
    if n < 2:
        raise ValueError(f"need n >= 2 observations to estimate covariances, got {n}")
    step = min(SUM_ROWS, max(1, 16 * SUM_ROWS // cols))
    blocks = [z[..., start : start + step, :] for start in range(0, n, step)]
    with np.errstate(over="ignore", invalid="ignore"):
        # each sum adds the blocks' products in row order
        total = reduce(np.add, (np.ones(block.shape[-2]) @ block for block in blocks))
        z -= (total / n)[..., None, :]  # the blocks are views: this centers them
        xcts = [np.swapaxes(block[..., :p], -1, -2) for block in blocks]
        v1 = reduce(np.add, (xct @ block[..., :p] for xct, block in zip(xcts, blocks))) / n
        v1 = (v1 + np.swapaxes(v1, -1, -2)) / 2.0  # enforce exact symmetry against rounding
        return v1, reduce(np.add, (xct @ block[..., p:] for xct, block in zip(xcts, blocks))) / n


def empirical_covariances(data: Dataset) -> CovarianceSuite:
    """Sample covariance pair with divisor n (not n-1) and mean centering.

    Requires at least two observations; with one the centered sums are
    degenerate for selection purposes.
    """
    v1, v12 = covariance_pairs(data.x, data.y)
    return CovarianceSuite(v1=v1, v12=v12)


def population_covariances(model: PopulationModel) -> CovarianceSuite:
    """Exact covariance pair of the generating model: V1 = sigma, V12 = sigma b^T."""
    return CovarianceSuite(v1=model.sigma, v12=model.sigma @ model.b.T)


def eig_bounds(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of each symmetric matrix in ``a``
    (..., k, k); NaN for a matrix with a non-finite entry, which LAPACK
    is not given."""
    finite = np.isfinite(a).all(axis=(-2, -1))
    if finite.all():
        eigs = np.linalg.eigvalsh(a)
        return eigs[..., 0], eigs[..., -1]
    bounds = np.full(finite.shape + (2,), np.nan)
    bounds[finite] = np.linalg.eigvalsh(a[finite])[..., [0, -1]]
    return bounds[..., 0], bounds[..., 1]


def over_cap(lo, hi, cap=DEFAULT_COND_CAP):
    """True where a block with extreme eigenvalues ``lo``, ``hi`` fails the
    cap: unless lo > 0 and hi / lo <= ``cap``.  A singular block (lo <= 0)
    fails, and so does a block whose bounds are NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.logical_not((lo > 0) & (hi / lo <= cap))


def _checked_block(v1: np.ndarray, k: VariableSubset) -> tuple[list[int], np.ndarray]:
    """Zero-based indices of ``k`` and the (K, K) block of each ``v1`` (..., p, p).

    Rejects a block that is not positive definite or whose eigenvalue ratio
    exceeds ``DEFAULT_COND_CAP`` rather than silently regularizing; in a
    stack the first failing block is the one named.
    """
    if v1.shape[-2:] != (k.p, k.p):
        raise ValueError(f"v1 must be ({k.p}, {k.p}), got {v1.shape}")
    sel = k.zero_based
    block = principal_blocks(v1, np.array(sel))
    lo, hi = eig_bounds(block)
    bad = over_cap(lo, hi)
    if np.any(bad):
        first = np.unravel_index(np.argmax(bad), np.shape(bad))
        raise SingularSubmatrixError(
            f"covariance block for subset {k.indices} is singular or ill-conditioned "
            f"(eigenvalues in [{lo[first]:.3e}, {hi[first]:.3e}], cap {DEFAULT_COND_CAP:.1e})",
            indices=k.indices,
        )
    return sel, block


def row_index(idx: np.ndarray):
    """Index of rows ``idx`` in each matrix of a stack: ``idx`` is one index
    vector for every matrix, or for an (R, m, n) stack one row of ``idx``
    (R, k) per matrix."""
    if idx.ndim == 1:
        return (Ellipsis, idx, slice(None))
    return (np.arange(len(idx))[:, None], idx)


def principal_blocks(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[..., idx, :][..., :, idx]`` for each matrix, ``idx`` as in :func:`row_index`."""
    if idx.ndim == 1:
        return a[..., idx, :][..., :, idx]
    return a[np.arange(len(idx))[:, None, None], idx[:, :, None], idx[:, None, :]]


def projector(v1: np.ndarray, k: VariableSubset) -> np.ndarray:
    """Subset projector: zero everywhere except the (K, K) block, which holds
    the inverse of the corresponding principal submatrix of ``v1``.

    Satisfies ``pi @ v1 @ pi == pi`` up to rounding whenever it exists.  A
    reference object: ``criterion`` never builds it.
    """
    sel, block = _checked_block(np.asarray(v1, dtype=float), k)
    inv = np.linalg.inv(block)
    pi = np.zeros((k.p, k.p))
    pi[np.ix_(sel, sel)] = (inv + inv.T) / 2.0
    return pi


def criterion(suite: CovarianceSuite, k: VariableSubset) -> float:
    """Frobenius norm of V12 - V1 Pi_K V12: the part of the cross-covariance
    a regression on the coordinates in K cannot reproduce.

    Zero (up to rounding) on a population suite exactly when K contains all
    predictors with nonzero coefficient columns; on the full subset it is
    zero for any suite with invertible V1.

    Computed without the projector: the (K, K) block is checked against
    ``DEFAULT_COND_CAP`` and LU-solved for coef = V1[K, K]^-1 V12[K], and the
    result is the norm of V12 - V1[:, K] coef, O(p**3) per subset.

    The selection pipeline calls this only when ``cap_certified(V1)`` is
    false.  Otherwise it uses two identities, O(p**3) per family of p
    subsets: with B = V1^-1, the inverse the certificate took, and
    beta = B V12, xi_{all minus i} = ||beta_i|| / B_ii
    (``leave_one_out_criteria``); with L = chol(V1[s, s])
    and W = L^-1 V12[s], the prefix of length i of an ordering s has
    xi = ||L[i:, i:] W[i:]||_F (``prefix_criteria``).  Skipping the
    per-block check there is safe: by Cauchy interlacing no principal block
    is worse conditioned than V1 itself.
    """
    return float(subset_criteria(suite.v1, suite.v12, k))


def subset_criteria(v1: np.ndarray, v12: np.ndarray, k: VariableSubset) -> np.ndarray:
    """``criterion`` of subset ``k`` for each suite of a stack, v1 (..., p, p)
    and v12 (..., p, q); the first block over the cap raises
    ``SingularSubmatrixError``."""
    sel, _ = _checked_block(v1, k)
    return criterion_values(v1, v12, sel)[0]


def criterion_values(v1: np.ndarray, v12: np.ndarray, sel) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked criterion kernel: ||V12 - V1[:, K] coef||_F for the
    zero-based columns ``sel`` of each suite in a stack, and the solve it
    takes, coef = V1[K, K]^-1 V12[K] (..., k, q), the population
    regression coefficients of y on x[K] that the pair estimates."""
    sel = np.asarray(sel)
    coef = refit_values(v1, v12, sel)
    resid = v12 - v1[..., :, sel] @ coef
    flat = resid.reshape(resid.shape[:-2] + (1, resid.shape[-2] * resid.shape[-1]))
    # a (1, m) @ (m, 1) product is BLAS ddot, as in np.linalg.norm
    return np.sqrt((flat @ np.swapaxes(flat, -1, -2))[..., 0, 0]), coef


def refit_values(v1: np.ndarray, v12: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Unchecked refit: coef = V1[K, K]^-1 V12[K] (..., k, q) for the
    zero-based columns ``sel`` of each suite in a stack, ``sel`` as in
    :func:`row_index`.  The one expression of the refit, for the study's
    selected and true sets and for ``ols_fit``."""
    return np.linalg.solve(principal_blocks(v1, sel), v12[row_index(sel)])


def cap_certified(v1: np.ndarray):
    """True when ``v1`` is shown to pass ``DEFAULT_COND_CAP / 2``, so that
    every principal block passes ``DEFAULT_COND_CAP``; for a stack
    (..., p, p), one flag per matrix.

    By Cauchy interlacing a principal block's eigenvalues lie within
    [min eig(V1), max eig(V1)], so its ratio is at most V1's.  The factor 2
    absorbs eigenvalue rounding (about p * eps * cap, 1% at p = 48):
    a V1 near the cap is left to the per-block checks of ``criterion``.
    The flags are those of :func:`over_cap` on ``eigvalsh(V1)`` at half the
    cap, so a V1 whose eigenvalue bounds are NaN, as those of a V1 with a
    non-finite entry are, is never certified.

    Cheap first: a V1 with a Cholesky factor is positive definite, and
    then lambda_max <= ||V1||_inf and 1 / lambda_min <= ||V1^-1||_inf, so
    ||V1||_inf ||V1^-1||_inf <= cap / 4 certifies it with no
    eigendecomposition; the second factor 2 absorbs the error of the
    computed inverse (Higham, "Accuracy and Stability of Numerical
    Algorithms", ch. 14).  A V1 this bound does not certify, such as an
    ill-conditioned one, or whose own Cholesky factor or inverse raises,
    costs that factor and two norms more than one ``eigvalsh``, which
    decides it as above.  So the bound only ever says yes where
    ``eigvalsh`` would.  :func:`certified_inverse`
    also returns the inverse, which the leave-one-out criteria reuse.
    """
    ok, _ = certified_inverse(v1)
    return bool(ok) if np.ndim(ok) == 0 else ok


def certified_inverse(v1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flags of :func:`cap_certified` for ``v1`` (..., p, p), and
    ``np.linalg.inv(v1)`` with the bits of that call on every certified
    matrix; an uncertified matrix's inverse is unspecified (NaN where it
    was not taken).  When the stacked Cholesky factor or inverse raises,
    each matrix is factored and inverted on its own, so only those that
    raise go to ``eigvalsh`` with those the bound does not certify."""
    v1 = np.asarray(v1, dtype=float)
    finite = np.isfinite(v1).all(axis=(-2, -1))
    ok, inverse = np.zeros(finite.shape, bool), np.full(v1.shape, np.nan)
    inverted, pool = np.array(finite), v1[finite]
    try:
        np.linalg.cholesky(pool)
        inverse[finite] = np.linalg.inv(pool)
    except np.linalg.LinAlgError:
        for i in np.ndindex(finite.shape):
            if finite[i]:
                try:
                    np.linalg.cholesky(v1[i])
                    inverse[i] = np.linalg.inv(v1[i])
                except np.linalg.LinAlgError:
                    inverted[i] = False
    with np.errstate(over="ignore", invalid="ignore"):  # NaN where not inverted
        ok[...] = _inf_norm(v1) * _inf_norm(inverse) <= DEFAULT_COND_CAP / 4
    rest = ~ok
    if rest.any():
        ok[rest] = ~over_cap(*eig_bounds(v1[rest]), DEFAULT_COND_CAP / 2)
        raised = ok & ~inverted
        if raised.any():
            inverse[raised] = np.linalg.inv(v1[raised])
    return ok, inverse


def _inf_norm(a: np.ndarray) -> np.ndarray:
    """The largest absolute row sum of each matrix of ``a``."""
    return np.abs(a).sum(axis=-1).max(axis=-1)


def leave_one_out_criteria(suite: CovarianceSuite) -> np.ndarray:
    """``xi`` of every leave-one-out subset, position i-1 for the set
    without label i, from the inverse of V1 the certificate took.

    With B = V1^-1 and beta = B V12, the residual of the regression on all
    but i vanishes outside row i, where it is beta_i / B_ii (block-inverse
    identity).  Requires ``cap_certified(suite.v1)``.
    """
    return leave_one_out_values(suite.v1_inverse, suite.v12)


def leave_one_out_values(inverse: np.ndarray, v12: np.ndarray) -> np.ndarray:
    """Kernel of ``leave_one_out_criteria`` over a stack of suites, from
    each suite's B = V1^-1 (:func:`certified_inverse`) and V12."""
    return np.linalg.norm(inverse @ v12, axis=-1) / np.diagonal(inverse, axis1=-2, axis2=-1)


def prefix_criteria(suite: CovarianceSuite, order) -> np.ndarray:
    """``xi`` of every prefix of ``order`` (a permutation of the labels
    1..p), position i-1 for the first i labels, from one Cholesky
    factorization of V1 permuted by ``order``.

    With L = chol(V1[s, s]) and W = L^-1 V12[s], the residual of the
    regression on the first i coordinates is L[i:, i:] W[i:] on the
    remaining rows and zero elsewhere, so the full prefix gives exactly
    0.0.  Requires ``cap_certified(suite.v1)``.
    """
    return prefix_values(suite.v1, suite.v12, np.asarray(order, dtype=int) - 1)


def prefix_values(v1: np.ndarray, v12: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Kernel of ``prefix_criteria`` over a stack of suites; ``order``
    (..., p) holds zero-based column orders.

    L[i:, i:] W[i:] is the sum over k >= i of the outer products
    L[:, k] W[k] (L is lower triangular), so a cumulative sum of those
    products from k = p-1 down gives every prefix residual at once.
    """
    l = np.linalg.cholesky(principal_blocks(v1, order))
    w = np.linalg.solve(l, v12[row_index(order)])
    stack, (p, q) = w.shape[:-2], w.shape[-2:]
    # terms[..., j, :, i] = W[k] L[i, k] for k = p-1-j, j = 0 .. p-2: the
    # long axis innermost, as NumPy runs one C loop per innermost row
    terms = w[..., :0:-1, :, None] * np.swapaxes(l, -1, -2)[..., :0:-1, None, :]
    tails = np.cumsum(terms, axis=-3).reshape(stack + (p - 1, 1, q * p))
    # a (1, m) @ (m, 1) product is BLAS ddot, as in np.linalg.norm
    sq = (tails @ np.swapaxes(tails, -1, -2)).reshape(stack + (p - 1,))
    return np.concatenate([np.sqrt(sq[..., ::-1]), np.zeros(stack + (1,))], axis=-1)


def relevant_set(b) -> tuple[int, ...]:
    """Labels (1-based) of columns of ``b`` with a nonzero entry.

    Comparison is exact: ``b`` is ground truth supplied by the caller, not
    an estimate.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise ValueError("b must be a 2-d (q, p) array")
    return tuple(j + 1 for j in range(b.shape[1]) if np.any(b[:, j] != 0.0))
