"""Penalized ranking and dimension estimation on top of the subset criterion.

The pipeline scores each predictor by the criterion of its leave-one-out
complement plus a decreasing penalty (``phi``), sorts the scores into a
permutation, scores the nested prefixes of that permutation plus an
increasing penalty (``psi``), and takes the smallest argmin of ``psi`` as
the number of variables to keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .covariance import (
    CovarianceSuite,
    Dataset,
    SingularSubmatrixError,
    VariableSubset,
    criterion,
    empirical_covariances,
    leave_one_out_criteria,
    prefix_criteria,
)

PENALTY_ARG_LABEL = "label"
PENALTY_ARG_RANK = "rank"

# Named shape functions usable from config files and the command line.
# f-shapes must be strictly decreasing on 1..p, g-shapes strictly increasing.
SHAPE_FUNCTIONS: dict[str, Callable[[int], float]] = {
    "reciprocal": lambda i: 1.0 / i,
    "inverse_sqrt": lambda i: 1.0 / np.sqrt(i),
    "linear": lambda i: float(i),
    "sqrt": lambda i: float(np.sqrt(i)),
}


def _resolve_shape(shape) -> tuple[Callable[[int], float], str]:
    if callable(shape):
        return shape, getattr(shape, "__name__", "custom")
    try:
        return SHAPE_FUNCTIONS[shape], shape
    except KeyError:
        raise ValueError(
            f"unknown shape {shape!r}; known names: {sorted(SHAPE_FUNCTIONS)}"
        ) from None


@dataclass(frozen=True)
class PenaltySchedule:
    """Sample-size dependent penalties f_n(i) = n**-f_rate * f_shape(i) and
    g_n(i) = n**-g_rate * g_shape(i).

    ``f_rate`` must lie in (0, 1/2) and ``g_rate`` in (0, 1); shapes may be
    given as registry names or as callables on positive integers.  Defaults
    are the benchmark choice: f_rate=1/4 with 1/i, g_rate=3/4 with i.  They
    reproduce the printed scoring rule but are not consistent at desk scale:
    the prefix vote over-selects.  ``PenaltySchedule(g_rate=0.4)`` with
    ``penalty_arg="rank"`` is the consistent choice (README, "Choosing the
    penalty schedule").
    """

    f_rate: float = 0.25
    g_rate: float = 0.75
    f_shape: str | Callable[[int], float] = "reciprocal"
    g_shape: str | Callable[[int], float] = "linear"

    def __post_init__(self):
        if not 0.0 < self.f_rate < 0.5:
            raise ValueError(f"f_rate must be in (0, 1/2), got {self.f_rate}")
        if not 0.0 < self.g_rate < 1.0:
            raise ValueError(f"g_rate must be in (0, 1), got {self.g_rate}")
        f_fn, f_name = _resolve_shape(self.f_shape)
        g_fn, g_name = _resolve_shape(self.g_shape)
        object.__setattr__(self, "_f_fn", f_fn)
        object.__setattr__(self, "_g_fn", g_fn)
        object.__setattr__(self, "_f_name", f_name)
        object.__setattr__(self, "_g_name", g_name)

    def f(self, n: int, i: int) -> float:
        return float(n) ** (-self.f_rate) * float(self._f_fn(i))

    def g(self, n: int, i: int) -> float:
        return float(n) ** (-self.g_rate) * float(self._g_fn(i))

    def validate_shapes(self, p: int) -> None:
        """Check positivity and strict monotonicity of both shapes on 1..p."""
        fv = [float(self._f_fn(i)) for i in range(1, p + 1)]
        gv = [float(self._g_fn(i)) for i in range(1, p + 1)]
        if any(v <= 0 for v in fv) or any(a <= b for a, b in zip(fv, fv[1:])):
            raise ValueError("f_shape must be strictly decreasing and positive on 1..p")
        if any(v <= 0 for v in gv) or any(a >= b for a, b in zip(gv, gv[1:])):
            raise ValueError("g_shape must be strictly increasing and positive on 1..p")

    def describe(self) -> dict:
        """Flat summary used in report headers."""
        return {
            "f_rate": self.f_rate,
            "f_shape": self._f_name,
            "g_rate": self.g_rate,
            "g_shape": self._g_name,
        }


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the full pipeline on one dataset.

    ``phi`` is indexed by variable label (position j holds the score of
    variable j+1); ``sigma_hat`` lists labels in rank order; ``psi`` is
    indexed by rank position; ``selected`` holds the first ``s_hat`` ranked
    labels in ascending order.
    """

    phi: np.ndarray
    sigma_hat: np.ndarray
    psi: np.ndarray
    s_hat: int
    selected: tuple[int, ...]
    n: int

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        sigma = np.asarray(self.sigma_hat, dtype=int)
        p = phi.shape[0]
        if sorted(sigma.tolist()) != list(range(1, p + 1)):
            raise ValueError("sigma_hat must be a permutation of 1..p")
        ranked = phi[sigma - 1]
        if np.any(ranked[:-1] < ranked[1:]):
            raise ValueError("phi must be non-increasing along sigma_hat")
        if not 1 <= self.s_hat <= p:
            raise ValueError(f"s_hat must be in 1..{p}, got {self.s_hat}")
        if self.selected != tuple(sorted(sigma[: self.s_hat].tolist())):
            raise ValueError("selected must be the first s_hat ranked labels")
        for name, arr in (("phi", phi), ("sigma_hat", sigma), ("psi", psi)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return self.phi.shape[0]


def _criteria_per_block(suite: CovarianceSuite, stage: str, named_subsets) -> np.ndarray:
    """``criterion`` of each (name, subset) pair in turn, checking every block
    against the cap; the first failure is re-raised naming the stage and the
    subset."""
    xi = np.empty(len(named_subsets))
    for j, (name, k) in enumerate(named_subsets):
        try:
            xi[j] = criterion(suite, k)
        except SingularSubmatrixError as e:
            raise SingularSubmatrixError(
                f"{stage} stage failed: {name} is degenerate: {e}", indices=e.indices
            ) from e
    return xi


def phi_scores(suite: CovarianceSuite, n: int, pen: PenaltySchedule) -> np.ndarray:
    """Leave-one-out criterion plus decreasing penalty, one score per variable.

    When ``suite.v1_certified`` all p criteria come from one
    factorization (``leave_one_out_criteria``); otherwise each block is
    checked in turn and a failure raises ``SingularSubmatrixError`` naming
    the variable left out.
    """
    p = suite.p
    if p < 2:
        raise ValueError(f"ranking needs at least two predictors, got p={p}")
    pen.validate_shapes(p)
    if suite.v1_certified:
        xi = leave_one_out_criteria(suite)
    else:
        full = VariableSubset.full(p)
        xi = _criteria_per_block(
            suite,
            "ranking",
            [(f"leave-one-out subset for variable {i}", full.drop(i)) for i in range(1, p + 1)],
        )
    return xi + np.array([pen.f(n, i) for i in range(1, p + 1)])


def order_permutation(phi) -> np.ndarray:
    """Labels sorted by score, largest first; exact ties go to the smaller label."""
    phi = np.asarray(phi, dtype=float)
    order = np.argsort(-phi, kind="stable")
    return order + 1


def psi_scores(
    suite: CovarianceSuite,
    sigma_hat,
    n: int,
    pen: PenaltySchedule,
    penalty_arg: str = PENALTY_ARG_LABEL,
) -> np.ndarray:
    """Criterion of each rank prefix plus increasing penalty.

    With ``penalty_arg="label"`` the penalty argument at rank i is the
    variable label sigma_hat[i-1]; with ``"rank"`` it is i itself.  The
    label form follows the printed scoring rule; the rank form makes the
    prefix penalties monotone along the ranking (see README).  The prefix
    criteria come from one factorization when ``suite.v1_certified``
    (``prefix_criteria``), and from per-block checks otherwise.
    """
    if penalty_arg not in (PENALTY_ARG_LABEL, PENALTY_ARG_RANK):
        raise ValueError(f"penalty_arg must be 'label' or 'rank', got {penalty_arg!r}")
    sigma = np.asarray(sigma_hat, dtype=int)
    p = suite.p
    if sorted(sigma.tolist()) != list(range(1, p + 1)):
        raise ValueError(f"sigma_hat must be a permutation of 1..{p}")
    pen.validate_shapes(p)
    if suite.v1_certified:
        xi = prefix_criteria(suite, sigma)
    else:
        prefixes = [VariableSubset.of(sigma[:i].tolist(), p) for i in range(1, p + 1)]
        xi = _criteria_per_block(
            suite,
            "dimension",
            [(f"rank prefix of length {len(k)} ({k.indices})", k) for k in prefixes],
        )
    args = sigma.tolist() if penalty_arg == PENALTY_ARG_LABEL else range(1, p + 1)
    return xi + np.array([pen.g(n, arg) for arg in args])


def dimensionality(psi) -> int:
    """Smallest index (1-based) attaining the minimum of psi."""
    psi = np.asarray(psi, dtype=float)
    return int(np.argmin(psi)) + 1


def select_variables(
    data: Dataset,
    pen: PenaltySchedule | None = None,
    penalty_arg: str = PENALTY_ARG_LABEL,
) -> SelectionResult:
    """Run the full pipeline on a dataset.

    Estimates the covariance pair, ranks variables by penalized
    leave-one-out scores, estimates the dimension from penalized prefix
    scores, and returns all intermediate vectors.  Deterministic given the
    data and schedule.
    """
    pen = pen if pen is not None else PenaltySchedule()
    suite = empirical_covariances(data)
    n = data.n
    phi = phi_scores(suite, n, pen)
    sigma = order_permutation(phi)
    psi = psi_scores(suite, sigma, n, pen, penalty_arg=penalty_arg)
    s_hat = dimensionality(psi)
    selected = tuple(sorted(sigma[:s_hat].tolist()))
    return SelectionResult(
        phi=phi, sigma_hat=sigma, psi=psi, s_hat=s_hat, selected=selected, n=n
    )
