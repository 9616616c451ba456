"""Penalized ranking and dimension estimation on top of the subset criterion.

The pipeline scores each predictor by the criterion of its leave-one-out
complement plus a decreasing penalty (``phi``), sorts the scores into a
permutation, scores the nested prefixes of that permutation plus an
increasing penalty (``psi``), and takes the smallest argmin of ``psi`` as
the number of variables to keep.

A suite whose V1 is ``cap_certified`` takes one path, ``rank_and_cut``,
for one suite (``select_from_suite``, ``select_variables``, ``covsel
select``) or for the Monte Carlo engine's stack of them; its leave-one-out
criteria reuse the inverse of V1 the certificate took, so a certified V1
is inverted once and, when well conditioned, never eigendecomposed.
``phi_scores`` and ``psi_scores`` check each block of any other suite.
Each selection evaluates each penalty shape once on 1..p
(``PenaltySchedule.rows``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .covariance import (
    CovarianceSuite,
    Dataset,
    SingularSubmatrixError,
    VariableSubset,
    _fields_equal,
    criterion,
    empirical_covariances,
    leave_one_out_criteria,
    leave_one_out_values,
    prefix_criteria,
    prefix_values,
)

PENALTY_ARG_LABEL = "label"
PENALTY_ARG_RANK = "rank"

# The penalty shapes by name: decreasing f-shapes and increasing g-shapes,
# each evaluated on one label or on an array of labels.
F_SHAPES = {"reciprocal": lambda i: 1.0 / i, "inverse_sqrt": lambda i: 1.0 / np.sqrt(i)}
G_SHAPES = {"linear": lambda i: i * 1.0, "sqrt": np.sqrt}


def _check_shape(field: str, shape, own: dict, role: str) -> None:
    known = F_SHAPES | G_SHAPES
    if not isinstance(shape, str) or shape not in known:
        raise ValueError(f"unknown shape {shape!r}; known names: {sorted(known)}")
    if shape not in own:
        raise ValueError(
            f"{field} must be strictly {role}: {shape!r} is not; {field} names: {sorted(own)}"
        )


@dataclass(frozen=True, kw_only=True)
class PenaltySchedule:
    """Sample-size dependent penalties f_n(i) = n**-f_rate * f_shape(i) and
    g_n(i) = n**-g_rate * g_shape(i), and the argument g_n takes in psi.

    ``f_rate`` must be a real number in (0, 1/2) and ``g_rate`` one in
    (0, 1).  A shape is a name: ``f_shape`` one of ``F_SHAPES``, ``g_shape``
    one of ``G_SHAPES``; building a schedule checks each name's role.
    ``penalty_arg`` says where psi evaluates g_n at rank i: at the variable
    label ranked there (``"label"``, the printed scoring rule) or at i
    itself (``"rank"``, monotone along the ranking).  Defaults are the
    benchmark choice: f_rate=1/4 with 1/i, g_rate=3/4 with i, the label
    argument.  They reproduce the printed scoring rule but are not
    consistent at desk scale: the prefix vote over-selects.
    ``PenaltySchedule(g_rate=0.4, penalty_arg="rank")`` is the consistent
    choice (README, "Choosing the penalty schedule").
    The fields, in report-header order, are also the ``covsel select``
    flags, so a schedule is built by keyword only.
    """

    penalty_arg: str = PENALTY_ARG_LABEL
    f_rate: float = 0.25
    f_shape: str = "reciprocal"
    g_rate: float = 0.75
    g_shape: str = "linear"

    def __post_init__(self):
        if self.penalty_arg not in (PENALTY_ARG_LABEL, PENALTY_ARG_RANK):
            raise ValueError(f"penalty_arg must be 'label' or 'rank', got {self.penalty_arg!r}")
        for name, top, shown in (("f_rate", 0.5, "1/2"), ("g_rate", 1.0, "1")):
            rate = getattr(self, name)
            if isinstance(rate, bool) or not isinstance(rate, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {rate!r}")
            if not 0.0 < rate < top:
                raise ValueError(f"{name} must be in (0, {shown}), got {rate}")
        _check_shape("f_shape", self.f_shape, F_SHAPES, "decreasing")
        _check_shape("g_shape", self.g_shape, G_SHAPES, "increasing")

    def f(self, n: int, i: int) -> float:
        return float(n) ** (-self.f_rate) * float(F_SHAPES[self.f_shape](i))

    def g(self, n: int, i: int) -> float:
        return float(n) ** (-self.g_rate) * float(G_SHAPES[self.g_shape](i))

    def rows(self, n, p: int) -> tuple[np.ndarray, np.ndarray]:
        """f_n(1), ..., f_n(p) and g_n(1), ..., g_n(p), from one evaluation
        of each shape on 1..p, with the bits of :meth:`f` and :meth:`g`.

        For a sequence of sample sizes, (len(n), p) arrays with one row
        per size, each with the bits of the call for that size alone; the
        scales n**-rate are taken once per run of equal sizes, which is
        once per size on a study block, whose sizes ascend.
        """
        labels = np.arange(1, p + 1)
        fv, gv = F_SHAPES[self.f_shape](labels), G_SHAPES[self.g_shape](labels)
        if np.ndim(n) == 0:
            return float(n) ** -self.f_rate * fv, float(n) ** -self.g_rate * gv
        n = np.asarray(n)
        starts = np.ones(len(n), bool)
        starts[1:] = n[1:] != n[:-1]
        scales = np.array([[float(m) ** -self.f_rate, float(m) ** -self.g_rate] for m in n[starts]])
        scales = scales.reshape(-1, 2)[np.cumsum(starts) - 1]  # no sizes give (0, p) rows
        return scales[:, :1] * fv, scales[:, 1:] * gv

    def describe(self) -> dict:
        """Flat summary used in report headers: each field in order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


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

    __eq__ = _fields_equal

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
    _check_width(p)
    f, _ = pen.rows(n, p)
    if suite.v1_certified:
        xi = leave_one_out_criteria(suite)
    else:
        full = VariableSubset.full(p)
        xi = _criteria_per_block(
            suite,
            "ranking",
            [(f"leave-one-out subset for variable {i}", full.drop(i)) for i in range(1, p + 1)],
        )
    return xi + f


def _check_width(p: int) -> None:
    if p < 2:
        raise ValueError(f"ranking needs at least two predictors, got p={p}")


def order_permutation(phi) -> np.ndarray:
    """Labels sorted by score, largest first; exact ties go to the smaller
    label.  A stack of score rows gives one permutation per row."""
    phi = np.asarray(phi, dtype=float)
    order = np.argsort(-phi, axis=-1, kind="stable")
    return order + 1


def psi_scores(suite: CovarianceSuite, sigma_hat, n: int, pen: PenaltySchedule) -> np.ndarray:
    """Criterion of each rank prefix plus increasing penalty.

    With ``pen.penalty_arg == "label"`` the penalty argument at rank i is
    the variable label sigma_hat[i-1]; with ``"rank"`` it is i itself.  The
    label form follows the printed scoring rule; the rank form makes the
    prefix penalties monotone along the ranking (see README).  The prefix
    criteria come from one factorization when ``suite.v1_certified``
    (``prefix_criteria``), and from per-block checks otherwise.
    """
    sigma = np.asarray(sigma_hat, dtype=int)
    p = suite.p
    if sorted(sigma.tolist()) != list(range(1, p + 1)):
        raise ValueError(f"sigma_hat must be a permutation of 1..{p}")
    _, g = pen.rows(n, p)
    if suite.v1_certified:
        xi = prefix_criteria(suite, sigma)
    else:
        prefixes = [VariableSubset.of(sigma[:i].tolist(), p) for i in range(1, p + 1)]
        xi = _criteria_per_block(
            suite,
            "dimension",
            [(f"rank prefix of length {len(k)} ({k.indices})", k) for k in prefixes],
        )
    return xi + _prefix_penalties(g, sigma, pen)


def _prefix_penalties(g: np.ndarray, sigma: np.ndarray, pen: PenaltySchedule):
    """The row g_n at each rank: of the label there (``"label"``) or of the
    rank itself.  ``g`` is one row for every ranking in ``sigma``, or one
    row per ranking."""
    if pen.penalty_arg != PENALTY_ARG_LABEL:
        return g
    return g[sigma - 1] if g.ndim == 1 else np.take_along_axis(g, sigma - 1, axis=-1)


def dimensionality(psi) -> int:
    """Smallest index (1-based) attaining the minimum of psi."""
    psi = np.asarray(psi, dtype=float)
    return int(np.argmin(psi)) + 1


def rank_and_cut(v1: np.ndarray, v12: np.ndarray, n, pen: PenaltySchedule, inverse=None):
    """``phi``, ``sigma_hat``, ``psi`` and ``s_hat`` of a suite, v1 (p, p)
    and v12 (p, q), or of each suite of a stack, v1 (R, p, p) and v12
    (R, p, q); every V1 must be ``cap_certified``.  ``n`` is the sample
    size of every suite, or a sequence of R sizes, one per suite.
    ``inverse`` is V1^-1 as :func:`certified_inverse` took it, or None to
    take it here.

    The certified path of :func:`select_from_suite`, which passes its
    suite with no stack axis; a stack runs the same kernels, and each
    suite's penalty rows have the bits of ``pen.rows`` for its size, so
    each row has the bits of the single call.
    """
    p = v1.shape[-1]
    _check_width(p)
    f, g = pen.rows(n, p)
    if inverse is None:
        inverse = np.linalg.inv(v1)
    phi = leave_one_out_values(inverse, v12) + f
    sigma = order_permutation(phi)
    psi = prefix_values(v1, v12, sigma - 1) + _prefix_penalties(g, sigma, pen)
    return phi, sigma, psi, np.argmin(psi, axis=-1) + 1


def select_variables(
    data: Dataset,
    pen: PenaltySchedule | None = None,
    penalty_arg: str | None = None,
) -> SelectionResult:
    """Run the full pipeline on a dataset.

    Estimates the covariance pair and hands it to :func:`select_from_suite`.
    Deterministic given the data and schedule.  A ``penalty_arg`` given
    here replaces the schedule's own (``PenaltySchedule.penalty_arg``).
    """
    pen = pen if pen is not None else PenaltySchedule()
    if penalty_arg is not None:
        pen = replace(pen, penalty_arg=penalty_arg)
    return select_from_suite(empirical_covariances(data), data.n, pen)


def select_from_suite(suite: CovarianceSuite, n: int, pen: PenaltySchedule) -> SelectionResult:
    """Run the pipeline on a covariance pair estimated from ``n`` observations.

    Ranks variables by penalized leave-one-out scores, estimates the
    dimension from penalized prefix scores, and returns all intermediate
    vectors.  Lets a caller that needs the suite for other work estimate
    it once.  A ``cap_certified`` suite goes through :func:`rank_and_cut`,
    the study's stacked path; any other through :func:`phi_scores` and
    :func:`psi_scores`, which check each block.
    """
    if suite.v1_certified:
        phi, sigma, psi, s_hat = rank_and_cut(suite.v1, suite.v12, n, pen, suite.v1_inverse)
        s_hat = int(s_hat)
    else:
        phi = phi_scores(suite, n, pen)
        sigma = order_permutation(phi)
        psi = psi_scores(suite, sigma, n, pen)
        s_hat = dimensionality(psi)
    selected = tuple(sorted(sigma[:s_hat].tolist()))
    return SelectionResult(
        phi=phi, sigma_hat=sigma, psi=psi, s_hat=s_hat, selected=selected, n=n
    )
