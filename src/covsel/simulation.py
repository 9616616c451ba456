"""Synthetic data generation and the seeded Monte Carlo study harness.

Every random draw is derived from a documented mixing of
``(base_seed, sample_size, replication_index, stream_tag)`` through
``numpy.random.SeedSequence`` feeding a Philox counter-based generator, so
studies are bit-for-bit reproducible across runs and across any split of
a study into ``rep_offset`` chunks.  Stream tags keep training data, test
data and probe draws on disjoint streams.  Studies run on one thread: each
replication's NumPy work is too small to gain from a thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import (
    Dataset,
    PopulationModel,
    SingularSubmatrixError,
    VariableSubset,
    criterion,
    empirical_covariances,
)
from .selection import PENALTY_ARG_LABEL, PenaltySchedule, select_from_suite

STREAM_TRAIN = 0
STREAM_TEST = 1
STREAM_PROBE = 2

DEFAULT_BASE_SEED = 123456789
DEFAULT_SAMPLE_SIZES = (50, 100, 500, 2000)
DEFAULT_REPLICATIONS = 200

_U64 = (1 << 64) - 1


class SingularDesignError(ValueError):
    """The normal-equations matrix of a least-squares fit is unusable."""


class StudyAbortedError(RuntimeError):
    """More replications of a study failed than its failure-rate limit allows."""


def benchmark_model() -> PopulationModel:
    """The seven-predictor, five-response benchmark generating model.

    Predictors are centered Gaussian with covariance 0.5**|i-j|; the
    coefficient matrix is nonzero only in columns 1, 4 and 7; the noise is
    Gaussian with covariance 0.5 * I.
    """
    b = np.array(
        [
            [3.0, 0.0, 0.0, 1.5, 0.0, 0.0, 2.0],
            [4.0, 0.0, 0.0, 2.5, 0.0, 0.0, -1.0],
            [5.0, 0.0, 0.0, 0.5, 0.0, 0.0, 3.0],
            [6.0, 0.0, 0.0, 3.0, 0.0, 0.0, 1.0],
            [7.0, 0.0, 0.0, 6.0, 0.0, 0.0, 4.0],
        ]
    )
    idx = np.arange(7)
    sigma = 0.5 ** np.abs(np.subtract.outer(idx, idx))
    noise = 0.5 * np.eye(5)
    return PopulationModel(b=b, sigma=sigma, noise_cov=noise)


def mix_seed(base_seed: int, n: int, rep_index: int, stream: int) -> int:
    """Derive one 64-bit stream seed from (base_seed, n, rep_index, stream).

    The mixer is ``numpy.random.SeedSequence`` over the four values (base
    seed reduced mod 2**64); the first generated 64-bit word is the derived
    seed.  Fixed here so recorded seeds replay identically everywhere.
    """
    if n < 0 or rep_index < 0 or stream < 0:
        raise ValueError("n, rep_index and stream must be non-negative")
    ss = np.random.SeedSequence([int(base_seed) & _U64, int(n), int(rep_index), int(stream)])
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed) & _U64)))


def sample_dataset(model: PopulationModel, n: int, seed: int) -> Dataset:
    """Draw n observations: x ~ N(0, sigma) via Cholesky, y = b x + noise.

    Noise uses a spectral square root so a zero (or rank-deficient)
    noise covariance is allowed; both factors are computed once, when the
    model is built.  Fully deterministic given ``seed``.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = _rng(seed)
    x = rng.standard_normal((n, model.p)) @ model.sigma_factor.T
    noise = rng.standard_normal((n, model.q)) @ model.noise_factor.T
    y = x @ model.b.T + noise
    return Dataset(x=x, y=y)


@dataclass(frozen=True)
class OLSFit:
    """Least-squares coefficients (q, k) for the predictor columns in ``indices``."""

    coef: np.ndarray
    indices: tuple[int, ...]

    def predict(self, x: np.ndarray) -> np.ndarray:
        cols = [i - 1 for i in self.indices]
        return x[:, cols] @ self.coef.T


def ols_fit(train: Dataset, selected, cond_cap: float = 1e12) -> OLSFit:
    """Ordinary least squares of y on the selected predictor columns."""
    indices = tuple(int(i) for i in selected)
    if len(indices) < 1:
        raise ValueError("need at least one selected variable")
    if any(i < 1 or i > train.p for i in indices):
        raise ValueError(f"selected indices must lie in 1..{train.p}, got {indices}")
    if len(set(indices)) != len(indices):
        raise ValueError(f"selected indices must be distinct, got {indices}")
    xs = train.x[:, [i - 1 for i in indices]]
    gram = xs.T @ xs
    eigs = np.linalg.eigvalsh((gram + gram.T) / 2.0)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0 or hi / lo > cond_cap:
        raise SingularDesignError(
            f"normal-equations matrix for columns {indices} is singular or "
            f"ill-conditioned (eigenvalues in [{lo:.3e}, {hi:.3e}])"
        )
    coef = np.linalg.solve(gram, xs.T @ train.y).T
    return OLSFit(coef=coef, indices=indices)


def prediction_error(test: Dataset, fit: OLSFit) -> float:
    """Mean squared Euclidean residual norm over the test rows."""
    if any(i < 1 or i > test.p for i in fit.indices):
        raise ValueError(f"fit indices {fit.indices} out of range for p={test.p}")
    resid = test.y - fit.predict(test.x)
    return float(np.mean(np.sum(resid * resid, axis=1)))


@dataclass(frozen=True)
class SimulationConfig:
    """Settings for one Monte Carlo study.

    ``rep_offset`` shifts replication indices so a study can be split into
    chunks whose derived seeds match the unsplit run.
    """

    model: PopulationModel = field(default_factory=benchmark_model)
    sample_sizes: tuple[int, ...] = DEFAULT_SAMPLE_SIZES
    replications: int = DEFAULT_REPLICATIONS
    pen: PenaltySchedule = field(default_factory=PenaltySchedule)
    base_seed: int = DEFAULT_BASE_SEED
    penalty_arg: str = PENALTY_ARG_LABEL
    rep_offset: int = 0

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sample_sizes)
        if len(sizes) == 0:
            raise ValueError("sample_sizes must be non-empty")
        floor = self.model.p + 2
        if any(n < floor for n in sizes):
            raise ValueError(f"every sample size must be >= p + 2 = {floor}, got {sizes}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.rep_offset < 0:
            raise ValueError("rep_offset must be >= 0")
        object.__setattr__(self, "sample_sizes", sizes)


@dataclass(frozen=True)
class ReplicationOutcome:
    """Record of one train/select/fit/test cycle.

    ``seed`` is the derived training-stream seed (the test stream uses the
    same derivation with the test tag).  On failure the numeric fields are
    NaN, ``selected`` is empty and ``failure`` carries a reason code.
    """

    n: int
    rep_index: int
    seed: int
    selected: tuple[int, ...]
    correct: bool
    pred_error: float
    oracle_error: float
    criterion_at_truth: float
    failure: str | None = None


def run_replication(cfg: SimulationConfig, n: int, rep_index: int) -> ReplicationOutcome:
    """One fully seeded replication at sample size ``n``.

    Independent train and test sets of size ``n`` are drawn from disjoint
    seed streams; variables are selected on the training set, coefficients
    are refit by least squares on the selected columns, and the error is
    evaluated on the test set.  ``criterion_at_truth`` is the empirical
    criterion of the true relevant set on the training suite, which is
    estimated once and serves both.  Singular linear algebra is recorded
    as a failed outcome, not raised.
    """
    train_seed = mix_seed(cfg.base_seed, n, rep_index, STREAM_TRAIN)
    test_seed = mix_seed(cfg.base_seed, n, rep_index, STREAM_TEST)
    truth = cfg.model.relevant
    train = sample_dataset(cfg.model, n, train_seed)
    test = sample_dataset(cfg.model, n, test_seed)
    suite = empirical_covariances(train)
    try:
        result = select_from_suite(suite, n, cfg.pen, penalty_arg=cfg.penalty_arg)
        fit = ols_fit(train, result.selected)
        err = prediction_error(test, fit)
        if truth:
            oracle_fit = ols_fit(train, truth)
            oracle_err = prediction_error(test, oracle_fit)
            xi_truth = criterion(suite, VariableSubset.of(truth, cfg.model.p))
        else:
            # no relevant variables: the oracle predictor is identically zero
            oracle_err = float(np.mean(np.sum(test.y * test.y, axis=1)))
            xi_truth = math.nan
    except (SingularSubmatrixError, SingularDesignError) as e:
        return ReplicationOutcome(
            n=n,
            rep_index=rep_index,
            seed=train_seed,
            selected=(),
            correct=False,
            pred_error=math.nan,
            oracle_error=math.nan,
            criterion_at_truth=math.nan,
            failure=type(e).__name__,
        )
    return ReplicationOutcome(
        n=n,
        rep_index=rep_index,
        seed=train_seed,
        selected=result.selected,
        correct=result.selected == truth,
        pred_error=err,
        oracle_error=oracle_err,
        criterion_at_truth=xi_truth,
        failure=None,
    )


@dataclass(frozen=True)
class StudyRow:
    """Aggregates for one sample size."""

    n: int
    replications: int
    failures: int
    mean_pred_error: float
    sem_pred_error: float
    correct_rate: float
    median_scaled_criterion: float
    mean_oracle_error: float
    mean_excess_error: float


@dataclass(frozen=True)
class StudySummary:
    """Per-size aggregate rows plus the raw outcome records they came from."""

    rows: tuple[StudyRow, ...]
    outcomes: tuple[ReplicationOutcome, ...]

    def row_for(self, n: int) -> StudyRow:
        for row in self.rows:
            if row.n == n:
                return row
        raise KeyError(f"no row for n={n}")


def summarize(outcomes) -> StudySummary:
    """Aggregate outcome records into per-size rows.

    Outcomes are sorted by (n, rep_index) first, so the result does not
    depend on the order replications finished in.  Failed replications are
    excluded from the means and counted in ``failures``.
    """
    outcomes = tuple(sorted(outcomes, key=lambda o: (o.n, o.rep_index)))
    rows = []
    for n in sorted({o.n for o in outcomes}):
        group = [o for o in outcomes if o.n == n]
        ok = [o for o in group if o.failure is None]
        if not ok:
            rows.append(
                StudyRow(
                    n=n,
                    replications=len(group),
                    failures=len(group),
                    mean_pred_error=math.nan,
                    sem_pred_error=math.nan,
                    correct_rate=math.nan,
                    median_scaled_criterion=math.nan,
                    mean_oracle_error=math.nan,
                    mean_excess_error=math.nan,
                )
            )
            continue
        errs = np.array([o.pred_error for o in ok])
        oracle = np.array([o.oracle_error for o in ok])
        xi = np.array([o.criterion_at_truth for o in ok])
        sem = float(errs.std(ddof=1) / math.sqrt(len(errs))) if len(errs) > 1 else 0.0
        rows.append(
            StudyRow(
                n=n,
                replications=len(group),
                failures=len(group) - len(ok),
                mean_pred_error=float(errs.mean()),
                sem_pred_error=sem,
                correct_rate=sum(o.correct for o in ok) / len(ok),
                median_scaled_criterion=float(np.median(math.sqrt(n) * xi)),
                mean_oracle_error=float(oracle.mean()),
                mean_excess_error=float((errs - oracle).mean()),
            )
        )
    return StudySummary(rows=tuple(rows), outcomes=outcomes)


def merge_summaries(*summaries: StudySummary) -> StudySummary:
    """Re-aggregate the union of the outcome records of several summaries."""
    combined = [o for s in summaries for o in s.outcomes]
    return summarize(combined)


def run_study(cfg: SimulationConfig, max_failure_rate: float = 0.05) -> StudySummary:
    """Run the full grid of replications on the calling thread and aggregate.

    Each replication depends only on its derived seeds, so the loop order
    cannot change results; a study split into ``rep_offset`` chunks and
    recombined with :func:`merge_summaries` gives the unsplit summary.
    Raises ``StudyAbortedError`` if more than ``max_failure_rate`` of the
    replications fail.
    """
    tasks = [
        (n, rep)
        for n in sorted(cfg.sample_sizes)
        for rep in range(cfg.rep_offset, cfg.rep_offset + cfg.replications)
    ]
    outcomes = [run_replication(cfg, n, rep) for n, rep in tasks]
    failed = sum(1 for o in outcomes if o.failure is not None)
    if failed > max_failure_rate * len(outcomes):
        raise StudyAbortedError(
            f"{failed}/{len(outcomes)} replications failed "
            f"(limit {max_failure_rate:.0%}); aborting the study"
        )
    return summarize(outcomes)


@dataclass(frozen=True)
class ProbePoint:
    n: int
    median_scaled_criterion: float
    median_criterion: float


@dataclass(frozen=True)
class ProbeTable:
    """Criterion scaling measurements for one subset across sample sizes."""

    subset: tuple[int, ...]
    reps: int
    seed: int
    points: tuple[ProbePoint, ...]


def convergence_probe(
    model: PopulationModel,
    k: VariableSubset,
    n_grid,
    reps: int,
    seed: int,
) -> ProbeTable:
    """Median criterion and sqrt(n)-scaled criterion of subset ``k`` per size.

    When the population criterion of ``k`` is zero the scaled medians stay
    bounded as n grows; when it is positive the raw medians stabilize at the
    population value.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    points = []
    for n in sorted(int(n) for n in n_grid):
        values = []
        for rep in range(reps):
            data = sample_dataset(model, n, mix_seed(seed, n, rep, STREAM_PROBE))
            values.append(criterion(empirical_covariances(data), k))
        med = float(np.median(values))
        points.append(
            ProbePoint(n=n, median_scaled_criterion=math.sqrt(n) * med, median_criterion=med)
        )
    return ProbeTable(subset=k.indices, reps=reps, seed=seed, points=tuple(points))
