"""Synthetic data generation and the seeded Monte Carlo study harness.

Every random draw is derived from a documented mixing of
``(base_seed, sample_size, replication_index, stream_tag)`` through
``numpy.random.SeedSequence`` feeding a Philox counter-based generator, so
studies are bit-for-bit reproducible across runs and across any split of
a study into ``rep_offset`` chunks.  Stream tags keep training data,
probe draws and their Wishart counterparts (tags 3 and 4) on disjoint
streams; tag 1 (``STREAM_TEST``) once keyed test rows and stays reserved,
so no seed it derived is reused.  ``mix_seed``
is the scalar reference; the engine derives a whole block's seeds and
their Philox keys at once with the same SeedSequence arithmetic in uint32
arrays (``_stream_keys``), and keys one reused generator per thread from
them, with the bits of a new ``Philox(SeedSequence(seed))``.

One block sampler (``_reduced_blocks``) serves ``run_study``,
``run_replication`` and ``convergence_probe``: it lists every (n,
rep_index) pair, sizes in ascending order, and cuts the list into blocks
of at most ``BLOCK_REPLICATIONS`` (256) replications, which may span
sample sizes.  A study's block runs in two phases, the sampler's and its
own:

1. Draw and reduce.  The training rows of each sample size are drawn in
   chunks of ``max(1, ROW_BUDGET // n)`` replications, one Philox fill of
   n * (p + q) normals per replication, into a stacked (R, n, p + q)
   array [x | y], which is centered in place and reduced to its
   covariance pairs (V1, V12); the rows are dropped.  Where the process
   may use two CPUs or more and a block has two chunks of long fills
   (``HELPER_MIN_NORMALS``), the calling thread draws its even-numbered
   chunks and one helper thread the odd-numbered ones, each into its own
   buffers (the fills and matrix products release the GIL); otherwise the
   calling thread draws them all.
2. Select and score.  The certificate (``certified_inverse``: one
   Cholesky factor and one inverse of the stack, and ``eigvalsh`` only for
   a V1 their norm bound does not clear), selection (each
   replication with the penalty rows of its own n), the truth criterion
   and the refits on the selected and the true set run on the block's
   (R, p, p) and (R, p, q) stacks, on the calling thread.  Both refits
   are the regression coefficients the pair estimates,
   solve(V1[K, K], V12[K]), and both are scored by their exact population
   risk (``PopulationModel.risk``), with no test rows drawn.

Under ``SimulationConfig.draw == "wishart"`` phase 1 draws no rows: each
replication's covariance pair comes from its Wishart law, n V ~ W(Omega,
n - 1), by Bartlett's decomposition from one short keyed fill per
replication (``_wishart_pairs``), on the calling thread alone and at a
cost that does not depend on n.  Phase 2 is unchanged.

Each slice of a stacked kernel has the bits of the single-dataset call, so
outcomes do not depend on the block or chunk sizes or on the thread that
draws a chunk, and each training seed is drawn once.  A V1 without the
certificate is selected alone by ``select_from_suite``, which checks each
covariance block; a replication that fails selection or the true set's
covariance block, or whose covariance pair is not finite, is recorded
with the failure code ``SingularSubmatrixError``.  ``run_replication`` is
a block of one, ``convergence_probe`` takes phase 1 alone on the probe
stream, in blocks that span its sizes as a study's do, and
``sample_dataset`` is the same draw on one dataset.
``ols_fit`` is the study's refit on one dataset, solve(V1[K, K], V12[K])
from its covariance pair, with the intercept those centered rows imply,
and ``prediction_error`` scores a fit on held-out rows a user supplies.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .covariance import (
    CovarianceSuite,
    Dataset,
    PopulationModel,
    SingularSubmatrixError,
    VariableSubset,
    _checked_block,
    _fields_equal,
    _int_arg,
    _is_int,
    certified_inverse,
    criterion_values,
    eig_bounds,
    empirical_covariances,
    joined_covariance_pairs,
    over_cap,
    principal_blocks,
    refit_values,
    row_index,
    subset_criteria,
)
from .selection import PenaltySchedule, rank_and_cut, select_from_suite

STREAM_TRAIN = 0
STREAM_TEST = 1  # reserved: once keyed the study's test rows, never reused
STREAM_PROBE = 2
STREAM_WISHART = 3  # a study's Wishart draws, in place of STREAM_TRAIN
STREAM_WISHART_PROBE = 4  # a probe's Wishart draws, in place of STREAM_PROBE

# The stream tag a Wishart draw takes in place of each row stream's.
_WISHART_STREAM = {STREAM_TRAIN: STREAM_WISHART, STREAM_PROBE: STREAM_WISHART_PROBE}

# Rows one draw chunk holds: a chunk at sample size n draws
# max(1, ROW_BUDGET // n) replications, so its (R, n, p) arrays stay near
# 115 kB at p = 7 (a size above the budget draws one replication at a time).
# Twice this budget ran the paper study 9% faster but raised peak memory
# by 1.7 MB over the per-replication loop; this one stays within 0.5 MB.
ROW_BUDGET = 2048

# Replications one block holds, whatever their sample sizes.  A block's
# draws are reduced to (R, p, p) and (R, p, q) matrices, on which the
# certificate, selection, the truth criterion, the refits and their risks
# run once; its seeds and keys, and its Wishart transform, are derived
# once too.  On the full paper study (6 runs of each, 2 vCPUs), 256 cut
# the median time from 32's by 19% on row draws and 33% on Wishart ones,
# more than 64 or 128 did, and raised peak RSS by at most 0.8 MB.
BLOCK_REPLICATIONS = 256

# A block starts the helper thread only if two of its chunks fill this many
# normals, n * (p + q), per replication: shorter fills ran slower with it.
HELPER_MIN_NORMALS = 6000

# The share of a study's replications that may fail before ``run_study``
# aborts it with ``StudyAbortedError``.
MAX_FAILURE_RATE = 0.05

_U64 = (1 << 64) - 1


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
    Each argument takes an integer (:func:`_int_arg`).
    """
    base_seed, n = _int_arg("base_seed", base_seed), _int_arg("n", n)
    rep_index, stream = _int_arg("rep_index", rep_index), _int_arg("stream", stream)
    if n < 0 or rep_index < 0 or stream < 0:
        raise ValueError("n, rep_index and stream must be non-negative")
    ss = np.random.SeedSequence([base_seed & _U64, n, rep_index, stream])
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    """The Philox generator of a seed's stream, through NumPy's own seeding."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed) & _U64)))


def _hash_run(init: int, mult: int, count: int) -> np.ndarray:
    """The first count + 1 values of a SeedSequence hash multiplier, (count + 1, 1)."""
    run = [init]
    for _ in range(count):
        run.append(run[-1] * mult & 0xFFFFFFFF)
    return np.array(run, np.uint32)[:, None]


# The constants of numpy.random.SeedSequence (numpy/random/bit_generator.pyx):
# its two running hash multipliers, for entropy mixing (at most 32 hashes for
# four 64-bit values) and for generate_state, and its mixing multipliers.
_HASH_A = _hash_run(0x43B0D7E5, 0x931E8875, 32)
_HASH_B = _hash_run(0x8B51F9DD, 0x58F38DED, 4)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4


def _hashmix(value: np.ndarray, at: int, count: int, run: np.ndarray = _HASH_A) -> np.ndarray:
    """SeedSequence's hashmix of ``value`` with ``count`` successive multipliers from
    ``run[at]`` on, broadcast along the leading axis."""
    value = value ^ run[at : at + count]
    value *= run[at + 1 : at + count + 1]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> np.uint32(16))


def _seed_sequence_words(values, rows: int, words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(words, np.uint64)`` for each row of
    ``values`` (integers in [0, 2**64), each a scalar or one per row), (rows, words).

    NumPy's SeedSequence in uint32 array arithmetic, all rows at once.  Its
    entropy is the little-endian 32-bit words of each value (one for 0),
    concatenated; a row holds 4 to 8 of them.
    """
    v = np.empty((len(values), rows), np.uint64)
    for i, value in enumerate(values):
        v[i] = value
    lo, hi = v.astype(np.uint32), (v >> np.uint64(32)).astype(np.uint32)
    entropy = np.zeros((max(2 * len(values), _POOL), rows), np.uint32)
    length, cols = np.zeros(rows, np.intp), np.arange(rows)
    for i in range(len(values)):
        entropy[length, cols] = lo[i]
        entropy[length + 1, cols] = hi[i]  # stays 0 past the end when hi is 0
        length += 1 + (hi[i] != 0)
    # a row with fewer than 4 words hashes 0 in their place, as its padding holds
    pool = _hashmix(entropy[:_POOL], 0, _POOL)
    at = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], at, _POOL - 1))
        at += _POOL - 1
    for i in range(_POOL, int(length.max())):
        pool = np.where(length > i, _mix(pool, _hashmix(entropy[i], at, _POOL)), pool)
        at += _POOL
    state = _hashmix(pool[np.arange(2 * words) % _POOL], 0, 2 * words, _HASH_B).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def _stream_keys(base_seed: int, sizes, reps, stream: int) -> tuple[list[int], list[list[int]]]:
    """The stream seeds ``mix_seed(base_seed, n, rep, stream)`` of the pairs
    (sizes[j], reps[j]) and each seed's Philox key, the two words of
    ``SeedSequence(seed).generate_state(2, np.uint64)``, for all pairs at once."""
    seeds = _seed_sequence_words(
        [int(base_seed) & _U64, sizes, reps, stream], len(reps), 1
    )[:, 0]
    return seeds.tolist(), _seed_sequence_words([seeds], len(seeds), 2).tolist()


def _keyed(gen: np.random.Generator, key) -> None:
    """Set ``gen`` to the start of the Philox stream with ``key``: counter 0
    and an empty buffer, the state ``Philox`` seeds a new stream with."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _draw_buffers(model: PopulationModel, rows: int) -> tuple:
    """A generator and the arrays :func:`_draw` fills, for up to ``rows``
    rows in all: the normals, the joined sample [x | y] and the noise.

    A study reuses one set per thread for all its chunks rather than
    allocating, and page-faulting in, fresh arrays for each chunk; on the
    paper study that kept peak memory 0.3 MB lower.
    """
    p, q = model.p, model.q
    return _rng(0), np.empty(rows * (p + q)), np.empty((rows, p + q)), np.empty((rows, q))


def _joined(model: PopulationModel, buffers, r: int, n: int) -> np.ndarray:
    """The (r, n, p + q) sample [x | y] that :func:`_draw` writes into ``buffers``."""
    return buffers[2][: r * n].reshape(r, n, model.p + model.q)


def _draw(model: PopulationModel, n: int, seeds, buffers, keys) -> tuple[np.ndarray, np.ndarray]:
    """One sample of n rows per seed, stacked: x (R, n, p) and y (R, n, q),
    the column blocks of one (R, n, p + q) array (:func:`_joined`).

    Each seed's stream is keyed by its row of ``keys``, the Philox keys of
    :func:`_seed_sequence_words`, and fills one block of n * (p + q)
    normals: the x innovations and then the noise innovations.  The
    buffers come from :func:`_draw_buffers` and are overwritten.
    """
    r, p, q = len(seeds), model.p, model.q
    gen, normals, _, noise = buffers
    normals = normals[: r * n * (p + q)].reshape(r, n * (p + q))
    for row, key in zip(normals, keys):
        _keyed(gen, key)
        gen.standard_normal(out=row)
    z = _joined(model, buffers, r, n)
    x, y = z[..., :p], z[..., p:]
    np.matmul(normals[:, : n * p].reshape(r, n, p), model.sigma_factor.T, out=x)
    np.matmul(x, model.b.T, out=y)
    noise = noise[: r * n].reshape(r, n, q)
    y += np.matmul(normals[:, n * p :].reshape(r, n, q), model.noise_factor.T, out=noise)
    return x, y


def sample_dataset(model: PopulationModel, n: int, seed: int) -> Dataset:
    """Draw n observations: x ~ N(0, sigma) via Cholesky, y = b x + noise.

    Noise uses a spectral square root so a zero (or rank-deficient)
    noise covariance is allowed; both factors are computed once, when the
    model is built.  Fully deterministic given ``seed``, keyed as a block's
    seeds are.  ``n`` and ``seed`` take integers (:func:`_int_arg`).
    """
    n, seed = _int_arg("n", n), _int_arg("seed", seed)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    keys = _seed_sequence_words([seed & _U64], 1, 2).tolist()
    x, y = _draw(model, n, [seed], _draw_buffers(model, n), keys)
    return Dataset(x=x[0], y=y[0])


def _padded(coef: np.ndarray, cols: np.ndarray, p: int) -> np.ndarray:
    """(..., p, q) coefficients, zero outside the rows ``cols``."""
    full = np.zeros(coef.shape[:-2] + (p, coef.shape[-1]))
    full[row_index(cols)] = coef
    return full


@dataclass(frozen=True)
class OLSFit:
    """Least-squares coefficients ``coef`` (q, k) for the k predictor
    columns in ``indices``, and ``intercept``, a scalar or (q,): a row x is
    predicted as intercept + coef x[indices]."""

    coef: np.ndarray
    indices: tuple[int, ...]
    intercept: np.ndarray | float = 0.0

    __eq__ = _fields_equal

    def __post_init__(self):
        shape, k = np.shape(self.coef), len(self.indices)
        if len(shape) != 2 or shape[1] != k:
            raise ValueError(f"coef must be (q, {k}) for indices {self.indices}, got {shape}")
        if np.shape(self.intercept) not in ((), shape[:1]):
            raise ValueError(
                f"intercept must be a scalar or ({shape[0]},), got shape {np.shape(self.intercept)}"
            )

    def padded(self, p: int) -> np.ndarray:
        """(p, q) coefficients, zero outside the rows of ``indices``."""
        return _padded(self.coef.T, np.array([i - 1 for i in self.indices]), p)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return x @ self.padded(x.shape[-1]) + self.intercept


def ols_fit(train: Dataset, selected) -> OLSFit:
    """Least squares of y on the selected predictor columns K, with an
    intercept: the study's refit, coef = solve(V1[K, K], V12[K]) from the
    centered covariance pair of ``train``, and intercept
    mean(y) - coef mean(x[K]).  The fit's ``indices`` are the labels of K
    in increasing order; ``selected`` is checked by
    :meth:`VariableSubset.of`, and a (K, K) block over the condition-number
    cap raises ``SingularSubmatrixError`` naming them.
    """
    k = VariableSubset.of(selected, train.p)
    suite = empirical_covariances(train)
    cols = np.array(_checked_block(suite.v1, k)[0])
    coef = refit_values(suite.v1, suite.v12, cols)
    intercept = train.y.mean(axis=0) - train.x.mean(axis=0)[cols] @ coef
    return OLSFit(coef=coef.T, indices=k.indices, intercept=intercept)


def prediction_error(test: Dataset, fit: OLSFit) -> float:
    """Mean squared Euclidean residual norm over the test rows: an estimate,
    on held-out data, of what ``PopulationModel.risk`` gives exactly."""
    if any(i < 1 or i > test.p for i in fit.indices):
        raise ValueError(f"fit indices {fit.indices} out of range for p={test.p}")
    q = fit.coef.shape[0]
    if test.q != q:
        raise ValueError(f"fit predicts q={q} responses, test data has q={test.q}")
    resid = test.y - fit.predict(test.x)
    return float(np.mean(np.sum(resid * resid, axis=-1)))


def _sizes(values, name: str, model: PopulationModel, draw) -> tuple[int, ...]:
    """The sample sizes ``values``, the caller's field ``name``, as a tuple of
    ints in their given order: the one check of a study's, a replication's
    and a probe's sizes.  ``ValueError`` names ``name`` for sizes that are
    not a non-empty sequence of integers (:func:`_is_int`), repeat one or,
    under ``draw="wishart"``, reach no more than p + q (Bartlett's
    decomposition needs n - 1 >= p + q), names n for a size below 2, and
    names ``draw`` for one other than ``"rows"`` and ``"wishart"``."""
    try:
        sizes = tuple(values)  # a generator is read once
    except TypeError:
        raise ValueError(f"{name} must be a sequence of integers, got {values!r}") from None
    if not all(_is_int(n) for n in sizes):
        raise ValueError(f"{name} must be integers, got {sizes!r}")
    sizes = tuple(int(n) for n in sizes)
    if not sizes:
        raise ValueError(f"{name} must be non-empty")
    ascending = sorted(sizes)
    for a, b in zip(ascending, ascending[1:]):
        if a == b:
            raise ValueError(f"{name} must not repeat a size, got {a} more than once")
    if ascending[0] < 2:
        raise ValueError(f"need n >= 2 observations to estimate covariances, got {ascending[0]}")
    if not isinstance(draw, str) or draw not in ("rows", "wishart"):
        raise ValueError(f"draw must be 'rows' or 'wishart', got {draw!r}")
    d = model.p + model.q
    if draw == "wishart" and ascending[0] <= d:
        raise ValueError(
            f"{name} must exceed p + q = {d} for draw='wishart' (Bartlett's "
            f"decomposition needs n - 1 >= p + q), got {ascending[0]}"
        )
    return sizes


@dataclass(frozen=True)
class SimulationConfig:
    """Settings for one Monte Carlo study.

    ``rep_offset`` shifts replication indices so a study can be split into
    chunks whose derived seeds match the unsplit run.  ``replications``,
    ``base_seed`` and ``rep_offset`` take integers (:func:`_int_arg`).
    ``draw`` is ``"rows"``, each replication's n rows drawn and reduced to
    (V1, V12), or ``"wishart"``, the pair drawn from its own Wishart law
    (see :func:`_reduced_blocks`); it and ``sample_sizes`` are checked by
    :func:`_sizes`, and every size must be at least p + 2 besides.
    """

    model: PopulationModel = field(default_factory=benchmark_model)
    sample_sizes: tuple[int, ...] = (50, 100, 500, 2000)
    replications: int = 200
    pen: PenaltySchedule = field(default_factory=PenaltySchedule)
    base_seed: int = 123456789
    rep_offset: int = 0
    draw: str = "rows"

    def __post_init__(self):
        sizes = _sizes(self.sample_sizes, "sample_sizes", self.model, self.draw)
        for name in ("replications", "base_seed", "rep_offset"):
            object.__setattr__(self, name, _int_arg(name, getattr(self, name)))
        floor = self.model.p + 2
        if any(n < floor for n in sizes):
            raise ValueError(f"every sample size must be >= p + 2 = {floor}, got {sizes}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.rep_offset < 0:
            raise ValueError("rep_offset must be >= 0")
        if self.rep_offset + self.replications > 1 << 64:
            raise ValueError("replication indices must stay below 2**64")
        object.__setattr__(self, "sample_sizes", sizes)


@dataclass(frozen=True)
class ReplicationOutcome:
    """Record of one train/select/fit/score cycle.

    ``seed`` is the derived seed of the only stream a replication draws:
    its training rows' (``STREAM_TRAIN``), or its Wishart draw's
    (``STREAM_WISHART``) under ``draw="wishart"``.  ``pred_error`` and
    ``oracle_error`` are the exact population risks
    (``PopulationModel.risk``) of the refits solve(V1[K, K], V12[K]) on
    the selected and on the true set K.  On
    failure the numeric fields are NaN, ``selected`` is empty and
    ``failure`` is ``"SingularSubmatrixError"``: selection or the true
    set's covariance block hit a singular or ill-conditioned block, or
    the covariance pair was not finite.
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
    """One fully seeded replication at sample size ``n``: a block of one.

    A training set of size ``n`` is drawn from the replication's training
    stream and reduced to its covariance pair (V1, V12); variables are
    selected on it, the coefficients of the selected and of the true
    relevant set K are refit as solve(V1[K, K], V12[K]), and each refit
    is scored by its exact population risk.  ``criterion_at_truth`` is
    the empirical criterion of the true relevant set, whose solve is the
    true set's refit.  Singular linear algebra is recorded as a failed
    outcome, not raised.  ``n`` and ``rep_index`` take integers
    (:func:`_int_arg`); ``n`` is checked by :func:`_sizes`, and a
    ``rep_index`` outside [0, 2**64) raises ``ValueError``.
    """
    n, rep_index = _int_arg("n", n), _int_arg("rep_index", rep_index)
    if not 0 <= rep_index <= _U64:
        raise ValueError(f"rep_index must lie in [0, 2**64), got {rep_index}")
    _sizes([n], "n", cfg.model, cfg.draw)
    (block,) = _reduced_blocks(
        cfg.model, cfg.base_seed, STREAM_TRAIN, [n], [rep_index], cfg.draw
    )
    (outcome,) = _run_block(cfg, *block)
    return outcome


def _run_block(cfg: SimulationConfig, pairs, seeds, v1, v12) -> list[ReplicationOutcome]:
    """Outcomes of the replications ``pairs``, (n, rep_index) pairs, in order,
    from their training seeds and covariance pairs, v1 (R, p, p) and v12
    (R, p, q), as :func:`_reduced_blocks` yields them.

    Selection, the truth criterion, the refits solve(V1[K, K], V12[K])
    and their exact risks run on the block's stack.  A certified V1 is
    selected in the stacked :func:`rank_and_cut`, from the inverse
    :func:`certified_inverse` took of the stack, any other V1 alone by
    :func:`select_from_suite`, whose per-block checks cover the selected
    prefix; a certified V1 passes the cap on every principal block (Cauchy
    interlacing), so the selected set's refit needs no check.  A
    replication fails at selection or at the true set's covariance block,
    which is checked; so does a replication whose pair is not finite.
    """
    model, truth = cfg.model, cfg.model.relevant
    sizes = np.array([n for n, _ in pairs])

    # 1. select; selected[j] stays () where selection fails or a pair is
    # not finite (a sample whose products overflow)
    finite = np.isfinite(v1).all(axis=(1, 2)) & np.isfinite(v12).all(axis=(1, 2))
    certified, inverse = certified_inverse(v1)
    certified &= finite
    selected = [()] * len(pairs)
    _, sigma, _, s_hat = rank_and_cut(
        v1[certified], v12[certified], sizes[certified], cfg.pen, inverse[certified]
    )
    for j, order, k in zip(np.flatnonzero(certified).tolist(), sigma.tolist(), s_hat.tolist()):
        selected[j] = tuple(sorted(order[:k]))
    for j in np.flatnonzero(finite & ~certified).tolist():
        suite = CovarianceSuite(v1=v1[j], v12=v12[j])
        try:
            selected[j] = select_from_suite(suite, int(sizes[j]), cfg.pen).selected
        except SingularSubmatrixError:
            pass
    ok = np.array([bool(labels) for labels in selected])
    if truth:
        truth_cols = np.array(truth) - 1
        ok &= ~over_cap(*eig_bounds(principal_blocks(v1, truth_cols)))

    # 2. refit on the selected and the true set, solve(V1[K, K], V12[K]),
    # and score; NaN where a check fails.  The truth criterion's solve is
    # the true set's refit; with no relevant variables that refit is zero.
    chosen = [labels for labels, passed in zip(selected, ok) if passed]
    v1, v12 = v1[ok], v12[ok]
    coef = np.zeros((2,) + v12.shape)
    for k in set(map(len, chosen)):
        at = [i for i, labels in enumerate(chosen) if len(labels) == k]
        cols = np.array([chosen[i] for i in at]) - 1
        coef[0, at] = _padded(refit_values(v1[at], v12[at], cols), cols, model.p)
    scores = np.full((3, len(pairs)), math.nan)
    if truth:
        scores[2, ok], fit = criterion_values(v1, v12, truth_cols)
        coef[1] = _padded(fit, truth_cols, model.p)
    scores[:2, ok] = model.risk(coef)
    err, oracle_err, xi_truth = scores.tolist()
    return [
        ReplicationOutcome(
            n=n,
            rep_index=rep,
            seed=seeds[j],
            selected=selected[j] if ok[j] else (),
            correct=bool(ok[j]) and selected[j] == truth,
            pred_error=err[j],
            oracle_error=oracle_err[j],
            criterion_at_truth=xi_truth[j],
            failure=None if ok[j] else SingularSubmatrixError.__name__,
        )
        for j, (n, rep) in enumerate(pairs)
    ]


@dataclass(frozen=True, kw_only=True)
class StudyRow:
    """Aggregates for one sample size, over its replications that did not
    fail.  A size whose replications all failed keeps the NaN defaults of
    the six statistics.  The fields are declared in the order of the study
    report's columns, which ``emit_report`` takes from them, so a row is
    built by keyword only."""

    n: int
    mean_pred_error: float = math.nan
    sem_pred_error: float = math.nan
    correct_rate: float = math.nan
    median_scaled_criterion: float = math.nan
    mean_oracle_error: float = math.nan
    mean_excess_error: float = math.nan
    failures: int
    replications: int


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
    depend on the order replications finished in, and each size's run of
    the sorted records is aggregated in one pass over them.  Failed
    replications are excluded from the statistics and counted in
    ``failures``; a size with no other replication keeps ``StudyRow``'s
    NaN statistics.  Two records of the same (n, rep_index), as
    overlapping ``rep_offset`` chunks give, raise ``ValueError``.
    """
    outcomes = tuple(sorted(outcomes, key=lambda o: (o.n, o.rep_index)))
    for a, b in zip(outcomes, outcomes[1:]):
        if (a.n, a.rep_index) == (b.n, b.rep_index):
            raise ValueError(f"duplicate outcome records for n={a.n}, rep_index={a.rep_index}")
    rows = []
    for n, group in itertools.groupby(outcomes, key=lambda o: o.n):
        group = list(group)
        ok = [o for o in group if o.failure is None]
        stats = {}
        if ok:
            errs = np.array([o.pred_error for o in ok])
            oracle = np.array([o.oracle_error for o in ok])
            xi = np.array([o.criterion_at_truth for o in ok])
            sem = float(errs.std(ddof=1) / math.sqrt(len(errs))) if len(errs) > 1 else 0.0
            stats = dict(
                mean_pred_error=float(errs.mean()),
                sem_pred_error=sem,
                correct_rate=sum(o.correct for o in ok) / len(ok),
                median_scaled_criterion=float(np.median(math.sqrt(n) * xi)),
                mean_oracle_error=float(oracle.mean()),
                mean_excess_error=float((errs - oracle).mean()),
            )
        rows.append(StudyRow(n=n, replications=len(group), failures=len(group) - len(ok), **stats))
    return StudySummary(rows=tuple(rows), outcomes=outcomes)


def merge_summaries(*summaries: StudySummary) -> StudySummary:
    """Re-aggregate the union of the outcome records of several summaries;
    a replication recorded in two of them raises ``ValueError``."""
    combined = [o for s in summaries for o in s.outcomes]
    return summarize(combined)


def _chunk_size(n: int) -> int:
    return max(1, ROW_BUDGET // n)


def _draw_chunks(sizes: list[int]) -> list[tuple[int, slice]]:
    """Draw chunks of a block whose replications have the sample sizes
    ``sizes``: each run of equal sizes cut into runs of at most
    ``_chunk_size(n)`` replications, as (n, slice of the block) pairs."""
    out, start = [], 0
    for n, run in itertools.groupby(sizes):
        stop, step = start + len(list(run)), _chunk_size(n)
        out += [(n, slice(i, min(i + step, stop))) for i in range(start, stop, step)]
        start = stop
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _draw_and_reduce(model: PopulationModel, sizes, seeds, keys, buffer_sets):
    """The covariance pairs (V1 (R, p, p), V12 (R, p, q)) of a block's
    samples, drawn in the chunks of :func:`_draw_chunks`.

    Each chunk is drawn into a buffer set, reduced in place by
    :func:`joined_covariance_pairs` and written to its own rows of the
    stacks.  With two buffer sets and two chunks of ``HELPER_MIN_NORMALS``
    normals per replication or more, the calling thread draws the
    even-numbered chunks and one helper thread the odd-numbered ones, each
    into its own set; the fills and matrix products release the GIL, and
    each slot gets the same bits whichever thread fills it.  An exception
    on either thread stops the other before its next chunk; the first is
    raised here once the helper has been joined.
    """
    p, q = model.p, model.q
    v1, v12 = np.empty((len(sizes), p, p)), np.empty((len(sizes), p, q))
    chunks, errors = _draw_chunks(sizes), []

    def work(buffers, part):
        try:
            for n, c in part:
                if errors:
                    return
                _draw(model, n, seeds[c], buffers, keys[c])
                z = _joined(model, buffers, c.stop - c.start, n)
                v1[c], v12[c] = joined_covariance_pairs(z, p)
        except BaseException as exc:  # raised on the calling thread once both stop
            errors.append(exc)

    long_fills = sum(n * (p + q) >= HELPER_MIN_NORMALS for n, _ in chunks)
    if len(buffer_sets) < 2 or long_fills < 2:
        work(buffer_sets[0], chunks)
    else:
        helper = threading.Thread(
            target=work, args=(buffer_sets[1], chunks[1::2]), name="covsel-draw"
        )
        helper.start()
        work(buffer_sets[0], chunks[0::2])
        helper.join()
    if errors:
        raise errors[0]
    return v1, v12


def _wishart_pairs(model: PopulationModel, factor: np.ndarray, gen, sizes, keys):
    """The covariance pairs (V1 (R, p, p), V12 (R, p, q)) of a block, each
    drawn from its Wishart law with no rows.

    The centered scatter S of n Gaussian rows [x | y] is W(Omega, n - 1)
    (Anderson, An Introduction to Multivariate Statistical Analysis, Thm
    3.3.2).  Bartlett's decomposition draws it as S = (M T)(M T)^T, with
    M = ``factor`` the row engine's transform [[L, 0], [B L, F]], so
    M M^T = Omega, and T lower triangular, d = p + q (Odell & Feiveson,
    JASA 1966).  Each replication's stream, keyed by its row of ``keys``
    into ``gen``, fills the d(d - 1)/2 normals below T's diagonal, row by
    row, and then the d chi-squares with n - 1, ..., n - d degrees of
    freedom whose square roots are the diagonal.  V = S / n, with V1 made
    exactly symmetric as :func:`joined_covariance_pairs` makes it.
    """
    p, d = model.p, len(factor)
    below, diag = np.tril_indices(d, -1), np.arange(d)
    normals, chi2 = np.empty((len(sizes), d * (d - 1) // 2)), np.empty((len(sizes), d))
    for j, (n, key) in enumerate(zip(sizes, keys)):
        _keyed(gen, key)
        gen.standard_normal(out=normals[j])
        chi2[j] = gen.chisquare(n - 1 - diag)
    t = np.zeros((len(sizes), d, d))
    t[:, below[0], below[1]] = normals
    t[:, diag, diag] = np.sqrt(chi2)
    mt = factor @ t
    s = mt @ np.swapaxes(mt, -1, -2) / np.array(sizes, float)[:, None, None]
    v1 = s[:, :p, :p]
    return (v1 + np.swapaxes(v1, -1, -2)) / 2.0, s[:, :p, p:]


def _reduced_blocks(model: PopulationModel, base_seed: int, stream: int, sizes, reps, draw: str):
    """``(pairs, seeds, v1, v12)`` for each block of ``BLOCK_REPLICATIONS``
    (n, rep_index) pairs of ``sizes`` x ``reps``, sizes ascending, generated
    as they are cut: the pairs' seeds on ``stream`` and their covariance
    pairs, for ``sizes`` and ``draw`` that :func:`_sizes` has checked.
    Rows (:func:`_draw_and_reduce`) are drawn into one buffer set for a
    single replication, else into one per drawing thread, at most two.
    Wishart pairs (:func:`_wishart_pairs`) are drawn on the stream
    ``_WISHART_STREAM[stream]`` by the calling thread, with no buffers."""
    if draw == "wishart":
        stream = _WISHART_STREAM[stream]
        lx, zeros = model.sigma_factor, np.zeros((model.p, model.q))
        factor, gen = np.block([[lx, zeros], [model.b @ lx, model.noise_factor]]), _rng(0)

        def reduced(ns, seeds, keys):
            return _wishart_pairs(model, factor, gen, ns, keys)

    else:
        rows = max(
            (min(_chunk_size(n), BLOCK_REPLICATIONS, len(reps)) * n for n in sizes), default=0
        )
        threads = 1 if len(sizes) * len(reps) == 1 else min(_usable_cpus(), 2)
        buffer_sets = [_draw_buffers(model, rows) for _ in range(threads)]

        def reduced(ns, seeds, keys):
            return _draw_and_reduce(model, ns, seeds, keys, buffer_sets)

    pairs = ((n, rep) for n in sorted(sizes) for rep in reps)
    while block := list(itertools.islice(pairs, BLOCK_REPLICATIONS)):
        ns = [n for n, _ in block]
        seeds, keys = _stream_keys(base_seed, ns, [rep for _, rep in block], stream)
        yield (block, seeds, *reduced(ns, seeds, keys))


def run_study(cfg: SimulationConfig) -> StudySummary:
    """Run the full grid of replications and aggregate.

    The (n, rep_index) pairs, sizes in ascending order, run in blocks of
    ``BLOCK_REPLICATIONS`` replications, which may span sample sizes, each
    block's draws in chunks of the row budget; where the process may use
    two CPUs, one helper thread shares a block's long fills.  Each
    replication depends only on its derived seed, and each slice of a
    stacked kernel only on its own data, so neither the order, the blocks
    and chunks nor the thread that draws a chunk can change results.
    Under ``cfg.draw == "wishart"`` each replication's pair is drawn from
    its Wishart law instead, on the calling thread alone; a
    study split into ``rep_offset`` chunks and recombined with
    :func:`merge_summaries` gives the unsplit summary.  Raises
    ``StudyAbortedError`` if more than ``MAX_FAILURE_RATE`` (5%) of the
    replications fail.
    """
    reps = range(cfg.rep_offset, cfg.rep_offset + cfg.replications)
    blocks = _reduced_blocks(
        cfg.model, cfg.base_seed, STREAM_TRAIN, cfg.sample_sizes, reps, cfg.draw
    )
    outcomes = [o for block in blocks for o in _run_block(cfg, *block)]
    failed = sum(1 for o in outcomes if o.failure is not None)
    if failed > MAX_FAILURE_RATE * len(outcomes):
        raise StudyAbortedError(
            f"{failed}/{len(outcomes)} replications failed "
            f"(limit {MAX_FAILURE_RATE:.0%}); aborting the study"
        )
    return summarize(outcomes)


@dataclass(frozen=True)
class ProbePoint:
    """One size's medians; the fields, in order, are the probe report's columns."""

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
    draw: str = "rows",
) -> ProbeTable:
    """Median criterion and sqrt(n)-scaled criterion of subset ``k`` per size.

    When the population criterion of ``k`` is zero the scaled medians stay
    bounded as n grows; when it is positive the raw medians stabilize at the
    population value.  Replication r at size n draws ``mix_seed(seed, n, r,
    STREAM_PROBE)`` in the study's blocks, which may span sizes
    (:func:`_reduced_blocks`); under ``draw="wishart"`` it draws its pair
    from its Wishart law on ``STREAM_WISHART_PROBE`` instead.  ``n_grid``
    and ``draw`` are checked by :func:`_sizes`, as a study's sample sizes
    are; ``reps`` and ``seed`` take integers (:func:`_int_arg`), and ``k``
    must be a subset of the model's p labels.
    """
    reps, seed = _int_arg("reps", reps), _int_arg("seed", seed)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if k.p != model.p:
        raise ValueError(f"subset {k.indices} is of p={k.p} labels, but the model has p={model.p}")
    n_grid = sorted(_sizes(n_grid, "n_grid", model, draw))
    blocks = _reduced_blocks(model, seed, STREAM_PROBE, n_grid, range(reps), draw)
    values = (xi for _, _, v1, v12 in blocks for xi in subset_criteria(v1, v12, k))
    points = []
    for n, row in zip(n_grid, np.fromiter(values, float, len(n_grid) * reps).reshape(-1, reps)):
        med = float(np.median(row))
        points.append(
            ProbePoint(n=n, median_scaled_criterion=math.sqrt(n) * med, median_criterion=med)
        )
    return ProbeTable(subset=k.indices, reps=reps, seed=seed, points=tuple(points))
