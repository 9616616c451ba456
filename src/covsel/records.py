"""The outcome records of a Monte Carlo study and their per-size summary.

A study keeps its replications as columns, one :class:`StudyRecords`,
about 57 bytes per replication at p = 7, with no object per replication;
indexing or iterating the records gives each replication as a
:class:`ReplicationOutcome`.  :func:`summarize` sorts the records by
(n, rep_index) with ``np.lexsort`` and takes each size's statistics from
its contiguous run of the sorted columns; :func:`merge_summaries`
concatenates the columns of several summaries and summarizes them again,
so a study split into ``rep_offset`` chunks merges to the unsplit one.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .covariance import SingularSubmatrixError


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


@dataclass(frozen=True, eq=False)
class StudyRecords(Sequence):
    """The outcome records of a set of replications, as columns, one entry
    per replication: ``n`` (int64), ``rep_index`` and ``seed`` (uint64),
    ``selected``, an (R, p) bool mask whose column i - 1 marks label i,
    ``correct`` and ``failed`` (bool), and ``pred_error``, ``oracle_error``
    and ``criterion_at_truth`` (float64), each field as
    :class:`ReplicationOutcome` describes it.  That is 57 bytes per
    replication at p = 7.  ``failed`` stands for the one failure code a
    replication records, ``"SingularSubmatrixError"``.

    The columns are made read-only.  Indexing or iterating yields each
    replication as a :class:`ReplicationOutcome` built on access, and a
    slice gives the records it covers; ``==`` compares the columns
    exactly, NaN equal to NaN and masks of two widths as the labels they
    mark.
    """

    n: np.ndarray
    rep_index: np.ndarray
    seed: np.ndarray
    selected: np.ndarray
    correct: np.ndarray
    pred_error: np.ndarray
    oracle_error: np.ndarray
    criterion_at_truth: np.ndarray
    failed: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            column = np.asarray(getattr(self, f.name), _COLUMN_TYPES[f.name])
            column.setflags(write=False)
            object.__setattr__(self, f.name, column)

    @classmethod
    def of(cls, outcomes) -> StudyRecords:
        """The records of an iterable of :class:`ReplicationOutcome`, in its
        order; the mask is as wide as the largest label selected."""
        outcomes = list(outcomes)
        width = max((max(o.selected) for o in outcomes if o.selected), default=0)
        selected = np.zeros((len(outcomes), width), bool)
        for j, o in enumerate(outcomes):
            selected[j, [i - 1 for i in o.selected]] = True
        columns = {
            f.name: [getattr(o, f.name) for o in outcomes]
            for f in fields(cls)
            if f.name not in ("selected", "failed")
        }
        failed = [o.failure is not None for o in outcomes]
        return cls(selected=selected, failed=failed, **columns)

    @classmethod
    def concat(cls, parts) -> StudyRecords:
        """The records of ``parts`` one after another."""
        width = max((part.selected.shape[1] for part in parts), default=0)
        columns = {
            f.name: np.concatenate([getattr(part, f.name) for part in parts])
            for f in fields(cls)
            if f.name != "selected"
        }
        selected = np.concatenate([_widened(part.selected, width) for part in parts])
        return cls(selected=selected, **columns)

    def take(self, at) -> StudyRecords:
        """The records at ``at`` (indices, a slice or a boolean mask), as new columns."""
        return StudyRecords(**{f.name: getattr(self, f.name)[at] for f in fields(self)})

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, j) -> ReplicationOutcome | StudyRecords:
        if isinstance(j, slice):
            return self.take(j)
        j = operator.index(j)
        failed = bool(self.failed[j])
        return ReplicationOutcome(
            n=int(self.n[j]),
            rep_index=int(self.rep_index[j]),
            seed=int(self.seed[j]),
            selected=tuple((np.flatnonzero(self.selected[j]) + 1).tolist()),
            correct=bool(self.correct[j]),
            pred_error=float(self.pred_error[j]),
            oracle_error=float(self.oracle_error[j]),
            criterion_at_truth=float(self.criterion_at_truth[j]),
            failure=SingularSubmatrixError.__name__ if failed else None,
        )

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        width = max(self.selected.shape[1], other.selected.shape[1])
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.name == "selected":
                a, b = _widened(a, width), _widened(b, width)
            if not np.array_equal(a, b, equal_nan=True):
                return False
        return True


_COLUMN_TYPES = {
    "n": np.int64,
    "rep_index": np.uint64,
    "seed": np.uint64,
    "selected": bool,
    "correct": bool,
    "pred_error": float,
    "oracle_error": float,
    "criterion_at_truth": float,
    "failed": bool,
}


def _widened(mask: np.ndarray, width: int) -> np.ndarray:
    """A selection mask (R, p) padded with False columns to (R, width)."""
    if mask.shape[1] == width:
        return mask
    return np.pad(mask, ((0, 0), (0, width - mask.shape[1])))


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
    """Per-size aggregate rows plus the outcome records they came from,
    ``outcomes``, a :class:`StudyRecords` sorted by (n, rep_index)."""

    rows: tuple[StudyRow, ...]
    outcomes: StudyRecords

    def row_for(self, n: int) -> StudyRow:
        for row in self.rows:
            if row.n == n:
                return row
        raise KeyError(f"no row for n={n}")


def summarize(outcomes) -> StudySummary:
    """Aggregate outcome records into per-size rows.

    ``outcomes`` is a :class:`StudyRecords` or any iterable of
    :class:`ReplicationOutcome`.  The records are sorted by (n, rep_index)
    first (``np.lexsort``, into new columns), so the result does not
    depend on the order replications finished in, and each size's
    statistics come from its contiguous run of the sorted columns.
    Failed replications are excluded from the statistics and counted in
    ``failures``; a size with no other replication keeps ``StudyRow``'s
    NaN statistics.  Two records of the same (n, rep_index), as
    overlapping ``rep_offset`` chunks give, raise ``ValueError``.
    """
    records = outcomes if isinstance(outcomes, StudyRecords) else StudyRecords.of(outcomes)
    records = records.take(np.lexsort((records.rep_index, records.n)))
    n, rep = records.n, records.rep_index
    same = np.flatnonzero((n[1:] == n[:-1]) & (rep[1:] == rep[:-1]))
    if len(same):
        j = same[0]
        raise ValueError(f"duplicate outcome records for n={n[j]}, rep_index={rep[j]}")
    excess = records.pred_error - records.oracle_error
    scaled = np.sqrt(n) * records.criterion_at_truth
    starts = np.flatnonzero(np.diff(n, prepend=-1)).tolist()
    rows = []
    for lo, hi in zip(starts, starts[1:] + [len(n)]):
        run, failures = slice(lo, hi), int(records.failed[lo:hi].sum())
        if failures:
            run = lo + np.flatnonzero(~records.failed[lo:hi])
        stats, ok = {}, hi - lo - failures
        if ok:
            errs = records.pred_error[run]
            sem = float(errs.std(ddof=1) / math.sqrt(ok)) if ok > 1 else 0.0
            stats = dict(
                mean_pred_error=float(errs.mean()),
                sem_pred_error=sem,
                correct_rate=int(records.correct[run].sum()) / ok,
                median_scaled_criterion=float(np.median(scaled[run])),
                mean_oracle_error=float(records.oracle_error[run].mean()),
                mean_excess_error=float(excess[run].mean()),
            )
        rows.append(StudyRow(n=int(n[lo]), replications=hi - lo, failures=failures, **stats))
    return StudySummary(rows=tuple(rows), outcomes=records)


def merge_summaries(*summaries: StudySummary) -> StudySummary:
    """Re-aggregate the union of the outcome records of several summaries,
    their columns concatenated; a replication recorded in two of them
    raises ``ValueError``."""
    return summarize(StudyRecords.concat([s.outcomes for s in summaries]))
