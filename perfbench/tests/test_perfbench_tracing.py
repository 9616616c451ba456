"""Tests of the benchmark's span arithmetic and function wrapping.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import covsel  # noqa: E402
from covsel import selection, simulation  # noqa: E402
from tracing import Span, Tracer, layer_stats, self_times  # noqa: E402

MAIN, POOL_A, POOL_B = 1, 2, 3


def span(sid, parent, name, start, end, thread=MAIN, cpu_ns=None, extra=None, error=None):
    return Span(sid, parent, name, start, end, thread, cpu_ns, extra, error)


@pytest.fixture
def pooled_study():
    """A run_study span [0, 100] whose replications run on two pool threads.

    Replications overlap each other: [10, 60] and [50, 90] on one thread
    each, so their union covers 80 of the study's 100 units.  Each
    replication has one criterion child.
    """
    return [
        span(1, None, "simulation.run_study", 0, 100),
        span(2, 1, "simulation.run_replication", 10, 60, POOL_A, cpu_ns=30, extra=0.0),
        span(3, 1, "simulation.run_replication", 50, 90, POOL_B, cpu_ns=20, extra=1.0),
        span(4, 2, "covariance.criterion", 20, 40, POOL_A, extra=27.0),
        span(5, 3, "covariance.criterion", 55, 65, POOL_B, extra=8.0),
        span(6, 1, "simulation.summarize", 92, 98),
    ]


def test_self_time_merges_overlapping_pool_children(pooled_study):
    own = self_times(pooled_study)
    # children of the study cover [10, 90] and [92, 98]: 86 units
    assert own[1] == 100 - 86
    assert own[2] == 50 - 20
    assert own[3] == 40 - 10
    assert own[4] == 20 and own[5] == 10 and own[6] == 6


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, None, "a", 10, 20), span(2, 1, "b", 5, 15), span(3, 1, "c", 18, 30)]
    assert self_times(spans)[1] == 10 - 5 - 2


def test_layer_stats_per_pass_and_ratios(pooled_study):
    out = layer_stats(pooled_study, passes=2)
    assert out["covariance.criterion.calls"] == 1.0
    assert out["covariance.criterion.self_s"] == pytest.approx(30 / 1e9 / 2)
    assert out["covariance.criterion.us_per_call"] == pytest.approx(15 / 1e3)
    assert out["covariance.criterion.subset_k3"] == 35 / 2
    assert out["simulation.run_replication.failed"] == 0.5
    assert out["simulation.run_study.self_s"] == pytest.approx(14 / 1e9 / 2)
    # thread CPU of replications over (2 workers x 100 units of study wall)
    assert out["simulation.run_study.worker_busy_frac"] == pytest.approx(50 / 200)
    assert out["simulation.run_study.workers"] == 2
    assert out["io.parse_dataset_csv.mb_per_s"] == 0.0
    with pytest.raises(ValueError):
        layer_stats(pooled_study, passes=0)


def test_wrappers_record_nesting_and_are_removed():
    data = simulation.sample_dataset(simulation.benchmark_model(), 200, seed=5)
    originals = {
        "selection.criterion": selection.criterion,
        "simulation.select_variables": simulation.select_variables,
        "covsel.criterion": covsel.criterion,
    }
    expected = selection.select_variables(data)

    tracer = Tracer()
    tracer.install()
    try:
        assert selection.criterion is not originals["selection.criterion"]
        assert covsel.criterion is not originals["covsel.criterion"]
        got = selection.select_variables(data)
    finally:
        tracer.remove()

    assert tracer.leftover_wrappers() == []
    assert selection.criterion is originals["selection.criterion"]
    assert simulation.select_variables is originals["simulation.select_variables"]
    assert covsel.criterion is originals["covsel.criterion"]
    np.testing.assert_array_equal(got.psi, expected.psi)

    by_id = {s.sid: s for s in tracer.spans}
    crit = [s for s in tracer.spans if s.name == "covariance.criterion"]
    assert len(crit) == 2 * data.p
    assert {by_id[s.parent].name for s in crit} == {"selection.phi_scores", "selection.psi_scores"}
    root = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in root] == ["selection.select_variables"]
    # leave-one-out subsets have 6 labels, rank prefixes 1..7
    assert sum(s.extra for s in crit) == 7 * 6**3 + sum(i**3 for i in range(1, 8))


def test_pool_thread_spans_attach_to_run_study():
    cfg = simulation.SimulationConfig(sample_sizes=(20,), replications=6, parallel=True)
    tracer = Tracer()
    tracer.install()
    try:
        simulation.run_study(cfg, max_workers=2)
    finally:
        tracer.remove()
    study = [s for s in tracer.spans if s.name == "simulation.run_study"]
    reps = [s for s in tracer.spans if s.name == "simulation.run_replication"]
    assert len(study) == 1 and len(reps) == 6
    assert all(s.parent == study[0].sid for s in reps)
    assert all(s.thread != study[0].thread for s in reps)
    assert all(s.cpu_ns is not None and s.cpu_ns > 0 for s in reps)
    out = layer_stats(tracer.spans, passes=1)
    assert 0 < out["simulation.run_study.worker_busy_frac"] <= 1.0
