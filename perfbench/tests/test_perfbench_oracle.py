"""The benchmark's NumPy oracle agrees with covsel where covsel is trusted.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
"""

import itertools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from covsel import (  # noqa: E402
    Dataset,
    PenaltySchedule,
    VariableSubset,
    benchmark_model,
    criterion,
    population_covariances,
    select_variables,
)


def test_oracle_xi_matches_criterion_on_every_population_subset():
    suite = population_covariances(benchmark_model())
    v1, v12 = np.asarray(suite.v1), np.asarray(suite.v12)
    scale = float(np.linalg.norm(v12))
    for size in range(1, 8):
        for labels in itertools.combinations(range(1, 8), size):
            want = criterion(suite, VariableSubset.of(labels, 7))
            assert oracle.close(oracle.xi(v1, v12, labels), want, scale), labels


def test_oracle_selection_matches_select_variables_on_both_workload_settings():
    b, sigma, noise, truth = workloads.wide_model(seed=11)
    x, y = workloads.draw(b, sigma, noise, 2000, np.random.default_rng(1))
    got = select_variables(Dataset(x, y), PenaltySchedule(g_rate=workloads.WIDE_G_RATE), penalty_arg="rank")
    ref = oracle.selection(x, y, 0.25, workloads.WIDE_G_RATE, "reciprocal", "linear", "rank")
    assert oracle.mismatches(got.phi, got.sigma_hat, got.psi, got.selected, ref) == []
    assert ref["selected"] == truth

    model = benchmark_model()
    x, y = workloads.draw(model.b, model.sigma, model.noise_cov, 500, np.random.default_rng(2))
    got = select_variables(Dataset(x, y), PenaltySchedule(), penalty_arg="label")
    ref = oracle.selection(x, y, 0.25, 0.75, "reciprocal", "linear", "label")
    assert oracle.mismatches(got.phi, got.sigma_hat, got.psi, got.selected, ref) == []


def test_oracle_flags_a_perturbed_result():
    model = benchmark_model()
    x, y = workloads.draw(model.b, model.sigma, model.noise_cov, 300, np.random.default_rng(3))
    ref = oracle.selection(x, y, 0.25, 0.75, "reciprocal", "linear", "rank")
    psi = ref["psi"].copy()
    psi[2] *= 1 + 1e-6
    assert oracle.mismatches(ref["phi"], ref["sigma_hat"], psi, ref["selected"], ref) == ["psi"]
