import math

import numpy as np
import pytest

import covsel.simulation
from covsel import (
    OLSFit,
    PenaltySchedule,
    PopulationModel,
    ReplicationOutcome,
    SimulationConfig,
    SingularDesignError,
    VariableSubset,
    benchmark_model,
    convergence_probe,
    empirical_covariances,
    merge_summaries,
    mix_seed,
    ols_fit,
    population_covariances,
    prediction_error,
    run_replication,
    run_study,
    sample_dataset,
    summarize,
)
from covsel.simulation import STREAM_TEST, STREAM_TRAIN, _rng

from _oracles import bruteforce_ols


def small_config(**overrides):
    defaults = dict(sample_sizes=(60,), replications=5, base_seed=42)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestSeedDerivation:
    def test_mix_is_deterministic(self):
        assert mix_seed(7, 100, 3, STREAM_TRAIN) == mix_seed(7, 100, 3, STREAM_TRAIN)

    def test_negative_base_seed_accepted(self):
        assert mix_seed(-1, 10, 0, 0) == mix_seed(-1, 10, 0, 0)

    def test_components_change_the_seed(self):
        base = mix_seed(7, 100, 3, 0)
        assert mix_seed(8, 100, 3, 0) != base
        assert mix_seed(7, 101, 3, 0) != base
        assert mix_seed(7, 100, 4, 0) != base
        assert mix_seed(7, 100, 3, 1) != base

    def test_train_and_test_streams_disjoint(self):
        train = _rng(mix_seed(7, 100, 3, STREAM_TRAIN))
        test = _rng(mix_seed(7, 100, 3, STREAM_TEST))
        assert not np.array_equal(
            train.integers(0, 2 ** 63, size=8), test.integers(0, 2 ** 63, size=8)
        )


class TestSampleDataset:
    def test_zero_noise_zero_coefficients_give_zero_response(self):
        m = PopulationModel(b=np.zeros((2, 3)), sigma=np.eye(3), noise_cov=np.zeros((2, 2)))
        data = sample_dataset(m, 50, seed=5)
        assert np.all(data.y == 0.0)

    def test_identity_sigma_sample_covariance(self):
        m = PopulationModel(b=np.zeros((2, 4)), sigma=np.eye(4), noise_cov=np.eye(2))
        data = sample_dataset(m, 100_000, seed=9)
        sample_cov = empirical_covariances(data).v1
        assert np.abs(sample_cov - np.eye(4)).max() < 0.05

    def test_benchmark_cross_covariance_matches_population(self, model):
        # worst entry has Var(X_i Y_j) ~ 241, so its sd at n=1e5 is ~0.049;
        # 0.15 is the corresponding 3-sigma entrywise bound
        data = sample_dataset(model, 100_000, seed=13)
        suite = empirical_covariances(data)
        target = population_covariances(model).v12
        assert np.abs(suite.v12 - target).max() < 0.15

    def test_deterministic_given_seed(self, model):
        a = sample_dataset(model, 25, seed=321)
        b = sample_dataset(model, 25, seed=321)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_draws_equal_explicit_factorization(self, model):
        # the factors cached on the model reproduce a Cholesky of sigma and a
        # spectral square root of noise_cov taken at draw time, bit for bit
        data = sample_dataset(model, 40, seed=99)
        rng = _rng(99)
        vals, vecs = np.linalg.eigh(model.noise_cov)
        root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        x = rng.standard_normal((40, model.p)) @ np.linalg.cholesky(model.sigma).T
        y = x @ model.b.T + rng.standard_normal((40, model.q)) @ root.T
        np.testing.assert_array_equal(data.x, x)
        np.testing.assert_array_equal(data.y, y)

    def test_rejects_empty_sample(self, model):
        with pytest.raises(ValueError, match="n >= 1"):
            sample_dataset(model, 0, seed=1)


class TestOlsFit:
    def test_noiseless_fit_recovers_coefficients(self):
        b = np.array([[2.0, 0.0, -1.0], [0.5, 0.0, 3.0]])
        sigma = np.eye(3)
        m = PopulationModel(b=b, sigma=sigma, noise_cov=np.zeros((2, 2)))
        data = sample_dataset(m, 200, seed=77)
        fit = ols_fit(data, (1, 3))
        np.testing.assert_allclose(fit.coef, b[:, [0, 2]], atol=1e-8)

    def test_duplicated_rows_leave_fit_unchanged(self, model):
        data = sample_dataset(model, 80, seed=2)
        from covsel import Dataset

        doubled = Dataset(x=np.tile(data.x, (2, 1)), y=np.tile(data.y, (2, 1)))
        a = ols_fit(data, (1, 4, 7))
        b = ols_fit(doubled, (1, 4, 7))
        np.testing.assert_allclose(a.coef, b.coef, rtol=1e-12)

    def test_matches_normal_equations_oracle(self, rng):
        from covsel import Dataset

        x = rng.standard_normal((20, 3))
        y = rng.standard_normal((20, 2))
        data = Dataset(x=x, y=y)
        fit = ols_fit(data, (1, 3))
        np.testing.assert_allclose(fit.coef, bruteforce_ols(x, y, (1, 3)), atol=1e-10)

    def test_singular_design_raises(self, rng):
        from covsel import Dataset

        x = rng.standard_normal((30, 2))
        x = np.column_stack([x, x[:, 0]])
        data = Dataset(x=x, y=rng.standard_normal((30, 2)))
        with pytest.raises(SingularDesignError):
            ols_fit(data, (1, 2, 3))

    def test_rejects_bad_selections(self, model):
        data = sample_dataset(model, 30, seed=1)
        with pytest.raises(ValueError, match="at least one"):
            ols_fit(data, ())
        with pytest.raises(ValueError, match="1..7"):
            ols_fit(data, (0, 3))
        with pytest.raises(ValueError, match="distinct"):
            ols_fit(data, (3, 3))


class TestPredictionError:
    def test_perfect_fit_gives_zero(self):
        from covsel import Dataset

        x = np.arange(12.0).reshape(6, 2)
        coef = np.array([[1.0, 2.0], [0.0, -1.0]])
        y = x @ coef.T
        err = prediction_error(Dataset(x=x, y=y), OLSFit(coef=coef, indices=(1, 2)))
        assert err == pytest.approx(0.0, abs=1e-20)

    def test_zero_fit_gives_mean_squared_response_norm(self, rng):
        from covsel import Dataset

        x = rng.standard_normal((9, 2))
        y = rng.standard_normal((9, 3))
        fit = OLSFit(coef=np.zeros((3, 1)), indices=(2,))
        err = prediction_error(Dataset(x=x, y=y), fit)
        assert err == pytest.approx(float(np.mean(np.sum(y * y, axis=1))))

    def test_rejects_out_of_range_indices(self, rng):
        from covsel import Dataset

        data = Dataset(x=rng.standard_normal((5, 2)), y=rng.standard_normal((5, 2)))
        with pytest.raises(ValueError, match="out of range"):
            prediction_error(data, OLSFit(coef=np.zeros((2, 1)), indices=(3,)))


class TestRunReplication:
    def test_bitwise_repeatable(self):
        cfg = small_config()
        a = run_replication(cfg, 60, 2)
        b = run_replication(cfg, 60, 2)
        assert a == b

    def test_records_expected_fields(self):
        cfg = small_config()
        out = run_replication(cfg, 60, 0)
        assert out.n == 60 and out.rep_index == 0
        assert out.seed == mix_seed(42, 60, 0, STREAM_TRAIN)
        assert out.failure is None
        assert out.selected and out.pred_error >= 0.0
        assert out.correct == (out.selected == (1, 4, 7))
        assert out.oracle_error >= 0.0
        assert math.isfinite(out.criterion_at_truth)

    def test_criterion_at_truth_matches_train_suite(self, model):
        cfg = small_config()
        out = run_replication(cfg, 60, 1)
        train = sample_dataset(model, 60, mix_seed(42, 60, 1, STREAM_TRAIN))
        suite = empirical_covariances(train)
        from covsel import criterion

        expected = criterion(suite, VariableSubset((1, 4, 7), 7))
        assert out.criterion_at_truth == expected


class TestRunStudy:
    def test_single_replication_summary_equals_outcome(self):
        cfg = small_config(replications=1)
        summary = run_study(cfg)
        (row,) = summary.rows
        (outcome,) = summary.outcomes
        assert row.mean_pred_error == outcome.pred_error
        assert row.sem_pred_error == 0.0
        assert row.correct_rate == float(outcome.correct)
        assert row.mean_oracle_error == outcome.oracle_error
        assert row.median_scaled_criterion == pytest.approx(
            math.sqrt(60) * outcome.criterion_at_truth
        )
        assert row.failures == 0

    def test_split_and_merged_studies_match_one_run(self):
        whole = run_study(small_config(replications=200))
        first = run_study(small_config(replications=100))
        second = run_study(small_config(replications=100, rep_offset=100))
        merged = merge_summaries(first, second)
        assert merged == whole

    def test_parallel_matches_sequential_bitwise(self):
        cfg = small_config(sample_sizes=(60, 90), replications=6)
        seq = run_study(cfg)
        par1 = run_study(SimulationConfig(**{**_as_dict(cfg), "parallel": True}), max_workers=4)
        par2 = run_study(SimulationConfig(**{**_as_dict(cfg), "parallel": True}), max_workers=2)
        assert seq == par1 == par2

    def test_summary_recomputable_from_outcomes(self):
        summary = run_study(small_config(sample_sizes=(60, 90), replications=4))
        assert summarize(summary.outcomes) == summary

    def test_aborts_when_too_many_replications_fail(self, monkeypatch):
        def failing(cfg, n, rep_index):
            return ReplicationOutcome(
                n=n,
                rep_index=rep_index,
                seed=0,
                selected=(),
                correct=False,
                pred_error=math.nan,
                oracle_error=math.nan,
                criterion_at_truth=math.nan,
                failure="SingularSubmatrixError",
            )

        monkeypatch.setattr(covsel.simulation, "run_replication", failing)
        with pytest.raises(RuntimeError, match="replications failed"):
            run_study(small_config())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="p \\+ 2"):
            small_config(sample_sizes=(5,))
        with pytest.raises(ValueError, match="replications"):
            small_config(replications=0)
        with pytest.raises(ValueError, match="non-empty"):
            small_config(sample_sizes=())

    def test_worker_count_env_var_and_override(self, monkeypatch):
        from covsel.simulation import WORKERS_ENV_VAR, _worker_count

        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert _worker_count(None) == 3
        assert _worker_count(7) == 7  # explicit argument wins
        monkeypatch.delenv(WORKERS_ENV_VAR)
        assert _worker_count(None) >= 1

    @pytest.mark.parametrize(
        "jobs, cpus, expected",
        [(100_000, 2, 2), (100_000, 64, 6), (3, 64, 3), (None, 1, 1)],
    )
    def test_pool_capped_by_tasks_and_cpus(self, monkeypatch, jobs, cpus, expected):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(covsel.simulation, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(covsel.simulation, "_available_cpus", lambda: cpus)
        monkeypatch.delenv(covsel.simulation.WORKERS_ENV_VAR, raising=False)
        cfg = small_config(sample_sizes=(30, 40), replications=3, parallel=True)
        summary = run_study(cfg, max_workers=jobs)
        assert sizes == [expected]
        assert sum(row.replications for row in summary.rows) == 6

    def test_correct_rate_non_decreasing_across_grid_within_noise(self):
        # with the default schedule the rates are uniformly (near) zero, so
        # the non-decreasing shape holds trivially; the 0.03 slack absorbs
        # sampling noise on the occasional small-n hit
        cfg = SimulationConfig(sample_sizes=(50, 100, 500, 2000), replications=50, base_seed=3)
        summary = run_study(cfg)
        rates = [summary.row_for(n).correct_rate for n in (50, 100, 500, 2000)]
        assert all(later >= earlier - 0.03 for earlier, later in zip(rates, rates[1:]))


def _as_dict(cfg: SimulationConfig) -> dict:
    return {
        "model": cfg.model,
        "sample_sizes": cfg.sample_sizes,
        "replications": cfg.replications,
        "pen": cfg.pen,
        "base_seed": cfg.base_seed,
        "parallel": cfg.parallel,
        "penalty_arg": cfg.penalty_arg,
        "rep_offset": cfg.rep_offset,
    }


class TestConvergenceProbe:
    def test_single_rep_fixed_seed_is_deterministic(self, model):
        k = VariableSubset((1, 4, 7), 7)
        a = convergence_probe(model, k, [100, 200], reps=1, seed=5)
        b = convergence_probe(model, k, [100, 200], reps=1, seed=5)
        assert a == b
        assert [pt.n for pt in a.points] == [100, 200]

    def test_scaled_and_raw_medians_consistent(self, model):
        k = VariableSubset((1, 4, 7), 7)
        table = convergence_probe(model, k, [150], reps=5, seed=8)
        (pt,) = table.points
        assert pt.median_scaled_criterion == pytest.approx(math.sqrt(150) * pt.median_criterion)

    def test_rejects_zero_reps(self, model):
        with pytest.raises(ValueError, match="reps"):
            convergence_probe(model, VariableSubset((1,), 7), [100], reps=0, seed=1)
