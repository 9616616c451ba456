import dataclasses
import itertools
import math
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import covsel.covariance
import covsel.selection
import covsel.simulation
from covsel import (
    Dataset,
    OLSFit,
    PenaltySchedule,
    PopulationModel,
    SimulationConfig,
    SingularSubmatrixError,
    StudyRecords,
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
from covsel.io import emit_report, load_simulation_config, parse_dataset_csv, write_dataset_csv
from covsel.simulation import STREAM_PROBE, STREAM_TEST, STREAM_TRAIN, _rng

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


_STREAMS = st.sampled_from([STREAM_TRAIN, STREAM_TEST, STREAM_PROBE])


def _seed_sequence_key(seed):
    """The Philox key ``Philox(SeedSequence(seed))`` takes."""
    return np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist()


class TestStreamKeys:
    @settings(max_examples=300, deadline=None)
    @given(
        base=st.integers(-(2 ** 70), 2 ** 70),
        pairs=st.lists(
            st.tuples(st.integers(0, 2 ** 40), st.integers(0, 2 ** 40)), min_size=1, max_size=8
        ),
        stream=_STREAMS,
    )
    def test_block_derivation_equals_seed_sequence(self, base, pairs, stream):
        sizes, reps = [n for n, _ in pairs], [rep for _, rep in pairs]
        seeds, keys = covsel.simulation._stream_keys(base, sizes, reps, stream)
        assert seeds == [mix_seed(base, n, rep, stream) for n, rep in pairs]
        assert keys == [_seed_sequence_key(s) for s in seeds]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=8))
    def test_keys_of_any_64_bit_seed(self, seeds):
        # derived seeds below 2**32 (one entropy word) are rare; cover them here
        keys = covsel.simulation._seed_sequence_words([seeds], len(seeds), 2)
        assert keys.tolist() == [_seed_sequence_key(s) for s in seeds]

    @settings(max_examples=100, deadline=None)
    @given(base=st.integers(-(2 ** 70), 2 ** 70), rep=st.integers(0, 2 ** 40), stream=_STREAMS)
    def test_keyed_generator_draws_the_bits_of_the_seeded_one(self, base, rep, stream):
        (seed,), (key,) = covsel.simulation._stream_keys(base, [60], [rep], stream)
        gen = _rng(1)
        gen.integers(0, 2 ** 32, size=3, dtype=np.uint32)  # leave a buffered half word
        covsel.simulation._keyed(gen, key)
        ref = _rng(seed)
        assert gen.standard_normal(61).tobytes() == ref.standard_normal(61).tobytes()
        assert gen.integers(0, 2 ** 32, size=3, dtype=np.uint32).tolist() == ref.integers(
            0, 2 ** 32, size=3, dtype=np.uint32
        ).tolist()


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
        doubled = Dataset(x=np.tile(data.x, (2, 1)), y=np.tile(data.y, (2, 1)))
        a = ols_fit(data, (1, 4, 7))
        b = ols_fit(doubled, (1, 4, 7))
        np.testing.assert_allclose(a.coef, b.coef, rtol=1e-12)

    def test_matches_normal_equations_oracle(self, rng):
        # the oracle fits the design [1 | x_K]
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal((20, 2))
        data = Dataset(x=x, y=y)
        fit = ols_fit(data, (1, 3))
        intercept, coef = bruteforce_ols(x, y, (1, 3))
        np.testing.assert_allclose(fit.coef, coef, atol=1e-10)
        np.testing.assert_allclose(fit.intercept, intercept, atol=1e-10)

    def test_shifted_data_moves_only_the_intercept(self, rng):
        x = rng.standard_normal((40, 4))
        y = rng.standard_normal((40, 3))
        a, c = np.array([5.0, -3.0, 0.5, 12.0]), np.array([-7.0, 2.0, 40.0])
        plain = ols_fit(Dataset(x=x, y=y), (2, 4))
        shifted = ols_fit(Dataset(x=x + a, y=y + c), (2, 4))
        np.testing.assert_allclose(shifted.coef, plain.coef, atol=1e-10)
        moved = plain.intercept + c - plain.coef @ a[[1, 3]]
        np.testing.assert_allclose(shifted.intercept, moved, atol=1e-10)

    def test_singular_design_raises(self, rng):
        x = rng.standard_normal((30, 2))
        x = np.column_stack([x, x[:, 0]])
        data = Dataset(x=x, y=rng.standard_normal((30, 2)))
        with pytest.raises(SingularSubmatrixError) as info:
            ols_fit(data, (1, 2, 3))
        assert info.value.indices == (1, 2, 3)

    def test_rejects_bad_selections(self, model):
        data = sample_dataset(model, 30, seed=1)
        with pytest.raises(ValueError, match="at least one"):
            ols_fit(data, ())
        with pytest.raises(ValueError, match="1..7"):
            ols_fit(data, (0, 3))
        with pytest.raises(ValueError, match="distinct"):
            ols_fit(data, (3, 3))

    @pytest.mark.parametrize("label", [1.5, 1.0, True, "1"])
    def test_rejects_a_label_that_is_not_an_integer_naming_it(self, model, label):
        # int() would fit 1.5 and True as the label 1
        data = sample_dataset(model, 30, seed=1)
        with pytest.raises(ValueError, match=f"^subset labels must be integers, got {label!r}$"):
            ols_fit(data, [label, 4])
        assert ols_fit(data, [np.int64(1), 4]) == ols_fit(data, (1, 4))

    def test_rejects_labels_that_are_not_an_iterable_naming_them(self, model):
        data = sample_dataset(model, 30, seed=1)
        message = "^subset labels must be an iterable of integers, got 3$"
        with pytest.raises(ValueError, match=message):
            ols_fit(data, 3)


class TestPredictionError:
    def test_perfect_fit_gives_zero(self):
        x = np.arange(12.0).reshape(6, 2)
        coef = np.array([[1.0, 2.0], [0.0, -1.0]])
        y = x @ coef.T
        err = prediction_error(Dataset(x=x, y=y), OLSFit(coef=coef, indices=(1, 2)))
        assert err == pytest.approx(0.0, abs=1e-20)

    def test_zero_fit_gives_mean_squared_response_norm(self, rng):
        x = rng.standard_normal((9, 2))
        y = rng.standard_normal((9, 3))
        fit = OLSFit(coef=np.zeros((3, 1)), indices=(2,))
        err = prediction_error(Dataset(x=x, y=y), fit)
        assert err == pytest.approx(float(np.mean(np.sum(y * y, axis=1))))

    def test_rejects_out_of_range_indices(self, rng):
        data = Dataset(x=rng.standard_normal((5, 2)), y=rng.standard_normal((5, 2)))
        with pytest.raises(ValueError, match="out of range"):
            prediction_error(data, OLSFit(coef=np.zeros((2, 1)), indices=(3,)))

    def test_rejects_a_fit_for_another_response_count(self, rng):
        data = Dataset(x=rng.standard_normal((5, 2)), y=rng.standard_normal((5, 4)))
        with pytest.raises(ValueError, match="q=1 responses, test data has q=4"):
            prediction_error(data, OLSFit(coef=np.ones((1, 1)), indices=(1,)))

    @pytest.mark.parametrize(
        "coef, intercept, match",
        [
            (np.zeros((2, 3)), 0.0, r"coef must be \(q, 2\)"),
            (np.zeros(2), 0.0, r"coef must be \(q, 2\)"),
            (np.zeros((3, 2)), np.zeros(2), r"intercept must be a scalar or \(3,\)"),
            (np.zeros((3, 2)), np.zeros((1, 3)), r"intercept must be a scalar or \(3,\)"),
        ],
    )
    def test_fit_shapes_are_checked(self, coef, intercept, match):
        with pytest.raises(ValueError, match=match):
            OLSFit(coef=coef, indices=(1, 2), intercept=intercept)


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

    def test_does_not_recompute_relevant_set(self, monkeypatch):
        cfg = small_config()
        expected = run_replication(cfg, 60, 3)

        def forbidden(b):
            raise AssertionError("relevant_set called during a replication")

        monkeypatch.setattr(covsel.covariance, "relevant_set", forbidden)
        monkeypatch.setattr(covsel.simulation, "relevant_set", forbidden, raising=False)
        assert run_replication(cfg, 60, 3) == expected

    @pytest.mark.parametrize("n", [-3, 0, 1])
    def test_rejects_fewer_than_two_observations(self, model, n):
        # the block sampler's one check, for the replication and the probe
        match = f"^need n >= 2 observations to estimate covariances, got {n}$"
        with pytest.raises(ValueError, match=match):
            run_replication(small_config(), n, 0)
        with pytest.raises(ValueError, match=match):
            convergence_probe(model, VariableSubset((1,), 7), [n, 60], reps=2, seed=1)

    @pytest.mark.parametrize("rep_index", [-1, 1 << 64])
    def test_rejects_a_replication_index_outside_64_bits(self, rep_index):
        with pytest.raises(ValueError, match=r"^rep_index must lie in \[0, 2\*\*64\)"):
            run_replication(small_config(), 60, rep_index)

    def test_extreme_indices_and_sizes_below_p_plus_2_run(self):
        cfg = small_config()
        assert run_replication(cfg, 60, (1 << 64) - 1).seed == mix_seed(
            42, 60, (1 << 64) - 1, STREAM_TRAIN
        )
        # three rows for seven predictors: V1 is singular, the replication fails
        assert run_replication(cfg, 3, 0).failure == "SingularSubmatrixError"

    def test_overflowing_sample_is_a_failed_replication(self):
        # sums of squares of x overflow to inf: no certificate, no suite
        model = PopulationModel(b=np.zeros((2, 3)), sigma=1e307 * np.eye(3), noise_cov=np.eye(2))
        cfg = SimulationConfig(model=model, sample_sizes=(50,), replications=3)
        for rep in range(3):
            out = run_replication(cfg, 50, rep)
            assert out.failure == "SingularSubmatrixError" and out.selected == ()
            assert math.isnan(out.pred_error) and math.isnan(out.criterion_at_truth)
        with pytest.raises(covsel.simulation.StudyAbortedError, match="^3/3 replications failed"):
            run_study(cfg)


class TestRunStudy:
    def test_estimates_covariances_once_per_replication(self, monkeypatch):
        # the engine estimates a chunk's training suites in one stacked call
        # of its covariance kernel; count the samples each call covers
        real = covsel.covariance.joined_covariance_pairs
        calls = []

        def counting(z, p):
            calls.extend([z.shape[-2]] * (z.shape[0] if z.ndim == 3 else 1))
            return real(z, p)

        def forbidden(data):
            raise AssertionError("empirical_covariances called during a study")

        monkeypatch.setattr(covsel.simulation, "joined_covariance_pairs", counting)
        monkeypatch.setattr(covsel.selection, "empirical_covariances", forbidden)
        run_study(small_config(sample_sizes=(60, 90), replications=4))
        assert sorted(calls) == [60] * 4 + [90] * 4

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

    def test_summary_recomputable_from_outcomes(self):
        summary = run_study(small_config(sample_sizes=(60, 90), replications=4))
        assert summarize(summary.outcomes) == summary

    def test_aborts_when_too_many_replications_fail(self):
        # a near-singular sigma makes every replication fail on a singular
        # block, in the per-block checks of select_from_suite, which the
        # engine hands every uncertified V1
        model = PopulationModel(
            b=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
            sigma=np.array([[1.0, 1 - 1e-15, 0.0], [1 - 1e-15, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            noise_cov=0.5 * np.eye(2),
        )
        with pytest.raises(RuntimeError, match="replications failed"):
            run_study(small_config(model=model))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="p \\+ 2"):
            small_config(sample_sizes=(5,))
        with pytest.raises(ValueError, match="replications"):
            small_config(replications=0)
        with pytest.raises(ValueError, match="non-empty"):
            small_config(sample_sizes=())

    def test_replication_indices_are_bounded(self):
        with pytest.raises(ValueError, match="^rep_offset must be >= 0$"):
            small_config(rep_offset=-1)
        with pytest.raises(ValueError, match=r"^replication indices must stay below 2\*\*64$"):
            small_config(rep_offset=2**64 - 1, replications=2)

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (SimulationConfig, "sample_sizes", (50.9, 60)),
            (SimulationConfig, "sample_sizes", (True, 60)),
            (SimulationConfig, "base_seed", 1.5),
            (SimulationConfig, "base_seed", np.bool_(True)),
            (SimulationConfig, "replications", True),
            (SimulationConfig, "replications", 2.5),
            (SimulationConfig, "rep_offset", False),
            (SimulationConfig, "rep_offset", "3"),
            (PenaltySchedule, "f_rate", "0.3"),
            (PenaltySchedule, "f_rate", True),
            (PenaltySchedule, "g_rate", np.bool_(True)),
            (PenaltySchedule, "g_rate", None),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else repr(v),
    )
    def test_mistyped_fields_are_rejected_naming_them(self, cls, field, value):
        message = f"^{field} must be (an integer|integers|a real number),"
        with pytest.raises(ValueError, match=message):
            cls(**{field: value})

    def test_numpy_integers_are_accepted_as_ints(self):
        cfg = small_config(
            sample_sizes=(np.int64(60), np.uint16(90)),
            replications=np.int32(3),
            base_seed=np.uint64(2**63),
            rep_offset=np.int8(1),
        )
        plain = small_config(sample_sizes=(60, 90), replications=3, base_seed=2**63, rep_offset=1)
        assert [type(v) for v in (*cfg.sample_sizes, cfg.replications, cfg.base_seed)] == [int] * 4
        assert type(cfg.rep_offset) is int
        assert run_study(cfg) == run_study(plain)

    def test_correct_rate_non_decreasing_across_grid_within_noise(self):
        # with the default schedule the rates are uniformly (near) zero, so
        # the non-decreasing shape holds trivially; the 0.03 slack absorbs
        # sampling noise on the occasional small-n hit
        cfg = SimulationConfig(sample_sizes=(50, 100, 500, 2000), replications=50, base_seed=3)
        summary = run_study(cfg)
        rates = [summary.row_for(n).correct_rate for n in (50, 100, 500, 2000)]
        assert all(later >= earlier - 0.03 for earlier, later in zip(rates, rates[1:]))


def _bits(outcomes):
    """Outcomes as text that differs whenever a bit does (repr round-trips
    floats and shows NaN, which == cannot compare)."""
    return [repr(dataclasses.astuple(o)) for o in outcomes]


def _drawing(monkeypatch):
    """Record each draw as (thread name, (n, seeds)).  The calling thread
    pauses before each of its draws, so a helper thread, where one runs,
    always takes some of the chunks."""
    draws = []
    real = covsel.simulation._draw

    def draw(model, n, seeds, buffers=None, keys=None):
        thread = threading.current_thread()
        if thread is threading.main_thread():
            time.sleep(0.002)
        draws.append((thread.name, (n, tuple(seeds))))
        return real(model, n, seeds, buffers, keys)

    monkeypatch.setattr(covsel.simulation, "_draw", draw)
    return draws


def _with_chunk_size(monkeypatch, n, size):
    monkeypatch.setattr(covsel.simulation, "ROW_BUDGET", n * size)


def _corrupting_draw(monkeypatch, target_seed, corrupt):
    """Apply ``corrupt`` to the training x drawn from ``target_seed``,
    whichever chunk it is drawn in."""
    real = covsel.simulation._draw

    def draw(model, n, seeds, buffers=None, keys=None):
        x, y = real(model, n, seeds, buffers, keys)
        for r, seed in enumerate(seeds):
            if seed == target_seed:
                corrupt(x[r])
        return x, y

    monkeypatch.setattr(covsel.simulation, "_draw", draw)


# Corruptions of one training x, with the failure code each gives.
_CORRUPTIONS = [
    # a copied column makes V1 singular: no certificate, selected alone by
    # select_from_suite, whose per-block check fails
    (lambda x: x.__setitem__((slice(None), 1), x[:, 0]), "SingularSubmatrixError"),
    # a huge mean on variable 2: the refits come from the centered
    # covariances, so the replication succeeds (on a perturbed V1)
    (lambda x: x.__setitem__((slice(None), 1), x[:, 1] + 1e8), None),
]


class TestChunkEngine:
    def test_chunk_size_does_not_change_outcomes(self, monkeypatch):
        cfg = small_config(sample_sizes=(60, 90), replications=20)
        runs = {}
        for size in (1, 7, 20):
            _with_chunk_size(monkeypatch, 60, size)
            runs[size] = _bits(run_study(cfg).outcomes)
        assert runs[1] == runs[7] == runs[20]

    def test_default_budget_bounds_the_chunk(self, monkeypatch):
        # every draw as (n, replications drawn), and every seed it drew from;
        # on one CPU, so that no helper thread interleaves the draws
        monkeypatch.setattr(covsel.simulation, "_usable_cpus", lambda: 1)
        cfg = small_config(sample_sizes=(60, 3000), replications=40)
        keys = [(n, rep) for n in (60, 3000) for rep in range(40)]
        train = {mix_seed(42, n, rep, STREAM_TRAIN) for n, rep in keys}
        test = {mix_seed(42, n, rep, STREAM_TEST) for n, rep in keys}
        draws, drawn = [], set()
        real = covsel.simulation._draw

        def recording(model, n, seeds, buffers=None, keys=None):
            draws.append((n, len(seeds)))
            drawn.update(seeds)
            return real(model, n, seeds, buffers, keys)

        monkeypatch.setattr(covsel.simulation, "_draw", recording)
        run_study(cfg)
        # a chunk never crosses a block
        per_chunk = min(covsel.simulation.ROW_BUDGET // 60, covsel.simulation.BLOCK_REPLICATIONS)
        # a size above the budget draws one replication at a time
        expected = [(60, per_chunk), (60, 40 - per_chunk)] + [(3000, 1)] * 40
        assert draws == expected
        # training rows only: the refits are scored by their exact risk
        assert drawn == train
        assert not drawn & test

    def test_helper_thread_draws_the_same_chunks(self, monkeypatch):
        # the chunks of the ordered test above, as (n, seeds), on one thread
        # and on two, where the calling thread and the helper interleave them
        cfg = small_config(sample_sizes=(60, 3000), replications=40)
        draws, runs, outcomes = _drawing(monkeypatch), {}, {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for cpus in (1, 2):
                monkeypatch.setattr(covsel.simulation, "_usable_cpus", lambda: cpus)
                draws.clear()
                outcomes[cpus] = _bits(run_study(cfg).outcomes)
                runs[cpus] = list(draws)
        finally:
            sys.setswitchinterval(interval)
        assert {name for name, _ in runs[2]} == {"MainThread", "covsel-draw"}
        assert sorted(chunk for _, chunk in runs[1]) == sorted(chunk for _, chunk in runs[2])
        assert outcomes[1] == outcomes[2]

    @pytest.mark.parametrize("corrupt, failure", _CORRUPTIONS)
    def test_failing_replication_is_finished_alone(self, monkeypatch, corrupt, failure):
        cfg = small_config(replications=12)
        monkeypatch.setattr(covsel.simulation, "MAX_FAILURE_RATE", 1.0)
        clean = _bits(run_study(cfg).outcomes)
        target = 5
        _corrupting_draw(monkeypatch, mix_seed(42, 60, target, STREAM_TRAIN), corrupt)
        runs = {}
        for size in (1, 7):
            _with_chunk_size(monkeypatch, 60, size)
            runs[size] = run_study(cfg).outcomes
        assert _bits(runs[1]) == _bits(runs[7])
        assert [o.failure for o in runs[7]] == [None] * target + [failure] + [None] * 6
        del clean[target]
        assert _bits(o for i, o in enumerate(runs[7]) if i != target) == clean

    @pytest.mark.parametrize("corrupt, failure", _CORRUPTIONS)
    def test_each_training_seed_is_drawn_once(self, monkeypatch, corrupt, failure):
        # a failing replication is finished from its block's reductions
        cfg = small_config(replications=12)
        monkeypatch.setattr(covsel.simulation, "MAX_FAILURE_RATE", 1.0)
        target = 5
        _corrupting_draw(monkeypatch, mix_seed(42, 60, target, STREAM_TRAIN), corrupt)
        corrupting = covsel.simulation._draw
        drawn = []

        def recording(model, n, seeds, buffers=None, keys=None):
            drawn.extend(seeds)
            return corrupting(model, n, seeds, buffers, keys)

        monkeypatch.setattr(covsel.simulation, "_draw", recording)
        outcomes = run_study(cfg).outcomes
        assert outcomes[target].failure == failure
        assert sorted(drawn) == sorted(mix_seed(42, 60, rep, STREAM_TRAIN) for rep in range(12))

    def test_rep_offset_splits_across_chunk_boundaries_merge(self, monkeypatch):
        _with_chunk_size(monkeypatch, 60, 7)
        whole = run_study(small_config(replications=30))
        parts = [
            run_study(small_config(replications=hi - lo, rep_offset=lo))
            for lo, hi in ((0, 10), (10, 23), (23, 30))
        ]
        assert merge_summaries(*parts) == whole

    def test_a_single_replication_allocates_one_buffer_set(self, monkeypatch):
        # two CPUs, where a study of two replications allocates a set per thread
        monkeypatch.setattr(covsel.simulation, "_usable_cpus", lambda: 2)
        real, rows = covsel.simulation._draw_buffers, []

        def counting(model, n):
            rows.append(n)
            return real(model, n)

        monkeypatch.setattr(covsel.simulation, "_draw_buffers", counting)
        cfg = small_config(sample_sizes=(4000,), replications=2)
        run_replication(cfg, 4000, 1)
        assert rows == [4000]
        rows.clear()
        run_study(cfg)
        assert rows == [4000, 4000]

    def test_replication_matches_single_dataset_functions(self, model):
        cfg = small_config()
        out = run_replication(cfg, 60, 4)
        train = sample_dataset(model, 60, mix_seed(42, 60, 4, STREAM_TRAIN))
        suite = empirical_covariances(train)
        result = covsel.selection.select_from_suite(suite, 60, cfg.pen)
        assert out.selected == result.selected
        assert out.pred_error == model.risk(ols_fit(train, out.selected).padded(model.p))
        assert out.oracle_error == model.risk(ols_fit(train, (1, 4, 7)).padded(model.p))

    def test_study_refits_are_ols_fit_bit_for_bit(self, model):
        cfg = small_config(replications=40)
        for out in run_study(cfg).outcomes:
            train = sample_dataset(model, 60, out.seed)
            assert out.pred_error == model.risk(ols_fit(train, out.selected).padded(model.p))
            assert out.oracle_error == model.risk(ols_fit(train, (1, 4, 7)).padded(model.p))

    def test_stacked_selection_matches_single_suites(self, model):
        # one sample size for the whole stack, then one size per suite
        for n, sizes in ((80, [80] * 9), ([60, 60, 80, 80, 80, 200, 200, 2000, 2000],) * 2):
            suites = [empirical_covariances(sample_dataset(model, m, seed)) for seed, m in enumerate(sizes)]
            v1 = np.stack([s.v1 for s in suites])
            v12 = np.stack([s.v12 for s in suites])
            for arg in ("label", "rank"):
                pen = PenaltySchedule(g_rate=0.4, penalty_arg=arg)
                phi, sigma, psi, s_hat = covsel.selection.rank_and_cut(v1, v12, n, pen)
                for i, suite in enumerate(suites):
                    one = covsel.selection.select_from_suite(suite, sizes[i], pen)
                    assert phi[i].tobytes() == one.phi.tobytes()
                    assert sigma[i].tolist() == one.sigma_hat.tolist()
                    assert psi[i].tobytes() == one.psi.tobytes()
                    assert s_hat[i] == one.s_hat


def _with_block_size(monkeypatch, size):
    monkeypatch.setattr(covsel.simulation, "BLOCK_REPLICATIONS", size)


class TestBlocks:
    def test_block_size_does_not_change_outcomes(self, monkeypatch):
        cfg = small_config(sample_sizes=(60, 90), replications=40)
        runs = {}
        # 40: one block holding every replication
        for size in (1, 7, 32, 40):
            _with_block_size(monkeypatch, size)
            runs[size] = _bits(run_study(cfg).outcomes)
        assert runs[1] == runs[7] == runs[32] == runs[40]

    @pytest.mark.parametrize("corrupt, failure", _CORRUPTIONS)
    def test_failing_replication_mid_block_is_finished_in_its_block(
        self, monkeypatch, corrupt, failure
    ):
        # replication 5 sits in the middle of the block [0, 12) and of [0, 7)
        cfg = small_config(replications=12)
        monkeypatch.setattr(covsel.simulation, "MAX_FAILURE_RATE", 1.0)
        clean = _bits(run_study(cfg).outcomes)
        target = 5
        _corrupting_draw(monkeypatch, mix_seed(42, 60, target, STREAM_TRAIN), corrupt)
        alone = run_replication(cfg, 60, target)
        runs = {}
        for size in (7, 12):
            _with_block_size(monkeypatch, size)
            runs[size] = run_study(cfg).outcomes
        assert _bits(runs[7]) == _bits(runs[12])
        assert alone.failure == failure
        assert _bits([runs[12][target]]) == _bits([alone])
        del clean[target]
        assert _bits(o for i, o in enumerate(runs[12]) if i != target) == clean

    def test_rep_offset_split_across_a_block_boundary_merges(self):
        # the parts' blocks start at 0, 20 and 45; the whole study's at 0, 32 and 64
        whole = run_study(small_config(replications=70))
        parts = [
            run_study(small_config(replications=hi - lo, rep_offset=lo))
            for lo, hi in ((0, 20), (20, 45), (45, 70))
        ]
        assert merge_summaries(*parts) == whole

    def test_paper_study_selects_once_per_block(self, monkeypatch):
        cfg = load_simulation_config(Path(__file__).resolve().parent.parent / "paper.config")
        cfg = dataclasses.replace(cfg, replications=10)
        calls = []
        real = covsel.simulation.rank_and_cut

        def counting(*args):
            calls.append(args[0].shape[0])
            return real(*args)

        monkeypatch.setattr(covsel.simulation, "rank_and_cut", counting)
        run_study(cfg)
        # blocks span sample sizes: all 60 replications fit in one block
        # (blocks per size would make 6 calls, chunks of the row budget 25)
        assert calls == [60]

    @pytest.mark.parametrize("draw", ["wishart", "rows"])
    def test_paper_study_report_does_not_depend_on_the_block_size(
        self, monkeypatch, tmp_path, draw
    ):
        # blocks of 1, of one size's 10 replications, the former default 32,
        # the default and all 60
        cfg = dataclasses.replace(_paper_config_cut_to_10(), draw=draw)
        reports = {}
        for size in (1, 10, 32, covsel.simulation.BLOCK_REPLICATIONS, 60):
            _with_block_size(monkeypatch, size)
            path = tmp_path / f"paper-{size}.csv"
            emit_report(run_study(cfg), "csv", path, base_seed=cfg.base_seed)
            reports[size] = path.read_bytes()
        assert len(set(reports.values())) == 1

    def test_a_true_set_block_over_the_cap_fails_its_replication(self, monkeypatch):
        # with x4 a copy of x1, the true set's block of V1 is singular; a
        # selection that passes no block check leaves the catch to it
        cfg = small_config()
        pop = population_covariances(cfg.model)
        v1, v12 = np.stack([pop.v1, pop.v1]), np.stack([pop.v12, pop.v12])
        v1[1, 3], v1[1, :, 3] = v1[1, 0], v1[1, :, 0]
        v12[1, 3] = v12[1, 0]
        unchecked = type("Unchecked", (), {"selected": (1, 4, 7)})
        monkeypatch.setattr(covsel.simulation, "select_from_suite", lambda *args: unchecked)
        outcomes = covsel.simulation._run_block(cfg, [(60, 0), (60, 1)], [1, 2], v1, v12)
        assert [o.failure for o in outcomes] == [None, "SingularSubmatrixError"]
        assert outcomes[1].selected == ()

    def test_replication_indices_are_not_listed_before_the_first_block(self, monkeypatch):
        # listing a million replication indices up front takes about 40 MB;
        # the draw buffers of a block of 32 at n = 20 take 0.3 MB.  A first
        # study, untraced, keeps one-time costs (about 0.9 MB on a study
        # run alone) out of the peak
        class FirstBlock(Exception):
            pass

        def first_block(*args):
            raise FirstBlock

        monkeypatch.setattr(covsel.simulation, "_run_block", first_block)
        _with_block_size(monkeypatch, 32)
        with pytest.raises(FirstBlock):
            run_study(small_config(sample_sizes=(20,), replications=1))
        cfg = small_config(sample_sizes=(20,), replications=10**6)
        tracemalloc.start()
        try:
            with pytest.raises(FirstBlock):
                run_study(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _paper_config_cut_to_10():
    cfg = load_simulation_config(Path(__file__).resolve().parent.parent / "paper.config")
    return dataclasses.replace(cfg, replications=10)


class TestHelperThread:
    @pytest.mark.parametrize("block", [1, 32])
    def test_paper_study_report_does_not_depend_on_the_helper(self, monkeypatch, tmp_path, block):
        # blocks of one replication hold one chunk and never start the helper
        cfg = dataclasses.replace(_paper_config_cut_to_10(), draw="rows")
        _with_block_size(monkeypatch, block)
        draws, reports, threads = _drawing(monkeypatch), {}, {}
        for cpus in (1, 2):
            monkeypatch.setattr(covsel.simulation, "_usable_cpus", lambda: cpus)
            draws.clear()
            path = tmp_path / f"paper-{cpus}.csv"
            emit_report(run_study(cfg), "csv", path, base_seed=cfg.base_seed)
            reports[cpus], threads[cpus] = path.read_bytes(), {name for name, _ in draws}
        assert reports[1] == reports[2]
        assert threads[1] == {"MainThread"}
        assert threads[2] == ({"MainThread", "covsel-draw"} if block > 1 else {"MainThread"})

    def test_at_most_one_extra_thread_during_a_study(self, monkeypatch):
        before = threading.active_count()
        real = covsel.simulation._draw
        alive = []

        def counting(model, n, seeds, buffers=None, keys=None):
            alive.append(threading.active_count())
            return real(model, n, seeds, buffers, keys)

        monkeypatch.setattr(covsel.simulation, "_draw", counting)
        _with_chunk_size(monkeypatch, 60, 1)
        monkeypatch.setattr(covsel.simulation, "HELPER_MIN_NORMALS", 0)
        for cpus, extra in ((1, 0), (2, 1), (64, 1)):
            monkeypatch.setattr(covsel.simulation, "_usable_cpus", lambda: cpus)
            alive.clear()
            run_study(small_config(replications=40))
            # the helper is alive from before the first draw of each block
            assert max(alive) == before + extra
            assert threading.active_count() == before

    def test_memory_error_on_the_helper_comes_out_of_run_study(self, monkeypatch):
        before = threading.active_count()
        monkeypatch.setattr(covsel.simulation, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(covsel.simulation, "HELPER_MIN_NORMALS", 0)
        _with_chunk_size(monkeypatch, 60, 1)
        real = covsel.simulation._draw

        def draw(model, n, seeds, buffers=None, keys=None):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("helper out of memory")
            time.sleep(0.002)
            return real(model, n, seeds, buffers, keys)

        monkeypatch.setattr(covsel.simulation, "_draw", draw)
        with pytest.raises(MemoryError, match="helper out of memory"):
            run_study(small_config(replications=12))
        assert threading.active_count() == before

    def test_error_on_the_calling_thread_stops_the_helper(self, monkeypatch):
        before = threading.active_count()
        monkeypatch.setattr(covsel.simulation, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(covsel.simulation, "HELPER_MIN_NORMALS", 0)
        _with_chunk_size(monkeypatch, 60, 1)
        real = covsel.simulation._draw
        events = []

        def draw(model, n, seeds, buffers=None, keys=None):
            if threading.current_thread() is threading.main_thread():
                if events.count("main") == 1:
                    events.append("failed")
                    raise RuntimeError("calling thread failed")
                events.append("main")
            else:
                # slow enough that the helper is still drawing when it fails
                events.append("helper")
                time.sleep(0.005)
            return real(model, n, seeds, buffers, keys)

        monkeypatch.setattr(covsel.simulation, "_draw", draw)
        # one block of 24 chunks, 12 of them the helper's
        with pytest.raises(RuntimeError, match="calling thread failed"):
            run_study(small_config(replications=24))
        after = events[events.index("failed") + 1 :]
        assert after.count("helper") <= 1
        assert "main" not in after
        assert threading.active_count() == before


class TestExactRisk:
    def test_true_coefficients_reach_the_noise_floor(self, model):
        assert model.risk(model.b.T) == np.trace(model.noise_cov)

    def test_zero_coefficients(self, model):
        expected = np.trace(model.noise_cov) + np.trace(model.b @ model.sigma @ model.b.T)
        assert model.risk(np.zeros((model.p, model.q))) == pytest.approx(expected, rel=1e-12)

    def test_never_below_the_noise_floor(self, model):
        rng = np.random.default_rng(5)
        coef = model.b.T + rng.normal(size=(200, model.p, model.q)) * rng.choice(
            [1e-12, 1e-6, 1.0], size=(200, 1, 1)
        )
        assert np.all(model.risk(coef) >= np.trace(model.noise_cov))

    @pytest.mark.parametrize("selected", [(1, 4, 7), (1,), (1, 2, 3, 4, 5, 6, 7)])
    def test_held_out_error_estimates_the_risk(self, model, selected):
        train = sample_dataset(model, 60, seed=11)
        test = sample_dataset(model, 200_000, seed=12)
        fit = ols_fit(train, selected)
        # the intercept adds its own square to the risk of the slopes
        risk = model.risk(fit.padded(model.p)) + fit.intercept @ fit.intercept
        assert prediction_error(test, fit) == pytest.approx(risk, rel=0.01)

    def test_stack_slices_have_the_bits_of_single_calls(self, model):
        rng = np.random.default_rng(6)
        coef = model.b.T + rng.normal(size=(33, model.p, model.q))
        for stack in (coef[:1], coef[:7], coef, np.stack([coef, coef[::-1]])):
            risks = model.risk(stack)
            singles = [model.risk(c) for c in stack.reshape(-1, model.p, model.q)]
            assert risks.ravel().tobytes() == np.array(singles).tobytes()

    def test_rejects_a_wrong_shape(self, model):
        with pytest.raises(ValueError, match="coef must be"):
            model.risk(model.b)

    def test_study_errors_never_fall_below_the_noise_floor(self):
        floor = np.trace(benchmark_model().noise_cov)
        summary = run_study(small_config(sample_sizes=(9, 60, 200), replications=40))
        ok = [o for o in summary.outcomes if o.failure is None]
        assert ok
        assert all(o.pred_error >= floor and o.oracle_error >= floor for o in ok)

    def test_no_relevant_variables_gives_the_noise_floor(self):
        model = PopulationModel(
            b=np.zeros((2, 3)), sigma=np.eye(3), noise_cov=np.diag([0.5, 0.25])
        )
        summary = run_study(small_config(model=model, replications=12))
        assert [o.failure for o in summary.outcomes] == [None] * 12
        assert all(o.oracle_error == 0.75 for o in summary.outcomes)
        assert all(o.pred_error >= 0.75 for o in summary.outcomes)

    @pytest.mark.parametrize("b", [benchmark_model().b, np.zeros((5, 7))])
    def test_per_block_path_scores_with_the_bits_of_the_block(self, monkeypatch, b):
        model = dataclasses.replace(benchmark_model(), b=b)
        cfg = small_config(model=model, replications=12)
        block = _bits(run_study(cfg).outcomes)
        # no V1 certified: every replication is selected alone by select_from_suite
        monkeypatch.setattr(
            covsel.simulation,
            "certified_inverse",
            lambda v1: (np.zeros(len(v1), bool), np.full(v1.shape, np.nan)),
        )
        alone_calls = []
        real = covsel.simulation.select_from_suite

        def counting(suite, n, pen):
            alone_calls.append(n)
            return real(suite, n, pen)

        monkeypatch.setattr(covsel.simulation, "select_from_suite", counting)
        alone = run_study(cfg).outcomes
        assert alone_calls == [60] * 12
        assert [o.failure for o in alone] == [None] * 12
        assert _bits(alone) == block


_ROW_STATISTICS = (
    "mean_pred_error",
    "sem_pred_error",
    "correct_rate",
    "median_scaled_criterion",
    "mean_oracle_error",
    "mean_excess_error",
)


def _failed(outcome):
    """``outcome`` as the engine records a failed replication."""
    return dataclasses.replace(
        outcome,
        selected=(),
        correct=False,
        pred_error=math.nan,
        oracle_error=math.nan,
        criterion_at_truth=math.nan,
        failure=SingularSubmatrixError.__name__,
    )


class TestSummarize:
    def test_a_size_failed_in_every_replication_has_nan_statistics(self):
        summary = run_study(small_config(sample_sizes=(60, 90), replications=4))
        rows = summarize([_failed(o) if o.n == 90 else o for o in summary.outcomes]).rows
        assert [row.n for row in rows] == [60, 90]
        assert rows[0] == summary.row_for(60)
        assert (rows[1].replications, rows[1].failures) == (4, 4)
        assert all(math.isnan(getattr(rows[1], name)) for name in _ROW_STATISTICS)

    def test_shuffled_outcomes_summarize_as_sorted_ones(self):
        summary = run_study(small_config(sample_sizes=(60, 90, 120), replications=5))
        outcomes = [_failed(o) if o.n == 120 or o.rep_index == 2 else o for o in summary.outcomes]
        want = summarize(outcomes)
        assert [(row.n, row.failures) for row in want.rows] == [(60, 1), (90, 1), (120, 5)]
        rng = np.random.default_rng(11)
        for _ in range(5):
            shuffled = [outcomes[i] for i in rng.permutation(len(outcomes))]
            assert shuffled != outcomes
            assert summarize(shuffled) == want


class TestStudyRecords:
    def test_summary_memory_grows_by_at_most_128_bytes_per_replication(self):
        # Bound set before measuring: the columns take 57 bytes per
        # replication at p = 7 (three 8-byte integers, three floats, a
        # 7-byte mask and two flags); one ReplicationOutcome per
        # replication took about 390 here.  A first study, untraced, keeps
        # one-time costs out of the count.
        def held(reps):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                summary = run_study(small_config(replications=reps, draw="wishart"))
                assert len(summary.outcomes) == reps
                return tracemalloc.get_traced_memory()[0] - start
            finally:
                tracemalloc.stop()

        run_study(small_config(replications=2, draw="wishart"))
        small, large = held(1000), held(10000)
        assert large - small <= 128 * 9000

    def test_views_are_run_replication_of_the_same_pair(self, monkeypatch):
        # replication 4 at n = 90 fails on a singular V1
        cfg = small_config(sample_sizes=(60, 90), replications=6)
        monkeypatch.setattr(covsel.simulation, "MAX_FAILURE_RATE", 1.0)
        _corrupting_draw(monkeypatch, mix_seed(42, 90, 4, STREAM_TRAIN), _CORRUPTIONS[0][0])
        records = run_study(cfg).outcomes
        assert [(o.n, o.rep_index) for o in records] == [(n, r) for n in (60, 90) for r in range(6)]
        failed = records[10]
        assert (failed.selected, failed.correct) == ((), False)
        assert failed.failure == "SingularSubmatrixError"
        scores = (failed.pred_error, failed.oracle_error, failed.criterion_at_truth)
        assert all(math.isnan(v) for v in scores)
        assert _bits([records[-2]]) == _bits([failed])
        assert int(records.failed.sum()) == 1 and not records.selected[10].any()
        assert _bits(records) == _bits(run_replication(cfg, o.n, o.rep_index) for o in records)

    def test_records_of_their_views_are_equal_at_any_mask_width(self):
        cfg = small_config(sample_sizes=(60, 90), replications=4)
        records = run_study(cfg).outcomes
        assert records.selected.shape == (8, 7)
        assert StudyRecords.of(records) == records
        # with no selection among them, the views give a mask of no columns
        narrow = StudyRecords.of(_failed(o) for o in records)
        assert narrow.selected.shape == (8, 0)
        both = StudyRecords.concat([narrow, records])
        assert both.selected.shape == (16, 7)
        assert both.take(np.arange(8)) == narrow
        assert both.take(np.arange(8, 16)) == records
        assert narrow != records

    def test_columns_are_read_only(self):
        records = run_study(small_config()).outcomes
        with pytest.raises(ValueError, match="read-only"):
            records.pred_error[0] = 0.0


class TestDuplicateRecords:
    def test_repeated_sample_size_rejected(self):
        with pytest.raises(ValueError, match="sample_sizes"):
            small_config(sample_sizes=(50, 50), replications=3)

    def test_merging_a_summary_with_itself_rejected(self):
        summary = run_study(small_config(replications=3))
        with pytest.raises(ValueError, match="duplicate"):
            merge_summaries(summary, summary)

    def test_overlapping_rep_offset_chunks_rejected(self):
        first = run_study(small_config(replications=4))
        overlap = run_study(small_config(replications=4, rep_offset=3))
        with pytest.raises(ValueError, match="n=60, rep_index=3"):
            merge_summaries(first, overlap)


class TestConvergenceProbe:
    def test_matches_per_replication_criteria(self, model):
        # the chunked probe gives the bits of one draw, estimate and
        # criterion call per replication
        k = VariableSubset((1, 4, 7), 7)
        table = convergence_probe(model, k, [60, 3000], reps=9, seed=21)
        for pt in table.points:
            values = [
                covsel.covariance.criterion(
                    empirical_covariances(
                        sample_dataset(model, pt.n, mix_seed(21, pt.n, rep, STREAM_PROBE))
                    ),
                    k,
                )
                for rep in range(9)
            ]
            assert pt.median_criterion == float(np.median(values))


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

    def test_rejects_a_repeated_size(self, model):
        with pytest.raises(ValueError, match="^n_grid must not repeat a size, got 250 more"):
            convergence_probe(model, VariableSubset((1,), 7), [250, 100, 250], reps=1, seed=1)


class TestProbe:
    def test_table_depends_on_neither_cpus_blocks_nor_chunks(self, monkeypatch):
        model, k = _paper_config_cut_to_10().model, VariableSubset((1, 4, 7), 7)
        tables = set()
        for cpus, block, budget in itertools.product((1, 2), (1, 32), (2048, 600)):
            monkeypatch.setattr(covsel.simulation, "_usable_cpus", lambda: cpus)
            _with_block_size(monkeypatch, block)
            monkeypatch.setattr(covsel.simulation, "ROW_BUDGET", budget)
            # 40 replications: two blocks of 32 and 8, or forty of one
            tables.add(repr(convergence_probe(model, k, [60, 250, 1000], 40, 7)))
        assert len(tables) == 1

    def test_helper_draws_above_the_floor_and_is_gone_after(self, monkeypatch):
        model, k = _paper_config_cut_to_10().model, VariableSubset((1, 4, 7), 7)
        monkeypatch.setattr(covsel.simulation, "_usable_cpus", lambda: 2)
        draws, before = _drawing(monkeypatch), threading.active_count()
        # n * (p + q) = 12000 normals per replication, above the floor
        convergence_probe(model, k, [1000], 40, 7)
        assert {name for name, _ in draws} == {"MainThread", "covsel-draw"}
        drawn = [seed for _, (_, seeds) in draws for seed in seeds]
        assert sorted(drawn) == sorted(mix_seed(7, 1000, r, STREAM_PROBE) for r in range(40))
        assert threading.active_count() == before
        # 3000 normals per replication, below it
        draws.clear()
        convergence_probe(model, k, [250], 40, 7)
        assert {name for name, _ in draws} == {"MainThread"}
        assert threading.active_count() == before


def _omega(model):
    """The covariance of a row [x | y] of the model, (p + q, p + q)."""
    sigma_bt = model.sigma @ model.b.T
    return np.block([[model.sigma, sigma_bt], [sigma_bt.T, model.b @ sigma_bt + model.noise_cov]])


def _wishart_pairs_of(model, n, reps, seed=11, stream=STREAM_TRAIN):
    blocks = covsel.simulation._reduced_blocks(model, seed, stream, [n], range(reps), "wishart")
    pairs = [(v1, v12) for _, _, v1, v12 in blocks]
    return np.concatenate([v1 for v1, _ in pairs]), np.concatenate([v12 for _, v12 in pairs])


class TestWishart:
    @pytest.mark.parametrize("n", [13, 50])
    def test_mean_and_variance_of_each_entry_are_the_wishart_law(self, model, n):
        # S = n V ~ W(Omega, n - 1): E[V] = (n - 1)/n Omega and
        # Var(V_ij) = (n - 1)(Omega_ij^2 + Omega_ii Omega_jj) / n^2.
        # Bounds set beforehand from standard errors: the mean of each of
        # the 63 entries within 4.5 of its SEs; each sample variance within
        # 5 relative SEs sqrt(3 / reps), which allows an excess kurtosis up
        # to 1 (that of the diagonal entries at n = 13).
        reps, p = 4000, model.p
        v1, v12 = _wishart_pairs_of(model, n, reps)
        omega = _omega(model)[:p]
        var = (n - 1) * (omega ** 2 + np.outer(np.diag(omega), np.diag(_omega(model)))) / n ** 2
        v = np.concatenate([v1, v12], axis=2)
        se = np.sqrt(var / reps)
        assert (np.abs(v.mean(axis=0) - (n - 1) / n * omega) <= 4.5 * se).all()
        assert (np.abs(v.var(axis=0, ddof=1) / var - 1) <= 5 * math.sqrt(3 / reps)).all()

    def test_stream_fills_the_normals_below_the_diagonal_then_the_chi_squares(self, model):
        # the documented order of each replication's stream, on tag 3 for a
        # study and 4 for a probe, rebuilt one replication at a time
        d, p, n = model.p + model.q, model.p, 70
        for stream, tag in ((STREAM_TRAIN, 3), (STREAM_PROBE, 4)):
            v1, v12 = _wishart_pairs_of(model, n, 3, seed=5, stream=stream)
            for rep in range(3):
                gen = _rng(mix_seed(5, n, rep, tag))
                t = np.zeros((d, d))
                t[np.tril_indices(d, -1)] = gen.standard_normal(d * (d - 1) // 2)
                t[np.diag_indices(d)] = np.sqrt(gen.chisquare(n - 1 - np.arange(d)))
                lt = np.block(
                    [
                        [model.sigma_factor, np.zeros((p, model.q))],
                        [model.b @ model.sigma_factor, model.noise_factor],
                    ]
                ) @ t
                s = lt @ lt.T / n
                np.testing.assert_array_equal(v1[rep], (s[:p, :p] + s[:p, :p].T) / 2.0)
                np.testing.assert_array_equal(v12[rep], s[:p, p:])

    def test_outcomes_record_the_wishart_stream_seed(self):
        cfg = small_config(replications=3, draw="wishart")
        outcomes = run_study(cfg).outcomes
        assert [o.seed for o in outcomes] == [mix_seed(42, 60, r, 3) for r in range(3)]
        assert run_replication(cfg, 60, 2) == outcomes[2]

    @pytest.mark.parametrize("n", [50, 500])
    def test_recovery_and_criterion_quartiles_match_the_row_engine(self, n):
        # Bounds set beforehand from standard errors, 2000 replications per
        # side: the recovery rates within 4 SEs of their difference (pooled
        # rate), and at each quartile q_tau of sqrt(n) xi at {1, 4, 7} on
        # one side, the other side's share below it within 4 SEs,
        # sqrt(2 tau (1 - tau) / reps), of tau.
        # (the paper schedule recovers the truth in no replication; this one in most)
        reps, pen = 2000, PenaltySchedule(g_rate=0.4, penalty_arg="rank")
        cfg = small_config(sample_sizes=(n,), replications=reps, base_seed=2015, pen=pen)
        runs = {
            draw: run_study(dataclasses.replace(cfg, draw=draw)) for draw in ("rows", "wishart")
        }
        rates = [runs[draw].rows[0].correct_rate for draw in ("rows", "wishart")]
        pooled = sum(rates) / 2
        assert abs(rates[0] - rates[1]) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / reps)
        assert min(rates) > 0.9  # the schedule recovers the truth: the rates say something
        xi = {
            draw: math.sqrt(n) * np.array([o.criterion_at_truth for o in s.outcomes])
            for draw, s in runs.items()
        }
        for tau in (0.25, 0.5, 0.75):
            bound = 4 * math.sqrt(2 * tau * (1 - tau) / reps)
            for a, b in (("rows", "wishart"), ("wishart", "rows")):
                share = float(np.mean(xi[b] < np.quantile(xi[a], tau)))
                assert abs(share - tau) <= bound

    def test_rep_offset_split_merges_exactly(self):
        whole = run_study(small_config(replications=70, draw="wishart"))
        parts = [
            run_study(small_config(replications=hi - lo, rep_offset=lo, draw="wishart"))
            for lo, hi in ((0, 20), (20, 45), (45, 70))
        ]
        assert merge_summaries(*parts) == whole

    def test_a_block_at_ten_million_rows_starts_no_thread_and_stays_small(self, monkeypatch):
        # one row block at n = 10**7 would take 960 MB
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
        monkeypatch.setattr(covsel.simulation, "_usable_cpus", lambda: 2)
        cfg = small_config(sample_sizes=(10 ** 7,), replications=32, draw="wishart")
        tracemalloc.start()
        try:
            summary = run_study(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert started == []
        assert peak < 1 << 20
        assert summary.rows[0].failures == 0

    def test_probe_draws_wishart_pairs_on_its_own_stream(self, model):
        k = VariableSubset((1, 4, 7), 7)
        table = convergence_probe(model, k, [60, 300], 9, 21, draw="wishart")
        for pt in table.points:
            v1, v12 = _wishart_pairs_of(model, pt.n, 9, seed=21, stream=STREAM_PROBE)
            values = covsel.covariance.subset_criteria(v1, v12, k)
            assert pt.median_criterion == float(np.median(values))
        assert table != convergence_probe(model, k, [60, 300], 9, 21)


class TestDrawValidation:
    @pytest.mark.parametrize("draw", ["Wishart", "", None, 3, ["rows"]])
    def test_unknown_draw_is_rejected_naming_the_field(self, draw):
        with pytest.raises(ValueError, match="^draw must be 'rows' or 'wishart', got "):
            small_config(draw=draw)

    def test_rows_is_the_default(self):
        assert small_config().draw == "rows"

    def test_wishart_sizes_must_exceed_p_plus_q(self, model):
        small_config(sample_sizes=(13,), draw="wishart")
        message = "^sample_sizes must exceed p \\+ q = 12 .*got 12$"
        with pytest.raises(ValueError, match=message):
            small_config(sample_sizes=(60, 12), draw="wishart")
        small_config(sample_sizes=(12,))  # rows need only n >= p + 2
        cfg = small_config(draw="wishart")
        with pytest.raises(ValueError, match="^n must exceed p \\+ q = 12"):
            run_replication(cfg, 12, 0)
        k = VariableSubset((1,), 7)
        with pytest.raises(ValueError, match="^n_grid must exceed p \\+ q = 12"):
            convergence_probe(model, k, [100, 12], 1, 1, draw="wishart")
        with pytest.raises(ValueError, match="^draw must be 'rows' or 'wishart'"):
            convergence_probe(model, k, [100], 1, 1, draw="bartlett")


class TestIntegerArguments:
    def test_sample_dataset_names_a_size_or_seed_that_is_not_an_integer(self, model):
        with pytest.raises(ValueError, match="^n must be an integer, got 50.7$"):
            sample_dataset(model, 50.7, seed=1.9)
        with pytest.raises(ValueError, match="^seed must be an integer, got 1.9$"):
            sample_dataset(model, 50, seed=1.9)
        with pytest.raises(ValueError, match="^n must be an integer, got True$"):
            sample_dataset(model, True, seed=1)
        a = sample_dataset(model, np.int64(20), seed=np.uint64(7))
        assert a == sample_dataset(model, 20, seed=7)

    @pytest.mark.parametrize("sizes", [50, 50.0, None])
    def test_sample_sizes_that_are_not_a_sequence_are_named(self, sizes):
        with pytest.raises(ValueError, match="^sample_sizes must be a sequence of integers"):
            SimulationConfig(sample_sizes=sizes)

    @pytest.mark.parametrize("grid", [[60.7], [60, 200.0], [True, 60]])
    def test_probe_names_a_size_that_is_not_an_integer(self, model, grid):
        # int() would probe n = 60 for 60.7, and n = 1 for True
        k = VariableSubset((1, 4, 7), 7)
        with pytest.raises(ValueError, match="^n_grid must be integers, got "):
            convergence_probe(model, k, grid, 2, 1)
        table = convergence_probe(model, k, [np.int64(60)], 2, 1)
        assert table == convergence_probe(model, k, [60], 2, 1)

    @pytest.mark.parametrize(
        "call, message",
        [
            # each would run with its value truncated, or fail outside covsel
            (lambda model, path: convergence_probe(model, VariableSubset((1,), 7), [60], 2, 1.9),
             "seed must be an integer, got 1.9"),
            (lambda model, path: convergence_probe(model, VariableSubset((1,), 7), [60], 2.5, 1),
             "reps must be an integer, got 2.5"),
            (lambda model, path: run_replication(small_config(), 60, 1.5),
             "rep_index must be an integer, got 1.5"),
            (lambda model, path: run_replication(small_config(), 60.0, 0),
             "n must be an integer, got 60.0"),
            (lambda model, path: mix_seed(1.5, 50, 0, 0), "base_seed must be an integer, got 1.5"),
            (lambda model, path: mix_seed(1, 50, True, 0), "rep_index must be an integer, got True"),
            (lambda model, path: parse_dataset_csv(path, True, 2), "p must be an integer, got True"),
            (lambda model, path: parse_dataset_csv(path, 2.0, 1), "p must be an integer, got 2.0"),
            (lambda model, path: parse_dataset_csv(path, 1.5, 1), "p must be an integer, got 1.5"),
            (lambda model, path: parse_dataset_csv(path, 2, 1.0), "q must be an integer, got 1.0"),
        ],
        ids=[
            "probe-seed", "probe-reps", "replication-rep_index", "replication-n",
            "mix_seed-base_seed", "mix_seed-rep_index", "csv-p-bool", "csv-p-2.0", "csv-p-1.5",
            "csv-q-1.0",
        ],
    )
    def test_library_arguments_that_are_not_integers_are_named(self, model, tmp_path, call, message):
        path = tmp_path / "data.csv"
        write_dataset_csv(Dataset(x=np.ones((3, 2)), y=np.ones((3, 1))), path)
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(model, path)

    def test_integer_library_arguments_of_numpy_types_are_accepted(self, model):
        k = VariableSubset((1,), 7)
        table = convergence_probe(model, k, [60], np.int64(2), np.uint64(9))
        assert table == convergence_probe(model, k, [60], 2, 9)
        assert type(table.seed) is int
        cfg = small_config()
        assert run_replication(cfg, np.int64(60), np.uint64(3)) == run_replication(cfg, 60, 3)
        assert mix_seed(np.int64(7), np.int32(50), np.uint8(2), 0) == mix_seed(7, 50, 2, 0)
        # base seeds keep their reduction mod 2**64
        assert mix_seed(-1, 50, 0, 0) == mix_seed((1 << 64) - 1, 50, 0, 0)
        assert mix_seed((1 << 64) + 5, 50, 0, 0) == mix_seed(5, 50, 0, 0)


# Bad sample sizes, each fed to the three entry points that take them; every
# call raises the one message of the one check (``_sizes``), naming the
# caller's field.  A size below 2 is named n, as the covariance kernel names it.
_BAD_SIZES = {
    "float": ([60.5], "rows", "{field} must be (integers|an integer), got "),
    "bool": ([True], "rows", "{field} must be (integers|an integer), got "),
    "repeated": ([60, 60], "rows", "{field} must not repeat a size, got 60 more than once$"),
    "n=1": ([1], "rows", "need n >= 2 observations to estimate covariances, got 1$"),
    "wishart-p+q": ([12], "wishart", "{field} must exceed p \\+ q = 12 .*got 12$"),
}


class TestSizeChecks:
    @pytest.mark.parametrize(
        "field, case",
        [
            (field, case)
            for field in ("sample_sizes", "n", "n_grid")
            for case in _BAD_SIZES
            if (field, case) != ("n", "repeated")  # a replication takes one size
        ],
    )
    def test_each_entry_point_names_its_field(self, model, field, case):
        sizes, draw, message = _BAD_SIZES[case]
        calls = {
            "sample_sizes": lambda: small_config(sample_sizes=sizes, draw=draw),
            "n": lambda: run_replication(small_config(draw=draw), sizes[0], 0),
            "n_grid": lambda: convergence_probe(model, VariableSubset((1,), 7), sizes, 2, 1, draw),
        }
        with pytest.raises(ValueError, match="^" + message.format(field=field)):
            calls[field]()

    def test_probe_rejects_a_subset_of_another_p_before_drawing(self, model, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the probe drew before checking its subset")

        monkeypatch.setattr(covsel.simulation, "_reduced_blocks", forbidden)
        message = r"^subset \(1,\) is of p=3 labels, but the model has p=7$"
        with pytest.raises(ValueError, match=message):
            convergence_probe(model, VariableSubset((1,), 3), [60], 2, 1)

    def test_probe_rejects_an_empty_grid_naming_it(self, model):
        with pytest.raises(ValueError, match="^n_grid must be non-empty$"):
            convergence_probe(model, VariableSubset((1,), 7), [], 2, 1)
