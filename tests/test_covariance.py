import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covsel.covariance
from covsel import (
    CovarianceSuite,
    Dataset,
    OLSFit,
    PopulationModel,
    SimulationConfig,
    SingularSubmatrixError,
    VariableSubset,
    benchmark_model,
    criterion,
    empirical_covariances,
    population_covariances,
    projector,
    relevant_set,
    sample_dataset,
    select_variables,
)
from covsel.covariance import SUM_ROWS, joined_covariance_pairs

from conftest import random_spd
from _oracles import bruteforce_covariances, bruteforce_matmul


class TestDataset:
    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same number of rows"):
            Dataset(x=np.zeros((3, 2)), y=np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        x = np.zeros((3, 2))
        x[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Dataset(x=x, y=np.zeros((3, 2)))
        x[1, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            Dataset(x=x, y=np.zeros((3, 2)))

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            Dataset(x=np.zeros(3), y=np.zeros((3, 1)))

    def test_arrays_frozen(self):
        d = Dataset(x=np.zeros((3, 2)), y=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            d.x[0, 0] = 1.0


class TestPopulationModel:
    def test_asymmetric_sigma_rejected(self):
        sigma = np.eye(3)
        sigma[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            PopulationModel(b=np.ones((2, 3)), sigma=sigma, noise_cov=np.eye(2))

    def test_indefinite_sigma_rejected(self):
        sigma = np.diag([1.0, -0.5, 1.0])
        with pytest.raises(ValueError, match="positive definite"):
            PopulationModel(b=np.ones((2, 3)), sigma=sigma, noise_cov=np.eye(2))

    def test_indefinite_noise_rejected(self):
        with pytest.raises(ValueError, match="semi-definite"):
            PopulationModel(b=np.ones((2, 3)), sigma=np.eye(3), noise_cov=-np.eye(2))

    def test_overflowing_response_variance_rejected_without_a_warning(self):
        m = benchmark_model()
        b = m.b.copy()
        b[0, 0] = 1e300
        with pytest.raises(ValueError, match=r"^the response variance .* overflows$"):
            PopulationModel(b=b, sigma=m.sigma, noise_cov=m.noise_cov)
        # 1e150 squared stays finite, so that model is kept
        b[0, 0] = 1e150
        assert np.isfinite(PopulationModel(b=b, sigma=m.sigma, noise_cov=m.noise_cov).risk(b.T))

    def test_zero_noise_allowed(self):
        m = PopulationModel(b=np.ones((2, 3)), sigma=np.eye(3), noise_cov=np.zeros((2, 2)))
        assert m.p == 3 and m.q == 2

    @pytest.mark.parametrize(
        "b", [np.zeros((2, 4)), np.array([[0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1e-300]])]
    )
    def test_relevant_is_relevant_set_and_not_a_field(self, b):
        m = PopulationModel(b=b, sigma=np.eye(4), noise_cov=np.eye(2))
        assert m.relevant == relevant_set(b)
        # equality and repr compare the fields only, and relevant is not one
        assert [f.name for f in dataclasses.fields(m)] == ["b", "sigma", "noise_cov"]
        assert "relevant" not in repr(m)


def _moved(a, delta):
    """A copy of ``a`` with its first entry moved by ``delta``."""
    a = np.array(a, dtype=float)
    a.flat[0] += delta
    return a


def _model(delta):
    m = benchmark_model()
    return PopulationModel(b=_moved(m.b, delta), sigma=m.sigma, noise_cov=m.noise_cov)


def _selection(delta):
    result = select_variables(sample_dataset(benchmark_model(), 60, seed=5))
    return dataclasses.replace(result, psi=_moved(result.psi, delta))


# each builds the same value for delta 0 and a value with one entry moved otherwise
_BUILDS = {
    "Dataset": lambda d: Dataset(x=_moved(np.eye(3), d), y=np.ones((3, 2))),
    "PopulationModel": _model,
    "CovarianceSuite": lambda d: CovarianceSuite(v1=np.eye(3), v12=_moved(np.ones((3, 2)), d)),
    "SelectionResult": _selection,
    "OLSFit": lambda d: OLSFit(coef=_moved(np.ones((2, 3)), d), indices=(1, 2, 4)),
    "SimulationConfig": lambda d: SimulationConfig(model=_model(d)),
}


@pytest.mark.parametrize("build", _BUILDS.values(), ids=_BUILDS.keys())
def test_equality_compares_values_exactly(build):
    a, same, moved = build(0.0), build(0.0), build(1e-12)
    assert a is not same and a == same and not a != same
    assert a != moved and not a == moved
    assert a != "text" and a != None  # noqa: E711


def test_equality_of_arrays_with_different_shapes_is_false():
    fit = OLSFit(coef=np.ones((2, 1)), indices=(1,))
    assert fit != OLSFit(coef=np.ones((2, 1)), indices=(1,), intercept=np.zeros(2))
    assert Dataset(x=np.ones((2, 1)), y=np.ones((2, 1))) != Dataset(
        x=np.ones((1, 1)), y=np.ones((1, 1))
    )


class TestVariableSubset:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            VariableSubset((), 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            VariableSubset((2, 2), 4)
        with pytest.raises(ValueError, match="1..4"):
            VariableSubset((0, 1), 4)
        with pytest.raises(ValueError, match="1..4"):
            VariableSubset((4, 5), 4)

    def test_of_sorts(self):
        assert VariableSubset.of([7, 1, 4], 7).indices == (1, 4, 7)

    def test_of_rejects_a_repeated_label_naming_it(self):
        with pytest.raises(ValueError, match="label 4 is repeated"):
            VariableSubset.of([4, 1, 4], 7)

    def test_full_and_drop(self):
        k = VariableSubset.full(4)
        assert k.indices == (1, 2, 3, 4)
        assert k.drop(3).indices == (1, 2, 4)
        with pytest.raises(ValueError):
            k.drop(9)


class TestEmpiricalCovariances:
    def test_constant_predictors_give_zero_v1(self):
        x = np.tile([1.5, -2.0, 3.0], (6, 1))
        y = np.arange(12.0).reshape(6, 2)
        suite = empirical_covariances(Dataset(x=x, y=y))
        assert np.all(suite.v1 == 0.0)
        assert np.all(suite.v12 == 0.0)

    def test_hand_computed_two_point_case(self):
        # x rows (0), (2); y rows (0), (4); centered sums with divisor n=2
        d = Dataset(x=np.array([[0.0], [2.0]]), y=np.array([[0.0], [4.0]]))
        suite = empirical_covariances(d)
        np.testing.assert_array_equal(suite.v1, [[1.0]])
        np.testing.assert_array_equal(suite.v12, [[2.0]])

    def test_duplicated_rows_leave_suite_unchanged(self, rng):
        x = rng.standard_normal((8, 3))
        y = rng.standard_normal((8, 2))
        base = empirical_covariances(Dataset(x=x, y=y))
        dup = empirical_covariances(Dataset(x=np.tile(x, (3, 1)), y=np.tile(y, (3, 1))))
        np.testing.assert_allclose(dup.v1, base.v1, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(dup.v12, base.v12, rtol=1e-12, atol=1e-14)

    def test_matches_textbook_formula(self, rng):
        x = rng.standard_normal((12, 3))
        y = rng.standard_normal((12, 2))
        suite = empirical_covariances(Dataset(x=x, y=y))
        v1_ref, v12_ref = bruteforce_covariances(x, y)
        np.testing.assert_allclose(suite.v1, v1_ref, atol=1e-13)
        np.testing.assert_allclose(suite.v12, v12_ref, atol=1e-13)

    def test_rejects_single_observation(self):
        d = Dataset(x=np.ones((1, 2)), y=np.ones((1, 2)))
        with pytest.raises(ValueError, match="n >= 2"):
            empirical_covariances(d)

    def test_overflowing_products_stay_infinite_without_a_warning(self):
        # pytest's filterwarnings setting makes a RuntimeWarning fail this;
        # CovarianceSuite then rejects the pair
        z = np.array([[1e200, 1.0, 2.0, 3.0], [-1e200, 2.0, 3.0, 1.0], [5.0, 1.0, 1.0, 1.0]])
        v1, v12 = joined_covariance_pairs(z.copy(), 2)
        assert v1[0, 0] == np.inf and np.isfinite(v1[1, 1]) and np.isfinite(v12).all()
        with pytest.raises(ValueError, match="^v1 entries must be finite$"):
            empirical_covariances(Dataset(x=z[:, :2], y=z[:, 2:]))

    def test_row_order_invariance(self, rng):
        x = rng.standard_normal((40, 4))
        y = rng.standard_normal((40, 3))
        base = empirical_covariances(Dataset(x=x, y=y))
        perm = rng.permutation(40)
        shuffled = empirical_covariances(Dataset(x=x[perm], y=y[perm]))
        np.testing.assert_allclose(shuffled.v1, base.v1, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(shuffled.v12, base.v12, rtol=1e-12, atol=1e-12)


# Covariance pairs of a sample of argv[1] rows and argv[2] columns, the
# first argv[3] of them x, as hex on stdout.
_PAIRS_SCRIPT = """
import sys
import numpy as np
from covsel.covariance import joined_covariance_pairs
rows, cols, p = map(int, sys.argv[1:])
z = np.random.default_rng(20151).standard_normal((rows, cols)) + 3.0
v1, v12 = joined_covariance_pairs(z, p)
sys.stdout.write((v1.tobytes() + v12.tobytes()).hex())
"""


def _pairs_hex(blas_threads, rows=100_000, cols=12, p=7):
    src = Path(covsel.covariance.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    proc = subprocess.run(
        [sys.executable, "-c", _PAIRS_SCRIPT, str(rows), str(cols), str(p)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestColumnSums:
    def test_up_to_sum_rows_rows_are_one_product(self, rng):
        z = rng.standard_normal((2, SUM_ROWS, 5)) + 3.0
        want = z - (np.ones(SUM_ROWS) @ z / SUM_ROWS)[..., None, :]
        joined_covariance_pairs(z, 3)
        np.testing.assert_array_equal(z, want)

    def test_longer_samples_add_row_blocks_in_order(self, rng):
        n = 2 * SUM_ROWS + 5
        z = rng.standard_normal((n, 4)) + 3.0
        total = np.ones(SUM_ROWS) @ z[:SUM_ROWS]
        total += np.ones(SUM_ROWS) @ z[SUM_ROWS : 2 * SUM_ROWS]
        total += np.ones(5) @ z[2 * SUM_ROWS :]
        want = z - total / n
        joined_covariance_pairs(z, 2)
        np.testing.assert_array_equal(z, want)

    def test_pairs_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS may use every CPU of the process in the first child and
        # one thread in the second; on a one-CPU host both run one thread
        assert _pairs_hex(None) == _pairs_hex(1)

    @pytest.mark.parametrize("rows, cols", [(30_000, 30), (8192, 100)])
    def test_wide_pairs_do_not_depend_on_the_blas_thread_count(self, rows, cols):
        # five y columns, as the benchmark model has; one product per block
        # of at most SUM_ROWS rows and 16 * SUM_ROWS entries
        assert _pairs_hex(None, rows, cols, cols - 5) == _pairs_hex(1, rows, cols, cols - 5)


class TestCovarianceSuite:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_v1_rejected(self, bad):
        with pytest.raises(ValueError, match="^v1 entries must be finite$"):
            CovarianceSuite(v1=np.diag([1.0, 2.0, bad]), v12=np.ones((3, 2)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_v12_rejected(self, bad):
        v12 = np.ones((3, 2))
        v12[1, 0] = bad
        with pytest.raises(ValueError, match="^v12 entries must be finite$"):
            CovarianceSuite(v1=np.eye(3), v12=v12)


class TestPopulationCovariances:
    def test_zero_coefficients_give_zero_v12(self):
        m = PopulationModel(b=np.zeros((2, 3)), sigma=np.eye(3), noise_cov=np.eye(2))
        suite = population_covariances(m)
        assert np.all(suite.v12 == 0.0)

    def test_identity_sigma_gives_b_transpose(self, rng):
        b = rng.standard_normal((3, 4))
        m = PopulationModel(b=b, sigma=np.eye(4), noise_cov=np.eye(3))
        suite = population_covariances(m)
        np.testing.assert_array_equal(suite.v12, b.T)

    def test_benchmark_v12_matches_bruteforce_multiply(self, model, pop_suite):
        ref = bruteforce_matmul(model.sigma, model.b.T)
        np.testing.assert_allclose(pop_suite.v12, ref, atol=1e-13)


class TestProjector:
    def test_identity_full_set(self):
        pi = projector(np.eye(5), VariableSubset.full(5))
        np.testing.assert_allclose(pi, np.eye(5), atol=1e-14)

    def test_diagonal_singleton(self):
        d = np.array([2.0, 5.0, 0.25])
        pi = projector(np.diag(d), VariableSubset((2,), 3))
        expected = np.zeros((3, 3))
        expected[1, 1] = 1.0 / 5.0
        np.testing.assert_allclose(pi, expected, atol=1e-15)

    def test_zero_outside_subset_block(self, rng):
        v1 = random_spd(rng, 6)
        k = VariableSubset((2, 5), 6)
        pi = projector(v1, k)
        mask = np.zeros((6, 6), dtype=bool)
        mask[np.ix_([1, 4], [1, 4])] = True
        assert np.all(pi[~mask] == 0.0)

    def test_benchmark_idempotence_in_v1_metric(self, model):
        k = VariableSubset((1, 4, 7), 7)
        pi = projector(model.sigma, k)
        np.testing.assert_allclose(pi @ model.sigma @ pi, pi, atol=1e-10)

    @pytest.mark.parametrize("p", [2, 4, 7])
    def test_idempotence_property_random_spd(self, rng, p):
        for _ in range(25):
            v1 = random_spd(rng, p, scale=float(rng.uniform(0.1, 10.0)))
            size = int(rng.integers(1, p + 1))
            labels = sorted(rng.choice(p, size=size, replace=False) + 1)
            k = VariableSubset(tuple(int(i) for i in labels), p)
            pi = projector(v1, k)
            err = np.linalg.norm(pi @ v1 @ pi - pi)
            assert err <= 1e-8 * (1.0 + np.linalg.norm(pi))

    def test_singular_submatrix_raises(self):
        v1 = np.ones((3, 3))  # rank one: any 2x2 block is singular
        with pytest.raises(SingularSubmatrixError) as exc:
            projector(v1, VariableSubset((1, 2), 3))
        assert exc.value.indices == (1, 2)

    def test_nan_block_raises(self):
        # NaN eigenvalue bounds fail the cap, so no NaN projector comes back
        with pytest.raises(SingularSubmatrixError, match="nan"):
            projector(np.array([[1.0, np.nan], [np.nan, 1.0]]), VariableSubset((1, 2), 2))

    def test_block_over_the_condition_cap_raises(self):
        k = VariableSubset.full(2)
        with pytest.raises(SingularSubmatrixError, match="cap 1.0e[+]12"):
            projector(np.diag([1.0, 1e-13]), k)
        pi = projector(np.diag([1.0, 1e-11]), k)
        assert pi[1, 1] == pytest.approx(1e11, rel=1e-10)


class TestCriterion:
    def test_full_set_annihilation(self, rng, pop_suite):
        assert criterion(pop_suite, VariableSubset.full(7)) <= 1e-10
        for _ in range(10):
            x = rng.standard_normal((30, 4))
            y = rng.standard_normal((30, 2))
            suite = empirical_covariances(Dataset(x=x, y=y))
            assert criterion(suite, VariableSubset.full(4)) <= 1e-10

    def test_zero_on_leave_one_out_of_irrelevant_variable(self, pop_suite):
        assert criterion(pop_suite, VariableSubset.full(7).drop(2)) <= 1e-10

    def test_positive_pinned_value_on_leave_one_out_of_relevant_variable(
        self, pop_suite, pinned
    ):
        value = criterion(pop_suite, VariableSubset.full(7).drop(1))
        assert value == pytest.approx(pinned["2,3,4,5,6,7"], abs=1e-10)

    def test_exhaustive_zero_iff_superset_of_active(self, pop_suite, pinned):
        for size in range(1, 8):
            for labels in itertools.combinations(range(1, 8), size):
                value = criterion(pop_suite, VariableSubset(labels, 7))
                key = ",".join(str(i) for i in labels)
                if {1, 4, 7} <= set(labels):
                    assert value <= 1e-10, f"expected zero criterion for {labels}"
                else:
                    assert value == pytest.approx(pinned[key], abs=1e-10)
                    assert value > 1e-10

    def test_propagates_singular_submatrix(self):
        suite = CovarianceSuite(v1=np.ones((3, 3)), v12=np.ones((3, 2)))
        with pytest.raises(SingularSubmatrixError):
            criterion(suite, VariableSubset((1, 3), 3))


class TestRelevantSet:
    def test_zero_matrix(self):
        assert relevant_set(np.zeros((3, 5))) == ()

    def test_identity_padded(self):
        b = np.zeros((2, 4))
        b[0, 0] = b[1, 1] = 1.0
        assert relevant_set(b) == (1, 2)

    def test_benchmark_columns(self, model):
        assert relevant_set(model.b) == (1, 4, 7)


PLUGIN_N_GRID = (250, 1000, 4000)
PLUGIN_REPS = 50


@pytest.fixture(scope="module")
def criterion_samples(model):
    """Per-subset criterion draws for 50 seeds at each sample size."""
    subsets = [
        VariableSubset(labels, 7)
        for size in range(1, 8)
        for labels in itertools.combinations(range(1, 8), size)
    ]
    samples = {}
    for n in PLUGIN_N_GRID:
        per_subset = {k.indices: [] for k in subsets}
        for rep in range(PLUGIN_REPS):
            data = sample_dataset(model, n, seed=900_000 + 1000 * n + rep)
            suite = empirical_covariances(data)
            for k in subsets:
                per_subset[k.indices].append(criterion(suite, k))
        samples[n] = per_subset
    return samples


class TestPlugInConsistency:
    """The estimated criterion converges to the population criterion."""

    def test_median_absolute_error_decreases_for_every_subset(
        self, criterion_samples, pinned
    ):
        for idx in criterion_samples[PLUGIN_N_GRID[0]]:
            key = ",".join(str(i) for i in idx)
            truth = pinned[key] if pinned[key] > 1e-10 else 0.0
            errors = [
                np.median([abs(v - truth) for v in criterion_samples[n][idx]])
                for n in PLUGIN_N_GRID
            ]
            if max(errors) < 1e-12:
                continue  # full set: identically zero by algebra, only roundoff left
            assert errors[0] > errors[1] > errors[2], f"no decay for subset {idx}: {errors}"

    def test_scaled_criterion_bounded_on_supersets_of_active(self, criterion_samples):
        for idx in criterion_samples[PLUGIN_N_GRID[0]]:
            if not {1, 4, 7} <= set(idx) or len(idx) == 7:
                continue  # full set is identically zero
            scaled = [
                np.sqrt(n) * np.median(criterion_samples[n][idx]) for n in PLUGIN_N_GRID
            ]
            assert max(scaled) / min(scaled) < 3.0, f"unbounded drift for {idx}: {scaled}"
