from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covsel import (
    Dataset,
    PenaltySchedule,
    PopulationModel,
    SingularSubmatrixError,
    benchmark_model,
    dimensionality,
    empirical_covariances,
    order_permutation,
    phi_scores,
    population_covariances,
    psi_scores,
    sample_dataset,
    select_from_suite,
    select_variables,
    criterion,
    VariableSubset,
)


class TestPenaltySchedule:
    def test_default_is_benchmark_choice(self):
        pen = PenaltySchedule()
        assert pen.f(16, 2) == pytest.approx(16 ** -0.25 / 2)
        assert pen.g(16, 3) == pytest.approx(16 ** -0.75 * 3)

    @pytest.mark.parametrize("f_rate", [0.0, 0.5, 0.6, -0.1])
    def test_f_rate_bounds(self, f_rate):
        with pytest.raises(ValueError, match="f_rate"):
            PenaltySchedule(f_rate=f_rate)

    @pytest.mark.parametrize("g_rate", [0.0, 1.0, 1.5, -0.2])
    def test_g_rate_bounds(self, g_rate):
        with pytest.raises(ValueError, match="g_rate"):
            PenaltySchedule(g_rate=g_rate)

    def test_unknown_shape_name(self):
        with pytest.raises(ValueError, match="unknown shape"):
            PenaltySchedule(f_shape="cubic")

    def test_shape_monotonicity_checked_exhaustively(self):
        flat = PenaltySchedule(f_shape=lambda i: 1.0)
        with pytest.raises(ValueError, match="strictly decreasing"):
            flat.validate_shapes(5)
        falling_g = PenaltySchedule(g_shape=lambda i: -float(i))
        with pytest.raises(ValueError, match="strictly increasing"):
            falling_g.validate_shapes(5)

    def test_describe_names_shapes(self):
        desc = PenaltySchedule().describe()
        # report headers list the keys in this order
        assert list(desc.items()) == [
            ("penalty_arg", "label"),
            ("f_rate", 0.25),
            ("f_shape", "reciprocal"),
            ("g_rate", 0.75),
            ("g_shape", "linear"),
        ]

    def test_describe_names_a_callable_shape(self):
        def halves(i):
            return 0.5**i

        desc = PenaltySchedule(f_shape=halves, g_shape=lambda i: float(i)).describe()
        assert (desc["f_shape"], desc["g_shape"]) == ("halves", "<lambda>")

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            PenaltySchedule(0.25)


class TestOrderPermutation:
    def test_single_tie_broken_by_index(self):
        np.testing.assert_array_equal(order_permutation([0.5, 0.7, 0.5]), [2, 1, 3])

    def test_all_equal_gives_identity(self):
        np.testing.assert_array_equal(order_permutation([1.0, 1.0, 1.0, 1.0]), [1, 2, 3, 4])

    def test_increasing_input_reverses(self):
        np.testing.assert_array_equal(order_permutation([1.0, 2.0, 3.0, 4.0]), [4, 3, 2, 1])

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
    def test_valid_permutation_and_sorted_scores(self, values):
        sigma = order_permutation(values)
        assert sorted(sigma.tolist()) == list(range(1, len(values) + 1))
        ranked = np.asarray(values)[sigma - 1]
        assert np.all(ranked[:-1] >= ranked[1:])

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
            min_size=2,
            max_size=10,
        ),
        st.data(),
    )
    def test_tie_rule_prefers_smaller_label(self, values, data):
        # plant an exact tie, then check relative rank order
        i = data.draw(st.integers(0, len(values) - 2))
        j = data.draw(st.integers(i + 1, len(values) - 1))
        values[j] = values[i]
        sigma = order_permutation(values).tolist()
        assert sigma.index(i + 1) < sigma.index(j + 1)


class TestPhiScores:
    def test_limit_recovers_population_criteria(self, pop_suite, pinned):
        pen = PenaltySchedule()
        n = 10 ** 16
        phi = phi_scores(pop_suite, n, pen)
        for i in range(1, 8):
            key = ",".join(str(j) for j in range(1, 8) if j != i)
            bare = phi[i - 1] - pen.f(n, i)
            if i in (2, 3, 5, 6):
                assert bare <= 1e-10
            else:
                assert bare == pytest.approx(pinned[key], abs=1e-10)

    def test_decreasing_shape_breaks_exact_criterion_ties(self):
        # identity covariance: leave-one-out criteria of inactive variables
        # are exactly zero, so only the penalty separates them
        b = np.zeros((2, 4))
        b[:, 0] = [1.0, 2.0]
        model = PopulationModel(b=b, sigma=np.eye(4), noise_cov=np.eye(2))
        suite = population_covariances(model)
        phi = phi_scores(suite, 100, PenaltySchedule())
        assert phi[1] > phi[2] > phi[3]

    def test_matches_recomposition(self, model):
        data = sample_dataset(model, 500, seed=1)
        suite = empirical_covariances(data)
        pen = PenaltySchedule()
        phi = phi_scores(suite, data.n, pen)
        full = VariableSubset.full(7)
        for i in range(1, 8):
            expected = criterion(suite, full.drop(i)) + pen.f(data.n, i)
            assert phi[i - 1] == pytest.approx(expected, abs=1e-12)

    def test_annotates_offending_variable(self):
        suite_v1 = np.eye(3)
        suite_v1[1, 1] = 0.0  # leaving out variable 1 keeps the zero row
        from covsel import CovarianceSuite

        suite = CovarianceSuite(v1=suite_v1, v12=np.ones((3, 2)))
        with pytest.raises(SingularSubmatrixError, match="leave-one-out"):
            phi_scores(suite, 100, PenaltySchedule())


class TestPsiScores:
    def test_last_score_is_pure_penalty_exact_case(self):
        b = np.zeros((2, 3))
        b[:, 1] = [1.0, -1.0]
        model = PopulationModel(b=b, sigma=np.eye(3), noise_cov=np.eye(2))
        suite = population_covariances(model)
        pen = PenaltySchedule()
        sigma = order_permutation(phi_scores(suite, 50, pen))
        psi = psi_scores(suite, sigma, 50, pen)
        assert psi[-1] == pen.g(50, int(sigma[-1]))

    def test_last_score_is_pure_penalty_benchmark(self, pop_suite):
        pen = PenaltySchedule()
        sigma = order_permutation(phi_scores(pop_suite, 200, pen))
        psi = psi_scores(pop_suite, sigma, 200, pen)
        assert psi[-1] == pytest.approx(pen.g(200, int(sigma[-1])), abs=1e-10)

    def test_rank_penalty_minimizes_at_active_count_on_population(self, pop_suite):
        # tiny penalties: evaluate at an astronomically large sample size
        pen = PenaltySchedule(penalty_arg="rank")
        n = 10 ** 12
        sigma = order_permutation(phi_scores(pop_suite, n, pen))
        np.testing.assert_array_equal(sigma, [1, 4, 7, 2, 3, 5, 6])
        psi_rank = psi_scores(pop_suite, sigma, n, pen)
        assert dimensionality(psi_rank) == 3

    def test_label_penalty_shifts_argmin_to_smaller_inactive_label(self, pop_suite):
        # with label-argument penalties the prefix {1,4,7,2} scores below
        # {1,4,7} because g(2) < g(7); the argmin moves from 3 to 4
        pen = PenaltySchedule(penalty_arg="label")
        n = 10 ** 12
        sigma = order_permutation(phi_scores(pop_suite, n, pen))
        psi_label = psi_scores(pop_suite, sigma, n, pen)
        assert dimensionality(psi_label) == 4

    def test_matches_recomposition(self, model):
        data = sample_dataset(model, 500, seed=1)
        suite = empirical_covariances(data)
        pen = PenaltySchedule()
        phi = phi_scores(suite, data.n, pen)
        sigma = order_permutation(phi)
        psi = psi_scores(suite, sigma, data.n, pen)
        for i in range(1, 8):
            prefix = VariableSubset.of(sigma[:i].tolist(), 7)
            expected = criterion(suite, prefix) + pen.g(data.n, int(sigma[i - 1]))
            assert psi[i - 1] == pytest.approx(expected, abs=1e-12)

    def test_invalid_penalty_arg(self):
        with pytest.raises(ValueError, match="penalty_arg must be 'label' or 'rank', got 'index'"):
            PenaltySchedule(penalty_arg="index")


class TestDimensionality:
    def test_smallest_argmin_wins(self):
        assert dimensionality([3.0, 1.0, 1.0]) == 2

    def test_increasing_gives_one(self):
        assert dimensionality([1.0, 2.0, 3.0]) == 1

    def test_decreasing_gives_p(self):
        assert dimensionality([3.0, 2.0, 1.0]) == 3


class TestSelectVariables:
    @pytest.mark.parametrize("n, seed", [(60, 1), (400, 7), (2000, 5)])
    @pytest.mark.parametrize(
        "pen, arg", [(PenaltySchedule(), "label"), (PenaltySchedule(g_rate=0.4), "rank")]
    )
    def test_equals_selection_from_estimated_suite(self, model, n, seed, pen, arg):
        data = sample_dataset(model, n, seed=seed)
        pen = replace(pen, penalty_arg=arg)
        a = select_variables(data, pen)
        b = select_from_suite(empirical_covariances(data), data.n, pen)
        for name in ("phi", "psi", "sigma_hat"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert (a.s_hat, a.selected, a.n) == (b.s_hat, b.selected, b.n)

    @pytest.mark.parametrize("arg", ["label", "rank"])
    def test_penalty_arg_keyword_replaces_the_schedules(self, model, arg):
        data = sample_dataset(model, 400, seed=7)
        other = "rank" if arg == "label" else "label"
        pen = PenaltySchedule(g_rate=0.4, penalty_arg=other)
        a = select_variables(data, pen, penalty_arg=arg)
        b = select_variables(data, replace(pen, penalty_arg=arg))
        for name in ("phi", "psi", "sigma_hat"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert (a.s_hat, a.selected, a.n) == (b.s_hat, b.selected, b.n)
        kept = select_variables(data, pen)
        assert kept.psi.tobytes() == select_variables(data, pen, penalty_arg=other).psi.tobytes()
        assert kept.psi.tobytes() != a.psi.tobytes()

    def test_deterministic_and_consistent_fields(self, model):
        data = sample_dataset(model, 400, seed=7)
        a = select_variables(data)
        b = select_variables(data)
        np.testing.assert_array_equal(a.phi, b.phi)
        np.testing.assert_array_equal(a.sigma_hat, b.sigma_hat)
        np.testing.assert_array_equal(a.psi, b.psi)
        assert a.s_hat == b.s_hat and a.selected == b.selected and a.n == 400
        assert a.selected == tuple(sorted(a.sigma_hat[: a.s_hat].tolist()))

    def test_duplicated_rows_give_identical_result(self, model):
        data = sample_dataset(model, 150, seed=11)
        doubled = Dataset(x=np.tile(data.x, (2, 1)), y=np.tile(data.y, (2, 1)))
        a = select_variables(data)
        b = select_variables(doubled)
        # the covariance suite is identical; only n (hence penalties) differs,
        # so compare the criterion parts and the ordering
        np.testing.assert_array_equal(a.sigma_hat, b.sigma_hat)

    def test_pure_noise_still_selects_within_range(self, rng):
        data = Dataset(x=rng.standard_normal((80, 5)), y=rng.standard_normal((80, 3)))
        result = select_variables(data)
        assert 1 <= result.s_hat <= 5
        assert len(result.selected) == result.s_hat

    def test_response_scaling_scales_criteria_and_keeps_order(self, model):
        data = sample_dataset(model, 300, seed=3)
        suite = empirical_covariances(data)
        scaled = empirical_covariances(Dataset(x=data.x, y=-2.5 * data.y))
        full = VariableSubset.full(7)
        xi = np.array([criterion(suite, full.drop(i)) for i in range(1, 8)])
        xi_scaled = np.array([criterion(scaled, full.drop(i)) for i in range(1, 8)])
        np.testing.assert_allclose(xi_scaled, 2.5 * xi, rtol=1e-12)
        np.testing.assert_array_equal(order_permutation(xi), order_permutation(xi_scaled))

    def test_population_limit_recovers_active_set_with_rank_penalty(self, pop_suite):
        pen = PenaltySchedule(penalty_arg="rank")
        n = 10 ** 8
        phi = phi_scores(pop_suite, n, pen)
        sigma = order_permutation(phi)
        psi = psi_scores(pop_suite, sigma, n, pen)
        s_hat = dimensionality(psi)
        assert tuple(sorted(sigma[:s_hat].tolist())) == (1, 4, 7)

    def test_collinear_predictors_abort_pipeline(self, rng):
        x = rng.standard_normal((60, 3))
        x = np.column_stack([x, x[:, 0]])  # exact copy of column 1
        y = rng.standard_normal((60, 2))
        with pytest.raises(SingularSubmatrixError):
            select_variables(Dataset(x=x, y=y))

    def test_result_invariants_enforced_at_construction(self):
        from covsel import SelectionResult

        good = dict(
            phi=np.array([3.0, 2.0, 1.0]),
            sigma_hat=np.array([1, 2, 3]),
            psi=np.array([1.0, 0.5, 0.7]),
            s_hat=2,
            selected=(1, 2),
            n=10,
        )
        SelectionResult(**good)
        with pytest.raises(ValueError, match="permutation"):
            SelectionResult(**{**good, "sigma_hat": np.array([1, 1, 3])})
        with pytest.raises(ValueError, match="non-increasing"):
            SelectionResult(**{**good, "sigma_hat": np.array([3, 2, 1])})
        with pytest.raises(ValueError, match="s_hat"):
            SelectionResult(**{**good, "s_hat": 5})
        with pytest.raises(ValueError, match="selected"):
            SelectionResult(**{**good, "selected": (2, 3)})
