"""One pass per stage of a selection.

``covariance_pairs`` centers ``[x | y]`` once, a certified suite is
selected by ``rank_and_cut`` whether it comes alone or in a stack, and a
selection evaluates each penalty shape once on 1..p.
"""

import itertools

import numpy as np
import pytest

from covsel import (
    F_SHAPES,
    G_SHAPES,
    CovarianceSuite,
    PenaltySchedule,
    empirical_covariances,
    sample_dataset,
    select_from_suite,
    select_variables,
)
from covsel.covariance import covariance_pairs
from covsel.selection import rank_and_cut


def _two_products(x, y):
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    return xc.T @ xc / n, xc.T @ yc / n


class TestCovariancePairs:
    @pytest.mark.parametrize("n, p, q, offset", [(50, 7, 5, 0.0), (2000, 48, 5, 0.0), (300, 3, 2, 1e3)])
    def test_matches_the_two_product_formula(self, rng, n, p, q, offset):
        x = rng.standard_normal((n, p)) + offset
        y = x @ rng.standard_normal((p, q)) + rng.standard_normal((n, q)) - offset
        v1, v12 = covariance_pairs(x, y)
        ref1, ref12 = _two_products(x, y)
        np.testing.assert_allclose(v1, ref1, rtol=1e-12, atol=1e-12 * np.abs(ref1).max())
        np.testing.assert_allclose(v12, ref12, rtol=1e-12, atol=1e-12 * np.abs(ref12).max())

    def test_v1_is_exactly_symmetric(self, rng):
        v1, _ = covariance_pairs(rng.standard_normal((4, 500, 9)), rng.standard_normal((4, 500, 3)))
        assert np.array_equal(v1, np.swapaxes(v1, -1, -2))

    def test_each_slice_of_a_stack_has_the_single_call_bits(self, rng):
        x = rng.standard_normal((6, 80, 7))
        y = rng.standard_normal((6, 80, 5))
        v1, v12 = covariance_pairs(x, y)
        for i in range(len(x)):
            one1, one12 = covariance_pairs(x[i], y[i])
            assert v1[i].tobytes() == one1.tobytes()
            assert v12[i].tobytes() == one12.tobytes()

    def test_rejects_a_single_observation(self):
        with pytest.raises(ValueError, match="n >= 2"):
            covariance_pairs(np.ones((1, 3)), np.ones((1, 2)))


class TestCertifiedPath:
    def test_select_from_suite_has_the_bits_of_its_stack_row(self, model):
        suites = [empirical_covariances(sample_dataset(model, 90, seed)) for seed in range(5)]
        assert all(s.v1_certified for s in suites)
        v1 = np.stack([s.v1 for s in suites])
        v12 = np.stack([s.v12 for s in suites])
        for arg in ("label", "rank"):
            pen = PenaltySchedule(g_rate=0.4, penalty_arg=arg)
            phi, sigma, psi, s_hat = rank_and_cut(v1, v12, 90, pen)
            one = select_from_suite(suites[2], 90, pen)
            assert one.phi.tobytes() == phi[2].tobytes()
            assert one.sigma_hat.tobytes() == sigma[2].tobytes()
            assert one.psi.tobytes() == psi[2].tobytes()
            assert one.s_hat == s_hat[2]

    def test_empty_stack_gives_empty_arrays(self):
        v1 = np.empty((0, 7, 7))
        v12 = np.empty((0, 7, 5))
        phi, sigma, psi, s_hat = rank_and_cut(v1, v12, 100, PenaltySchedule())
        assert phi.shape == sigma.shape == psi.shape == (0, 7)
        assert s_hat.shape == (0,)

    def test_single_predictor_rejected_on_the_certified_path(self):
        suite = CovarianceSuite(v1=[[2.0]], v12=[[1.0, 0.5]])
        assert suite.v1_certified
        with pytest.raises(ValueError, match="at least two predictors, got p=1"):
            select_from_suite(suite, 10, PenaltySchedule())


def _counting(monkeypatch, registry, name):
    """Patch the registry entry ``name`` to record the labels of each of
    its evaluations."""
    fn = registry[name]

    def shape(i):
        shape.labels.append(np.asarray(i).tolist())
        return fn(i)

    shape.labels = []
    monkeypatch.setitem(registry, name, shape)
    return shape


class TestPenaltyRows:
    def test_rows_have_the_bits_of_f_and_g(self):
        # every f/g name pair, one size at a time and a sequence of sizes,
        # as a study block passes, against the per-label reference
        sizes = [2, 50, 1234, 10**12]
        for f_shape, g_shape in itertools.product(F_SHAPES, G_SHAPES):
            pen = PenaltySchedule(f_rate=0.3, g_rate=0.6, f_shape=f_shape, g_shape=g_shape)
            for p in (1, 2, 7, 48, 1000):
                f_rows, g_rows = pen.rows(sizes, p)
                assert f_rows.shape == g_rows.shape == (len(sizes), p)
                for n, f_row, g_row in zip(sizes, f_rows, g_rows):
                    f, g = pen.rows(n, p)
                    labels = range(1, p + 1)
                    assert f.tobytes() == np.array([pen.f(n, i) for i in labels]).tobytes()
                    assert g.tobytes() == np.array([pen.g(n, i) for i in labels]).tobytes()
                    assert (f_row.tobytes(), g_row.tobytes()) == (f.tobytes(), g.tobytes())

    def test_rows_check_the_shapes(self):
        with pytest.raises(ValueError, match="f_shape must be strictly decreasing"):
            PenaltySchedule(f_shape="linear")
        with pytest.raises(ValueError, match="g_shape must be strictly increasing"):
            PenaltySchedule(g_shape="inverse_sqrt")

    def test_a_selection_calls_each_shape_p_times(self, model, monkeypatch):
        # one evaluation of each shape, on all p labels at once
        data = sample_dataset(model, 200, seed=31)
        f_shape = _counting(monkeypatch, F_SHAPES, "reciprocal")
        g_shape = _counting(monkeypatch, G_SHAPES, "linear")
        select_variables(data, PenaltySchedule())
        assert f_shape.labels == g_shape.labels == [list(range(1, data.p + 1))]

    def test_the_per_block_path_calls_each_shape_p_times_per_stage(self, monkeypatch):
        # an eigenvalue ratio of 7.5e11 passes the cap but not the
        # certificate, so phi_scores and psi_scores each evaluate the shapes
        suite = CovarianceSuite(
            v1=np.diag([1.0, 1.0, 1.0 / 7.5e11]),
            v12=[[1.0, 0.0], [0.0, 1.0], [1e-6, 1e-6]],
        )
        assert not suite.v1_certified
        f_shape = _counting(monkeypatch, F_SHAPES, "reciprocal")
        g_shape = _counting(monkeypatch, G_SHAPES, "linear")
        select_from_suite(suite, 100, PenaltySchedule())
        assert f_shape.labels == g_shape.labels == [[1, 2, 3], [1, 2, 3]]
