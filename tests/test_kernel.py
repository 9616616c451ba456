"""The closed-form criterion kernel and its condition-number guard.

``leave_one_out_criteria`` and ``prefix_criteria`` are checked against the
brute-force oracle; the guard is checked to route ill-conditioned V1 to the
per-block path, whose error messages and indices are pinned.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import covsel.covariance
import covsel.selection
from covsel import (
    DEFAULT_COND_CAP,
    CovarianceSuite,
    Dataset,
    PenaltySchedule,
    PopulationModel,
    SingularSubmatrixError,
    VariableSubset,
    benchmark_model,
    cap_certified,
    criterion,
    empirical_covariances,
    leave_one_out_criteria,
    phi_scores,
    population_covariances,
    prefix_criteria,
    psi_scores,
    sample_dataset,
    select_variables,
)
from covsel.covariance import certified_inverse, eig_bounds, over_cap, subset_criteria

from conftest import random_spd
from _oracles import bruteforce_criterion

RTOL = 1e-9
# a printed eigenvalue that is rounding noise around zero or a tiny block value
NOISE_EIG = r"-?\d\.\d{3}e[+-]\d{2}"


def _check_against_oracle(rng, p, q):
    v1 = random_spd(rng, p, scale=float(rng.uniform(0.1, 10.0)))
    v12 = rng.standard_normal((p, q))
    suite = CovarianceSuite(v1=v1, v12=v12)
    assert cap_certified(suite.v1)
    loo = leave_one_out_criteria(suite)
    for i in range(1, p + 1):
        want = bruteforce_criterion(v1, v12, [j for j in range(1, p + 1) if j != i])
        np.testing.assert_allclose(loo[i - 1], want, rtol=RTOL, atol=0)
    order = rng.permutation(p) + 1
    prefix = prefix_criteria(suite, order)
    for i in range(1, p):
        want = bruteforce_criterion(v1, v12, sorted(order[:i].tolist()))
        np.testing.assert_allclose(prefix[i - 1], want, rtol=RTOL, atol=0)
    assert prefix[-1] == 0.0


class TestKernelAgainstOracle:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_random_spd(self, p, q, seed):
        _check_against_oracle(np.random.default_rng(seed), p, q)

    def test_wide_p48(self):
        _check_against_oracle(np.random.default_rng(48), 48, 5)

    def test_full_prefix_exactly_zero_on_identity_population(self):
        b = np.zeros((2, 5))
        b[:, [0, 3]] = [[1.0, -2.0], [0.5, 3.0]]
        model = PopulationModel(b=b, sigma=np.eye(5), noise_cov=np.eye(2))
        suite = population_covariances(model)
        xi = prefix_criteria(suite, [4, 1, 5, 2, 3])
        assert xi[-1] == 0.0
        # {4, 1} already covers the active set
        assert np.all(xi[1:] == 0.0) and xi[0] > 0.0


class TestNearCertificateMargin:
    """The kernels against the per-block ``criterion`` on V1 whose condition
    number reaches the certificate's limit, ``DEFAULT_COND_CAP / 2``.

    Each side solves with a block of V1 that is no worse conditioned than V1
    itself (interlacing), by a backward-stable method, so each residual is
    within about p * cond * eps * ||V12||_F of the exact one (Higham,
    "Accuracy and Stability of Numerical Algorithms", ch. 9-10 and 14, with
    ||V1||_2 = 1); twice that bounds their difference.
    """

    @pytest.mark.parametrize("cond", [1e6, 1e9, 1e11, 0.99 * DEFAULT_COND_CAP / 2])
    @pytest.mark.parametrize("p", [4, 12, 30])
    def test_kernels_match_per_block_criterion(self, cond, p):
        rng = np.random.default_rng(p)
        q_mat, _ = np.linalg.qr(rng.standard_normal((p, p)))
        v1 = q_mat @ np.diag(np.geomspace(1.0, 1.0 / cond, p)) @ q_mat.T
        v12 = rng.standard_normal((p, 3))
        suite = CovarianceSuite(v1=(v1 + v1.T) / 2, v12=v12)
        assert cap_certified(suite.v1)
        tol = 2 * p * cond * np.finfo(float).eps * np.linalg.norm(v12)
        full = VariableSubset.full(p)
        loo = leave_one_out_criteria(suite)
        want = [criterion(suite, full.drop(i)) for i in range(1, p + 1)]
        np.testing.assert_allclose(loo, want, rtol=0, atol=tol)
        order = rng.permutation(p) + 1
        prefix = prefix_criteria(suite, order)
        want = [criterion(suite, VariableSubset.of(order[:i], p)) for i in range(1, p + 1)]
        np.testing.assert_allclose(prefix, want, rtol=0, atol=tol)


def _counting(func, shapes):
    """``func``, recording the shape of its first argument in ``shapes``."""

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return func(a, *args, **kwargs)

    return counting


def _eig_bounds_calls(mp):
    """Patch ``eig_bounds`` through ``mp``; the list returned gets the
    number of matrices of each call."""
    calls, real = [], covsel.covariance.eig_bounds

    def counting(a):
        calls.append(int(np.prod(np.shape(a)[:-2])))
        return real(a)

    mp.setattr(covsel.covariance, "eig_bounds", counting)
    return calls


def _mixed_stack(rng, p, count):
    """``count`` symmetric (p, p) matrices of every kind the certificate
    meets: condition numbers from 1 to 1e17 (some near the bound's limit
    cap/4 and the cap's cap/2) at scales from 1e-3 to 1e3, rotated or
    diagonal, and indefinite, exactly singular, NaN and inf ones."""
    out = []
    for j in range(count):
        kind = j % 8
        if kind < 2:
            cond = 10 ** rng.uniform(0, 17)
        elif kind < 4:  # about the bound's limit cap/4 and the cap's cap/2
            cond = rng.uniform(0.1, 1.2) * DEFAULT_COND_CAP
        if kind < 4:
            eigs = np.geomspace(1.0, 1.0 / cond, p) * 10 ** rng.uniform(-3, 3)
        elif kind == 4:
            eigs = rng.uniform(0.5, 2.0, p) * rng.choice([-1.0, 1.0], p)
            eigs[0] = -abs(eigs[0])  # at least one negative eigenvalue
        else:
            eigs = rng.uniform(0.5, 2.0, p)
        q_mat = np.linalg.qr(rng.standard_normal((p, p)))[0] if kind % 2 else np.eye(p)
        m = q_mat @ np.diag(rng.permutation(eigs)) @ q_mat.T
        m = (m + m.T) / 2
        if kind == 5:  # two equal rows and columns: exactly singular
            m[:, -1] = m[:, 0]
            m[-1, :] = m[0, :]
        elif kind == 6:
            m[0, -1] = m[-1, 0] = np.nan
        elif kind == 7:
            m[-1, -1] = np.inf
        out.append(m)
    return np.stack(out)


class TestCertificateFlags:
    """``certified_inverse`` decides as ``eigvalsh`` alone does: the
    reference is :func:`over_cap` on V1's eigenvalues at half the cap."""

    @settings(deadline=None, max_examples=25)
    @given(st.sampled_from([2, 7, 48]), st.integers(0, 2**32 - 1))
    def test_flags_match_the_eigvalsh_reference(self, p, seed):
        stack = _mixed_stack(np.random.default_rng(seed), p, 40)
        want = ~over_cap(*eig_bounds(stack), DEFAULT_COND_CAP / 2)
        assert want.any() and not want.all()
        # LAPACK raises on the mixed stack, not on its certified part
        for part in (stack, stack[want]):
            with pytest.MonkeyPatch.context() as mp:
                calls = _eig_bounds_calls(mp)
                ok, inverse = certified_inverse(part)
                received, calls[:] = sum(calls), []
                for m in part:
                    certified_inverse(m)
            np.testing.assert_array_equal(ok, ~over_cap(*eig_bounds(part), DEFAULT_COND_CAP / 2))
            np.testing.assert_array_equal(cap_certified(part), ok)
            # a matrix that raises sends no other matrix of the stack to
            # eigvalsh: each goes there as it would alone
            assert received == sum(calls)
            for m, flag, b in zip(part, ok, inverse):
                assert cap_certified(m) == flag
                if flag:
                    assert b.tobytes() == np.linalg.inv(m).tobytes()

    def test_one_singular_matrix_sends_only_itself_to_eigvalsh(self, monkeypatch):
        rng = np.random.default_rng(6)
        stack = np.stack([random_spd(rng, 7) for _ in range(32)])
        stack[9, :, -1] = stack[9, :, 0]
        stack[9, -1, :] = stack[9, 0, :]
        calls = _eig_bounds_calls(monkeypatch)
        ok, inverse = certified_inverse(stack)
        assert calls == [1]
        assert not ok[9] and ok[np.arange(32) != 9].all()
        for m, b in zip(stack[ok], inverse[ok]):
            assert b.tobytes() == np.linalg.inv(m).tobytes()


class TestGuard:
    def test_interlacing_certificate_margin(self):
        assert cap_certified(np.diag([1.0, 1e-3, 2.1e-12]))
        assert not cap_certified(np.diag([1.0, 1e-3, 1.9e-12]))
        assert not cap_certified(np.diag([1.0, 0.0]))
        assert not cap_certified(np.ones((3, 3)))

    def test_nan_v1_is_never_certified(self):
        nan_v1 = np.array([[1.0, np.nan], [np.nan, 1.0]])
        assert not cap_certified(nan_v1)
        np.testing.assert_array_equal(cap_certified(np.stack([np.eye(2), nan_v1])), [True, False])

    def test_infinite_v1_is_never_certified(self):
        # a V1 whose sums of squares overflowed: LAPACK does not converge on it
        inf_v1 = np.array([[np.inf, 0.5, 0.25], [0.5, np.inf, 0.5], [0.25, 0.5, np.inf]])
        assert not cap_certified(inf_v1)
        spd = random_spd(np.random.default_rng(8), 3)
        np.testing.assert_array_equal(cap_certified(np.stack([spd, inf_v1])), [True, False])
        lo, hi = eig_bounds(np.stack([inf_v1, spd, inf_v1]))
        # the finite matrix keeps the bits of its own call
        assert np.isnan(lo[[0, 2]]).all() and np.isnan(hi[[0, 2]]).all()
        assert (lo[1], hi[1]) == eig_bounds(spd)
        # the per-block check names the block instead of failing in LAPACK
        with pytest.raises(SingularSubmatrixError, match=r"eigenvalues in \[nan, nan\]"):
            subset_criteria(inf_v1, np.ones((3, 2)), VariableSubset((1, 2), 3))

    def test_fast_path_makes_no_criterion_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-block criterion called on a certified V1")

        monkeypatch.setattr(covsel.selection, "criterion", forbidden)
        data = sample_dataset(benchmark_model(), 300, seed=3)
        result = select_variables(data, PenaltySchedule(g_rate=0.4), penalty_arg="rank")
        assert result.selected == (1, 4, 7)

    def test_no_eigendecomposition_of_v1_per_selection(self, monkeypatch):
        data = sample_dataset(benchmark_model(), 300, seed=3)
        calls = {"eigvalsh": [], "inv": []}
        for name, shapes in calls.items():
            monkeypatch.setattr(np.linalg, name, _counting(getattr(np.linalg, name), shapes))
        select_variables(data, PenaltySchedule(g_rate=0.4), penalty_arg="rank")
        assert calls["eigvalsh"] == []
        # one inverse of the one V1: the certificate's, which the
        # leave-one-out criteria reuse
        assert [np.prod(shape) for shape in calls["inv"]] == [7 * 7]

    def test_bound_over_a_quarter_of_the_cap_is_decided_by_one_eigvalsh(self, monkeypatch):
        # cond 3e11: above cap/4 by the bound, within cap/2 by its eigenvalues
        v1 = np.diag([1.0, 1e-3, 1.0 / 3e11])
        assert DEFAULT_COND_CAP / 4 < 3e11 <= DEFAULT_COND_CAP / 2
        shapes = []
        monkeypatch.setattr(np.linalg, "eigvalsh", _counting(np.linalg.eigvalsh, shapes))
        assert cap_certified(v1)
        assert [np.prod(shape) for shape in shapes] == [3 * 3]

    def test_well_conditioned_stack_makes_no_eigvalsh_call(self, monkeypatch):
        rng = np.random.default_rng(5)
        stack = np.stack([random_spd(rng, 7) for _ in range(256)])
        shapes = []
        monkeypatch.setattr(np.linalg, "eigvalsh", _counting(np.linalg.eigvalsh, shapes))
        ok, inverse = certified_inverse(stack)
        assert ok.all() and shapes == []
        assert inverse[100].tobytes() == np.linalg.inv(stack[100]).tobytes()

    def test_duplicated_column_message_and_indices(self):
        # the same data as test_selection's collinear-predictor case
        rng = np.random.default_rng(20240817)
        x = rng.standard_normal((60, 3))
        x = np.column_stack([x, x[:, 0]])
        y = rng.standard_normal((60, 2))
        data = Dataset(x=x, y=y)
        with pytest.raises(SingularSubmatrixError) as exc:
            select_variables(data)
        assert exc.value.indices == (1, 3, 4)
        message = str(exc.value)
        assert re.fullmatch(
            re.escape(
                "ranking stage failed: leave-one-out subset for variable 2 is degenerate: "
                "covariance block for subset (1, 3, 4) is singular or ill-conditioned "
                "(eigenvalues in ["
            )
            + NOISE_EIG
            + re.escape(", 1.849e+00], cap 1.0e+12)"),
            message,
        ), message
        with pytest.raises(SingularSubmatrixError) as inner:
            criterion(empirical_covariances(data), VariableSubset((1, 3, 4), 4))
        prefix = "ranking stage failed: leave-one-out subset for variable 2 is degenerate: "
        assert message == prefix + str(inner.value)

    def test_near_cap_diagonal_takes_per_block_path(self, monkeypatch):
        v1 = np.diag([1.0, 1e-3, 1e-6, 1.5e-12])  # cond 6.7e11: in (cap/2, cap]
        assert DEFAULT_COND_CAP / 2 < 1.0 / 1.5e-12 <= DEFAULT_COND_CAP
        v12 = np.random.default_rng(0).standard_normal((4, 3))
        suite = CovarianceSuite(v1=v1, v12=v12)
        assert not cap_certified(suite.v1)
        calls = []

        def counting(s, k, *args, **kwargs):
            calls.append(k.indices)
            return criterion(s, k, *args, **kwargs)

        monkeypatch.setattr(covsel.selection, "criterion", counting)
        pen = PenaltySchedule()
        n = 100
        phi = phi_scores(suite, n, pen)
        sigma = np.array([2, 4, 1, 3])
        psi = psi_scores(suite, sigma, n, pen)
        assert len(calls) == 8
        full = VariableSubset.full(4)
        np.testing.assert_array_equal(
            phi, [criterion(suite, full.drop(i)) + pen.f(n, i) for i in range(1, 5)]
        )
        np.testing.assert_array_equal(
            psi,
            [
                criterion(suite, VariableSubset.of(sigma[:i], 4)) + pen.g(n, int(sigma[i - 1]))
                for i in range(1, 5)
            ],
        )

    def test_just_over_cap_fails_in_dimension_stage(self):
        # x3 = x1 + x2 + 2.74e-6 z on orthogonal +-1 columns: every
        # leave-one-out block is well conditioned, the full block's
        # eigenvalue ratio is 1.2e12
        h = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
        x = h @ np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 2.74e-6]])
        y = np.array([[1.0, 0.5], [0.2, -1.0], [0.3, 0.1], [-1.5, 0.4]])
        data = Dataset(x=x, y=y)
        assert not cap_certified(empirical_covariances(data).v1)
        with pytest.raises(SingularSubmatrixError) as exc:
            select_variables(data)
        assert exc.value.indices == (1, 2, 3)
        assert re.fullmatch(
            re.escape(
                "dimension stage failed: rank prefix of length 3 ((1, 2, 3)) is degenerate: "
                "covariance block for subset (1, 2, 3) is singular or ill-conditioned "
                "(eigenvalues in ["
            )
            + NOISE_EIG
            + re.escape(", 3.000e+00], cap 1.0e+12)"),
            str(exc.value),
        ), str(exc.value)


def test_psi_rejects_non_permutation(pop_suite):
    with pytest.raises(ValueError, match="permutation"):
        psi_scores(pop_suite, [1, 2, 3, 4, 5, 6, 6], 100, PenaltySchedule())


def test_single_predictor_rejected():
    data = Dataset(x=np.arange(10.0).reshape(10, 1), y=np.ones((10, 2)))
    with pytest.raises(ValueError, match="at least two predictors"):
        select_variables(data)
