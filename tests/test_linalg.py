"""The shared scored Kalman update: ``observe`` then ``condition``, and its block form ``condition_block``."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from conftest import conditioned
from seqgp.errors import DataError, NumericalError
from seqgp.linalg import chol_solve, condition, condition_block, gaussian_loglik, observe, symmetrize


def joseph_update(mean, cov, h, y, noise_var):
    """Reference: the Joseph form expanded in rank-one terms."""
    s = cov @ h
    c = float(h @ s)
    pred_var = c + noise_var
    pred_mean = float(h @ mean)
    gain = s / pred_var
    new_mean = mean + gain * (y - pred_mean)
    new_cov = cov - np.outer(gain, s) - np.outer(s, gain) + (c + noise_var) * np.outer(gain, gain)
    return new_mean, symmetrize(new_cov), pred_mean, pred_var


def random_belief(d, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    cov = symmetrize(A @ A.T / d + 0.1 * np.eye(d))
    return rng.standard_normal(d), cov, rng.standard_normal(d), float(rng.standard_normal())


class TestObserveAndCondition:
    @pytest.mark.parametrize("d", [1, 8, 128])
    def test_matches_joseph_expansion(self, d):
        mean, cov, h, y = random_belief(d, seed=d)
        got = conditioned(mean, cov, h, y, 0.3)
        ref = joseph_update(mean, cov, h, y, 0.3)
        np.testing.assert_allclose(got[0], ref[0], rtol=1e-12, atol=1e-12 * np.abs(ref[0]).max())
        np.testing.assert_allclose(got[1], ref[1], rtol=1e-12, atol=1e-12 * np.abs(ref[1]).max())
        assert got[2] == pytest.approx(ref[2], rel=1e-12)
        assert got[3] == pytest.approx(gaussian_loglik(y, ref[2], ref[3]), rel=1e-12)

    def test_bit_symmetric_input_stays_bit_symmetric(self):
        # sizes on both sides of the BLAS tile edges, gains from small to large
        for d in [*range(1, 71), 97, 127, 129, 255, 257]:
            mean, cov, h, y = random_belief(d, seed=10 + d)
            assert np.array_equal(cov, cov.T)
            for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
                _, new_cov, _, _ = conditioned(mean, cov, scale * h, y, 0.3)
                assert np.array_equal(new_cov, new_cov.T), (d, scale)

    @pytest.mark.parametrize("d", [1, 8, 16, 128, 256])
    def test_observe_leaves_its_inputs_unchanged(self, d):
        mean, cov, h, _ = random_belief(d, seed=3)
        mean0, cov0, h0 = mean.copy(), cov.copy(), h.copy()
        pred_mean, var, s = observe(mean, cov, h)
        np.testing.assert_array_equal(mean, mean0)
        np.testing.assert_array_equal(cov, cov0)
        np.testing.assert_array_equal(h, h0)
        np.testing.assert_array_equal(s, cov @ h)
        assert (pred_mean, var) == (float(h @ mean), float(h @ s))

    @pytest.mark.parametrize("d", [1, 8, 128, 256])
    def test_plain_formulas(self, d):
        mean, cov, h, y = random_belief(d, seed=20 + d)
        s = cov @ h
        pred_var = float(h @ s) + 0.3
        new_mean, new_cov, pred_mean, ll = conditioned(mean, cov, h, y, 0.3)
        np.testing.assert_array_equal(new_mean, mean + s / pred_var * (y - float(h @ mean)))
        # scored against the incoming belief, bit for bit
        assert (pred_mean, ll) == (float(h @ mean), gaussian_loglik(y, float(h @ mean), pred_var))
        ulp = np.spacing(np.abs(cov).max())
        np.testing.assert_allclose(new_cov, cov - np.outer(s, s) / pred_var, rtol=0, atol=4 * ulp)

    @pytest.mark.parametrize("d", [1, 8, 128, 256])
    def test_overwrites_the_callers_arrays(self, d):
        mean, cov, h, y = random_belief(d, seed=30 + d)
        ref_mean, ref_cov, _, ref_ll = conditioned(mean, cov, h, y, 0.3)
        mean_id, cov_id = id(mean), id(cov)
        assert condition(mean, cov, observe(mean, cov, h), y, 0.3) == ref_ll
        assert (id(mean), id(cov)) == (mean_id, cov_id)
        np.testing.assert_array_equal(mean, ref_mean)
        np.testing.assert_array_equal(cov, ref_cov)

    @pytest.mark.parametrize("layout", ["F", "read-only", "float32"])
    def test_a_covariance_it_cannot_update_in_place_is_rejected_unchanged(self, layout):
        # f2py would run dgemm on a silent copy of such an array and the update would be lost
        mean, cov, h, y = random_belief(16, seed=4)
        observed = observe(mean, cov, h)
        if layout == "F":
            cov = np.asfortranarray(cov)
        elif layout == "read-only":
            cov.flags.writeable = False
        else:
            cov = cov.astype(np.float32)
        mean0, cov0 = mean.copy(), cov.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            condition(mean, cov, observed, y, 0.3)
        np.testing.assert_array_equal(mean, mean0)
        np.testing.assert_array_equal(cov, cov0)

    @pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf])
    def test_non_finite_observation_is_a_data_error_before_anything_changes(self, y):
        mean, cov, h, _ = random_belief(8, seed=5)
        observed = observe(mean, cov, h)
        mean0, cov0 = mean.copy(), cov.copy()
        with pytest.raises(DataError, match="non-finite observation"):
            condition(mean, cov, observed, y, 0.3)
        np.testing.assert_array_equal(mean, mean0)
        np.testing.assert_array_equal(cov, cov0)

    @pytest.mark.parametrize("residual", [0.0, 0.25])
    def test_returns_the_log_density_of_y_under_the_incoming_belief(self, residual):
        # v may carry latent variance of the caller's own (a sparse residual)
        mean, cov, h, y = random_belief(16, seed=6)
        pred_mean, var, s = observe(mean, cov, h)
        expected = gaussian_loglik(y, pred_mean, var + residual + 0.3)
        assert condition(mean, cov, (pred_mean, var + residual, s), y, 0.3) == expected

    def test_non_positive_predictive_variance_leaves_the_belief_unchanged(self):
        mean, cov = np.zeros(1), np.array([[-0.3]])
        with pytest.raises(NumericalError, match="non-positive predictive variance"):
            condition(mean, cov, observe(mean, cov, np.ones(1)), 1.0, 0.3)
        assert mean.tolist() == [0.0] and cov.tolist() == [[-0.3]]


def lower_factor(m, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    return np.linalg.cholesky(A @ A.T + m * np.eye(m))


class TestCholSolve:
    """``chol_solve`` against the two ``solve_triangular`` calls it replaces."""

    @pytest.mark.parametrize("m", [1, 2, 32, 64])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rhs_shape", [(), (3,)], ids=["1d", "2d"])
    def test_bit_equal_to_solve_triangular(self, m, order, rhs_shape):
        L = np.asarray(lower_factor(m, seed=m), order=order)
        assert L.flags.c_contiguous if order == "C" else L.flags.f_contiguous
        rng = np.random.default_rng(100 + m)
        for _ in range(50):
            b = rng.standard_normal((m, *rhs_shape))
            b0 = b.copy()
            y = solve_triangular(L, b, lower=True, check_finite=False)
            ref = solve_triangular(L.T, y, lower=False, check_finite=False)
            got = chol_solve(L, b)
            assert got.shape == ref.shape
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(b, b0)

    def test_solves_the_system(self):
        L = lower_factor(16, seed=5)
        b = np.random.default_rng(6).standard_normal((16, 4))
        np.testing.assert_allclose(L @ L.T @ chol_solve(L, b), b, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_zero_on_the_diagonal_is_a_linalg_error(self, order):
        L = lower_factor(8, seed=7)
        L[3, 3] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            chol_solve(np.asarray(L, order=order), np.ones(8))


class TestConditionBlock:
    """A block of rows conditioned at once gives each row the moments of conditioning row by row."""

    def test_matches_row_by_row_conditioning(self):
        rng = np.random.default_rng(21)
        n = 40
        A = rng.standard_normal((n, n))
        mu, C = rng.standard_normal(n), symmetrize(A @ A.T / n + 0.05 * np.eye(n))
        ys = rng.standard_normal(n)
        ys[rng.uniform(size=n) < 0.3] = np.nan
        out = condition_block(mu, C, ys, 0.2)
        mean, cov = mu.copy(), C.copy()  # the rows' latent values as a state, each row observing its own entry
        for i, y in enumerate(ys.tolist()):
            observed = observe(mean, cov, np.eye(n)[i])
            assert out.means[i] == pytest.approx(observed[0], rel=1e-12, abs=1e-12)
            assert out.variances[i] == pytest.approx(observed[1], rel=1e-12, abs=1e-12)
            if np.isnan(y):
                assert out.logdensities[i] is None
            else:
                assert out.logdensities[i] == pytest.approx(condition(mean, cov, observed, y, 0.2), rel=1e-12)
        Y = np.flatnonzero(~np.isnan(ys))
        np.testing.assert_array_equal(out.scored, Y)
        S = C[np.ix_(Y, Y)] + 0.2 * np.eye(Y.size)
        np.testing.assert_allclose(out.factor, np.linalg.cholesky(S), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(out.inverse @ out.factor, np.eye(Y.size), atol=1e-12)
        np.testing.assert_allclose(out.z, np.linalg.solve(out.factor, ys[Y] - mu[Y]), rtol=1e-12, atol=1e-13)

    def test_a_block_without_y_rows_is_the_prior(self):
        C = np.array([[2.0, 0.5], [0.5, 1.0]])
        out = condition_block(np.array([0.1, -0.2]), C, np.array([np.nan, np.nan]), 0.1)
        assert (out.means, out.variances, out.logdensities) == ([0.1, -0.2], [2.0, 1.0], [None, None])
        assert out.scored.size == 0 and out.factor is None

    def test_failed_pivot_names_its_row_of_the_block(self):
        # rows 1 and 3 (0-based) observe one value with noise 1e-300: the second y-row's pivot rounds to 0
        C, ys = np.ones((4, 4)), np.array([np.nan, 1.0, np.nan, 2.0])
        with pytest.raises(NumericalError, match="^non-positive predictive variance at pivot 2 of the block$") as info:
            condition_block(np.zeros(4), C, ys, 1e-300)
        assert info.value.detail == {"row": 3}
