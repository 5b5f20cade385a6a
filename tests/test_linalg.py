"""The shared rank-one Kalman update kernel."""

import numpy as np
import pytest

from seqgp.linalg import scalar_update, symmetrize


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


class TestScalarUpdate:
    @pytest.mark.parametrize("d", [1, 8, 128])
    def test_matches_joseph_expansion(self, d):
        mean, cov, h, y = random_belief(d, seed=d)
        got = scalar_update(mean, cov, h, y, 0.3)
        ref = joseph_update(mean, cov, h, y, 0.3)
        np.testing.assert_allclose(got[0], ref[0], rtol=1e-12, atol=1e-12 * np.abs(ref[0]).max())
        np.testing.assert_allclose(got[1], ref[1], rtol=1e-12, atol=1e-12 * np.abs(ref[1]).max())
        assert got[2] == pytest.approx(ref[2], rel=1e-12)
        assert got[3] == pytest.approx(ref[3], rel=1e-12)

    @pytest.mark.parametrize("d", [1, 8, 128])
    def test_covariance_exactly_symmetric(self, d):
        mean, cov, h, y = random_belief(d, seed=10 + d)
        cov[0, -1] += 1e-13  # an input that is not bit-symmetric
        _, new_cov, _, _ = scalar_update(mean, cov, h, y, 0.3)
        np.testing.assert_array_equal(new_cov, new_cov.T)

    def test_inputs_unchanged(self):
        mean, cov, h, y = random_belief(16, seed=3)
        mean0, cov0, h0 = mean.copy(), cov.copy(), h.copy()
        new_mean, new_cov, _, _ = scalar_update(mean, cov, h, y, 0.3)
        np.testing.assert_array_equal(mean, mean0)
        np.testing.assert_array_equal(cov, cov0)
        np.testing.assert_array_equal(h, h0)
        assert new_mean is not mean and new_cov is not cov
