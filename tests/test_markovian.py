"""State-space GP: builders, discretization, filtering, smoothing, space-time."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from seqgp import exact, kernels, markovian
from seqgp.runners import MarkovRunner, StreamRecord
from seqgp.errors import ConfigurationError, DataError, NumericalError, UnsupportedKernelError

MARKOV_KERNELS = [
    kernels.matern12(1.0, 1.0),
    kernels.matern32(1.5, 0.8),
    kernels.hida_matern([(0.7, 3.0, 0.5, 1.2, 1.1), (0.3, 1.0, 1.5, 0.6, 0.5)]),
]


def lyapunov_vec_solve(F, rhs):
    """Independent oracle: solve F P + P F^T = rhs by the vectorization trick."""
    d = F.shape[0]
    A = np.kron(np.eye(d), F) + np.kron(F, np.eye(d))
    return np.linalg.solve(A, rhs.reshape(-1)).reshape(d, d)


class TestBuildLti:
    def test_ou_parameters(self):
        sde = markovian.build_lti(kernels.matern12(1.0, 1.0))
        np.testing.assert_allclose(sde.drift, [[-1.0]])
        np.testing.assert_allclose(sde.noise_loading, [[1.0]])
        np.testing.assert_allclose(sde.obs, [[1.0]])
        np.testing.assert_allclose(sde.diffusion, [[2.0]])
        np.testing.assert_allclose(sde.stationary, [[1.0]])

    def test_matern32_parameters(self):
        sde = markovian.build_lti(kernels.matern32(2.0, np.sqrt(3.0)))  # lambda = 1
        np.testing.assert_allclose(sde.drift, [[0.0, 1.0], [-1.0, -2.0]], atol=1e-15)
        np.testing.assert_allclose(sde.diffusion, [[8.0]], atol=1e-12)
        np.testing.assert_allclose(sde.noise_loading, [[0.0], [1.0]])
        np.testing.assert_allclose(sde.obs, [[1.0, 0.0]])

    def test_hida_matern_zero_phase_is_plain_matern(self):
        hm = markovian.build_lti(kernels.hida_matern([(1.0, 0.0, 1.5, 0.9, 1.3)]))
        plain = markovian.build_lti(kernels.matern32(1.3, 0.9))
        for field in ("drift", "noise_loading", "obs", "diffusion", "stationary"):
            np.testing.assert_array_equal(getattr(hm, field), getattr(plain, field))

    def test_unsupported_families(self):
        with pytest.raises(UnsupportedKernelError):
            markovian.build_lti(kernels.se())
        with pytest.raises(UnsupportedKernelError):
            markovian.build_lti(kernels.spectral_mixture([(1.0, 1.0, 0.5)]))

    @pytest.mark.parametrize("kernel", MARKOV_KERNELS, ids=lambda k: k.family)
    def test_lyapunov_residual_and_observed_variance(self, kernel):
        sde = markovian.build_lti(kernel)
        resid = sde.drift @ sde.stationary + sde.stationary @ sde.drift.T \
            + sde.noise_loading @ sde.diffusion @ sde.noise_loading.T
        assert np.abs(resid).max() < 1e-9
        obs_var = float((sde.obs @ sde.stationary @ sde.obs.T)[0, 0])
        assert obs_var == pytest.approx(kernel.total_variance, abs=1e-9)

    @pytest.mark.parametrize("kernel", MARKOV_KERNELS, ids=lambda k: k.family)
    def test_kernel_sde_duality(self, kernel):
        # H expm(F d) P_inf H^T must equal kappa(d) on a grid to 1e-8 -- this
        # pins the lambda <-> lengthscale conventions and the HM construction
        sde = markovian.build_lti(kernel)
        ell = max([kernel.lengthscale] + [c.lengthscale for c in kernel.hm_components])
        for delta in np.arange(0.0, 5.0 * ell + 1e-12, 0.1 * ell):
            lhs = float((sde.obs @ expm(sde.drift * delta) @ sde.stationary @ sde.obs.T)[0, 0])
            assert abs(lhs - kernels.eval_kernel(kernel, 0.0, delta)) < 1e-8


class TestStationaryCovariance:
    def test_ou_closed_form(self):
        sde = markovian.build_lti(kernels.matern12(1.7, 2.0))
        np.testing.assert_allclose(markovian.stationary_covariance(sde), [[1.7]], atol=1e-12)

    def test_matern32_against_vec_oracle(self):
        kernel = kernels.matern32(2.0, 1.3)
        sde = markovian.build_lti(kernel)
        P = markovian.stationary_covariance(sde)
        rhs = -sde.noise_loading @ sde.diffusion @ sde.noise_loading.T
        oracle = lyapunov_vec_solve(sde.drift, rhs)
        np.testing.assert_allclose(P, oracle, atol=1e-10)
        lam = np.sqrt(3.0) / 1.3
        np.testing.assert_allclose(P, np.diag([2.0, lam**2 * 2.0]), atol=1e-10)
        np.testing.assert_allclose(sde.stationary, P, atol=1e-10)

    def test_non_hurwitz_drift_rejected(self):
        bad = markovian.LtiSde(
            drift=np.array([[1.0]]),
            noise_loading=np.array([[1.0]]),
            obs=np.array([[1.0]]),
            diffusion=np.array([[1.0]]),
            stationary=np.array([[1.0]]),
        )
        with pytest.raises(markovian.NumericalError):
            markovian.stationary_covariance(bad)

    def test_block_diagonal_stays_block_diagonal(self):
        kernel = kernels.hida_matern([(0.5, 0.0, 0.5, 1.0, 1.0), (0.5, 0.0, 1.5, 0.7, 2.0)])
        sde = markovian.build_lti(kernel)
        P = markovian.stationary_covariance(sde)
        np.testing.assert_allclose(P[0, 1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(P[1:, 0], 0.0, atol=1e-12)


ZERO_STEP_SDES = {
    "matern12": markovian.build_lti(kernels.matern12(1.0, 1.0)),
    "matern32": markovian.build_lti(kernels.matern32(1.0, 1.0)),
    "mixture": markovian.build_lti(kernels.hida_matern(
        [(0.5, 1.5, 1.5, 1.0, 1.0), (0.3, 0.0, 1.5, 2.0, 1.0), (0.2, 0.8, 0.5, 0.5, 1.0)])),
    "spacetime": markovian.build_spatiotemporal(kernels.matern32(1.0, 1.0), kernels.se(1.0, 0.7), [[0.0], [0.5]]),
}


def matern32_transition(lengthscale, delta):
    """Closed-form exp(F delta) of the Matern-3/2 drift [[0, 1], [-lam^2, -2 lam]]."""
    lam = np.sqrt(3.0) / lengthscale
    return np.exp(-lam * delta) * np.array([[1 + lam * delta, delta], [-lam * lam * delta, 1 - lam * delta]])


class TestStepperSymmetry:
    """``linalg.scalar_update`` keeps a bit-symmetric covariance bit-symmetric and
    repairs nothing, so the stepper's initial and predicted covariances must be."""

    @pytest.mark.parametrize("sde", [
        *(markovian.build_lti(k) for k in MARKOV_KERNELS),
        markovian.build_spatiotemporal(kernels.matern32(1.0, 0.7), kernels.se(1.0, 0.8),
                                       [[0.0, 0.0], [0.5, 0.1], [1.1, -0.4], [2.0, 0.3]]),
    ], ids=["m12", "m32", "hm", "spacetime"])
    def test_covariance_is_bit_symmetric_at_init_and_after_every_step(self, sde):
        stepper = markovian.MarkovStepper(sde, 0.1)
        assert np.array_equal(stepper.cov, stepper.cov.T)
        rng = np.random.default_rng(5)
        n_obs = sde.obs.shape[0]
        for i, t in enumerate(np.cumsum(rng.exponential(0.4, 40))):
            stepper.advance(float(t))
            assert np.array_equal(stepper.cov, stepper.cov.T)
            stepper.update(float(rng.standard_normal()), i % n_obs)
            assert np.array_equal(stepper.cov, stepper.cov.T)


class TestDiscretize:
    @pytest.mark.parametrize("name", ZERO_STEP_SDES)
    def test_zero_step(self, name):
        sde = ZERO_STEP_SDES[name]
        step = markovian.discretize(sde, 0.0)
        np.testing.assert_array_equal(step.transition, np.eye(sde.dim))
        np.testing.assert_array_equal(step.noise_cov, np.zeros((sde.dim, sde.dim)))

    @pytest.mark.parametrize("delta", [1e-6, 0.01, 0.3, 1.0, 2.5, 7.0])
    def test_matern32_transition_closed_form(self, delta):
        sde = markovian.build_lti(kernels.matern32(1.4, 0.8))
        np.testing.assert_allclose(markovian.discretize(sde, delta).transition, matern32_transition(0.8, delta),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("delta", [0.01, 0.3, 1.0, 2.5])
    def test_phased_block_is_matern_times_rotation(self, delta):
        # the rotation generator commutes with the Matern drift (x) I, so
        # exp(F delta) = A_matern (x) R(b delta)
        phase = 2.3
        phased = markovian.build_lti(kernels.hida_matern([(1.0, phase, 1.5, 0.8, 1.4)]))
        c, s = np.cos(phase * delta), np.sin(phase * delta)
        expected = np.kron(matern32_transition(0.8, delta), np.array([[c, -s], [s, c]]))
        np.testing.assert_allclose(markovian.discretize(phased, delta).transition, expected, rtol=0, atol=1e-14)

    def test_ou_half_step_values(self):
        sde = markovian.build_lti(kernels.matern12(1.0, 1.0))
        step = markovian.discretize(sde, 0.5)
        assert step.transition[0, 0] == pytest.approx(np.exp(-0.5), rel=1e-14)
        assert step.noise_cov[0, 0] == pytest.approx(1.0 - np.exp(-1.0), rel=1e-14)

    def test_forgetting_limit(self):
        sde = markovian.build_lti(kernels.matern12(1.3, 0.7))
        step = markovian.discretize(sde, 1e6)
        assert abs(step.transition[0, 0]) < 1e-12
        assert step.noise_cov[0, 0] == pytest.approx(1.3, rel=1e-12)

    def test_negative_step_rejected(self):
        sde = markovian.build_lti(kernels.matern12())
        with pytest.raises(DataError):
            markovian.discretize(sde, -0.1)


class TestTransition:
    @pytest.mark.parametrize("name", ZERO_STEP_SDES)
    @pytest.mark.parametrize("delta", [1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 50.0, 1e6])
    def test_closed_form_matches_expm(self, name, delta):
        sde = ZERO_STEP_SDES[name]
        np.testing.assert_allclose(markovian.transition(sde, delta), expm(sde.drift * delta), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("name", ZERO_STEP_SDES)
    def test_discretize_noise_is_stationary_gap(self, name):
        sde = ZERO_STEP_SDES[name]
        A = expm(sde.drift * 0.7)
        step = markovian.discretize(sde, 0.7)
        np.testing.assert_allclose(step.noise_cov, sde.stationary - A @ sde.stationary @ A.T, rtol=0, atol=1e-13)

    def test_hand_built_model_has_no_closed_form(self):
        sde = markovian.LtiSde(*(np.eye(1) for _ in range(5)))
        with pytest.raises(ConfigurationError, match="closed-form"):
            markovian.transition(sde, 0.5)


class TestKalmanFilter:
    def test_single_observation_conjugate_oracle(self):
        kernel = kernels.matern32(1.4, 0.9)
        sde = markovian.build_lti(kernel)
        noise = 0.2
        y = 0.7
        res = markovian.kalman_filter(sde, [1.5], [y], noise)
        P, H = sde.stationary, sde.obs
        expected = (P @ H.T / (float((H @ P @ H.T)[0, 0]) + noise) * y).ravel()
        np.testing.assert_allclose(res.means[0], expected, atol=1e-12)
        assert res.loglik_total == pytest.approx(
            -0.5 * (np.log(2 * np.pi * (1.4 + noise)) + y**2 / (1.4 + noise)), rel=1e-12
        )

    @pytest.mark.parametrize("kernel", MARKOV_KERNELS, ids=lambda k: k.family)
    def test_filter_and_loglik_match_exact_gp(self, kernel):
        rng = np.random.default_rng(30)
        t = np.sort(rng.uniform(0.0, 10.0, 200))
        y = np.sin(t) + 0.3 * rng.standard_normal(200)
        noise = 0.1
        sde = markovian.build_lti(kernel)
        res = markovian.kalman_filter(sde, t, y, noise)

        post = exact.posterior(kernel, noise, t, y, t[-1:])
        filt_mean = float(sde.obs[0] @ res.means[-1])
        sigma_f = np.sqrt(kernel.total_variance)
        assert abs(filt_mean - post.mean[0]) < 1e-6 * sigma_f
        lml = exact.log_marginal_likelihood(kernel, noise, t, y)
        assert res.loglik_total == pytest.approx(lml, abs=1e-6)

    def test_non_monotone_timestamps_name_the_step(self):
        sde = markovian.build_lti(kernels.matern12())
        with pytest.raises(DataError, match="step 2"):
            markovian.kalman_filter(sde, [0.0, 1.0, 0.5], [0.0, 0.0, 0.0], 0.1)

    @pytest.mark.parametrize("times, step", [
        ([0.0, np.nan, 1.0], 1),
        ([np.nan, 0.0, 1.0], 0),
        ([0.0, 1.0, np.inf], 2),
        ([-np.inf, 0.0, 1.0], 0),
    ])
    def test_non_finite_timestamps_name_the_step(self, times, step):
        sde = markovian.build_lti(kernels.matern32())
        with pytest.raises(DataError, match=f"non-finite timestamp at step {step}"):
            markovian.kalman_filter(sde, times, [0.1, 0.2, 0.3], 0.1)

    def test_obs_rows_length_must_match(self):
        sde = markovian.build_lti(kernels.matern12())
        with pytest.raises(DataError, match="observation rows"):
            markovian.kalman_filter(sde, [0.0, 1.0], [0.1, 0.2], 0.1, obs_rows=[0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_value_is_rejected_not_skipped(self, bad):
        sde = markovian.build_lti(kernels.matern12())
        with pytest.raises(DataError, match="non-finite observation"):
            markovian.kalman_filter(sde, [0.0, 1.0, 2.0], [0.1, bad, 0.2], 0.1)

    def test_equal_timestamps_allowed(self):
        sde = markovian.build_lti(kernels.matern12())
        res = markovian.kalman_filter(sde, [0.0, 1.0, 1.0], [0.1, 0.2, 0.3], 0.1)
        assert np.isfinite(res.loglik_total)


class TestRtsSmoother:
    @pytest.mark.parametrize("kernel", MARKOV_KERNELS[:2], ids=lambda k: k.family)
    def test_smoothed_means_match_exact_gp_everywhere(self, kernel):
        rng = np.random.default_rng(31)
        t = np.sort(rng.uniform(0.0, 8.0, 200))
        y = np.cos(t) + 0.2 * rng.standard_normal(200)
        noise = 0.15
        sde = markovian.build_lti(kernel)
        res = markovian.kalman_filter(sde, t, y, noise)
        sm = markovian.rts_smoother(sde, res)

        post = exact.posterior(kernel, noise, t, y, t)
        sm_obs = (sm.means @ sde.obs.T).ravel()
        sigma_f = np.sqrt(kernel.total_variance)
        assert np.abs(sm_obs - post.mean).max() < 1e-6 * sigma_f
        sm_var = np.einsum("ij,njk,ik->n", sde.obs, sm.covs, sde.obs)
        np.testing.assert_allclose(sm_var, np.diag(post.covariance), atol=1e-6)

    def test_last_step_identity_and_variance_ordering(self):
        kernel = kernels.matern32(1.0, 1.0)
        sde = markovian.build_lti(kernel)
        rng = np.random.default_rng(32)
        t = np.sort(rng.uniform(0, 5, 60))
        y = rng.standard_normal(60)
        res = markovian.kalman_filter(sde, t, y, 0.2)
        sm = markovian.rts_smoother(sde, res)
        np.testing.assert_allclose(sm.means[-1], res.means[-1], atol=0)
        np.testing.assert_allclose(sm.covs[-1], res.covs[-1], atol=0)
        filt_var = np.einsum("ij,njk,ik->n", sde.obs, res.covs, sde.obs)
        sm_var = np.einsum("ij,njk,ik->n", sde.obs, sm.covs, sde.obs)
        assert np.all(sm_var <= filt_var + 1e-9)

    def test_smoother_rejects_incomplete_filter_result(self):
        sde = markovian.build_lti(kernels.matern12())
        res = markovian.kalman_filter(sde, [0.0, 1.0], [0.1, 0.2], 0.1)
        res.transitions = res.transitions[:1]  # simulate a mangled result
        with pytest.raises(DataError):
            markovian.rts_smoother(sde, res)

    def test_zero_row_stream(self):
        sde = markovian.build_lti(kernels.matern32())
        res = markovian.kalman_filter(sde, [], [], 0.1)
        assert res.means.shape == (0, 2) and res.transitions.shape == (0, 2, 2) and res.loglik_total == 0.0
        sm = markovian.rts_smoother(sde, res)
        assert sm.means.shape == (0, 2) and sm.covs.shape == (0, 2, 2)

    def test_singular_predicted_covariance_names_the_step(self):
        sde = markovian.build_lti(kernels.matern32())
        res = markovian.kalman_filter(sde, [0.0, 0.5, 1.0], [0.1, 0.2, 0.3], 0.1)
        res.pred_covs[2] = 0.0
        with pytest.raises(NumericalError, match="singular predicted covariance at step 2"):
            markovian.rts_smoother(sde, res)

    def test_missing_observations_match_exact_gp_without_them(self):
        kernel = kernels.matern12(1.0, 0.8)
        sde = markovian.build_lti(kernel)
        rng = np.random.default_rng(33)
        t = np.sort(rng.uniform(0, 6, 50))
        y = np.sin(2 * t) + 0.1 * rng.standard_normal(50)
        y_streamed = y.copy()
        missing = np.arange(10, 40, 3)
        y_streamed[missing] = np.nan
        res = markovian.kalman_filter(sde, t, y_streamed, 0.05)
        sm = markovian.rts_smoother(sde, res)

        kept = np.isfinite(y_streamed)
        post = exact.posterior(kernel, 0.05, t[kept], y[kept], t)
        sm_obs = (sm.means @ sde.obs.T).ravel()
        assert np.abs(sm_obs - post.mean).max() < 1e-6


class TestSpatiotemporal:
    def test_single_location_reduces_to_temporal(self):
        tk = kernels.matern12(1.0, 1.0)
        sk = kernels.se(2.0, 0.5)
        joint = markovian.build_spatiotemporal(tk, sk, [[0.3]])
        base = markovian.build_lti(tk)
        np.testing.assert_allclose(joint.drift, base.drift)
        np.testing.assert_allclose(joint.diffusion, base.diffusion)
        np.testing.assert_allclose(joint.stationary, base.stationary)

    def test_white_spatial_kernel_decouples(self):
        tk = kernels.matern32(1.0, 1.0)
        sk = kernels.se(1.0, 1e-6)  # effectively white: off-diagonals underflow
        locs = np.array([[0.0], [1.0], [2.0]])
        joint = markovian.build_spatiotemporal(tk, sk, locs)
        rng = np.random.default_rng(34)
        T = 30
        times = np.repeat(np.arange(T, dtype=float) * 0.3, 3)
        rows = np.tile([0, 1, 2], T)
        y = rng.standard_normal(3 * T)
        res = markovian.kalman_filter(joint, times, y, 0.1, obs_rows=rows)

        base = markovian.build_lti(tk)
        for loc in range(3):
            sel = rows == loc
            solo = markovian.kalman_filter(base, times[sel], y[sel], 0.1)
            joint_mean = res.means[np.where(sel)[0][-1]][2 * loc : 2 * loc + 2]
            np.testing.assert_allclose(joint_mean, solo.means[-1], atol=1e-9)

    def test_three_locations_match_exact_separable_gp(self):
        tk = kernels.matern12(1.3, 0.9)
        sk = kernels.se(1.0, 1.2)
        locs = np.array([[0.0], [0.7], [1.5]])
        joint = markovian.build_spatiotemporal(tk, sk, locs)

        rng = np.random.default_rng(35)
        T = 50
        base_times = np.sort(rng.uniform(0, 5, T))
        times = np.repeat(base_times, 3)
        rows = np.tile([0, 1, 2], T)
        y = rng.standard_normal(3 * T)
        noise = 0.2
        res = markovian.kalman_filter(joint, times, y, noise, obs_rows=rows)
        sm = markovian.rts_smoother(joint, res)
        sm_obs = np.array([float(joint.obs[rows[i]] @ sm.means[i]) for i in range(3 * T)])

        # oracle: batch GP with the separable product kernel on all 150 points
        S = kernels.gram(sk, locs) / sk.total_variance
        Kt = kernels.gram(tk, base_times)
        K = np.kron(Kt, S)
        Ky = K + noise * np.eye(3 * T)
        mean = K @ np.linalg.solve(Ky, y)
        assert np.abs(sm_obs - mean).max() < 1e-5

    def test_empty_locations_rejected(self):
        with pytest.raises((ConfigurationError, Exception)):
            markovian.build_spatiotemporal(kernels.matern12(), kernels.se(), np.zeros((0, 1)))


class TestScaling:
    def test_flops_linear_in_stream_length(self):
        sde = markovian.build_lti(kernels.matern12(1.0, 1.0))
        per_step = []
        for n in (1000, 10_000):
            t = np.arange(n) * 0.01
            y = np.sin(t)
            res = markovian.kalman_filter(sde, t, y, 0.1)
            per_step.append(res.flops / n)
        assert abs(per_step[1] / per_step[0] - 1.0) < 0.05


class TestStepShortcuts:
    def test_zero_step_advance_skips_discretize_and_keeps_state(self, monkeypatch):
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern32(1.2, 0.8)), 0.1)
        stepper.advance(0.0)
        stepper.advance(0.4)
        stepper.update(0.7)
        calls = []
        real = markovian.transition
        monkeypatch.setattr(markovian, "transition", lambda sde, delta: calls.append(delta) or real(sde, delta))
        mean, cov = stepper.mean, stepper.cov
        mean0, cov0 = mean.copy(), cov.copy()
        stepper.advance(0.4)
        assert calls == []
        assert stepper.mean is mean and stepper.cov is cov
        np.testing.assert_array_equal(stepper.mean, mean0)
        np.testing.assert_array_equal(stepper.cov, cov0)
        np.testing.assert_array_equal(stepper.last_transition, np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_advance_rejects_a_non_finite_timestamp(self, bad):
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern32(1.2, 0.8)), 0.1)
        with pytest.raises(DataError, match="non-finite"):
            stepper.advance(bad)  # first row: no step to compare against yet
        assert stepper.time is None
        stepper.advance(0.4)
        mean, cov, flops = stepper.mean, stepper.cov, stepper.flops
        with pytest.raises(DataError, match="non-finite"):
            stepper.advance(bad)
        assert stepper.time == 0.4 and stepper.flops == flops
        assert stepper.mean is mean and stepper.cov is cov

    def test_advance_rejects_an_overflowing_step(self):
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern12()), 0.1)
        stepper.advance(-1e308)
        with pytest.raises(DataError, match="non-finite"):
            stepper.advance(1e308)

    def test_repeated_timestamp_flops_match_per_step_accounting(self):
        sde = markovian.build_lti(kernels.matern32(1.0, 0.7))
        t = np.repeat(np.arange(50) * 0.25, 4)
        y = np.sin(t)
        y[::7] = np.nan
        res = markovian.kalman_filter(sde, t, y, 0.2)
        d = sde.dim
        charged_steps = 50  # the first row, then each of the 49 steps of 0.25
        expected = (
            charged_steps * markovian._flops_discretize(d)
            + t.size * markovian._flops_predict(d)
            + int(np.isfinite(y).sum()) * markovian._flops_update(d)
        )
        assert res.flops == expected

    def test_repeated_timestamps_match_exact_gp(self):
        kernel = kernels.matern32(1.0, 0.7)
        rng = np.random.default_rng(31)
        t = np.repeat(np.arange(12) * 0.3, 3)
        y = rng.standard_normal(t.size)
        res = markovian.kalman_filter(markovian.build_lti(kernel), t, y, 0.2)
        lml = exact.log_marginal_likelihood(kernel, 0.2, t, y)
        assert res.loglik_total == pytest.approx(lml, abs=1e-8)
        smoothed = markovian.rts_smoother(markovian.build_lti(kernel), res)
        post = exact.posterior(kernel, 0.2, t, y, t)
        np.testing.assert_allclose(smoothed.means[:, 0], post.mean, atol=1e-7)


class TestLongStream:
    def test_update_long_stream_stays_psd(self):
        rng = np.random.default_rng(17)
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern32(1.0, 0.5)), 0.25)
        for i in range(20_000):
            stepper.advance(0.125 * i)
            stepper.update(float(rng.standard_normal()))
        cov = stepper.cov
        np.testing.assert_array_equal(cov, cov.T)
        min_eig = float(np.linalg.eigvalsh(cov).min())
        assert min_eig >= -1e-9 * np.trace(cov) / cov.shape[0]


class TestStepperHistory:
    def test_runner_smoothing_is_the_batch_filter_and_smoother(self):
        # repeated timestamps (zero steps share state arrays) and predict-only
        # rows (pred and filtered moments are the same objects) in one stream
        sde = markovian.build_lti(kernels.matern32(1.1, 0.6))
        rng = np.random.default_rng(41)
        t = np.repeat(np.cumsum(rng.uniform(0.05, 0.3, 40)), rng.integers(1, 4, 40))
        y = np.sin(t) + 0.2 * rng.standard_normal(t.size)
        y[rng.random(t.size) < 0.25] = np.nan
        runner = MarkovRunner(sde, 0.2, history_rows=t.size)
        h = sde.obs[0]
        predicted, filtered = [], []  # snapshots of the state after each step
        for i, (ti, yi) in enumerate(zip(t, y), start=1):
            res = runner.step(StreamRecord(row=i, t=float(ti), x=None, y=None if np.isnan(yi) else float(yi)))
            predicted.append((res.mean, res.var))
            filtered.append((runner.stepper.mean.copy(), runner.stepper.cov.copy()))
        record = runner.stepper.result()
        assert predicted == [(float(h @ m), float(h @ c @ h)) for m, c in zip(record.pred_means, record.pred_covs)]
        np.testing.assert_array_equal(record.means, np.array([m for m, _ in filtered]))
        np.testing.assert_array_equal(record.covs, np.array([c for _, c in filtered]))
        streamed = runner.smooth()

        res = markovian.kalman_filter(sde, t, y, 0.2)
        sm = markovian.rts_smoother(sde, res)
        batch = [(float(h @ m), float(h @ c @ h)) for m, c in zip(sm.means, sm.covs)]
        np.testing.assert_array_equal(np.array(streamed), np.array(batch))

    @pytest.mark.parametrize("name", ["mixture", "spacetime"])
    def test_runner_smoothing_projects_like_the_row_loop(self, name):
        sde = ZERO_STEP_SDES[name]
        locations = np.array([[0.0], [0.5]]) if name == "spacetime" else None
        rng = np.random.default_rng(43)
        t = np.repeat(np.cumsum(rng.uniform(0.05, 0.3, 60)), 2)
        rows = np.tile([0, 1], 60) if locations is not None else np.zeros(t.size, dtype=int)
        y = rng.standard_normal(t.size)
        y[::5] = np.nan
        runner = MarkovRunner(sde, 0.2, locations=locations, history_rows=t.size)
        for i, (ti, yi, row) in enumerate(zip(t, y, rows), start=1):
            x = None if locations is None else locations[row]
            runner.step(StreamRecord(row=i, t=float(ti), x=x, y=None if np.isnan(yi) else float(yi)))
        streamed = np.array(runner.smooth())
        sm = markovian.rts_smoother(sde, markovian.kalman_filter(sde, t, y, 0.2, obs_rows=rows))
        loop = np.array([(sde.obs[r] @ m, sde.obs[r] @ c @ sde.obs[r]) for r, m, c in zip(rows, sm.means, sm.covs)])
        np.testing.assert_allclose(streamed, loop, rtol=1e-13, atol=1e-15)

    def test_stepper_without_history_records_nothing(self):
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern12()), 0.1)
        for i in range(5_000):
            stepper.step(0.01 * i, None if i % 5 == 0 else 0.3)
        assert stepper.history is None
        with pytest.raises(ConfigurationError):
            stepper.result()

    def test_stepper_memory_is_flat_in_irregular_stream_length(self):
        # every step length is distinct; nothing may be kept per step
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern32(1.0, 0.5)), 0.2)
        steps = np.random.default_rng(42).uniform(0.01, 0.05, 20_000)
        times, values = np.cumsum(steps).tolist(), np.sin(np.cumsum(steps)).tolist()
        tracemalloc.start()
        try:
            for i in range(20_000):
                stepper.step(times[i], values[i])
                if i + 1 == 2_000:
                    early = tracemalloc.get_traced_memory()[1]
            late = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert late - early < 64 * 1024

    def test_step_returns_prior_moments_and_score(self):
        sde = markovian.build_lti(kernels.matern32(1.3, 0.9))
        stepper = markovian.MarkovStepper(sde, 0.25, history_rows=2)
        assert stepper.step(0.0) == (0.0, pytest.approx(1.3), None)
        mean, var, ll = stepper.step(0.5, 0.8)
        assert ll == pytest.approx(-0.5 * (np.log(2 * np.pi * (var + 0.25)) + (0.8 - mean) ** 2 / (var + 0.25)))
        record = stepper.result()
        pred_mean, pred_cov, post_mean, post_cov = (record.pred_means[-1], record.pred_covs[-1],
                                                    record.means[-1], record.covs[-1])
        assert float(sde.obs[0] @ pred_mean) == mean and float(sde.obs[0] @ pred_cov @ sde.obs[0]) == var
        assert np.array_equal(post_mean, stepper.mean) and np.array_equal(post_cov, stepper.cov)
        assert (record.obs_rows[-1], record.logliks[-1]) == (0, ll)

    def test_history_rows_are_copies_and_result_is_a_view(self):
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern32(1.0, 0.5)), 0.2, history_rows=5)
        for i in range(3):
            stepper.step(0.1 * i, 0.3 if i else None)
        record = stepper.result()
        assert record.times.tolist() == [0.0, 0.1, 0.2] and record.means.shape == (3, 2)
        assert np.isnan(record.logliks[0]) and record.loglik_total == record.logliks[1] + record.logliks[2]
        for name in ("times", "pred_means", "pred_covs", "means", "covs", "transitions", "obs_rows", "logliks"):
            assert np.shares_memory(getattr(record, name), getattr(stepper.history, name))
        assert not np.shares_memory(stepper.history.covs, stepper.cov)
        assert not np.shares_memory(stepper.history.means, stepper.mean)

    def test_step_past_the_history_is_a_data_error(self):
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern12()), 0.1, history_rows=1)
        stepper.step(0.0, 0.2)
        with pytest.raises(DataError, match="holds 1 rows"):
            stepper.step(1.0, 0.3)
        assert stepper.time == 0.0 and stepper.result().times.tolist() == [0.0]

    def test_smoothing_memory_per_step_is_bounded(self):
        # the d = 8 benchmark mixture; the floor per step is the record's 3d^2 + 2d + 3 doubles plus the
        # smoother's d^2 + d
        sde = markovian.build_lti(kernels.hida_matern(
            [(0.5, 1.5, 1.5, 1.0, 1.0), (0.3, 0.0, 1.5, 2.0, 1.0), (0.2, 0.8, 0.5, 0.5, 1.0)]))
        assert sde.dim == 8
        rng = np.random.default_rng(44)

        def traced_peak(n):
            t = np.cumsum(rng.uniform(0.01, 0.05, n))
            y = np.sin(t)
            tracemalloc.start()
            try:
                markovian.rts_smoother(sde, markovian.kalman_filter(sde, t, y, 0.1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_step = (traced_peak(20_000) - traced_peak(2_000)) / 18_000
        assert per_step <= 2.5 * 1024
