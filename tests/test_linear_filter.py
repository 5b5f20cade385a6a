"""Weight-space filtering: dynamics algebra, conjugate and Laplace updates."""

import numpy as np
import pytest

from seqgp import exact, features, kernels, linear_filter as lf
from seqgp.config import build_dynamics
from seqgp.errors import ConfigurationError, DataError, NumericalError, ShapeError


def quad_posterior(m0, v0, y, lik, n=10_000):
    """Normalized 1-D grid posterior (mean, var, mode-cell bounds)."""
    f = np.linspace(m0 - 12 * np.sqrt(v0), m0 + 12 * np.sqrt(v0), n)
    logp = np.array([lik.loglik(y, fi) for fi in f]) - 0.5 * (f - m0) ** 2 / v0
    p = np.exp(logp - logp.max())
    Z = np.trapezoid(p, f)
    mean = np.trapezoid(f * p, f) / Z
    var = np.trapezoid((f - mean) ** 2 * p, f) / Z
    return mean, var


class TestInitAndPredict:
    def test_init_examples(self):
        b = lf.init_belief(2, 1.0)
        np.testing.assert_array_equal(b.mean, [0.0, 0.0])
        np.testing.assert_array_equal(b.cov, np.eye(2))
        for n in (1, 5, 33):
            assert np.trace(lf.init_belief(n, 2.5).cov) == pytest.approx(n * 2.5)

    def test_fresh_belief_prior_variance_through_rff(self):
        fmap = features.sample_rff(kernels.se(1.7, 1.0), 32, seed=0)
        b = lf.init_belief(32, fmap.weight_prior_var)
        mean, var = lf.predict_f(b, features.featurize(fmap, 0.4))
        assert mean == 0.0
        assert var == pytest.approx(1.7, rel=1e-12)

    def test_predict_f_zero_features(self):
        b = lf.init_belief(4, 1.0)
        assert lf.predict_f(b, np.zeros(4)) == (0.0, 0.0)

    def test_predict_f_shape_error(self):
        with pytest.raises(ShapeError):
            lf.predict_f(lf.init_belief(4, 1.0), np.ones(3))


class TestDynamics:
    def test_static_is_identity(self):
        b = lf.GaussianBelief(np.array([1.0, -2.0]), np.array([[0.5, 0.1], [0.1, 0.3]]))
        assert lf.predict_step(b, lf.static()) is b

    def test_random_walk_scalar_example(self):
        b = lf.GaussianBelief(np.array([0.2]), np.array([[0.5]]))
        out = lf.predict_step(b, lf.random_walk(0.01))
        assert out.cov[0, 0] == pytest.approx(0.51, abs=1e-15)

    def test_b2p_full_forgetting_reverts_to_prior(self):
        b = lf.GaussianBelief(np.array([3.0, -1.0]), np.array([[0.2, 0.05], [0.05, 0.4]]))
        out = lf.predict_step(b, lf.b2p(0.0, prior_var=1.3))
        np.testing.assert_allclose(out.mean, 0.0, atol=0)
        np.testing.assert_allclose(out.cov, 1.3 * np.eye(2), atol=0)

    def test_b2p_lambda_one_is_static(self):
        b = lf.GaussianBelief(np.array([0.7, 0.1]), np.array([[0.6, 0.2], [0.2, 0.9]]))
        out = lf.predict_step(b, lf.b2p(1.0, prior_var=2.0))
        np.testing.assert_allclose(out.mean, b.mean, atol=1e-12)
        np.testing.assert_allclose(out.cov, b.cov, atol=1e-12)

    def test_general_reduces_to_random_walk(self):
        b = lf.GaussianBelief(np.array([0.7, 0.1]), np.array([[0.6, 0.2], [0.2, 0.9]]))
        rw = lf.predict_step(b, lf.random_walk(0.04))
        gen = lf.predict_step(b, lf.general(1.0, 0.0, 0.04))
        np.testing.assert_allclose(gen.mean, rw.mean, atol=1e-12)
        np.testing.assert_allclose(gen.cov, rw.cov, atol=1e-12)

    def test_b2p_contraction_rates(self):
        # with no observations the mean contracts by sqrt(lambda) per step and
        # the covariance gap to the prior by lambda per step, exactly
        lam, prior_var = 0.8, 1.0
        dyn = lf.b2p(lam, prior_var)
        b = lf.GaussianBelief(np.array([2.0, -1.0]), 0.3 * np.eye(2))
        for _ in range(40):
            nxt = lf.predict_step(b, dyn)
            assert np.linalg.norm(nxt.mean) == pytest.approx(np.sqrt(lam) * np.linalg.norm(b.mean), rel=1e-12)
            gap_before = np.abs(b.cov - prior_var * np.eye(2)).max()
            gap_after = np.abs(nxt.cov - prior_var * np.eye(2)).max()
            assert gap_after == pytest.approx(lam * gap_before, rel=1e-9)
            b = nxt

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_random_walk_adds_to_the_diagonal_bit_for_bit(self, order):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((256, 256))
        cov = np.asarray(A @ A.T / 256.0, order=order)
        b = lf.GaussianBelief(rng.standard_normal(256), cov)
        cov0, mean0 = cov.copy(), b.mean.copy()
        out = lf.predict_step(b, lf.random_walk(1e-4))
        np.testing.assert_array_equal(out.cov, cov0 + 1e-4 * np.eye(256))
        np.testing.assert_array_equal(b.cov, cov0)
        np.testing.assert_array_equal(out.mean, mean0)
        assert out.cov is not b.cov

    def test_b2p_adds_to_the_diagonal_bit_for_bit(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((32, 32))
        b = lf.GaussianBelief(rng.standard_normal(32), A @ A.T / 32.0)
        cov0 = b.cov.copy()
        out = lf.predict_step(b, lf.b2p(0.9, prior_var=1.7))
        np.testing.assert_array_equal(out.cov, 0.9 * cov0 + (1.0 - 0.9) * 1.7 * np.eye(32))
        np.testing.assert_array_equal(b.cov, cov0)

    @pytest.mark.parametrize("build", [
        lambda: lf.random_walk(float("nan")), lambda: lf.random_walk(float("inf")), lambda: lf.random_walk(-1e-3),
        lambda: lf.b2p(float("nan"), 1.0), lambda: lf.b2p(0.5, float("inf")),
        lambda: lf.general(float("nan"), 0.0, 0.0), lambda: lf.general(1.0, float("-inf"), 0.0),
        lambda: lf.general(1.0, 0.0, float("inf")), lambda: lf.general(1.0, 0.0, -0.1),
        lambda: lf.general(1e200, 0.0, 0.0),
    ])
    def test_constructors_reject_non_finite_and_negative_noise(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_build_dynamics_names_only_config_keys(self):
        with pytest.raises(ConfigurationError, match=r"^dynamics\.c: ") as info:
            build_dynamics({"dynamics.mode": "general", "dynamics.c": "-1"}, 1.0)
        assert info.value.param is None
        # prior_var is not read from a dynamics.* key, so its error passes through unprefixed
        with pytest.raises(ConfigurationError, match=r"^prior_var must be finite") as info:
            build_dynamics({"dynamics.mode": "b2p", "dynamics.lambda": "0.5"}, 0.0)
        assert info.value.param == "prior_var"

    def test_lambda_out_of_range(self):
        with pytest.raises(ConfigurationError):
            lf.b2p(1.5, 1.0)
        with pytest.raises(ConfigurationError):
            lf.b2p(-0.1, 1.0)


class TestUpdate:
    def test_scalar_conjugate_oracle(self):
        b = lf.init_belief(1, 1.0)
        out, ll = lf.update_step(b, np.array([1.0]), 2.0, 1.0)
        assert out.mean[0] == pytest.approx(1.0, rel=1e-14)
        assert out.cov[0, 0] == pytest.approx(0.5, rel=1e-14)
        assert ll == pytest.approx(-0.5 * (np.log(2 * np.pi * 2.0) + 4.0 / 2.0), rel=1e-14)

    def test_infinite_noise_is_no_op(self):
        b = lf.GaussianBelief(np.array([0.3, -0.5]), np.array([[0.7, 0.1], [0.1, 0.4]]))
        out, _ = lf.update_step(b, np.array([1.0, 2.0]), 5.0, 1e12)
        np.testing.assert_allclose(out.mean, b.mean, atol=1e-9)
        np.testing.assert_allclose(out.cov, b.cov, atol=1e-9)

    def test_matches_batch_linear_regression(self):
        rng = np.random.default_rng(10)
        Phi = rng.standard_normal((50, 6))
        y = rng.standard_normal(50)
        noise, prior = 0.3, 1.7
        b = lf.init_belief(6, prior)
        for i in range(50):
            b, _ = lf.update_step(b, Phi[i], y[i], noise)
        # independent oracle: direct normal-equations solve
        prec = Phi.T @ Phi / noise + np.eye(6) / prior
        cov = np.linalg.inv(prec)
        mean = cov @ Phi.T @ y / noise
        np.testing.assert_allclose(b.mean, mean, atol=1e-8)
        np.testing.assert_allclose(b.cov, cov, atol=1e-8)

    def test_static_batch_posterior_matches_sequential(self):
        rng = np.random.default_rng(13)
        Phi = rng.standard_normal((40, 8))
        y = rng.standard_normal(40)
        b = lf.init_belief(8, 2.0)
        for i in range(40):
            b, _ = lf.update_step(b, Phi[i], y[i], 0.4)
        batch = lf.static_batch_posterior(Phi, y, 0.4, 2.0)
        np.testing.assert_allclose(batch.mean, b.mean, atol=1e-8)
        np.testing.assert_allclose(batch.cov, b.cov, atol=1e-8)

    def test_order_invariance_static(self):
        rng = np.random.default_rng(14)
        Phi = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)

        def run(order):
            b = lf.init_belief(5, 1.0)
            for i in order:
                b, _ = lf.update_step(b, Phi[i], y[i], 0.2)
            return b

        a = run(range(30))
        b = run(rng.permutation(30))
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-8)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-8)

    def test_non_finite_observation_rejected(self):
        with pytest.raises(DataError):
            lf.update_step(lf.init_belief(2, 1.0), np.ones(2), np.nan, 0.1)

    def test_joseph_form_long_stream_stays_psd(self):
        rng = np.random.default_rng(15)
        b = lf.init_belief(4, 1.0)
        dyn = lf.random_walk(1e-4)
        for i in range(100_000):
            phi = rng.standard_normal(4)
            b = lf.predict_step(b, dyn)
            b, _ = lf.update_step(b, phi, float(rng.standard_normal()), 0.25)
        np.testing.assert_allclose(b.cov, b.cov.T, atol=0)
        min_eig = float(np.linalg.eigvalsh(b.cov).min())
        assert min_eig >= -1e-9 * np.trace(b.cov) / 4


class TestFunctionSpaceDuality:
    def test_static_filter_equals_exact_gp_with_degenerate_kernel(self):
        rng = np.random.default_rng(16)
        kernel = kernels.se(1.2, 0.6)
        fmap = features.sample_rff(kernel, 64, seed=2)
        X = np.sort(rng.uniform(0, 4, 100))
        y = rng.standard_normal(100)
        noise = 0.3

        b = lf.init_belief(64, fmap.weight_prior_var)
        total_ll = 0.0
        for i in range(100):
            b, ll = lf.update_step(b, features.featurize(fmap, X[i]), y[i], noise)
            total_ll += ll

        dk = features.DegenerateKernel(fmap)
        Xs = np.linspace(0, 4, 25)
        post = exact.posterior(dk, noise, X, y, Xs)
        Ps = features.featurize_many(fmap, Xs)
        filt_mean = Ps @ b.mean
        filt_var = np.sum((Ps @ b.cov) * Ps, axis=1)
        np.testing.assert_allclose(filt_mean, post.mean, atol=1e-6)
        np.testing.assert_allclose(filt_var, np.diag(post.covariance), atol=1e-6)
        # the per-step scores chain into the batch evidence
        assert total_ll == pytest.approx(post.log_marginal, abs=1e-6)

    def test_rff_posterior_mean_tracks_exact_gp(self):
        kernel = kernels.se(1.0, 0.5)
        noise = 0.05
        rng = np.random.default_rng(777)
        X = np.sort(rng.uniform(0.0, 3.0, 200))
        K = kernels.gram(kernel, X) + 1e-10 * np.eye(200)
        y = np.linalg.cholesky(K) @ rng.standard_normal(200) + np.sqrt(noise) * rng.standard_normal(200)
        Xs = np.linspace(0.2, 2.8, 50)
        post = exact.posterior(kernel, noise, X, y, Xs)

        fmap = features.sample_rff(kernel, 2048, seed=0)
        belief = lf.static_batch_posterior(features.featurize_many(fmap, X), y, noise, fmap.weight_prior_var)
        means = features.featurize_many(fmap, Xs) @ belief.mean
        rmse = float(np.sqrt(np.mean((means - post.mean) ** 2)))
        assert rmse < 0.05


class TestNonConjugate:
    def test_bernoulli_positive_observation_shifts_mean_up(self):
        b = lf.init_belief(3, 1.0)
        phi = np.array([0.5, -0.2, 1.0])
        out, _ = lf.update_nonconjugate(b, phi, 1.0, "bernoulli_logit")
        mean, _ = lf.predict_f(out, phi)
        assert mean > 0.0

    @pytest.mark.parametrize("lik_name", ["bernoulli_logit", "poisson_log"])
    def test_variance_shrinks(self, lik_name):
        lik = lf.LIKELIHOODS[lik_name]
        rng = np.random.default_rng(20)
        for _ in range(20):
            m0, v0 = rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.0)
            y = 1.0 if lik_name == "bernoulli_logit" else float(np.round(np.exp(m0)))
            _, q_var = quad_posterior(m0, v0, y, lik)
            assert q_var < v0
            b = lf.GaussianBelief(np.array([m0]), np.array([[v0]]))
            out, _ = lf.update_nonconjugate(b, np.array([1.0]), y, lik_name)
            assert out.cov[0, 0] < v0

    def test_poisson_matched_count_small_shift(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            m0, v0 = rng.uniform(-1.0, 1.5), rng.uniform(0.2, 1.0)
            y = float(np.round(np.exp(m0)))
            q_mean, _ = quad_posterior(m0, v0, y, lf.POISSON_LOG)
            b = lf.GaussianBelief(np.array([m0]), np.array([[v0]]))
            out, _ = lf.update_nonconjugate(b, np.array([1.0]), y, "poisson_log")
            assert abs(out.mean[0] - m0) < np.sqrt(v0)
            assert abs(q_mean - m0) < np.sqrt(v0)

    def test_laplace_matches_quadrature_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            m0, v0 = rng.uniform(-2, 2), rng.uniform(0.1, 1.0)
            for lik, y in ((lf.BERNOULLI_LOGIT, float(rng.integers(0, 2))),
                           (lf.POISSON_LOG, float(np.round(np.exp(m0))))):
                f_hat, curvature = lf.laplace_1d(m0, v0, y, lik)
                q_mean, q_var = quad_posterior(m0, v0, y, lik)
                assert 1.0 / curvature == pytest.approx(q_var, rel=0.05)

    def test_vanished_curvature_in_far_tail_is_numerical_error(self):
        # Poisson y=0 with an extreme negative prior mean drives the mode
        # past the exp underflow point: no usable pseudo-observation exists
        b = lf.GaussianBelief(np.array([-900.0]), np.array([[1.0]]))
        with pytest.raises(NumericalError, match="curvature"):
            lf.update_nonconjugate(b, np.array([1.0]), 0.0, "poisson_log")

    def test_newton_divergence_carries_last_iterate(self):
        # a Poisson count of 1e60 puts the mode beyond Newton's reach
        b = lf.init_belief(1, 1.0)
        with pytest.raises(NumericalError) as excinfo:
            lf.update_nonconjugate(b, np.array([1.0]), 1e60, "poisson_log")
        assert "last_iterate" in excinfo.value.detail

    def test_unknown_likelihood(self):
        with pytest.raises(ConfigurationError):
            lf.update_nonconjugate(lf.init_belief(1, 1.0), np.array([1.0]), 1.0, "probit")
