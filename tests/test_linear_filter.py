"""Weight-space filtering: dynamics algebra, conjugate and Laplace updates."""

import numpy as np
import pytest

from conftest import rows_until_error, run_runner, runner_for, stream_columns
from seqgp import exact, features, kernels, linear_filter as lf, markovian
from seqgp.config import build_dynamics
from seqgp.errors import ConfigurationError, DataError, NumericalError, ShapeError
from seqgp.runners import LinearRunner, block_bounds, run_chunks


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

    @pytest.mark.parametrize("dynamics", [
        lf.static(), lf.random_walk(0.03), lf.b2p(0.9, prior_var=1.7), lf.general(0.95, 0.05, 0.003),
    ], ids=["static", "random_walk", "b2p", "general"])
    def test_every_covariance_producer_is_bit_symmetric(self, dynamics):
        # ``linalg.condition`` keeps a bit-symmetric covariance bit-symmetric
        # and repairs nothing, so each producer must make one
        fmap = features.sample_rff(kernels.se(1.7, 0.6), 64, seed=3)
        runner = LinearRunner(fmap, dynamics, 0.1)
        assert np.array_equal(runner.belief.cov, runner.belief.cov.T)
        x = np.random.default_rng(4).uniform(-2.0, 2.0, 150)  # three blocks: 64, 64 and 22 rows
        y = np.sin(x)
        y[5::6] = np.nan
        for _ in run_chunks(runner, stream_columns(y, x=x), 7):
            assert np.array_equal(runner.belief.cov, runner.belief.cov.T)

    def test_predict_f_zero_features(self):
        b = lf.init_belief(4, 1.0)
        assert lf.predict_f(b, np.zeros(4)) == (0.0, 0.0)

    def test_predict_f_shape_error(self):
        with pytest.raises(ShapeError):
            lf.predict_f(lf.init_belief(4, 1.0), np.ones(3))


class TestLinearRunner:
    """The runner conditions the belief it owns in place, a block of rows at a time
    under the Gaussian likelihood and row by row under a Laplace one, with the
    arithmetic of the pure fold through ``predict_step``, ``predict_f`` and
    ``update_step`` (a Laplace pseudo-observation under a non-Gaussian
    likelihood)."""

    @staticmethod
    def assert_matches_the_pure_fold(runner, data, chunk_rows=16):
        """Each row's (mean, var, logdensity) is the pure fold's at 1e-12, and so is the
        belief at the end of each block of the runner's partition (a block
        conditions the belief on its first draw)."""
        fmap, dynamics, likelihood = runner.fmap, runner.dynamics, runner.likelihood
        mean_id, cov_id = id(runner.belief.mean), id(runner.belief.cov)
        belief = lf.init_belief(fmap.n_features, fmap.weight_prior_var)
        ends = set((block_bounds(data.t, len(data), runner.block_rows)[1:] - 1).tolist())
        for i, ((_, got), point, y_i) in enumerate(zip(run_chunks(runner, data, chunk_rows), data.points,
                                                       data.y.tolist(), strict=True)):
            phi = features.featurize(fmap, point)
            predicted = lf.predict_step(belief, dynamics)
            mean, var = lf.predict_f(predicted, phi)
            assert (got.mean, got.var) == (pytest.approx(mean, rel=1e-12, abs=1e-12),
                                           pytest.approx(var, rel=1e-12, abs=1e-12))
            if np.isnan(y_i):
                assert got.logdensity is None
            else:
                if likelihood == "gaussian":
                    belief, ll = lf.update_step(predicted, phi, y_i, runner.noise_var)
                else:
                    pseudo_y, pseudo_var, ll = lf.laplace_observation(mean, var, y_i, likelihood)
                    belief, _ = lf.update_step(predicted, phi, pseudo_y, pseudo_var)
                assert got.logdensity == pytest.approx(ll, rel=1e-12, abs=1e-12)
            if i in ends:
                np.testing.assert_allclose(runner.belief.mean, belief.mean, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(runner.belief.cov, belief.cov, rtol=1e-12, atol=1e-12)
            assert np.array_equal(runner.belief.cov, runner.belief.cov.T)
        assert (id(runner.belief.mean), id(runner.belief.cov)) == (mean_id, cov_id)
        return ends

    @pytest.mark.parametrize("likelihood", ["gaussian", "poisson_log"])
    @pytest.mark.parametrize("dynamics", [
        lf.static(), lf.random_walk(0.03), lf.b2p(0.9, prior_var=1.7), lf.general(0.95, 0.05, 0.003),
    ], ids=["static", "random_walk", "b2p", "general"])
    def test_matches_the_pure_fold(self, dynamics, likelihood):
        fmap = features.sample_rff(kernels.se(1.7, 0.6), 64, seed=3)
        rng = np.random.default_rng(11)
        x = np.sort(rng.uniform(-2.0, 2.0, 150))
        y = rng.poisson(1.5, x.size).astype(float) if likelihood == "poisson_log" else np.sin(x)
        y[3::7] = np.nan
        y[60:70] = np.nan  # a run of predict-only rows across a block edge
        runner = LinearRunner(fmap, dynamics, 0.1, likelihood)
        ends = self.assert_matches_the_pure_fold(runner, stream_columns(y, x=x))
        assert len(ends) == (3 if likelihood == "gaussian" else 150)  # blocks of 64, 64 and 22 rows

    def test_poisson_log_runs_row_by_row(self):
        fmap = features.sample_rff(kernels.se(1.7, 0.6), 8, seed=3)
        assert LinearRunner(fmap, lf.random_walk(0.03), 0.1, "poisson_log").block_rows == 1
        assert LinearRunner(fmap, lf.random_walk(0.03), 0.1).block_rows == markovian.UPDATE_BLOCK_ROWS

    def test_a_block_whose_powers_overflow_runs_row_by_row(self, monkeypatch):
        # a = 1e6: cov_scale^26 overflows, but with one feature each y-row pins the weight down,
        # so the row-by-row filter stays finite where a block's tick powers would not (at a = 1e100
        # the row-by-row update itself overflows at the second row: TestExitCodes in test_cli.py)
        fmap = features.build_hsgp(kernels.matern32(1.0, 0.5), 1, 4.0)
        rng = np.random.default_rng(14)
        x = rng.uniform(-1.0, 1.0, 100)
        y = np.cos(x) + 0.1 * rng.standard_normal(x.size)
        y[5::9] = np.nan
        runner = LinearRunner(fmap, lf.general(1e6, 0.5, 0.01), 0.1)
        scalar_rows = []
        rows = LinearRunner._rows
        monkeypatch.setattr(LinearRunner, "_rows",
                            lambda self, phis, ys: scalar_rows.append(len(ys)) or rows(self, phis, ys))
        self.assert_matches_the_pure_fold(runner, stream_columns(y, x=x))
        assert scalar_rows == [64, 36]  # each block row by row

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_a_non_finite_feature_row_cuts_its_block_and_names_its_row(self):
        # x = 1e308 overflows the RFF phase omega x + b: row 100's feature row is NaN
        fmap = features.sample_rff(kernels.se(1.0, 0.5), 16, seed=2)
        rng = np.random.default_rng(15)
        x = rng.uniform(-1.0, 1.0, 150)
        x[99] = 1e308
        y = np.sin(x)
        assert not np.isfinite(features.featurize_many(fmap, x[99:100, None])).all()
        got, exc = rows_until_error(LinearRunner(fmap, lf.random_walk(0.01), 0.1), stream_columns(y, x=x), 16)
        assert str(exc) == "row 100: feature row has non-finite entries"
        before = run_runner(LinearRunner(fmap, lf.random_walk(0.01), 0.1), stream_columns(y[:99], x=x[:99]))
        assert got == [(r.mean, r.var, r.logdensity) for r in before]

    @pytest.mark.parametrize("dynamics", [
        lf.static(), lf.random_walk(0.03), lf.b2p(0.9, prior_var=1.7), lf.general(0.95, 0.05, 0.003),
    ], ids=["static", "random_walk", "b2p", "general"])
    def test_predict_f_ahead_is_predict_f_of_predict_step(self, dynamics):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((32, 32))
        b = lf.GaussianBelief(rng.standard_normal(32), A @ A.T / 32.0)
        for phi in rng.standard_normal((10, 32)):
            got = lf.predict_f_ahead(b, dynamics, phi)
            ref = lf.predict_f(lf.predict_step(b, dynamics), phi)
            if dynamics == lf.static():
                assert got == ref
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_predict_in_place_is_predict_step(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((16, 16))
        for dynamics in (lf.random_walk(0.03), lf.b2p(0.9, prior_var=1.7), lf.general(0.95, 0.05, 0.003),
                         lf.general(-1.0, 0.05, 0.003)):  # a unit cov_scale skips the multiply
            b = lf.GaussianBelief(rng.standard_normal(16), A @ A.T / 16.0)
            ref = lf.predict_step(b, dynamics)
            mean, cov = b.mean, b.cov
            lf.predict_in_place(b, dynamics)
            assert b.mean is mean and b.cov is cov
            np.testing.assert_array_equal(b.mean, ref.mean)
            np.testing.assert_array_equal(b.cov, ref.cov)

    def test_predict_in_place_rejects_a_covariance_it_cannot_write_through_a_flat_view(self):
        b = lf.GaussianBelief(np.zeros(3), np.asfortranarray(np.diag([1.0, 2.0, 3.0]) + 0.1))
        before = b.cov.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            lf.predict_in_place(b, lf.random_walk(0.5))
        np.testing.assert_array_equal(b.cov, before)


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

    def test_new_belief_is_a_c_contiguous_copy_of_any_layout(self):
        b = lf.GaussianBelief(np.array([0.3, -0.5]), np.asfortranarray([[0.7, 0.1], [0.1, 0.4]]))
        cov0 = b.cov.copy()
        out, _ = lf.update_step(b, np.array([1.0, 2.0]), 5.0, 0.1)
        assert out.cov.flags.c_contiguous and out.cov.flags.owndata
        np.testing.assert_array_equal(b.cov, cov0)

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
        X = np.sort(rng.uniform(0, 4, 100))
        y = rng.standard_normal(100)
        noise = 0.3
        Xs = np.linspace(0, 4, 25)
        # predict-only rows after the stream read the static posterior at Xs
        data = stream_columns(np.concatenate([y, np.full(Xs.size, np.nan)]), x=np.concatenate([X, Xs]))
        runner = runner_for(["model=linear", "kernel.family=se", "kernel.sigma_f2=1.2", "kernel.lengthscale=0.6",
                             "features.kind=rff", "features.F=64", "features.seed=2", f"noise_var={noise}"], data)
        res = run_runner(runner, data)

        post = exact.posterior(features.DegenerateKernel(runner.fmap), noise, X, y, Xs)
        np.testing.assert_allclose([r.mean for r in res[100:]], post.mean, atol=1e-6)
        np.testing.assert_allclose([r.var for r in res[100:]], np.diag(post.covariance), atol=1e-6)
        # the per-step scores chain into the batch evidence
        assert sum(r.logdensity for r in res[:100]) == pytest.approx(post.log_marginal, abs=1e-6)

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
        means = exact.posterior(features.DegenerateKernel(fmap), noise, X, y, Xs).mean
        rmse = float(np.sqrt(np.mean((means - post.mean) ** 2)))
        assert rmse < 0.05


def laplace_update(belief, phi, y, likelihood):
    """A copy of ``belief`` conditioned on y by the runner's step, ``observe_f`` then
    ``condition_in_place``: (belief, approx_loglik)."""
    out = lf.GaussianBelief(belief.mean.copy(), belief.cov.copy())
    return out, lf.condition_in_place(out, lf.observe_f(out, phi), y, likelihood, 0.0)


class TestNonConjugate:
    def test_bernoulli_positive_observation_shifts_mean_up(self):
        b = lf.init_belief(3, 1.0)
        phi = np.array([0.5, -0.2, 1.0])
        out, _ = laplace_update(b, phi, 1.0, "bernoulli_logit")
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
            out, _ = laplace_update(b, np.array([1.0]), y, lik_name)
            assert out.cov[0, 0] < v0

    def test_poisson_matched_count_small_shift(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            m0, v0 = rng.uniform(-1.0, 1.5), rng.uniform(0.2, 1.0)
            y = float(np.round(np.exp(m0)))
            q_mean, _ = quad_posterior(m0, v0, y, lf.POISSON_LOG)
            b = lf.GaussianBelief(np.array([m0]), np.array([[v0]]))
            out, _ = laplace_update(b, np.array([1.0]), y, "poisson_log")
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
            laplace_update(b, np.array([1.0]), 0.0, "poisson_log")

    def test_newton_divergence_carries_last_iterate(self):
        # a Poisson count of 1e60 puts the mode beyond Newton's reach
        b = lf.init_belief(1, 1.0)
        with pytest.raises(NumericalError) as excinfo:
            laplace_update(b, np.array([1.0]), 1e60, "poisson_log")
        assert "last_iterate" in excinfo.value.detail

    @pytest.mark.parametrize("prior_var", [0.0, -1.0, float("nan"), float("inf"), 2.2e-309])
    def test_prior_variance_without_a_finite_precision_is_a_numerical_error(self, prior_var):
        # a subnormal variance has an infinite precision: log(2 pi / curvature) would raise ValueError
        with pytest.raises(NumericalError, match="prior variance on f"):
            lf.laplace_1d(0.0, prior_var, 0.0, lf.BERNOULLI_LOGIT)

    def test_unknown_likelihood(self):
        with pytest.raises(ConfigurationError):
            laplace_update(lf.init_belief(1, 1.0), np.array([1.0]), 1.0, "probit")
