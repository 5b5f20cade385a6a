"""Recursive sparse updates and the information-form variational recursion."""

import numpy as np
import pytest

from conftest import rows_until_error, run_runner, runner_for, stream_columns
from seqgp import exact, kernels, sparse
from seqgp.errors import ConfigurationError, DataError
from seqgp.markovian import block_bounds
from seqgp.runners import SparseRunner, run_chunks

THREE_KERNELS = [
    kernels.se(1.0, 0.6),
    kernels.matern12(1.3, 0.9),
    kernels.matern32(0.8, 0.7),
]


def stream(seed=40, n=100, hi=4.0):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(0.0, hi, n))
    y = np.sin(2.0 * X) + 0.3 * rng.standard_normal(n)
    return X, y


class TestInit:
    def test_single_inducing_prior(self):
        st = sparse.init_sparse(kernels.se(1.7, 1.0), [[0.5]])
        assert st.cov[0, 0] == pytest.approx(1.7, rel=1e-7)
        np.testing.assert_array_equal(st.mean, [0.0])

    def test_prior_prediction_restores_kernel_variance(self):
        k = kernels.matern32(1.2, 0.8)
        st = sparse.init_sparse(k, np.linspace(0, 3, 8))
        for x in (-1.0, 0.4, 2.9, 7.0):
            mean, var = sparse.sparse_predict(st, x)
            assert mean == 0.0
            assert var == pytest.approx(kernels.eval_kernel(k, x, x), abs=1e-9)

    def test_cov_symmetric_at_init(self):
        # bit for bit: ``linalg.condition`` keeps a bit-symmetric covariance so and repairs nothing
        for kernel in THREE_KERNELS:
            for inducing in (np.linspace(0, 1, 5), np.random.default_rng(6).uniform(-3.0, 3.0, (33, 2))):
                st = sparse.init_sparse(kernel, inducing)
                assert np.array_equal(st.cov, st.cov.T)

    def test_duplicate_inducing_rejected(self):
        with pytest.raises(ConfigurationError):
            sparse.init_sparse(kernels.se(), [[0.0], [0.0], [1.0]])

    def test_duplicate_limit_follows_the_spread_of_the_inputs(self):
        # distinct on their own scale: accepted whatever the lengthscale
        for kernel, inducing in ((kernels.se(1.0, 1e100), [[0.0], [1.0]]), (kernels.se(), [[0.0], [1e-9]])):
            assert sparse.init_sparse(kernel, inducing).n_inducing == 2
        # within 1e-8 of the largest pairwise distance: a duplicate, even under a tiny lengthscale
        with pytest.raises(ConfigurationError, match="duplicate inducing inputs"):
            sparse.init_sparse(kernels.se(1.0, 1e-12), [[0.0], [1e-9], [1.0]])


class TestSparseUpdate:
    def test_scalar_conjugate_oracle_at_inducing_point(self):
        st = sparse.init_sparse(kernels.se(1.0, 1.0), [[0.0]])
        st, ll = sparse.sparse_update(st, 0.0, 2.0, 1.0)
        assert st.mean[0] == pytest.approx(1.0, abs=1e-7)
        assert st.cov[0, 0] == pytest.approx(0.5, abs=1e-7)
        assert ll == pytest.approx(-0.5 * (np.log(2 * np.pi * 2.0) + 2.0), abs=1e-7)

    def test_infinite_noise_is_no_op(self):
        st = sparse.init_sparse(kernels.se(), np.linspace(0, 2, 4))
        st2, _ = sparse.sparse_update(st, 0.7, 3.0, 1e12)
        np.testing.assert_allclose(st2.mean, st.mean, atol=1e-9)
        np.testing.assert_allclose(st2.cov, st.cov, atol=1e-9)

    @pytest.mark.parametrize("kernel", THREE_KERNELS, ids=lambda k: k.family)
    @pytest.mark.parametrize("residual", [True, False], ids=["residual", "bare"])
    def test_full_inducing_set_recovers_exact_gp(self, kernel, residual):
        # M = N with inducing at the training inputs: predictive means match
        # the exact GP (the residual is zero there, so both modes agree)
        X, y = stream()
        noise = 0.15
        Xs = np.linspace(0.2, 3.8, 20)
        runner = SparseRunner(kernel, noise, X, residual)
        res = run_runner(runner, stream_columns(np.concatenate([y, np.full(Xs.size, np.nan)]),
                                                x=np.concatenate([X, Xs])))
        post = exact.posterior(kernel, noise, X, y, Xs)
        np.testing.assert_allclose([r.mean for r in res[X.size:]], post.mean, atol=1e-5)

    def test_order_invariance(self):
        X, y = stream(seed=41, n=60)
        rng = np.random.default_rng(1)
        Z = np.linspace(0.2, 3.8, 12)

        def run(order):
            st = sparse.init_sparse(kernels.se(1.0, 0.7), Z)
            for i in order:
                st, _ = sparse.sparse_update(st, X[i], y[i], 0.2)
            return st

        a, b = run(range(60)), run(rng.permutation(60))
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-7)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-7)

    def test_posterior_cov_dominated_by_prior(self):
        X, y = stream(seed=43)
        st = sparse.init_sparse(kernels.matern12(1.0, 1.0), np.linspace(0, 4, 10))
        prior = st.cov.copy()
        for xi, yi in zip(X, y):
            st, _ = sparse.sparse_update(st, xi, yi, 0.1)
        np.linalg.cholesky(prior - st.cov + 1e-9 * np.eye(10))

    def test_non_finite_rejected(self):
        st = sparse.init_sparse(kernels.se(), [[0.0]])
        with pytest.raises(DataError):
            sparse.sparse_update(st, 0.0, np.inf, 0.1)


class TestSparsePredict:
    def test_at_inducing_point_residual_vanishes(self):
        k = kernels.se(1.0, 0.9)
        Z = np.linspace(0, 3, 6)
        st = sparse.init_sparse(k, Z)
        X, y = stream(seed=45, n=40)
        for xi, yi in zip(X, y):
            st, _ = sparse.sparse_update(st, xi, yi, 0.2)
        z = Z[2]
        _, var = sparse.sparse_predict(st, z)
        h, q = sparse._projection(st, z)
        assert q < 1e-8
        assert var == pytest.approx(float(h @ st.cov @ h), abs=1e-8)

    def test_far_field_reverts_to_prior(self):
        k = kernels.se(1.4, 0.5)
        st = sparse.init_sparse(k, np.linspace(0, 2, 5))
        X, y = stream(seed=46, n=30, hi=2.0)
        for xi, yi in zip(X, y):
            st, _ = sparse.sparse_update(st, xi, yi, 0.2)
        mean, var = sparse.sparse_predict(st, 50.0)
        assert abs(mean) < 1e-10
        assert var == pytest.approx(1.4, abs=1e-9)

    def test_mid_range_tracks_exact_gp(self):
        k = kernels.se(1.0, 0.5)
        rng = np.random.default_rng(47)
        X = np.sort(rng.uniform(0.0, 4.0, 200))
        y = np.sin(2 * X) + 0.2 * rng.standard_normal(200)
        noise = 0.04
        Xs = np.linspace(0.3, 3.7, 25)
        data = stream_columns(np.concatenate([y, np.full(Xs.size, np.nan)]), x=np.concatenate([X, Xs]))
        # inducing inputs placed by the runner from sparse.M, on the quantiles of every row's input
        runner = runner_for(["model=sparse", "kernel.family=se", "kernel.lengthscale=0.5", "sparse.M=32",
                             f"noise_var={noise}"], data)
        means = np.array([r.mean for r in run_runner(runner, data)[X.size:]])
        post = exact.posterior(k, noise, X, y, Xs)
        assert np.abs(means - post.mean).max() < 0.05


class TestSparseRunner:
    """``SparseRunner.step`` computes the projection once and shares it."""

    @staticmethod
    def columns(n=120):
        X, y = stream(seed=48, n=n)
        y[np.random.default_rng(49).random(n) < 0.15] = np.nan
        return stream_columns(y, x=X)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_projection_of_a_row_does_not_depend_on_its_batch(self, dim):
        rng = np.random.default_rng(50 + dim)
        state = sparse.init_sparse(kernels.matern32(1.0, 0.7), rng.uniform(0.0, 4.0, (16, dim)), True)
        X = rng.uniform(-1.0, 5.0, (40, dim))
        rows = [sparse._projection(state, x) for x in X]
        for size in (1, 2, 3, 7, 40):
            for start in range(0, 40, size):
                H, q = sparse.projections(state, X[start : start + size])
                for i, (h, qi) in enumerate(zip(H, q.tolist()), start=start):
                    np.testing.assert_array_equal(h, rows[i][0])
                    assert qi == rows[i][1]

    def test_each_row_is_projected_once_in_its_chunks_prepare(self, monkeypatch):
        calls = []
        projections = sparse.projections

        def counted(state, X):
            calls.extend(X)
            return projections(state, X)

        monkeypatch.setattr(sparse, "projections", counted)
        data = self.columns(300)
        runner = SparseRunner(kernels.matern32(1.0, 0.7), 0.1, np.linspace(0.0, 4.0, 16), True)
        bounds = block_bounds(data.t, len(data), runner.block_rows)
        assert bounds.tolist() == [0, 64, 128, 192, 256, 300]  # chunks of 16 rows end at these block starts
        for rec, _ in run_chunks(runner, data, 16):
            assert len(calls) == bounds[np.searchsorted(bounds, rec.row)]  # the rows up to its chunk's end
        np.testing.assert_array_equal(np.array(calls), data.x)
        assert np.isnan(data.y).any()

    @staticmethod
    def assert_matches_the_pure_fold(runner, data, residual):
        """Each row's (mean, var, logdensity) is the two-projection sequence's at 1e-12, and
        so is the state at the end of each block of the runner's partition (a block
        conditions the state on its first draw); each row is charged as it is drawn."""
        st = runner.state
        state = sparse.init_sparse(st.kernel, st.inducing, residual)
        mean_id, cov_id, flops, M = id(st.mean), id(st.cov), 0, st.n_inducing
        ends = set((block_bounds(data.t, len(data), runner.block_rows)[1:] - 1).tolist())
        for i, ((_, got), point, y_i) in enumerate(zip(run_chunks(runner, data, 16), data.points, data.y.tolist(),
                                                       strict=True)):
            # the two-projection sequence: each call projects x itself
            mean, var = sparse.sparse_predict(state, point)
            if np.isnan(y_i):
                assert got.logdensity is None
            else:
                state, ll = sparse.sparse_update(state, point, y_i, runner.noise_var)
                flops += 6 * M * M + 10 * M  # O(M^2)
                assert got.logdensity == pytest.approx(ll, rel=1e-12, abs=1e-12)
            assert (got.mean, got.var) == (pytest.approx(mean, rel=1e-12, abs=1e-12),
                                           pytest.approx(var, rel=1e-12, abs=1e-12))
            if i in ends:
                np.testing.assert_allclose(runner.state.mean, state.mean, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(runner.state.cov, state.cov, rtol=1e-12, atol=1e-12)
            assert np.array_equal(runner.state.cov, runner.state.cov.T)
            assert runner.flops == flops
        assert (id(runner.state.mean), id(runner.state.cov)) == (mean_id, cov_id)
        return ends

    @pytest.mark.parametrize("residual", [True, False])
    def test_matches_separate_predict_and_update(self, residual):
        data = self.columns(300)
        runner = SparseRunner(kernels.matern32(1.0, 0.7), 0.1, np.linspace(0.0, 4.0, 16), residual)
        assert len(self.assert_matches_the_pure_fold(runner, data, residual)) == 5  # 4 blocks of 64, one of 44

    @pytest.mark.parametrize("model", ["sparse", "vsgp"])
    def test_built_runner_conditions_its_state_in_place_like_the_pure_fold(self, model):
        data = self.columns(300)
        runner = runner_for([f"model={model}", "kernel.family=matern32", "kernel.lengthscale=0.7", "noise_var=0.1",
                             "sparse.M=12"], data)
        assert runner.block_rows == 64
        self.assert_matches_the_pure_fold(runner, data, True)

    def test_a_non_finite_projection_row_cuts_its_block_and_names_its_row(self):
        data = self.columns(200)
        x = data.x.copy()
        x[99, 0] = np.nan  # row 100, the 36th row of the second block
        kernel, Z = kernels.matern32(1.0, 0.7), np.linspace(0.0, 4.0, 16)
        got, exc = rows_until_error(SparseRunner(kernel, 0.1, Z, True), stream_columns(data.y, x=x), 16)
        assert str(exc) == "row 100: projection has non-finite entries"
        before = run_runner(SparseRunner(kernel, 0.1, Z, True), stream_columns(data.y[:99], x=x[:99]))
        assert got == [(r.mean, r.var, r.logdensity) for r in before]


class TestVsgpInfoUpdate:
    def test_batch_equals_sequential(self):
        X, y = stream(seed=48, n=40)
        Z = np.linspace(0.2, 3.8, 9)
        seq = SparseRunner(kernels.se(1.0, 0.8), 0.2, Z, True)
        run_runner(seq, stream_columns(y, x=X))
        batch = sparse.vsgp_info_update(sparse.init_sparse(kernels.se(1.0, 0.8), Z), X, y, 0.2)
        np.testing.assert_allclose(batch.mean, seq.state.mean, atol=1e-8)
        np.testing.assert_allclose(batch.cov, seq.state.cov, atol=1e-8)

    def test_two_half_batches_equal_full_batch(self):
        X, y = stream(seed=49, n=30)
        Z = np.linspace(0.2, 3.8, 7)
        full = sparse.vsgp_info_update(sparse.init_sparse(kernels.se(), Z), X, y, 0.3)
        halves = sparse.init_sparse(kernels.se(), Z)
        halves = sparse.vsgp_info_update(halves, X[:15], y[:15], 0.3)
        halves = sparse.vsgp_info_update(halves, X[15:], y[15:], 0.3)
        np.testing.assert_allclose(halves.mean, full.mean, atol=1e-10)
        np.testing.assert_allclose(halves.cov, full.cov, atol=1e-10)

    def test_infinite_noise_batch_is_no_op(self):
        X, y = stream(seed=50, n=10)
        st = sparse.init_sparse(kernels.se(), np.linspace(0, 4, 5))
        out = sparse.vsgp_info_update(st, X, y, 1e14)
        np.testing.assert_allclose(out.mean, st.mean, atol=1e-9)
        np.testing.assert_allclose(out.cov, st.cov, atol=1e-9)

    def test_single_point_batch_equals_one_update(self):
        st0 = sparse.init_sparse(kernels.matern32(1.0, 0.8), np.linspace(0, 3, 6))
        one = SparseRunner(st0.kernel, 0.25, st0.inducing, True)
        run_runner(one, stream_columns([0.4], x=[1.1]))
        b = sparse.vsgp_info_update(st0, [[1.1]], [0.4], 0.25)
        np.testing.assert_allclose(one.state.mean, b.mean, atol=1e-8)
        np.testing.assert_allclose(one.state.cov, b.cov, atol=1e-8)

    def test_empty_batch_rejected(self):
        st = sparse.init_sparse(kernels.se(), [[0.0]])
        with pytest.raises(DataError):
            sparse.vsgp_info_update(st, np.zeros((0, 1)), [], 0.1)


class TestChooseInducing:
    def test_one_dimensional_quantiles(self):
        X = np.linspace(0, 9, 10)
        Z = sparse.choose_inducing(X, 5, seed=0)
        assert Z.shape == (5, 1)
        assert np.all(np.diff(Z[:, 0]) > 0)
        np.testing.assert_array_equal(Z, sparse.choose_inducing(X, 5, seed=1))  # deterministic in 1-D

    def test_multidimensional_kmeans_deterministic_given_seed(self):
        rng = np.random.default_rng(51)
        X = rng.uniform(0, 1, size=(60, 2))
        a = sparse.choose_inducing(X, 6, seed=3)
        b = sparse.choose_inducing(X, 6, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_too_many_inducing_rejected(self):
        with pytest.raises(ConfigurationError):
            sparse.choose_inducing(np.arange(4.0), 5, seed=0)


class TestLongStream:
    def test_update_long_stream_stays_psd(self):
        rng = np.random.default_rng(18)
        runner = SparseRunner(kernels.matern32(1.0, 0.8), 0.25, np.linspace(0.0, 4.0, 6), True)
        run_runner(runner, stream_columns(rng.standard_normal(20_000), x=rng.uniform(0.0, 4.0, 20_000)))
        st = runner.state
        np.testing.assert_array_equal(st.cov, st.cov.T)
        min_eig = float(np.linalg.eigvalsh(st.cov).min())
        assert min_eig >= -1e-9 * np.trace(st.cov) / st.n_inducing
