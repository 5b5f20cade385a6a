"""Exact-GP runner: the Cholesky factor, extended a block of rows at a time, against the batch oracle."""

import warnings

import numpy as np
import pytest

from scipy.linalg import lapack

from conftest import rows_until_error, run_cli, run_runner, stream_columns
from seqgp import exact, kernels
from seqgp.errors import ConfigurationError, NumericalError
from seqgp.runners import ExactRunner, block_bounds, run_chunks

NOISE_VAR = 0.05


def stream(seed, n, dim=None, predict_share=0.1):
    """Seeded columns: time inputs (dim=None) or dim-D x inputs, some rows without y (NaN)."""
    rng = np.random.default_rng(seed)
    if dim is None:
        pts = np.cumsum(rng.uniform(0.01, 0.1, n))[:, None]
    else:
        pts = rng.uniform(-2.0, 2.0, (n, dim))
    ys = np.sin(3.0 * pts.sum(axis=1)) + 0.2 * rng.standard_normal(n)
    ys[rng.uniform(size=n) < predict_share] = np.nan
    return stream_columns(ys, t=pts[:, 0]) if dim is None else stream_columns(ys, x=pts)


def assert_matches_batch_oracle(kernel, data):
    runner = ExactRunner(kernel, NOISE_VAR)
    X, y, total = [], [], 0.0
    for (_, res), point, y_i in zip(run_chunks(runner, data, 16), data.points, data.y.tolist(), strict=True):
        if X:
            post = exact.posterior(kernel, NOISE_VAR, np.array(X), np.array(y), point.reshape(1, -1))
            mean, var = float(post.mean[0]), float(post.covariance[0, 0])
        else:
            mean, var = 0.0, kernel.total_variance
        np.testing.assert_allclose(res.mean, mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(res.var, var, rtol=1e-10, atol=1e-12)
        if not np.isnan(y_i):
            total += res.logdensity
            X.append(point)
            y.append(y_i)
    # chain rule: the scored log densities telescope to the log marginal likelihood
    assert total == pytest.approx(exact.log_marginal_likelihood(kernel, NOISE_VAR, np.array(X), np.array(y)),
                                  abs=1e-8)
    return runner, np.array(X)


class TestAgainstBatchOracle:
    def test_every_prefix_of_a_time_stream(self):
        data = stream(11, 200)
        assert 10 <= np.isnan(data.y).sum() <= 35
        kernel = kernels.matern32(1.3, 0.4)
        runner, X = assert_matches_batch_oracle(kernel, data)
        L_batch = np.linalg.cholesky(kernel.gram(X) + NOISE_VAR * np.eye(X.shape[0]))
        np.testing.assert_allclose(runner.factor, L_batch, rtol=1e-10, atol=1e-12)

    def test_two_dimensional_inputs(self):
        assert_matches_batch_oracle(kernels.se(0.8, 0.9), stream(12, 120, dim=2))


class TestState:
    def test_predict_only_rows_leave_the_factor_unchanged(self):
        runner = ExactRunner(kernels.se(1.0, 0.5), NOISE_VAR)
        run_runner(runner, stream(13, 30, predict_share=0.0))
        before = (runner.n, runner.factor, runner.z.copy(), runner.inputs.copy())
        [res] = run_runner(runner, stream_columns([np.nan], t=[5.0]))
        assert res.logdensity is None
        after = (runner.n, runner.factor, runner.z, runner.inputs)
        assert before[0] == after[0] == 30
        for a, b in zip(before[1:], after[1:]):
            np.testing.assert_array_equal(a, b)

    def test_step_flops_grow_quadratically(self):
        runner = ExactRunner(kernels.matern12(1.0, 1.0), NOISE_VAR)
        step_flops = []
        before = runner.flops
        for _ in run_chunks(runner, stream(14, 401, predict_share=0.0), 16):
            step_flops.append(runner.flops - before)
            before = runner.flops
        ratio = step_flops[400] / step_flops[200]  # n = 400 vs n = 200 observations
        assert 3.5 < ratio < 4.5  # quadratic: 4; a refactorization per row would give 8

    def test_each_row_is_charged_as_it_is_yielded(self):
        # a block is conditioned when its first row is drawn, but each row is charged n^2 + 4n + 10
        # when it is yielded, n the observations before it, as if it were grown alone
        runner, n, before = ExactRunner(kernels.matern32(), NOISE_VAR), 0, 0
        for _, res in run_chunks(runner, stream(16, 150), 16):
            assert runner.flops - before == n * n + 4 * n + 10
            before, n = runner.flops, n + (res.logdensity is not None)

    def test_non_positive_noise_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="noise_var must be positive"):
            ExactRunner(kernels.se(), 0.0)

    def test_non_finite_kernel_entries_are_numerical_errors(self):
        runner = ExactRunner(kernels.se(), NOISE_VAR)
        data = stream_columns([0.3, 0.1], t=[0.0, np.nan])
        runner.prepare(data)
        first, second = data.records()
        runner.step(first)
        with pytest.raises(NumericalError, match="non-finite"):
            runner.step(second)

    def test_a_non_finite_entry_that_no_row_reads_is_not_an_error(self):
        # row 1 is predict-only at t = NaN: its entry against row 2 is NaN, but no row conditions on
        # row 1, so both rows are the prior, as when they are grown one at a time
        runner = ExactRunner(kernels.se(), NOISE_VAR)
        first, second = run_runner(runner, stream_columns([np.nan, 0.3], t=[np.nan, 0.0]))
        assert (first.mean, first.var, first.logdensity) == (0.0, 1.0, None)
        assert (second.mean, second.var) == (0.0, 1.0)
        assert runner.n == 1

    def test_overflowing_prior_variance_is_a_configuration_error(self):
        # kappa(0) = weight * sigma2 overflows: the kernel is rejected before any row, without a warning
        args = ["run", "model=exact", "kernel.family=hida_matern", "kernel.hm_components=1e308:0:1.5:1:10",
                "noise_var=0.1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(args, stdin_text="t,y\n0,0.5\n")
        assert code == 2
        assert err == "seqgp: configuration error: kernel.hm_components: HM total variance sum(weight * sigma2) is inf\n"
        assert out == ""


class TestIllConditionedStream:
    """SE kernel, 40 rows at spacing 1e-3: the Gram is numerically rank-deficient."""

    CSV = "t,y\n" + "".join(f"{t!r},{float(np.sin(2.0 * np.pi * t))!r}\n" for t in (np.arange(40) * 1e-3).tolist())

    def test_tiny_noise_still_runs(self):
        code, _, err = run_cli(["run", "model=exact", "kernel.family=se", "noise_var=1e-12"], stdin_text=self.CSV)
        assert code == 0, err

    def test_vanishing_noise_is_a_numerical_error(self):
        code, _, err = run_cli(["run", "model=exact", "kernel.family=se", "noise_var=1e-16"], stdin_text=self.CSV)
        assert code == 4
        assert "non-positive predictive variance" in err
        assert "row " in err


def cells(results):
    return [(r.mean, r.var, r.logdensity) for r in results]


class TestMidBlockErrors:
    """A block is cut at a failing row: the rows before it run as a block of their own, then the row raises."""

    def test_non_finite_kernel_entry_inside_a_block_names_its_row_after_the_rows_before_it(self):
        data = stream(17, 200)
        bounds = block_bounds(data.t, len(data), ExactRunner.block_rows).tolist()
        k = bounds[1] + 36  # inside the second block
        t = data.t.copy()
        t[k] = np.nan
        kernel = kernels.matern32(1.3, 0.4)
        got, exc = rows_until_error(ExactRunner(kernel, NOISE_VAR), stream_columns(data.y, t=t), 16)
        assert str(exc) == f"row {k + 1}: kernel has non-finite entries"
        assert got == cells(run_runner(ExactRunner(kernel, NOISE_VAR), stream_columns(data.y[:k], t=t[:k])))

    def test_non_finite_input_on_a_blocks_last_row_names_it(self):
        data = stream(18, 200, dim=2)
        k = 127  # row 128, the 64th and last row of the second block of a stream without t
        assert block_bounds(None, len(data), ExactRunner.block_rows)[1:3].tolist() == [64, 128]
        x = data.x.copy()
        x[k, 1] = np.nan
        kernel = kernels.se(0.8, 0.9)
        got, exc = rows_until_error(ExactRunner(kernel, NOISE_VAR), stream_columns(data.y, x=x), 16)
        assert str(exc) == "row 128: kernel has non-finite entries"
        assert got == cells(run_runner(ExactRunner(kernel, NOISE_VAR), stream_columns(data.y[:k], x=x[:k])))

    def test_failed_pivot_inside_a_later_block_names_its_row_after_the_rows_before_it(self):
        # 70 well-spread rows, then the ill-conditioned SE stream of TestIllConditionedStream with
        # vanishing noise: a pivot of the second block fails a few rows into the close-spaced part
        t = np.concatenate([np.arange(70) * 3.0, 300.0 + np.arange(100) * 1e-3])
        y = np.sin(2.0 * np.pi * t)
        kernel = kernels.se()
        runner = ExactRunner(kernel, 1e-16)
        got, exc = rows_until_error(runner, stream_columns(y, t=t), 16)
        k = len(got)  # the failing row, 0-based
        assert 70 < k < 128
        assert str(exc).startswith(f"row {k + 1}: non-positive predictive variance at pivot ")
        assert got == cells(run_runner(ExactRunner(kernel, 1e-16), stream_columns(y[:k], t=t[:k])))
        assert runner.n == k  # the rows before it, and only those, are in the factor

    def test_a_failed_pivot_runs_its_row_alone_and_the_rest_as_a_new_block(self, monkeypatch):
        # a factorization that fails at the fifth pivot of any block with five or more y-rows: such a
        # block runs as the rows before its fifth y-row, that row alone and the rest as a new block,
        # which fails again while it has five y-rows; every row is still the batch oracle's
        real, sizes = lapack.dpotrf, []

        def failing(a, **kwargs):
            sizes.append(len(a))
            c, info = real(a, **kwargs)
            return (c, 5) if len(a) >= 5 else (c, info)

        monkeypatch.setattr(lapack, "dpotrf", failing)
        data = stream(19, 150)
        runner, _ = assert_matches_batch_oracle(kernels.matern32(1.3, 0.4), data)
        assert runner.n == np.count_nonzero(~np.isnan(data.y))  # every y-row is in the factor
        assert sum(n >= 5 for n in sizes) >= 20 and 1 in sizes and 4 in sizes
