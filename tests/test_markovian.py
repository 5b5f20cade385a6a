"""State-space GP: builders, discretization, filtering, smoothing, space-time."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm, lapack

from conftest import conditioned, parse_report, rows_until_error, run_cli, run_runner, runner_for, stream_columns
from seqgp import cli, exact, kernels, markovian
from seqgp.cli import CHUNK_ROWS
from seqgp.linalg import condition, observe, symmetrize
from seqgp.runners import MarkovRunner, run_chunks
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
    """``linalg.condition`` keeps a bit-symmetric covariance bit-symmetric and
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
            stepper.update(float(rng.standard_normal()), stepper.predict_obs(i % n_obs))
            assert np.array_equal(stepper.cov, stepper.cov.T)

    @pytest.mark.parametrize("sde", [
        *(markovian.build_lti(k) for k in MARKOV_KERNELS),
        markovian.build_spatiotemporal(kernels.matern32(1.0, 0.7), kernels.se(1.0, 0.8),
                                       np.random.default_rng(4).uniform(0.0, 3.0, (40, 2))),
    ], ids=["m12", "m32", "hm", "spacetime"])
    def test_covariance_is_bit_symmetric_after_every_block(self, sde):
        # blocks of 2 to 40 rows, a few predict-only: P -= G^T G must leave P bit-symmetric
        stepper = markovian.MarkovStepper(sde, 0.1)
        rng = np.random.default_rng(6)
        n_obs = sde.obs.shape[0]
        for t in np.cumsum(rng.exponential(0.4, 12)):
            n = int(rng.integers(2, 41))
            y = rng.standard_normal(n)
            y[rng.random(n) < 0.2] = np.nan
            stepper.step(float(t), y, rng.integers(0, n_obs, n))
            assert np.array_equal(stepper.cov, stepper.cov.T)


SPACETIME_SDE = markovian.build_spatiotemporal(kernels.matern32(1.0, 0.7), kernels.se(1.0, 0.8),
                                               [[0.0, 0.0], [0.5, 0.1], [1.1, -0.4], [2.0, 0.3]])
# the mixture's row (r = 3) and the row without its second component, which pads an entry of weight 0.0
PADDED_MIXTURE_SDE = dataclasses.replace(ZERO_STEP_SDES["mixture"], obs=ZERO_STEP_SDES["mixture"].obs[[0, 0]]
                                         * np.array([[1.0] * 8, [1.0] * 4 + [0.0] + [1.0] * 3]))


def stepped(sde, n=25, seed=6):
    """A stepper after n irregular steps that cycle through the observation rows."""
    stepper = markovian.MarkovStepper(sde, 0.1)
    rng = np.random.default_rng(seed)
    for i, t in enumerate(np.cumsum(rng.exponential(0.3, n))):
        stepper.step(float(t), [float(rng.standard_normal())], [i % sde.obs.shape[0]])
    return stepper


def predicted_moments(sde, record):
    """Each time row's predicted moments from the filtered row before it (the
    stationary prior before row 0): one stacked ``predict`` over every step."""
    prev_means = np.concatenate((np.zeros((1, sde.dim)), record.means[:-1]))
    prev_covs = np.concatenate((sde.stationary[None], record.covs[:-1]))
    deltas = np.diff(record.times, prepend=record.times[:1])
    return markovian.predict(sde, markovian.transition(sde, deltas), prev_means, prev_covs)


def first_and_last_rows(record):
    """The first and the last input row of each time row of ``record``."""
    starts = np.diff(record.steps, prepend=-1) != 0
    return np.flatnonzero(starts), np.flatnonzero(np.append(starts[1:], True))


def sequential_rows(sde, t, y, rows, noise_var):
    """The per-row reference for a stream with ties: each row advanced to its time (one
    ``predict`` per distinct time), observed through ``linalg.observe`` and, on a y-row,
    conditioned on its y alone with ``linalg.condition``.  Returns each row's (mean, var,
    loglik), loglik None on a predict-only row, and the (mean, cov) after each time's last row."""
    mean, cov, time = np.zeros(sde.dim), sde.stationary.copy(), None
    cells, states = [], []
    for i, (ti, yi, row) in enumerate(zip(t.tolist(), y.tolist(), np.asarray(rows).tolist())):
        if ti != time:
            A = markovian.transition(sde, 0.0 if time is None else ti - time)
            mean, cov, time = *markovian.predict(sde, A, mean, cov), ti
        observed = observe(mean, cov, sde.obs[row])
        cells.append((observed[0], observed[1], None if yi != yi else condition(mean, cov, observed, yi, noise_var)))
        if i + 1 == t.size or t[i + 1] != ti:
            states.append((mean.copy(), cov.copy()))
    return cells, states


def assert_cells_close(got, ref, atol=1e-12):
    """Rows of (mean, var, loglik) agree to ``atol``, with None loglik in the same rows."""
    assert len(got) == len(ref)
    assert [ll is None for _, _, ll in got] == [ll is None for _, _, ll in ref]
    got = np.array([(m, v, np.nan if ll is None else ll) for m, v, ll in got])
    ref = np.array([(m, v, np.nan if ll is None else ll) for m, v, ll in ref])
    np.testing.assert_allclose(got, ref, rtol=0, atol=atol, equal_nan=True)


def stepped_blocks(sde, t, y, rows, noise_var):
    """A stepper with a history, driven over ``block_bounds(t, n, UPDATE_BLOCK_ROWS)`` one
    ``step`` per block, as the runner drives it: the stepper and each row's (mean, var, loglik)."""
    stepper = markovian.MarkovStepper(sde, noise_var, history_times=t)
    bounds = markovian.block_bounds(t, t.size, markovian.UPDATE_BLOCK_ROWS).tolist()
    cells = []
    for a, b in zip(bounds, bounds[1:]):
        cells += zip(*stepper.step(t[a:b].tolist(), y[a:b].tolist(), np.asarray(rows)[a:b].tolist()))
    return stepper, cells


def scores(cells):
    """The log densities of rows (mean, var, loglik) or of StepResults, as ``kalman_filter``'s
    ``logliks`` holds them (NaN on a predict-only row), and their sum left to right, as its
    ``loglik_total`` is summed."""
    lls = [c[2] if isinstance(c, tuple) else c.logdensity for c in cells]
    total = 0.0
    for ll in lls:
        total += 0.0 if ll is None else ll
    return np.array([np.nan if ll is None else ll for ll in lls]), total


def assert_records_equal(got, want):
    """Two stepper records, bit for bit: every row and field, and its runs."""
    for name in ("times", "means", "covs", "steps", "obs_rows"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert len(got.runs) == len(want.runs)
    for a, b in zip(got.runs, want.runs):
        for field in dataclasses.fields(b):
            np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name))


def assert_record_matches_the_batch_filter(record, cells, batch, atol=1e-12):
    """A record with runs, and the rows that filled it, against ``kalman_filter``'s, which has a row
    per distinct time.  The record has a row per stored state, with strictly increasing times: one
    per time step outside a run, and one per run, right after its start state's (``run.end ==
    run.start + 1``, so 0 for a run from the stream's first row), at its last time, which every one
    of its rows maps to.  Its rows and moments, and the rows' log densities, are the batch filter's,
    the moments at the same times, to ``atol``."""
    t = batch.times[batch.steps]  # each input row's time
    logliks, total = scores(cells)
    np.testing.assert_array_equal(record.obs_rows, batch.obs_rows)
    np.testing.assert_allclose(logliks, batch.logliks, rtol=0, atol=atol, equal_nan=True)
    assert total == pytest.approx(batch.loglik_total, rel=0, abs=atol * logliks.size)
    assert np.all(np.diff(record.times) > 0)
    plain = np.ones(t.size, dtype=bool)
    for run in record.runs:
        rows = slice(run.first, run.first + len(run.rows))
        assert run.end == run.start + 1
        np.testing.assert_array_equal(record.steps[rows], run.end)
        assert record.times[run.end] == t[rows][-1]
        plain[rows] = False
    np.testing.assert_array_equal(record.times[record.steps[plain]], t[plain])
    assert record.times.size == np.unique(t[plain]).size + len(record.runs)
    same = np.searchsorted(batch.times, record.times)  # the batch row at each record row's time
    np.testing.assert_array_equal(batch.times[same], record.times)
    np.testing.assert_allclose(record.means, batch.means[same], rtol=0, atol=atol)
    np.testing.assert_allclose(record.covs, batch.covs[same], rtol=0, atol=atol)


def assert_within_ulps(got, ref, magnitude, ulps=4):
    """|got - ref| <= ulps * spacing(magnitude), entry by entry."""
    assert np.all(np.abs(np.asarray(got) - ref) <= ulps * np.spacing(magnitude)), (got, ref)


class TestObserveStep:
    """``MarkovStepper.predict_obs`` forms s = cov h once per row, from the row's
    nonzero entries, and ``update`` conditions on the triple it returns."""

    def test_space_time_rows_read_one_entry_bit_equal_to_the_product(self):
        sde = SPACETIME_SDE
        positions, weights = sde.obs_entries
        assert (positions.tolist(), weights.tolist()) == ([[2 * i] for i in range(4)], [[1.0]] * 4)
        stepper = stepped(sde)
        for row, h in enumerate(sde.obs):
            mean, var, s = stepper.predict_obs(row)
            np.testing.assert_array_equal(s, stepper.cov @ h)
            assert (mean, var) == (float(h @ stepper.mean), float(h @ stepper.cov @ h))

    def test_hida_matern_rows_gather_within_4_ulp_of_the_product(self):
        sde = ZERO_STEP_SDES["mixture"]
        idx, w = (part[0] for part in sde.obs_entries)
        assert idx.tolist() == [0, 4, 6]  # one entry per component: 3 of 8
        np.testing.assert_array_equal(w, sde.obs[0, idx])
        h = sde.obs[0]
        for seed in range(5):
            stepper = stepped(sde, seed=seed)
            mean, var, s = stepper.predict_obs(0)
            ref_s = stepper.cov @ h
            assert_within_ulps(s, ref_s, np.abs(w) @ np.abs(stepper.cov[idx]))
            assert_within_ulps(mean, h @ stepper.mean, np.abs(w) @ np.abs(stepper.mean[idx]))
            assert_within_ulps(var, h @ ref_s, np.abs(w) @ np.abs(ref_s[idx]))

    def test_hand_built_model_derives_its_row_structure_from_obs(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 4))
        P = symmetrize(A @ A.T + np.eye(4))
        obs = np.array([[0.0, 2.0, 0.0, -0.5], [1.0, 0.0, 0.0, 0.0]])
        sde = markovian.LtiSde(drift=-np.eye(4), noise_loading=np.eye(4), obs=obs, diffusion=2.0 * np.eye(4),
                               stationary=P)
        positions, weights = sde.obs_entries  # r = 2: the one-entry row repeats its position with weight 0.0
        assert positions.tolist() == [[1, 3], [0, 0]]
        assert weights.tolist() == [[2.0, -0.5], [1.0, 0.0]]
        for row in (0, 1):
            stepper = markovian.MarkovStepper(sde, 0.2)  # no advance: a hand-built model has no transition
            observed = stepper.predict_obs(row)
            pred_mean, var, _ = observed
            ll = stepper.update(0.7, observed)
            mean, cov, ref_mean, ref_ll = conditioned(np.zeros(4), P, obs[row], 0.7, 0.2)
            pred_var = float(obs[row] @ P @ obs[row]) + 0.2
            assert pred_mean == ref_mean
            assert_within_ulps(var + 0.2, pred_var, pred_var)
            assert ll == pytest.approx(ref_ll, rel=1e-14)
            np.testing.assert_allclose(stepper.mean, mean, rtol=0, atol=1e-15)
            np.testing.assert_allclose(stepper.cov, cov, rtol=0, atol=1e-15)
            assert np.array_equal(stepper.cov, stepper.cov.T)

        # given its transition exp(-dt) I (one block, pole -1): tied blocks that mix both rows, and a
        # smoothing pass, each against the dense product with obs
        basis = np.zeros((16, 4))
        basis[:, 0] = np.eye(4).ravel()
        sde = dataclasses.replace(sde, basis=basis, poles=np.array([-1.0 + 0.0j]))
        locations = np.array([[0.0], [1.0]])  # location i reads observation row i
        t, rows = np.repeat([0.0, 0.4, 1.1], 4), np.tile([0, 1, 1, 0], 3)
        y = rng.standard_normal(t.size)
        y[5] = np.nan
        runner = MarkovRunner(sde, 0.2, locations=locations, history_times=t)
        got = [(r.mean, r.var, r.logdensity) for r in run_runner(runner, stream_columns(y, t=t, x=locations[rows]))]
        assert_cells_close(got, sequential_rows(sde, t, y, rows, 0.2)[0])
        sm = markovian.rts_smoother(sde, markovian.kalman_filter(sde, t, y, 0.2, obs_rows=rows))
        loop = [(obs[r] @ sm.means[k], obs[r] @ sm.covs[k] @ obs[r]) for r, k in zip(rows, sm.steps)]
        np.testing.assert_allclose(runner.smooth(), np.array(loop), rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("name", ["spacetime", "padded-mixture"])
    def test_a_stacked_gather_is_one_gather_per_row(self, name):
        # space-time rows have r = 1; the mixture's second row has 2 of its 3 entries and pads the third
        sde = SPACETIME_SDE if name == "spacetime" else PADDED_MIXTURE_SDE
        rng = np.random.default_rng(17)
        rows, at = rng.integers(0, len(sde.obs), 40), rng.integers(0, 5, 40)
        for M in (rng.standard_normal((5, sde.dim)), rng.standard_normal((5, sde.dim, sde.dim))):
            got = sde.gather(rows, M, at)
            alone = np.array([sde.gather(rows[i:i + 1], M[at[i]])[0] for i in range(rows.size)])
            assert got.shape == alone.shape and got.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("name", ["spacetime", "padded-mixture"])
    def test_smoothed_rows_are_the_entry_loop_bit_for_bit(self, name, monkeypatch):
        # a record whose covariances are not bit-symmetric, and one time row of -0.0 means: the
        # gathers (P h by columns, added into zeros) give each row the bits of a loop over its entries
        sde = SPACETIME_SDE if name == "spacetime" else PADDED_MIXTURE_SDE
        rng = np.random.default_rng(19)
        t = np.repeat(np.cumsum(rng.uniform(0.1, 0.4, 12)), rng.integers(2, 6, 12))
        rows, y = rng.integers(0, len(sde.obs), t.size), rng.standard_normal(t.size)
        stepper = markovian.MarkovStepper(sde, 0.2, history_times=t)
        bounds = markovian.block_bounds(t, t.size, 1).tolist()
        for a, b in zip(bounds, bounds[1:]):
            stepper.step(float(t[a]), y[a:b], rows[a:b])

        def skewed(sde, record):  # the backward pass's G P G^T, as it rounds
            G = np.eye(sde.dim) + 0.3 * rng.standard_normal(record.covs.shape)
            record.covs[:] = G @ record.covs @ G.swapaxes(1, 2)
            record.means[2] = -0.0

        monkeypatch.setattr(markovian, "rts_smoother", skewed)
        monkeypatch.setattr(markovian, "SMOOTH_BLOCK_BYTES", 3 * 8 * sde.dim)  # blocks of 3 rows
        got = stepper.smooth()
        record = stepper.result()
        assert not np.array_equal(record.covs, record.covs.swapaxes(1, 2))
        positions, weights = sde.obs_entries
        k, r = record.steps, record.obs_rows
        loop = np.zeros((k.size, 2))  # each row's entries, summed in (N,) arrays from 0.0
        for j in range(positions.shape[1]):
            i = positions[r, j]
            Pw = record.covs[k, i, positions[r, 0]] * weights[r, 0]
            for l in range(1, positions.shape[1]):
                Pw += record.covs[k, i, positions[r, l]] * weights[r, l]
            loop[:, 0] += record.means[k, i] * weights[r, j]
            loop[:, 1] += Pw * weights[r, j]
        assert got.tobytes() == loop.tobytes()
        assert not np.signbit(got[k == 2, 0]).any()

    def test_update_conditions_in_place_on_the_triple_it_is_handed(self):
        sde = SPACETIME_SDE  # bit-equal gathers: every update must match the pure one exactly

        def check_update(stepper, y, row):
            mean, cov, _, ref_ll = conditioned(stepper.mean, stepper.cov, sde.obs[row], y, 0.1)
            state = stepper.mean, stepper.cov
            assert stepper.update(y, stepper.predict_obs(row)) == ref_ll
            assert stepper.mean is state[0] and stepper.cov is state[1]  # conditioned in place
            np.testing.assert_array_equal(stepper.mean, mean)
            np.testing.assert_array_equal(stepper.cov, cov)

        stepper = stepped(sde)
        check_update(stepper, 0.3, 1)
        check_update(stepper, -0.2, 2)  # another row, on the state the last update left
        check_update(stepper, 0.5, 2)  # the same row again
        stepper.advance(stepper.time + 0.4)
        check_update(stepper, 0.1, 1)
        stepper.advance(stepper.time)  # a zero-length step keeps the state
        check_update(stepper, -0.4, 3)


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
        with pytest.raises(ConfigurationError, match="closed-form"):
            markovian.transition(sde, np.array([0.0, 0.5]))

    @pytest.mark.parametrize("history", [False, True], ids=["no-history", "history"])
    def test_a_run_on_a_model_without_a_basis_is_the_configuration_error(self, history):
        # a block of two one-row time steps is one run: it raises what the rows stepped one at a time
        # raise, and changes nothing
        sde = dataclasses.replace(markovian.build_lti(kernels.matern32(1, 1)), basis=None, poles=None)
        stepper = markovian.MarkovStepper(sde, 0.1, history_times=[0.0, 1.0] if history else None)
        with pytest.raises(ConfigurationError, match="no closed-form transition basis"):
            stepper.step(0.0, [1.0], [0])
        with pytest.raises(ConfigurationError, match="no closed-form transition basis"):
            stepper.step([0.0, 1.0], [1.0, 2.0], [0, 0])
        assert stepper.time is None and stepper.rows_written == 0
        np.testing.assert_array_equal(stepper.mean, np.zeros(2))
        np.testing.assert_array_equal(stepper.cov, sde.stationary)
        assert not history or stepper.history.runs == []

    @pytest.mark.parametrize("name", ["mixture", "spacetime"])
    def test_array_of_steps_is_bit_equal_to_the_scalar_calls(self, name):
        # each row goes through the same matrix-vector product as a scalar call, so no ulp is allowed
        sde = ZERO_STEP_SDES[name]
        rng = np.random.default_rng(45)
        deltas = np.concatenate((rng.uniform(0.0, 0.3, 200), rng.exponential(3.0, 20), [0.0, 1e-9, 50.0]))
        deltas[::7] = 0.0
        stack = markovian.transition(sde, deltas)
        assert stack.shape == (deltas.size, sde.dim, sde.dim)
        for delta, A in zip(deltas, stack):
            assert np.array_equal(A, markovian.transition(sde, delta))
        for A in stack[deltas == 0.0]:
            assert np.array_equal(A, np.eye(sde.dim))
        assert markovian.transition(sde, deltas[:0]).shape == (0, sde.dim, sde.dim)

    @pytest.mark.parametrize("name", ZERO_STEP_SDES)
    def test_a_decay_that_underflows_is_weight_zero_without_a_warning(self, name):
        # lambda * 1e308 (and b * 1e308 for a phased block) overflows; exp(-lambda * 1e200) underflows
        sde = ZERO_STEP_SDES[name]
        with np.errstate(all="raise", under="ignore"):
            stack = markovian.transition(sde, np.array([1e308, 1e200]))
        assert np.array_equal(stack, np.zeros((2, sde.dim, sde.dim)))

    @pytest.mark.parametrize("kernel", ["kernel.family=matern12 kernel.lengthscale=0.5",
                                        "kernel.family=hida_matern kernel.hm_components=1:3:1.5:1:1"])
    def test_a_step_whose_decay_underflows_predicts_the_prior(self, kernel):
        code, out, err = run_cli(["run", "model=markov", *kernel.split(), "noise_var=0.1"],
                                 stdin_text="t,y\n0,1\n1e308,2\n")
        assert (code, err) == (0, "")
        _, rows, _ = parse_report(out)
        assert (rows[1]["pred_mean"], rows[1]["pred_var"]) == (0.0, 1.0)  # A = 0: the prior


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
        with pytest.raises(DataError, match=r"^step 2: timestamps decrease \(1\.0 -> 0\.5\)"):
            markovian.kalman_filter(sde, [0.0, 1.0, 0.5], [0.0, 0.0, 0.0], 0.1)

    @pytest.mark.parametrize("times, step", [
        ([0.0, np.nan, 1.0], 1),
        ([np.nan, 0.0, 1.0], 0),
        ([0.0, 1.0, np.inf], 2),
        ([-np.inf, 0.0, 1.0], 0),
    ])
    def test_non_finite_timestamps_name_the_step(self, times, step):
        sde = markovian.build_lti(kernels.matern32())
        with pytest.raises(DataError, match=f"^step {step}: non-finite timestamp"):
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

    @pytest.mark.parametrize("rows, step", [([0, -1, 1], 1), ([0, 2, 1], 1), ([0, 1, 5], 2)])
    def test_observation_row_outside_the_model_names_the_step(self, rows, step):
        sde = ZERO_STEP_SDES["spacetime"]  # two locations: rows 0 and 1
        with pytest.raises(DataError, match=rf"^step {step}: observation row {rows[step]} is not in \[0, 2\)"):
            markovian.kalman_filter(sde, [0.0, 1.0, 2.0], [0.1, 0.2, 0.3], 0.1, obs_rows=rows)

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
        filt_means, filt_covs = res.means.copy(), res.covs.copy()  # the smoother overwrites them
        sm = markovian.rts_smoother(sde, res)
        assert sm is res
        np.testing.assert_array_equal(sm.means[-1], filt_means[-1])
        np.testing.assert_array_equal(sm.covs[-1], filt_covs[-1])
        assert not np.array_equal(sm.means[:-1], filt_means[:-1])
        filt_var = np.einsum("ij,njk,ik->n", sde.obs, filt_covs, sde.obs)
        sm_var = np.einsum("ij,njk,ik->n", sde.obs, sm.covs, sde.obs)
        assert np.all(sm_var <= filt_var + 1e-9)

    def test_smoother_rejects_incomplete_filter_result(self):
        sde = markovian.build_lti(kernels.matern12())
        res = markovian.kalman_filter(sde, [0.0, 1.0], [0.1, 0.2], 0.1)
        res.covs = res.covs[:1]  # simulate a mangled result
        with pytest.raises(DataError):
            markovian.rts_smoother(sde, res)

    def test_zero_row_stream(self):
        sde = markovian.build_lti(kernels.matern32())
        res = markovian.kalman_filter(sde, [], [], 0.1)
        assert res.means.shape == (0, 2) and res.covs.shape == (0, 2, 2) and res.loglik_total == 0.0
        sm = markovian.rts_smoother(sde, res)
        assert sm.means.shape == (0, 2) and sm.covs.shape == (0, 2, 2)

    def test_singular_predicted_covariance_names_the_step(self):
        # noise_var = 1e-300 conditions row 0 to P_f = 0 exactly, and a step of 1e-300 has A = 1,
        # so step 1's predicted covariance P_inf + A (P_f - P_inf) A^T is exactly 0
        sde = markovian.build_lti(kernels.matern12())
        res = markovian.kalman_filter(sde, [0.0, 1e-300], [1.0, 2.0], 1e-300)
        with pytest.raises(NumericalError, match="singular predicted covariance at step 1") as caught:
            markovian.rts_smoother(sde, res)
        assert caught.value.detail == {"step": 1}

    @pytest.mark.parametrize("rows_per_block", [1, 512])
    def test_the_singular_step_the_pass_meets_first_is_named(self, rows_per_block, monkeypatch):
        # lengthscale 1e100 makes A = 1 on every step, so time rows 1, 2 and 3 (the two inputs at
        # t = 1 share row 1) predict P_f = 0; walking back, the pass meets time row 3 first
        sde = markovian.build_lti(kernels.matern12(1.0, 1e100))
        res = markovian.kalman_filter(sde, [0.0, 1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0, 4.0], 1e-300)
        assert res.times.tolist() == [0.0, 1.0, 2.0, 3.0]
        monkeypatch.setattr(markovian, "SMOOTH_BLOCK_BYTES", rows_per_block * 8 * sde.dim**2)
        with pytest.raises(NumericalError, match="singular predicted covariance at step 3") as caught:
            markovian.rts_smoother(sde, res)
        assert caught.value.detail == {"step": 3}

    @pytest.mark.parametrize("name", ZERO_STEP_SDES)
    def test_one_gain_per_step_of_nonzero_length(self, name, monkeypatch):
        sde = ZERO_STEP_SDES[name]
        rng = np.random.default_rng(49)
        t = np.repeat(np.cumsum(rng.uniform(0.05, 0.3, 80)), rng.integers(1, 4, 80))
        rows = np.arange(t.size) % sde.obs.shape[0]
        assert np.count_nonzero(np.diff(t) == 0.0) > 40
        res = markovian.kalman_filter(sde, t, rng.standard_normal(t.size), 0.2, obs_rows=rows)
        solve, solved = np.linalg.solve, []

        def counted_solve(a, b):
            solved.append(len(a) if a.ndim == 3 else 1)  # matrices solved for
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        markovian.rts_smoother(sde, res)
        assert sum(solved) == np.count_nonzero(np.diff(t))  # one gain per time step, none per tie

    @pytest.mark.parametrize("name", ["mixture", "spacetime"])
    def test_block_size_does_not_change_the_pass(self, name, monkeypatch):
        sde = ZERO_STEP_SDES[name]
        rng = np.random.default_rng(47)
        t = np.repeat(np.cumsum(rng.uniform(0.02, 0.3, 700)), rng.integers(1, 3, 700))
        rows = np.arange(t.size) % sde.obs.shape[0]
        y = rng.standard_normal(t.size)
        y[rng.random(t.size) < 0.2] = np.nan
        smoothed = []
        for rows_per_block in (1, 3, 512):
            monkeypatch.setattr(markovian, "SMOOTH_BLOCK_BYTES", rows_per_block * 8 * sde.dim**2)
            sm = markovian.rts_smoother(sde, markovian.kalman_filter(sde, t, y, 0.2, obs_rows=rows))
            smoothed.append((sm.means, sm.covs))
        for means, covs in smoothed[1:]:
            np.testing.assert_array_equal(means, smoothed[0][0])
            np.testing.assert_array_equal(covs, smoothed[0][1])

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
            joint_mean = res.means[res.steps[np.where(sel)[0][-1]]][2 * loc : 2 * loc + 2]
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
        sm_obs = np.array([float(joint.obs[rows[i]] @ sm.means[sm.steps[i]]) for i in range(3 * T)])

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


class TestStepShortcuts:
    def test_zero_step_advance_skips_discretize_and_keeps_state(self, monkeypatch):
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern32(1.2, 0.8)), 0.1)
        stepper.advance(0.0)
        stepper.advance(0.4)
        stepper.update(0.7, stepper.predict_obs())
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
        np.testing.assert_array_equal(real(stepper.sde, 0.0), np.eye(2))  # A = I: keeping the state is exact

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_advance_rejects_a_non_finite_timestamp(self, bad):
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern32(1.2, 0.8)), 0.1)
        with pytest.raises(DataError, match="non-finite"):
            stepper.advance(bad)  # first row: no step to compare against yet
        assert stepper.time is None
        stepper.advance(0.4)
        mean, cov = stepper.mean, stepper.cov
        with pytest.raises(DataError, match="non-finite"):
            stepper.advance(bad)
        assert stepper.time == 0.4
        assert stepper.mean is mean and stepper.cov is cov

    def test_advance_rejects_an_overflowing_step(self):
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern12()), 0.1)
        stepper.advance(-1e308)
        with pytest.raises(DataError, match="non-finite"):
            stepper.advance(1e308)

    @pytest.mark.parametrize("chunk_rows", [1, 7, CHUNK_ROWS])
    def test_repeated_timestamp_flops_match_per_step_accounting(self, chunk_rows):
        t = np.repeat(np.arange(50) * 0.25, 4)
        y = np.sin(t)
        y[::7] = np.nan
        data = stream_columns(y, t=t)
        runner = runner_for(["model=markov", "kernel.family=matern32", "kernel.lengthscale=0.7", "noise_var=0.2"],
                            data)
        run_runner(runner, data, chunk_rows)
        d, moves, scored = 2, 50, int(np.isfinite(y).sum())  # moves: the first row, then the 49 steps of 0.25
        assert runner.flops == t.size * (4 * d**3 + 4 * d * d) + moves * 30 * d**3 + scored * (8 * d * d + 12 * d)

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
        np.testing.assert_allclose(smoothed.means[smoothed.steps, 0], post.mean, atol=1e-7)


class TestLongStream:
    def test_update_long_stream_stays_psd(self):
        rng = np.random.default_rng(17)
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern32(1.0, 0.5)), 0.25)
        for i in range(20_000):
            stepper.advance(0.125 * i)
            stepper.update(float(rng.standard_normal()), stepper.predict_obs())
        cov = stepper.cov
        np.testing.assert_array_equal(cov, cov.T)
        min_eig = float(np.linalg.eigvalsh(cov).min())
        assert min_eig >= -1e-9 * np.trace(cov) / cov.shape[0]


class TestStepperHistory:
    def test_runner_smoothing_is_the_batch_filter_and_smoother(self):
        # repeated timestamps (a zero step predicts the filtered moments unchanged), predict-only rows
        # (predicted and filtered moments are equal) and runs of one-row time steps in one stream: the
        # runner's cells and record are a stepper's driven over block_bounds(t, n, UPDATE_BLOCK_ROWS),
        # bit for bit, and its cells, record and smoothed moments are the per-time-step filter's and
        # smoother's to 1e-12
        sde = markovian.build_lti(kernels.matern32(1.1, 0.6))
        rng = np.random.default_rng(41)
        t = np.repeat(np.cumsum(rng.uniform(0.05, 0.3, 40)), rng.integers(1, 4, 40))
        y = np.sin(t) + 0.2 * rng.standard_normal(t.size)
        y[rng.random(t.size) < 0.25] = np.nan
        zeros = np.zeros(t.size, dtype=int)
        runner = MarkovRunner(sde, 0.2, history_times=t)
        h = sde.obs[0]
        predicted = [(r.mean, r.var, r.logdensity) for r in run_runner(runner, stream_columns(y, t=t), 5)]
        stepper, cells = stepped_blocks(sde, t, y, zeros, 0.2)
        assert predicted == cells
        record = runner.stepper.result()
        assert_records_equal(record, stepper.result())
        assert len(record.runs) >= 3 and np.unique(t).size < t.size - 10  # runs and ties
        assert_cells_close(predicted, sequential_rows(sde, t, y, zeros, 0.2)[0])
        batch = markovian.kalman_filter(sde, t, y, 0.2)
        assert_record_matches_the_batch_filter(record, predicted, batch)
        streamed = runner.smooth()

        sm = markovian.rts_smoother(sde, batch)
        reference = [(float(h @ sm.means[k]), float(h @ sm.covs[k] @ h)) for k in sm.steps]
        np.testing.assert_allclose(streamed, np.array(reference), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["mixture", "spacetime"])
    def test_runner_smoothing_projects_like_the_row_loop(self, name):
        sde = ZERO_STEP_SDES[name]
        locations = np.array([[0.0], [0.5]]) if name == "spacetime" else None
        rng = np.random.default_rng(43)
        t = np.repeat(np.cumsum(rng.uniform(0.05, 0.3, 60)), 2)
        rows = np.tile([0, 1], 60) if locations is not None else np.zeros(t.size, dtype=int)
        y = rng.standard_normal(t.size)
        y[::5] = np.nan
        runner = MarkovRunner(sde, 0.2, locations=locations, history_times=t)
        run_runner(runner, stream_columns(y, t=t, x=None if locations is None else locations[rows]))
        streamed = np.array(runner.smooth())
        sm = markovian.rts_smoother(sde, markovian.kalman_filter(sde, t, y, 0.2, obs_rows=rows))
        loop = np.array([(sde.obs[r] @ sm.means[k], sde.obs[r] @ sm.covs[k] @ sde.obs[r])
                         for r, k in zip(rows, sm.steps)])
        np.testing.assert_allclose(streamed, loop, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("entry, name", [("mean", "spacetime"), ("cov", "spacetime"), ("mean", "mixture"),
                                             ("cov", "mixture")], ids=["mean", "cov", "mixture-mean", "mixture-cov"])
    def test_a_non_finite_entry_off_the_observed_one_names_its_time_row(self, entry, name, monkeypatch):
        # the projection reads only the observation rows' entries of each time row; an inf in another
        # entry of time row 6 (input rows 12 and 13) still names the row's last input row
        sde = ZERO_STEP_SDES[name]
        locations = np.array([[0.0], [0.5]]) if name == "spacetime" else None
        t = np.repeat(0.25 * np.arange(10), 2)
        rows = np.tile([0, 1], 10) if locations is not None else np.zeros(t.size, dtype=int)
        runner = MarkovRunner(sde, 0.2, locations=locations, history_times=t)
        run_runner(runner, stream_columns(np.sin(t), t=t, x=None if locations is None else locations[rows]))
        record = runner.stepper.result()
        off = np.setdiff1d(np.arange(sde.dim), sde.obs_entries[0])[0]  # an entry no observation row reads
        if entry == "mean":
            record.means[6, off] = np.inf
        else:
            record.covs[6, 0, off] = np.inf
        monkeypatch.setattr(markovian, "rts_smoother", lambda sde, record: None)  # smoothing leaves the inf as set
        with pytest.raises(NumericalError, match="non-finite smoothed moment at step 13: ") as caught:
            runner.smooth()
        assert caught.value.detail["step"] == 13

    @pytest.mark.parametrize("name", ["mixture", "spacetime"])
    def test_stacked_predict_is_the_advance_state(self, name):
        # the d = 8 mixture and a two-location space-time model, with zero steps and predict-only rows
        sde = ZERO_STEP_SDES[name]
        rng = np.random.default_rng(48)
        t = np.repeat(np.cumsum(rng.uniform(0.05, 0.3, 60)), rng.integers(1, 4, 60))
        rows = np.arange(t.size) % sde.obs.shape[0]
        y = rng.standard_normal(t.size)
        y[rng.random(t.size) < 0.25] = np.nan
        stepper = markovian.MarkovStepper(sde, 0.2, history_times=t)
        advanced = {}  # block start -> the state ``advance`` left
        bounds = markovian.block_bounds(t, t.size, 1).tolist()
        for start, stop in zip(bounds, bounds[1:]):
            stepper.advance(float(t[start]))
            advanced[start] = (stepper.mean.copy(), stepper.cov.copy())
            stepper.step(float(t[start]), y[start:stop], rows[start:stop])  # a zero step: state unchanged
        record = stepper.result()
        first, _ = first_and_last_rows(record)
        assert first.size == np.unique(t).size == 60 < t.size - 10  # a row per time, although advance ran first
        means, covs = predicted_moments(sde, record)
        np.testing.assert_array_equal(means, np.array([advanced[i][0] for i in first]))
        np.testing.assert_array_equal(covs, np.array([advanced[i][1] for i in first]))

        # the smoother is the textbook per-step pass over the stored predicted moments, to rounding
        ref_means, ref_covs = record.means.copy(), record.covs.copy()
        for k in range(record.times.size - 2, -1, -1):
            A = markovian.transition(sde, record.times[k + 1] - record.times[k])
            pred_mean, pred_cov = advanced[first[k + 1]]
            _, _, X, info = lapack.dgesv(pred_cov, A @ ref_covs[k], overwrite_b=1)
            G = X.T
            ref_means[k] += G @ (ref_means[k + 1] - pred_mean)
            ref_covs[k] = symmetrize(ref_covs[k] + G @ (ref_covs[k + 1] - pred_cov) @ G.T)
        sm = markovian.rts_smoother(sde, record)
        scale = np.abs(sde.stationary).max()
        np.testing.assert_allclose(sm.means, ref_means, rtol=0, atol=1e-12 * np.sqrt(scale))
        np.testing.assert_allclose(sm.covs, ref_covs, rtol=0, atol=1e-12 * scale)

    def test_second_smoothing_raises(self):
        runner = MarkovRunner(markovian.build_lti(kernels.matern32(1.0, 1.0)), 0.1, history_times=0.3 * np.arange(5))
        run_runner(runner, stream_columns(0.1 * np.arange(5), t=0.3 * np.arange(5)))
        assert runner.smooth().shape == (5, 2)
        smoothed = runner.stepper.result().means.copy()
        with pytest.raises(ConfigurationError, match="already smoothed"):
            runner.smooth()
        np.testing.assert_array_equal(runner.stepper.result().means, smoothed)

    @pytest.mark.parametrize("rows", [[-1], [2], [0, -1], [1, 2, 0]], ids=["-1", "2", "0,-1", "1,2,0"])
    def test_step_rejects_a_row_the_model_lacks(self, rows):
        stepper = markovian.MarkovStepper(ZERO_STEP_SDES["spacetime"], 0.1)  # two observation rows
        stepper.advance(0.0)
        mean, cov = stepper.mean.copy(), stepper.cov.copy()
        bad = next(r for r in rows if not 0 <= r < 2)
        with pytest.raises(DataError, match=rf"observation row {bad} is not in \[0, 2\)"):
            stepper.step(0.0, [0.2] * len(rows), rows)
        np.testing.assert_array_equal(stepper.mean, mean)  # nothing conditioned
        np.testing.assert_array_equal(stepper.cov, cov)

    def test_stepper_without_history_records_nothing(self):
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern12()), 0.1)
        for i in range(5_000):
            stepper.step(0.01 * i, [np.nan if i % 5 == 0 else 0.3], [0])
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
                stepper.step(times[i], [values[i]], [0])
                if i + 1 == 2_000:
                    early = tracemalloc.get_traced_memory()[1]
            late = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert late - early < 64 * 1024

    def test_step_returns_prior_moments_and_score(self):
        sde = markovian.build_lti(kernels.matern32(1.3, 0.9))
        stepper = markovian.MarkovStepper(sde, 0.25, history_times=[0.0, 0.5])
        assert stepper.step(0.0, [np.nan], [0]) == ([0.0], [pytest.approx(1.3)], [None])
        (mean,), (var,), (ll,) = stepper.step(0.5, [0.8], [0])
        assert ll == pytest.approx(-0.5 * (np.log(2 * np.pi * (var + 0.25)) + (0.8 - mean) ** 2 / (var + 0.25)))
        record = stepper.result()
        pred_mean, pred_cov = markovian.predict(sde, markovian.transition(sde, 0.5), record.means[0], record.covs[0])
        post_mean, post_cov = record.means[-1], record.covs[-1]
        assert float(sde.obs[0] @ pred_mean) == mean and float(sde.obs[0] @ pred_cov @ sde.obs[0]) == var
        assert np.array_equal(post_mean, stepper.mean) and np.array_equal(post_cov, stepper.cov)
        assert record.obs_rows[-1] == 0 and record.logliks is None and record.loglik_total is None

    def test_history_rows_are_copies_and_result_is_a_view(self):
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern32(1.0, 0.5)), 0.2,
                                          history_times=0.1 * np.arange(5))
        lls = [stepper.step(0.1 * i, [0.3 if i else np.nan], [0])[2][0] for i in range(3)]
        record = stepper.result()
        assert record.times.tolist() == [0.0, 0.1, 0.2] and record.means.shape == (3, 2)
        assert lls[0] is None and None not in lls[1:]  # the scores are step's, not the record's
        assert record.logliks is None and record.loglik_total is None
        for name in ("times", "means", "covs", "steps", "obs_rows"):
            assert np.shares_memory(getattr(record, name), getattr(stepper.history, name))
        assert not np.shares_memory(stepper.history.covs, stepper.cov)
        assert not np.shares_memory(stepper.history.means, stepper.mean)

    def test_step_past_the_history_is_a_data_error(self):
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern12()), 0.1, history_times=[0.0])
        stepper.step(0.0, [0.2], [0])
        with pytest.raises(DataError, match="holds 1 rows at 1 times; step 2 does not fit"):
            stepper.step(1.0, [0.3], [0])
        assert stepper.time == 0.0 and stepper.result().times.tolist() == [0.0]

    def test_smoothing_memory_per_step_is_bounded(self):
        # the d = 8 benchmark mixture on distinct times; the floor per step is the record's d^2 + d + 1
        # doubles per time and 3 per input row (0.59 KiB), which the smoother overwrites, plus the
        # filter's own observation-row column; the pass's
        # stacks are bounded by its block, not by N
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
        assert per_step <= 0.75 * 1024

    def test_one_record_row_per_stored_state(self):
        # a tied space-time stream with runs of one-row time steps: the record is allocated with a row
        # per distinct time, and has a row per time step outside a run and one per run; a run's rows
        # are one-row time steps, all mapped to its row, right after its start state's.  The record is
        # a stepper's driven over block_bounds(t, n, UPDATE_BLOCK_ROWS), bit for bit, and the batch
        # filter's to 1e-12
        sde, locations = ZERO_STEP_SDES["spacetime"], np.array([[0.0], [0.5]])
        rng = np.random.default_rng(51)
        t = np.repeat(np.cumsum(rng.uniform(0.05, 0.3, 30)), rng.integers(1, 6, 30))
        rows = rng.integers(0, 2, t.size)
        y = rng.standard_normal(t.size)
        y[::4] = np.nan
        runner = MarkovRunner(sde, 0.2, locations=locations, history_times=t)
        cells = run_runner(runner, stream_columns(y, t=t, x=locations[rows]), 7)
        record = runner.stepper.result()
        assert np.unique(t).size == 30 < t.size
        assert runner.stepper.history.times.size == 30  # sized from the timestamps, not the rows
        np.testing.assert_array_equal(record.obs_rows, rows)
        np.testing.assert_array_equal(np.isnan(scores(cells)[0]), np.isnan(y))
        assert record.runs and record.times.size < 30
        for run in record.runs:
            n = len(run.rows)
            assert np.unique(t[run.first:run.first + n]).size == n
            assert run.end == run.start + 1 and (record.steps[run.first:run.first + n] == run.end).all()
        stepper, stepped = stepped_blocks(sde, t, y, rows, 0.2)
        np.testing.assert_array_equal(scores(cells)[0], scores(stepped)[0])
        assert_records_equal(record, stepper.result())
        assert_record_matches_the_batch_filter(record, cells, markovian.kalman_filter(sde, t, y, 0.2, obs_rows=rows))

    def test_the_record_writes_only_its_prefix(self):
        # a few thousand irregular rows, most in runs of one-row time steps, some tied, through the
        # runner into a record whose moment rows were NaN: it has one row per run and per time step
        # outside a run, all written, and every row past them is still NaN (never written, so the
        # pages past the prefix are never touched)
        sde = markovian.build_lti(kernels.matern32(1.0, 0.5))
        rng = np.random.default_rng(53)
        t = np.repeat(np.cumsum(rng.uniform(0.01, 0.05, 3000)), np.where(rng.random(3000) < 0.02, 3, 1))
        y = np.sin(t) + 0.1 * rng.standard_normal(t.size)
        runner = MarkovRunner(sde, 0.2, history_times=t)
        h = runner.stepper.history
        assert h.times.size == 3000  # room for a row per distinct time
        h.means.fill(np.nan)
        h.covs.fill(np.nan)
        cells = run_runner(runner, stream_columns(y, t=t))
        record = runner.stepper.result()
        plain = np.ones(t.size, dtype=bool)
        for run in record.runs:
            plain[run.first:run.first + len(run.rows)] = False
        m = record.times.size
        assert m == np.unique(t[plain]).size + len(record.runs) < 300
        assert np.count_nonzero(~plain) > 0.9 * t.size
        assert np.isfinite(record.means).all() and np.isfinite(record.covs).all()
        assert np.isnan(h.means[m:]).all() and np.isnan(h.covs[m:]).all()
        assert_record_matches_the_batch_filter(record, cells, markovian.kalman_filter(sde, t, y, 0.2))

    def test_step_past_the_history_times_is_a_data_error(self):
        stepper = markovian.MarkovStepper(markovian.build_lti(kernels.matern12()), 0.1, history_times=[0.0, 0.0])
        stepper.step(0.0, [0.2], [0])
        with pytest.raises(DataError, match="holds 2 rows at 1 times; step 2 does not fit"):
            stepper.step(1.0, [0.3], [0])  # a second time: the record has a row for one
        with pytest.raises(DataError, match="holds 2 rows at 1 times; step 2 does not fit"):
            stepper.step(0.0, [0.3, 0.4], [0, 0])  # a block of two ties: the record has room for one more row
        assert stepper.time == 0.0
        stepper.step(0.0, [0.3], [0])  # a tie fits
        assert stepper.result().steps.tolist() == [0, 0]

    @pytest.mark.parametrize("before", ["advance", "failed_step"])
    def test_a_moved_clock_still_opens_a_new_time_row(self, before):
        # the clock reaches t before ``step(t)`` runs, through the public ``advance``, or a step at t
        # fails on its y (and leaves the clock where it was): the record still gives t a row of its own
        sde = markovian.build_lti(kernels.matern32(1.0, 1.0))
        t = np.array([0.0, 0.5, 0.5, 1.25, 2.0, 2.0, 2.0, 3.0])
        stepper = markovian.MarkovStepper(sde, 0.1, history_times=t)
        filtered, cells = [], []
        bounds = markovian.block_bounds(t, t.size, 1).tolist()
        for start, stop in zip(bounds, bounds[1:]):
            ti = float(t[start])
            if before == "advance":
                stepper.advance(ti)
            else:
                clock = stepper.time
                with pytest.raises(DataError, match="non-finite observation"):
                    stepper.step(ti, [np.inf], [0])
                assert stepper.time == clock
            cells += zip(*stepper.step(ti, np.sin(t[start:stop]), [0] * (stop - start)))
            filtered += [(stepper.mean.copy(), stepper.cov.copy())] * (stop - start)
        record = stepper.result()
        times, steps = np.unique(t, return_inverse=True)
        np.testing.assert_array_equal(record.times, times)
        np.testing.assert_array_equal(record.steps, steps)
        _, last = first_and_last_rows(record)
        np.testing.assert_array_equal(record.means, np.array([filtered[i][0] for i in last]))
        np.testing.assert_array_equal(record.covs, np.array([filtered[i][1] for i in last]))
        batch = markovian.kalman_filter(sde, t, np.sin(t), 0.1)
        for name in ("times", "means", "covs", "steps"):
            np.testing.assert_array_equal(getattr(batch, name), getattr(record, name))
        np.testing.assert_array_equal(batch.logliks, scores(cells)[0])

    @pytest.mark.parametrize("moved_to", [0.45, 0.5])
    def test_a_run_after_a_moved_clock_starts_from_a_state_in_the_record(self, moved_to):
        # ``advance`` moves the clock past the record's last time row (to a time of no row, or to the
        # next row's): the block is still one run, from the record's last stored state, and
        # smoothing gives the per-time-step filter's and smoother's moments
        sde = markovian.build_lti(kernels.matern32(1.0, 0.8))
        t = np.array([0.0, 0.2, 0.3, 0.5, 0.8, 0.9, 1.3])
        y = np.sin(3.0 * t)
        stepper = markovian.MarkovStepper(sde, 0.1, history_times=t)
        stepper.step(t[:3].tolist(), y[:3].tolist(), [0] * 3)
        stepper.advance(moved_to)
        stepper.step(t[3:].tolist(), y[3:].tolist(), [0] * 4)
        record = stepper.result()
        assert [(run.first, run.start, run.end) for run in record.runs] == [(0, -1, 0), (3, 0, 1)]
        assert record.times.tolist() == [0.3, 1.3] and record.steps.tolist() == [0, 0, 0, 1, 1, 1, 1]
        sm = markovian.rts_smoother(sde, record)
        batch = markovian.rts_smoother(sde, markovian.kalman_filter(sde, t, y, 0.1))
        for k, j in zip((0, 1), (2, 6)):  # each record row and the batch row at its time
            np.testing.assert_allclose(sm.means[k], batch.means[j], rtol=0, atol=1e-12)
            np.testing.assert_allclose(sm.covs[k], batch.covs[j], rtol=0, atol=1e-12)
        for run in record.runs:
            rows = slice(run.first, run.first + len(run.rows))
            h = sde.obs[0]
            want = [(h @ batch.means[k], h @ batch.covs[k] @ h) for k in batch.steps[rows]]
            np.testing.assert_allclose(run.rows, np.array(want), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stream", ["crossing", "gap"])
    def test_a_run_past_the_span_bound_is_split(self, stream):
        # one-row steps whose decay times span passes RUN_SPAN partway through the first 64-row
        # block, or a gap of 1,000 lengthscales inside it (a prior factored at one anchor would
        # overflow across it): the block is still one run, its prior is factored in two or more
        # segments, each within RUN_SPAN / decay, the cells and smoothed moments are the
        # per-time-step filter's and smoother's to 1e-12, and chunks of 1, 3 and 256 rows give
        # the same report
        sde = markovian.build_lti(kernels.matern32(1.0, 0.8))
        decay = -sde.poles.real.min()
        rng = np.random.default_rng(47)
        t = np.cumsum(rng.uniform(0.2, 0.4, 100))
        if stream == "gap":
            t[30:] += 1000 * 0.8
        bounds = markovian.run_segments(t[:64], decay)
        assert bounds.size >= 3 and bounds[0] == 0 and bounds[-1] == 64
        assert all(decay * (t[b - 1] - t[a]) <= markovian.RUN_SPAN for a, b in zip(bounds, bounds[1:]))
        y = np.sin(2.0 * t) + 0.3 * rng.standard_normal(t.size)
        y[rng.random(t.size) < 0.2] = np.nan
        zeros = np.zeros(t.size, dtype=int)
        batch = markovian.kalman_filter(sde, t, y, 0.2)
        reports = []
        for chunk_rows in (1, 3, 256):
            runner = MarkovRunner(sde, 0.2, history_times=t)
            cells = [(r.mean, r.var, r.logdensity) for r in run_runner(runner, stream_columns(y, t=t), chunk_rows)]
            record = runner.stepper.result()
            assert_record_matches_the_batch_filter(record, cells, batch)
            reports.append((cells, runner.smooth().tolist()))
        assert reports[1] == reports[0] and reports[2] == reports[0]
        cells, streamed = reports[0]
        assert [(run.first, len(run.rows)) for run in record.runs] == [(0, 64), (64, 36)]
        assert_cells_close(cells, sequential_rows(sde, t, y, zeros, 0.2)[0])
        sm = markovian.rts_smoother(sde, batch)
        h = sde.obs[0]
        reference = [(float(h @ sm.means[k]), float(h @ sm.covs[k] @ h)) for k in sm.steps]
        np.testing.assert_allclose(streamed, np.array(reference), rtol=0, atol=1e-12)

    def test_smoothing_memory_is_per_time_not_per_row(self, monkeypatch):
        # 16 input rows per time on the d = 8 benchmark mixture, stepped and smoothed as
        # ``seqgp run ... emit_smoothed=true`` does: the floor per time is one row of moments,
        # d^2 + d + 1 doubles (0.59 KiB), plus 5 doubles per input row (3 in the record, 2 in the
        # smoothed output): 1.2 KiB; a row of moments per input row would be 16 x 0.59 KiB.  Blocks of
        # 64 rows keep the pass's stacks the same size at both lengths; the projection's (N,) sums
        # are a few doubles per input row
        monkeypatch.setattr(markovian, "SMOOTH_BLOCK_BYTES", 64 * 8 * 8**2)
        hm = "0.5:1.5:1.5:1.0:1.0;0.3:0.0:1.5:2.0:1.0;0.2:0.8:0.5:0.5:1.0"
        overrides = ["model=markov", "kernel.family=hida_matern", f"kernel.hm_components={hm}", "noise_var=0.1",
                     "emit_smoothed=true"]
        rng = np.random.default_rng(52)

        def traced_peak(n_times):
            t = np.repeat(np.cumsum(rng.uniform(0.01, 0.05, n_times)), 16)
            data = stream_columns(np.sin(t), t=t)
            tracemalloc.start()
            try:
                runner = runner_for(overrides, data)
                for _ in run_chunks(runner, data, CHUNK_ROWS):
                    pass
                assert runner.smooth().shape == (t.size, 2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_time = (traced_peak(800) - traced_peak(100)) / 700
        assert per_time <= 2 * 1024


GRID = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])


def tied_spacetime(seed=61, n_times=12, low=4, high=10):
    """A space-time stream on ``GRID``: n_times timestamps of ``low`` to ``high`` - 1 rows
    each at random grid locations (repeats included), a fifth of them predict-only."""
    rng = np.random.default_rng(seed)
    t = np.repeat(np.cumsum(rng.uniform(0.1, 0.4, n_times)), rng.integers(low, high, n_times))
    rows = rng.integers(0, len(GRID), t.size)
    y = np.sin(2.0 * t) + GRID[rows, 0] + 0.3 * rng.standard_normal(t.size)
    y[rng.random(t.size) < 0.2] = np.nan
    return t, rows, y


def spacetime_run_args(tmp_path):
    path = tmp_path / "locations.csv"
    path.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in GRID.tolist()))
    return ["model=markov", "kernel.family=matern32", "kernel.lengthscale=0.7", "noise_var=0.1",
            f"spatial.locations={path}", "spatial.kernel.family=se", "spatial.kernel.lengthscale=0.8",
            "emit_smoothed=true"]


def spacetime_csv(t, rows, y):
    cells = [(repr(float(ti)), *map(repr, GRID[r].tolist()), "" if yi != yi else repr(float(yi)))
             for ti, r, yi in zip(t.tolist(), rows.tolist(), y.tolist())]
    return "t,x1,x2,y\n" + "".join(",".join(c) + "\n" for c in cells)


class TestTimeStepBlocks:
    """``MarkovStepper.step`` conditions on a block of rows at one timestamp at once; the
    blocks come from the timestamps alone (``block_bounds``), and ``run_chunks`` cuts chunks
    only at block starts."""

    def test_block_bounds_split_each_time_step_every_block_rows(self, monkeypatch):
        monkeypatch.setattr(markovian, "UPDATE_BLOCK_ROWS", 3)
        t = np.array([0.0] * 7 + [1.0] * 2 + [2.0] * 4 + [np.nan, np.nan, 3.0])
        bounds = markovian.block_bounds(t, t.size, 1).tolist()
        assert bounds == [0, 3, 6, 7, 9, 12, 13, 14, 15, 16]
        assert markovian.block_bounds(t[3:], t.size - 3, 1).tolist() == [b - 3 for b in bounds[1:]]  # from a start
        assert markovian.block_bounds(t[:11], 11, 1).tolist() == [b for b in bounds if b < 11] + [11]  # a prefix

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, 256])
    def test_chunks_end_at_the_first_block_start_after_chunk_rows(self, chunk_rows, monkeypatch):
        # time steps split every 3 rows and merged into blocks of at least 3 rows (the runner's
        # partition, with its block_rows shrunk to match): each chunk ends at the partition's first
        # block start at or after chunk_rows rows
        monkeypatch.setattr(markovian, "UPDATE_BLOCK_ROWS", 3)
        monkeypatch.setattr(MarkovRunner, "block_rows", 3)
        t, rows, y = tied_spacetime()
        data = stream_columns(y, t=t, x=GRID[rows])
        runner = MarkovRunner(markovian.build_spatiotemporal(kernels.matern32(1.0, 0.7), kernels.se(1.0, 0.8), GRID),
                              0.1, locations=GRID)
        chunks, prepare = [], runner.prepare
        runner.prepare = lambda chunk: chunks.append((chunk.first_row - 1, len(chunk))) or prepare(chunk)
        assert len(run_runner(runner, data, chunk_rows)) == t.size
        bounds = markovian.block_bounds(t, t.size, 3).tolist()
        assert set(bounds) < set(markovian.block_bounds(t, t.size, 1).tolist())  # merged stream blocks
        assert [first for first, _ in chunks] == sorted(first for first, _ in chunks)
        assert sum(n for _, n in chunks) == t.size
        for first, n in chunks:
            assert first in bounds
            assert first + n == min(b for b in bounds if b >= min(first + chunk_rows, t.size))

    def test_tied_stream_is_chunk_invariant_and_matches_the_row_by_row_filter(self, tmp_path, monkeypatch):
        # blocks of 3 rows, time steps of 4 to 9: every step is split, and chunks of 1, 3 and 7 rows
        # end inside steps; each report is the same, and each cell is the row-by-row filter's
        monkeypatch.setattr(markovian, "UPDATE_BLOCK_ROWS", 3)
        t, rows, y = tied_spacetime()
        assert np.unique(t, return_counts=True)[1].min() > 3
        args = spacetime_run_args(tmp_path)
        csv = spacetime_csv(t, rows, y)
        reports = []
        for chunk_rows in (1, 3, 7, 256):
            monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
            code, out, err = run_cli(["run", *args], stdin_text=csv)
            assert code == 0, err
            summary = json.loads(out.splitlines()[-1])
            summary.pop("wall_time_s")
            reports.append((out.splitlines()[:-1], summary))
        assert all(report == reports[0] for report in reports[1:])

        data = stream_columns(y, t=t, x=GRID[rows])
        runner = runner_for(args, data)
        sde = runner.stepper.sde
        _, cells, _ = parse_report(out)
        got = [(c["pred_mean"], c["pred_var"], c["pred_logdensity"]) for c in cells]
        ref, states = sequential_rows(sde, t, y, rows, 0.1)
        assert_cells_close(got, ref)
        cells = run_runner(runner, data, 5)
        record = runner.stepper.result()
        np.testing.assert_allclose(record.means, np.array([m for m, _ in states]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(record.covs, np.array([c for _, c in states]), rtol=0, atol=1e-12)
        batch = markovian.kalman_filter(sde, t, y, 0.1, obs_rows=rows)
        for name in ("times", "means", "covs", "steps", "obs_rows"):
            np.testing.assert_array_equal(getattr(batch, name), getattr(record, name))
        logliks, total = scores(cells)
        np.testing.assert_array_equal(batch.logliks, logliks)
        assert batch.loglik_total == total

    def test_tied_hida_matern_space_time_stream_matches_the_row_loops(self, monkeypatch):
        # a two-component temporal kernel: every observation row reads two entries of its location's
        # state (r = 2); blocks of 3 rows split every time step, so each block gathers through both
        # entries of rows at several locations, and the smoothed moments sum over them
        monkeypatch.setattr(markovian, "UPDATE_BLOCK_ROWS", 3)
        temporal = kernels.hida_matern([(0.7, 1.2, 1.5, 0.8, 1.0), (0.3, 0.0, 0.5, 1.5, 1.0)])
        sde = markovian.build_spatiotemporal(temporal, kernels.se(1.0, 0.8), GRID)
        assert sde.obs_entries[0].shape == (len(GRID), 2)
        t, rows, y = tied_spacetime()
        runner = MarkovRunner(sde, 0.1, locations=GRID, history_times=t)
        got = [(r.mean, r.var, r.logdensity) for r in run_runner(runner, stream_columns(y, t=t, x=GRID[rows]))]
        assert_cells_close(got, sequential_rows(sde, t, y, rows, 0.1)[0])
        sm = markovian.rts_smoother(sde, markovian.kalman_filter(sde, t, y, 0.1, obs_rows=rows))
        loop = [(sde.obs[r] @ sm.means[k], sde.obs[r] @ sm.covs[k] @ sde.obs[r]) for r, k in zip(rows, sm.steps)]
        np.testing.assert_allclose(runner.smooth(), np.array(loop), rtol=1e-13, atol=1e-15)

    def test_unknown_location_inside_a_time_step_is_3_with_its_row(self, tmp_path):
        loc_file = tmp_path / "locations.csv"
        loc_file.write_text("x1\n0.0\n1.0\n")
        args = ["run", "model=markov", "kernel.family=matern12", "noise_var=0.2", f"spatial.locations={loc_file}",
                "spatial.kernel.family=se"]
        csv = "t,x1,y\n0,0.0,0.1\n0,1.0,0.2\n1,1.0,0.3\n1,0.0,\n1,0.37,0.5\n1,1.0,0.6\n"
        code, out, err = run_cli(args, stdin_text=csv)
        assert (code, out, err) == (3, "", "seqgp: data error: row 5: location [0.37] is not in spatial.locations\n")

    def test_a_row_without_a_location_never_reaches_the_stepper(self, tmp_path, monkeypatch):
        # the runner names the block's first row without a location itself: the rows before it run
        # as one block, and the stepper is never handed observation row -1
        calls, step = [], markovian.MarkovStepper.step

        def spied(stepper, t, ys, rows):
            calls.append(list(rows))
            return step(stepper, t, ys, rows)

        monkeypatch.setattr(markovian.MarkovStepper, "step", spied)
        loc_file = tmp_path / "locations.csv"
        loc_file.write_text("x1\n0.0\n1.0\n")
        args = ["run", "model=markov", "kernel.family=matern12", "noise_var=0.2", f"spatial.locations={loc_file}",
                "spatial.kernel.family=se"]
        csv = "t,x1,y\n0,0.0,0.1\n0,1.0,0.2\n1,1.0,0.3\n1,0.0,\n1,0.37,0.5\n1,1.0,0.6\n2,0.0,0.7\n"
        code, out, err = run_cli(args, stdin_text=csv)
        assert (code, out, err) == (3, "", "seqgp: data error: row 5: location [0.37] is not in spatial.locations\n")
        assert calls == [[0, 1, 1, 0]]

    def test_infinite_y_inside_a_time_step_names_its_row_after_the_rows_before_it(self):
        t, rows, y = tied_spacetime()
        k = int(np.flatnonzero((np.diff(t, prepend=-1.0) == 0) & np.isfinite(y))[4])  # a y-row inside a step
        assert t[k - 1] == t[k]
        y[k] = np.inf
        sde = markovian.build_spatiotemporal(kernels.matern32(1.0, 0.7), kernels.se(1.0, 0.8), GRID)
        runner = MarkovRunner(sde, 0.1, locations=GRID)
        got, exc = rows_until_error(runner, stream_columns(y, t=t, x=GRID[rows]))
        assert isinstance(exc, DataError) and str(exc) == f"row {k + 1}: non-finite observation inf"
        assert_cells_close(got, sequential_rows(sde, t[:k], y[:k], rows[:k], 0.1)[0])
        with pytest.raises(DataError, match=f"^step {k}: non-finite observation inf"):
            markovian.kalman_filter(sde, t, y, 0.1, obs_rows=rows)
        stepper = markovian.MarkovStepper(sde, 0.1)  # a block handed to the stepper whole is refused whole
        stepper.advance(0.0)
        mean, cov = stepper.mean.copy(), stepper.cov.copy()
        with pytest.raises(DataError, match="^non-finite observation -inf$"):
            stepper.step(0.0, [0.1, np.nan, -np.inf], [0, 1, 2])
        np.testing.assert_array_equal(stepper.mean, mean)
        np.testing.assert_array_equal(stepper.cov, cov)

    def test_a_failed_pivot_runs_its_row_alone_and_the_rest_as_a_new_block(self, monkeypatch):
        # a factorization that fails at the third pivot of any block with three or more y-rows: such a
        # block runs as the rows before its third y-row, that row alone (the scalar update), and the
        # rest as a new block, which fails again while it has three y-rows; the stream then passes,
        # with the cells and states of the row-by-row filter
        real, sizes = lapack.dpotrf, []

        def failing(a, **kwargs):
            sizes.append(len(a))
            c, info = real(a, **kwargs)
            return (c, 3) if len(a) >= 3 else (c, info)

        monkeypatch.setattr(lapack, "dpotrf", failing)
        t, rows, y = tied_spacetime()
        sde = markovian.build_spatiotemporal(kernels.matern32(1.0, 0.7), kernels.se(1.0, 0.8), GRID)
        runner = MarkovRunner(sde, 0.1, locations=GRID, history_times=t)
        got = run_runner(runner, stream_columns(y, t=t, x=GRID[rows]))
        ref, states = sequential_rows(sde, t, y, rows, 0.1)
        assert_cells_close([(r.mean, r.var, r.logdensity) for r in got], ref)
        record = runner.stepper.result()
        np.testing.assert_allclose(record.means, np.array([m for m, _ in states]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(record.covs, np.array([c for _, c in states]), rtol=0, atol=1e-12)
        assert sum(n >= 3 for n in sizes) >= 5 and 2 in sizes  # failed blocks, and blocks after them
        batch = markovian.kalman_filter(sde, t, y, 0.1, obs_rows=rows)
        np.testing.assert_array_equal(batch.logliks, scores(got)[0])

    @pytest.mark.parametrize("sigma2, ys, row, error, message", [
        (0.2, [np.nan, 1.0, 2.0, np.inf, 3.0], 3, NumericalError,
         "non-positive predictive variance -2.7755575615628914e-17"),  # the failed pivot first
        (0.2, [np.nan, 1.0, np.inf, 2.0, 3.0], 3, DataError, "non-finite observation inf"),  # the infinite y first
        (1.0, [np.nan, 1.0, 2.0, np.inf, 3.0], 4, DataError, "non-finite observation inf"),  # the pivot recovers
    ], ids=["pivot-first", "inf-first", "pivot-recovered"])
    def test_failed_pivot_and_infinite_y_in_one_time_step_name_the_earlier_row(self, sigma2, ys, row, error, message):
        # four rows at t = 0 observe the one state with noise_var = 1e-300: the second y-row's pivot of
        # sigma2 [[1, 1], [1, 1]] + 1e-300 I fails, and the row runs alone on the state that the rows
        # before it conditioned.  At sigma2 = 0.2 its variance rounds below 0 and the row fails too:
        # whichever of it and the infinite y comes first is named.  At sigma2 = 1 it is exactly 0,
        # the row passes with noise 1e-300, and the infinite y is named
        t, y = np.array([0.0, 0.0, 0.0, 0.0, 1.0]), np.array(ys)
        sde = markovian.build_lti(kernels.matern12(sigma2))
        got, exc = rows_until_error(MarkovRunner(sde, 1e-300), stream_columns(y, t=t))
        assert type(exc) is error and str(exc) == f"row {row}: {message}"
        assert len(got) == row - 1
        assert got[:2] == [(0.0, sigma2, None),
                           (0.0, sigma2, pytest.approx(-0.5 * (np.log(2 * np.pi * sigma2) + 1.0 / sigma2)))]
        with pytest.raises(error, match=f"^step {row - 1}: {message}$"):
            markovian.kalman_filter(sde, t, y, 1e-300)

    def test_kalman_filter_is_bit_equal_to_the_runners_cells(self, monkeypatch):
        # kalman_filter steps the blocks that the runner steps: the same log densities and record
        monkeypatch.setattr(markovian, "UPDATE_BLOCK_ROWS", 3)
        t, rows, y = tied_spacetime()
        sde = markovian.build_spatiotemporal(kernels.matern32(1.0, 0.7), kernels.se(1.0, 0.8), GRID)
        runner = MarkovRunner(sde, 0.1, locations=GRID, history_times=t)
        cells = run_runner(runner, stream_columns(y, t=t, x=GRID[rows]), 5)
        got = markovian.kalman_filter(sde, t, y, 0.1, obs_rows=rows)
        want, total = scores(cells)
        np.testing.assert_array_equal(got.logliks, want)
        assert np.isnan(want).sum() > 5
        assert got.loglik_total == total
        record = runner.stepper.result()
        for name in ("times", "means", "covs", "steps", "obs_rows"):
            np.testing.assert_array_equal(getattr(got, name), getattr(record, name))

    @pytest.mark.parametrize("case", ["run-after-a-tie-at-the-clock", "pivot-in-a-run-after-a-tie",
                                      "run-alone", "pivot-in-a-run-alone", "tie-alone"])
    def test_a_block_that_raises_leaves_the_stepper_as_it_was(self, case, monkeypatch):
        # a block whose last piece fails, after pieces that conditioned the state (a tie at the clock
        # conditions it in place and overwrites the record's last time row), and a block of one
        # failing piece: the moments, the clock and the record are as before the block,
        # the error names the block's row, and the stream then runs as if the block had never run
        sde = ZERO_STEP_SDES["spacetime"]
        t = np.array([0.0, 0.2, 0.3, 0.5, 0.5, 0.5, 0.7, 0.9, 1.1, 1.4])
        y = np.array([0.1, -0.2, 0.3, 0.4, np.nan, -0.1, 0.2, 0.5, -0.3, 0.1])
        rows = np.array([0, 1, 0, 1, 0, 1, 1, 0, 1, 0])
        first, block = (0, 4), {"run-after-a-tie-at-the-clock": (4, 9), "pivot-in-a-run-after-a-tie": (4, 9),
                                "run-alone": (6, 9), "pivot-in-a-run-alone": (6, 9), "tie-alone": (4, 6)}[case]
        if case in ("run-alone", "pivot-in-a-run-alone"):
            first = (0, 6)
        bad = {"run-after-a-tie-at-the-clock": 4, "run-alone": 2, "tie-alone": 1}.get(case)
        if bad is not None:
            y[block[0] + bad] = np.inf
        stepper = markovian.MarkovStepper(sde, 0.1, history_times=t)

        def step(a, b):
            return stepper.step(t[a:b].tolist(), y[a:b].tolist(), rows[a:b].tolist())

        step(*first)
        if bad is None:  # the run's factor fails at its second y-row (its three y-rows are its last three)
            real = lapack.dpotrf
            monkeypatch.setattr(lapack, "dpotrf", lambda a, **kw: (real(a, **kw)[0], 2) if len(a) >= 3
                                else real(a, **kw))
            bad = block[1] - block[0] - 2
        mean, cov, clock, record = stepper.mean.copy(), stepper.cov.copy(), stepper.time, stepper.result()
        record = dataclasses.replace(record, means=record.means.copy(), covs=record.covs.copy(), runs=list(record.runs))
        with pytest.raises((DataError, NumericalError)) as caught:
            step(*block)
        assert caught.value.detail["row"] == bad
        np.testing.assert_array_equal(stepper.mean, mean)
        np.testing.assert_array_equal(stepper.cov, cov)
        assert stepper.time == clock
        assert_records_equal(stepper.result(), record)

    def test_a_row_stepped_out_of_order_is_a_value_error(self):
        # the runner draws each row's result from the stepper's blocks in order: a later row cannot come first
        t = np.array([0.0, 0.0, 0.5, 1.0])
        data = stream_columns([0.1, 0.2, 0.3, 0.4], t=t)
        runner = MarkovRunner(markovian.build_lti(kernels.matern12()), 0.1)
        runner.prepare(data)
        first, _, third, _ = data.records()
        with pytest.raises(ValueError, match="^row 3 is stepped out of order: the next row is row 1$"):
            runner.step(third)
        assert runner.stepper.time is None  # nothing ran
        assert runner.step(first).logdensity is not None
        with pytest.raises(ValueError, match="^row 1 is stepped out of order: the next row is row 2$"):
            runner.step(first)  # nor can a row run twice

    def test_a_block_of_predict_only_rows_advances_and_conditions_nothing(self):
        sde = markovian.build_spatiotemporal(kernels.matern32(1.0, 0.7), kernels.se(1.0, 0.8), GRID)
        stepper = markovian.MarkovStepper(sde, 0.1)
        stepper.step(0.0, [0.3, -0.2], [0, 2])
        mean, cov = markovian.predict(sde, markovian.transition(sde, 0.4), stepper.mean, stepper.cov)
        means, variances, lls = stepper.step(0.4, [np.nan] * 4, [1, 0, 1, 2])
        assert stepper.time == 0.4 and lls == [None] * 4
        np.testing.assert_array_equal(stepper.mean, mean)
        np.testing.assert_array_equal(stepper.cov, cov)
        assert means == [float(sde.obs[r] @ mean) for r in (1, 0, 1, 2)]
        assert variances == [float(sde.obs[r] @ cov @ sde.obs[r]) for r in (1, 0, 1, 2)]

    @pytest.mark.parametrize("t", [3, np.int64(3), np.float32(3.0), np.array(3.0)],
                             ids=["int", "int64", "float32", "0-d-array"])
    def test_a_zero_d_timestamp_is_the_time_of_the_whole_block(self, t):
        # a 0-d real timestamp of any type is one time step, as the float 3.0 is: a block of one row
        # and a tie after it give the same cells, state, clock and record
        sde = markovian.build_spatiotemporal(kernels.matern32(1.0, 0.7), kernels.se(1.0, 0.8), GRID)

        def stepped(time):
            stepper = markovian.MarkovStepper(sde, 0.1, history_times=[0.5, 3.0, 3.0, 3.0])
            return stepper, [stepper.step(0.5, [0.3], [0]), stepper.step(time, [0.2], [1]),
                             stepper.step(time, [np.nan, -0.1], [2, 0])]

        (stepper, cells), (ref, want) = stepped(t), stepped(3.0)
        assert cells == want
        assert type(stepper.time) is float and stepper.time == 3.0
        np.testing.assert_array_equal(stepper.mean, ref.mean)
        np.testing.assert_array_equal(stepper.cov, ref.cov)
        assert_records_equal(stepper.result(), ref.result())

    def test_memory_per_block_is_bounded_whatever_the_rows_at_one_time(self):
        # 2 and 8 blocks' worth of rows at each of 3 times: a block is at most UPDATE_BLOCK_ROWS
        # rows, so its (rows, d) and (rows, rows) products do not grow with the time step
        B = markovian.UPDATE_BLOCK_ROWS
        sde = markovian.build_spatiotemporal(kernels.matern32(1.0, 0.7), kernels.se(1.0, 0.8), GRID)

        def traced_peak(rows_per_time):
            t, rows, y = tied_spacetime(seed=62, n_times=3, low=rows_per_time, high=rows_per_time + 1)
            data = stream_columns(y, t=t, x=GRID[rows])
            runner = MarkovRunner(sde, 0.1, locations=GRID)
            tracemalloc.start()
            try:
                for _ in run_chunks(runner, data, CHUNK_ROWS):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = traced_peak(2 * B), traced_peak(8 * B)
        assert large - small < 16 * 1024, (small, large)
