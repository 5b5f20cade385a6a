"""Online model combination: BMA recursion, stacking, mixture moments."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from seqgp import ensemble as ens
from seqgp.runners import Columns, EnsembleRunner, StepResult, run_chunks
from seqgp.errors import ConfigurationError, DataError


def batch_bma_oracle(loglik_matrix):
    """Weights from the summed evidences, computed independently per step."""
    T, K = loglik_matrix.shape
    out = np.empty((T, K))
    cum = np.zeros(K)
    for t in range(T):
        cum = cum + loglik_matrix[t]
        shifted = cum - cum.max()
        w = np.exp(shifted)
        out[t] = w / w.sum()
    return out


def eg_oracle(density_matrix, k_members):
    """Closed-form exponentiated-gradient iterates mirrored in the test."""
    w = np.full(k_members, 1.0 / k_members)
    path = []
    for t, p in enumerate(density_matrix, start=1):
        eta = np.sqrt(np.log(k_members) / t)
        w = w * np.exp(eta * p / float(w @ p))
        w = w / w.sum()
        path.append(w.copy())
    return np.array(path)


class TestLogsumexp:
    def test_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(2_000):
            a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), rng.integers(1, 12))
            cases += [a, np.append(a, a.max()), np.full(a.size, a[0]), np.append(a, -np.inf)]
        cases += [rng.normal(size=300), np.full(200, -3.0), np.array([-np.inf, -np.inf]), np.array([np.inf, 1.0])]
        for a in cases:
            assert ens.logsumexp(a) == scipy_logsumexp(a)

    def test_each_row_of_an_array_is_the_row_alone(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3, (400, 1)), (400, 6))
        rows[rng.random(rows.shape) < 0.2] = -np.inf
        rows[::7, 2] = rows[::7, 4]  # a tied max in some rows
        rows[5], rows[9, 1], rows[11, 3], rows[13, 0] = -np.inf, np.inf, np.nan, 1e308
        got = ens.logsumexp(np.asfortranarray(rows))
        assert got.shape == (400,)
        np.testing.assert_array_equal(got, [ens.logsumexp(r) for r in rows])
        np.testing.assert_array_equal(got, scipy_logsumexp(rows, axis=1))

    def test_nan_propagates(self):
        assert np.isnan(ens.logsumexp(np.array([np.nan, 1.0])))


class TestBma:
    def test_identical_members_stay_uniform(self):
        state = ens.init_ensemble(2, "bma")
        for _ in range(200):
            ens.bma_update(state, [-1.3, -1.3])
            np.testing.assert_allclose(state.weights, [0.5, 0.5], atol=1e-15)

    def test_matches_batch_evidence_weighting(self):
        rng = np.random.default_rng(60)
        lls = rng.normal(-1.0, 0.5, size=(400, 3))
        state = ens.init_ensemble(3, "bma")
        oracle = batch_bma_oracle(lls)
        for t in range(400):
            ens.bma_update(state, lls[t])
            np.testing.assert_allclose(state.weights, oracle[t], atol=1e-10)

    def test_minus_infinity_surrogate_handled(self):
        state = ens.init_ensemble(2, "bma")
        ens.bma_update(state, [-1e6, -1.0])
        assert not np.any(np.isnan(state.weights))
        assert state.weights[0] < 1e-300
        assert state.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_simplex_preserved_under_adversarial_stream(self):
        state = ens.init_ensemble(3, "bma")
        for t in range(100_000):
            sign = 500.0 if t % 2 == 0 else -500.0
            ens.bma_update(state, [sign, -sign, 0.0])
            if t % 10_000 == 0:
                assert np.all(state.weights >= 0.0)
                assert state.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert state.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_nan_loglik_rejected(self):
        with pytest.raises(DataError):
            ens.bma_update(ens.init_ensemble(2, "bma"), [np.nan, 0.0])


class TestStacking:
    def test_single_member_stays_at_one(self):
        state = ens.init_ensemble(1, "stacking")
        for _ in range(10):
            ens.stacking_update(state, np.log([0.3]))
        np.testing.assert_allclose(state.weights, [1.0], atol=1e-15)

    def test_equal_densities_leave_weights_unchanged(self):
        state = ens.init_ensemble(3, "stacking")
        for _ in range(50):
            ens.stacking_update(state, np.log([0.7, 0.7, 0.7]))
        np.testing.assert_allclose(state.weights, np.full(3, 1 / 3), atol=1e-12)

    def test_dominant_member_wins_and_matches_eg_oracle(self):
        rng = np.random.default_rng(61)
        T = 400
        weak = rng.uniform(0.01, 0.02, size=T)
        strong = 10.0 * weak + rng.uniform(0.05, 0.1, size=T)
        densities = np.stack([strong, weak], axis=1)
        state = ens.init_ensemble(2, "stacking")
        path = []
        for t in range(T):
            ens.stacking_update(state, np.log(densities[t]))
            path.append(state.weights.copy())
        path = np.array(path)
        oracle = eg_oracle(densities, 2)
        np.testing.assert_allclose(path, oracle, atol=1e-10)
        burn = 50
        lead = path[burn:, 0]
        assert np.all(np.diff(lead) >= -1e-12)  # monotone growth after burn-in
        assert lead[-1] > 0.95

    def test_all_zero_densities_skip_with_warning(self):
        state = ens.init_ensemble(2, "stacking")
        ens.stacking_update(state, np.log([0.4, 0.2]))
        before = state.weights.copy()
        with pytest.warns(UserWarning):
            ens.stacking_update(state, [-np.inf, -np.inf])
        np.testing.assert_allclose(state.weights, before, atol=0)
        assert state.step_count == 2

    def test_simplex_preserved_under_adversarial_stream(self):
        # alternating log densities of +-690 nats, the finite density extremes 1e300 and 1e-300
        state = ens.init_ensemble(2, "stacking")
        for t in range(100_000):
            p = [1e300, 1e-300] if t % 2 == 0 else [1e-300, 1e300]
            ens.stacking_update(state, np.log(p))
        assert np.all(state.weights >= 0.0)
        assert state.weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_infinite_log_density_rejected(self, bad):
        with pytest.raises(DataError):
            ens.stacking_update(ens.init_ensemble(2, "stacking"), [bad, 0.5])


class TestMixturePredict:
    def test_identical_members(self):
        state = ens.init_ensemble(3, "bma")
        mean, var = ens.mixture_predict(state, [0.7] * 3, [0.2] * 3)
        assert mean == pytest.approx(0.7)
        assert var == pytest.approx(0.2)

    def test_symmetric_two_member_moments(self):
        state = ens.init_ensemble(2, "bma")
        mean, var = ens.mixture_predict(state, [-1.0, 1.0], [1.0, 1.0])
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert var == pytest.approx(2.0, rel=1e-12)

    def test_bad_member_count(self):
        with pytest.raises(DataError):
            ens.mixture_predict(ens.init_ensemble(2, "bma"), [0.0], [1.0])


class TestInit:
    def test_uniform_prior(self):
        state = ens.init_ensemble(5, "stacking")
        np.testing.assert_allclose(state.weights, np.full(5, 0.2), atol=1e-15)

    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            ens.init_ensemble(0, "bma")
        with pytest.raises(ConfigurationError):
            ens.init_ensemble(2, "mean")


def scored_records(runner, n):
    """The records of n rows, each with a target (0.0), prepared as ``runner``'s chunk."""
    chunk = Columns(1, None, None, np.zeros(n))
    runner.prepare(chunk)
    return chunk.records()


class _FixedScoreMember:
    """Runner stand-in whose every row scores the same log density."""

    approximate_loglik = False
    block_rows = 1
    flops = 0

    def __init__(self, loglik):
        self.loglik = loglik

    def prepare(self, chunk):
        pass

    def step(self, rec):
        return StepResult(0.0, 1.0, self.loglik)


class _ScoreListMember(_FixedScoreMember):
    """Runner stand-in whose row r scores ``loglik[r - 1]``."""

    def step(self, rec):
        return StepResult(0.0, 1.0, self.loglik[rec.row - 1])


class TestStackingRunner:
    def test_best_member_at_the_floor_keeps_the_weights_finite(self):
        # after row 4 the best member of row 5 holds the floor's subnormal weight 5e-324, so
        # 1 / (w . p) overflows; the step's limit keeps that member and floors the others
        rows = [[-744.0, -567951.6, -181370.0, 3.7e-283], [-3.9e-292, -1.0, -115587.9, -401888.6],
                [-1500.0, -40468.7, -745.0, 0.0], [-713803.7, -1e6, -1500.0, -744.0],
                [-7.4e-176, -1e6, -1e6, -685494.7]]
        runner = EnsembleRunner([_ScoreListMember([r[j] for r in rows]) for j in range(4)], "stacking")
        with np.errstate(under="ignore"):
            for rec in scored_records(runner, 5):
                res = runner.step(rec)
                assert np.all(np.isfinite(res.weights)) and res.weights.sum() == pytest.approx(1.0)
        assert res.weights[0] == 1.0 and runner.state.log_weights[1:] == [ens.LOG_FLOOR] * 3

    def test_far_out_members_still_move_the_weights(self):
        # exp(-800) and exp(-840) both underflow to 0 in double precision
        runner = EnsembleRunner([_FixedScoreMember(-800.0), _FixedScoreMember(-840.0)], "stacking")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.step(next(scored_records(runner, 1)))
        assert res.weights[0] > 0.5 > res.weights[1]
        assert res.weights.sum() == pytest.approx(1.0)
        # the step of densities 1 and exp(-40) from equal weights (eta = sqrt(ln 2), gradient p / (w . p)),
        # not the limit that 1 / (w . p) = inf would take: unshifted, both densities are 0
        p = np.array([1.0, math.exp(-40.0)])
        w = np.exp(math.sqrt(math.log(2.0)) * p / (0.5 * p.sum()))
        np.testing.assert_allclose(res.weights, w / w.sum(), rtol=1e-12)

    def test_no_finite_member_density_skips_the_step(self):
        runner = EnsembleRunner([_FixedScoreMember(-np.inf), _FixedScoreMember(-np.inf)], "stacking")
        with pytest.warns(UserWarning, match="stacking step skipped"):
            res = runner.step(next(scored_records(runner, 1)))
        np.testing.assert_array_equal(res.weights, [0.5, 0.5])


class TestBmaRunner:
    def test_no_finite_member_density_skips_the_step(self):
        runner = EnsembleRunner([_FixedScoreMember(-np.inf), _FixedScoreMember(-np.inf)], "bma")
        with pytest.warns(UserWarning, match="at step 1; bma step skipped"):
            res = runner.step(next(scored_records(runner, 1)))
        np.testing.assert_array_equal(res.weights, [0.5, 0.5])
        assert runner.state.step_count == 1

    def test_log_weight_floor_triggers_for_a_member_trailing_by_more_than_745_nats(self):
        runner = EnsembleRunner([_FixedScoreMember(0.0), _FixedScoreMember(-800.0)], "bma")
        for rec in scored_records(runner, 3):
            res = runner.step(rec)
            best, trailing = runner.state.log_weights
            # unfloored, the gap would be -800 * rec.row and exp of it 0.0; clamped, it stays at the floor
            assert trailing - best == ens.LOG_FLOOR
            assert np.all(np.isfinite(res.weights)) and np.all(res.weights >= 0.0)
            assert res.weights[1] > 0.0
            assert res.weights.sum() == 1.0


class _RaisingMember:
    """Runner stand-in with scripted (mean, var, log density) rows that raises a DataError naming
    itself at row ``fail_row``; ``stepped`` lists the rows it was stepped on."""

    approximate_loglik = False
    block_rows = 1
    flops = 0

    def __init__(self, name, rows, fail_row):
        self.name, self.rows, self.fail_row, self.stepped = name, rows, fail_row, []

    def prepare(self, chunk):
        pass

    def step(self, rec):
        self.stepped.append(rec.row)
        if rec.row == self.fail_row:
            raise DataError(f"{self.name} fails")
        return StepResult(*self.rows[rec.row - 1])


class TestMemberErrors:
    def members(self, fail_rows):
        rng = np.random.default_rng(62)
        return [_RaisingMember(f"member {j}", list(zip(rng.normal(size=20).tolist(), rng.uniform(0.1, 2.0, 20).tolist(),
                                                            rng.normal(-1.0, 0.5, 20).tolist())), fail)
                for j, fail in enumerate(fail_rows, start=1)]

    def run(self, members):
        """The results ``run_chunks`` yields over one 20-row chunk, and the error it raises."""
        got = []
        with pytest.raises(DataError) as caught:
            for _, res in run_chunks(EnsembleRunner(members, "bma"), Columns(1, None, None, np.zeros(20)), 20):
                got.append(res)
        return got, str(caught.value)

    def test_the_earliest_row_raises_after_the_rows_before_it(self):
        members = self.members([9, 5, None])
        got, message = self.run(members)
        assert message == "row 5: member 2 fails"
        state = ens.init_ensemble(3, "bma")  # the row-by-row reference
        for row, res in enumerate(got):
            means, variances, lls = zip(*(m.rows[row] for m in members))
            mean, var = ens.mixture_predict(state, means, variances)
            ll = ens.logsumexp([w + v for w, v in zip(state.log_weights, lls)])
            ens.bma_update(state, lls)
            assert (res.mean, res.var, res.logdensity) == (mean, var, ll)
            np.testing.assert_array_equal(res.weights, state.weights)
        assert len(got) == 4
        assert [m.stepped for m in members] == [list(range(1, 10)), list(range(1, 6)), list(range(1, 5))]

    def test_at_one_row_the_lower_numbered_member_raises(self):
        members = self.members([5, 5, None])
        got, message = self.run(members)
        assert message == "row 5: member 1 fails"
        assert len(got) == 4
        assert [m.stepped for m in members] == [list(range(1, 6)), list(range(1, 5)), list(range(1, 5))]
