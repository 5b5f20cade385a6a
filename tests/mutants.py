"""Catalogue of mutants the test suite must kill, and a replay that checks it does.

Each ``Mutant`` is one fault that a change once had to show its tests catch:
the text to replace in one file, what to replace it with, the tests (files or
node ids, relative to the repository root) that must fail once it is in, and
the opening words of the CHANGES.md entry that names it.
``tests/test_mutants.py`` checks in every test run that each text still
occurs exactly once in its file, so a change that moves or rewrites a
catalogued line has to move its mutant too.

    python tests/mutants.py --run [NAME ...]

copies ``src/``, ``tests/`` and what the tests read into a temporary
directory, checks that the named tests pass there, then applies one mutant at
a time and runs its tests.  It exits 1 unless every mutant fails them.  The
replay takes a few minutes and is not part of the test suite: a change that
touches a catalogued line runs it.  The file has no ``test_`` prefix, so
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")  # the tests read perfbench/ and README.md


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    text: str  # occurs exactly once in ``path``
    replacement: str
    tests: tuple[str, ...]  # pytest files or node ids, at least one of which must fail
    entry: str  # opening words of the CHANGES.md entry that names the mutant


# the CHANGES.md entries that name the mutants below
SHIPPED_STEP = "the acceptance criteria and the route tests drive the step `seqgp run` ships"
SCORED_UPDATE = "one scored Kalman update on every filter route"
FLOAT_COMBINER = "the ensemble combiner row is float work over the K member results"
TIME_ROWS = "the Markov smoothing record keeps one row of `times`, `means` and `covs` per distinct timestamp"
RUNNER_FLOPS = "flop accounting lives in the runners"
BLOCK_UPDATE = "each time step's rows are conditioned as one block"
SCALAR_UPDATE = "`linalg.scalar_update`, the one Kalman covariance update"
ONE_DRIVER = "one driver for the Markov time-step blocks"
ROW_PROTOCOL = "one row protocol for every runner"
EXACT_BLOCKS = "the exact GP is conditioned a block of rows at a time"
BLOCK_FOLD = "the sparse, vsgp and linear routes are conditioned a block of rows at a time"
CHUNK_COMBINER = "the ensemble combines a chunk at a time"
ONE_RULE = "one failure rule for every block route"

MUTANTS = (
    Mutant(
        "dropped-sparse-residual", "src/seqgp/runners.py",
        "            C.flat[:: len(ys) + 1] += q\n",
        "            pass\n",
        ("tests/test_acceptance.py::test_criterion_06_sparse_exactness_and_batch_agreement",
         "tests/test_sparse.py::TestSparseRunner::test_matches_separate_predict_and_update"),
        SHIPPED_STEP),
    Mutant(
        "predict-only-linear-row-without-its-dynamics-tick", "src/seqgp/runners.py",
        "        tau = np.cumsum(scored) + ~scored  # each row's tick count\n",
        "        tau = np.cumsum(scored)  # each row's tick count\n",
        ("tests/test_acceptance.py::test_criterion_08_dynamics_algebra",
         "tests/test_linear_filter.py::TestLinearRunner::test_matches_the_pure_fold"),
        SHIPPED_STEP),
    Mutant(
        "run-chunks-without-its-non-finite-check", "src/seqgp/runners.py",
        "                if not (math.isfinite(res.mean) and math.isfinite(res.var)):\n",
        "                if False:\n",
        ("tests/test_cli.py::TestExitCodes::test_non_finite_prediction_is_4_with_row",),
        SHIPPED_STEP),
    Mutant(
        "condition-outer-product-update", "src/seqgp/linalg.py",
        "    blas.dgemm(-1.0 / pred_var, s[:, None], s[None, :], beta=1.0, c=cov.T, overwrite_c=1)\n",
        "    cov -= np.outer(s / pred_var, s)\n",
        ("tests/test_linalg.py::TestObserveAndCondition::test_bit_symmetric_input_stays_bit_symmetric",
         "tests/test_markovian.py::TestStepperSymmetry"),
        SCORED_UPDATE),
    Mutant(
        "condition-without-its-y-check", "src/seqgp/linalg.py",
        '    if not math.isfinite(y):\n        raise DataError(f"non-finite observation {y!r}")\n',
        "",
        ("tests/test_linalg.py::TestObserveAndCondition::"
         "test_non_finite_observation_is_a_data_error_before_anything_changes",
         "tests/test_markovian.py::TestKalmanFilter::test_infinite_value_is_rejected_not_skipped"),
        SCORED_UPDATE),
    Mutant(
        "condition-scores-the-updated-mean", "src/seqgp/linalg.py",
        "    return gaussian_loglik(y, pred_mean, pred_var)\n",
        "    return gaussian_loglik(y, pred_mean + var / pred_var * (y - pred_mean), pred_var)\n",
        ("tests/test_linalg.py::TestObserveAndCondition::test_plain_formulas",),
        SCORED_UPDATE),
    Mutant(
        "nearest-only-location-lookup", "src/seqgp/runners.py",
        "        rows = np.where(exact.any(axis=1), np.argmax(exact, axis=1), -1)\n",
        "        rows = np.full(len(x), -1)\n",
        ("tests/test_cli_models.py::TestSpatiotemporal::test_location_lookup",),
        SCORED_UPDATE),
    Mutant(
        "logsumexp-with-math-exp", "src/seqgp/ensemble.py",
        "        s = np.exp(d, out=d).sum()\n",
        "        s = sum(math.exp(v) for v in d)\n",
        ("tests/test_ensemble.py::TestLogsumexp::test_matches_scipy_bit_for_bit",),
        FLOAT_COMBINER),
    Mutant(
        "logsumexp-drops-the-max-entries", "src/seqgp/ensemble.py",
        "        s = np.exp(d, out=d).sum()\n",
        "        s = np.exp(d[d != -math.inf]).sum()\n",
        ("tests/test_ensemble.py::TestLogsumexp::test_matches_scipy_bit_for_bit",),
        FLOAT_COMBINER),
    Mutant(
        "no-log-weight-floor", "src/seqgp/ensemble.py",
        "    log_w = [LOG_FLOOR if v < LOG_FLOOR else v for v in [v - top for v in log_w]]\n",
        "    log_w = [v - top for v in log_w]\n",
        ("tests/test_ensemble.py::TestBmaRunner",),
        FLOAT_COMBINER),
    Mutant(
        "mixture-mean-as-a-float-loop", "src/seqgp/ensemble.py",
        "    mean = np.matmul(w, means[:, :, None])[:, 0, 0]\n",
        "    mean = np.array([sum(a * b for a, b in zip(x, m)) for x, m in zip(weights.tolist(), means.tolist())])\n",
        ("tests/test_properties.py::test_combiner_rows_match_the_numpy_reference_bit_for_bit",),
        FLOAT_COMBINER),
    Mutant(
        "no-stacking-shift", "src/seqgp/ensemble.py",
        "    p = np.exp([v - top for v in ll])\n",
        "    p = np.exp(ll)\n",
        ("tests/test_ensemble.py::TestStackingRunner::test_far_out_members_still_move_the_weights",),
        FLOAT_COMBINER),
    Mutant(
        "time-row-from-the-clock", "src/seqgp/markovian.py",
        "            j = p + (p < 0 or t != h.times[p])  # this step's time row\n",
        "            j = p + (p < 0 or t != self.time)  # this step's time row\n",
        ("tests/test_markovian.py::TestStepperHistory::test_a_moved_clock_still_opens_a_new_time_row",
         "tests/test_markovian.py::TestStepperHistory::test_stacked_predict_is_the_advance_state"),
        TIME_ROWS),
    Mutant(
        "one-record-row-per-input-row", "src/seqgp/markovian.py",
        "            j = p + (p < 0 or t != h.times[p])  # this step's time row\n",
        "            j = k  # this step's time row\n",
        ("tests/test_markovian.py::TestStepperHistory::test_one_record_row_per_distinct_time",),
        TIME_ROWS),
    Mutant(
        "smoothing-error-names-the-time-row", "src/seqgp/runners.py",
        '            exc.detail["step"] = k = int(np.searchsorted(record.steps, exc.detail["step"]))\n',
        '            exc.detail["step"] = k = int(exc.detail["step"])\n',
        ("tests/test_cli.py::TestRun::test_failed_smoothing_names_the_row",),
        TIME_ROWS),
    Mutant(
        "unblocked-smoothing-gather", "src/seqgp/runners.py",
        "        n, block = record.steps.size, max(2, markovian.SMOOTH_BLOCK_BYTES // (8 * sde.dim**2))\n",
        "        n, block = record.steps.size, max(2, record.steps.size)\n",
        ("tests/test_markovian.py::TestStepperHistory::test_smoothing_memory_is_per_time_not_per_row",),
        TIME_ROWS),
    Mutant(
        "markov-move-cost-on-a-zero-step", "src/seqgp/runners.py",
        "        costs[moving] += move  # and the move of a step that moves the clock\n",
        "        costs += move  # and the move of a step that moves the clock\n",
        ("tests/test_cli_models.py::TestFlops",
         "tests/test_markovian.py::TestStepShortcuts::test_repeated_timestamp_flops_match_per_step_accounting"),
        RUNNER_FLOPS),
    Mutant(
        "sparse-cost-on-predict-only-rows", "src/seqgp/runners.py",
        "        costs = np.where(np.isnan(ys), 0, self._cost).tolist()  # a y-row's update; a predict-only row is free\n",
        "        costs = [self._cost] * len(ys)  # a y-row's update; a predict-only row is free\n",
        ("tests/test_cli_models.py::TestFlops",),
        RUNNER_FLOPS),
    Mutant(
        "perturbed-gain", "src/seqgp/linalg.py",
        "    mean += (s / pred_var) * (y - pred_mean)\n",
        "    mean += (s / (1.01 * pred_var)) * (y - pred_mean)\n",
        ("tests/test_linalg.py::TestObserveAndCondition::test_plain_formulas",
         "tests/test_acceptance.py::test_criterion_02_markovian_equals_exact_gp"),
        SHIPPED_STEP),
    Mutant(
        "block-mask-admits-a-rows-own-y", "src/seqgp/linalg.py",
        "    before = np.cumsum(scored) - scored  # y-rows strictly before each row\n",
        "    before = np.cumsum(scored)  # y-rows strictly before each row\n",
        ("tests/test_markovian.py::TestTimeStepBlocks::"
         "test_tied_stream_is_chunk_invariant_and_matches_the_row_by_row_filter",
         "tests/test_markovian.py::TestStepperHistory::test_runner_smoothing_is_the_batch_filter_and_smoother",
         "tests/test_exact_runner.py::TestAgainstBatchOracle"),
        BLOCK_UPDATE),
    Mutant(
        "innovation-covariance-without-its-noise", "src/seqgp/linalg.py",
        "    S.flat[::Y.size + 1] += noise_var\n",
        "",
        ("tests/test_markovian.py::TestTimeStepBlocks::"
         "test_tied_stream_is_chunk_invariant_and_matches_the_row_by_row_filter",
         "tests/test_exact_runner.py::TestAgainstBatchOracle"),
        BLOCK_UPDATE),
    Mutant(
        "time-step-block-without-its-row-bound", "src/seqgp/markovian.py",
        "    return (np.arange(n) - np.repeat(first, np.diff(np.append(first, n)))) % UPDATE_BLOCK_ROWS == 0\n",
        "    return new\n",
        ("tests/test_markovian.py::TestTimeStepBlocks::test_memory_per_block_is_bounded_whatever_the_rows_at_one_time",
         "tests/test_markovian.py::TestTimeStepBlocks::test_block_starts_split_each_time_step_every_block_rows"),
        BLOCK_UPDATE),
    Mutant(
        "run-chunks-cuts-inside-a-block", "src/seqgp/runners.py",
        "        stop = int(bounds[np.searchsorted(bounds, min(start + chunk_rows, n))])\n",
        "        stop = min(start + chunk_rows, n)\n",
        ("tests/test_markovian.py::TestTimeStepBlocks::"
         "test_tied_stream_is_chunk_invariant_and_matches_the_row_by_row_filter",
         "tests/test_chunked_run.py::test_every_chunk_size_gives_the_same_report",
         "tests/test_chunked_run.py::test_every_chunk_size_gives_the_same_report_over_several_blocks"),
        BLOCK_UPDATE),
    Mutant(
        "failed-pivot-drops-the-rows-before-it", "src/seqgp/linalg.py",
        "            spans += [(a, b) for a, b in ((start + p + 1, stop), (start + p, start + p + 1), "
        "(start, start + p))\n",
        "            spans += [(a, b) for a, b in ((start + p + 1, stop), (start + p, start + p + 1))\n",
        ("tests/test_markovian.py::TestTimeStepBlocks::"
         "test_a_failed_pivot_runs_its_row_alone_and_the_rest_as_a_new_block",
         "tests/test_exact_runner.py::TestMidBlockErrors::"
         "test_a_failed_pivot_runs_its_row_alone_and_the_rest_as_a_new_block"),
        BLOCK_UPDATE),
    Mutant(
        "predict-without-symmetrize", "src/seqgp/markovian.py",
        "    return (A @ mean[..., None])[..., 0], symmetrize(P + A @ (cov - P) @ A.swapaxes(-1, -2))\n",
        "    return (A @ mean[..., None])[..., 0], P + A @ (cov - P) @ A.swapaxes(-1, -2)\n",
        ("tests/test_markovian.py::TestStepperSymmetry",),
        SCALAR_UPDATE),
    Mutant(
        "linear-predict-noise-off-the-diagonal", "src/seqgp/linear_filter.py",
        "    cov.reshape(-1)[:: cov.shape[0] + 1] += dynamics.noise\n",
        "    cov += dynamics.noise\n",
        ("tests/test_acceptance.py::test_criterion_08_dynamics_algebra",
         "tests/test_linear_filter.py::TestDynamics::test_random_walk_adds_to_the_diagonal_bit_for_bit"),
        SHIPPED_STEP),
    Mutant(
        "stepper-run-without-its-cut-at-the-first-bad-row", "src/seqgp/markovian.py",
        "        if bad.size:  # the block's first bad row, with the message that row gives alone\n",
        "        if False:  # the block's first bad row, with the message that row gives alone\n",
        ("tests/test_markovian.py::TestTimeStepBlocks::"
         "test_infinite_y_inside_a_time_step_names_its_row_after_the_rows_before_it",
         "tests/test_markovian.py::TestTimeStepBlocks::"
         "test_failed_pivot_and_infinite_y_in_one_time_step_name_the_earlier_row"),
        ONE_DRIVER),
    Mutant(
        "runner-without-its-cut-at-an-unknown-location", "src/seqgp/markovian.py",
        "        bad_rows = (rows < 0) | (rows >= n_obs)\n",
        "        bad_rows = rows >= n_obs\n",
        ("tests/test_markovian.py::TestTimeStepBlocks::test_unknown_location_inside_a_time_step_is_3_with_its_row",
         "tests/test_cli_models.py::TestSpatiotemporal::test_location_lookup"),
        ONE_DRIVER),
    Mutant(
        "runner-step-without-its-order-check", "src/seqgp/runners.py",
        "        if rec.row != self._next:\n",
        "        if False:\n",
        ("tests/test_chunked_run.py::test_a_row_stepped_ahead_of_its_turn_or_twice_is_a_value_error",),
        ROW_PROTOCOL),
    Mutant(
        "exact-blocks-cut-at-each-chunk-start", "src/seqgp/runners.py",
        "    bounds = block_bounds(data.t, n, runner.block_rows)\n",
        "    bounds = block_bounds(data.t, n, 1)\n",
        ("tests/test_chunked_run.py::test_every_chunk_size_gives_the_same_report_over_several_blocks",
         "tests/test_chunked_run.py::test_every_chunk_size_gives_the_same_report"),
        EXACT_BLOCKS),
    Mutant(
        "exact-block-without-its-non-finite-cut", "src/seqgp/runners.py",
        '            raise NumericalError("kernel has non-finite entries", detail={"row": int(np.argmax(bad))})\n',
        "            pass\n",
        ("tests/test_exact_runner.py::TestMidBlockErrors",
         "tests/test_exact_runner.py::TestState::test_non_finite_kernel_entries_are_numerical_errors"),
        EXACT_BLOCKS),
    Mutant(
        "exact-flops-charged-per-block", "src/seqgp/runners.py",
        "        for (mean, var, ll), cost in zip(rows, costs):\n"
        "            self.flops += cost\n"
        "            yield StepResult(mean, var, ll)\n",
        "        self.flops += sum(costs)  # the chunk's flops, all charged at its first row\n"
        "        for mean, var, ll in rows:\n"
        "            yield StepResult(mean, var, ll)\n",
        ("tests/test_exact_runner.py::TestState::test_each_row_is_charged_as_it_is_yielded",
         "tests/test_sparse.py::TestSparseRunner::test_matches_separate_predict_and_update"),
        EXACT_BLOCKS),
    Mutant(
        "block-update-without-its-mask", "src/seqgp/linalg.py",
        "    W = (L_inv @ np.where(mask, C[Y], 0.0)) * mask\n",
        "    W = L_inv @ C[Y]\n",
        ("tests/test_exact_runner.py::TestAgainstBatchOracle",
         "tests/test_markovian.py::TestTimeStepBlocks::"
         "test_tied_stream_is_chunk_invariant_and_matches_the_row_by_row_filter"),
        EXACT_BLOCKS),
    Mutant(
        "block-update-reads-entries-no-row-reads", "src/seqgp/linalg.py",
        "    W = (L_inv @ np.where(mask, C[Y], 0.0)) * mask\n",
        "    W = (L_inv @ C[Y]) * mask\n",
        ("tests/test_exact_runner.py::TestState::test_a_non_finite_entry_that_no_row_reads_is_not_an_error",),
        EXACT_BLOCKS),
    Mutant(
        "raises-at-the-first-failed-block-pivot", "src/seqgp/linalg.py",
        "            if p is None or stop - start == 1:\n",
        "            if True:\n",
        ("tests/test_markovian.py::TestTimeStepBlocks::"
         "test_a_failed_pivot_runs_its_row_alone_and_the_rest_as_a_new_block",
         "tests/test_exact_runner.py::TestMidBlockErrors::"
         "test_a_failed_pivot_runs_its_row_alone_and_the_rest_as_a_new_block",
         "tests/test_cli.py::TestExitCodes::test_failed_pivot_in_a_time_step_is_4_with_its_row"),
        BLOCK_FOLD),
    Mutant(
        "predict-only-linear-tick-shared-with-the-next-y-row", "src/seqgp/runners.py",
        "        tau = np.cumsum(scored) + ~scored  # each row's tick count\n",
        "        tau = np.arange(1, len(ys) + 1)  # each row's tick count\n",
        ("tests/test_linear_filter.py::TestLinearRunner::test_matches_the_pure_fold",
         "tests/test_acceptance.py::test_criterion_08_dynamics_algebra"),
        BLOCK_FOLD),
    Mutant(
        "linear-tick-count-off-by-one", "src/seqgp/runners.py",
        "        tau = np.cumsum(scored) + ~scored  # each row's tick count\n",
        "        tau = np.cumsum(scored) + ~scored + 1  # each row's tick count\n",
        ("tests/test_linear_filter.py::TestLinearRunner::test_matches_the_pure_fold",
         "tests/test_cli.py::TestRun::test_linear_run_obeys_chain_rule"),
        BLOCK_FOLD),
    Mutant(
        "linear-block-ticks-noise-off-the-diagonal", "src/seqgp/runners.py",
        "            P.reshape(-1)[:: P.shape[0] + 1] += gam[K]\n",
        "            P += gam[K]\n",
        ("tests/test_linear_filter.py::TestLinearRunner::test_matches_the_pure_fold",
         "tests/test_acceptance.py::test_criterion_08_dynamics_algebra"),
        BLOCK_FOLD),
    Mutant(
        "sparse-residual-off-the-diagonal", "src/seqgp/runners.py",
        "            C.flat[:: len(ys) + 1] += q\n",
        "            C += q\n",
        ("tests/test_sparse.py::TestSparseRunner::test_matches_separate_predict_and_update",
         "tests/test_acceptance.py::test_criterion_06_sparse_exactness_and_batch_agreement"),
        BLOCK_FOLD),
    Mutant(
        "linear-block-without-its-non-finite-cut", "src/seqgp/runners.py",
        '            raise NumericalError("feature row has non-finite entries", detail={"row": int(np.argmax(bad))})\n',
        "            pass\n",
        ("tests/test_linear_filter.py::TestLinearRunner::"
         "test_a_non_finite_feature_row_cuts_its_block_and_names_its_row",),
        BLOCK_FOLD),
    Mutant(
        "sparse-block-without-its-non-finite-cut", "src/seqgp/runners.py",
        '            raise NumericalError("projection has non-finite entries", detail={"row": int(np.argmax(bad))})\n',
        "            pass\n",
        ("tests/test_sparse.py::TestSparseRunner::"
         "test_a_non_finite_projection_row_cuts_its_block_and_names_its_row",),
        BLOCK_FOLD),
    Mutant(
        "filter-result-copies-the-history", "src/seqgp/markovian.py",
        "        return FilterResult(h.times[:m], h.means[:m], h.covs[:m], h.steps[:n], h.obs_rows[:n], "
        "h.logliks[:n],\n",
        "        return FilterResult(h.times[:m].copy(), h.means[:m].copy(), h.covs[:m].copy(), h.steps[:n].copy(),\n"
        "                            h.obs_rows[:n].copy(), h.logliks[:n].copy(),\n",
        ("tests/test_markovian.py::TestStepperHistory::test_history_rows_are_copies_and_result_is_a_view",),
        BLOCK_FOLD),
    Mutant(
        "duplicate-inducing-limit-scaled-by-the-lengthscale", "src/seqgp/sparse.py",
        "        if dist.min() <= 1e-8 * spread:\n",
        "        if dist.min() <= 1e-8 * kernel.lengthscale:\n",
        ("tests/test_sparse.py::TestInit::test_duplicate_limit_follows_the_spread_of_the_inputs",),
        BLOCK_FOLD),
    Mutant(
        "check-writes-kernel-lines-before-the-features-keys", "src/seqgp/cli.py",
        "    # every key is read before the first line is written\n",
        "    _check_kernel(kernel, report)  # the kernel lines before the features.* keys are read\n",
        ("tests/test_cli.py::TestCheck::test_bad_features_key_writes_no_line",),
        BLOCK_FOLD),
    Mutant(
        "mixture-read-with-the-rows-own-update", "src/seqgp/runners.py",
        "            means, variances = ens.mixture_moments(W[:k], M[:k], V[:k])\n",
        "            means, variances = ens.mixture_moments(W[1 : k + 1], M[:k], V[:k])\n",
        ("tests/test_properties.py::test_combiner_rows_match_the_numpy_reference_bit_for_bit",
         "tests/test_ensemble.py::TestMemberErrors::test_the_earliest_row_raises_after_the_rows_before_it"),
        CHUNK_COMBINER),
    Mutant(
        "skip-warning-in-the-chunk-pass", "src/seqgp/ensemble.py",
        "                skipped.add(i)\n",
        "                skipped.add(i)\n"
        '                warnings.warn(f"all member densities are zero at step {t}; {state.combiner} step skipped")\n',
        ("tests/test_cli.py::TestRun::test_warnings_are_one_seqgp_line_each",
         "tests/test_properties.py::test_combiner_rows_match_the_numpy_reference_bit_for_bit"),
        CHUNK_COMBINER),
    Mutant(
        "last-member-error-instead-of-the-earliest-rows", "src/seqgp/runners.py",
        "                for rec in records[:stop]:\n",
        "                for rec in records:\n",
        ("tests/test_ensemble.py::TestMemberErrors::test_at_one_row_the_lower_numbered_member_raises",),
        CHUNK_COMBINER),
    Mutant(
        "single-entry-smoothing-without-its-non-finite-check", "src/seqgp/runners.py",
        "            smoothed[~finite[k] & np.isfinite(smoothed).all(axis=1), 1] = np.nan\n",
        "            pass\n",
        ("tests/test_markovian.py::TestStepperHistory::"
         "test_a_non_finite_entry_off_the_observed_one_names_its_time_row",),
        CHUNK_COMBINER),
    Mutant(
        "markov-block-without-its-location-check", "src/seqgp/runners.py",
        "            if rows[start] < 0:\n",
        "            if False:\n",
        ("tests/test_markovian.py::TestTimeStepBlocks::test_unknown_location_inside_a_time_step_is_3_with_its_row",
         "tests/test_properties.py::test_a_bad_row_ends_every_block_route_after_the_rows_before_it"),
        ONE_RULE),
    Mutant(
        "stepper-block-names-its-first-row-not-its-first-bad-row", "src/seqgp/markovian.py",
        '                            else f"non-finite observation {float(ys[p])!r}", detail={"row": p})\n',
        '                            else f"non-finite observation {float(ys[p])!r}", detail={"row": 0})\n',
        ("tests/test_properties.py::test_a_bad_row_ends_every_block_route_after_the_rows_before_it",),
        ONE_RULE),
)


def _pytest(workdir: Path, tests) -> subprocess.CompletedProcess:
    env = os.environ | {"PYTHONPATH": str(workdir / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                          cwd=workdir, env=env, capture_output=True, text=True)


def replay(mutants) -> int:
    """Apply each mutant alone to a copy of the tree and run its tests; 1 unless every one fails them."""
    survived = []
    with tempfile.TemporaryDirectory(prefix="seqgp-mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns("__pycache__", ".*"))
            else:
                shutil.copy2(source, work / name)
        baseline = _pytest(work, sorted({t for m in mutants for t in m.tests}))
        if baseline.returncode != 0:
            print(baseline.stdout[-3000:], baseline.stderr[-3000:], sep="\n")
            print("the catalogued tests fail without any mutant")
            return 1
        for m in mutants:
            path = work / m.path
            original = path.read_text(encoding="utf-8")
            if original.count(m.text) != 1:
                print(f"{m.name}: its text does not occur exactly once in {m.path}")
                survived.append(m.name)
                continue
            path.write_text(original.replace(m.text, m.replacement), encoding="utf-8")
            try:
                result = _pytest(work, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            # exit 1 is failed tests; any other nonzero code (an import error, say) tests nothing
            killed = result.returncode == 1
            print(f"{'killed  ' if killed else 'SURVIVED'} {m.name}", flush=True)
            if not killed:
                print(result.stdout[-2000:])
                survived.append(m.name)
    print(f"{len(mutants) - len(survived)} of {len(mutants)} mutants killed")
    return 1 if survived else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--run", action="store_true", help="replay the catalogue against the test suite")
    parser.add_argument("names", nargs="*", help="replay only these mutants")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    if not args.run:
        for m in MUTANTS:
            print(f"{m.name}: {m.path}")
        return 0
    return replay([by_name[n] for n in args.names] if args.names else list(MUTANTS))


if __name__ == "__main__":
    sys.exit(main())
