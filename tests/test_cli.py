"""CLI surface: ingestion, prequential runs, fit-exact, check, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import parse_report, run_cli
from seqgp import cli, exact, features, kernels, linear_filter as lf, markovian
from seqgp.errors import DataError


WORKED_CSV = "t,y\n0,0.1\n1,-0.3\n2.5,0.5\n2.0,\n"
WORKED_ARGS = [
    "model=exact", "kernel.family=se", "kernel.sigma_f2=1",
    f"kernel.lengthscale={1.0 / math.sqrt(2.0)}", "noise_var=1e-10",
]

LINEAR_ARGS = ["model=linear", "kernel.family=se", "features.kind=rff", "features.F=8", "noise_var=0.1", "--seed", "0"]

# mode -> (config overrides, library constructor, and (a, cov_scale, u, c) of
# theta_k = a*theta_{k-1} + u + N(0, c*I) written out by hand), each given the
# weight prior variance v0
LINEAR_DYNAMICS = {
    "static": ([], lambda v0: lf.static(), lambda v0: (1.0, 1.0, 0.0, 0.0)),
    "random_walk": (["dynamics.mode=random_walk", "dynamics.sigma_rw2=0.01"],
                    lambda v0: lf.random_walk(0.01), lambda v0: (1.0, 1.0, 0.0, 0.01)),
    "b2p": (["dynamics.mode=b2p", "dynamics.lambda=0.9"],
            lambda v0: lf.b2p(0.9, v0), lambda v0: (math.sqrt(0.9), 0.9, 0.0, 0.1 * v0)),
    "general": (["dynamics.mode=general", "dynamics.a=0.95", "dynamics.u=0.05", "dynamics.c=0.003"],
                lambda v0: lf.general(0.95, 0.05, 0.003), lambda v0: (0.95, 0.95**2, 0.05, 0.003)),
}


class FixedGram:
    """Kernel stand-in with a precomputed Gram; ``exact`` reads only ``gram`` and ``total_variance``."""

    def __init__(self, K):
        self.K = K
        self.total_variance = float(np.mean(np.diag(K)))

    def gram(self, X, X2=None):
        return self.K


class TestIngest:
    def test_two_rows(self):
        cols, data = cli.ingest_csv(io.StringIO("t,y\n0,1.5\n2,0.5\n"))
        assert cols == ["t", "y"]
        assert len(data) == 2 and data.first_row == 1
        assert data.t[0] == 0.0 and data.y[0] == 1.5
        assert data.x is None

    def test_missing_y_marks_predict_only(self):
        _, data = cli.ingest_csv(io.StringIO("t,y\n0,1.5\n2,\n"))
        assert np.isnan(data.y[1]) and not np.isnan(data.y[0])

    def test_malformed_number_names_row_and_column(self):
        with pytest.raises(DataError, match="row 2, column y"):
            cli.ingest_csv(io.StringIO("t,y\n0,1.5\n2,oops\n"))

    def test_unknown_column_rejected(self):
        with pytest.raises(DataError):
            cli.ingest_csv(io.StringIO("t,z,y\n0,1,2\n"))

    def test_x_columns(self):
        _, data = cli.ingest_csv(io.StringIO("x1,x2,y\n0.5,1.0,2.0\n"))
        np.testing.assert_array_equal(data.x[0], [0.5, 1.0])
        assert data.t is None


class TestRun:
    def test_worked_example_prediction_row(self):
        code, out, _ = run_cli(["run", *WORKED_ARGS], stdin_text=WORKED_CSV)
        assert code == 0
        _, rows, summary = parse_report(out)
        assert rows[3]["pred_var"] == pytest.approx(0.3016, abs=1e-3)
        post = exact.posterior(
            kernels.se(1.0, 1.0 / math.sqrt(2.0)), 1e-10, [0.0, 1.0, 2.5], [0.1, -0.3, 0.5], [2.0]
        )
        assert rows[3]["pred_mean"] == pytest.approx(float(post.mean[0]), abs=1e-3)
        assert summary["rows"] == 4 and summary["scored"] == 3

    @pytest.mark.parametrize("mode", sorted(LINEAR_DYNAMICS))
    def test_linear_run_matches_the_library_loop(self, mode):
        # the run conditions its 20 rows as one block, the library loop row by row: equal to 1e-12
        rng = np.random.default_rng(70)
        X = rng.uniform(0, 2, 20)
        y = rng.standard_normal(20)
        csv = "t,y\n" + "".join(f"{repr(float(a))},{repr(float(b))}\n" for a, b in zip(X, y))
        overrides, build, _ = LINEAR_DYNAMICS[mode]
        args = ["run", "model=linear", "kernel.family=se", "kernel.lengthscale=0.5",
                "features.kind=rff", "features.F=32", "features.seed=5", "noise_var=0.2", *overrides]
        code, out, _ = run_cli(args, stdin_text=csv)
        assert code == 0
        _, rows, _ = parse_report(out)

        fmap = features.sample_rff(kernels.se(1.0, 0.5), 32, seed=5)
        dynamics = build(fmap.weight_prior_var)
        belief = lf.init_belief(32, fmap.weight_prior_var)
        for i, row in enumerate(rows):
            phi = features.featurize(fmap, X[i])
            belief = lf.predict_step(belief, dynamics)
            mean, var = lf.predict_f(belief, phi)
            belief, ll = lf.update_step(belief, phi, y[i], 0.2)
            assert row["pred_mean"] == pytest.approx(mean, rel=1e-12, abs=1e-12)
            assert row["pred_var"] == pytest.approx(var, rel=1e-12, abs=1e-12)
            assert row["pred_logdensity"] == pytest.approx(ll, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("mode", sorted(LINEAR_DYNAMICS))
    def test_linear_run_obeys_chain_rule(self, mode):
        # theta_k = a*theta_{k-1} + u + N(0, c*I), ticking once per y-row k,
        # makes f_k = phi_k^T theta_k a Gaussian process over y-rows with mean
        # phi_k^T 1 * s_k (s_k = a*s_{k-1} + u) and covariance
        # phi_j^T phi_k * a^|j-k| * v_min(j,k) (v_k = cov_scale*v_{k-1} + c)
        rng = np.random.default_rng(72)
        n = 100
        t = np.sort(rng.uniform(0.0, 3.0, n))
        y = np.sin(2.0 * t) + 0.3 * rng.standard_normal(n)
        observed = rng.uniform(size=n) >= 0.1
        csv = "t,y\n" + "".join(
            f"{float(ti)!r},{float(yi)!r}\n" if obs else f"{float(ti)!r},\n" for ti, yi, obs in zip(t, y, observed)
        )
        overrides, _, implied = LINEAR_DYNAMICS[mode]
        args = ["run", "model=linear", "kernel.family=se", "kernel.sigma_f2=1.5", "kernel.lengthscale=0.5",
                "features.kind=rff", "features.F=16", "features.seed=5", "noise_var=0.1", *overrides]
        code, out, err = run_cli(args, stdin_text=csv)
        assert code == 0, err
        _, rows, _ = parse_report(out)
        scored = np.array([r["pred_logdensity"] for r in rows if r["y"] is not None])

        fmap = features.sample_rff(kernels.se(1.5, 0.5), 16, seed=5)
        a, cov_scale, u, c = implied(fmap.weight_prior_var)
        phi = features.featurize_many(fmap, t[observed])
        m = phi.shape[0]
        v, s = np.empty(m), np.empty(m)
        v_prev, s_prev = fmap.weight_prior_var, 0.0
        for k in range(m):
            v[k] = v_prev = cov_scale * v_prev + c
            s[k] = s_prev = a * s_prev + u
        k = np.arange(m)
        K = (phi @ phi.T) * a ** np.abs(k[:, None] - k[None, :]) * v[np.minimum.outer(k, k)]
        resid = y[observed] - phi.sum(axis=1) * s
        for p in (m // 2, m):
            expected = exact.log_marginal_likelihood(FixedGram(K[:p, :p]), 0.1, np.arange(p, dtype=float), resid[:p])
            assert float(np.sum(scored[:p])) == pytest.approx(expected, abs=1e-6)

    def test_determinism_modulo_wall_time(self):
        args = ["run", "model=linear", "kernel.family=se", "features.kind=rff",
                "features.F=16", "noise_var=0.1", "--seed", "9"]
        csv = "t,y\n0,0.4\n0.5,0.1\n1.0,-0.2\n"
        _, out1, _ = run_cli(args, stdin_text=csv)
        _, out2, _ = run_cli(args, stdin_text=csv)

        def strip(text):
            lines = text.splitlines()
            summary = json.loads(lines[-1])
            summary.pop("wall_time_s")
            return lines[:-1], summary

        assert strip(out1) == strip(out2)

    def test_prequential_canary(self):
        # perturbing y_t changes row t only through the score, never the
        # prediction emitted at t; later rows may change freely
        base = "t,y\n0,0.4\n0.5,0.1\n1.0,-0.2\n"
        bumped = "t,y\n0,0.4\n0.5,0.9\n1.0,-0.2\n"
        args = ["run", "model=linear", "kernel.family=se", "features.kind=rff",
                "features.F=16", "features.seed=3", "noise_var=0.1"]
        _, out_a, _ = run_cli(args, stdin_text=base)
        _, out_b, _ = run_cli(args, stdin_text=bumped)
        _, rows_a, _ = parse_report(out_a)
        _, rows_b, _ = parse_report(out_b)
        assert rows_b[1]["pred_mean"] == rows_a[1]["pred_mean"]
        assert rows_b[1]["pred_var"] == rows_a[1]["pred_var"]
        assert rows_b[1]["pred_logdensity"] != rows_a[1]["pred_logdensity"]

    def test_empty_input_gives_zero_row_nan_free_summary(self):
        code, out, _ = run_cli(["run", *WORKED_ARGS], stdin_text="t,y\n")
        assert code == 0
        _, rows, summary = parse_report(out)
        assert rows == []
        assert summary["rows"] == 0 and summary["scored"] == 0
        assert "NaN" not in out and "nan" not in out.split("\n")[-2]

    def test_overflowing_residual_gives_strict_json_summary(self):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        args = ["run", "model=markov", "kernel.family=matern32", "kernel.lengthscale=0.7", "noise_var=0.2"]
        code, out, err = run_cli(args, stdin_text="t,y\n0,0.1\n1,1e200\n2,0.3\n")
        assert code == 0, err
        summary = json.loads(out.splitlines()[-1], parse_constant=reject)
        assert summary["scored"] == 3
        assert summary["rmse"] is None and summary["total_loglik"] is None

    def test_summary_recomputable_from_rows(self):
        rng = np.random.default_rng(71)
        csv = "t,y\n" + "".join(f"{i * 0.25},{repr(float(v))}\n" for i, v in enumerate(rng.standard_normal(30)))
        args = ["run", "model=markov", "kernel.family=matern32", "kernel.lengthscale=0.7", "noise_var=0.2"]
        code, out, _ = run_cli(args, stdin_text=csv)
        assert code == 0
        _, rows, summary = parse_report(out)
        scored = [r for r in rows if r["y"] is not None]
        rmse = math.sqrt(sum((r["y"] - r["pred_mean"]) ** 2 for r in scored) / len(scored))
        nlpd = -sum(r["pred_logdensity"] for r in scored) / len(scored)
        assert summary["rmse"] == pytest.approx(rmse, abs=1e-9)
        assert summary["mean_nlpd"] == pytest.approx(nlpd, abs=1e-9)

    def test_markov_emit_smoothed_columns(self):
        rng = np.random.default_rng(72)
        csv = "t,y\n" + "".join(f"{i * 0.5},{repr(float(v))}\n" for i, v in enumerate(rng.standard_normal(12)))
        args = ["run", "model=markov", "kernel.family=matern12", "noise_var=0.3", "emit_smoothed=true"]
        code, out, _ = run_cli(args, stdin_text=csv)
        assert code == 0
        header, rows, _ = parse_report(out)
        assert header[-2:] == ["smoothed_mean", "smoothed_var"]
        assert all(r["smoothed_var"] <= r["pred_var"] + 1e-12 for r in rows)
        # final smoothed value equals the filtered posterior at the last step
        assert rows[-1]["smoothed_var"] < rows[-1]["pred_var"]

    @pytest.mark.parametrize("cfg, csv, message", [
        # noise_var=1e-300 conditions row 1 to a zero covariance, and a step of 1e-300 has A = 1,
        # so the predicted covariance of row 2 is exactly 0
        (["kernel.family=matern12", "noise_var=1e-300"], "t,y\n0,1\n1e-300,2\n",
         "row 2: singular predicted covariance at step 1"),
        # rows 1 and 2 share t = 0 (row 2 predict-only) and end it at a zero covariance; lengthscale
        # 1e100 has A = 1, so the time step at t = 1 (rows 3 to 5) predicts 0, and the pass names its
        # first input row
        (["kernel.family=matern12", "kernel.lengthscale=1e100", "noise_var=1e-300"],
         "t,y\n0,1\n0,\n1,3\n1,4\n1,5\n", "row 3: singular predicted covariance at step 2"),
        # the last filtered covariance overflows to -inf; no later row predicts from it
        (["kernel.family=matern12", "kernel.lengthscale=1e100", "kernel.sigma_f2=1e200", "noise_var=1e308"],
         "t,y\n0,0\n", "row 1: non-finite smoothed moment at step 0: mean 0.0, variance -inf"),
    ], ids=["singular", "singular-tied", "non-finite"])
    def test_failed_smoothing_names_the_row(self, cfg, csv, message):
        code, out, err = run_cli(["run", "model=markov", *cfg, "emit_smoothed=true"], stdin_text=csv)
        assert (code, out, err) == (4, "", f"seqgp: numerical error: {message}\n")

    def test_warnings_are_one_seqgp_line_each(self):
        # y = 1e200 gives both members a zero density (a skipped BMA step) and means near 1e199,
        # whose square overflows in the mixture's second moment; row 4, after the failing row,
        # has zero densities too, and the run never reaches it
        args = ["run", "model=ensemble", "member.1.model=markov", "member.1.kernel.family=matern12",
                "member.1.noise_var=0.1", "member.2.model=markov", "member.2.kernel.family=matern32",
                "member.2.noise_var=0.1"]
        code, out, err = run_cli(args, stdin_text="t,y\n0,0.1\n1,1e200\n2,0.3\n3,1e200\n")
        assert (code, out) == (4, "")
        assert err == ("seqgp: warning: all member densities are zero at step 2; bma step skipped\n"
                       "seqgp: warning: overflow encountered in multiply\n"
                       "seqgp: warning: all member densities are zero at step 3; bma step skipped\n"
                       "seqgp: numerical error: row 3: non-finite prediction: mean 4.028065794446374e+199, "
                       "variance nan\n")

    @pytest.mark.parametrize("flags, env", [(["-W", "error"], {}), ([], {"PYTHONWARNINGS": "error"})],
                             ids=["-W", "PYTHONWARNINGS"])
    def test_warnings_set_to_error_still_print_one_line_each(self, flags, env):
        # a warning filter of "error" would raise the warning out of the run as a traceback and exit 1
        args = ["run", "model=ensemble", "member.1.model=markov", "member.1.kernel.family=matern12",
                "member.1.noise_var=0.1", "member.2.model=markov", "member.2.kernel.family=matern32",
                "member.2.noise_var=0.1"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"} | env | {"PYTHONPATH": SRC}
        proc = subprocess.run([sys.executable, *flags, "-m", "seqgp.cli", *args], capture_output=True, text=True,
                              input="t,y\n0,0.1\n1,1e200\n2,0.3\n", timeout=120, env=env)
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == ("seqgp: warning: all member densities are zero at step 2; bma step skipped\n"
                               "seqgp: warning: overflow encountered in multiply\n"
                               "seqgp: warning: all member densities are zero at step 3; bma step skipped\n"
                               "seqgp: numerical error: row 3: non-finite prediction: mean 4.028065794446374e+199, "
                               "variance nan\n")

    def test_markov_emit_smoothed_on_header_only_input(self):
        args = ["run", "model=markov", "kernel.family=matern12", "noise_var=0.3", "emit_smoothed=true"]
        code, out, err = run_cli(args, stdin_text="t,y\n")
        assert code == 0, err
        header, rows, summary = parse_report(out)
        assert header[-2:] == ["smoothed_mean", "smoothed_var"]
        assert rows == [] and summary["rows"] == 0

    def test_empty_ensemble_stream_has_no_weight_columns(self):
        args = ["run", "model=ensemble", "member.1.model=markov", "member.1.kernel.family=matern12",
                "member.1.noise_var=0.2", "member.2.model=markov", "member.2.kernel.family=matern32",
                "member.2.noise_var=0.2"]
        code, out, err = run_cli(args, stdin_text="t,y\n")
        assert code == 0, err
        assert out.splitlines()[0] == "t,y,pred_mean,pred_var,pred_logdensity"

    def test_ensemble_run_emits_simplex_weights(self):
        rng = np.random.default_rng(73)
        csv = "t,y\n" + "".join(
            f"{repr(float(t))},{repr(float(v))}\n"
            for t, v in zip(np.sort(rng.uniform(0, 3, 25)), rng.standard_normal(25))
        )
        args = [
            "run", "model=ensemble", "ensemble.combiner=bma", "--seed", "2",
            "member.1.model=linear", "member.1.kernel.family=se", "member.1.kernel.lengthscale=0.3",
            "member.1.features.kind=rff", "member.1.features.F=16", "member.1.noise_var=0.2",
            "member.2.model=markov", "member.2.kernel.family=matern12", "member.2.noise_var=0.2",
        ]
        code, out, _ = run_cli(args, stdin_text=csv)
        assert code == 0
        header, rows, _ = parse_report(out)
        assert "weight_1" in header and "weight_2" in header
        for r in rows:
            assert r["weight_1"] + r["weight_2"] == pytest.approx(1.0, abs=1e-9)

    def test_nonconjugate_run_flags_approximate_loglik(self):
        rng = np.random.default_rng(74)
        ys = (rng.uniform(0, 1, 15) < 0.5).astype(float)
        csv = "t,y\n" + "".join(f"{i * 0.1},{v}\n" for i, v in enumerate(ys))
        args = ["run", "model=linear", "kernel.family=se", "features.kind=rff", "features.F=16",
                "noise_var=0.1", "likelihood=bernoulli_logit", "--seed", "4"]
        code, out, _ = run_cli(args, stdin_text=csv)
        assert code == 0
        _, _, summary = parse_report(out)
        assert summary["loglik_approximate"] is True


class TestFitExact:
    def test_worked_example_weights(self):
        code, out, _ = run_cli(["fit-exact", *WORKED_ARGS, "emit_weights=true"], stdin_text=WORKED_CSV)
        assert code == 0
        header, rows, summary = parse_report(out)
        assert header == ["t", "mean", "var", "w1", "w2", "w3"]
        assert rows[0]["w1"] == pytest.approx(-0.104, abs=1e-3)
        assert rows[0]["w2"] == pytest.approx(0.328, abs=1e-3)
        assert rows[0]["w3"] == pytest.approx(0.744, abs=1e-3)
        assert rows[0]["var"] == pytest.approx(0.3016, abs=1e-3)
        assert summary["n_train"] == 3

    def test_grid_search_reports_best_kernel(self):
        rng = np.random.default_rng(75)
        X = np.sort(rng.uniform(0, 4, 40))
        y = np.sin(X)
        csv = "t,y\n" + "".join(f"{repr(float(a))},{repr(float(b))}\n" for a, b in zip(X, y))
        args = ["fit-exact", "model=exact", "kernel.family=se", "noise_var=0.05",
                "grid.lengthscale=0.2,1.0,5.0", "grid.sigma_f2=0.5,1.0"]
        code, out, _ = run_cli(args, stdin_text=csv)
        assert code == 0
        _, _, summary = parse_report(out)
        assert len(summary["grid_table"]) == 6
        assert summary["kernel"]["lengthscale"] in (0.2, 1.0, 5.0)


    def test_test_rows_factor_the_training_gram_once(self, monkeypatch):
        rng = np.random.default_rng(76)
        X = np.sort(rng.uniform(0, 4, 60))
        y = np.sin(X) + 0.1 * rng.standard_normal(60)
        csv = "t,y\n" + "".join(f"{repr(float(a))},{repr(float(b))}\n" for a, b in zip(X, y)) + "2.5,\n"
        calls = []
        real = exact.chol_jitter
        monkeypatch.setattr(exact, "chol_jitter", lambda *a, **k: calls.append(a[0].shape) or real(*a, **k))
        code, out, _ = run_cli(["fit-exact", "model=exact", "kernel.family=matern32", "noise_var=0.05"],
                               stdin_text=csv)
        assert code == 0
        assert calls == [(60, 60)]
        _, rows, summary = parse_report(out)
        assert len(rows) == 1
        assert summary["log_marginal"] == exact.log_marginal_likelihood(kernels.matern32(), 0.05, X, y)


class TestCheck:
    def test_check_passes_for_valid_config(self):
        code, out, _ = run_cli(["check", "kernel.family=matern32", "kernel.lengthscale=1.2",
                                "features.kind=rff", "features.F=32", "--seed", "1"])
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("kernel_args", [
        ["kernel.family=matern12", "kernel.lengthscale=0.7"],
        ["kernel.family=matern32", "kernel.lengthscale=1.2"],
        ["kernel.family=hida_matern", "kernel.hm_components=0.5:1.5:1.5:1.0:1.0;0.3:0.0:1.5:2.0:1.0;0.2:0.8:0.5:0.5:1.0"],
    ])
    def test_check_compares_closed_form_transition_with_expm(self, kernel_args):
        code, out, _ = run_cli(["check", *kernel_args])
        assert code == 0
        assert "ok markov.transition_closed_form\n" in out

    @pytest.mark.parametrize("args", [
        ["kernel.family=matern32", "kernel.sigma_f2=1e-09", "kernel.lengthscale=1e-09"],
        ["kernel.family=spectral_mixture", "kernel.sm_components=1e308:1e-300:0.05", "features.kind=hsgp"],
        ["kernel.family=hida_matern", "kernel.hm_components=1e100:0.5:1.5:1.0:1.0;1:0:0.5:1:1"],
    ], ids=["tiny-lengthscale", "huge-spectral-weight", "huge-component-weight"])
    def test_check_bounds_scale_with_what_they_compare(self, args):
        # each check holds to rounding here; a bound absolute in the compared quantity failed it
        code, out, _ = run_cli(["check", *args])
        assert (code, out.splitlines()[-1]) == (0, "all checks passed"), out

    def test_check_fails_on_a_wrong_transition(self, monkeypatch):
        real = markovian.transition
        monkeypatch.setattr(markovian, "transition", lambda sde, delta: real(sde, 1.001 * delta))
        code, out, _ = run_cli(["check", "kernel.family=matern32", "kernel.lengthscale=1.2"])
        assert code == 4
        assert "FAIL markov.transition_closed_form max |transition - expm| = " in out
        assert "1 check(s) failed" in out


    @pytest.mark.parametrize("args", [
        ["kernel.family=se", "features.kind=rff", "features.F=abc"],
        ["kernel.family=matern12", "features.kind=rff", "features.seed=1.5"],
        ["kernel.family=se", "features.kind=rff", "features.F=3"],
        ["kernel.family=se", "features.kind=hsgp", "features.F=3", "features.L=-1"],
        ["kernel.family=se", "features.kind=bogus"],
    ])
    def test_bad_features_key_writes_no_line(self, args):
        code, out, err = run_cli(["check", *args])
        assert code == 2, err
        assert out == ""
        assert err.startswith("seqgp: configuration error: features.")


MARKOV_RUN = ["run", "model=markov", "kernel.family=matern12", "noise_var=0.2"]
SRC = str(Path(__file__).resolve().parent.parent / "src")


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestExitCodes:
    def test_config_error_is_2(self):
        code, _, err = run_cli(["run", "model=warp"], stdin_text="t,y\n0,1\n")
        assert code == 2
        assert "configuration error" in err

    def test_output_closed_by_its_reader_is_2_with_one_line(self, monkeypatch):
        err = io.StringIO()
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        monkeypatch.setattr(sys, "stderr", err)
        monkeypatch.setattr(sys, "stdin", io.StringIO("t,y\n0,0.1\n1,0.2\n"))
        assert cli.main(MARKOV_RUN) == 2
        assert err.getvalue().splitlines() == [
            "seqgp: configuration error: --output: closed by its reader before the report was written"]

    @pytest.mark.parametrize("unbuffered", ["1", None])
    def test_broken_pipe_on_a_real_stdout_exits_2_without_a_traceback(self, unbuffered):
        # the pipe has no reader from the start; a buffered stdout first fails when it is flushed, and the
        # interpreter's flush at exit must not raise again
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": SRC}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "seqgp.cli", *MARKOV_RUN], input="t,y\n0,0.1\n1,0.2\n",
                                  stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "seqgp: configuration error: --output: closed by its reader before the report was written"]

    @pytest.mark.parametrize("option", ["--input", "--output"])
    def test_path_that_cannot_be_opened_is_2_naming_the_option(self, option, tmp_path):
        missing = str(tmp_path / "no" / "such.csv")
        code, out, err = run_cli(["run", option, missing, *MARKOV_RUN[1:]], stdin_text="t,y\n0,0.1\n")
        assert code == 2 and out == ""
        assert err.splitlines() == [f"seqgp: configuration error: {option}: cannot open {missing!r}: "
                                    "No such file or directory"]

    def test_markov_with_x_columns_is_config_error(self):
        code, _, err = run_cli(
            ["run", "model=markov", "kernel.family=matern12", "noise_var=0.1"],
            stdin_text="t,x1,y\n0,0.5,1\n",
        )
        assert code == 2
        assert "time-only" in err

    def test_data_error_is_3(self):
        code, _, err = run_cli(["run", *WORKED_ARGS], stdin_text="t,y\n0,bad\n")
        assert code == 3
        assert "row 1" in err

    @pytest.mark.parametrize("args", [
        ["run", *WORKED_ARGS],
        ["run", *LINEAR_ARGS],
        ["run", "model=markov", "kernel.family=matern12", "noise_var=0.1"],
        ["run", "model=sparse", "kernel.family=matern32", "sparse.M=1", "noise_var=0.1"],
        ["run", "model=vsgp", "kernel.family=matern32", "sparse.M=1", "noise_var=0.1"],
        ["run", "model=ensemble", "member.1.model=exact", "member.1.kernel.family=se", "member.1.noise_var=0.1"],
        ["fit-exact", "kernel.family=se", "noise_var=0.1"],
    ], ids=["exact", "linear", "markov", "sparse", "vsgp", "ensemble", "fit_exact"])
    def test_header_with_only_y_is_3(self, args):
        code, out, err = run_cli(args, stdin_text="y\n0.1\n0.2\n")
        assert (code, out) == (3, "")
        assert err == "seqgp: data error: header must name a t column or input columns x1..xD\n"

    def test_decreasing_timestamps_is_3_with_row(self):
        code, _, err = run_cli(
            ["run", "model=markov", "kernel.family=matern12", "noise_var=0.1"],
            stdin_text="t,y\n0,0.1\n2,0.2\n1,0.3\n",
        )
        assert code == 3
        assert "row 3" in err

    @pytest.mark.parametrize("args", [
        ["model=markov", "kernel.family=matern32", "noise_var=0.1"],
        ["model=ensemble", "member.1.model=markov", "member.1.kernel.family=matern12", "member.1.noise_var=0.1",
         "member.2.model=markov", "member.2.kernel.family=matern32", "member.2.noise_var=0.1"],
    ], ids=["markov", "ensemble-member"])
    def test_overflowing_time_step_is_3_with_one_line(self, args):
        # the step 1e308 - (-1e308) overflows: no transition is formed for it, and nothing warns
        code, out, err = run_cli(["run", *args], stdin_text="t,y\n-1e308,1\n1e308,2\n")
        assert (code, out) == (3, "")
        assert err == "seqgp: data error: row 2: non-finite timestamp or step (-1e+308 -> 1e+308)\n"

    @pytest.mark.parametrize("args, csv, column", [
        (["model=markov", "kernel.family=matern12", "noise_var=0.1"], "t,y\n0,0.1\nnan,0.2\n", "t"),
        (["model=exact", "kernel.family=se", "noise_var=0.1"], "t,y\n0,0.1\ninf,0.2\n", "t"),
        (["model=exact", "kernel.family=se", "noise_var=0.1"], "x1,x2,y\n0,1,0.1\n1,-inf,0.2\n", "x2"),
        (["model=linear", "kernel.family=se", "features.F=8", "noise_var=0.1", "--seed", "0"],
         "x1,y\n0,0.1\nNaN,0.2\n", "x1"),
        (["model=exact", "kernel.family=se", "noise_var=0.1"], "t,y\n0,0.1\n1,inf\n", "y"),
    ])
    def test_non_finite_cell_is_3_with_row_and_column(self, args, csv, column):
        code, out, err = run_cli(["run", *args], stdin_text=csv)
        assert code == 3
        assert f"row 2, column {column}: non-finite value" in err
        assert out == ""

    def test_numerical_error_is_4(self):
        code, _, err = run_cli(
            ["run", "model=linear", "kernel.family=se", "features.kind=rff", "features.F=8",
             "noise_var=0.1", "likelihood=poisson_log", "--seed", "0"],
            stdin_text="t,y\n0,1e60\n",
        )
        assert code == 4
        assert "numerical error" in err

    @pytest.mark.parametrize("args, message", [
        ([*LINEAR_ARGS, "dynamics.mode=random_walk", "dynamics.sigma_rw2=nan"], "dynamics.sigma_rw2: non-finite value"),
        ([*LINEAR_ARGS, "dynamics.mode=general", "dynamics.a=nan"], "dynamics.a: non-finite value"),
        ([*LINEAR_ARGS, "dynamics.mode=general", "dynamics.a=1e200"], "dynamics.a: a**2 overflows"),
        ([*LINEAR_ARGS, "dynamics.mode=general", "dynamics.c=-0.1"], "dynamics.c: process-noise scale"),
        ([*LINEAR_ARGS, "dynamics.mode=random_walk", "dynamics.sigma_rw2=-1"], "dynamics.sigma_rw2: sigma_rw2 must"),
        ([*LINEAR_ARGS, "dynamics.mode=b2p", "dynamics.lambda=1.5"], "dynamics.lambda: forgetting factor"),
        (["model=sparse", "kernel.family=se", "noise_var=0.1", "sparse.inducing=0,nan"],
         "sparse.inducing: non-finite value"),
        (["model=markov", "kernel.family=matern32", "kernel.lengthscale=nan", "noise_var=0.1"],
         "kernel.lengthscale: non-finite value"),
        (["model=markov", "kernel.family=matern32", "noise_var=nan"], "noise_var: non-finite value"),
        (["model=exact", "kernel.family=se", "noise_var=inf"], "noise_var: non-finite value"),
        (["model=markov", "kernel.family=hm", "kernel.hm_components=1:0:0.5:inf:1", "noise_var=0.1"],
         "kernel.hm_components: non-finite value"),
        (["grid.lengthscale=0.5,nan", "kernel.family=se", "noise_var=0.1"], "grid.lengthscale: non-finite value"),
        (["model=markov", "kernel.family=matern32", "kernel.lengthscale=1e-300", "noise_var=0.1"],
         "kernel.lengthscale: lengthscale 1e-300 with variance 1.0 overflows"),
        (["model=markov", "kernel.family=matern32", "kernel.lengthscale=1e-200", "noise_var=0.1"],
         "kernel.lengthscale: lengthscale 1e-200 with variance 1.0 overflows"),
        (["model=markov", "kernel.family=hm", "kernel.hm_components=1:1:1.5:1e-300:1", "noise_var=0.1"],
         "kernel.hm_components: lengthscale 1e-300 with variance 1.0 overflows"),
        (["model=linear", "features.kind=hsgp", "kernel.family=matern32", "kernel.lengthscale=1e-200",
          "features.F=8", "noise_var=0.1"], "kernel.lengthscale: lengthscale 1e-200 with variance 1.0 overflows"),
        (["model=exact", "kernel.family=se", "kernel.lengthscale=1e200", "noise_var=0.1"],
         "kernel.lengthscale: lengthscale 1e+200 with variance 1.0 overflows"),
        (["model=exact", "kernel.family=se", "kernel.lengthscale=1e154", "noise_var=0.1"],
         "kernel.lengthscale: lengthscale 1e+154 overflows 2 * l**2 in the SE exponent"),
    ])
    def test_bad_config_number_is_2_with_key(self, args, message):
        command = "fit-exact" if args[0].startswith("grid.") else "run"
        code, out, err = run_cli([command, *args], stdin_text="t,y\n0,0.1\n1,0.2\n")
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("args, csv, key", [
        (["model=sparse", "kernel.family=se", "noise_var=0.1", "sparse.M=0"], "t,y\n0,0.1\n", "sparse.M"),
        (["model=sparse", "kernel.family=se", "noise_var=0.1", "sparse.inducing=1,1"], "t,y\n0,0.1\n",
         "sparse.inducing"),
        (["model=markov", "kernel.family=se", "noise_var=0.1"], "t,y\n0,0.1\n", "kernel.family"),
        (["model=linear", "kernel.family=hm", "kernel.hm_components=1:0:0.5:1:1", "features.F=8", "noise_var=0.1",
          "--seed", "0"], "t,y\n0,0.1\n", "kernel.family"),
        (["model=exact", "kernel.family=se", "kernel.lengthscale=0", "noise_var=0.1"], "t,y\n0,0.1\n",
         "kernel.lengthscale"),
        (["model=linear", "kernel.family=se", "features.F=3", "noise_var=0.1", "--seed", "0"], "t,y\n0,0.1\n",
         "features.F"),
        (["model=ensemble", "member.1.model=sparse", "member.1.kernel.family=se", "member.1.noise_var=0.1",
          "member.1.sparse.M=0"], "t,y\n0,0.1\n", "member.1.sparse.M"),
        (["model=ensemble", "member.1.model=markov", "member.1.kernel.family=matern12", "member.1.noise_var=0.1",
          "member.2.model=exact", "member.2.kernel.family=se", "member.2.noise_var=0.1"], "x1,y\n0,0.1\n",
         "member.1.model"),
        (["model=ensemble", "member.1.noise_var=0.1"], "t,y\n0,0.1\n", "member.1.model"),
        (["model=ensemble", "member.1.model=ensemble"], "t,y\n0,0.1\n", "member.1.model"),
        # noise_var and emit_smoothed are checked before the first row is stepped
        (["model=linear", "kernel.family=se", "features.F=8", "noise_var=0", "--seed", "0"], "t,y\n0,\n1,\n",
         "noise_var"),
        (["model=sparse", "kernel.family=se", "noise_var=0", "sparse.M=1"], "t,y\n0,\n1,\n", "noise_var"),
        ([*LINEAR_ARGS, "likelihood=poisson_log", "emit_smoothed=true"], "t,y\n0,-1\n", "emit_smoothed"),
        # a smoothed member would keep its whole history for nothing
        (["model=ensemble", "member.1.model=markov", "member.1.kernel.family=matern12", "member.1.noise_var=0.1",
          "member.1.emit_smoothed=true"], "t,y\n0,0.1\n1,0.2\n", "member.1.emit_smoothed"),
        # inducing inputs placed from sparse.M that coincide
        (["model=sparse", "kernel.family=se", "noise_var=0.1", "sparse.M=2"], "t,y\n0,0.1\n0,0.2\n", "sparse.M"),
        # a negative seed, which numpy's generator rejects, is a configuration error like any negative count
        (["model=sparse", "kernel.family=se", "noise_var=0.1", "sparse.M=2", "sparse.seed=-1"],
         "x1,x2,y\n0,0,0.1\n1,1,0.2\n2,0,0.3\n", "sparse.seed"),
        (["model=linear", "kernel.family=se", "features.F=8", "noise_var=0.1", "--seed", "-1"], "t,y\n0,0.1\n", "seed"),
        # a Hida-Matern mixture whose variance underflows to 0 would report pred_var 0 on every row
        (["model=markov", "kernel.family=hm", "kernel.hm_components=1e-300:0:0.5:1:1e-300", "noise_var=0.1"],
         "t,y\n0,0.1\n1,0.2\n", "kernel.hm_components"),
        (["model=exact", "kernel.family=hm", "kernel.hm_components=1e-300:0:0.5:1:1e-300", "noise_var=0.1"],
         "t,y\n0,0.1\n1,0.2\n", "kernel.hm_components"),
        # so would an HSGP basis whose every frequency overflows the kernel's spectral density
        (["model=linear", "kernel.family=matern32", "features.kind=hsgp", "features.F=2", "features.L=1e-300",
          "noise_var=0.1"], "t,y\n0,0.1\n", "features.L"),
    ])
    def test_config_error_names_its_key(self, args, csv, key):
        code, out, err = run_cli(["run", *args], stdin_text=csv)
        assert code == 2
        assert err.startswith(f"seqgp: configuration error: {key}: ")
        assert out == ""

    @pytest.mark.parametrize("args, key", [
        (["check", "kernel.family=se", "features.kind=rff", "features.F=abc"], "features.F"),
        (["check", "kernel.family=se", "features.kind=rff", "features.seed=1.5"], "features.seed"),
        (["check", "kernel.family=se", "features.kind=rff", "features.seed=-1"], "features.seed"),
        (["check", "kernel.family=se", "features.kind=rff", "features.F=3"], "features.F"),
        (["check", "kernel.family=se", "features.kind=hsgp", "features.F=3", "features.L=-1"], "features.L"),
        (["fit-exact", "kernel.family=se", "grid.lengthscale=-1,1", "noise_var=0.1"], "grid.lengthscale"),
        (["fit-exact", "kernel.family=se", "grid.sigma_f2=0", "noise_var=0.1"], "grid.sigma_f2"),
        (["fit-exact", "kernel.family=se", "grid.lengthscale=,", "noise_var=0.1"], "grid.lengthscale"),
        (["fit-exact", "kernel.family=se", "noise_var=0"], "noise_var"),
        (["check", "kernel.family=hm", "kernel.hm_components=1e-300:0:0.5:1:1e-300"], "kernel.hm_components"),
        (["check", "kernel.family=matern32", "features.kind=hsgp", "features.F=2", "features.L=1e-300"], "features.L"),
    ])
    def test_check_and_fit_exact_name_their_keys(self, args, key):
        code, out, err = run_cli(args, stdin_text="t,y\n0,0.1\n1,0.2\n")
        assert code == 2
        assert err.startswith(f"seqgp: configuration error: {key}: ")
        assert "Traceback" not in err
        assert out == ""  # every key is read before the first line is written

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_failed_pivot_in_a_time_step_is_4_with_its_row(self):
        # rows 1 and 2 observe the one state at t = 0 with noise_var = 1e-300: the second pivot of
        # their innovation covariance sigma_f2 [[1, 1], [1, 1]] + 1e-300 I rounds to 0, so row 2 runs
        # alone on the state row 1 conditioned; at sigma_f2 = 0.1 its variance rounds below 0 too
        args = ["run", "model=markov", "kernel.family=matern12", "noise_var=1e-300"]
        code, out, err = run_cli([*args, "kernel.sigma_f2=0.1"], stdin_text="t,y\n0,1\n0,2\n1,3\n")
        assert (code, out) == (4, "")
        assert err == "seqgp: numerical error: row 2: non-positive predictive variance -1.3877787807814457e-17\n"
        # at sigma_f2 = 1 it is exactly 0: row 2 alone passes with noise 1e-300, and so does the run
        code, out, err = run_cli(args, stdin_text="t,y\n0,1\n0,2\n1,3\n")
        assert (code, err) == (0, "")
        _, rows, _ = parse_report(out)
        assert [row["pred_var"] for row in rows[:2]] == [1.0, 0.0]

    def test_overflowing_spectral_mixture_distance_is_4_with_its_row(self):
        # the component's frequency-scaled distance overflows under an envelope that has not vanished:
        # the Gram entry is NaN, and the exact block is cut at row 2, with one line and no warning
        args = ["run", "model=exact", "kernel.family=sm", "kernel.sm_components=1.0:1e300:1e-300", "noise_var=0.1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(args, stdin_text="t,y\n0,1\n1e10,2\n")
        assert (code, out) == (4, "")
        assert err == "seqgp: numerical error: row 2: kernel has non-finite entries\n"

    @pytest.mark.parametrize("dynamics", [
        ["dynamics.mode=general", "dynamics.a=1e100"],
        ["dynamics.mode=random_walk", "dynamics.sigma_rw2=1e308"],
    ])
    def test_non_finite_prediction_is_4_with_row(self, dynamics):
        code, out, err = run_cli(["run", *LINEAR_ARGS, *dynamics], stdin_text="t,y\n0,0.1\n1,0.2\n2,0.3\n")
        assert code == 4
        assert "row 2: non-finite prediction" in err
        assert out == ""

    @pytest.mark.parametrize("likelihood, y", [
        ("poisson_log", "-1"), ("poisson_log", "1.5"), ("bernoulli_logit", "2"), ("bernoulli_logit", "0.5"),
    ])
    def test_observation_outside_likelihood_support_is_3_with_row(self, likelihood, y):
        code, out, err = run_cli(["run", *LINEAR_ARGS, f"likelihood={likelihood}"],
                                 stdin_text=f"t,y\n0,1\n1,{y}\n")
        assert code == 3
        assert f"row 2: {likelihood} needs y to be" in err
        assert out == ""

    def test_inducing_inputs_far_apart_on_their_own_scale_run_under_any_lengthscale(self):
        args = ["run", "model=sparse", "kernel.family=se", "kernel.lengthscale=1e100", "noise_var=0.1",
                "sparse.inducing=0,1"]
        code, out, err = run_cli(args, stdin_text="t,y\n0,0.1\n1,0.2\n")
        assert code == 0, err
        assert parse_report(out)[2]["scored"] == 2

    @pytest.mark.parametrize("placement, key", [
        (["sparse.inducing=0,1,1"], "sparse.inducing"),
        (["sparse.inducing=5,5"], "sparse.inducing"),
        (["sparse.M=2"], "sparse.M"),
    ])
    def test_coincident_inducing_inputs_are_2(self, placement, key):
        args = ["run", "model=sparse", "kernel.family=se", "kernel.lengthscale=1e100", "noise_var=0.1", *placement]
        code, out, err = run_cli(args, stdin_text="t,y\n3,0.1\n3,0.2\n")
        assert code == 2
        assert err.startswith(f"seqgp: configuration error: {key}: duplicate inducing inputs")

    def test_missing_seed_for_rff_is_2(self):
        code, _, err = run_cli(
            ["run", "model=linear", "kernel.family=se", "features.kind=rff", "features.F=8",
             "noise_var=0.1"],
            stdin_text="t,y\n0,0.5\n",
        )
        assert code == 2
        assert "seed" in err
