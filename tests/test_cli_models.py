"""CLI end-to-end coverage for the remaining model families and I/O paths."""

import json
import math

import numpy as np
import pytest

from conftest import parse_report, run_cli
from seqgp import exact, kernels


def make_csv(ts, ys):
    lines = ["t,y"]
    for t, y in zip(ts, ys):
        lines.append(f"{repr(float(t))},{'' if y is None else repr(float(y))}")
    return "\n".join(lines) + "\n"


class TestSparseModels:
    def test_sparse_run_with_quantile_inducing(self):
        rng = np.random.default_rng(80)
        ts = np.sort(rng.uniform(0, 4, 40))
        ys = np.sin(ts) + 0.1 * rng.standard_normal(40)
        args = ["run", "model=sparse", "kernel.family=se", "kernel.lengthscale=0.8",
                "noise_var=0.1", "sparse.M=10"]
        code, out, _ = run_cli(args, stdin_text=make_csv(ts, ys))
        assert code == 0
        _, rows, summary = parse_report(out)
        assert summary["scored"] == 40
        assert summary["rmse"] < 1.0

    def test_vsgp_run_matches_sparse_run(self):
        rng = np.random.default_rng(81)
        ts = np.sort(rng.uniform(0, 4, 25))
        ys = np.sin(ts) + 0.1 * rng.standard_normal(25)
        base = ["kernel.family=se", "kernel.lengthscale=0.8", "noise_var=0.1",
                "sparse.inducing=0.5,1.5,2.5,3.5"]
        ys = [None if i in (3, 11) else y for i, y in enumerate(ys)]  # two predict-only rows
        _, out_a, _ = run_cli(["run", "model=sparse", *base], stdin_text=make_csv(ts, ys))
        _, out_b, _ = run_cli(["run", "model=vsgp", *base], stdin_text=make_csv(ts, ys))
        body_a, summary_a = out_a.rsplit("\n", 2)[0], json.loads(out_a.splitlines()[-1])
        body_b, summary_b = out_b.rsplit("\n", 2)[0], json.loads(out_b.splitlines()[-1])
        assert body_b == body_a
        for summary in (summary_a, summary_b):
            del summary["wall_time_s"]
        assert summary_b == {**summary_a, "model": "vsgp"}


class TestHsgpModel:
    def test_hsgp_run_with_default_halfwidth(self):
        rng = np.random.default_rng(82)
        ts = rng.uniform(-1, 1, 30)
        ys = np.sin(2 * ts) + 0.1 * rng.standard_normal(30)
        args = ["run", "model=linear", "kernel.family=se", "kernel.lengthscale=0.5",
                "features.kind=hsgp", "features.F=64", "noise_var=0.1"]
        code, out, _ = run_cli(args, stdin_text=make_csv(ts, ys))
        assert code == 0
        _, _, summary = parse_report(out)
        assert summary["scored"] == 30

    def test_hsgp_needs_no_seed(self):
        # deterministic basis: absent seed is fine, unlike rff
        args = ["run", "model=linear", "kernel.family=se", "features.kind=hsgp",
                "features.F=16", "features.L=4", "noise_var=0.1"]
        code, _, _ = run_cli(args, stdin_text="t,y\n0,0.5\n")
        assert code == 0


class TestSpatiotemporal:
    def test_markov_spatial_run_matches_exact_product_kernel(self, tmp_path):
        locs = np.array([[0.0], [1.0]])
        loc_file = tmp_path / "locations.csv"
        loc_file.write_text("x1\n0.0\n1.0\n")

        rng = np.random.default_rng(83)
        base_times = np.arange(10) * 0.4
        lines = ["t,x1,y"]
        times, xs, ys = [], [], []
        for t in base_times:
            for x in (0.0, 1.0):
                y = float(rng.standard_normal())
                lines.append(f"{t},{x},{y}")
                times.append(t)
                xs.append(x)
                ys.append(y)
        csv = "\n".join(lines) + "\n"
        args = ["run", "model=markov", "kernel.family=matern12", "kernel.lengthscale=0.9",
                "noise_var=0.2", f"spatial.locations={loc_file}",
                "spatial.kernel.family=se", "spatial.kernel.lengthscale=1.5",
                "emit_smoothed=true"]
        code, out, _ = run_cli(args, stdin_text=csv)
        assert code == 0
        header, rows, _ = parse_report(out)
        assert "smoothed_mean" in header

        # oracle: separable product kernel on the 20 space-time points
        tk = kernels.matern12(1.0, 0.9)
        S = kernels.gram(kernels.se(1.0, 1.5), locs) / 1.0
        Kt = kernels.gram(tk, np.asarray(base_times))
        K = np.kron(Kt, S)
        mean = K @ np.linalg.solve(K + 0.2 * np.eye(20), np.asarray(ys))
        for row, m in zip(rows, mean):
            assert row["smoothed_mean"] == pytest.approx(float(m), abs=1e-5)

    def test_location_within_tolerance_resolves_to_nearest(self, tmp_path):
        loc_file = tmp_path / "locations.csv"
        loc_file.write_text("x1\n0.0\n1.0\n")
        args = ["run", "model=markov", "kernel.family=matern12", "noise_var=0.2",
                f"spatial.locations={loc_file}", "spatial.kernel.family=se"]
        near = 1.0 + 1e-12
        assert near != 1.0
        code_exact, out_exact, _ = run_cli(args, stdin_text="t,x1,y\n0,0.0,0.5\n0,1.0,1.0\n")
        code_near, out_near, err = run_cli(args, stdin_text=f"t,x1,y\n0,0.0,0.5\n0,{near!r},1.0\n")
        assert code_exact == 0 and code_near == 0, err
        _, rows_exact, _ = parse_report(out_exact)
        _, rows_near, _ = parse_report(out_near)
        for key in ("pred_mean", "pred_var", "pred_logdensity"):
            assert rows_near[1][key] == rows_exact[1][key]

    def test_unknown_location_is_data_error(self, tmp_path):
        loc_file = tmp_path / "locations.csv"
        loc_file.write_text("x1\n0.0\n1.0\n")
        args = ["run", "model=markov", "kernel.family=matern12", "noise_var=0.2",
                f"spatial.locations={loc_file}", "spatial.kernel.family=se"]
        code, _, err = run_cli(args, stdin_text="t,x1,y\n0,0.37,1.0\n")
        assert code == 3
        assert "not in spatial.locations" in err

    def test_unknown_location_names_its_row_once(self, tmp_path):
        loc_file = tmp_path / "locations.csv"
        loc_file.write_text("x1\n0.0\n1.0\n")
        args = ["run", "model=markov", "kernel.family=matern12", "noise_var=0.2",
                f"spatial.locations={loc_file}", "spatial.kernel.family=se"]
        code, _, err = run_cli(args, stdin_text="t,x1,y\n0,1.0,1.0\n1,0.37,0.5\n")
        assert code == 3
        assert "row 2: location" in err
        assert err.count("row ") == 1


class TestStackingEnsemble:
    def test_stacking_combiner_runs_and_keeps_simplex(self):
        rng = np.random.default_rng(84)
        ts = np.sort(rng.uniform(0, 3, 30))
        ys = np.sin(3 * ts) + 0.1 * rng.standard_normal(30)
        args = [
            "run", "model=ensemble", "ensemble.combiner=stacking", "--seed", "6",
            "member.1.model=markov", "member.1.kernel.family=matern12", "member.1.noise_var=0.1",
            "member.2.model=markov", "member.2.kernel.family=matern32",
            "member.2.kernel.lengthscale=0.4", "member.2.noise_var=0.1",
        ]
        code, out, _ = run_cli(args, stdin_text=make_csv(ts, ys))
        assert code == 0
        _, rows, _ = parse_report(out)
        for r in rows:
            assert r["weight_1"] + r["weight_2"] == pytest.approx(1.0, abs=1e-9)


class TestConfigAndOutputFiles:
    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(
            "# worked example setup\n"
            "model = exact\n"
            "kernel.family = se\n"
            "kernel.sigma_f2 = 1\n"
            f"kernel.lengthscale = {1.0 / math.sqrt(2.0)}\n"
            "noise_var = 1.0\n"
        )
        data = tmp_path / "in.csv"
        data.write_text("t,y\n0,0.1\n1,-0.3\n2.5,0.5\n2.0,\n")
        out_path = tmp_path / "report.csv"
        code, _, _ = run_cli([
            "run", "--config", str(cfg), "--input", str(data), "--output", str(out_path),
            "noise_var=1e-10",  # override the file value
        ])
        assert code == 0
        _, rows, _ = parse_report(out_path.read_text())
        assert rows[3]["pred_var"] == pytest.approx(0.3016, abs=1e-3)

    def test_bad_config_line_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model exact\n")
        code, _, err = run_cli(["run", "--config", str(cfg)], stdin_text="t,y\n0,1\n")
        assert code == 2
        assert "line 1" in err

    def test_missing_config_file_is_config_error(self):
        code, _, err = run_cli(["run", "--config", "/nonexistent.cfg"], stdin_text="t,y\n")
        assert code == 2


class TestExactModelPredictOnly:
    def test_prior_prediction_before_any_data(self):
        args = ["run", "model=exact", "kernel.family=se", "kernel.sigma_f2=2.0", "noise_var=0.1"]
        code, out, _ = run_cli(args, stdin_text="t,y\n0.5,\n1.0,0.3\n")
        assert code == 0
        _, rows, _ = parse_report(out)
        assert rows[0]["pred_mean"] == 0.0
        assert rows[0]["pred_var"] == pytest.approx(2.0)
        assert rows[0]["pred_logdensity"] is None
