"""CLI end-to-end coverage for the remaining model families and I/O paths."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import parse_report, run_cli
from seqgp import exact, kernels, markovian, sparse
from seqgp.runners import MarkovRunner

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    """Load a benchmark module by path; ``oracle`` imports ``workloads`` by name."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = _perfbench_module("workloads")
oracle = _perfbench_module("oracle")


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
    @pytest.mark.parametrize("family", ["se", "matern32"])
    def test_far_apart_locations_are_independent_without_a_warning(self, family, tmp_path):
        loc_file = tmp_path / "locations.csv"
        loc_file.write_text("x1,x2\n1e200,0\n1,0\n")
        args = ["run", "model=markov", "kernel.family=matern12", "noise_var=0.1", f"spatial.locations={loc_file}",
                f"spatial.kernel.family={family}"]
        code, out, err = run_cli(args, stdin_text="t,x1,x2,y\n0,1,0,0.5\n0.5,1e200,0,0.2\n")
        assert (code, err) == (0, "")
        _, rows, _ = parse_report(out)
        # the spatial Gram is the identity: the first row tells the far location nothing
        assert [(r["pred_mean"], r["pred_var"]) for r in rows] == [(0.0, 1.0), (0.0, 1.0)]

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

    # (locations file, each row's coordinates, the observation row each resolves to): every
    # chunk is looked up in one pass, exact coordinates first, then the nearest location
    # within 1e-9 (1 + |location|); a float is a 1-D point
    @pytest.mark.parametrize("locations, xs, expected", [
        pytest.param([0.0, 1.0, 0.0], [0.0, 1.0], [0, 1], id="duplicate-maps-to-its-first-row"),
        pytest.param([1.0 + 1e-12, 1.0], [1.0], [1], id="exact-beats-an-earlier-location-within-tolerance"),
        pytest.param([1e-200, 0.0], [0.0, 1e-200], [1, 0], id="a-location-1e-200-away-is-not-the-nearest"),
        # the smallest subnormal is 0 away from 0.0 once the coordinates are scaled by 1/2: nearest
        # alone would take row 0
        pytest.param([5e-324, 0.0], [0.0, 5e-324], [1, 0], id="exact-beats-an-earlier-location-at-distance-0"),
        pytest.param([0.0, 1.0], [1.0 + 1e-12, -1e-12], [1, 0], id="1e-12-off-resolves-to-nearest"),
        pytest.param([0.0, 1.0], [float(i % 2) for i in range(299)] + [0.37], [i % 2 for i in range(299)],
                     id="unknown-location-in-the-second-chunk"),
        # squared, 1e200 is inf, and so was the tolerance: a location half its size away was accepted
        pytest.param([1e200, 1.0], [5e199], [], id="half-way-to-a-huge-location-is-unknown"),
        pytest.param([(1e200, 0.0)], [(-1e200, 0.0)], [], id="mirror-image-of-a-huge-2d-location-is-unknown"),
        pytest.param([(1e200, 0.0)], [(1e200, 0.0), (1e200 * (1 + 1e-12), 1e190)], [0, 0],
                     id="huge-2d-location-resolves-within-tolerance"),
    ])
    def test_location_lookup(self, tmp_path, monkeypatch, locations, xs, expected):
        locs = np.array(locations, dtype=float).reshape(len(locations), -1)
        pts = np.array(xs, dtype=float).reshape(len(xs), -1)
        columns = [f"x{j + 1}" for j in range(locs.shape[1])]
        loc_file = tmp_path / "locations.csv"
        loc_file.write_text(",".join(columns) + "\n" + "".join(",".join(map(repr, p)) + "\n" for p in locs.tolist()))
        rows = []  # the observation rows of every block the stepper conditioned
        step = markovian.MarkovStepper.step

        def spied(stepper, t, ys, obs_rows):
            out = step(stepper, t, ys, obs_rows)
            rows.extend(obs_rows)
            return out

        monkeypatch.setattr(markovian.MarkovStepper, "step", spied)
        csv = f"t,{','.join(columns)},y\n" + "".join(f"{0.1 * i!r},{','.join(map(repr, p))},{0.5 - 0.01 * i!r}\n"
                                                      for i, p in enumerate(pts.tolist()))
        args = ["run", "model=markov", "kernel.family=matern12", "noise_var=0.2",
                f"spatial.locations={loc_file}", "spatial.kernel.family=se"]
        code, _, err = run_cli(args, stdin_text=csv)
        assert rows == expected  # every row before a bad one has run
        if len(expected) == len(xs):
            assert code == 0, err
        else:
            assert code == 3
            assert f"row {len(xs)}: location {pts[-1]} is not in spatial.locations" in err

    def test_location_lookup_neither_overflows_nor_warns(self):
        # coordinates near the largest double: no distance, norm or tolerance may overflow
        big = np.finfo(float).max / 2
        locations = np.array([[big, -big], [-big, big], [1.0, 0.0]])
        runner = MarkovRunner(markovian.build_spatiotemporal(kernels.matern12(), kernels.se(), [[0.0, 0.0]]),
                              0.1, locations=locations)
        x = np.array([[big, -big], [-big, big * (1 - 1e-12)], [big / 2, -big], [-big, -big], [1.0, 1e-10], [0.0, 0.0]])
        with np.errstate(all="raise"):
            assert runner._location_rows(x).tolist() == [0, 1, -1, -1, 2, -1]

    @pytest.mark.parametrize("text, message", [
        ("x1\n0.0\nnan\n", "non-finite coordinate"),
        ("x1\n0.0\n1.0,2.0\n", "rows have inconsistent lengths"),
        ("x1\n", "no rows in"),
        ("x1,x2\n\n", "no rows in"),
        ("\n", "no rows in"),
    ])
    def test_bad_locations_file_is_2(self, tmp_path, text, message):
        loc_file = tmp_path / "locations.csv"
        loc_file.write_text(text)
        args = ["run", "model=markov", "kernel.family=matern12", "noise_var=0.2",
                f"spatial.locations={loc_file}", "spatial.kernel.family=se"]
        code, out, err = run_cli(args, stdin_text="t,x1,y\n0,0.0,0.5\n")
        assert code == 2
        assert f"spatial.locations: {message}" in err
        assert "Traceback" not in err and out == ""

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


class TestBmaEnsemble:
    # y = 1e200 scores -inf under both members, so row 2 carries no information about the weights
    ARGS = ["run", "model=ensemble", "member.1.model=markov", "member.1.kernel.family=matern12",
            "member.1.noise_var=0.1", "member.2.model=markov", "member.2.kernel.family=matern32",
            "member.2.noise_var=0.1"]

    SKIPPED = "seqgp: warning: all member densities are zero at step 2; bma step skipped\n"

    def test_row_no_member_can_score_keeps_the_weights(self):
        code, out, err = run_cli(self.ARGS, stdin_text="t,y\n0,0.1\n1,1e200\n")
        assert (code, err) == (0, self.SKIPPED)
        _, rows, _ = parse_report(out)
        assert rows[1]["pred_logdensity"] == -math.inf
        assert [(r["weight_1"], r["weight_2"]) for r in rows] == [(0.5, 0.5), (0.5, 0.5)]

    def test_row_after_it_predicts_from_finite_weights(self):
        # at t = 1000 both members have forgotten y = 1e200; near t = 1 their predictive means
        # (3.3e199 and 4.8e199) make the mixture variance overflow, which is a numerical error
        code, out, err = run_cli(self.ARGS, stdin_text="t,y\n0,0.1\n1,1e200\n1000,0.3\n")
        assert (code, err) == (0, self.SKIPPED)
        _, rows, summary = parse_report(out)
        assert all(math.isfinite(r[key]) for r in rows for key in ("pred_mean", "pred_var", "weight_1", "weight_2"))
        assert summary["rows"] == 3


# four rows at a time already reached (2, 4, 5 and 8) and three predict-only rows (2, 5 and 6; row 6 moves
# the clock), numbered from 1
FLOP_TIMES = [0.0, 0.0, 0.5, 0.5, 0.5, 1.2, 2.0, 2.0]
FLOP_VALUES = [0.3, None, -0.1, 0.4, None, None, 0.2, 0.5]
FLOP_MARKOV = ["model=markov", "kernel.family=matern32", "kernel.lengthscale=0.7", "noise_var=0.2"]
FLOP_SPARSE = ["kernel.family=matern32", "kernel.lengthscale=0.7", "noise_var=0.2", "sparse.M=3"]
# per row: the exact GP pays n^2 + 4n + 10 at n observations so far; the linear filter 6F^2 + 8F on every
# row; the Markov filter 4d^3 + 4d^2, plus 30d^3 on the four rows that move its clock (1, 3, 6, 7) and
# 8d^2 + 12d on the five y-rows; the sparse models 6M^2 + 10M on the five y-rows only
MARKOV_FLOPS = 8 * (4 * 2**3 + 4 * 2**2) + 4 * 30 * 2**3 + 5 * (8 * 2**2 + 12 * 2)  # d = 2
SPARSE_FLOPS = 5 * (6 * 3**2 + 10 * 3)  # M = 3
FLOP_TABLE = {
    "exact": (["model=exact", "kernel.family=matern32", "kernel.lengthscale=0.7", "noise_var=0.2"],
              sum(n * n + 4 * n + 10 for n in (0, 1, 1, 2, 3, 3, 3, 4))),
    "linear": (["model=linear", "kernel.family=se", "features.kind=rff", "features.F=8", "features.seed=1",
                "noise_var=0.2"], 8 * (6 * 8**2 + 8 * 8)),
    "markov": (FLOP_MARKOV, MARKOV_FLOPS),
    "sparse": (["model=sparse", *FLOP_SPARSE], SPARSE_FLOPS),
    "vsgp": (["model=vsgp", *FLOP_SPARSE], SPARSE_FLOPS),
    "ensemble": (["model=ensemble", *(f"member.1.{a}" for a in FLOP_MARKOV),
                  "member.2.model=sparse", *(f"member.2.{a}" for a in FLOP_SPARSE)], MARKOV_FLOPS + SPARSE_FLOPS),
}


class TestFlops:
    @pytest.mark.parametrize("model", sorted(FLOP_TABLE))
    def test_summary_flops_are_the_per_row_costs(self, model):
        args, expected = FLOP_TABLE[model]
        code, out, err = run_cli(["run", *args], stdin_text=make_csv(FLOP_TIMES, FLOP_VALUES))
        assert code == 0, err
        _, _, summary = parse_report(out)
        assert summary["flops"] == expected


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


HM_ARG = "kernel.hm_components=" + ";".join(":".join(repr(v) for v in c) for c in workloads.HM_COMPONENTS)
GRID = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])

# route -> (seqgp run overrides, the Grams of the y-bearing rows (t, x) the
# route implies, given every row's t); a BMA route has one Gram per member
ORACLE_ROUTES = {
    "markov-m12": (["model=markov", "kernel.family=matern12", "kernel.lengthscale=0.7"],
                   lambda t, x, t_all: [kernels.gram(kernels.matern12(1.0, 0.7), t)]),
    "markov-m32": (["model=markov", "kernel.family=matern32", "kernel.sigma_f2=1.3", "kernel.lengthscale=0.9"],
                   lambda t, x, t_all: [kernels.gram(kernels.matern32(1.3, 0.9), t)]),
    "markov-hm": (["model=markov", "kernel.family=hm", HM_ARG],
                  lambda t, x, t_all: [kernels.gram(kernels.hida_matern(workloads.HM_COMPONENTS), t)]),
    "spacetime-2x2": (["model=markov", "kernel.family=matern32", "kernel.lengthscale=2.0",
                       "spatial.kernel.family=se", "spatial.kernel.sigma_f2=2.0", "spatial.kernel.lengthscale=0.8"],
                      lambda t, x, t_all: [kernels.gram(kernels.matern32(1.0, 2.0), t)
                                           * kernels.gram(kernels.se(2.0, 0.8), x) / 2.0]),
    "sparse": (["model=sparse", "kernel.family=matern32", "sparse.M=12"],
               lambda t, x, t_all: [oracle._sparse_gram(kernels.matern32(), sparse.choose_inducing(t_all, 12, 0), t)]),
    "vsgp": (["model=vsgp", "kernel.family=matern32", "sparse.M=8"],
             lambda t, x, t_all: [oracle._sparse_gram(kernels.matern32(), sparse.choose_inducing(t_all, 8, 0), t)]),
    "exact": (["model=exact", "kernel.family=se", "kernel.lengthscale=0.8"],
              lambda t, x, t_all: [kernels.gram(kernels.se(1.0, 0.8), t)]),
    "bma": (["model=ensemble", "ensemble.combiner=bma",
             "member.1.model=markov", "member.1.kernel.family=matern12", f"member.1.noise_var={workloads.NOISE_VAR}",
             "member.2.model=exact", "member.2.kernel.family=se", f"member.2.noise_var={workloads.NOISE_VAR}"],
            lambda t, x, t_all: [kernels.gram(kernels.matern12(), t), kernels.gram(kernels.se(), t)]),
}


class TestChainRuleOracle:
    """Summed ``pred_logdensity`` over a prefix is the exact-GP log evidence of
    its y-bearing rows under the Gram the route implies; for BMA, the log of
    the prior-weighted member evidences."""

    @pytest.mark.parametrize("route", sorted(ORACLE_ROUTES))
    def test_run_obeys_chain_rule(self, route, tmp_path):
        rng = np.random.default_rng(90)
        overrides, grams = ORACLE_ROUTES[route]
        args = ["run", *overrides, f"noise_var={workloads.NOISE_VAR}"]
        if route.startswith("spacetime"):
            steps = np.round(np.sort(rng.uniform(0.0, 10.0, 38)), 1)
            t = np.repeat(steps, len(GRID))
            x = GRID[np.concatenate([rng.permutation(len(GRID)) for _ in steps])]
            (tmp_path / "locations.csv").write_text("x1,x2\n" + "".join(f"{a},{b}\n" for a, b in GRID))
            args.append(f"spatial.locations={tmp_path / 'locations.csv'}")
        else:
            t = np.round(np.sort(rng.uniform(0.0, 10.0, 150)), 1)  # rounding repeats about a third of the stamps
            x = None
        n = t.size
        y = np.sin(t) + math.sqrt(workloads.NOISE_VAR) * rng.standard_normal(n)
        observed = rng.uniform(size=n) >= 0.1
        header = "t,y" if x is None else "t,x1,x2,y"
        inputs = t.reshape(-1, 1) if x is None else np.column_stack([t, x])
        csv = header + "\n" + "".join(
            ",".join(repr(float(v)) for v in cells) + (f",{float(yi)!r}\n" if obs else ",\n")
            for cells, yi, obs in zip(inputs, y, observed))
        code, out, err = run_cli(args, stdin_text=csv)
        assert code == 0, err
        _, rows, _ = parse_report(out)
        scores = np.array([0.0 if r["pred_logdensity"] is None else r["pred_logdensity"] for r in rows])
        assert np.count_nonzero(scores) == np.count_nonzero(observed)

        for p in (n // 3, 2 * n // 3, n):
            obs = observed[:p]
            lmls = [oracle._lml(K, y[:p][obs])
                    for K in grams(t[:p][obs], None if x is None else x[:p][obs], t.reshape(-1, 1))]
            expected = float(logsumexp(lmls) - math.log(len(lmls)))
            assert float(np.sum(scores[:p])) == pytest.approx(expected, abs=1e-6)
