"""Algebraic invariants under randomized inputs (hypothesis)."""

import json
import math
import re

import numpy as np
import pytest
from conftest import run_cli
from hypothesis import given, settings, strategies as st

from seqgp import ensemble as ens
from seqgp import kernels, linear_filter as lf

finite = {"allow_nan": False, "allow_infinity": False}
hyper = st.floats(min_value=0.05, max_value=20.0, **finite)
point = st.floats(min_value=-50.0, max_value=50.0, **finite)


@settings(max_examples=60, deadline=None)
@given(sigma_f2=hyper, lengthscale=hyper, x=point, x2=point,
       family=st.sampled_from(["se", "matern12", "matern32"]))
def test_kernel_symmetric_bounded_and_peaked_at_zero(family, sigma_f2, lengthscale, x, x2):
    k = kernels.Kernel(family, sigma_f2=sigma_f2, lengthscale=lengthscale)
    v, v2 = kernels.eval_kernel(k, x, x2), kernels.eval_kernel(k, x2, x)
    assert v == v2
    assert -1e-12 <= v <= k.total_variance * (1 + 1e-12)
    assert kernels.eval_kernel(k, x, x) == k.total_variance


@settings(max_examples=40, deadline=None)
@given(sigma_f2=hyper, lengthscale=hyper, s=st.floats(min_value=-100.0, max_value=100.0, **finite),
       family=st.sampled_from(["se", "matern12", "matern32"]))
def test_psd_nonnegative_and_even(family, sigma_f2, lengthscale, s):
    k = kernels.Kernel(family, sigma_f2=sigma_f2, lengthscale=lengthscale)
    lhs, rhs = float(kernels.eval_psd(k, s)), float(kernels.eval_psd(k, -s))
    assert lhs >= 0.0
    assert np.isclose(lhs, rhs, rtol=1e-12, atol=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 64), lengthscale=hyper)
def test_gram_positive_semidefinite(seed, n, lengthscale):
    k = kernels.se(1.0, lengthscale)
    X = np.random.default_rng(seed).uniform(-5.0, 5.0, n)
    G = kernels.gram(k, X)
    assert float(np.linalg.eigvalsh(G).min()) >= -1e-9


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(min_value=0.0, max_value=1.0, **finite),
       prior_var=hyper, seed=st.integers(0, 10_000))
def test_b2p_interpolates_static_and_reset(lam, prior_var, seed):
    rng = np.random.default_rng(seed)
    cov = rng.standard_normal((3, 3))
    belief = lf.GaussianBelief(rng.standard_normal(3), cov @ cov.T + 0.1 * np.eye(3))
    out = lf.predict_step(belief, lf.b2p(lam, prior_var))
    expected_mean = np.sqrt(lam) * belief.mean
    expected_cov = lam * belief.cov + (1 - lam) * prior_var * np.eye(3)
    np.testing.assert_allclose(out.mean, expected_mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.cov, expected_cov, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       y=st.floats(min_value=-100.0, max_value=100.0, **finite),
       noise=st.floats(min_value=1e-4, max_value=1e4, **finite))
def test_update_never_inflates_variance_along_phi(seed, y, noise):
    rng = np.random.default_rng(seed)
    belief = lf.init_belief(4, 1.0)
    phi = rng.standard_normal(4)
    _, before = lf.predict_f(belief, phi)
    updated, _ = lf.update_step(belief, phi, y, noise)
    _, after = lf.predict_f(updated, phi)
    assert after <= before + 1e-12


@settings(max_examples=50, deadline=None)
@given(logliks=st.lists(st.floats(min_value=-600.0, max_value=10.0, **finite), min_size=1, max_size=6))
def test_bma_preserves_simplex(logliks):
    state = ens.init_ensemble(len(logliks), "bma")
    state = ens.bma_update(state, logliks)
    assert np.all(state.weights >= 0.0)
    assert np.isclose(state.weights.sum(), 1.0, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(densities=st.lists(st.floats(min_value=1e-12, max_value=1e6, **finite), min_size=1, max_size=6))
def test_mixture_density_is_convex_combination(densities):
    state = ens.init_ensemble(len(densities), "bma")
    _, _, dens = ens.mixture_predict(state, np.zeros(len(densities)), np.ones(len(densities)), densities)
    slack = 1e-9 * max(densities)  # weights carry ~1 ulp of renormalization error
    assert min(densities) - slack <= dens <= max(densities) + slack


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


config_number = st.sampled_from(["nan", "inf", "-inf", "1e308", "1e200", "1e100", "-1", "0", "1", "0.5", "1e-300"]) \
    | st.floats(min_value=-3.0, max_value=3.0, **finite).map(repr)
cell = st.sampled_from(["", "0", "1", "2", "3", "-1", "0.5", "1e60", "-1e60"]) \
    | st.floats(min_value=-5.0, max_value=5.0, **finite).map(repr)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose: the run must still exit cleanly
@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(["static", "random_walk", "b2p", "general"]),
       likelihood=st.sampled_from(["gaussian", "bernoulli_logit", "poisson_log"]),
       params=st.fixed_dictionaries({key: config_number for key in (
           "noise_var", "dynamics.sigma_rw2", "dynamics.lambda", "dynamics.a", "dynamics.u", "dynamics.c")}),
       ys=st.lists(cell, max_size=8))
def test_linear_cli_exits_cleanly_on_any_config(mode, likelihood, params, ys):
    args = ["run", "model=linear", "kernel.family=se", "features.kind=rff", "features.F=4", "features.seed=0",
            f"dynamics.mode={mode}", f"likelihood={likelihood}", *(f"{k}={v}" for k, v in params.items())]
    csv = "t,y\n" + "".join(f"{0.25 * i},{y}\n" for i, y in enumerate(ys))
    code, out, err = run_cli(args, stdin_text=csv)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code == 0:
        lines = out.splitlines()
        json.loads(lines[-1], parse_constant=_reject_constant)
        header = lines[0].split(",")
        for line in lines[1:-1]:
            row = dict(zip(header, line.split(",")))
            assert math.isfinite(float(row["pred_mean"])) and math.isfinite(float(row["pred_var"]))


config_int = st.sampled_from(["0", "1", "2", "3", "4", "8", "-1"]) | config_number
time_cell = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]).map(repr)
# every key a configuration error may name here, after an optional member.<k>.
CONFIG_KEYS = {"model", "noise_var", "kernel.family", "kernel.lengthscale", "kernel.sigma_f2", "kernel.hm_components",
               "sparse.M", "sparse.inducing", "features.F", "features.L"}
CONFIG_ERROR = re.compile(r"seqgp: configuration error: (member\.[12]\.)?([\w.]+): ")


def _model_args(model, p):
    kernel = [f"kernel.lengthscale={p['lengthscale']}", f"kernel.sigma_f2={p['sigma_f2']}"]
    common = [f"noise_var={p['noise_var']}"]
    if model in ("matern12", "matern32"):
        return ["model=markov", f"kernel.family={model}", *kernel, *common]
    if model == "hm":
        comps = f"1:0.5:1.5:{p['lengthscale']}:{p['sigma_f2']};0.5:0:0.5:1:1"
        return ["model=markov", "kernel.family=hm", f"kernel.hm_components={comps}", *common]
    if model in ("sparse", "vsgp"):
        return [f"model={model}", "kernel.family=matern32", *kernel, *common, f"sparse.M={p['M']}"]
    if model == "exact":
        return ["model=exact", "kernel.family=se", *kernel, *common]
    # linear HSGP; features.L is sometimes left to its default, read from the inputs
    halfwidth = [] if p["L"] == "1" else [f"features.L={p['L']}"]
    return ["model=linear", "features.kind=hsgp", "kernel.family=matern32", *kernel, *common,
            f"features.F={p['F']}", *halfwidth]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose: the run must still exit cleanly
@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(["matern12", "matern32", "hm", "sparse", "vsgp", "exact", "hsgp", "ensemble"]),
       params=st.fixed_dictionaries({key: config_number for key in ("lengthscale", "sigma_f2", "noise_var", "L")}
                                    | {key: config_int for key in ("M", "F")}),
       rows=st.lists(st.tuples(time_cell, cell), max_size=6), ordered=st.booleans())
def test_every_model_exits_cleanly_on_any_config_and_stream(model, params, rows, ordered):
    if model == "ensemble":
        args = ["model=ensemble", *(f"member.1.{a}" for a in _model_args("matern32", params)),
                *(f"member.2.{a}" for a in _model_args("sparse", params))]
    else:
        args = _model_args(model, params)
    if ordered:  # otherwise stamps may repeat and decrease as drawn
        rows = sorted(rows, key=lambda r: float(r[0]))
    csv = "t,y\n" + "".join(f"{t},{y}\n" for t, y in rows)
    code, out, err = run_cli(["run", *args], stdin_text=csv)
    assert code in (0, 2, 3, 4), err
    if code == 2:
        match = CONFIG_ERROR.match(err)
        assert match and match.group(2) in CONFIG_KEYS, err
        assert (match.group(1) is not None) == (model == "ensemble"), err
    if code == 0:
        lines = out.splitlines()
        json.loads(lines[-1], parse_constant=_reject_constant)
        header = lines[0].split(",")
        for line in lines[1:-1]:
            row = dict(zip(header, line.split(",")))
            assert math.isfinite(float(row["pred_mean"])) and math.isfinite(float(row["pred_var"]))
