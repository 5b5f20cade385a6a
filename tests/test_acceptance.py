"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one ``PASS criterion-N`` line (visible under ``pytest -s``
or in the captured output of a failure) and enforces the criterion's
runtime budget where one is stated.  A criterion about a streaming route
builds the runner that ``seqgp run`` builds from the same keys and steps it
over column chunks as the CLI does, or runs the CLI itself; its oracle (the
exact GP, batch evidence, the information-form batch update, quadrature)
is computed without the route's step.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

from conftest import parse_report, run_cli, run_runner, runner_for, stream_columns
from seqgp import exact, features, kernels, linear_filter as lf, markovian, sparse
from seqgp.cli import CHUNK_ROWS
from seqgp.runners import run_chunks


def report(name, elapsed, budget=None, detail=""):
    if budget is not None:
        assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded the {budget}s budget"
    suffix = f" [{detail}]" if detail else ""
    print(f"PASS {name}: {elapsed:.2f}s{suffix}")


def test_criterion_01_worked_example_reproduction():
    # fit-exact on t={0,1,2.5}, test t=2.0, kappa=exp(-dt^2), noise 1e-10:
    # weights [-0.104, 0.328, 0.744] and posterior variance 0.3016, all 1e-3
    t0 = time.perf_counter()
    csv = "t,y\n0,0.1\n1,-0.3\n2.5,0.5\n2.0,\n"
    args = ["fit-exact", "model=exact", "kernel.family=se", "kernel.sigma_f2=1",
            f"kernel.lengthscale={1.0 / math.sqrt(2.0)}", "noise_var=1e-10", "emit_weights=true"]
    code, out, _ = run_cli(args, stdin_text=csv)
    assert code == 0
    _, rows, _ = parse_report(out)
    assert rows[0]["w1"] == pytest.approx(-0.104, abs=1e-3)
    assert rows[0]["w2"] == pytest.approx(0.328, abs=1e-3)
    assert rows[0]["w3"] == pytest.approx(0.744, abs=1e-3)
    assert rows[0]["var"] == pytest.approx(0.3016, abs=1e-3)
    report("criterion-01 worked-example reproduction", time.perf_counter() - t0, budget=1.0)


MARKOV_KERNELS = [
    kernels.matern12(1.0, 1.0),
    kernels.matern32(1.5, 0.8),
    kernels.hida_matern([(0.7, 3.0, 0.5, 1.2, 1.1), (0.3, 1.0, 1.5, 0.6, 0.5)]),
]


def test_criterion_02_markovian_equals_exact_gp():
    # 20 random irregular streams per kernel, N=200: smoothed means within
    # 1e-6*sigma_f of the exact posterior and total log-lik within 1e-6
    t0 = time.perf_counter()
    noise = 0.1
    worst_mean, worst_ll = 0.0, 0.0
    for kernel in MARKOV_KERNELS:
        sde = markovian.build_lti(kernel)
        sigma_f = math.sqrt(kernel.total_variance)
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            t = np.sort(rng.uniform(0.0, 10.0, 200))
            y = np.sin(1.7 * t) + 0.3 * rng.standard_normal(200)
            res = markovian.kalman_filter(sde, t, y, noise)
            sm = markovian.rts_smoother(sde, res)
            post = exact.posterior(kernel, noise, t, y, t)
            sm_obs = (sm.means @ sde.obs.T).ravel()
            worst_mean = max(worst_mean, float(np.abs(sm_obs - post.mean).max()) / sigma_f)
            worst_ll = max(worst_ll, abs(res.loglik_total - post.log_marginal))
    assert worst_mean < 1e-6
    assert worst_ll < 1e-6
    report("criterion-02 markovian = exact GP", time.perf_counter() - t0, budget=10.0,
           detail=f"worst mean dev {worst_mean:.1e}, worst loglik dev {worst_ll:.1e}")


def test_criterion_03_kernel_sde_duality():
    t0 = time.perf_counter()
    worst = 0.0
    for kernel in MARKOV_KERNELS:
        sde = markovian.build_lti(kernel)
        ell = max([kernel.lengthscale] + [c.lengthscale for c in kernel.hm_components])
        for delta in np.arange(0.0, 5.0 * ell + 1e-12, 0.1 * ell):
            lhs = float((sde.obs @ expm(sde.drift * delta) @ sde.stationary @ sde.obs.T)[0, 0])
            worst = max(worst, abs(lhs - kernels.eval_kernel(kernel, 0.0, delta)))
    assert worst < 1e-8
    report("criterion-03 kernel-SDE duality", time.perf_counter() - t0, budget=1.0,
           detail=f"worst dev {worst:.1e}")


def test_criterion_04_weight_space_equals_function_space():
    # static filtering with a fixed feature map = exact GP under the
    # induced finite-rank kernel, to 1e-6 at N=100
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    X = np.sort(rng.uniform(0.0, 4.0, 100))
    y = rng.standard_normal(100)
    noise = 0.25
    Xs = np.linspace(0.0, 4.0, 33)
    # the test inputs follow as predict-only rows, where static weights give the posterior
    data = stream_columns(np.concatenate([y, np.full(Xs.size, np.nan)]), x=np.concatenate([X, Xs]))
    for feature_keys in (
        ["kernel.sigma_f2=1.2", "kernel.lengthscale=0.6", "features.kind=rff", "features.F=64", "features.seed=8"],
        ["kernel.sigma_f2=1.0", "kernel.lengthscale=0.5", "features.kind=hsgp", "features.F=96", "features.L=16"],
    ):
        runner = runner_for(["model=linear", "kernel.family=se", f"noise_var={noise}", *feature_keys], data)
        res = run_runner(runner, data)
        post = exact.posterior(features.DegenerateKernel(runner.fmap), noise, X, y, Xs)
        np.testing.assert_allclose([r.mean for r in res[100:]], post.mean, atol=1e-6)
        np.testing.assert_allclose([r.var for r in res[100:]], np.diag(post.covariance), atol=1e-6)
        assert sum(r.logdensity for r in res[:100]) == pytest.approx(post.log_marginal, abs=1e-6)
    report("criterion-04 weight-space = function-space", time.perf_counter() - t0, budget=5.0)


def test_criterion_05_rff_convergence():
    # F=2048, SE, N=200: posterior-mean RMSE vs the exact GP under 0.05*sigma_f
    # over 50 test points on at least 45 of 50 fixed seeds
    t0 = time.perf_counter()
    kernel = kernels.se(1.0, 0.5)
    noise = 0.05
    rng = np.random.default_rng(777)
    X = np.sort(rng.uniform(0.0, 3.0, 200))
    K = kernels.gram(kernel, X) + 1e-10 * np.eye(200)
    y = np.linalg.cholesky(K) @ rng.standard_normal(200) + math.sqrt(noise) * rng.standard_normal(200)
    Xs = np.linspace(0.2, 2.8, 50)
    post = exact.posterior(kernel, noise, X, y, Xs)

    # each seed's RFF posterior mean from the 200 x 200 function-space solve, which
    # criterion 04 pins equal to the weight-space filter
    passed = 0
    for seed in range(50):
        fmap = features.sample_rff(kernel, 2048, seed)
        means = exact.posterior(features.DegenerateKernel(fmap), noise, X, y, Xs).mean
        if float(np.sqrt(np.mean((means - post.mean) ** 2))) < 0.05:
            passed += 1
    assert passed >= 45
    report("criterion-05 RFF convergence", time.perf_counter() - t0, budget=60.0,
           detail=f"{passed}/50 seeds under 0.05*sigma_f")


def inducing_key(Z):
    return "sparse.inducing=" + ",".join(map(repr, np.asarray(Z, dtype=float).tolist()))


def test_criterion_06_sparse_exactness_and_batch_agreement():
    t0 = time.perf_counter()
    kernel = kernels.se(1.0, 0.6)
    noise = 0.15
    keys = ["kernel.family=se", "kernel.sigma_f2=1.0", "kernel.lengthscale=0.6", f"noise_var={noise}"]
    rng = np.random.default_rng(3000)
    X = np.sort(rng.uniform(0.0, 4.0, 100))
    y = np.sin(2.0 * X) + 0.3 * rng.standard_normal(100)

    # M = N at the training inputs recovers the exact GP to 1e-5
    Xs = np.linspace(0.2, 3.8, 20)
    data = stream_columns(np.concatenate([y, np.full(Xs.size, np.nan)]), x=np.concatenate([X, Xs]))
    runner = runner_for(["model=sparse", *keys, inducing_key(X)], data)
    means = [r.mean for r in run_runner(runner, data)[100:]]
    post = exact.posterior(kernel, noise, X, y, Xs)
    np.testing.assert_allclose(means, post.mean, atol=1e-5)

    # information-form batch = sequential recursion to 1e-8, over the stream and over its first row
    Z = np.linspace(0.2, 3.8, 12)
    train = stream_columns(y, x=X)
    for n in (100, 1):
        rows = train.rows(0, n)
        seq = runner_for(["model=vsgp", *keys, inducing_key(Z)], rows)
        run_runner(seq, rows)
        batch = sparse.vsgp_info_update(sparse.init_sparse(kernel, Z), X[:n], y[:n], noise)
        np.testing.assert_allclose(batch.mean, seq.state.mean, atol=1e-8)
        np.testing.assert_allclose(batch.cov, seq.state.cov, atol=1e-8)
    report("criterion-06 sparse exactness + batch agreement", time.perf_counter() - t0, budget=10.0)


def test_criterion_07_online_bma_equals_batch_evidence():
    # 3 members, T=1000: recursive weights match batch evidence weighting at
    # every step to 1e-10 and the well-specified member passes 0.9 by t=500
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    T = 1000
    X = rng.uniform(0.0, 4.0, T)
    truth_map = features.sample_rff(kernels.se(1.0, 0.5), 4096, seed=7)
    theta = math.sqrt(truth_map.weight_prior_var) * rng.standard_normal(4096)
    noise = 0.1
    y = features.featurize_many(truth_map, X) @ theta + math.sqrt(noise) * rng.standard_normal(T)

    keys = ["model=ensemble", "ensemble.combiner=bma"]
    for k, ell in enumerate((0.05, 0.5, 5.0), start=1):
        keys += [f"member.{k}.{kv}" for kv in ("model=linear", "kernel.family=se", f"kernel.lengthscale={ell}",
                                                "features.kind=rff", "features.F=256", "features.seed=11",
                                                f"noise_var={noise}")]
    data = stream_columns(y, x=X)
    runner = runner_for(keys, data)
    scores = np.empty((T, 3))  # each member's log density of each row, as the ensemble combines it

    def scored(k, step):
        def step_and_record(rec):
            res = step(rec)
            scores[rec.row - 1, k] = res.logdensity
            return res
        return step_and_record

    for k, member in enumerate(runner.members):
        member.step = scored(k, member.step)
    weights = np.array([r.weights for r in run_runner(runner, data)])

    # by the chain rule the summed scores are each member's batch evidence
    cum = np.cumsum(scores, axis=0)
    for n in (500, T):
        for k, member in enumerate(runner.members):
            lml = exact.log_marginal_likelihood(features.DegenerateKernel(member.fmap), noise, X[:n], y[:n])
            assert cum[n - 1, k] == pytest.approx(lml, abs=1e-6)
    shifted = np.exp(cum - cum.max(axis=1, keepdims=True))
    np.testing.assert_allclose(weights, shifted / shifted.sum(axis=1, keepdims=True), atol=1e-10)
    weight_at_500 = weights[499, 1]
    assert weight_at_500 > 0.9
    report("criterion-07 O-BMA = batch evidence", time.perf_counter() - t0, budget=30.0,
           detail=f"true-member weight at t=500: {weight_at_500:.4f}")


def test_criterion_08_dynamics_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    y = np.sin(3.0 * np.linspace(-2.0, 2.0, 40)) + 0.2 * rng.standard_normal(40)
    y[::6] = np.nan
    data = stream_columns(y, x=rng.uniform(-2.0, 2.0, 40))
    keys = ["model=linear", "kernel.family=se", "kernel.sigma_f2=1.6", "features.kind=rff", "features.F=16",
            "features.seed=3", "noise_var=0.1"]

    def run(*dynamics_keys):
        runner = runner_for([*keys, *dynamics_keys], data)
        return runner, np.array([(r.mean, r.var, np.nan if r.logdensity is None else r.logdensity)
                                 for r in run_runner(runner, data)])

    def assert_same(a, b):
        np.testing.assert_allclose(a[1], b[1], atol=1e-12)
        np.testing.assert_allclose(a[0].belief.mean, b[0].belief.mean, atol=1e-12)
        np.testing.assert_allclose(a[0].belief.cov, b[0].belief.cov, atol=1e-12)

    assert_same(run("dynamics.mode=b2p", "dynamics.lambda=1"), run("dynamics.mode=static"))
    # full forgetting: every row is predicted from the prior
    forget, rows = run("dynamics.mode=b2p", "dynamics.lambda=0")
    phi = features.featurize_many(forget.fmap, data.x)
    np.testing.assert_allclose(rows[:, 0], 0.0, atol=1e-12)
    np.testing.assert_allclose(rows[:, 1], forget.fmap.weight_prior_var * np.sum(phi * phi, axis=1), atol=1e-12)
    assert_same(run("dynamics.mode=general", "dynamics.a=1", "dynamics.u=0", "dynamics.c=0.07"),
                run("dynamics.mode=random_walk", "dynamics.sigma_rw2=0.07"))
    report("criterion-08 dynamics algebra", time.perf_counter() - t0)


def test_criterion_09_laplace_update_against_quadrature():
    # 100 random prior settings, both likelihoods: mode within 1e-6 of the
    # quadrature oracle and Laplace variance within 5%
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_mode, worst_var = 0.0, 0.0
    for _ in range(100):
        m0 = rng.uniform(-2.0, 2.0)
        v0 = rng.uniform(0.1, 1.0)
        for lik, y in ((lf.BERNOULLI_LOGIT, float(rng.integers(0, 2))),
                       (lf.POISSON_LOG, float(np.round(np.exp(m0))))):
            f_hat, curvature = lf.laplace_1d(m0, v0, y, lik)
            grid = np.linspace(m0 - 12 * math.sqrt(v0), m0 + 12 * math.sqrt(v0), 10_000)
            logp = lik.loglik(y, grid) - 0.5 * (grid - m0) ** 2 / v0
            i = int(np.argmax(logp))
            neg = lambda z: -(float(lik.loglik(y, z)) - 0.5 * (z - m0) ** 2 / v0)
            res = minimize_scalar(neg, bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
                                  method="bounded", options={"xatol": 1e-12})
            p = np.exp(logp - logp.max())
            Z = np.trapezoid(p, grid)
            mean = np.trapezoid(grid * p, grid) / Z
            var = np.trapezoid((grid - mean) ** 2 * p, grid) / Z
            worst_mode = max(worst_mode, abs(f_hat - float(res.x)))
            worst_var = max(worst_var, abs(1.0 / curvature - var) / var)
    assert worst_mode < 1e-6
    assert worst_var < 0.05
    report("criterion-09 Laplace vs quadrature", time.perf_counter() - t0, budget=10.0,
           detail=f"worst mode dev {worst_mode:.1e}, worst var dev {worst_var:.2%}")


def test_criterion_10_dynamic_beats_static_on_drifting_field():
    # qualitative ordering only: random-walk dynamics strictly beat the
    # static model on a drifting field, and the static model degrades
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    T = 2000
    X = rng.uniform(0.0, 1.0, T)
    phase = 0.0005 * np.arange(T) * 2.0 * math.pi
    y = np.sin(2.0 * math.pi * X + phase) + 0.1 * rng.standard_normal(T)
    data = stream_columns(y, x=X)
    keys = ["model=linear", "kernel.family=se", "kernel.sigma_f2=1.0", "kernel.lengthscale=0.3",
            "features.kind=rff", "features.F=128", "features.seed=5", "noise_var=0.01"]

    errors = {}
    for name, dynamics_keys in (("static", ["dynamics.mode=static"]),
                                ("random_walk", ["dynamics.mode=random_walk", "dynamics.sigma_rw2=0.002"])):
        means = np.array([r.mean for r in run_runner(runner_for([*keys, *dynamics_keys], data), data)])
        errors[name] = (y - means) ** 2
    q = T // 4
    rmse_static = math.sqrt(errors["static"].mean())
    rmse_rw = math.sqrt(errors["random_walk"].mean())
    first_q = math.sqrt(errors["static"][:q].mean())
    last_q = math.sqrt(errors["static"][-q:].mean())
    assert rmse_rw < rmse_static
    assert last_q > first_q
    report("criterion-10 dynamic beats static", time.perf_counter() - t0,
           detail=f"rw {rmse_rw:.3f} < static {rmse_static:.3f}; static {first_q:.3f} -> {last_q:.3f}")


def test_criterion_11_linear_time_scaling():
    t0 = time.perf_counter()
    per_step = []
    for n in (1_000, 10_000, 100_000):
        t = np.arange(n) * 0.01
        data = stream_columns(np.sin(t), t=t)
        runner = runner_for(["model=markov", "kernel.family=matern12", "noise_var=0.1"], data)
        run_runner(runner, data)
        per_step.append(runner.flops / n)
    spread = max(per_step) / min(per_step) - 1.0
    assert spread < 0.05

    # sparse per-step flops never depend on how many points came before
    rng = np.random.default_rng(4000)
    data = stream_columns(rng.standard_normal(500), x=rng.uniform(0, 4, 500))
    runner = runner_for(["model=sparse", "kernel.family=se", "kernel.lengthscale=0.6", "noise_var=0.2",
                         inducing_key(np.linspace(0.0, 4.0, 16))], data)
    counts, before = set(), 0
    for _, _ in run_chunks(runner, data, CHUNK_ROWS):
        counts.add(runner.flops - before)
        before = runner.flops
    assert len(counts) == 1
    report("criterion-11 linear-time scaling", time.perf_counter() - t0,
           detail=f"per-step flop spread {spread:.2%}")
