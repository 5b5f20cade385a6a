"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one ``PASS criterion-N`` line (visible under ``pytest -s``
or in the captured output of a failure) and enforces the criterion's
runtime budget where one is stated.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

from conftest import parse_report, run_cli
from seqgp import ensemble as ens
from seqgp import exact, features, kernels, linear_filter as lf, markovian, sparse


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
    for fmap in (
        features.sample_rff(kernels.se(1.2, 0.6), 64, seed=8),
        features.build_hsgp(kernels.se(1.0, 0.5), 96, 16.0),
    ):
        belief = lf.init_belief(fmap.n_features, fmap.weight_prior_var)
        total_ll = 0.0
        for i in range(100):
            belief, ll = lf.update_step(belief, features.featurize(fmap, X[i]), y[i], noise)
            total_ll += ll
        Xs = np.linspace(0.0, 4.0, 33)
        post = exact.posterior(features.DegenerateKernel(fmap), noise, X, y, Xs)
        Ps = features.featurize_many(fmap, Xs)
        np.testing.assert_allclose(Ps @ belief.mean, post.mean, atol=1e-6)
        np.testing.assert_allclose(np.sum((Ps @ belief.cov) * Ps, axis=1),
                                   np.diag(post.covariance), atol=1e-6)
        assert total_ll == pytest.approx(post.log_marginal, abs=1e-6)
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

    passed = 0
    for seed in range(50):
        fmap = features.sample_rff(kernel, 2048, seed)
        Phi = features.featurize_many(fmap, X)
        belief = lf.static_batch_posterior(Phi, y, noise, fmap.weight_prior_var)
        means = features.featurize_many(fmap, Xs) @ belief.mean
        if float(np.sqrt(np.mean((means - post.mean) ** 2))) < 0.05:
            passed += 1
    assert passed >= 45
    report("criterion-05 RFF convergence", time.perf_counter() - t0, budget=60.0,
           detail=f"{passed}/50 seeds under 0.05*sigma_f")


def test_criterion_06_sparse_exactness_and_batch_agreement():
    t0 = time.perf_counter()
    kernel = kernels.se(1.0, 0.6)
    noise = 0.15
    rng = np.random.default_rng(3000)
    X = np.sort(rng.uniform(0.0, 4.0, 100))
    y = np.sin(2.0 * X) + 0.3 * rng.standard_normal(100)

    # M = N at the training inputs recovers the exact GP to 1e-5
    st = sparse.init_sparse(kernel, X)
    for xi, yi in zip(X, y):
        st, _ = sparse.sparse_update(st, xi, yi, noise)
    Xs = np.linspace(0.2, 3.8, 20)
    post = exact.posterior(kernel, noise, X, y, Xs)
    means = np.array([sparse.sparse_predict(st, x)[0] for x in Xs])
    np.testing.assert_allclose(means, post.mean, atol=1e-5)

    # information-form batch = sequential recursion to 1e-8
    Z = np.linspace(0.2, 3.8, 12)
    seq = sparse.init_sparse(kernel, Z)
    for xi, yi in zip(X, y):
        seq, _ = sparse.sparse_update(seq, xi, yi, noise)
    batch = sparse.vsgp_info_update(sparse.init_sparse(kernel, Z), X, y, noise)
    np.testing.assert_allclose(batch.mean, seq.mean, atol=1e-8)
    np.testing.assert_allclose(batch.cov, seq.cov, atol=1e-8)
    one_a, _ = sparse.sparse_update(sparse.init_sparse(kernel, Z), X[0], y[0], noise)
    one_b = sparse.vsgp_info_update(sparse.init_sparse(kernel, Z), X[:1], y[:1], noise)
    np.testing.assert_allclose(one_a.mean, one_b.mean, atol=1e-8)
    np.testing.assert_allclose(one_a.cov, one_b.cov, atol=1e-8)
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

    members = []
    for ell in (0.05, 0.5, 5.0):
        fmap = features.sample_rff(kernels.se(1.0, ell), 256, seed=11)
        members.append({"fmap": fmap, "belief": lf.init_belief(256, fmap.weight_prior_var)})
    state = ens.init_ensemble(3, "bma")
    cum = np.zeros(3)
    weight_at_500 = None
    for t in range(T):
        lls = np.empty(3)
        for k, member in enumerate(members):
            phi = features.featurize(member["fmap"], X[t])
            member["belief"], lls[k] = lf.update_step(member["belief"], phi, y[t], noise)
        state = ens.bma_update(state, lls)
        cum += lls
        shifted = np.exp(cum - cum.max())
        np.testing.assert_allclose(state.weights, shifted / shifted.sum(), atol=1e-10)
        if t == 499:
            weight_at_500 = state.weights[1]
    assert weight_at_500 > 0.9
    report("criterion-07 O-BMA = batch evidence", time.perf_counter() - t0, budget=30.0,
           detail=f"true-member weight at t=500: {weight_at_500:.4f}")


def test_criterion_08_dynamics_algebra():
    t0 = time.perf_counter()
    belief = lf.GaussianBelief(np.array([0.8, -0.4, 0.1]),
                               np.array([[0.5, 0.1, 0.0], [0.1, 0.7, 0.2], [0.0, 0.2, 0.9]]))
    prior_var = 1.6
    s = lf.predict_step(belief, lf.b2p(1.0, prior_var))
    np.testing.assert_allclose(s.mean, belief.mean, atol=1e-12)
    np.testing.assert_allclose(s.cov, belief.cov, atol=1e-12)
    r = lf.predict_step(belief, lf.b2p(0.0, prior_var))
    np.testing.assert_allclose(r.mean, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(r.cov, prior_var * np.eye(3), atol=1e-12)
    rw = lf.predict_step(belief, lf.random_walk(0.07))
    gen = lf.predict_step(belief, lf.general(1.0, 0.0, 0.07))
    np.testing.assert_allclose(gen.mean, rw.mean, atol=1e-12)
    np.testing.assert_allclose(gen.cov, rw.cov, atol=1e-12)
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
    kernel = kernels.se(1.0, 0.3)

    errors = {}
    for name, dyn in (("static", lf.static()), ("random_walk", lf.random_walk(0.002))):
        fmap = features.sample_rff(kernel, 128, seed=5)
        belief = lf.init_belief(128, fmap.weight_prior_var)
        sq = np.empty(T)
        for t in range(T):
            phi = features.featurize(fmap, X[t])
            predicted = lf.predict_step(belief, dyn)
            mean, _ = lf.predict_f(predicted, phi)
            sq[t] = (y[t] - mean) ** 2
            belief, _ = lf.update_step(predicted, phi, y[t], 0.01)
        errors[name] = sq
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
    sde = markovian.build_lti(kernels.matern12(1.0, 1.0))
    per_step = []
    for n in (1_000, 10_000, 100_000):
        t = np.arange(n) * 0.01
        y = np.sin(t)
        res = markovian.kalman_filter(sde, t, y, 0.1)
        per_step.append(res.flops / n)
    spread = max(per_step) / min(per_step) - 1.0
    assert spread < 0.05

    # sparse per-step flops never depend on how many points came before
    st = sparse.init_sparse(kernels.se(1.0, 0.6), np.linspace(0.0, 4.0, 16))
    rng = np.random.default_rng(4000)
    counts = set()
    for _ in range(500):
        st, _ = sparse.sparse_update(st, float(rng.uniform(0, 4)), float(rng.standard_normal()), 0.2)
        counts.add(st.step_flops)
    assert len(counts) == 1
    report("criterion-11 linear-time scaling", time.perf_counter() - t0,
           detail=f"per-step flop spread {spread:.2%}")
