"""Algebraic invariants under randomized inputs (hypothesis)."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from conftest import rows_until_error, run_cli, run_runner, stream_columns
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from seqgp import ensemble as ens
from seqgp import exact, features, kernels, linear_filter as lf, markovian
from seqgp.errors import DataError, NumericalError
from seqgp.markovian import block_bounds
from seqgp.runners import (Columns, EnsembleRunner, ExactRunner, LinearRunner, MarkovRunner, SparseRunner, StepResult,
                           run_chunks)

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
    ens.bma_update(state, logliks)
    assert np.all(state.weights >= 0.0)
    assert np.isclose(state.weights.sum(), 1.0, atol=1e-9)


def _reference_combiner(k, combiner, rows):
    """The combiner rows as numpy formulas with scipy's logsumexp: per row the
    mixture (mean, var, log density or None) and the weights after it, and the
    number of rows whose every density is zero, which leave the weights as they are."""
    log_w, t, out, skips = np.full(k, -math.log(k)), 0, [], 0
    with np.errstate(all="ignore"):
        for means, variances, lls in rows:
            w = np.exp(log_w)
            mu, var = np.array(means), np.array(variances)
            mean = float(w @ mu)
            mix = (mean, max(float(w @ (var + mu * mu)) - mean * mean, 0.0))
            if lls is None:
                out.append((*mix, None, w))
                continue
            ll = np.array(lls)
            mix_ll = float(scipy_logsumexp(log_w + ll))
            t += 1
            if np.all(ll == -np.inf):
                x = None
            elif combiner == "bma":
                x = log_w + ll
            else:
                p = np.exp(ll - np.max(ll))
                wp = float(w @ p)
                if wp == 0.0 or 1.0 / wp == math.inf:  # the step's limit: members short of the best density floor
                    x = np.where(ll == np.max(ll), log_w, -np.inf)
                else:
                    x = log_w + math.sqrt(math.log(k) / t) * (p / wp)
            skips += x is None
            if x is not None:
                x = np.maximum(x - np.max(x), ens.LOG_FLOOR)
                log_w = x - scipy_logsumexp(x)
            out.append((*mix, mix_ll, np.exp(log_w)))
    return out, skips


class _ScriptedMember:
    """Runner stand-in that hands back its column of scripted (mean, var, log density) rows."""

    approximate_loglik = False
    block_rows = 1
    flops = 0

    def __init__(self, rows, k):
        self.rows, self.k = rows, k

    def prepare(self, chunk):
        pass

    def step(self, rec):
        means, variances, lls = self.rows[rec.row - 1]
        return StepResult(means[self.k], variances[self.k], None if lls is None else lls[self.k])


def _same(a, b):
    return a == b or (a != a and b != b)


log_density = st.floats(min_value=-1e6, max_value=10.0, **finite) \
    | st.sampled_from([-math.inf, 0.0, -1.0, -744.0, -745.0, -746.0, -800.0, -1500.0, -1e6])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(1, 6), combiner=st.sampled_from(["bma", "stacking"]))
def test_combiner_rows_match_the_numpy_reference_bit_for_bit(data, k, combiner):
    column = st.lists(st.floats(min_value=-1e3, max_value=1e3, **finite), min_size=k, max_size=k)
    spread = st.lists(st.floats(min_value=0.0, max_value=1e3, **finite), min_size=k, max_size=k)
    scores = st.none() | st.lists(log_density, min_size=k, max_size=k)
    rows = data.draw(st.lists(st.tuples(column, spread, scores), min_size=1, max_size=20))
    expected, skips = _reference_combiner(k, combiner, rows)
    scored = Columns(1, None, None, np.array([math.nan if lls is None else 0.0 for _, _, lls in rows]))

    def stepped(runner):
        runner.prepare(scored)
        return [runner.step(rec) for rec in scored.records()]

    def chunked(chunk_rows):
        return lambda runner: [res for _, res in run_chunks(runner, scored, chunk_rows)]

    for run in (stepped, chunked(1), chunked(3), chunked(20)):
        runner = EnsembleRunner([_ScriptedMember(rows, j) for j in range(k)], combiner)
        with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
            warnings.simplefilter("always")
            got = run(runner)
        assert len(got) == len(rows)
        assert sum(f"{combiner} step skipped" in str(w.message) for w in caught) == skips
        for res, (mean, var, mix_ll, weights) in zip(got, expected):
            assert _same(res.mean, mean) and _same(res.var, var)
            assert (res.logdensity is None) if mix_ll is None else _same(res.logdensity, mix_ll)
            np.testing.assert_array_equal(res.weights, weights)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


ERROR_LINE = re.compile(r"seqgp: (configuration|data|numerical) error: [^\n]*\n")
WARNING_LINE = re.compile(r"seqgp: warning: [^\n]*\n")


def _assert_failure_contract(code, out, err, failed_checks=False):
    """A documented exit code, and stderr of one ``seqgp: warning:`` line per warning
    and, on a failure, exactly one error line, last: no traceback.  A ``check`` whose
    checks fail reports them on stdout instead.  Returns the stdout lines."""
    assert code in (0, 2, 3, 4), err
    lines = err.splitlines(keepends=True)
    errors = [line for line in lines if not WARNING_LINE.fullmatch(line)]
    if failed_checks:
        assert code == 4 and not errors and out.endswith(" check(s) failed\n"), (out, err)
    elif code:
        assert len(errors) == 1 and ERROR_LINE.fullmatch(lines[-1]), err
    else:
        assert not errors, err
    return out.splitlines()


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
    lines = _assert_failure_contract(code, out, err)
    if code == 0:
        json.loads(lines[-1], parse_constant=_reject_constant)
        header = lines[0].split(",")
        for line in lines[1:-1]:
            row = dict(zip(header, line.split(",")))
            assert math.isfinite(float(row["pred_mean"])) and math.isfinite(float(row["pred_var"]))


config_int = st.sampled_from(["0", "1", "2", "3", "4", "8", "-1"]) | config_number
usable = st.floats(min_value=0.05, max_value=5.0, **finite).map(repr)  # half the draws, so that runs also pass
usable_number = usable | config_number
usable_int = st.sampled_from(["2", "4", "8"]) | config_int
time_cell = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]).map(repr)
GRID = (0.0, 0.5, 1.5)  # the space-time model's locations; 1.0 and -0.5 lie off the grid
location_cell = st.sampled_from([*GRID, 1.0, -0.5]).map(repr)
# every key a configuration error may name here, after an optional member.<k>.
CONFIG_KEYS = {"model", "noise_var", "kernel.family", "kernel.lengthscale", "kernel.sigma_f2", "kernel.hm_components",
               "sparse.M", "sparse.inducing", "sparse.seed", "features.F", "features.L"}
PLANAR_MODELS = {"exact", "sparse", "vsgp"}  # the models that also run on generated x1,x2 streams
MARKOV_MODELS = {"matern12", "matern32", "hm", "spacetime"}
CONFIG_ERROR = re.compile(r"seqgp: configuration error: (member\.[12]\.)?([\w.]+): ")


@pytest.fixture(scope="module")
def grid_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spacetime") / "locations.csv"
    path.write_text("x1\n" + "".join(f"{x!r}\n" for x in GRID), encoding="utf-8")
    return str(path)


def _model_args(model, p, grid_file=None):
    kernel = [f"kernel.lengthscale={p['lengthscale']}", f"kernel.sigma_f2={p['sigma_f2']}"]
    common = [f"noise_var={p['noise_var']}"]
    if model in ("matern12", "matern32"):
        return ["model=markov", f"kernel.family={model}", *kernel, *common]
    if model == "spacetime":
        return ["model=markov", "kernel.family=matern32", *kernel, *common, f"spatial.locations={grid_file}",
                "spatial.kernel.family=se"]
    if model == "hm":
        comps = f"1:0.5:1.5:{p['lengthscale']}:{p['sigma_f2']};0.5:0:0.5:1:1"
        return ["model=markov", "kernel.family=hm", f"kernel.hm_components={comps}", *common]
    if model in ("sparse", "vsgp"):
        # k-means places multi-D inducing inputs and needs sparse.seed, which is sometimes left out
        seed = [] if p["seed"] is None else [f"sparse.seed={p['seed']}"]
        return [f"model={model}", "kernel.family=matern32", *kernel, *common, f"sparse.M={p['M']}", *seed]
    if model == "exact":
        return ["model=exact", "kernel.family=se", *kernel, *common]
    # linear HSGP; features.L is sometimes left to its default, read from the inputs
    halfwidth = [] if p["L"] == "1" else [f"features.L={p['L']}"]
    return ["model=linear", "features.kind=hsgp", "kernel.family=matern32", *kernel, *common,
            f"features.F={p['F']}", *halfwidth]


PLAIN = {"lengthscale": "1.0", "sigma_f2": "1.0", "noise_var": "0.5", "L": "1", "M": "2", "F": "4"}
PLANAR_ROWS = [("0.0", "0.5", "0.0"), ("0.25", "1", "0.5"), ("1.0", "", "1.5"), ("2.0", "-0.3", "-0.5")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose: the run must still exit cleanly
@settings(max_examples=300, deadline=None)
# generation seldom draws every key valid at once: k-means placement runs, without its seed it is a
# configuration error, and a stacking ensemble runs
@example(model="sparse", params=PLAIN, rows=PLANAR_ROWS, ordered=False, smoothed=False, planar=True, seed="3",
         combiner="bma")
@example(model="vsgp", params=PLAIN, rows=PLANAR_ROWS, ordered=False, smoothed=False, planar=True, seed=None,
         combiner="bma")
@example(model="ensemble", params=PLAIN, rows=PLANAR_ROWS, ordered=True, smoothed=False, planar=False, seed=None,
         combiner="stacking")
# an HSGP basis beyond the kernel's spectrum warned of an overflow before noise_var's error (it is now features.L's)
@example(model="hsgp", params=PLAIN | {"noise_var": "nan", "L": "1e-300", "F": "2"}, rows=[], ordered=False,
         smoothed=False, planar=False, seed=None, combiner="bma")
@given(model=st.sampled_from(["matern12", "matern32", "hm", "spacetime", "sparse", "vsgp", "exact", "hsgp",
                               "ensemble"]),
       params=st.fixed_dictionaries({key: usable_number for key in ("lengthscale", "sigma_f2", "noise_var", "L")}
                                    | {key: usable_int for key in ("M", "F")}),
       rows=st.lists(st.tuples(time_cell, cell, location_cell), max_size=6), ordered=st.booleans(),
       smoothed=st.booleans(), planar=st.booleans(), seed=st.none() | usable_int,
       combiner=st.sampled_from(["bma", "stacking"]))
def test_every_model_exits_cleanly_on_any_config_and_stream(grid_file, model, params, rows, ordered, smoothed,
                                                            planar, seed, combiner):
    params = params | {"seed": seed}
    if model == "ensemble":
        args = ["model=ensemble", f"ensemble.combiner={combiner}",
                *(f"member.1.{a}" for a in _model_args("matern32", params)),
                *(f"member.2.{a}" for a in _model_args("sparse", params))]
    else:
        args = _model_args(model, params, grid_file)
    smoothed = smoothed and model in MARKOV_MODELS
    if smoothed:
        args.append("emit_smoothed=true")
    if ordered:  # otherwise stamps may repeat and decrease as drawn
        rows = sorted(rows, key=lambda r: float(r[0]))
    if model == "spacetime":
        csv = "t,x1,y\n" + "".join(f"{t},{x},{y}\n" for t, y, x in rows)
    elif planar and model in PLANAR_MODELS:  # two input coordinates, drawn from the time and location cells
        csv = "x1,x2,y\n" + "".join(f"{t},{x},{y}\n" for t, y, x in rows)
    else:
        csv = "t,y\n" + "".join(f"{t},{y}\n" for t, y, _ in rows)
    code, out, err = run_cli(["run", *args], stdin_text=csv)
    lines = _assert_failure_contract(code, out, err)
    if code == 2:
        match = CONFIG_ERROR.match(err)
        assert match and match.group(2) in CONFIG_KEYS, err
        assert (match.group(1) is not None) == (model == "ensemble"), err
    if code == 0:
        json.loads(lines[-1], parse_constant=_reject_constant)
        header = lines[0].split(",")
        for line in lines[1:-1]:
            row = dict(zip(header, line.split(",")))
            assert math.isfinite(float(row["pred_mean"])) and math.isfinite(float(row["pred_var"]))
            if smoothed:
                assert math.isfinite(float(row["smoothed_mean"])) and math.isfinite(float(row["smoothed_var"]))


planar_point = st.tuples(*[st.integers(-8, 8).map(lambda k: k / 4.0)] * 2)  # distinct points 0.25 apart or more


@settings(max_examples=100, deadline=None)
@given(data=st.data(), family=st.sampled_from(["matern32", "se"]), lengthscale=st.floats(0.3, 3.0),
       noise_var=st.floats(0.01, 1.0), points=st.lists(planar_point, min_size=1, max_size=12, unique=True),
       seed=st.integers(0, 2**31 - 1))
def test_usable_planar_runs_pass_and_vsgp_reports_what_sparse_does(data, family, lengthscale, noise_var, points,
                                                                      seed):
    # only usable keys, so every planar run reaches exit 0 (random keys seldom do): finite cells, and
    # vsgp's report is sparse's, apart from its model name and wall time
    ys = data.draw(st.lists(st.none() | st.floats(-3.0, 3.0), min_size=len(points), max_size=len(points)))
    M = data.draw(st.integers(1, len(points)))
    csv = "x1,x2,y\n" + "".join(f"{a!r},{b!r},{'' if y is None else repr(y)}\n" for (a, b), y in zip(points, ys))
    keys = [f"kernel.family={family}", f"kernel.lengthscale={lengthscale!r}", f"noise_var={noise_var!r}"]
    reports = {}
    for model in sorted(PLANAR_MODELS):
        sparse_keys = [] if model == "exact" else [f"sparse.M={M}", f"sparse.seed={seed}"]
        code, out, err = run_cli(["run", f"model={model}", *keys, *sparse_keys], stdin_text=csv)
        assert code == 0, err
        lines = out.splitlines()
        summary = json.loads(lines[-1], parse_constant=_reject_constant)
        header = lines[0].split(",")
        assert len(lines) == len(points) + 2
        for line, y in zip(lines[1:-1], ys):
            row = dict(zip(header, line.split(",")))
            assert math.isfinite(float(row["pred_mean"])) and math.isfinite(float(row["pred_var"]))
            assert (row["pred_logdensity"] == "") == (y is None)
            assert y is None or math.isfinite(float(row["pred_logdensity"]))
        assert summary.pop("model") == model and summary.pop("wall_time_s") >= 0.0
        reports[model] = lines[:-1], summary
    assert reports["vsgp"] == reports["sparse"]


SPACE = np.array([[0.0], [0.5], [1.5]])  # the space-time route's locations; 1.0 lies off them
ROUTE_KERNEL = kernels.matern32(1.0, 0.5)


def _block_route(route):
    """A fresh runner of one block route, and the message its bad row raises."""
    if route == "exact":
        return ExactRunner(ROUTE_KERNEL, 0.1), "kernel has non-finite entries"
    if route == "sparse":
        return SparseRunner(ROUTE_KERNEL, 0.1, np.linspace(0.0, 4.0, 12)[:, None], True), \
            "projection has non-finite entries"
    if route == "linear":
        fmap = features.build_hsgp(ROUTE_KERNEL, 8, 10.0)
        return LinearRunner(fmap, lf.random_walk(1e-3), 0.1), "feature row has non-finite entries"
    if route == "markov":
        return MarkovRunner(markovian.build_lti(ROUTE_KERNEL), 0.1), None
    sde = markovian.build_spatiotemporal(ROUTE_KERNEL, kernels.se(1.0, 0.8), SPACE)
    return MarkovRunner(sde, 0.1, locations=SPACE), None


@settings(max_examples=150, deadline=None)
@given(data=st.data(), route=st.sampled_from(["exact", "sparse", "linear", "markov", "spacetime"]),
       seed=st.integers(0, 2**31 - 1), n=st.integers(1, 150), tie_share=st.sampled_from([0.0, 0.5, 0.9]),
       kind=st.sampled_from(["first", "block first", "block last", "any"]))
def test_a_bad_row_ends_every_block_route_after_the_rows_before_it(data, route, seed, n, tie_share, kind):
    # one bad row at a generated position: run_chunks yields the rows before it bit-equal to a run of
    # the stream cut just before it (a prefix has the same blocks), at every chunk size, then raises
    # the route's message naming its 1-based row
    rng = np.random.default_rng(seed)
    t = np.cumsum(np.where(rng.random(n) < tie_share, 0.0, rng.uniform(0.01, 0.1, n)))
    y = np.sin(3.0 * t) + 0.3 * rng.standard_normal(n)
    y[rng.random(n) < 0.2] = np.nan
    where = rng.integers(0, len(SPACE), n)
    runner, message = _block_route(route)
    bounds = block_bounds(t, n, runner.block_rows).tolist()
    k = data.draw(st.integers(0, len(bounds) - 2))
    p = {"first": 0, "block first": bounds[k], "block last": bounds[k + 1] - 1}.get(kind)
    p = data.draw(st.integers(0, n - 1)) if p is None else p
    x = SPACE[where] if route == "spacetime" else None
    fail, error = p, NumericalError
    if route in ("markov", "spacetime"):
        error = DataError
        if route == "spacetime" and data.draw(st.booleans()):
            x[p] = 1.0
            message = "location [1.] is not in spatial.locations"
        else:
            y[p] = data.draw(st.sampled_from([np.inf, -np.inf]))
            message = f"non-finite observation {float(y[p])!r}"
    else:
        t[p] = np.nan
        if route == "exact" and np.isnan(y[:p]).all():
            # the exact route reads a row's inputs only against observations: without one before it, the
            # row is the prior, and if the row is observed, the next row is the first to read it
            fail = p + 1 if p + 1 < n and not np.isnan(y[p]) else None
    stream = stream_columns(y, t=t, x=x)
    if fail is None:
        assert len(run_runner(_block_route(route)[0], stream)) == n
        return
    before = [(r.mean, r.var, r.logdensity) for r in run_runner(_block_route(route)[0], stream.rows(0, fail))]
    for chunk_rows in (1, 3, 256):
        got, exc = rows_until_error(_block_route(route)[0], stream, chunk_rows)
        assert type(exc) is error and str(exc) == f"row {fail + 1}: {message}"
        assert got == before


class SeparableKernel:
    """k((t, x), (t', x')) = k_t(t, t') k_s(x, x') / k_s(0): the kernel of
    ``markovian.build_spatiotemporal``, with the ``gram`` and ``total_variance``
    that ``exact.posterior`` reads."""

    def __init__(self, temporal, spatial):
        self.temporal, self.spatial, self.total_variance = temporal, spatial, temporal.total_variance

    def gram(self, X, X2=None):
        X2 = X if X2 is None else X2
        return self.temporal.gram(X[:, :1], X2[:, :1]) * self.spatial.gram(X[:, 1:], X2[:, 1:]) \
            / self.spatial.total_variance


MARKOV_ORACLE_KERNELS = {
    "matern12": kernels.matern12(1.2, 0.7),
    "matern32": kernels.matern32(0.9, 1.1),
    "hm": kernels.hida_matern([(0.6, 1.3, 1.5, 0.9, 1.0), (0.4, 0.0, 0.5, 1.4, 1.0)]),
}


def _markov_oracle_route(model, noise_var, t):
    """A fresh Markov runner that keeps its history for ``t``, and the kernel of the exact GP it must equal."""
    if model == "spacetime":
        temporal, spatial = kernels.matern32(1.0, 0.8), kernels.se(1.0, 0.9)
        sde = markovian.build_spatiotemporal(temporal, spatial, SPACE)
        return MarkovRunner(sde, noise_var, locations=SPACE, history_times=t), SeparableKernel(temporal, spatial)
    kernel = MARKOV_ORACLE_KERNELS[model]
    return MarkovRunner(markovian.build_lti(kernel), noise_var, history_times=t), kernel


@settings(max_examples=60, deadline=None)
@given(data=st.data(), model=st.sampled_from(["matern12", "matern32", "hm", "spacetime"]),
       seed=st.integers(0, 2**31 - 1), n=st.integers(2, 150), tie_share=st.sampled_from([0.0, 0.3, 0.7]),
       noise_var=st.floats(0.05, 0.5), bad=st.sampled_from([None, "nan t", "decreasing t", "inf y", "location"]))
def test_the_markov_route_is_the_exact_gp_row_by_row(data, model, seed, n, tie_share, noise_var, bad):
    # irregular steps, ties, predict-only rows and runs of one-row time steps: each row's predictive
    # moments are the exact GP's on the y-rows before it and its smoothed moments the exact GP's on
    # every y-row, to 1e-8 relative, and chunks of 1, 3 and 256 rows give the same report.  A bad row
    # inside a run (a NaN or decreasing timestamp, an infinite y, an unknown location) ends the run
    # after the rows before it, bit-equal to a run of the stream cut there, and is named.  A run's
    # prior is factored in segments of at most markovian.RUN_SPAN / decay (7.4 to 11.2 time units
    # here): steps averaging 0.25 cross that bound partway through a block, and a step of 10 to
    # 1,000 (one in 30) crosses it alone (across the longest, a prior factored at one anchor would
    # overflow)
    rng = np.random.default_rng(seed)
    steps = np.where(rng.random(n) < 1 / 30, 10.0 ** rng.uniform(1.0, 3.0, n), rng.uniform(0.01, 0.5, n))
    t = np.cumsum(np.where(rng.random(n) < tie_share, 0.0, steps))
    y = np.sin(2.0 * t) + 0.3 * rng.standard_normal(n)
    y[rng.random(n) < 0.2] = np.nan
    where = rng.integers(0, len(SPACE), n) if model == "spacetime" else np.zeros(n, dtype=int)
    x = SPACE[where].copy() if model == "spacetime" else None
    times, counts = np.unique(t, return_counts=True)
    alone = counts[np.searchsorted(times, t)] == 1  # the rows that are one-row time steps
    inside = np.flatnonzero(alone[1:] & alone[:-1]) + 1  # a one-row step after another: inside a run
    if bad is not None and inside.size:
        p = int(data.draw(st.sampled_from(inside.tolist())))
        if bad == "nan t":
            t[p] = np.nan
            message = f"non-finite timestamp or step ({t[p - 1].item()} -> nan)"
        elif bad == "decreasing t":
            t[p] = t[p - 1] - rng.uniform(0.01, 0.5)
            message = f"timestamps decrease ({t[p - 1].item()} -> {t[p].item()})"
        elif bad == "location" and x is not None:
            x[p] = 9.0
            message = "location [9.] is not in spatial.locations"
        else:
            y[p] = data.draw(st.sampled_from([np.inf, -np.inf]))
            message = f"non-finite observation {float(y[p])!r}"
        stream = stream_columns(y, t=t, x=x)
        before = run_runner(_markov_oracle_route(model, noise_var, t)[0], stream.rows(0, p))
        for chunk_rows in (1, 3, 256):
            got, exc = rows_until_error(_markov_oracle_route(model, noise_var, t)[0], stream, chunk_rows)
            assert type(exc) is DataError and str(exc) == f"row {p + 1}: {message}"
            assert got == [(r.mean, r.var, r.logdensity) for r in before]
        return

    stream = stream_columns(y, t=t, x=x)
    reports = []
    for chunk_rows in (1, 3, 256):
        runner, kernel = _markov_oracle_route(model, noise_var, t)
        cells = [(r.mean, r.var, r.logdensity) for r in run_runner(runner, stream, chunk_rows)]
        reports.append((cells, runner.smooth().tolist()))
    assert reports[1] == reports[0] and reports[2] == reports[0]
    cells, smoothed = reports[0]
    X = np.column_stack((t, x)) if x is not None else t[:, None]
    scale = kernel.total_variance
    Y = np.flatnonzero(~np.isnan(y))
    for i in range(n):
        seen = Y[Y < i]
        if seen.size:
            post = exact.posterior(kernel, noise_var, X[seen], y[seen], X[i:i + 1])
            want = (post.mean[0], post.covariance[0, 0])
        else:
            want = (0.0, scale)
        np.testing.assert_allclose(cells[i][:2], want, rtol=1e-8, atol=1e-8 * scale)
    if Y.size:
        post = exact.posterior(kernel, noise_var, X[Y], y[Y], X)
        want = np.column_stack((post.mean, post.covariance.diagonal()))
    else:
        want = np.column_stack((np.zeros(n), np.full(n, scale)))
    np.testing.assert_allclose(smoothed, want, rtol=1e-8, atol=1e-8 * scale)


grid_list = st.lists(usable_number, max_size=3).map(",".join)
test_cell = st.sampled_from(["", "0.5", "1", "-0.3"]) | cell  # an empty y is a test row


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose: the run must still exit cleanly
@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(["se", "matern12", "matern32"]),
       params=st.fixed_dictionaries({key: usable_number for key in ("kernel.lengthscale", "noise_var")}),
       grids=st.fixed_dictionaries({}, optional={key: grid_list for key in ("grid.sigma_f2", "grid.lengthscale")}),
       emit_weights=st.sampled_from(["true", "false", "maybe"]) | st.none(),
       rows=st.lists(st.tuples(time_cell, test_cell), min_size=1, max_size=6))
def test_fit_exact_exits_cleanly_on_any_grid_and_stream(family, params, grids, emit_weights, rows):
    args = ["fit-exact", f"kernel.family={family}", *(f"{k}={v}" for k, v in (params | grids).items())]
    if emit_weights is not None:
        args.append(f"emit_weights={emit_weights}")
    code, out, err = run_cli(args, stdin_text="t,y\n" + "".join(f"{t},{y}\n" for t, y in rows))
    lines = _assert_failure_contract(code, out, err)
    if code == 0:
        summary = json.loads(lines[-1], parse_constant=_reject_constant)
        assert summary["rows"] == len(lines) - 2 == sum(y == "" for _, y in rows)


kernel_args = st.one_of(
    st.tuples(st.sampled_from(["se", "matern12", "matern32"]), usable_number, usable_number).map(
        lambda a: [f"kernel.family={a[0]}", f"kernel.sigma_f2={a[1]}", f"kernel.lengthscale={a[2]}"]),
    st.lists(st.tuples(usable_number, usable_number, st.sampled_from(["0.5", "1.5", "2.5"]), usable_number,
                       usable_number), min_size=1, max_size=2).map(
        lambda comps: ["kernel.family=hida_matern", "kernel.hm_components=" + ";".join(map(":".join, comps))]),
    st.lists(st.tuples(usable_number, usable_number, usable_number), min_size=1, max_size=2).map(
        lambda comps: ["kernel.family=spectral_mixture", "kernel.sm_components=" + ";".join(map(":".join, comps))]),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose: the check must still exit cleanly
@settings(max_examples=150, deadline=None)
@example(kernel=["kernel.family=matern12", "kernel.lengthscale=1e-67"], kind=None, feature_keys={})  # was a traceback
@given(kernel=kernel_args, kind=st.sampled_from(["rff", "hsgp", "fourier"]) | st.none(),
       feature_keys=st.fixed_dictionaries({}, optional={"features.F": usable_int, "features.L": usable_number,
                                                        "features.seed": usable_int}))
def test_check_exits_cleanly_on_any_kernel_and_features(kernel, kind, feature_keys):
    args = ["check", *kernel, *(f"{k}={v}" for k, v in feature_keys.items())]
    if kind is not None:
        args.append(f"features.kind={kind}")
    code, out, err = run_cli(args)
    lines = _assert_failure_contract(code, out, err, failed_checks="check(s) failed" in out)
    if code != 2:  # every key is read before the first line is written
        assert lines[-1] in ("all checks passed", f"{out.count('FAIL ')} check(s) failed")
    else:
        assert out == ""
