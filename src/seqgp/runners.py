"""Record-at-a-time model runners behind the streaming CLI.

Every runner exposes ``step(record) -> StepResult`` following the
prequential protocol: predict at the record's input, score the target if
one is present, then (and only then) fold the observation into the state.
Rows without a target are pure queries and never change the belief; for the
Markovian models the state still advances to the row's timestamp, since the
model lives in continuous time.

Runner construction happens after the whole input is parsed (the CLI reads
its CSV up front), which lets the sparse models place inducing inputs on
the observed input quantiles without peeking at any target value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtpsv

from . import ensemble as ens
from . import features, linear_filter, markovian, sparse
from .config import (
    build_dynamics,
    build_kernel,
    get_bool,
    get_float,
    get_float_list,
    get_int,
    get_str,
    keyed,
    load_locations,
    member_configs,
)
from .errors import ConfigurationError, DataError, NumericalError
from .kernels import eval_kernel
from .linalg import gaussian_loglik


@dataclass(frozen=True)
class StreamRecord:
    row: int  # 1-based data row in the input
    t: float | None
    x: np.ndarray | None
    y: float | None

    @property
    def point(self) -> np.ndarray:
        """Model input: the x vector, or the timestamp as a 1-D point."""
        if self.x is not None:
            return self.x
        return np.array([self.t])


@dataclass
class StepResult:
    mean: float
    var: float  # latent (noise-free) predictive variance
    logdensity: float | None  # one-step predictive log density of y, if scored
    weights: np.ndarray | None = None  # ensemble only


class ExactRunner:
    """Exact GP grown one observation at a time by extending a Cholesky factor.

    The state is the lower factor L of K_oo + noise_var I over the n observed
    inputs X, and z = L^-1 y.  A row at x solves v = L^-1 k(X, x) once, which
    costs O(n^2), and predicts mean = v.z, var = kappa(x, x) - v.v.  A y-bearing
    row then appends [v, sqrt(var + noise_var)] as row n of L and the
    standardized residual (y - mean) / sqrt(var + noise_var) to z; the new
    pivot is the predictive variance that scoring already requires to be
    positive.  A predict-only row leaves the state untouched.

    L is kept in packed storage: row i of L occupies ``packed[i(i+1)/2 :
    (i+1)(i+2)/2]``, which is BLAS upper-packed storage of L^T, so a new row
    is an append and the triangular solve runs on a contiguous prefix.
    Memory is O(n^2); every buffer grows geometrically.
    """

    def __init__(self, kernel, noise_var: float):
        if noise_var <= 0.0:
            raise ConfigurationError(f"noise_var must be positive, got {noise_var}", param="noise_var")
        self.kernel = kernel
        self.noise_var = noise_var
        self.n = 0  # observations folded in
        self.inputs = np.zeros((0, 0))  # X, rows [:n] in use
        self.packed = np.zeros(0)  # packed L, entries [:n(n+1)/2] in use
        self.z = np.zeros(0)  # L^-1 y, entries [:n] in use
        self.flops = 0
        self.approximate_loglik = False

    @property
    def factor(self) -> np.ndarray:
        """The lower factor L as a dense (n, n) array (a copy)."""
        L = np.zeros((self.n, self.n))
        L[np.tril_indices(self.n)] = self.packed[: self.n * (self.n + 1) // 2]
        return L

    def step(self, rec: StreamRecord) -> StepResult:
        x = rec.point
        n = self.n
        kxx = float(eval_kernel(self.kernel, x, x))
        k = self.kernel.gram(self.inputs[:n], x.reshape(1, -1)).ravel() if n else np.zeros(0)
        if not (np.isfinite(kxx) and np.all(np.isfinite(k))):
            raise NumericalError("kernel has non-finite entries")
        v = dtpsv(n, self.packed[: n * (n + 1) // 2], k, trans=1, overwrite_x=1) if n else k
        mean, var = float(v @ self.z[:n]), kxx - float(v @ v)
        self.flops += n * n + 4 * n + 10
        if rec.y is None:
            return StepResult(mean, var, None)
        ll = gaussian_loglik(rec.y, mean, var + self.noise_var)
        pivot = float(np.sqrt(var + self.noise_var))
        self._append(x, v, pivot, (rec.y - mean) / pivot)
        return StepResult(mean, var, ll)

    def _append(self, x: np.ndarray, v: np.ndarray, pivot: float, z_new: float) -> None:
        n = self.n
        if n == self.z.size:
            cap = max(16, 2 * n)
            self.inputs = _grown(self.inputs, (cap, x.size))
            self.packed = _grown(self.packed, (cap * (cap + 1) // 2,))
            self.z = _grown(self.z, (cap,))
        start = n * (n + 1) // 2
        self.packed[start : start + n] = v
        self.packed[start + n] = pivot
        self.inputs[n] = x
        self.z[n] = z_new
        self.n = n + 1


def _grown(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """A zero buffer of ``shape`` whose leading block holds ``buf``."""
    out = np.zeros(shape)
    out[tuple(slice(0, s) for s in buf.shape)] = buf
    return out


class LinearRunner:
    """Basis-expansion filter with configurable weight dynamics and likelihood."""

    def __init__(self, fmap, dynamics, noise_var: float, likelihood: str = "gaussian"):
        if likelihood == "gaussian" and noise_var <= 0.0:
            raise ConfigurationError(f"noise_var must be positive, got {noise_var}", param="noise_var")
        self.fmap = fmap
        self.dynamics = dynamics
        self.noise_var = noise_var
        self.likelihood = likelihood
        self.belief = linear_filter.init_belief(fmap.n_features, fmap.weight_prior_var)
        self.flops = 0
        self.approximate_loglik = likelihood != "gaussian"

    def step(self, rec: StreamRecord) -> StepResult:
        phi = features.featurize(self.fmap, rec.point)
        predicted = linear_filter.predict_step(self.belief, self.dynamics)
        mean, var = linear_filter.predict_f(predicted, phi)
        n = self.fmap.n_features
        self.flops += 6 * n * n + 8 * n
        if rec.y is None:
            # pure query: the dynamics tick is tied to observation events
            return StepResult(mean, var, None)
        if self.likelihood == "gaussian":
            self.belief, ll = linear_filter.update_step(predicted, phi, rec.y, self.noise_var)
        else:
            self.belief, ll = linear_filter.update_nonconjugate(predicted, phi, rec.y, self.likelihood)
        return StepResult(mean, var, ll)


class MarkovRunner:
    """Continuous-time state-space filter; optionally keeps history for smoothing.

    Every row carries ``t``, and ``x`` exactly when ``locations`` is given;
    ``cli.validate_stream_for_model`` checks the columns before any row."""

    def __init__(self, sde, noise_var: float, locations=None, history_rows: int | None = None):
        self.stepper = markovian.MarkovStepper(sde, noise_var, history_rows=history_rows)
        self.locations = locations  # (N_s, D) when spatiotemporal
        self._loc_index: dict[tuple, int] = {}  # exact coordinates -> first matching row
        if locations is not None:
            for i, loc in enumerate(locations.tolist()):
                self._loc_index.setdefault(tuple(loc), i)
        self.approximate_loglik = False

    @property
    def flops(self) -> int:
        return self.stepper.flops

    def _obs_row(self, rec: StreamRecord) -> int:
        if self.locations is None:
            return 0
        idx = self._loc_index.get(tuple(rec.x.tolist()))
        if idx is not None:
            return idx
        dist = np.linalg.norm(self.locations - rec.x[None, :], axis=1)
        idx = int(np.argmin(dist))
        scale = 1.0 + float(np.linalg.norm(self.locations[idx]))
        if dist[idx] > 1e-9 * scale:
            raise DataError(f"location {rec.x} is not in spatial.locations")
        return idx

    def step(self, rec: StreamRecord) -> StepResult:
        return StepResult(*self.stepper.step(rec.t, rec.y, self._obs_row(rec)))

    def smooth(self) -> list[tuple[float, float]]:
        """Backward pass over the stored history; per-row smoothed (mean, var)."""
        result = self.stepper.result()
        smoothed = markovian.rts_smoother(self.stepper.sde, result)
        H = self.stepper.sde.obs[result.obs_rows]
        means = np.einsum("ij,ij->i", H, smoothed.means)
        variances = np.einsum("ij,ijk,ik->i", H, smoothed.covs, H)
        return list(zip(means.tolist(), variances.tolist()))


class SparseRunner:
    """Fixed-inducing-set recursion, one rank-one update per observation; also
    ``model=vsgp``, whose one-row information-form update is the same update."""

    def __init__(self, kernel, noise_var: float, inducing, include_residual: bool):
        if noise_var <= 0.0:
            raise ConfigurationError(f"noise_var must be positive, got {noise_var}", param="noise_var")
        self.state = sparse.init_sparse(kernel, inducing, include_residual)
        self.noise_var = noise_var
        self.flops = 0
        self.approximate_loglik = False

    def step(self, rec: StreamRecord) -> StepResult:
        x = rec.point
        proj = sparse._projection(self.state, x)  # shared: the update leaves it unchanged
        mean, var = sparse.sparse_predict(self.state, x, proj)
        if rec.y is None:
            return StepResult(mean, var, None)
        self.state, ll = sparse.sparse_update(self.state, x, rec.y, self.noise_var, proj)
        self.flops += self.state.step_flops
        return StepResult(mean, var, ll)


class EnsembleRunner:
    """Bank of member runners combined by BMA or stacking weights."""

    def __init__(self, members: list, combiner: str):
        self.members = members
        self.state = ens.init_ensemble(len(members), combiner)
        self.approximate_loglik = any(m.approximate_loglik for m in members)

    @property
    def flops(self) -> int:
        return sum(m.flops for m in self.members)

    def step(self, rec: StreamRecord) -> StepResult:
        results = [m.step(rec) for m in self.members]
        means = np.array([r.mean for r in results])
        variances = np.array([r.var for r in results])
        mix_mean, mix_var, _ = ens.mixture_predict(self.state, means, variances)
        if rec.y is None:
            return StepResult(mix_mean, mix_var, None, weights=self.state.weights)
        lls = np.array([r.logdensity for r in results])
        mix_ll = ens.logsumexp(self.state.log_weights + lls)
        if self.state.combiner == "bma":
            self.state = ens.bma_update(self.state, lls)
        else:
            # The EG step is invariant to scaling every density, so shift by the
            # best member before exponentiating: far-out members must not all
            # underflow to 0.  With no finite log density the step is skipped.
            shift = np.max(lls) if np.any(np.isfinite(lls)) else 0.0
            self.state = ens.stacking_update(self.state, np.exp(lls - shift))
        return StepResult(mix_mean, mix_var, mix_ll, weights=self.state.weights)


def _require_seed(cfg: dict, key: str) -> int:
    seed = get_int(cfg, key, default=get_int(cfg, "seed"))
    if seed is None:
        raise ConfigurationError(f"{key}: a seed is required for stochastic components (or set seed=)")
    return seed


def _input_points(records: list[StreamRecord]) -> np.ndarray:
    if not records:
        return np.zeros((0, 1))
    return np.array([r.point for r in records])


def build_runner(cfg: dict, records: list[StreamRecord], prefix: str = ""):
    """Construct the model runner a validated config describes; a configuration
    error names its key, after ``prefix`` for an ensemble member."""
    with keyed(prefix=prefix):
        model = get_str(cfg, "model", required=True, choices=set(MODELS_BUILDABLE))
        return MODELS_BUILDABLE[model](cfg, records)


def _build_exact(cfg, records):
    kernel = build_kernel(cfg)
    return ExactRunner(kernel, get_float(cfg, "noise_var", required=True))


def _build_linear(cfg, records):
    kernel = build_kernel(cfg)
    kind = get_str(cfg, "features.kind", default="rff", choices={"rff", "hsgp"})
    n_feat = get_int(cfg, "features.F", required=True)
    if kind == "rff":
        fmap = features.sample_rff(kernel, n_feat, _require_seed(cfg, "features.seed"))
    else:
        halfwidth = get_float(cfg, "features.L")
        if halfwidth is None:  # 0 on an empty stream, which build_hsgp rejects
            halfwidth = 4.0 * float(np.max(np.abs(_input_points(records)), initial=0.0))
        fmap = features.build_hsgp(kernel, n_feat, halfwidth)
    dynamics = build_dynamics(cfg, fmap.weight_prior_var)
    likelihood = get_str(cfg, "likelihood", default="gaussian",
                         choices={"gaussian"} | set(linear_filter.LIKELIHOODS))
    return LinearRunner(fmap, dynamics, get_float(cfg, "noise_var", required=True), likelihood)


def _build_markov(cfg, records):
    kernel = build_kernel(cfg)
    noise_var = get_float(cfg, "noise_var", required=True)
    loc_path = get_str(cfg, "spatial.locations")
    rows = len(records) if get_bool(cfg, "emit_smoothed", default=False) else None
    if loc_path is None:
        sde = markovian.build_lti(kernel)
        return MarkovRunner(sde, noise_var, history_rows=rows)
    locations = load_locations(loc_path)
    spatial_kernel = build_kernel(cfg, prefix="spatial.kernel.")
    sde = markovian.build_spatiotemporal(kernel, spatial_kernel, locations)
    return MarkovRunner(sde, noise_var, locations=locations, history_rows=rows)


def _build_sparse(cfg, records):
    kernel = build_kernel(cfg)
    noise_var = get_float(cfg, "noise_var", required=True)
    explicit = get_float_list(cfg, "sparse.inducing")
    if explicit is not None:
        inducing = np.array(explicit).reshape(-1, 1)
    else:
        n_inducing = get_int(cfg, "sparse.M", required=True)
        pts = _input_points(records)
        seed = get_int(cfg, "sparse.seed", default=get_int(cfg, "seed"))
        if pts.shape[1] > 1 and seed is None:
            raise ConfigurationError("sparse.seed: required for k-means seeding of multi-D inducing inputs")
        inducing = sparse.choose_inducing(pts, n_inducing, 0 if seed is None else seed)
    residual = get_bool(cfg, "sparse.residual", default=True)
    # inducing inputs placed from sparse.M that coincide are blamed on sparse.M
    with keyed({"inducing": "sparse.inducing" if explicit is not None else "sparse.M"}):
        return SparseRunner(kernel, noise_var, inducing, residual)


def _build_ensemble(cfg, records):
    combiner = get_str(cfg, "ensemble.combiner", default="bma", choices={"bma", "stacking"})
    members = []
    for i, block in enumerate(member_configs(cfg), start=1):
        with keyed(prefix=f"member.{i}."):
            # a smoothed member would keep its whole history for columns no report has
            if get_bool(block, "emit_smoothed", default=False):
                raise ConfigurationError("emit_smoothed: ensemble members are not smoothed")
        members.append(build_runner(block, records, f"member.{i}."))
    return EnsembleRunner(members, combiner)


MODELS_BUILDABLE = {
    "exact": _build_exact,
    "linear": _build_linear,
    "markov": _build_markov,
    "sparse": _build_sparse,
    "vsgp": _build_sparse,
    "ensemble": _build_ensemble,
}
