"""Markovian GPs: stationary kernels as LTI stochastic differential equations.

Supported kernels map to a continuous-time state space dx = F x dt + L dW
with diffusion spectral density q, observation row H, and stationary
covariance P_inf:

* Matern-1/2 <-> Ornstein-Uhlenbeck (d = 1, lambda = 1/l, q = 2 lambda s2)
* Matern-3/2 <-> two-state model (lambda = sqrt(3)/l, q = 4 lambda^3 s2)
* Hida-Matern components: the underlying Matern state doubled by a rotation
  generator with angular rate b; the observation row picks the cosine
  channel.  Mixtures stack blocks diagonally with sqrt-weight observation
  rows.

Every block's generator is -lambda I + N + b J, with N nilpotent (N = 0 for
Matern-1/2, N^2 = 0 for Matern-3/2) and J the rotation generator, all three
commuting, so the exact transition over any step has the closed form

    A = expm(F dt) = exp(-lambda dt) (I + N dt) (cos(b dt) I + sin(b dt) J).

``build_lti`` records the constant matrices {I, J, N, NJ} of each block and
its pole -lambda + i b; ``transition`` forms A as one product of that basis
with the weights {1, dt} exp((-lambda + i b) dt), real and imaginary parts.
No matrix exponential is computed and nothing is cached per step length.
The filter's predict adds Q = P_inf - A P_inf A^T without forming it, and
Kalman filtering and Rauch-Tung-Striebel smoothing give exact GP inference
in O(N d^3).  ``scipy.linalg.expm`` stays the reference that the tests and
``seqgp check`` compare ``transition`` against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, lapack, solve_continuous_lyapunov

from .errors import ConfigurationError, DataError, NumericalError, UnsupportedKernelError
from .kernels import HmComponent, Kernel, as_points, gram
from .linalg import chol_jitter, gaussian_loglik, scalar_update, symmetrize

@dataclass(frozen=True)
class LtiSde:
    """Continuous-time model: drift F (d,d), noise loading L (d,m), diffusion
    spectral density q (m,m), observation rows H (n_obs,d), stationary P_inf.

    ``basis`` (d*d, 4*n_blocks) holds the flattened transition basis, zero
    outside each block: columns 2j and 2j+1 are I and J of block j, and
    columns 2(n_blocks+j) and 2(n_blocks+j)+1 are its N and NJ.  ``poles``
    holds each block's -lambda + i b (decay lambda, rotation rate b).  A model
    built by hand without them has no closed-form transition.
    """

    drift: np.ndarray
    noise_loading: np.ndarray
    obs: np.ndarray
    diffusion: np.ndarray
    stationary: np.ndarray
    basis: np.ndarray | None = None
    poles: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.drift.shape[0]


@dataclass(frozen=True)
class DiscreteStep:
    transition: np.ndarray  # A = expm(F * dt), in closed form
    noise_cov: np.ndarray  # Q, symmetric PSD


_MATERN_NU = {"matern12": 0.5, "matern32": 1.5}


def _matern_block(nu: float, sigma2: float, lengthscale: float):
    if nu == 0.5:
        lam = 1.0 / lengthscale
        F = np.array([[-lam]])
        L = np.array([[1.0]])
        H = np.array([[1.0]])
        q = np.array([[2.0 * lam * sigma2]])
        P = np.array([[sigma2]])
    elif nu == 1.5:
        lam = math.sqrt(3.0) / lengthscale
        F = np.array([[0.0, 1.0], [-lam * lam, -2.0 * lam]])
        L = np.array([[0.0], [1.0]])
        H = np.array([[1.0, 0.0]])
        q = np.array([[4.0 * lam**3 * sigma2]])
        P = np.diag([sigma2, lam * lam * sigma2])
    else:
        raise UnsupportedKernelError(f"no state space for Matern smoothness {nu}", param="family")
    return F, L, H, q, P, lam


_ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])  # J: d/dt of R(b t) = b J R(b t)


def _hm_block(phase: float, nu: float, sigma2: float, lengthscale: float):
    """Phase-shifted Matern block and its transition basis.

    For b > 0 the state is doubled: the generator gains a commuting rotation
    term I (x) b J, so exp(F t) factors into the Matern decay times a rotation
    and H (x) [1, 0] reads off cos(b t) * matern(t).  A zero phase keeps the
    plain Matern block (the rotation channel is redundant) and a zero J.
    Returns (F, L, H, q, P, basis, lambda), basis = (I, J, N, NJ) with
    N = F_matern + lambda I nilpotent.
    """
    F, L, H, q, P, lam = _matern_block(nu, sigma2, lengthscale)
    d = F.shape[0]
    eye = np.eye(d)
    nil = F + lam * eye
    if phase == 0.0:
        zero = np.zeros((d, d))
        return F, L, H, q, P, (eye, zero, nil, zero), lam
    F2 = np.kron(F, np.eye(2)) + np.kron(eye, phase * _ROTATION)
    L2 = np.kron(L, np.eye(2))
    H2 = np.kron(H, np.array([[1.0, 0.0]]))
    q2 = np.kron(q, np.eye(2))
    P2 = np.kron(P, np.eye(2))
    basis = tuple(np.kron(a, b) for a in (eye, nil) for b in (np.eye(2), _ROTATION))
    return F2, L2, H2, q2, P2, basis, lam


def build_lti(kernel: Kernel) -> LtiSde:
    """State-space representation of a Markovian-supported kernel.

    A Matern-1/2 or Matern-3/2 kernel is the one-component, zero-phase,
    unit-weight Hida-Matern mixture.  Every model stacks its component
    blocks diagonally and reads them through sqrt-weight observation rows.
    Squared-exponential and spectral-mixture kernels have no exact
    finite-dimensional SDE and are rejected.
    """
    if kernel.family in _MATERN_NU:
        comps = (HmComponent(1.0, 0.0, _MATERN_NU[kernel.family], kernel.lengthscale, kernel.sigma_f2),)
    elif kernel.family == "hida_matern":
        comps = kernel.hm_components
    else:
        raise UnsupportedKernelError(
            f"kernel family {kernel.family!r} has no exact finite-dimensional SDE", param="family"
        )
    Fs, Ls, Hs, qs, Ps, bases, lams = zip(*(_hm_block(c.phase, c.nu, c.sigma2, c.lengthscale) for c in comps))
    F, L, q, P = (block_diag(*parts) for parts in (Fs, Ls, qs, Ps))
    H = np.hstack([math.sqrt(c.weight) * h for c, h in zip(comps, Hs)])
    # every block's (I, J), then every block's (N, NJ), each zero outside its block
    basis = [block_diag(*(mats[kind] if k == j else np.zeros_like(mats[0]) for k, mats in enumerate(bases)))
             for pair in (0, 2) for j in range(len(bases)) for kind in (pair, pair + 1)]
    poles = np.array([complex(-lam, c.phase) for c, lam in zip(comps, lams)])
    return LtiSde(drift=F, noise_loading=L, obs=H, diffusion=q, stationary=P,
                  basis=_flat_basis(basis), poles=poles)


def _flat_basis(mats) -> np.ndarray:
    """(d*d, K) matrix whose column k is the row-major flattening of mats[k]."""
    return np.ascontiguousarray(np.stack(mats).reshape(len(mats), -1).T)


def stationary_covariance(sde: LtiSde) -> np.ndarray:
    """Solve the Lyapunov equation F P + P F^T = -L q L^T for P.

    Requires a Hurwitz drift (all eigenvalue real parts negative); this is a
    cross-check of the analytically assembled ``sde.stationary``.
    """
    eigs = np.linalg.eigvals(sde.drift)
    if np.any(eigs.real >= 0.0):
        raise NumericalError(f"drift is not Hurwitz (eigenvalue real parts {eigs.real})")
    rhs = -sde.noise_loading @ sde.diffusion @ sde.noise_loading.T
    P = solve_continuous_lyapunov(sde.drift, rhs)
    return symmetrize(P)


def transition(sde: LtiSde, delta: float) -> np.ndarray:
    """A = expm(F * delta) in closed form, for any real ``delta``.

    Block by block A is exp(-lambda delta) (I + N delta) (cos(b delta) I +
    sin(b delta) J), so the whole matrix is ``sde.basis`` times the weights
    {1, delta} exp(-lambda delta) {cos, sin}(b delta), and the cos/sin pair
    of a block is the real/imaginary pair of exp(pole * delta): one complex
    exponential and one matrix-vector product, whatever the number of
    blocks.  A zero step gives A = I exactly.
    """
    if sde.basis is None:
        raise ConfigurationError("the state-space model has no closed-form transition basis")
    rotated = np.exp(delta * sde.poles).view(float)  # (cos, sin) pairs, block by block
    d = sde.dim
    return (sde.basis @ np.concatenate((rotated, delta * rotated))).reshape(d, d)


def discretize(sde: LtiSde, delta: float) -> DiscreteStep:
    """Exact transition and process noise over a step of length ``delta`` >= 0.

    A = ``transition(sde, delta)``; Q = P_inf - A P_inf A^T, which is exact
    for a stationary initial law.  A zero step gives A = I and Q = 0 exactly.
    The filter never forms Q (``MarkovStepper.advance`` folds it into the
    predict); this is the step as one object, for tests and callers.
    """
    if delta < 0.0:
        raise DataError(f"negative time step {delta}")
    A = transition(sde, delta)
    return DiscreteStep(A, symmetrize(sde.stationary - A @ sde.stationary @ A.T))


# approximate flop accounting: fixed per-step costs used to verify scaling
def _flops_discretize(d: int) -> int:
    return 30 * d**3


def _flops_predict(d: int) -> int:
    return 4 * d**3 + 4 * d * d


def _flops_update(d: int) -> int:
    return 8 * d * d + 12 * d


class MarkovStepper:
    """Streaming filter state: advance to a timestamp, then optionally update.

    ``step`` is the one per-row routine of the batch filter below and of the
    CLI's record-at-a-time loop.  Each step of nonzero length computes its
    transition in closed form, so memory does not grow with the number of
    distinct step lengths.  A zero-length step after the first row leaves the
    state untouched (A = I, Q = 0 is exact on a symmetric covariance) and
    records the shared identity as its transition.  ``history_rows`` = N
    allocates ``history``, one ``FilterResult`` of N rows, and step k copies its
    moments into row k: the rows are copies, 3d^2 + 2d + 3 doubles each.
    """

    def __init__(self, sde: LtiSde, noise_var: float, history_rows: int | None = None):
        if noise_var <= 0.0:
            raise ConfigurationError(f"noise_var must be positive, got {noise_var}", param="noise_var")
        self.sde = sde
        self.noise_var = noise_var
        self.mean = np.zeros(sde.dim)
        self.cov = sde.stationary.copy()
        self.time: float | None = None
        self._identity = np.eye(sde.dim)
        self.last_transition = self._identity
        self.flops = 0
        self.history: FilterResult | None = None
        self.rows_written = 0
        if history_rows is not None:
            n, d = history_rows, sde.dim
            self.history = FilterResult(np.empty(n), np.empty((n, d)), np.empty((n, d, d)), np.empty((n, d)),
                                        np.empty((n, d, d)), np.empty((n, d, d)), np.empty(n, dtype=int),
                                        np.empty(n), 0.0, 0)

    def advance(self, t: float) -> None:
        """Propagate the state to time ``t`` (finite, >= the current time).

        The predicted covariance is P_inf + A (cov - P_inf) A^T, which is
        A cov A^T + Q with Q = P_inf - A P_inf A^T, without forming Q.
        """
        delta = 0.0 if self.time is None else t - self.time
        if not (math.isfinite(t) and math.isfinite(delta)):
            raise DataError(f"non-finite timestamp or step ({self.time} -> {t})")
        if delta < 0.0:
            raise DataError(f"timestamps decrease ({self.time} -> {t})")
        if delta == 0.0 and self.time is not None:
            self.last_transition = self._identity
            self.flops += _flops_predict(self.sde.dim)
            return
        A = transition(self.sde, delta)
        P = self.sde.stationary
        self.mean = A @ self.mean
        self.cov = symmetrize(P + A @ (self.cov - P) @ A.T)
        self.time = t
        self.last_transition = A
        self.flops += _flops_discretize(self.sde.dim) + _flops_predict(self.sde.dim)

    def predict_obs(self, row: int = 0):
        """Latent predictive (mean, var) through observation row ``row``."""
        h = self.sde.obs[row]
        return float(h @ self.mean), float(h @ self.cov @ h)

    def update(self, y: float, row: int = 0) -> float:
        """Scalar Kalman update through ``linalg.scalar_update``; returns the
        predictive log density."""
        if not np.isfinite(y):
            raise DataError(f"non-finite observation {y!r}")
        mean, cov, pred_mean, pred_var = scalar_update(self.mean, self.cov, self.sde.obs[row], y, self.noise_var)
        ll = gaussian_loglik(y, pred_mean, pred_var)
        self.mean, self.cov = mean, cov
        self.flops += _flops_update(self.sde.dim)
        return ll

    def step(self, t: float, y: float | None = None, row: int = 0):
        """Advance to ``t`` and update on ``y`` unless it is None; returns the
        latent predictive (mean, var) through observation row ``row`` and the
        log density of ``y`` (None on a predict-only row)."""
        k, h = self.rows_written, self.history
        if h is not None and k == h.times.size:
            raise DataError(f"the history holds {k} rows; step {k + 1} does not fit")
        self.advance(t)
        mean, var = self.predict_obs(row)
        if h is not None:
            h.times[k], h.obs_rows[k], h.transitions[k] = t, row, self.last_transition
            h.pred_means[k], h.pred_covs[k] = self.mean, self.cov
        ll = None if y is None else self.update(y, row)
        if h is not None:
            h.means[k], h.covs[k], h.logliks[k] = self.mean, self.cov, np.nan if ll is None else ll
            h.loglik_total += 0.0 if ll is None else ll  # left to right: sum() compensates on Python >= 3.12
            self.rows_written = k + 1
        return mean, var, ll

    def result(self) -> FilterResult:
        """The history rows written so far, as views of ``history`` (no copy)."""
        if self.history is None:
            raise ConfigurationError("the filter history requires history_rows")
        h, n = self.history, self.rows_written
        return FilterResult(h.times[:n], h.pred_means[:n], h.pred_covs[:n], h.means[:n], h.covs[:n],
                            h.transitions[:n], h.obs_rows[:n], h.logliks[:n], h.loglik_total, self.flops)


@dataclass
class FilterResult:
    """Per-step filter moments, one row per step: what the smoother reads, and what
    ``emit_smoothed`` keeps for each input row until the backward pass."""

    times: np.ndarray  # (N,)
    pred_means: np.ndarray  # (N, d) prior to each update
    pred_covs: np.ndarray  # (N, d, d)
    means: np.ndarray  # (N, d) filtered
    covs: np.ndarray  # (N, d, d)
    transitions: np.ndarray  # (N, d, d) per-step A
    obs_rows: np.ndarray  # (N,) index of the H row used per step
    logliks: np.ndarray  # (N,) one-step predictive log densities (NaN if no y)
    loglik_total: float
    flops: int


def kalman_filter(sde: LtiSde, times, values, noise_var: float, obs_rows=None) -> FilterResult:
    """Forward filter over an ordered stream of scalar observations.

    ``times`` must be finite and non-decreasing (a non-finite or decreasing
    stamp raises DataError naming the step).  A NaN in ``values`` marks a
    predict-only step: the state advances to that time without a measurement
    update.  ``obs_rows`` selects which observation row of ``sde.obs`` each
    step uses (always row 0 for temporal models).  Starts from the
    stationary law N(0, P_inf).
    """
    t = np.asarray(times, dtype=float).ravel()
    y = np.asarray(values, dtype=float).ravel()
    if t.shape != y.shape:
        raise DataError(f"{t.size} timestamps but {y.size} values")
    rows = np.zeros(t.size, dtype=int) if obs_rows is None else np.asarray(obs_rows, dtype=int).ravel()
    if rows.shape != t.shape:
        raise DataError(f"{t.size} timestamps but {rows.size} observation rows")
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise DataError(f"non-finite timestamp at step {bad[0]} ({t[bad[0]]})")
    down = np.flatnonzero(t[1:] < t[:-1]) + 1
    if down.size:
        raise DataError(f"timestamps decrease at step {down[0]} ({t[down[0] - 1]} -> {t[down[0]]})")

    stepper = MarkovStepper(sde, noise_var, history_rows=t.size)
    for ti, yi, row in zip(t, y, rows):
        stepper.step(ti, None if np.isnan(yi) else yi, row)
    return stepper.result()


@dataclass
class SmootherResult:
    means: np.ndarray  # (N, d)
    covs: np.ndarray  # (N, d, d)


def rts_smoother(sde: LtiSde, result: FilterResult) -> SmootherResult:
    """Backward Rauch-Tung-Striebel pass over a completed filter result."""
    if result.pred_covs is None or len(result.transitions) != result.times.size:
        raise DataError("filter result is missing the stored per-step moments")
    n = result.times.size
    d = sde.dim
    sm = np.empty((n, d))
    sc = np.empty((n, d, d))
    if n == 0:
        return SmootherResult(sm, sc)
    sm[-1] = result.means[-1]
    sc[-1] = result.covs[-1]
    for k in range(n - 2, -1, -1):
        A = result.transitions[k + 1]
        Pf = result.covs[k]
        Pp = result.pred_covs[k + 1]
        _, _, X, info = lapack.dgesv(Pp, A @ Pf, overwrite_b=1)
        if info != 0:
            raise NumericalError(f"singular predicted covariance at step {k + 1}")
        G = X.T
        sm[k] = result.means[k] + G @ (sm[k + 1] - result.pred_means[k + 1])
        sc[k] = symmetrize(Pf + G @ (sc[k + 1] - Pp) @ G.T)
    return SmootherResult(sm, sc)


def build_spatiotemporal(temporal_kernel: Kernel, spatial_kernel: Kernel, locations) -> LtiSde:
    """Separable space-time model on a fixed grid of spatial locations.

    The joint state stacks one temporal state per location (block-diagonal
    drift and loading); spatial correlation enters through the diffusion,
    Sigma_SS (x) q, where Sigma_SS is the spatial Gram normalized to unit
    diagonal so the process variance is carried once, by the temporal block.
    Observation row i reads the leading state component at location i.  The
    transition is kron(I, A_base), so each basis matrix is kron(I, T_j).
    """
    locs = as_points(locations)
    n_s = locs.shape[0]
    if n_s < 1:
        raise ConfigurationError("need at least one spatial location", param="locations")
    base = build_lti(temporal_kernel)
    S = gram(spatial_kernel, locs) / spatial_kernel.total_variance
    chol_jitter(S, scale=1.0)  # factorization failure -> NumericalError
    eye = np.eye(n_s)
    return LtiSde(
        drift=np.kron(eye, base.drift),
        noise_loading=np.kron(eye, base.noise_loading),
        obs=np.kron(eye, base.obs),
        diffusion=np.kron(S, base.diffusion),
        stationary=np.kron(S, base.stationary),
        basis=_flat_basis([np.kron(eye, T) for T in base.basis.T.reshape(-1, base.dim, base.dim)]),
        poles=base.poles,
    )
