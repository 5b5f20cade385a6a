"""Recursive sparse-GP inference over a fixed set of inducing variables.

The inducing values u carry the whole belief: each scalar observation maps
to an effective row h = K_uu^{-1} k(x) and updates (m, S) with Kalman-filter
algebra at O(M^2) per step.  ``vsgp_info_update`` performs the same
conditioning in information (natural-parameter) form over a batch.  Inducing
inputs and hyperparameters stay frozen after initialization.

With ``include_residual`` (the default) the leftover conditional variance
q(x) = kappa(x, x) - k^T K_uu^{-1} k is treated as extra observation noise
and restored in predictions, so the prior is recovered exactly away from the
inducing set; switching it off reproduces the bare recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DataError, NumericalError, ShapeError
from .kernels import GRAM_JITTER, Kernel, as_points, eval_kernel, gram
from .linalg import chol_solve, gaussian_loglik, scalar_update, symmetrize


@dataclass(frozen=True)
class SparseState:
    kernel: Kernel
    inducing: np.ndarray  # (M, D)
    k_factor: np.ndarray  # lower Cholesky factor of the jittered inducing Gram K_uu
    mean: np.ndarray  # (M,) posterior mean of u
    cov: np.ndarray  # (M, M) posterior covariance of u
    include_residual: bool
    step_flops: int  # flops of the most recent update; O(M^2), t-independent

    @property
    def n_inducing(self) -> int:
        return self.inducing.shape[0]


def choose_inducing(X, n_inducing: int, seed: int) -> np.ndarray:
    """Deterministic inducing inputs: quantiles in 1-D, k-means style otherwise."""
    pts = as_points(X)
    n, d = pts.shape
    if n_inducing < 1:
        raise ConfigurationError(f"need at least one inducing input, got {n_inducing}", param="n_inducing")
    if n_inducing > n:
        raise ConfigurationError(f"{n_inducing} inducing inputs but only {n} data points", param="n_inducing")
    if d == 1:
        qs = (np.arange(n_inducing) + 0.5) / n_inducing
        return np.quantile(pts[:, 0], qs).reshape(-1, 1)
    rng = np.random.default_rng(seed)
    centers = pts[rng.choice(n, size=n_inducing, replace=False)]
    for _ in range(25):
        dist = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=-1)
        assign = np.argmin(dist, axis=1)
        new = np.array([
            pts[assign == j].mean(axis=0) if np.any(assign == j) else centers[j]
            for j in range(n_inducing)
        ])
        if np.allclose(new, centers):
            break
        centers = new
    return centers


def init_sparse(kernel: Kernel, inducing, include_residual: bool = True) -> SparseState:
    """Prior state over u: mean 0, covariance the inducing Gram (jittered)."""
    Z = as_points(inducing)
    if Z.shape[0] < 1:
        raise ConfigurationError("need at least one inducing input", param="inducing")
    if Z.shape[0] > 1:
        diff = Z[:, None, :] - Z[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        spread = dist.max()  # coincidence is judged on the set's own scale, not the kernel's
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= 1e-8 * spread:
            raise ConfigurationError(f"duplicate inducing inputs (min distance {dist.min():.3e})", param="inducing")
    K = gram(kernel, Z) + GRAM_JITTER * kernel.total_variance * np.eye(Z.shape[0])
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("inducing Gram is not positive definite") from exc
    return SparseState(
        kernel=kernel,
        inducing=Z,
        k_factor=L,
        mean=np.zeros(Z.shape[0]),
        cov=K.copy(),
        include_residual=include_residual,
        step_flops=0,
    )


def _projection(state: SparseState, x):
    """h = K_uu^{-1} k(x) and the residual variance q = kappa(x,x) - k^T h."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != state.inducing.shape[1]:
        raise ShapeError(f"input has dimension {x.shape[0]}, inducing inputs {state.inducing.shape[1]}")
    k = gram(state.kernel, x.reshape(1, -1), state.inducing)[0]
    h = chol_solve(state.k_factor, k)
    q = float(eval_kernel(state.kernel, x, x)) - float(k @ h)
    return h, max(q, 0.0)


def sparse_update(state: SparseState, x, y: float, noise_var: float, projection=None):
    """Fold one observation into the belief; returns (state, pred_loglik).

    The effective observation is y = h^T u + noise, with variance noise_var
    plus the residual q(x) when the state carries the residual correction.
    ``projection`` is ``_projection(state, x)`` when the caller already has
    it; the projection depends only on the frozen kernel and inducing set.
    """
    if noise_var <= 0.0:
        raise ConfigurationError(f"noise_var must be positive, got {noise_var}", param="noise_var")
    if not np.all(np.isfinite(np.atleast_1d(x))) or not np.isfinite(y):
        raise DataError(f"non-finite observation ({x!r}, {y!r})")
    h, q = _projection(state, x) if projection is None else projection
    r = noise_var + (q if state.include_residual else 0.0)

    mean, cov, pred_mean, pred_var = scalar_update(state.mean, state.cov, h, y, r)
    loglik = gaussian_loglik(y, pred_mean, pred_var)
    m_ind = state.n_inducing
    flops = 6 * m_ind * m_ind + 10 * m_ind
    return replace(state, mean=mean, cov=cov, step_flops=flops), loglik


def sparse_predict(state: SparseState, x, projection=None):
    """Predictive (mean, var) of f(x): mean = h^T m, var = h^T S h (+ residual).

    ``projection`` is ``_projection(state, x)``, as in ``sparse_update``.
    """
    h, q = _projection(state, x) if projection is None else projection
    mean = float(h @ state.mean)
    var = float(h @ state.cov @ h)
    if state.include_residual:
        var += q
    return mean, var


def vsgp_info_update(state: SparseState, X, y, noise_var: float) -> SparseState:
    """Batch update in information form: accumulate (S^-1 m, S^-1) and convert back.

    For the Gaussian likelihood each row contributes h h^T / r to the
    precision and h y / r to the information vector, with r the effective
    noise used by ``sparse_update``; a batch of size one therefore equals a
    single sequential update, and two half-batches equal one full batch.
    """
    if noise_var <= 0.0:
        raise ConfigurationError(f"noise_var must be positive, got {noise_var}", param="noise_var")
    pts = as_points(X)
    y = np.asarray(y, dtype=float).ravel()
    if pts.shape[0] != y.shape[0]:
        raise DataError(f"{pts.shape[0]} inputs but {y.shape[0]} targets")
    if pts.shape[0] == 0:
        raise DataError("batch must be non-empty")

    try:
        Lc = np.linalg.cholesky(state.cov)
        prec = chol_solve(Lc, np.eye(state.n_inducing))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("posterior covariance lost positive definiteness") from exc
    info = prec @ state.mean
    for xi, yi in zip(pts, y):
        h, q = _projection(state, xi)
        r = noise_var + (q if state.include_residual else 0.0)
        prec += np.outer(h, h) / r
        info += h * (yi / r)
    try:
        Lp = np.linalg.cholesky(symmetrize(prec))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("information matrix is not positive definite") from exc
    cov = chol_solve(Lp, np.eye(state.n_inducing))
    mean = chol_solve(Lp, info)
    m_ind = state.n_inducing
    flops = pts.shape[0] * (6 * m_ind * m_ind) + 2 * m_ind**3
    return replace(state, mean=mean, cov=symmetrize(cov), step_flops=flops)
