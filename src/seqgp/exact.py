"""Batch exact GP regression: posterior, log marginal likelihood, grid search.

This is the ground truth that every sequential method in the package is
checked against.  The mean function is zero throughout.  All solves go
through a jittered Cholesky factor; inverses are never formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .kernels import Kernel, as_points
from .linalg import chol_jitter, chol_logdet, chol_solve

LOG_2PI = float(np.log(2.0 * np.pi))

# Anything with a .gram(X, X2) method and a .total_variance works here, which
# lets finite-rank (feature-induced) kernels reuse the exact-GP machinery.


@dataclass
class ExactPosterior:
    """Joint Gaussian posterior over test points.

    ``weights`` holds the smoother matrix W with mean = W @ y (one row per
    test point); it is what the worked-example output reports.
    """

    mean: np.ndarray
    covariance: np.ndarray
    log_marginal: float
    weights: np.ndarray


def _noisy_train_factor(kernel: Kernel, noise_var: float, X: np.ndarray):
    """K_oo and the jittered lower Cholesky factor of K_oo + noise_var I."""
    if noise_var <= 0.0:
        raise ConfigurationError(f"noise_var must be positive, got {noise_var}", param="noise_var")
    K = kernel.gram(X)
    L, _ = chol_jitter(K + noise_var * np.eye(K.shape[0]), scale=kernel.total_variance)
    return K, L


def posterior(kernel: Kernel, noise_var: float, X_train, y, X_test) -> ExactPosterior:
    """Exact GP posterior at ``X_test`` given noisy observations (X_train, y).

    mean = K_*o (K_oo + noise I)^-1 y
    cov  = K_** - K_*o (K_oo + noise I)^-1 K_o*
    """
    Xo = as_points(X_train)
    Xs = as_points(X_test)
    y = np.asarray(y, dtype=float).ravel()
    if Xo.shape[0] != y.shape[0]:
        raise ShapeError(f"{Xo.shape[0]} training inputs but {y.shape[0]} targets")
    if y.shape[0] < 1:
        raise ShapeError("need at least one training point")

    K_oo, L = _noisy_train_factor(kernel, noise_var, Xo)
    if X_test is X_train:
        K_so = K_ss = K_oo  # common oracle pattern: predict back at the training inputs
    else:
        K_so = kernel.gram(Xs, Xo)
        K_ss = kernel.gram(Xs)

    weights = chol_solve(L, K_so.T).T
    mean = weights @ y
    cov = K_ss - weights @ K_so.T
    cov = 0.5 * (cov + cov.T)

    alpha = chol_solve(L, y)
    lml = -0.5 * float(y @ alpha) - 0.5 * chol_logdet(L) - 0.5 * y.size * LOG_2PI
    return ExactPosterior(mean=mean, covariance=cov, log_marginal=lml, weights=weights)


def log_marginal_likelihood(kernel: Kernel, noise_var: float, X, y) -> float:
    """log N(y | 0, K_oo + noise_var I) via Cholesky."""
    Xo = as_points(X)
    y = np.asarray(y, dtype=float).ravel()
    if Xo.shape[0] != y.shape[0]:
        raise ShapeError(f"{Xo.shape[0]} training inputs but {y.shape[0]} targets")
    _, L = _noisy_train_factor(kernel, noise_var, Xo)
    alpha = chol_solve(L, y)
    return -0.5 * float(y @ alpha) - 0.5 * chol_logdet(L) - 0.5 * y.size * LOG_2PI


def grid_search(kernel_template: Kernel, noise_var: float, X, y, grids: dict):
    """Exhaustive marginal-likelihood search over a hyperparameter grid.

    ``grids`` maps kernel field names (e.g. ``sigma_f2``, ``lengthscale``) to
    candidate values.  Ties break toward the smallest lengthscale, then the
    smallest sigma_f2.  Returns ``(best_kernel, table)`` where ``table`` is a
    list of (params dict, score or None) in grid iteration order.

    Raises NumericalError if every grid cell fails numerically.
    """
    if not grids or any(len(v) == 0 for v in grids.values()):
        raise ConfigurationError("grids must be non-empty")
    names = list(grids.keys())
    table = []
    best = None  # (score, lengthscale, sigma_f2, kernel)
    for values in itertools.product(*(grids[n] for n in names)):
        params = dict(zip(names, values))
        try:
            cand = replace(kernel_template, **params)
            score = log_marginal_likelihood(cand, noise_var, X, y)
        except NumericalError:
            table.append((params, None))
            continue
        if not np.isfinite(score):
            table.append((params, None))
            continue
        table.append((params, score))
        key = (-score, cand.lengthscale, cand.sigma_f2)
        if best is None or key < best[0]:
            best = (key, cand)
    if best is None:
        raise NumericalError("every grid cell failed numerically")
    return best[1], table
