"""Bayesian linear filtering over feature weights.

The model is y_t = phi(x_t)^T theta_t + noise with theta_k = a*theta_{k-1}
+ u + N(0, c*I): static (theta fixed), random walk (isotropic diffusion),
back-to-prior forgetting (geometric blend toward the prior) and the general
scalar autoregression with control input are settings of (a, u, c).
Conjugate updates go through the shared rank-one kernel
``linalg.scalar_update`` (P - s s^T / v, symmetrized), which keeps the belief
symmetric PSD over long streams; non-conjugate likelihoods
(Bernoulli-logit, Poisson-log) are folded in through a one-dimensional
Laplace step on the marginal of f_t = phi^T theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ConfigurationError, DataError, NumericalError, ShapeError
from .linalg import chol_jitter, gaussian_loglik, scalar_update


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian state over the weight vector: mean (F,) and covariance (F, F)."""

    mean: np.ndarray
    cov: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class Dynamics:
    """One step theta -> a*theta + u + N(0, c*I), built only by the constructors below.

    The belief maps to (mean_scale*m + shift, cov_scale*P + noise*I); b2p keeps
    cov_scale = lambda, as sqrt(lambda)**2 can differ from it in the last bit.
    """

    mean_scale: float
    cov_scale: float
    shift: float
    noise: float


_IDENTITY = Dynamics(1.0, 1.0, 0.0, 0.0)


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}", param=name)
    return float(value)


def static() -> Dynamics:
    return _IDENTITY


def random_walk(sigma_rw2: float) -> Dynamics:
    if not 0.0 <= sigma_rw2 < math.inf:
        raise ConfigurationError(f"sigma_rw2 must be finite and nonnegative, got {sigma_rw2}", param="sigma_rw2")
    return Dynamics(1.0, 1.0, 0.0, sigma_rw2)


def b2p(lambda_forget: float, prior_var: float) -> Dynamics:
    """Back-to-prior forgetting: a = sqrt(lambda), u = 0, c = (1 - lambda) * prior_var."""
    if not 0.0 <= lambda_forget <= 1.0:
        raise ConfigurationError(f"forgetting factor must lie in [0, 1], got {lambda_forget}", param="lambda_forget")
    if not 0.0 < prior_var < math.inf:
        raise ConfigurationError(f"prior_var must be finite and positive, got {prior_var}", param="prior_var")
    return Dynamics(math.sqrt(lambda_forget), lambda_forget, 0.0, (1.0 - lambda_forget) * prior_var)


def general(a: float, u: float, c: float) -> Dynamics:
    a, u, c = _finite("a", a), _finite("u", u), _finite("c", c)
    if c < 0.0:
        raise ConfigurationError(f"process-noise scale c must be nonnegative, got {c}", param="c")
    try:
        return Dynamics(a, a**2, u, c)
    except OverflowError:
        raise ConfigurationError(f"a**2 overflows, got a = {a!r}", param="a") from None


def init_belief(n_features: int, prior_var: float) -> GaussianBelief:
    """Prior belief theta ~ N(0, prior_var * I)."""
    if n_features < 1:
        raise ConfigurationError(f"n_features must be >= 1, got {n_features}", param="n_features")
    if prior_var <= 0.0:
        raise ConfigurationError(f"prior_var must be positive, got {prior_var}", param="prior_var")
    return GaussianBelief(np.zeros(n_features), prior_var * np.eye(n_features))


def _plus_diagonal(cov: np.ndarray, c: float) -> np.ndarray:
    """Add c to the diagonal of the fresh array ``cov`` in place and return it.

    Equal entry for entry to ``cov + c * np.eye(n)``, whose off-diagonal +0.0
    changes no value, without building an n x n identity on every step.
    """
    cov.flat[:: cov.shape[0] + 1] += c
    return cov


def predict_step(belief: GaussianBelief, dynamics: Dynamics) -> GaussianBelief:
    """Propagate the belief one step (identity returns ``belief``); the result stays exactly symmetric."""
    if dynamics == _IDENTITY:
        return belief
    mean = dynamics.mean_scale * belief.mean + dynamics.shift
    return GaussianBelief(mean, _plus_diagonal(dynamics.cov_scale * belief.cov, dynamics.noise))


def update_step(belief: GaussianBelief, phi: np.ndarray, y: float, noise_var: float):
    """Conjugate scalar-observation update; returns (belief, pred_loglik).

    The predictive log density is evaluated before conditioning, i.e. it is
    log N(y | phi^T mean, phi^T cov phi + noise_var) of the incoming belief.
    The covariance update is the optimal-gain rank-one downdate of
    ``linalg.scalar_update``, returned exactly symmetric.
    """
    if noise_var <= 0.0:
        raise ConfigurationError(f"noise_var must be positive, got {noise_var}", param="noise_var")
    if not np.isfinite(y):
        raise DataError(f"non-finite observation {y!r}")
    phi = np.asarray(phi, dtype=float).ravel()
    if phi.shape[0] != belief.dim:
        raise ShapeError(f"feature vector has length {phi.shape[0]}, belief has {belief.dim}")

    mean, cov, pred_mean, pred_var = scalar_update(belief.mean, belief.cov, phi, y, noise_var)
    return GaussianBelief(mean, cov), gaussian_loglik(y, pred_mean, pred_var)


def predict_f(belief: GaussianBelief, phi: np.ndarray):
    """Latent predictive (mean, var) of f = phi^T theta; noise-free."""
    phi = np.asarray(phi, dtype=float).ravel()
    if phi.shape[0] != belief.dim:
        raise ShapeError(f"feature vector has length {phi.shape[0]}, belief has {belief.dim}")
    mean = float(phi @ belief.mean)
    var = float(phi @ belief.cov @ phi)
    return mean, var


def static_batch_posterior(Phi: np.ndarray, y: np.ndarray, noise_var: float, prior_var: float) -> GaussianBelief:
    """Batch conjugate posterior for the static model, in information form.

    Algebraically identical to folding the rows of (Phi, y) through
    update_step one at a time; one O(F^3) solve instead of T rank-one
    updates, which matters for large feature counts.
    """
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if noise_var <= 0.0:
        raise ConfigurationError(f"noise_var must be positive, got {noise_var}", param="noise_var")
    n_feat = Phi.shape[1]
    prec = Phi.T @ Phi / noise_var + np.eye(n_feat) / prior_var
    L, _ = chol_jitter(prec, scale=1.0 / prior_var)
    cov, info = lapack.dpotri(L, lower=1)  # inverse from the factor, lower triangle
    if info != 0:
        raise NumericalError(f"dpotri failed with info={info}")
    cov = np.tril(cov) + np.tril(cov, -1).T
    mean = cov @ (Phi.T @ y / noise_var)
    return GaussianBelief(mean, cov)


# ---------------------------------------------------------------------------
# Non-conjugate likelihoods via a 1-D Laplace step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Likelihood:
    """Scalar likelihood p(y | f) with first and second log-derivatives in f."""

    name: str
    loglik: callable
    d1: callable
    d2: callable
    in_support: callable  # y -> bool
    support: str


def _sigmoid(f):
    return np.where(f >= 0, 1.0 / (1.0 + np.exp(-f)), np.exp(f) / (1.0 + np.exp(f)))


BERNOULLI_LOGIT = Likelihood(
    name="bernoulli_logit",
    loglik=lambda y, f: y * f - np.logaddexp(0.0, f),
    d1=lambda y, f: y - _sigmoid(f),
    d2=lambda y, f: -_sigmoid(f) * (1.0 - _sigmoid(f)),
    in_support=lambda y: y in (0.0, 1.0),
    support="0 or 1",
)

POISSON_LOG = Likelihood(
    name="poisson_log",
    loglik=lambda y, f: y * f - np.exp(f) - math.lgamma(y + 1.0),
    d1=lambda y, f: y - np.exp(f),
    d2=lambda y, f: -np.exp(f),
    in_support=lambda y: y >= 0.0 and float(y).is_integer(),
    support="a nonnegative integer",
)

LIKELIHOODS = {lik.name: lik for lik in (BERNOULLI_LOGIT, POISSON_LOG)}

NEWTON_MAX_ITER = 25
NEWTON_TOL = 1e-9
NEWTON_MAX_STEP = 5.0


def laplace_1d(prior_mean: float, prior_var: float, y: float, lik: Likelihood):
    """Mode and curvature of p(f) propto p(y|f) N(f | prior_mean, prior_var).

    Newton iteration from the prior mean, tolerance 1e-9 on f, at most 25
    iterations.  Returns (f_hat, curvature) where curvature is the negative
    second derivative of the log posterior at the mode.
    """
    if not prior_var > 0.0 or not np.isfinite(prior_var):
        raise NumericalError(f"prior variance on f must be finite and positive, got {prior_var}")
    f = prior_mean
    for _ in range(NEWTON_MAX_ITER):
        g = float(lik.d1(y, f)) - (f - prior_mean) / prior_var
        h = float(lik.d2(y, f)) - 1.0 / prior_var  # < 0: both likelihoods are log-concave
        step = -g / h
        step = max(-NEWTON_MAX_STEP, min(NEWTON_MAX_STEP, step))
        f_new = f + step
        if abs(f_new - f) < NEWTON_TOL:
            f = f_new
            break
        f = f_new
    else:
        raise NumericalError(
            f"Newton did not converge in {NEWTON_MAX_ITER} iterations", detail={"last_iterate": f}
        )
    curvature = 1.0 / prior_var - float(lik.d2(y, f))
    return f, curvature


def update_nonconjugate(belief: GaussianBelief, phi: np.ndarray, y: float, likelihood: str):
    """Laplace update for a non-Gaussian observation; returns (belief, approx_loglik).

    The F-dimensional problem collapses to the 1-D marginal of f = phi^T
    theta (exact for a rank-one observation).  The mode and curvature of the
    1-D posterior become an effective Gaussian pseudo-observation, which is
    then applied with the ordinary conjugate update.  The returned log
    density is the Laplace approximation of log p(y | past), not an exact
    predictive score.
    """
    if likelihood not in LIKELIHOODS:
        raise ConfigurationError(f"unknown likelihood {likelihood!r}; choose from {sorted(LIKELIHOODS)}")
    lik = LIKELIHOODS[likelihood]
    if not lik.in_support(y):
        raise DataError(f"{likelihood} needs y to be {lik.support}, got {y!r}")
    m0, v0 = predict_f(belief, phi)
    f_hat, curvature = laplace_1d(m0, v0, y, lik)

    # pseudo-observation with the same score and curvature as the likelihood
    d2 = float(lik.d2(y, f_hat))
    if not d2 < 0.0 or not np.isfinite(f_hat - float(lik.d1(y, f_hat)) / d2):
        # curvature underflow in the far tail (|f_hat| beyond ~745)
        raise NumericalError(
            f"likelihood curvature vanished at the mode f_hat={f_hat:.6g}",
            detail={"last_iterate": f_hat},
        )
    pseudo_var = -1.0 / d2
    pseudo_y = f_hat - float(lik.d1(y, f_hat)) / d2
    updated, _ = update_step(belief, phi, pseudo_y, pseudo_var)

    approx_loglik = (
        float(lik.loglik(y, f_hat))
        + gaussian_loglik(f_hat, m0, v0)
        + 0.5 * math.log(2.0 * math.pi / curvature)
    )
    return updated, approx_loglik
