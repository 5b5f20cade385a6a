"""Bayesian linear filtering over feature weights.

The model is y_t = phi(x_t)^T theta_t + noise with theta_k = a*theta_{k-1}
+ u + N(0, c*I): static (theta fixed), random walk (isotropic diffusion),
back-to-prior forgetting (geometric blend toward the prior) and the general
scalar autoregression with control input are settings of (a, u, c).
Both likelihoods share one step: ``observe_f`` forms s = P phi once and
``condition_in_place`` hands it to the package's one scored update,
``linalg.condition`` (P - s s^T / v as one BLAS call), which keeps a
bit-symmetric belief bit-symmetric over long streams.  Under the Gaussian
likelihood that call is the whole step.  A non-conjugate likelihood
(Bernoulli-logit, Poisson-log) enters the update as the Gaussian
pseudo-observation of a one-dimensional Laplace step on the marginal of
f_t = phi^T theta.

``runners.LinearRunner``, the route ``seqgp run`` ships, owns its belief:
it advances it with ``predict_in_place``, reads a predict-only row from
``predict_f_ahead`` and conditions a y-row with ``observe_f`` and
``condition_in_place``.  ``predict_step``, ``predict_f`` and
``update_step`` are that arithmetic on new beliefs, each one composition of
the shipped step, for library callers and ``seqgp check``; they never
modify their arguments.  The static model's batch posterior is
``exact.posterior`` under ``features.DegenerateKernel``, the function-space
form of the same conditioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, NumericalError, ShapeError
from .linalg import condition, gaussian_loglik, observe


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


def _predict_into(out: GaussianBelief, belief: GaussianBelief, dynamics: Dynamics) -> GaussianBelief:
    """Write the predicted moments of ``belief`` into the arrays of ``out``,
    which may be ``belief`` itself, and return ``out``.

    The noise goes onto the diagonal only: equal entry for entry to adding
    ``noise * np.eye(n)``, whose off-diagonal +0.0 changes no value, without
    building an n x n identity on every step.  The diagonal is a strided view
    of the flattened ``out.cov``, which must be C-contiguous.  A unit
    ``cov_scale`` (random walk, or ``general`` with a = +-1) skips the n x n
    multiply, as x * 1.0 == x for every double.
    """
    mean, cov = out.mean, out.cov
    np.multiply(belief.mean, dynamics.mean_scale, out=mean)
    mean += dynamics.shift
    if dynamics.cov_scale != 1.0:
        np.multiply(belief.cov, dynamics.cov_scale, out=cov)
    elif cov is not belief.cov:
        np.copyto(cov, belief.cov)
    cov.reshape(-1)[:: cov.shape[0] + 1] += dynamics.noise
    return out


def predict_step(belief: GaussianBelief, dynamics: Dynamics) -> GaussianBelief:
    """Propagate the belief one step (identity returns ``belief``); a bit-symmetric covariance stays so."""
    if dynamics == _IDENTITY:
        return belief
    return _predict_into(GaussianBelief(np.empty(belief.mean.shape), np.empty(belief.cov.shape)), belief, dynamics)


def predict_in_place(belief: GaussianBelief, dynamics: Dynamics) -> None:
    """``predict_step`` on a belief the caller owns, overwriting its mean and
    its covariance, which must be C-contiguous as for ``condition_in_place``."""
    if not belief.cov.flags.c_contiguous:
        raise ValueError("predict_in_place overwrites the covariance through a flat view: it must be C-contiguous")
    if dynamics != _IDENTITY:
        _predict_into(belief, belief, dynamics)


def update_step(belief: GaussianBelief, phi: np.ndarray, y: float, noise_var: float):
    """Conjugate scalar-observation update; returns (belief, pred_loglik).

    ``observe_f`` and ``condition_in_place`` applied to one fresh copy of the
    belief: the predictive log density is that of y under the incoming
    belief, and the new covariance is C-contiguous and bit-symmetric when
    ``belief.cov`` is.
    """
    if noise_var <= 0.0:
        raise ConfigurationError(f"noise_var must be positive, got {noise_var}", param="noise_var")
    observed = observe_f(belief, phi)
    updated = GaussianBelief(np.array(belief.mean, dtype=float), np.array(belief.cov, dtype=float, order="C"))
    return updated, condition_in_place(updated, observed, y, "gaussian", noise_var)


def observe_f(belief: GaussianBelief, phi: np.ndarray):
    """One observe step: the latent predictive (mean, var) of f = phi^T theta
    and s = cov phi, formed once (``linalg.observe``).  Pure."""
    phi = np.asarray(phi, dtype=float).ravel()
    if phi.shape[0] != belief.dim:
        raise ShapeError(f"feature vector has length {phi.shape[0]}, belief has {belief.dim}")
    return observe(belief.mean, belief.cov, phi)


def predict_f(belief: GaussianBelief, phi: np.ndarray):
    """Latent predictive (mean, var) of f = phi^T theta; noise-free."""
    mean, var, _ = observe_f(belief, phi)
    return mean, var


def predict_f_ahead(belief: GaussianBelief, dynamics: Dynamics, phi: np.ndarray):
    """``predict_f(predict_step(belief, dynamics), phi)`` without forming the
    predicted belief: from s = cov phi, one matvec, the mean is mean_scale
    phi^T m + shift sum(phi) and the variance cov_scale phi^T s + noise phi^T
    phi.  Equal to that composition up to rounding, and bit-equal for static
    dynamics.  Pure."""
    mean, var, _ = observe_f(belief, phi)
    if dynamics == _IDENTITY:
        return mean, var
    return (dynamics.mean_scale * mean + dynamics.shift * float(phi.sum()),
            dynamics.cov_scale * var + dynamics.noise * float(phi @ phi))


def condition_in_place(belief: GaussianBelief, observed, y: float, likelihood: str, noise_var: float) -> float:
    """Condition a belief the caller owns on y, overwriting its mean and covariance.

    ``observed`` is ``observe_f(belief, phi)`` of this belief.  Under the
    Gaussian likelihood this is ``linalg.condition``, which returns the
    predictive log density of y; otherwise y enters as its
    ``laplace_observation``, whose pseudo-observation reuses the same s, and
    the Laplace approximation of the log density is returned.
    """
    if likelihood == "gaussian":
        return condition(belief.mean, belief.cov, observed, y, noise_var)
    pseudo_y, pseudo_var, approx_loglik = laplace_observation(observed[0], observed[1], y, likelihood)
    condition(belief.mean, belief.cov, observed, pseudo_y, pseudo_var)
    return approx_loglik


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
    if not 0.0 < prior_var < math.inf or 1.0 / prior_var == math.inf:
        raise NumericalError(f"prior variance on f must be finite, positive and of finite precision, got {prior_var}")
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


def laplace_observation(m0: float, v0: float, y: float, likelihood: str):
    """Gaussian pseudo-observation of y on f ~ N(m0, v0) under a non-conjugate likelihood.

    The mode and curvature of the 1-D posterior of f become an effective
    observation (pseudo_y, pseudo_var) with the same score and curvature as the
    likelihood.  Returns (pseudo_y, pseudo_var, approx_loglik), the last the
    Laplace approximation of log p(y | past), not an exact predictive score.
    """
    if likelihood not in LIKELIHOODS:
        raise ConfigurationError(f"unknown likelihood {likelihood!r}; choose from {sorted(LIKELIHOODS)}")
    lik = LIKELIHOODS[likelihood]
    if not lik.in_support(y):
        raise DataError(f"{likelihood} needs y to be {lik.support}, got {y!r}")
    f_hat, curvature = laplace_1d(m0, v0, y, lik)

    d2 = float(lik.d2(y, f_hat))
    if not d2 < 0.0 or not np.isfinite(f_hat - float(lik.d1(y, f_hat)) / d2):
        # curvature underflow in the far tail (|f_hat| beyond ~745)
        raise NumericalError(
            f"likelihood curvature vanished at the mode f_hat={f_hat:.6g}",
            detail={"last_iterate": f_hat},
        )
    pseudo_var = -1.0 / d2
    pseudo_y = f_hat - float(lik.d1(y, f_hat)) / d2
    approx_loglik = (
        float(lik.loglik(y, f_hat))
        + gaussian_loglik(f_hat, m0, v0)
        + 0.5 * math.log(2.0 * math.pi / curvature)
    )
    return pseudo_y, pseudo_var, approx_loglik
