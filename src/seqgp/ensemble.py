"""Online combination of sequential models: Bayesian model averaging and stacking.

Both combiners maintain a simplex weight vector over K member models and
update it once per observation from the members' one-step predictive
scores.  BMA multiplies weights by per-member predictive likelihoods (the
exact evidence recursion); stacking takes one exponentiated-gradient ascent
step on the log mixture density with learning rate sqrt(ln K / t).

All weight arithmetic is done in log space with a floor of -745 nats before
renormalization, so a member can be driven to numerically-zero weight
without producing NaNs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DataError

LOG_FLOOR = -745.0  # just above log of the smallest subnormal double


@dataclass(frozen=True)
class EnsembleState:
    log_weights: np.ndarray  # (K,) normalized: logsumexp == 0
    combiner: str  # "bma" | "stacking"
    step_count: int = 0

    @property
    def n_members(self) -> int:
        return self.log_weights.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def logsumexp(a) -> float:
    """log(sum(exp(a))) of a 1-D array, bit for bit as scipy's logsumexp:
    log1p(sum(exp(a - a_max)) over the m non-maximal terms / m) + log(m) + a_max,
    falling back to log(sum(exp(a))) when that is not finite."""
    a = np.asarray(a, dtype=float)
    a_max = a.max()
    is_max = a == a_max
    m = float(np.count_nonzero(is_max))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max))
        out = np.log1p(s / m if s else s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def _normalize(log_w: np.ndarray) -> np.ndarray:
    log_w = log_w - np.max(log_w)
    log_w = np.maximum(log_w, LOG_FLOOR)
    return log_w - logsumexp(log_w)


def init_ensemble(n_members: int, combiner: str = "bma") -> EnsembleState:
    """Uniform prior weights 1/K."""
    if n_members < 1:
        raise ConfigurationError(f"need at least one member, got {n_members}")
    if combiner not in ("bma", "stacking"):
        raise ConfigurationError(f"unknown combiner {combiner!r}")
    return EnsembleState(np.full(n_members, -math.log(n_members)), combiner)


def bma_update(state: EnsembleState, logliks) -> EnsembleState:
    """Evidence recursion: w_k <- w_k * exp(loglik_k), renormalized in log space."""
    ll = np.asarray(logliks, dtype=float).ravel()
    if ll.shape[0] != state.n_members:
        raise DataError(f"got {ll.shape[0]} log-likelihoods for {state.n_members} members")
    if np.any(np.isnan(ll)) or np.any(ll == np.inf):
        raise DataError(f"log-likelihoods must be finite or -inf surrogates, got {ll}")
    return replace(state, log_weights=_normalize(state.log_weights + ll), step_count=state.step_count + 1)


def stacking_update(state: EnsembleState, densities) -> EnsembleState:
    """One exponentiated-gradient step on w -> log sum_k w_k p_k.

    The gradient is p / (w . p); the multiplicative update keeps the iterate
    on the simplex by construction.  If every density is zero the step is
    skipped with a warning record.
    """
    p = np.asarray(densities, dtype=float).ravel()
    if p.shape[0] != state.n_members:
        raise DataError(f"got {p.shape[0]} densities for {state.n_members} members")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise DataError(f"densities must be finite and nonnegative, got {p}")
    t = state.step_count + 1
    if np.all(p == 0.0):
        warnings.warn(f"all member densities are zero at step {t}; stacking step skipped")
        return replace(state, step_count=t)
    w = state.weights
    mix = float(w @ p)
    grad = p / mix
    eta = math.sqrt(math.log(state.n_members) / t)
    return replace(state, log_weights=_normalize(state.log_weights + eta * grad), step_count=t)


def mixture_predict(state: EnsembleState, means, variances):
    """Moments of the weight-mixed predictive distribution: (mean, var), with
    mean = sum w_k mu_k and var = sum w_k (s_k^2 + mu_k^2) - mean^2.
    """
    w = state.weights
    mu = np.asarray(means, dtype=float).ravel()
    var = np.asarray(variances, dtype=float).ravel()
    if mu.shape[0] != state.n_members or var.shape[0] != state.n_members:
        raise DataError("per-member moments must match the member count")
    mean = float(w @ mu)
    second = float(w @ (var + mu * mu))
    return mean, max(second - mean * mean, 0.0)
