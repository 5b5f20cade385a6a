"""Online combination of sequential models: Bayesian model averaging and stacking.

Both combiners maintain a simplex weight vector over K member models and
update it in place once per observation from the members' one-step
predictive log densities.  BMA adds them to the log-weights (the exact
evidence recursion); stacking takes one exponentiated-gradient ascent step
on the log mixture density with learning rate sqrt(ln K / t).  Both
renormalize in log space with a floor of -745 nats, so a member can be
driven to numerically-zero weight without producing NaNs, and both skip a
row on which every member density is zero.

A row is work on K Python floats.  Arrays remain where numpy's rounding is
the reference: the weights, the exp of the log-weights formed once per
update; the mixture moments, whose BLAS ``ddot`` sums in another order than
a float loop; and the exp-and-sum of ``logsumexp``, as numpy's SIMD ``exp``
rounds some inputs differently from ``math.exp``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError

LOG_FLOOR = -745.0  # just above log of the smallest subnormal double


@dataclass(eq=False)
class EnsembleState:
    """``log_weights``: K floats with logsumexp 0; ``weights``: their exp, a
    fresh array per update that is never mutated."""

    log_weights: list[float]
    combiner: str  # "bma" | "stacking"
    step_count: int = 0
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        self.weights = np.exp(self.log_weights)

    @property
    def n_members(self) -> int:
        return len(self.log_weights)


def logsumexp(a) -> float:
    """log(sum(exp(a))) of a 1-D sequence, bit for bit as scipy's logsumexp:
    log1p(sum(exp(a - a_max)) over the m non-maximal terms / m) + log(m) + a_max,
    falling back to log(sum(exp(a))) when that is not finite.

    The max, its count and the comparisons are float work.  The exp and its
    sum run in numpy over all of ``a``, with each maximal entry set to -inf in
    place: dropping those entries instead would change the pairwise order.
    """
    a_max = max(a)
    if math.isfinite(a_max):
        d = np.array(a, dtype=float)
        d -= a_max
        m = 0.0
        for i, v in enumerate(a):
            if v == a_max:
                d[i] = -math.inf
                m += 1.0
        s = np.exp(d, out=d).sum()
        out = np.log1p(s / m if s else s) + np.log(m) + a_max
        if math.isfinite(out):
            return float(out)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.log(np.sum(np.exp(np.asarray(a, dtype=float)))))


def _reweight(state: EnsembleState, log_w: list[float]) -> None:
    """Set the state's log-weights to ``log_w`` shifted by its max, floored at
    LOG_FLOOR and renormalized, and its weights to their exp."""
    top = max(log_w)
    log_w = [LOG_FLOOR if v < LOG_FLOOR else v for v in [v - top for v in log_w]]
    total = logsumexp(log_w)
    state.log_weights = [v - total for v in log_w]
    state.weights = np.exp(state.log_weights)


def _log_densities(state: EnsembleState, logliks) -> list[float]:
    ll = [float(v) for v in logliks]
    if len(ll) != state.n_members:
        raise DataError(f"got {len(ll)} log-likelihoods for {state.n_members} members")
    if any(v != v or v == math.inf for v in ll):
        raise DataError(f"log-likelihoods must be finite or -inf surrogates, got {ll}")
    return ll


def init_ensemble(n_members: int, combiner: str = "bma") -> EnsembleState:
    """Uniform prior weights 1/K."""
    if n_members < 1:
        raise ConfigurationError(f"need at least one member, got {n_members}")
    if combiner not in ("bma", "stacking"):
        raise ConfigurationError(f"unknown combiner {combiner!r}")
    return EnsembleState([-math.log(n_members)] * n_members, combiner)


def _no_density(state: EnsembleState, ll: list[float]) -> bool:
    """Whether every member density of the row is zero.  Such a row says
    nothing about the weights, so the caller skips its step; a warning records it."""
    if max(ll) > -math.inf:
        return False
    warnings.warn(f"all member densities are zero at step {state.step_count}; {state.combiner} step skipped")
    return True


def bma_update(state: EnsembleState, logliks) -> None:
    """Evidence recursion, in place: w_k <- w_k * exp(loglik_k), renormalized in
    log space.  If every density is zero the step is skipped with a warning record."""
    ll = _log_densities(state, logliks)
    state.step_count += 1
    if _no_density(state, ll):
        return
    _reweight(state, [w + v for w, v in zip(state.log_weights, ll)])


def stacking_update(state: EnsembleState, logliks) -> None:
    """One exponentiated-gradient step, in place, on w -> log sum_k w_k p_k
    with p_k = exp(loglik_k).

    The gradient is p / (w . p); the multiplicative update keeps the iterate
    on the simplex by construction.  The step is invariant to scaling every
    density, so p is taken relative to the best member: far-out members must
    not all underflow to 0.  If every density is zero the step is skipped
    with a warning record.

    When w . p is so small that 1 / (w . p) overflows or w . p underflows to 0,
    the best member's weight is at the floor and the step is so long that
    every member whose density is below the best one's, by one rounding unit
    or more, falls far more than the floor's 745 nats behind.  The step then
    keeps the log-weights of the members with the best density and floors
    the rest, which is its limit in exact arithmetic.
    """
    ll = _log_densities(state, logliks)
    t = state.step_count = state.step_count + 1
    if _no_density(state, ll):
        return
    top = max(ll)
    p = np.exp([v - top for v in ll])
    wp = float(state.weights @ p)
    if wp == 0.0 or 1.0 / wp == math.inf:  # p_k / wp <= 1 / wp, as the best p_k is 1
        _reweight(state, [w if v == top else -math.inf for w, v in zip(state.log_weights, ll)])
        return
    eta = math.sqrt(math.log(state.n_members) / t)
    _reweight(state, [w + g for w, g in zip(state.log_weights, (eta * (p / wp)).tolist())])


def mixture_predict(state: EnsembleState, means, variances):
    """Moments of the weight-mixed predictive distribution: (mean, var), with
    mean = sum w_k mu_k and var = sum w_k (s_k^2 + mu_k^2) - mean^2.
    """
    w = state.weights
    mu = np.array(means, dtype=float)
    var = np.array(variances, dtype=float)
    if mu.shape != w.shape or var.shape != w.shape:
        raise DataError("per-member moments must match the member count")
    mean = float(w @ mu)
    second = float(w @ (var + mu * mu))
    return mean, max(second - mean * mean, 0.0)
