"""Online combination of sequential models: Bayesian model averaging and stacking.

Both combiners maintain a simplex weight vector over K member models and
update it in place once per observation from the members' one-step
predictive log densities.  BMA adds them to the log-weights (the exact
evidence recursion); stacking takes one exponentiated-gradient ascent step
on the log mixture density with learning rate sqrt(ln K / t).  Both
renormalize in log space with a floor of -745 nats, so a member can be
driven to numerically-zero weight without producing NaNs, and both skip a
row on which every member density is zero.

The weight recursion is sequential: a row's step is work on K Python
floats (``_step``), the same for the one-row updates (``bma_update``,
``stacking_update``) and for a chunk (``log_weight_rows``, which runs it
silently).  Over a chunk, the weights are one exp of the (n + 1, K)
log-weights, and the mixture moments (``mixture_moments``) stacked BLAS
``ddot`` over (n, K) arrays, whose rows round as a row alone does; a float
loop sums in another order.  ``mixture_predict`` is ``mixture_moments`` of
one row.  ``logsumexp`` takes a row or the rows of an array; its
exp-and-sum runs in numpy, as numpy's SIMD ``exp`` rounds some inputs
differently from ``math.exp``.
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


def logsumexp(a):
    """log(sum(exp(a))) of a 1-D sequence (a float), or of each row of a 2-D
    array (an array), bit for bit as scipy's logsumexp of the row:
    log1p(sum(exp(a - a_max)) over the m non-maximal terms / m) + log(m) + a_max,
    falling back to log(sum(exp(a))) when that is not finite.

    The max, its count and the comparisons are float work.  The exp and its
    sum run in numpy over all of a row, with each maximal entry set to -inf in
    place: dropping those entries instead would change the pairwise order.
    Rows run one at a time: the weight recursion calls this on one row per
    scored row, and on one row of four the formula vectorised over rows took
    11.7 us against 4.5 us for this one (numpy 2.4, a shared 2-vCPU VM).
    """
    if isinstance(a, np.ndarray):
        if a.ndim > 1:
            return np.array([logsumexp(row) for row in a.tolist()])
        a = a.tolist()
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


def _normalized(log_w: list[float]) -> list[float]:
    """``log_w`` shifted by its max, floored at LOG_FLOOR and renormalized."""
    top = max(log_w)
    log_w = [LOG_FLOOR if v < LOG_FLOOR else v for v in [v - top for v in log_w]]
    total = logsumexp(log_w)
    return [v - total for v in log_w]


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


def _step(rule: str, log_w: list[float], ll: list[float], t: int) -> list[float] | None:
    """The log-weights after the t-th scored row, whose member log densities
    ``ll`` have passed ``_log_densities``, under ``rule`` ("bma" or
    "stacking"); None when every density is zero.  Such a row says nothing
    about the weights, so its step is skipped.

    BMA adds ``ll`` to the log-weights.  Stacking takes one exponentiated-
    gradient step on w -> log sum_k w_k p_k with p_k = exp(ll_k): the gradient
    is p / (w . p), and the multiplicative update keeps the iterate on the
    simplex by construction.  The step is invariant to scaling every density,
    so p is taken relative to the best member: far-out members must not all
    underflow to 0.  When w . p is so small that 1 / (w . p) overflows or
    w . p underflows to 0, the best member's weight is at the floor and the
    step is so long that every member whose density is below the best one's,
    by one rounding unit or more, falls far more than the floor's 745 nats
    behind.  The step then keeps the log-weights of the members with the best
    density and floors the rest, which is its limit in exact arithmetic.
    """
    top = max(ll)
    if top == -math.inf:
        return None
    if rule == "bma":
        return _normalized([w + v for w, v in zip(log_w, ll)])
    p = np.exp([v - top for v in ll])
    wp = float(np.exp(log_w) @ p)
    if wp == 0.0 or 1.0 / wp == math.inf:  # p_k / wp <= 1 / wp, as the best p_k is 1
        return _normalized([w if v == top else -math.inf for w, v in zip(log_w, ll)])
    eta = math.sqrt(math.log(len(ll)) / t)
    return _normalized([w + g for w, g in zip(log_w, (eta * (p / wp)).tolist())])


def _update(state: EnsembleState, rule: str, logliks) -> None:
    ll = _log_densities(state, logliks)
    state.step_count += 1
    log_w = _step(rule, state.log_weights, ll, state.step_count)
    if log_w is None:
        warnings.warn(f"all member densities are zero at step {state.step_count}; {state.combiner} step skipped")
        return
    state.log_weights, state.weights = log_w, np.exp(log_w)


def bma_update(state: EnsembleState, logliks) -> None:
    """Evidence recursion, in place: w_k <- w_k * exp(loglik_k), renormalized in
    log space.  If every density is zero the step is skipped with a warning record."""
    _update(state, "bma", logliks)


def stacking_update(state: EnsembleState, logliks) -> None:
    """One exponentiated-gradient step, in place, with learning rate
    sqrt(ln K / t) (see ``_step``).  If every density is zero the step is
    skipped with a warning record."""
    _update(state, "stacking", logliks)


def log_weight_rows(state: EnsembleState, logliks: np.ndarray, scored: np.ndarray):
    """The weight recursion of ``state``'s combiner over a chunk's rows, as
    ``bma_update`` or ``stacking_update`` runs it on each scored row, but
    silent and leaving ``state`` as it is.  ``logliks`` (n, K) holds the
    member log densities of the rows marked in ``scored`` (n,).

    Returns the log-weights before the first row and after each row it ran,
    as lists (a row without a target, or one whose step is skipped, keeps
    them; the one-row update warns at that row), and the rows whose step is
    skipped.  It runs every row before the first scored row with a NaN or
    +inf log density, which the one-row update rejects at its row.
    """
    invalid = scored & (np.isnan(logliks) | (logliks == math.inf)).any(axis=1)
    ran = int(np.argmax(invalid)) if invalid.any() else len(scored)
    log_w, t = state.log_weights, state.step_count
    rows, skipped = [log_w], set()
    for i, (s, ll) in enumerate(zip(scored[:ran].tolist(), logliks[:ran].tolist())):
        if s:
            t += 1
            nxt = _step(state.combiner, log_w, ll, t)
            if nxt is None:
                skipped.add(i)
            else:
                log_w = nxt
        rows.append(log_w)
    return rows, skipped


def mixture_moments(weights: np.ndarray, means: np.ndarray, variances: np.ndarray):
    """Each row's moments of the weight-mixed predictive distribution, from
    C-contiguous (n, K) arrays: (mean, var), each (n,), with mean = sum w_k mu_k
    and var = max(sum w_k (s_k^2 + mu_k^2) - mean^2, 0).

    Each sum is a stacked matmul, which on C-contiguous rows is BLAS ``ddot``
    of the row, bit for bit as ``w @ mu`` of the row alone; a float loop or
    ``einsum`` sums in another order, and a transposed moment array moves
    some rows by one rounding unit.  The variance's last step does not warn
    on overflow, as the float arithmetic it replaces did not.
    """
    w = weights[:, None, :]
    mean = np.matmul(w, means[:, :, None])[:, 0, 0]
    second = np.matmul(w, (variances + means * means)[:, :, None])[:, 0, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        return mean, np.maximum(second - mean * mean, 0.0)


def mixture_predict(state: EnsembleState, means, variances):
    """Moments of the weight-mixed predictive distribution of one row: (mean,
    var), by ``mixture_moments``."""
    w = state.weights
    mu = np.array(means, dtype=float)
    var = np.array(variances, dtype=float)
    if mu.shape != w.shape or var.shape != w.shape:
        raise DataError("per-member moments must match the member count")
    mean, var = mixture_moments(w[None], mu[None], var[None])
    return float(mean[0]), float(var[0])
