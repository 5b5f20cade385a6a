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
``predict`` adds Q = P_inf - A P_inf A^T without forming it, for one state
or a stack of states, and Kalman filtering and Rauch-Tung-Striebel smoothing
give exact GP inference in O(N d^3).  The rows at one timestamp are one
vector measurement: ``MarkovStepper.step`` conditions on a block of them at
once (one Cholesky factor of the block's innovation covariance), the blocks
being runs of equal timestamps split every ``UPDATE_BLOCK_ROWS`` rows
(``block_bounds``, the one partition of a stream into blocks, which every
block route of the CLI's runners merges up to its own ``block_rows``), and
``kalman_filter`` and the CLI's runner hand them to ``step`` in turn through
the one block loop ``linalg.run_blocks``: a block that fails at a row (a
failed pivot, an observation row out of range, an infinite y) runs the rows
before it as a block and the row alone, so only a one-row failure raises.
A block of one row is the observe -> condition hand-off of every filter
route: the stepper's ``predict_obs`` returns the observe triple (h^T m, h^T
s, s) and its ``update`` hands it to ``linalg.condition``, the one scored
update.  The filter record keeps only the filtered moments, one row per distinct
timestamp; the smoother walks back over those time steps in blocks, forms
each block's transitions from the stored timestamps, recomputes the
predicted moments with the forward pass's ``predict``, solves for all of the
block's gains at once, and overwrites the filtered moments with the smoothed
ones: three matrix products a step.  ``scipy.linalg.expm`` stays the
reference that the tests and ``seqgp check`` compare ``transition`` against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import block_diag, solve_continuous_lyapunov

from .errors import ConfigurationError, DataError, NumericalError, UnsupportedKernelError
from .kernels import Kernel, as_points, gram, hida_matern_components
from .linalg import chol_jitter, condition, condition_block, fold_state, run_blocks, symmetrize

@dataclass(frozen=True)
class LtiSde:
    """Continuous-time model: drift F (d,d), noise loading L (d,m), diffusion
    spectral density q (m,m), observation rows H (n_obs,d), stationary P_inf.

    ``basis`` (d*d, 4*n_blocks) holds the flattened transition basis, zero
    outside each block: columns 2j and 2j+1 are I and J of block j, and
    columns 2(n_blocks+j) and 2(n_blocks+j)+1 are its N and NJ.  ``poles``
    holds each block's -lambda + i b (decay lambda, rotation rate b).  A model
    built by hand without them has no closed-form transition.  ``obs_entries``
    is derived from ``obs``, for every model however it was built.
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

    @cached_property
    def obs_entries(self) -> tuple:
        """(positions, weights), each (n_obs, r): the columns and values of each
        observation row's nonzero entries, in column order, r the most that any
        row has.  A shorter row repeats its first position with weight 0.0, and
        an all-zero row reads position 0 with weight 0.0.  A space-time row,
        kron(I, [1, 0]), has one entry; a Hida-Matern row has one per component."""
        nonzero = self.obs != 0.0
        count = nonzero.sum(axis=1)
        positions = np.argsort(~nonzero, axis=1, kind="stable")[:, :max(1, count.max(initial=0))]  # nonzero first
        pad = np.arange(positions.shape[1]) >= count[:, None]
        positions = np.where(pad, positions[:, :1], positions)
        return positions, np.where(pad, 0.0, np.take_along_axis(self.obs, positions, axis=1))


@dataclass(frozen=True)
class DiscreteStep:
    transition: np.ndarray  # A = expm(F * dt), in closed form
    noise_cov: np.ndarray  # Q, symmetric PSD


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
    comps = hida_matern_components(kernel)
    if comps is None:
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


def transition(sde: LtiSde, delta) -> np.ndarray:
    """A = expm(F * delta) in closed form, for any real ``delta``.

    Block by block A is exp(-lambda delta) (I + N delta) (cos(b delta) I +
    sin(b delta) J), so the whole matrix is ``sde.basis`` times the weights
    {1, delta} exp(-lambda delta) {cos, sin}(b delta), and the cos/sin pair
    of a block is the real/imaginary pair of exp(pole * delta): one complex
    exponential and one matrix-vector product, whatever the number of
    blocks.  A zero step gives A = I exactly, and a block whose exp(-lambda delta)
    underflows weight 0 (its limit, also where lambda delta overflows).  A 1-D
    array of N steps gives the (N, d, d) stack, row k bit-equal to
    ``transition(sde, delta[k])``: each row goes through the same matrix-vector product.
    """
    if sde.basis is None:
        raise ConfigurationError("the state-space model has no closed-form transition basis")
    z = np.asarray(delta, dtype=float)
    z = z[:, None] if z.ndim else z  # one step per row; a scalar stays 0-d
    with np.errstate(over="ignore", invalid="ignore"):  # (cos, sin) pairs, block by block
        rotated = np.where(np.exp(z * sde.poles.real) == 0.0, 0.0, np.exp(z * sde.poles)).view(float)
    weights = np.concatenate((rotated, z * rotated), axis=-1)
    d = sde.dim
    return (sde.basis @ weights[..., None]).reshape(z.shape[:1] + (d, d))


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


def predict(sde: LtiSde, A: np.ndarray, mean: np.ndarray, cov: np.ndarray):
    """Predicted moments over transition ``A``: (A mean, P_inf + A (cov - P_inf) A^T),
    which is A cov A^T + Q with Q = P_inf - A P_inf A^T, without forming Q.

    One state (A (d,d), mean (d,), cov (d,d)) or a stack of n ((n,d,d), (n,d),
    (n,d,d)).  A stacked ``np.matmul`` runs each matrix through the same BLAS
    call as the 2-D product, so stacked row k is bit-equal to the call on row k
    alone: the smoother's predicted moments are the forward pass's.
    """
    P = sde.stationary
    return (A @ mean[..., None])[..., 0], symmetrize(P + A @ (cov - P) @ A.swapaxes(-1, -2))


class MarkovStepper:
    """Streaming filter state: advance to a timestamp, then condition on the
    time step's observations.

    ``step`` is the one entry point: it takes a block of rows at one timestamp
    (``block_bounds``) and conditions on them as one vector measurement.
    ``kalman_filter`` and the CLI's runner hand it a stream's blocks in turn
    through ``linalg.run_blocks``.  Each step of nonzero length computes its
    transition in closed form, so memory does not grow with the number of
    distinct step lengths.  A zero-length step after the first row leaves the
    state untouched (A = I, Q = 0 is exact on a symmetric covariance).
    ``history_times`` (the stream's timestamps) allocates ``history``, a
    ``FilterResult`` with one row of moments per distinct timestamp that each
    block at that time overwrites: d^2 + d + 1 doubles per time, 3 per row.

    The stepper owns ``mean`` and ``cov``.  ``step`` and ``update`` condition
    both in place, and a zero-length ``advance`` leaves them as they are; an
    ``advance`` of nonzero length replaces them with new arrays.  Callers read
    them, copy what they keep, and never write them.  A history row is the
    only copy a step makes.  A block of one row is the observe -> condition
    hand-off of the linear and sparse routes: ``predict_obs`` returns the
    observe triple (h^T mean, h^T s, s), with s = cov h formed once through the
    row's entries (``LtiSde.obs_entries``), and ``update`` conditions on that
    triple (``linalg.condition``).  A longer block reads H through the same
    entries and factors the innovation covariance of its y-rows once
    (``_condition_block``, through ``linalg.condition_block``).
    """

    def __init__(self, sde: LtiSde, noise_var: float, history_times=None):
        if noise_var <= 0.0:
            raise ConfigurationError(f"noise_var must be positive, got {noise_var}", param="noise_var")
        self.sde, self.noise_var = sde, noise_var
        self.mean, self.cov = np.zeros(sde.dim), sde.stationary.copy()
        self.time: float | None = None
        self.history: FilterResult | None = None
        self.rows_written = 0
        if history_times is not None:
            t = np.asarray(history_times, dtype=float).ravel()
            n, m, d = t.size, min(t.size, 1 + np.count_nonzero(np.diff(t))), sde.dim
            self.history = FilterResult(np.empty(m), np.empty((m, d)), np.empty((m, d, d)), np.empty(n, dtype=int),
                                        np.empty(n, dtype=int), np.empty(n), 0.0)

    def advance(self, t: float, prepared: tuple | None = None) -> None:
        """Propagate the state to time ``t`` (finite, >= the current time).

        The predicted moments are ``predict``'s over the step's transition.
        ``prepared`` = (delta, A) is a transition the caller formed in advance
        (``transition(sde, delta)``); it is used when this step has length delta.
        """
        delta = 0.0 if self.time is None else t - self.time
        if not (math.isfinite(t) and math.isfinite(delta)):
            raise DataError(f"non-finite timestamp or step ({self.time} -> {t})")
        if delta < 0.0:
            raise DataError(f"timestamps decrease ({self.time} -> {t})")
        if delta == 0.0 and self.time is not None:
            return
        A = prepared[1] if prepared is not None and prepared[0] == delta else transition(self.sde, delta)
        self.mean, self.cov = predict(self.sde, A, self.mean, self.cov)
        self.time = t

    def predict_obs(self, row: int = 0):
        """One observe step through row ``row`` of ``sde.obs``: (h^T mean, h^T s, s),
        the latent predictive mean and variance and s = cov h, for an ``update``
        of this state.  Formed from the row's r entries (``LtiSde.obs_entries``):
        s gathers rows of cov (equal to its columns, as cov is bit-symmetric),
        and h^T mean and h^T s read only those entries.  A model with r = 1 makes
        s the scaled row w_i cov[i], bit-equal to cov @ h.  A row outside
        [0, n_obs) is a DataError."""
        positions, weights = self.sde.obs_entries
        if not 0 <= row < len(positions):
            raise DataError(f"observation row {row} is not in [0, {len(positions)})")
        if positions.shape[1] == 1:
            i, wi = positions[row, 0], weights[row, 0]
            s = self.cov[i] * wi
            return float(self.mean[i] * wi), float(s[i] * wi), s
        idx, w = positions[row], weights[row]
        s = w @ self.cov[idx]
        return float(w @ self.mean[idx]), float(w @ s[idx]), s

    def update(self, y: float, observed) -> float:
        """Scalar Kalman update of the stepper's own state, in place, on the
        ``predict_obs`` triple of this state (``linalg.condition``); returns the
        predictive log density of y."""
        return condition(self.mean, self.cov, observed, y, self.noise_var)

    def step(self, t: float, ys, rows, prepared: tuple | None = None):
        """Advance to ``t`` (with ``advance``'s ``prepared`` transition) and condition
        on one block of rows at that time: ``ys`` (n,) their observations, NaN on a
        predict-only row, and ``rows`` (n,) their observation rows.  Returns three
        lists, each row's latent predictive mean and variance through its
        observation row given the y-rows before it, and the log density of its y
        (None on a predict-only row).  A block of one row is ``predict_obs`` and
        ``update``; a longer one is ``_condition_block``.  An error whose
        ``detail["row"]`` is p leaves the state advanced but unconditioned, so the
        block's rows before p, row p and the rest can each be conditioned on as
        a block of their own, as ``linalg.run_blocks`` does."""
        k, h, n = self.rows_written, self.history, len(ys)
        if h is not None:
            p = int(h.steps[k - 1]) if k else -1  # the record's last time row (``advance`` may have moved the clock)
            j = p + (p < 0 or t != h.times[p])  # this step's time row
            if k + n > h.steps.size or j == h.times.size:
                raise DataError(f"the history holds {h.steps.size} rows at {h.times.size} times; "
                                f"step {k + 1} does not fit")
        self.advance(t, prepared)
        if n == 1:
            y, observed = ys[0], self.predict_obs(rows[0])
            out = [observed[0]], [observed[1]], [None if y != y else self.update(y, observed)]
        else:
            out = self._condition_block(np.asarray(ys, dtype=float), np.asarray(rows, dtype=int))
        if h is not None:
            h.times[j], h.means[j], h.covs[j] = t, self.mean, self.cov
            for row, ll in zip(rows, out[2]):
                h.steps[k], h.obs_rows[k], h.logliks[k] = j, row, np.nan if ll is None else ll
                h.loglik_total += 0.0 if ll is None else ll  # left to right: sum() compensates on Python >= 3.12
                k += 1
            self.rows_written = k
        return out

    def _condition_block(self, ys: np.ndarray, rows: np.ndarray):
        """``step`` on a block of rows at the current time, as one vector measurement.

        With H the block's observation rows, the rows' latent values are a priori
        N(H m, H P H^T), and ``linalg.condition_block`` gives each row's
        prequential moments and log density, and L^-1 and z = L^-1 (y - H_y m)
        for the block's y-rows.  ``linalg.fold_state`` folds them into the state
        with cross term HP: G = L^-1 H_y P, m += G^T z and P -= G^T G, which
        stays bit-symmetric.  HP, H m and H P H^T are weighted sums over the
        rows' r gathered entries (``LtiSde.obs_entries``).  The block's first row whose
        observation row is out of range or whose y is infinite is a DataError,
        with the message that row gives alone, and a failed pivot is
        ``condition_block``'s NumericalError; each names its row of the block
        (``detail["row"]``) and is raised before the state changes.

        L^-1 comes from ``dtrtri``, at most ``UPDATE_BLOCK_ROWS`` square, so
        every product of size d runs in numpy's BLAS, as ``predict`` does.
        numpy and scipy each load their own OpenBLAS with its own thread pool; a
        d = 128 block that solved with scipy's ``dtrsm`` between numpy's
        products ran about 20 times slower with both pools threaded on 2 vCPUs.
        """
        positions, weights = self.sde.obs_entries
        n_obs = len(positions)
        bad_rows = (rows < 0) | (rows >= n_obs)
        bad = np.flatnonzero(bad_rows | np.isinf(ys))
        if bad.size:  # the block's first bad row, with the message that row gives alone
            p = int(bad[0])
            raise DataError(f"observation row {rows[p]} is not in [0, {n_obs})" if bad_rows[p]
                            else f"non-finite observation {float(ys[p])!r}", detail={"row": p})
        m, P = self.mean, self.cov
        idx, w = positions[rows].T, weights[rows].T  # (r, n): entry j of every row in row j
        HP, mu = P[idx[0]] * w[0, :, None], m[idx[0]] * w[0]
        for i, wi in zip(idx[1:], w[1:]):
            HP += P[i] * wi[:, None]
            mu += m[i] * wi
        C = HP[:, idx[0]] * w[0]
        for i, wi in zip(idx[1:], w[1:]):
            C += HP[:, i] * wi
        out = condition_block(mu, C, ys, self.noise_var)
        fold_state(m, P, out, HP[out.scored])
        return out.means, out.variances, out.logdensities

    def result(self) -> FilterResult:
        """The history rows written so far, as views of ``history`` (no copy)."""
        if self.history is None:
            raise ConfigurationError("the filter history requires history_times")
        h, n = self.history, self.rows_written
        m = int(h.steps[n - 1]) + 1 if n else 0
        return FilterResult(h.times[:m], h.means[:m], h.covs[:m], h.steps[:n], h.obs_rows[:n], h.logliks[:n],
                            h.loglik_total)


@dataclass
class FilterResult:
    """Filtered moments, one row per distinct timestamp (time step), each the
    moments after the time's last input row; ``steps`` maps each input row to
    its time's row.  What the smoother reads, and what ``emit_smoothed`` keeps.
    Step k's transition is ``transition(sde, times[k] - times[k - 1])`` and its
    predicted moments are ``predict`` of row k - 1 over it: neither is stored."""

    times: np.ndarray  # (T,) the distinct timestamps, increasing
    means: np.ndarray  # (T, d) filtered; smoothed after rts_smoother
    covs: np.ndarray  # (T, d, d)
    steps: np.ndarray  # (N,) each input row's time row
    obs_rows: np.ndarray  # (N,) index of the H row used per input row
    logliks: np.ndarray  # (N,) one-step predictive log densities (NaN if no y)
    loglik_total: float


# A time step's rows are conditioned in blocks of at most this many rows, counted
# from the step's first row: a block's products are (rows, d) and (rows, rows) arrays,
# so memory per block does not grow with the rows at one timestamp.
UPDATE_BLOCK_ROWS = 64


def block_bounds(t, n: int, min_rows: int) -> np.ndarray:
    """The first row of each block of a stream of n rows, then n.

    The stream's blocks are runs of rows with equal timestamps ``t`` (n,),
    split every ``UPDATE_BLOCK_ROWS`` rows counted from the run's first row,
    or every row when the stream has no timestamps (``t`` None); they are
    merged in order, from the first, until each has at least ``min_rows``
    rows (a last one may have fewer): a block ends at the first stream block
    start ``min_rows`` rows on, so it has fewer than ``min_rows +
    UPDATE_BLOCK_ROWS`` rows.  The partition depends on the stream alone: a
    slice that begins at one of its block starts, or a prefix, has the same
    blocks (a prefix's last one cut short)."""
    if t is None:
        return np.append(np.arange(0, n, min_rows), n)
    t = np.asarray(t, dtype=float)
    new = np.ones(n, dtype=bool)
    np.not_equal(t[1:], t[:-1], out=new[1:])  # a NaN differs from everything: it starts its own run
    first = np.flatnonzero(new)
    offset = np.arange(n) - np.repeat(first, np.diff(np.append(first, n)))  # each row's place in its run
    starts = np.flatnonzero(offset % UPDATE_BLOCK_ROWS == 0)
    if min_rows > 1 and starts.size:
        merged = [0]
        while (k := int(np.searchsorted(starts, merged[-1] + min_rows))) < starts.size:
            merged.append(int(starts[k]))
        starts = np.array(merged)
    return np.append(starts, n)


def kalman_filter(sde: LtiSde, times, values, noise_var: float, obs_rows=None) -> FilterResult:
    """Forward filter over an ordered stream of scalar observations.

    ``times`` must be finite and non-decreasing.  A NaN in ``values`` marks a
    predict-only step: the state advances to that time without a measurement
    update.  ``obs_rows`` selects which observation row of ``sde.obs`` each
    step uses (always row 0 for temporal models).  The rows go to
    ``MarkovStepper.step`` through ``linalg.run_blocks``, in the blocks of
    ``block_bounds`` that the CLI's runner steps, so the two give the same
    bits.  A row that the stepper rejects (its timestamp, its observation
    row, an infinite value or a failed one-row update) is its DataError or
    NumericalError, prefixed with ``step k: ``, k the rows run before it.
    Starts from the stationary law N(0, P_inf).  Under ties the result has
    fewer rows of times and moments than inputs: one per distinct timestamp.
    """
    t = np.asarray(times, dtype=float).ravel()
    y = np.asarray(values, dtype=float).ravel()
    if t.shape != y.shape:
        raise DataError(f"{t.size} timestamps but {y.size} values")
    rows = np.zeros(t.size, dtype=int) if obs_rows is None else np.asarray(obs_rows, dtype=int).ravel()
    if rows.shape != t.shape:
        raise DataError(f"{t.size} timestamps but {rows.size} observation rows")

    stepper = MarkovStepper(sde, noise_var, history_times=t)
    ts, ys, rs = t.tolist(), y.tolist(), rows.tolist()
    k = 0
    try:
        for _ in run_blocks(block_bounds(t, t.size, 1).tolist(),
                            lambda a, b: zip(*stepper.step(ts[a], ys[a:b], rs[a:b]))):
            k += 1
    except (DataError, NumericalError) as exc:
        exc.args = (f"step {k}: {exc}",)  # same class, now naming the step
        raise
    return stepper.result()


# The backward pass holds at most this many bytes of d x d matrices per stack
# (transitions, predicted covariances, gains, ...): 512 rows at d = 8, 2 at d = 128.
SMOOTH_BLOCK_BYTES = 256 * 1024


def _gains(Pp: np.ndarray, APf: np.ndarray, start: int) -> np.ndarray:
    """The stack of G_k^T = P_p^-1 A P_f, in one stacked solve.  A singular P_p
    is a NumericalError naming its step, start + j + 1 for stack row j; of
    several, the highest."""
    try:
        return np.linalg.solve(Pp, APf)
    except np.linalg.LinAlgError:
        for j in range(len(Pp) - 1, -1, -1):
            try:
                np.linalg.solve(Pp[j], APf[j])
            except np.linalg.LinAlgError:
                step = start + j + 1
                raise NumericalError(f"singular predicted covariance at step {step}", detail={"step": step}) from None
        raise


def rts_smoother(sde: LtiSde, result: FilterResult) -> FilterResult:
    """Backward Rauch-Tung-Striebel pass over a completed filter result, in place.

    The smoothed moments of step k are m_k = c_k + G_k m_{k+1} and P_k = D_k +
    G_k P_{k+1} G_k^T (Sarkka 2013, section 8.2, rearranged), where G_k = P_f
    A^T P_p^-1 is the gain, c_k = m_f - G_k m_p and D_k = P_f - G_k A P_f =
    P_f - G_k P_p G_k^T depend only on step k's filtered moments and its step
    to row k + 1, of nonzero length as the record has a row per timestamp.
    The pass walks back in blocks of at most ``SMOOTH_BLOCK_BYTES`` of d x d
    matrices.  A block forms the transitions in one ``transition`` call, the
    predicted moments in one stacked ``predict`` (bit-equal to the forward
    pass's), every A P_f in one stacked product, the gains in one stacked
    solve, and c and D; step k then takes three matrix products and two adds
    into its own row.  Returns ``result``, whose filtered moments are gone.  A
    singular predicted covariance is a NumericalError whose ``detail["step"]``
    is its time row; of several, the highest, which the pass meets first."""
    n = result.times.size
    means, covs = result.means, result.covs
    if any(len(moments) != n for moments in (means, covs)):
        raise DataError("filter result is missing the stored per-step moments")
    block = max(1, SMOOTH_BLOCK_BYTES // (8 * sde.dim**2))
    spread = np.empty((sde.dim, sde.dim))  # G_k P_{k+1}
    for stop in range(n - 1, 0, -block):  # smooth steps start..stop-1, whose filtered moments are intact
        start = max(stop - block, 0)
        A = transition(sde, np.diff(result.times[start:stop + 1]))  # row i: step start + i -> start + i + 1
        mf, Pf = means[start:stop], covs[start:stop]
        mp, Pp = predict(sde, A, mf, Pf)
        APf = A @ Pf
        Gt = _gains(Pp, APf, start)
        del A, Pp  # not read again: fewer of the block's stacks are alive at once
        G = np.swapaxes(Gt, -1, -2).copy()
        c = mf - (G @ mp[..., None])[..., 0]
        D = symmetrize(Pf - G @ APf)
        m_rows, P_rows = list(means[start:stop + 1]), list(covs[start:stop + 1])
        for i in range(stop - start - 1, -1, -1):  # the backward pass meets the last step first
            m, P = m_rows[i], P_rows[i]
            np.dot(G[i], P_rows[i + 1], spread)
            np.dot(spread, Gt[i], P)
            P += D[i]
            np.dot(G[i], m_rows[i + 1], m)
            m += c[i]
    return result


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
