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
vector measurement, a time step: runs of equal timestamps split every
``UPDATE_BLOCK_ROWS`` rows (``block_bounds`` with ``min_rows`` 1, the one
partition of a stream, which every block route of the CLI's runners merges
up to its own ``block_rows``).  ``MarkovStepper.step`` conditions on a block
of rows, and the one block loop ``linalg.run_blocks`` hands it each block in
turn: ``kalman_filter``, the per-time-step reference, one time step at a
time, and the CLI's runner the blocks of 64 rows or more that every Gaussian
runner uses.  Within a block, each time step of tied rows, and each lone
one-row step, advances to its time and conditions on its rows at once (one
Cholesky factor of their innovation covariance; a step of one row is the
observe -> condition hand-off of every filter route, ``predict_obs`` and
``update`` on ``linalg.condition``).  Each run of two or more consecutive
one-row time steps is conditioned as one vector measurement too, under the
prior that the SDE implies from the state before it: its rows' covariance is
the kernel that the SDE implies plus the part carried by the state's
covariance.  The kernel is semiseparable, so it is built from O(n) state
rows, not one transition per pair: each row's observation row is carried to
the midpoint of its segment of the run (``run_segments``: at most
``RUN_SPAN`` / decay long, so that the carried rows stay small), and the
kernel's lower triangle is their product, segment by segment, each earlier
segment's rows carried on to the next midpoint by one transition.  A block
that fails at a row (a failed pivot, an observation row out of range, an
infinite y, a timestamp that is not finite or decreases) leaves the stepper
as it was, and ``run_blocks`` runs the rows before it as a block and the row
alone, so only a one-row failure raises.

The filter record keeps one row of filtered moments per distinct timestamp,
written by the time steps and by each run at its last time, and, per run,
its rows' moments given the data to its end and the moments of the states it
started from and ended at; the time rows under a run are never written.  The
smoother walks back over the time steps between runs in blocks (it forms
their transitions from the stored timestamps, recomputes the predicted
moments with the forward pass's ``predict``, solves for all of the block's
gains at once, and overwrites the filtered moments with the smoothed ones:
three matrix products a step) and over each run in one block step.
``scipy.linalg.expm`` stays the reference that the tests and ``seqgp check``
compare ``transition`` against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import block_diag, solve_continuous_lyapunov

from .errors import ConfigurationError, DataError, NumericalError, SeqgpError, UnsupportedKernelError
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

    @cached_property
    def basis_rows(self) -> np.ndarray:
        """(d*K, d): row a*K + k is row a of basis matrix k, so ``basis_rows @ U``,
        reshaped (d, K, n), stacks B_k u_j for every basis matrix and column of U."""
        d = self.dim
        return np.ascontiguousarray(self.basis.reshape(d, d, -1).transpose(0, 2, 1).reshape(-1, d))


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
    d = sde.dim
    return (sde.basis @ _weights(sde, z)[..., None]).reshape(z.shape[:1] + (d, d))


def _weights(sde: LtiSde, z: np.ndarray) -> np.ndarray:
    """The weights of ``sde.basis`` in A = expm(F z): for steps z (..., 1), the
    (..., K) array {1, z} exp(-lambda z) {cos, sin}(b z), block by block."""
    with np.errstate(over="ignore", invalid="ignore"):  # (cos, sin) pairs, block by block
        rotated = np.where(np.exp(z * sde.poles.real) == 0.0, 0.0, np.exp(z * sde.poles)).view(float)
    return np.concatenate((rotated, z * rotated), axis=-1)


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
    rows observed there.

    ``step`` is the one entry point.  It takes a block of rows and conditions
    on its time steps (``block_bounds`` of its timestamps) in turn: a time
    step of tied rows, or a lone one-row step, at its own time (``advance``,
    then ``predict_obs`` and ``update`` for one row or ``_condition_block``
    for more), and each run of two or more consecutive one-row time steps at
    once, under the prior that the SDE implies from the state before it
    (``_run``).  ``kalman_filter`` hands it one time step at a time, the
    per-time-step reference, and the CLI's runner the blocks of
    ``block_bounds`` with ``UPDATE_BLOCK_ROWS`` rows, both through
    ``linalg.run_blocks``.  A block that raises leaves the state, the clock
    and the record as they were before it.  Each step of nonzero length
    computes its transition in closed form, so memory does not grow with the
    number of distinct step lengths.  A zero-length step after the first row
    leaves the state untouched (A = I, Q = 0 is exact on a symmetric
    covariance).

    ``history_times`` (the stream's timestamps) allocates ``history``, a
    ``FilterResult`` with one row of moments per distinct timestamp and 3
    values per input row.  A time step writes its time row (a tie overwrites
    it), so the row holds the moments after the time's last input row.  A run
    writes only the time row of its last row and appends a ``RunRecord``: 2 + d
    values per row and five arrays of at most d^2 for the run, from which the
    smoother gets its rows and its start state.  The time rows under a run are
    never written, so their pages are never touched.

    The stepper owns ``mean`` and ``cov``.  A time step conditions both in
    place, and a zero-length ``advance`` leaves them as they are; an
    ``advance`` of nonzero length and a run replace them with new arrays.
    Callers read them, copy what they keep, and never write them.  A block of
    one row is the observe -> condition hand-off of the linear and sparse
    routes: ``predict_obs`` returns the observe triple (h^T mean, h^T s, s),
    with s = cov h formed once through the row's entries
    (``LtiSde.obs_entries``), and ``update`` conditions on that triple
    (``linalg.condition``).  A longer time step reads H through the same
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

    def advance(self, t: float) -> None:
        """Propagate the state to time ``t`` (finite, >= the current time): the
        predicted moments are ``predict``'s over the step's transition."""
        delta = 0.0 if self.time is None else t - self.time
        if not (math.isfinite(t) and math.isfinite(delta)):
            raise DataError(f"non-finite timestamp or step ({self.time} -> {t})")
        if delta < 0.0:
            raise DataError(f"timestamps decrease ({self.time} -> {t})")
        if delta == 0.0 and self.time is not None:
            return
        self.mean, self.cov = predict(self.sde, transition(self.sde, delta), self.mean, self.cov)
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

    def step(self, t, ys, rows):
        """Condition on one block of rows: ``ys`` (n,) their observations, NaN on a
        predict-only row, ``rows`` (n,) their observation rows, and ``t`` their
        timestamp (a float), or a sequence of n timestamps, one per row.
        Returns three lists, each row's latent predictive mean and variance
        through its observation row given the y-rows before it, and the log
        density of its y (None on a predict-only row).

        Rows at one timestamp are one time step, conditioned by ``_time_step``;
        per-row timestamps are split into time steps by ``block_bounds``, and
        each run of two or more consecutive one-row time steps is one ``_run``.  A block that raises leaves the state, the clock
        and the record as they were before it.  An error whose
        ``detail["row"]`` is p names the block's row at fault, so the rows
        before p, row p and the rest can each be conditioned on as a block of
        their own, as ``linalg.run_blocks`` does."""
        one_time = isinstance(t, (int, float))
        pieces = [(0, len(ys), False)] if one_time else self._pieces(t, len(ys))
        saved = self._state() if len(pieces) > 1 else None
        out = [], [], []
        for a, b, run in pieces:
            try:
                if run:
                    part = self._run(t[a:b], ys[a:b], rows[a:b])
                else:
                    part = self._time_step(t if one_time else t[a], ys[a:b], rows[a:b])
            except SeqgpError as exc:
                if a:  # a piece that raises has changed nothing: undo the pieces before it
                    self._restore(saved)
                    exc.detail = {**(exc.detail or {}), "row": a + (exc.detail or {}).get("row", 0)}
                raise
            if len(pieces) == 1:
                return part
            for values, more in zip(out, part):
                values += more
        return out

    def _pieces(self, ts, n: int) -> list:
        """(start, stop, run) for each time step of the block with timestamps ``ts``,
        with runs of two or more consecutive one-row time steps joined into one
        piece (run True).  A run starts from a state in the record: where
        ``advance`` moved the clock past the record's last time row, the run's
        first row is a time step of its own."""
        if n <= UPDATE_BLOCK_ROWS and len(set(ts)) == 1:  # one time step, as on a space-time grid
            return [(0, n, False)]
        bounds = block_bounds(ts, n, 1).tolist()
        pieces = []
        for a, b in zip(bounds, bounds[1:]):
            if b - a == 1 and pieces and pieces[-1][2]:  # one more one-row step
                pieces[-1][1] = b
            else:
                pieces.append([a, b, b - a == 1])
        pieces = [(a, b, ones and b - a > 1) for a, b, ones in pieces]
        h, k = self.history, self.rows_written
        if h is not None and pieces[0][2] and self.time is not None and (
                k == 0 or self.time != h.times[h.steps[k - 1]]):
            a, b, _ = pieces[0]
            pieces[:1] = [(a, a + 1, False), (a + 1, b, b - a > 2)]
        return pieces

    def _state(self) -> list:
        """What ``_restore`` needs to undo the pieces of a block: copies of the moments
        (a tie at the clock conditions them in place), the clock, and the record's
        row count, total, runs and a copy of its last time row (which such a tie
        overwrites)."""
        state = [self.mean.copy(), self.cov.copy(), self.time, self.rows_written]
        h = self.history
        if h is not None:
            p = int(h.steps[self.rows_written - 1]) if self.rows_written else -1
            state += [h.loglik_total, len(h.runs), (p, h.means[p].copy(), h.covs[p].copy()) if p >= 0 else None]
        return state

    def _restore(self, state: list) -> None:
        self.mean, self.cov, self.time, self.rows_written = state[:4]
        h = self.history
        if h is not None:
            h.loglik_total, runs, row = state[4:]
            del h.runs[runs:]
            if row is not None:
                p, h.means[p], h.covs[p] = row

    def _time_step(self, t: float, ys, rows):
        """``step`` on rows at one timestamp ``t``: advance to ``t``, then condition
        on them as one vector measurement.  A block of one row is ``predict_obs``
        and ``update``; a longer one is ``_condition_block``."""
        k, h, n = self.rows_written, self.history, len(ys)
        if h is not None:
            p = int(h.steps[k - 1]) if k else -1  # the record's last time row (``advance`` may have moved the clock)
            j = p + (p < 0 or t != h.times[p])  # this step's time row
            if k + n > h.steps.size or j == h.times.size:
                raise DataError(f"the history holds {h.steps.size} rows at {h.times.size} times; "
                                f"step {k + 1} does not fit")
        before = self.mean, self.cov, self.time
        self.advance(t)
        try:
            if n == 1:
                y, observed = ys[0], self.predict_obs(rows[0])
                out = [observed[0]], [observed[1]], [None if y != y else self.update(y, observed)]
            else:
                out = self._condition_block(np.asarray(ys, dtype=float), np.asarray(rows, dtype=int))
        except SeqgpError:  # raised before conditioning: undo the advance, which replaced the arrays
            self.mean, self.cov, self.time = before
            raise
        if h is not None:
            h.times[j], h.means[j], h.covs[j] = t, self.mean, self.cov
            for row, ll in zip(rows, out[2]):
                h.steps[k], h.obs_rows[k], h.logliks[k] = j, row, np.nan if ll is None else ll
                h.loglik_total += 0.0 if ll is None else ll  # left to right: sum() compensates on Python >= 3.12
                k += 1
            self.rows_written = k
        return out

    def _condition_block(self, ys: np.ndarray, rows: np.ndarray):
        """``_time_step`` on a block of rows at the current time, as one vector measurement.

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

    def _run(self, ts, ys, rows):
        """``step`` on a run of n >= 2 one-row time steps as one vector measurement.

        With x_s ~ N(m, P) the state at the clock t_s (the first row's time when
        the clock is unset), P_inf the stationary covariance and h_i row i's
        observation row, let b_i = A(t_i - t_s)^T h_i.  A priori the rows'
        latent values have means b_i^T m and covariances C_ij = kappa_ij + b_i^T
        (P - P_inf) b_j, where kappa_ij = h_i^T A(t_i - t_j) P_inf h_j for t_i >=
        t_j is the kernel that the SDE implies.  It is semiseparable: with the
        run cut into segments by ``run_segments`` and segment q anchored at its
        midpoint a_q, c_i = A(t_i - a_q)^T h_i and psi_j = A(a_q - t_j) P_inf h_j
        for the rows of segment q (``transition``'s weights at the steps to and
        from the anchor, times the basis products B_k^T h_i and B_k P_inf h_j),
        kappa_ij = c_i^T A(a_q - a_p) psi_j for row i in segment q and row j in
        segment p <= q.  So, segment by segment, the columns psi_j before segment
        q are carried to a_q by one transition and the rows c_i of segment q
        multiply them; the lower triangle is mirrored, its diagonal set to h_i^T
        P_inf h_i as it is, and B (P - P_inf) B^T added.  Within a segment
        lambda |t - a_q| <= ``RUN_SPAN`` / 2, lambda the largest decay rate of
        the model's blocks, so c_i and psi_j stay small and so does the
        rounding of their products.  ``linalg.condition_block`` conditions the
        rows; the state moves to the last row's time t_e in one ``predict`` over
        A(t_e - t_s), and ``linalg.fold_state`` folds the y-rows in with cross
        terms Cov(f_j, x_e) = (A(t_e - t_j) P_inf h_j)^T + b_j^T (P - P_inf)
        A(t_e - t_s)^T, the first the columns psi_j as carried to the last
        anchor, times A(t_e - a_last).  The rows are read through
        ``sde.obs_entries`` and B_k^T h_i through the basis, so the temporaries
        are O(n^2 + n d + d^2) arrays, times the K basis weights, and no (n, d,
        d) stack is formed.

        Every row's inputs are checked first: a finite timestamp at or after the
        one before it (the clock, for the first), an observation row in range,
        a y that is not infinite, and room in the record.  The first row that
        fails is a DataError naming it (``detail["row"]``), as a failed pivot is
        ``condition_block``'s NumericalError, each raised before the state
        changes.  With a history, the run appends its ``RunRecord``."""
        sde, h, k = self.sde, self.history, self.rows_written
        n, d = len(ts), sde.dim
        t, y, r = np.asarray(ts, dtype=float), np.asarray(ys, dtype=float), np.asarray(rows, dtype=int)
        start = t[0] if self.time is None else self.time
        positions, weights = sde.obs_entries
        n_obs = len(positions)
        with np.errstate(over="ignore", invalid="ignore"):
            before = np.concatenate(([start], t[:-1]))
            moves = np.isfinite(t - before) & (t >= before) & np.isfinite(t - start)
        fits, p = n, -1
        if h is not None:
            p = int(h.steps[k - 1]) if k else -1  # the record's last time row: the start state's
            first = p + (p < 0 or ts[0] != h.times[p])  # the first row's time row
            fits = min(h.steps.size - k, h.times.size - first)
        bad = ~moves | (r < 0) | (r >= n_obs) | np.isinf(y) | (np.arange(n) >= fits)
        if bad.any():  # the run's first bad row
            i = int(np.argmax(bad))
            prev = self.time if i == 0 else ts[i - 1]
            if not moves[i]:
                message = (f"timestamps decrease ({prev} -> {ts[i]})" if prev is not None and t[i] < prev
                           else f"non-finite timestamp or step ({prev} -> {ts[i]})")
            elif not 0 <= r[i] < n_obs:
                message = f"observation row {r[i]} is not in [0, {n_obs})"
            elif math.isinf(y[i]):
                message = f"non-finite observation {float(y[i])!r}"
            else:
                message = (f"the history holds {h.steps.size} rows at {h.times.size} times; "
                           f"step {k + i + 1} does not fit")
            raise DataError(message, detail={"row": i})

        m, P, Pinf = self.mean, self.cov, sde.stationary
        pos, w = positions[r], weights[r]  # (n, r): each row's entries
        basis = sde.basis.reshape(d, d, -1)  # [a, b, k] = B_k[a, b]
        HB = basis[pos[:, 0]] * w[:, :1, None]  # (n, d, K): B_k^T h_i
        U = Pinf[pos[:, 0]] * w[:, :1]  # (n, d): (P_inf h_i)^T, as P_inf is symmetric
        for e in range(1, pos.shape[1]):
            HB += basis[pos[:, e]] * w[:, e:e + 1, None]
            U += Pinf[pos[:, e]] * w[:, e:e + 1]
        bounds = run_segments(t, -sde.poles.real.min())
        lo, hi = bounds[:-1], bounds[1:]  # segment q: rows lo[q] to hi[q]
        anchor = t[lo] + 0.5 * (t[hi - 1] - t[lo])  # each segment's midpoint
        a = np.repeat(anchor, hi - lo)  # row i: its segment's anchor a_i
        W = _weights(sde, np.concatenate((t - start, t - a, a - t))[:, None]).reshape(3, n, -1)
        B, Ba = (HB @ W[:2, ..., None])[..., 0]  # rows b_i = A(t_i - t_s)^T h_i and A(t_i - a_i)^T h_i
        BU = (sde.basis_rows @ U.T).reshape(d, -1, n)  # [a, k, j] = (B_k P_inf h_j)_a
        X = np.einsum("akj,jk->aj", BU, W[2])  # column j: psi_j = A(a_j - t_j) P_inf h_j
        steps = transition(sde, np.concatenate((anchor[1:] - anchor[:-1], [t[-1] - anchor[-1], t[-1] - start])))
        kappa = np.empty((n, n))
        for q in range(lo.size):  # carry the columns before segment q to its anchor, then its rows
            if q:
                X[:, :lo[q]] = steps[q - 1] @ X[:, :lo[q]]
            kappa[lo[q]:hi[q], :hi[q]] = Ba[lo[q]:hi[q]] @ X[:, :hi[q]]
        C = np.where(np.tri(n, dtype=bool), kappa, kappa.T)  # the lower triangle, mirrored
        C.flat[::n + 1] = (U[np.arange(n)[:, None], pos] * w).sum(1)  # h_i^T P_inf h_i, as it is
        BD = B @ (P - Pinf)
        C += BD @ B.T
        A = steps[-1]  # A(t_e - t_s)
        cross = X.T @ steps[-2].T + BD @ A.T  # row j: Cov(f_j, x_e)
        mu = B @ m
        out = condition_block(mu, C, y, self.noise_var)
        mean, cov = predict(sde, A, m, P)
        fold_state(mean, cov, out, cross[out.scored])
        if h is not None:
            self._record_run(t, r, C, mu, B, cross, A, out, mean, cov, p)
        self.mean, self.cov, self.time = mean, cov, ts[-1]
        return out.means, out.variances, out.logdensities

    def _record_run(self, t, r, C, mu, B, cross, A, out, mean, cov, p: int) -> None:
        """Write a run to the history: its rows' time rows, the end state's time row,
        and its ``RunRecord``, from the run's prior (mu, C, the b_i in B and the
        cross terms), its end transition A and its conditioning ``out``.  With
        W = L^-1 C_Y, G_e = L^-1 Cov(f_Y, x_e) and G_s = L^-1 Cov(f_Y, x_s)
        (Cov(f_j, x_s) = b_j^T P), every row and the start state are conditioned
        on the run's y-rows: E[f | y] = mu + W^T z, Cov(f, x_e | y) = Cov(f,
        x_e) - W^T G_e, E[x_s | y] = m + G_s^T z, Cov(x_s | y) = P - G_s^T G_s
        and Cov(x_s, x_e | y) = P A^T - G_s^T G_e."""
        h, k, n = self.history, self.rows_written, len(t)
        m, P = self.mean, self.cov  # the start state
        Y = out.scored
        if Y.size:
            z, W, G_e, G_s = out.z, out.inverse @ C[Y], out.inverse @ cross[Y], out.inverse @ (B[Y] @ P)
        else:
            z, W, G_e, G_s = np.zeros(0), np.zeros((0, n)), np.zeros((0, m.size)), np.zeros((0, m.size))
        first = int(p + (p < 0 or t[0] != h.times[p]))
        end = first + n - 1
        h.times[first:end + 1] = t
        h.means[end], h.covs[end] = mean, cov
        h.steps[k:k + n], h.obs_rows[k:k + n] = np.arange(first, end + 1), r
        for i, ll in enumerate(out.logdensities):
            h.logliks[k + i] = np.nan if ll is None else ll
            h.loglik_total += 0.0 if ll is None else ll
        rows = np.column_stack((mu + z @ W, C.diagonal() - np.einsum("ij,ij->j", W, W)))
        h.runs.append(RunRecord(k, p if self.time is not None else -1, end, rows, cross - W.T @ G_e,
                                m + z @ G_s, P - G_s.T @ G_s, P @ A.T - G_s.T @ G_e, mean.copy(), cov.copy()))
        self.rows_written = k + n

    def result(self) -> FilterResult:
        """The history rows written so far, as views of ``history`` (no copy)."""
        if self.history is None:
            raise ConfigurationError("the filter history requires history_times")
        h, n = self.history, self.rows_written
        m = int(h.steps[n - 1]) + 1 if n else 0
        return FilterResult(h.times[:m], h.means[:m], h.covs[:m], h.steps[:n], h.obs_rows[:n], h.logliks[:n],
                            h.loglik_total, h.runs)


@dataclass
class RunRecord:
    """A run's share of the smoothing record (``MarkovStepper._run``).  x_s and x_e
    are the states the run started from and ended at, and y every observation up
    to its last row; given x_e, the run's rows and x_s are independent of every
    later observation, which is what ``rts_smoother`` uses."""

    first: int  # the run's first input row
    start: int  # the time row of x_s; -1 where x_s is the stationary prior at the stream's first row
    end: int  # the time row of x_e, the run's last row's
    rows: np.ndarray  # (n, 2) E[f_i | y] and Var(f_i | y); smoothed after rts_smoother
    cross: np.ndarray  # (n, d) Cov(f_i, x_e | y)
    start_mean: np.ndarray  # (d,) E[x_s | y]
    start_cov: np.ndarray  # (d, d) Cov(x_s | y)
    start_cross: np.ndarray  # (d, d) Cov(x_s, x_e | y)
    end_mean: np.ndarray  # (d,) E[x_e | y], the filtered moments after the run
    end_cov: np.ndarray  # (d, d) Cov(x_e | y)


@dataclass
class FilterResult:
    """Filtered moments, one row per distinct timestamp (time step), each the
    moments after the time's last input row; ``steps`` maps each input row to
    its time's row.  What the smoother reads, and what ``emit_smoothed`` keeps.
    Step k's transition is ``transition(sde, times[k] - times[k - 1])`` and its
    predicted moments are ``predict`` of row k - 1 over it: neither is stored.
    A run (``MarkovStepper._run``) writes only the time row of its last row;
    the moments of its rows and its start state are in its ``RunRecord``."""

    times: np.ndarray  # (T,) the distinct timestamps, increasing
    means: np.ndarray  # (T, d) filtered; smoothed after rts_smoother
    covs: np.ndarray  # (T, d, d)
    steps: np.ndarray  # (N,) each input row's time row
    obs_rows: np.ndarray  # (N,) index of the H row used per input row
    logliks: np.ndarray  # (N,) one-step predictive log densities (NaN if no y)
    loglik_total: float
    runs: list = field(default_factory=list)  # RunRecords in row order; none from kalman_filter


# A time step's rows are conditioned in blocks of at most this many rows, counted
# from the step's first row: a block's products are (rows, d) and (rows, rows) arrays,
# so memory per block does not grow with the rows at one timestamp.
UPDATE_BLOCK_ROWS = 64

# A run's prior is factored in segments of at most RUN_SPAN / lambda, lambda the largest
# decay rate -Re(pole) of the model's blocks (``run_segments``), each anchored at its
# midpoint: c_i = A(t_i - a)^T h_i and psi_j = A(a - t_j) P_inf h_j grow as exp(lambda |t - a|),
# while a phased block's rotation R(b tau) does not grow.  Their product's rounding grows
# with lambda |t - a|: over 64 rows of Matern-3/2 (unit variance and lengthscale) at steps of
# 0.3 x U(0.5, 1.5), the largest error of the prior covariance against a 30-digit kernel was
# 4e-16, 1e-15, 7e-15 and 3e-14 at 2, 4, 8 and 16, at phase 0 and phase 20 alike (2e-16 for a
# pair-by-pair prior).  Over 640 such rows at noise_var 0.1 the largest log-density error
# against a 40-digit exact GP was 9.1e-15 at 4 and 7.9e-14 at 8 (phase 20: 3.7e-14 and
# 1.8e-13, as its oscillating Gram amplifies the same errors), against 4.4e-15 and 2.0e-14
# pair by pair.  At 4 a segment of the benchmark's irregular stream (lambda times the span of
# a block of 64 rows is at most 6.3) is most often its whole run.
RUN_SPAN = 4.0


def run_segments(t: np.ndarray, decay: float) -> np.ndarray:
    """The first row of each segment of a run with increasing timestamps t, then
    len(t): the rows whose times lie in one cell of width ``RUN_SPAN`` / decay,
    counted from the first row's time.  A segment's rows are then within
    ``RUN_SPAN`` / (2 decay) of its midpoint, the anchor ``MarkovStepper._run``
    factors its prior at."""
    cell = np.floor(decay / RUN_SPAN * (t - t[0]))
    return np.concatenate(([0], np.flatnonzero(cell[1:] != cell[:-1]) + 1, [len(t)]))


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
    """Forward filter over an ordered stream of scalar observations, one time step
    at a time: the per-time-step reference that the runner's runs are tested against.

    ``times`` must be finite and non-decreasing.  A NaN in ``values`` marks a
    predict-only step: the state advances to that time without a measurement
    update.  ``obs_rows`` selects which observation row of ``sde.obs`` each
    step uses (always row 0 for temporal models).  The rows go to
    ``MarkovStepper.step`` through ``linalg.run_blocks`` one time step at a
    time (``block_bounds`` with ``min_rows`` 1), so the record has no runs: a
    row of moments per distinct timestamp.  A stream without one-row runs
    (every time step tied, as on a space-time grid) gives the runner's bits.
    A row that the stepper rejects (its timestamp, its observation row, an
    infinite value or a failed one-row update) is its DataError or
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

    The pass walks back over the record's time rows and runs.  Between runs
    (everywhere, in a record of ``kalman_filter``'s) it takes the time steps
    in blocks (``_smooth_steps``): the smoothed moments of step k are m_k = c_k
    + G_k m_{k+1} and P_k = D_k + G_k P_{k+1} G_k^T (Sarkka 2013, section 8.2,
    rearranged), where G_k = P_f A^T P_p^-1 is the gain, c_k = m_f - G_k m_p
    and D_k = P_f - G_k A P_f = P_f - G_k P_p G_k^T depend only on step k's
    filtered moments and its step to row k + 1, of nonzero length as the
    record has a row per timestamp.  A run takes one block step
    (``_smooth_run``) from its end state's smoothed moments to its rows' and
    its start state's, which it writes into the start state's time row.
    Returns ``result``, whose filtered moments are gone and whose runs hold
    their rows' smoothed moments.  A singular predicted covariance is a
    NumericalError whose ``detail["step"]`` is its time row; of several, the
    highest, which the pass meets first."""
    n = result.times.size
    if any(len(moments) != n for moments in (result.means, result.covs)):
        raise DataError("filter result is missing the stored per-step moments")
    block = max(1, SMOOTH_BLOCK_BYTES // (8 * sde.dim**2))
    stop = n - 1
    for run in reversed(result.runs):
        _smooth_steps(sde, result, run.end, stop, block)
        _smooth_run(result, run)
        stop = run.start
    _smooth_steps(sde, result, 0, stop, block)
    return result


def _smooth_steps(sde: LtiSde, result: FilterResult, first: int, last: int, block: int) -> None:
    """Smooth time rows first .. last - 1 from row ``last``'s smoothed moments.

    The pass walks back in blocks of at most ``SMOOTH_BLOCK_BYTES`` of d x d
    matrices.  A block forms the transitions in one ``transition`` call, the
    predicted moments in one stacked ``predict`` (bit-equal to the forward
    pass's), every A P_f in one stacked product, the gains in one stacked
    solve, and c and D; step k then takes three matrix products and two adds
    into its own row."""
    means, covs = result.means, result.covs
    spread = np.empty((sde.dim, sde.dim))  # G_k P_{k+1}
    for stop in range(last, first, -block):  # smooth steps start..stop-1, whose filtered moments are intact
        start = max(stop - block, first)
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


def _smooth_run(result: FilterResult, run: RunRecord) -> None:
    """The block step over a run, from the smoothed moments of its end state x_e
    (time row ``run.end``).  With Gamma = Cov(., x_e | y) P_e^-1, P_e the run's
    filtered end covariance, dm = m^s_e - m_e and dP = P^s_e - P_e, each row's
    mean gains Gamma_f dm and its variance Gamma_f dP Gamma_f^T, and the start
    state likewise with Gamma_s: given x_e, the run's rows and x_s are
    independent of every later observation.  A singular P_e is a
    NumericalError naming the end's time row."""
    means, covs, n = result.means, result.covs, len(run.rows)
    dm, dP = means[run.end] - run.end_mean, covs[run.end] - run.end_cov
    try:
        gains = np.linalg.solve(run.end_cov, np.concatenate((run.cross, run.start_cross)).T).T
    except np.linalg.LinAlgError:
        raise NumericalError(f"singular filtered covariance at step {run.end}", detail={"step": run.end}) from None
    G_f, G_s = gains[:n], gains[n:]
    run.rows[:, 0] += G_f @ dm
    run.rows[:, 1] += np.einsum("ij,ij->i", G_f @ dP, G_f)
    if run.start >= 0:
        means[run.start] = run.start_mean + G_s @ dm
        covs[run.start] = symmetrize(run.start_cov + G_s @ dP @ G_s.T)


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
