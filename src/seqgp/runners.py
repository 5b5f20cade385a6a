"""Chunk-at-a-time model runners behind the streaming CLI.

Every runner follows one row protocol, and ``run_chunks`` drives it the way
``seqgp run`` does.  A chunk ends at a block start of the runner's partition
(``block_bounds``): the stream's blocks (``markovian.block_starts``: runs of
equal timestamps, split every ``UPDATE_BLOCK_ROWS`` rows; every row, without
timestamps) merged until each has at least the runner's ``block_rows`` rows:
``UPDATE_BLOCK_ROWS`` for the exact, sparse and vsgp runners and the
Gaussian linear runner, the members' largest for an ensemble, and 1
otherwise.  ``prepare(chunk)`` does the work that depends only on the
inputs of a chunk of rows (``Columns``) in one call (sparse projections,
feature rows, Markov transitions and observation rows, or the exact
runner's points) and starts, without running it, the chunk's row generator
over those arrays and ``chunk.y`` (NaN marks a predict-only row).
``step(record)``, one method for every runner, draws the record's row from
it: a record is its 1-based row and its chunk (``Columns.records``), and a
record of another chunk, or a row out of its turn, is a ValueError.  Each
row predicts at its input, scores the target if one is present, then (and
only then) folds the observation into the state, and adds its approximate
cost to ``flops``, the summary's count, as it is drawn; no other module
counts flops.  Rows without a target never change the belief; for the
Markovian models the state still advances to the row's timestamp (the
model is continuous in time).  The ensemble's generator steps each member
over the chunk through the member's own ``step``, then combines the chunk's
rows as arrays (``EnsembleRunner``).

Every Gaussian route conditions a block of rows as one vector measurement
when the block's first row is drawn: the block's latent values are a priori
jointly Gaussian, ``linalg.condition_block`` gives each row its prequential
moments and log density, and the runner folds the block's y-rows into its
state (``linalg.fold_state`` for the Markov, sparse and linear states; a row
panel of the Cholesky factor for the exact GP).  One block loop,
``linalg.run_blocks``, started by ``_RowRunner._start_blocks``, drives the
exact, sparse, linear and Markov runners with one failure rule: a block
that fails at a row (a failed pivot; kernel, projection or feature entries
that are not finite; an unknown location, an observation row out of range
or an infinite y) runs the rows before it as a block, the row alone, and
the rest as a new block, so only a one-row failure raises.  Row by row (a
Markov block of one row, and the linear runner under a Laplace likelihood
or where a block's powers overflow), ``linear_filter.observe_f`` or
``MarkovStepper.predict_obs`` forms (h^T m, h^T s, s) with s = P h once,
and a y-row hands that triple to ``linalg.condition``, the one scored update
(through ``linear_filter.condition_in_place``, which adds the Laplace step
of a non-Gaussian likelihood).  The pure functions of those modules are the
same arithmetic on new states, for library callers.

Runner construction happens after the whole input is parsed (the CLI reads
its CSV into columns up front), which lets the sparse models place inducing
inputs on the observed input quantiles, and the HSGP basis size its domain,
without peeking at any target value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from . import ensemble as ens
from . import features, linear_filter, markovian, sparse
from .config import (
    build_dynamics,
    build_kernel,
    get_bool,
    get_float,
    get_float_list,
    get_int,
    get_str,
    keyed,
    load_locations,
    member_configs,
)
from .errors import ConfigurationError, DataError, NumericalError, SeqgpError
from .kernels import kappa_of_distance
from .linalg import condition_block, fold_state, run_blocks


@dataclass(slots=True)
class StreamRecord:
    row: int  # 1-based data row in the input
    chunk: Columns = field(repr=False, compare=False)  # the Columns it was read from


@dataclass(frozen=True)
class Columns:
    """Rows ``first_row`` .. ``first_row + n - 1`` (1-based) of a stream as float
    columns: ``t`` (n,) and ``x`` (n, D), each None when the input has no such
    column, and ``y`` (n,), where NaN marks a predict-only row."""

    first_row: int
    t: np.ndarray | None
    x: np.ndarray | None
    y: np.ndarray

    def __len__(self) -> int:
        return self.y.shape[0]

    @property
    def points(self) -> np.ndarray:
        """Model inputs, one row each: the x rows, or the timestamps as 1-D points."""
        return self.x if self.x is not None else self.t[:, None]

    def rows(self, start: int, stop: int) -> Columns:
        """Rows [start, stop) counted from this block's first row, as views."""
        t = None if self.t is None else self.t[start:stop]
        x = None if self.x is None else self.x[start:stop]
        return Columns(self.first_row + start, t, x, self.y[start:stop])

    def records(self):
        """One ``StreamRecord`` per row, each tied to this block for ``step``."""
        return (StreamRecord(row, self) for row in range(self.first_row, self.first_row + len(self)))


@dataclass
class StepResult:
    mean: float
    var: float  # latent (noise-free) predictive variance
    logdensity: float | None  # one-step predictive log density of y, if scored
    weights: np.ndarray | None = None  # ensemble only: fresh per weight update, never mutated


class _RowRunner:
    """The row protocol: ``prepare`` starts the chunk's row generator, ``step`` draws from it."""

    block_rows = 1  # a block of the runner's partition has at least this many rows (``block_bounds``)
    _chunk: Columns | None = None

    def _start(self, chunk: Columns, results) -> None:
        self._chunk, self._next, self._results = chunk, chunk.first_row, results

    def _start_blocks(self, chunk: Columns, block, costs: list) -> None:
        """Start the chunk's rows as ``linalg.run_blocks`` over the runner's partition
        of the chunk (``block_bounds``), charged ``costs``; ``block(start, stop)`` is
        the runner's, and gives each of its rows' (mean, var, logdensity)."""
        rows = run_blocks(block_bounds(chunk.t, len(chunk), self.block_rows).tolist(), block)
        self._start(chunk, self._charged(rows, costs))

    def _charged(self, rows, costs: list):
        """Each row's (mean, var, logdensity) from ``rows``, charged its cost in ``flops``
        as it is drawn."""
        for (mean, var, ll), cost in zip(rows, costs):
            self.flops += cost
            yield StepResult(mean, var, ll)

    def step(self, rec: StreamRecord) -> StepResult:
        if rec.chunk is not self._chunk:
            raise ValueError(f"row {rec.row} is not a record of the chunk last prepared")
        if rec.row != self._next:
            raise ValueError(f"row {rec.row} is stepped out of order: the next row is row {self._next}")
        self._next += 1  # a row that raises is spent: the generator cannot run it again
        return next(self._results)


class ExactRunner(_RowRunner):
    """Exact GP grown a block of rows at a time by extending a Cholesky factor.

    The state is the lower factor L of K_oo + noise_var I over the n observed
    inputs X, and z = L^-1 y.  The rows are conditioned in blocks of 64 to 127
    rows (``block_bounds`` with ``block_rows``; a stream's last block may be
    shorter), a block when its first row is drawn.  With K_0 = k(X, block) and
    K_bb = k(block, block), one ``gram`` call each, the block forms
    V = L^-1 K_0 by forward substitution over the panels of L, and its rows'
    latent values are a priori N(V^T z, K_bb - V^T V), the diagonal being
    kappa(0) - ||V_i||^2.  ``linalg.condition_block`` conditions them on the
    block's y-rows Y as one vector measurement, each row's result its
    prequential one, and returns L_Y, the factor of the block's innovation
    covariance, and z_Y = L_Y^-1 (y_Y - mu_Y).  [V_Y^T, L_Y] is appended to L
    as a row panel, and z_Y to z.  A block without y-rows leaves the state as
    it is.

    A panel keeps V_Y^T and L_Y: about n^2 / 2 doubles in all, plus a square
    of at most 127 rows per panel; a block's temporaries (K_0, V and the
    Gram's) are O(n block_rows).  The forward substitution is one scipy
    ``dgemm`` and one ``dtrtrs`` per panel.  Two alternatives measured worse:
    multiplying by a stored L_Y^-1 failed a pivot that the triangular solve
    passes (an SE stream at spacing 1e-3, noise_var 1e-12, row 152 of 200),
    and a numpy GEMM between scipy's solves (numpy and scipy each have an
    OpenBLAS thread pool) made the loop about 2.5 times slower with both
    pools threaded on 2 vCPUs.  A row is charged the flops of a row grown
    alone against the observations before it: n^2 + 4n + 10.

    ``linalg.run_blocks`` drives the blocks.  A block fails at its first row
    whose kernel entries are not finite (its column of K_0, or its entry of
    K_bb against an earlier y-row of the block, which is a column of K_0 once
    the rows before it have run), or at a y-row whose pivot fails: the rows
    before it run as a block, the row as a block of one, and the rest as a
    new block; only a block of one raises.
    """

    block_rows = markovian.UPDATE_BLOCK_ROWS

    def __init__(self, kernel, noise_var: float):
        if noise_var <= 0.0:
            raise ConfigurationError(f"noise_var must be positive, got {noise_var}", param="noise_var")
        self.kernel = kernel
        self.kxx = float(kappa_of_distance(kernel, 0.0))  # kappa(x, x) at every x: the kernel is stationary
        self.noise_var = noise_var
        self.n = 0  # observations folded in
        self.inputs = np.zeros((0, 0))  # X, rows [:n] in use
        self.panels: list[tuple[np.ndarray, np.ndarray]] = []  # (V_Y^T, L_Y) per block, in row order
        self.z = np.zeros(0)  # L^-1 y, entries [:n] in use
        self.flops = 0
        self.approximate_loglik = False

    @property
    def factor(self) -> np.ndarray:
        """The lower factor L as a dense (n, n) array (a copy)."""
        L, a = np.zeros((self.n, self.n)), 0
        for off, diag in self.panels:
            b = a + diag.shape[0]
            L[a:b, :a], L[a:b, a:b] = off, diag
            a = b
        return L

    def prepare(self, chunk: Columns) -> None:
        """Nothing ahead but the points and the rows' costs: each block reads the factor
        that the blocks before it grew."""
        X, ys = chunk.points, chunk.y
        scored = ~np.isnan(ys)
        before = (self.n + np.cumsum(scored) - scored).tolist()  # the observations before each row
        self._start_blocks(chunk, lambda a, b: self._block(X[a:b], ys[a:b]), [k * k + 4 * k + 10 for k in before])

    def _block(self, X: np.ndarray, ys: np.ndarray):
        """Condition one block and grow the factor; its rows' results."""
        n, kxx = self.n, self.kxx
        K_bb = self.kernel.gram(X)
        K_0 = self.kernel.gram(self.inputs[:n], X) if n else np.zeros((0, len(X)))
        scored = ~np.isnan(ys)
        bad = ~np.isfinite(K_0).all(axis=0) | np.triu(~np.isfinite(K_bb) & scored[:, None], 1).any(axis=0)
        bad |= not math.isfinite(kxx)
        if bad.any():  # its first bad row: the rows before it run as a block, then it fails alone
            raise NumericalError("kernel has non-finite entries", detail={"row": int(np.argmax(bad))})
        V = self._solve(K_0)
        np.fill_diagonal(K_bb, kxx)
        out = condition_block(V.T @ self.z[:n], K_bb - V.T @ V, ys, self.noise_var)
        Y = out.scored
        if Y.size:
            self._append(X[Y], (V[:, Y].T, out.factor), out.z)
        return zip(out.means, out.variances, out.logdensities)

    def _solve(self, K_0: np.ndarray) -> np.ndarray:
        """V = L^-1 K_0 by forward substitution over the panels."""
        V, a = np.empty_like(K_0), 0
        for off, diag in self.panels:
            b = a + diag.shape[0]
            rhs = blas.dgemm(-1.0, off, V[:a], 1.0, K_0[a:b]) if a else K_0[a:b]  # K_0[a:b] - L[a:b, :a] V[:a]
            V[a:b] = lapack.dtrtrs(diag, rhs, lower=1)[0]
            a = b
        return V

    def _append(self, X: np.ndarray, panel: tuple, z: np.ndarray) -> None:
        n, m = self.n, len(X)
        if n + m > self.z.size:
            cap = max(2 * self.z.size, n + m)  # geometric growth: each row is copied O(1) times
            self.inputs = np.concatenate([self.inputs[:n].reshape(n, X.shape[1]), np.empty((cap - n, X.shape[1]))])
            self.z = np.concatenate([self.z[:n], np.empty(cap - n)])
        self.inputs[n : n + m] = X
        self.z[n : n + m] = z
        self.panels.append(panel)
        self.n = n + m


class LinearRunner(_RowRunner):
    """Basis-expansion filter with configurable weight dynamics and likelihood.

    ``prepare`` forms the chunk's feature rows in one ``featurize_many``.  The
    runner owns ``belief``.  Under the Gaussian likelihood it conditions a
    block of its partition (``block_rows`` rows or more) at once, on the
    block's first draw.  The dynamics theta -> a theta + u + N(0, c I) tick
    once per y-row, so a row's tick count tau is the number of y-rows up to
    and including it, or, on a predict-only row, the number before it plus
    one (its own tick, which the state never takes).  After tau ticks from
    the block's first state N(m, P), theta has mean a^tau m + s_tau and
    covariance cs^tau P + g_tau I, with cs = ``cov_scale`` and s_tau, g_tau
    accumulated through ``shift``, ``cov_scale`` and ``noise`` as the
    row-by-row predict does.  The rows' latent values are then jointly
    Gaussian with mean a^tau_i phi_i^T m + s_tau_i sum(phi_i) and
    Cov(f_i, f_j) = a^|tau_i - tau_j| phi_i^T (cs^t P + g_t I) phi_j, t =
    min(tau_i, tau_j); ``linalg.condition_block`` conditions them.  The
    state takes the block's K ticks in closed form and ``linalg.fold_state``
    folds the y-rows in, each y-row's cross term being Cov(theta_K, f_j) =
    a^(K - tau_j) (cs^tau_j P + g_tau_j I) phi_j.

    A block whose powers or moments overflow, and every row under a Laplace
    likelihood (``block_rows`` 1), run row by row: a y-row advances the
    belief in place, forms s = P phi once and conditions it in place
    (``linear_filter.predict_in_place``, ``observe_f``,
    ``condition_in_place``), and a predict-only row reads its moments from
    one matvec (``linear_filter.predict_f_ahead``).  A block fails at its
    first row whose feature row has a non-finite entry, as ``run_blocks``
    says.  Every row is charged 6 F^2 + 8 F flops."""

    def __init__(self, fmap, dynamics, noise_var: float, likelihood: str = "gaussian"):
        if likelihood == "gaussian" and noise_var <= 0.0:
            raise ConfigurationError(f"noise_var must be positive, got {noise_var}", param="noise_var")
        self.fmap = fmap
        self.dynamics = dynamics
        self.noise_var = noise_var
        self.likelihood = likelihood
        self.belief = linear_filter.init_belief(fmap.n_features, fmap.weight_prior_var)
        self.block_rows = markovian.UPDATE_BLOCK_ROWS if likelihood == "gaussian" else 1
        self._cost = 6 * fmap.n_features**2 + 8 * fmap.n_features
        self.flops = 0
        self.approximate_loglik = likelihood != "gaussian"

    def prepare(self, chunk: Columns) -> None:
        phis, costs = features.featurize_many(self.fmap, chunk.points), [self._cost] * len(chunk)
        if self.likelihood != "gaussian":
            self._start(chunk, self._charged(self._rows(phis, chunk.y), costs))
            return
        ys, bad = chunk.y, ~np.isfinite(phis).all(axis=1)
        self._start_blocks(chunk, lambda a, b: self._block(phis[a:b], ys[a:b], bad[a:b]), costs)

    def _rows(self, phis: np.ndarray, ys: np.ndarray):
        for phi, y in zip(phis, ys.tolist()):
            if math.isnan(y):  # pure query: the dynamics tick is tied to observation events
                yield *linear_filter.predict_f_ahead(self.belief, self.dynamics, phi), None
            else:
                linear_filter.predict_in_place(self.belief, self.dynamics)
                observed = linear_filter.observe_f(self.belief, phi)
                ll = linear_filter.condition_in_place(self.belief, observed, y, self.likelihood, self.noise_var)
                yield observed[0], observed[1], ll

    def _block(self, phis: np.ndarray, ys: np.ndarray, bad: np.ndarray):
        if bad.any():  # its first bad row: the rows before it run as a block, then it fails alone
            raise NumericalError("feature row has non-finite entries", detail={"row": int(np.argmax(bad))})
        dyn = self.dynamics
        scored = ~np.isnan(ys)
        tau = np.cumsum(scored) + ~scored  # each row's tick count
        K = int(np.count_nonzero(scored))  # the ticks the state takes
        apow, cpow, gam, shf = [1.0], [1.0], [0.0], [0.0]  # a^t, cs^t, g_t, s_t for t = 0 .. max(tau)
        for _ in range(int(tau.max())):
            apow.append(apow[-1] * dyn.mean_scale)
            cpow.append(cpow[-1] * dyn.cov_scale)
            gam.append(gam[-1] * dyn.cov_scale + dyn.noise)
            shf.append(shf[-1] * dyn.mean_scale + dyn.shift)
        if not all(map(math.isfinite, apow + cpow + gam + shf)):
            return self._rows(phis, ys)
        apow, cpow, gam, shf = (np.array(v) for v in (apow, cpow, gam, shf))
        m, P = self.belief.mean, self.belief.cov
        Y = np.flatnonzero(scored)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow runs the block row by row
            B = phis @ P  # row i: (P phi_i)^T, as P is symmetric
            t = np.minimum.outer(tau, tau)
            C = apow[np.abs(tau[:, None] - tau[None, :])] * (cpow[t] * (B @ phis.T) + gam[t] * (phis @ phis.T))
            mu = apow[tau] * (phis @ m) + shf[tau] * phis.sum(axis=1)
            lag = apow[K - tau[Y]]
            cross = (lag * cpow[tau[Y]])[:, None] * B[Y] + (lag * gam[tau[Y]])[:, None] * phis[Y]
        if not (np.isfinite(C).all() and np.isfinite(mu).all() and np.isfinite(cross).all()):
            return self._rows(phis, ys)
        out = condition_block(mu, C, ys, self.noise_var)
        if K:  # the block's K ticks, in closed form, then its y-rows
            m *= apow[K]
            m += shf[K]
            if cpow[K] != 1.0:
                P *= cpow[K]
            P.reshape(-1)[:: P.shape[0] + 1] += gam[K]
            fold_state(m, P, out, cross)
        return zip(out.means, out.variances, out.logdensities)


class MarkovRunner(_RowRunner):
    """Continuous-time state-space filter; optionally keeps history for smoothing.

    Every row carries ``t``, and ``x`` exactly when ``locations`` is given;
    ``cli.validate_stream_for_model`` checks the columns before any row.
    ``prepare`` stacks the transitions of the chunk's rows whose finite step
    (from the stepper's time for the first row) moves the clock in one
    ``markovian.transition`` call, looks up every row's observation row in one
    vectorised pass (the first location equal to its coordinates, else the
    nearest one within 1e-9 (1 + ||location||)), and starts the stepper's
    blocks (``block_starts``) through ``_start_blocks``.  A block whose first
    row has no location raises it; elsewhere in a block, such a row is out
    of range for the stepper.  A row is charged the flops of its own predict
    and update, as if stepped alone, and a block's first row the move if its
    transition was prepared, as the stream's first row is."""

    def __init__(self, sde, noise_var: float, locations=None, history_times=None):
        self.stepper = markovian.MarkovStepper(sde, noise_var, history_times=history_times)
        self.locations = locations  # (N_s, D) when spatiotemporal
        self._smoothed = False
        d = sde.dim  # a row's flops: its predict, 30d^3 more if it moves the clock (the first row does), its update
        self._costs = (4 * d**3 + 4 * d * d, 30 * d**3, 8 * d * d + 12 * d)
        self.flops = 0
        self.approximate_loglik = False

    def _location_rows(self, x: np.ndarray) -> np.ndarray:
        """Observation row of each input row of ``x`` (n, D), -1 where none is.  Norms
        are hypot reductions over coordinates scaled by an exact power of two c <=
        1 / (2 sqrt(D)): none squares a coordinate or overflows."""
        locs = self.locations
        exact = np.all(x[:, None, :] == locs[None, :, :], axis=2)  # (n, N_s)
        rows = np.where(exact.any(axis=1), np.argmax(exact, axis=1), -1)
        c = 0.5 ** math.ceil(math.log2(2.0 * math.sqrt(locs.shape[1])))
        miss, locs = np.flatnonzero(rows < 0), locs * c  # distances only for rows without an exact match
        dist = np.hypot.reduce(np.abs(x[miss, None, :] * c - locs[None, :, :]), axis=2)
        nearest = np.argmin(dist, axis=1)
        close = dist.min(axis=1) <= 1e-9 * (c + np.hypot.reduce(np.abs(locs[nearest]), axis=1))
        rows[miss] = np.where(close, nearest, -1)
        return rows

    def prepare(self, chunk: Columns) -> None:
        stepper, t = self.stepper, chunk.t
        prev = stepper.time
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite step is the stepper's DataError
            deltas = np.diff(t, prepend=t[:1] if prev is None else prev)
        moving = np.flatnonzero((deltas > 0.0) & (deltas < math.inf))
        steps = [None] * len(chunk)  # per row, (delta, A) of a step that moves the clock
        for i, delta, A in zip(moving.tolist(), deltas[moving].tolist(),
                               markovian.transition(stepper.sde, deltas[moving])):
            steps[i] = (delta, A)
        predict, move, update = self._costs
        costs = predict + update * ~np.isnan(chunk.y)  # per row: its predict, its update if it has a y
        costs[moving] += move  # and the move of a step that moves the clock
        if prev is None:
            costs[:1] += move  # as the stream's first row does
        rows = np.zeros(len(chunk), dtype=int) if self.locations is None else self._location_rows(chunk.x)
        ts, ys, rows = t.tolist(), chunk.y.tolist(), rows.tolist()

        def block(start, stop):
            if rows[start] < 0:
                raise DataError(f"location {chunk.x[start]} is not in spatial.locations", detail={"row": 0})
            return zip(*stepper.step(ts[start], ys[start:stop], rows[start:stop], steps[start]))

        self._start_blocks(chunk, block, costs.tolist())

    def smooth(self) -> np.ndarray:
        """Backward pass over the stored history, in place: an (N, 2) array of each
        input row's smoothed (mean, var) through its observation row.  The pass
        overwrites the filtered moments it reads, so a runner smooths once; a
        second call raises.  A failed pass, or a non-finite smoothed moment, is
        a NumericalError whose ``detail["step"]`` names the input row at fault
        (for a singular gain, the first input row of its time step).

        With one nonzero entry (i, w) per observation row (``sde.obs_single``),
        a row's moments are w m_i and w^2 P_ii of its time's row: two gathers.
        A time row with a non-finite entry that this does not read (a dense
        contraction would carry it as NaN) gives its input rows a NaN
        variance.  Otherwise each input row contracts its time's row with its
        observation row, gathered ``SMOOTH_BLOCK_BYTES`` at a time."""
        if self._smoothed:
            raise ConfigurationError("the history is already smoothed; a second pass would smooth it again")
        self._smoothed = True
        sde, record = self.stepper.sde, self.stepper.result()
        try:
            markovian.rts_smoother(sde, record)
        except NumericalError as exc:  # the pass names a time row, last in its message: name its first input row
            exc.detail["step"] = k = int(np.searchsorted(record.steps, exc.detail["step"]))
            exc.args = (f"{str(exc).rpartition(' ')[0]} {k}",)  # the same exception, now naming the input row
            raise
        n, block = record.steps.size, max(2, markovian.SMOOTH_BLOCK_BYTES // (8 * sde.dim**2))
        smoothed = np.empty((n, 2))
        if sde.obs_single is not None:
            idx, w = (part[record.obs_rows] for part in sde.obs_single)
            k = record.steps
            smoothed[:, 0] = record.means[k, idx] * w + 0.0  # + 0.0: a contraction's sum turns -0.0 into 0.0
            smoothed[:, 1] = record.covs[k, idx, idx] * w * w + 0.0
            finite = np.empty(record.times.size, dtype=bool)  # per time row
            for start in range(0, finite.size, block):
                rows = slice(start, start + block)
                finite[rows] = np.isfinite(record.covs[rows]).all(axis=(1, 2)) & np.isfinite(record.means[rows]).all(axis=1)
            smoothed[~finite[k] & np.isfinite(smoothed).all(axis=1), 1] = np.nan
        else:
            for start in range(0, n, block):
                rows = slice(max(min(start, n - 2), 0), start + block)  # no lone last row: einsum rounds one row apart
                H, k = sde.obs[record.obs_rows[rows]], record.steps[rows]
                smoothed[rows, 0] = np.einsum("ij,ij->i", H, record.means[k])
                smoothed[rows, 1] = np.einsum("ij,ijk,ik->i", H, record.covs[k], H)
        bad = np.flatnonzero(~np.isfinite(smoothed).all(axis=1))
        if bad.size:  # the pass carries a non-finite moment back to every step before it: name the last
            k = int(bad[-1])
            mean, var = smoothed[k].tolist()
            raise NumericalError(f"non-finite smoothed moment at step {k}: mean {mean!r}, variance {var!r}",
                                 detail={"step": k})
        return smoothed


class SparseRunner(_RowRunner):
    """Fixed-inducing-set recursion, conditioned a block of rows at a time; also
    ``model=vsgp``, whose information-form update is the same conditioning.

    ``prepare`` projects the chunk's inputs in one ``sparse.projections``
    call.  The runner owns ``state``, N(m, S) over the inducing values, and
    conditions a block of its partition (``block_rows`` rows or more) on the
    block's first draw.  With H the block's projection rows and q their
    residual variances, the rows' latent values are a priori N(H m, H S H^T
    + diag(q)) (without q when ``include_residual`` is off), which
    ``linalg.condition_block`` conditions on the block's y-rows, and
    ``linalg.fold_state`` folds them into the state with cross term (H S)_Y.
    A block fails at its first row whose projection has a non-finite entry,
    as ``run_blocks`` says.  A y-row is charged 6 M^2 + 10 M flops, a
    predict-only row nothing."""

    block_rows = markovian.UPDATE_BLOCK_ROWS

    def __init__(self, kernel, noise_var: float, inducing, include_residual: bool):
        if noise_var <= 0.0:
            raise ConfigurationError(f"noise_var must be positive, got {noise_var}", param="noise_var")
        self.state = sparse.init_sparse(kernel, inducing, include_residual)
        self.noise_var = noise_var
        M = self.state.n_inducing
        self._cost = 6 * M * M + 10 * M  # flops of one update, whatever came before
        self.flops = 0
        self.approximate_loglik = False

    def prepare(self, chunk: Columns) -> None:
        H, q = sparse.projections(self.state, chunk.points)
        ys, bad = chunk.y, ~(np.isfinite(H).all(axis=1) & np.isfinite(q))
        costs = np.where(np.isnan(ys), 0, self._cost).tolist()  # a y-row's update; a predict-only row is free
        self._start_blocks(chunk, lambda a, b: self._block(H[a:b], q[a:b], ys[a:b], bad[a:b]), costs)

    def _block(self, H: np.ndarray, q: np.ndarray, ys: np.ndarray, bad: np.ndarray):
        if bad.any():  # its first bad row: the rows before it run as a block, then it fails alone
            raise NumericalError("projection has non-finite entries", detail={"row": int(np.argmax(bad))})
        st = self.state
        HS = H @ st.cov
        C = HS @ H.T
        if st.include_residual:
            C.flat[:: len(ys) + 1] += q
        out = condition_block(H @ st.mean, C, ys, self.noise_var)
        fold_state(st.mean, st.cov, out, HS[out.scored])
        return zip(out.means, out.variances, out.logdensities)


class EnsembleRunner(_RowRunner):
    """Bank of member runners combined by BMA or stacking weights, a chunk at a time.

    ``prepare`` prepares the members and starts the chunk's row generator.
    On its first draw it draws each member over the chunk in turn, through
    the member's own ``step``; a member stops before the earliest row at
    which a member before it raised, so at one row the lower-numbered
    member's error is the one kept.  The combiner then runs over the rows
    before that row: the weight recursion (``ensemble.log_weight_rows``), the
    weights as one exp of the (n + 1, K) log-weights, and the mixture moments
    and log densities as (n, K) array work.  The rows are handed out one per
    ``step``, and ``state`` follows them.  A row does in the one-row functions
    what would warn or raise there, in their order: the mixture moments of a
    row whose batched ones are not finite (``mixture_predict``, for numpy's
    warnings), then the update of a row whose step is skipped or whose log
    density is NaN or +inf (``bma_update`` or ``stacking_update``).  The
    stored member error is raised at its row.
    """

    def __init__(self, members: list, combiner: str):
        self.members = members
        self.state = ens.init_ensemble(len(members), combiner)
        self.approximate_loglik = any(m.approximate_loglik for m in members)

    @property
    def flops(self) -> int:
        return sum(m.flops for m in self.members)

    @property
    def block_rows(self) -> int:
        """A chunk that ends at a block start of this partition ends at one of every member's."""
        return max(m.block_rows for m in self.members)

    def prepare(self, chunk: Columns) -> None:
        for m in self.members:
            m.prepare(chunk)
        self._start(chunk, self._rows(chunk))

    def _draw(self, chunk: Columns):
        """Every member's results over the chunk, member by member, as (n, K)
        arrays of means, variances and log densities (NaN on a row without a
        target) over the n rows before the earliest row at which a member
        raised, and that member's error (None if none raised)."""
        records = list(chunk.records())
        results, stop, error = [], len(records), None
        for member in self.members:
            drawn = []
            try:
                for rec in records[:stop]:
                    drawn.append(member.step(rec))
            except SeqgpError as exc:  # raised at its row, after the rows before it
                stop, error = len(drawn), exc
            results.append(drawn)
        M, V, L = (np.empty((stop, len(results))) for _ in range(3))
        for j, drawn in enumerate(results):
            drawn = drawn[:stop]
            M[:, j] = [r.mean for r in drawn]
            V[:, j] = [r.var for r in drawn]
            L[:, j] = [r.logdensity for r in drawn]  # None becomes NaN
        return M, V, L, error

    def _rows(self, chunk: Columns):
        M, V, L, error = self._draw(chunk)
        state = self.state
        scored = ~np.isnan(chunk.y[: len(M)])
        log_w, skipped = ens.log_weight_rows(state, L, scored)
        ran = len(log_w) - 1  # the rows before the first NaN or +inf log density
        k = min(ran + 1, len(M))  # and that row, whose moments come before its error
        LW = np.array(log_w)
        W = np.exp(LW)
        with np.errstate(over="ignore", invalid="ignore"):  # a row that would warn runs through mixture_predict
            means, variances = ens.mixture_moments(W[:k], M[:k], V[:k])
        mix_ll = np.full(k, math.nan)
        idx = np.flatnonzero(scored[:ran])
        mix_ll[idx] = ens.logsumexp(LW[idx] + L[idx])
        update = ens.bma_update if state.combiner == "bma" else ens.stacking_update
        rows = zip(means.tolist(), variances.tolist(), mix_ll.tolist(), scored.tolist())
        for i, (mean, var, ll, is_scored) in enumerate(rows):
            if not (math.isfinite(mean) and math.isfinite(var)):
                mean, var = ens.mixture_predict(state, M[i], V[i])
            if not is_scored:
                yield StepResult(mean, var, None, weights=state.weights)
                continue
            if i == ran or i in skipped:  # raises, or warns and skips
                update(state, L[i])
            else:
                state.step_count += 1
                state.log_weights, state.weights = log_w[i + 1], W[i + 1]
            yield StepResult(mean, var, ll, weights=state.weights)
        if error is not None:
            raise error


def block_bounds(t: np.ndarray | None, n: int, min_rows: int) -> np.ndarray:
    """The first row of each block of a stream of n rows, then n.

    The stream's blocks are those of ``markovian.block_starts`` of its
    timestamps ``t``, or every row when it has none; they are merged in order,
    from the first, until each has at least ``min_rows`` rows (a last one may
    have fewer): a block ends at the first stream block start ``min_rows``
    rows on, so it has fewer than ``min_rows + UPDATE_BLOCK_ROWS`` rows.  The
    partition depends on the stream alone: a slice that begins at one of its
    block starts has the same blocks."""
    if t is None:
        return np.append(np.arange(0, n, min_rows), n)
    starts = np.flatnonzero(markovian.block_starts(t))
    if min_rows > 1 and starts.size:
        merged = [0]
        while (k := int(np.searchsorted(starts, merged[-1] + min_rows))) < starts.size:
            merged.append(int(starts[k]))
        starts = np.array(merged)
    return np.append(starts, n)


def run_chunks(runner, data: Columns, chunk_rows: int):
    """Step ``runner`` over ``data`` as ``seqgp run`` does, yielding (record,
    StepResult) row by row: ``prepare`` each chunk, then ``step`` its records in
    order.  A chunk ends at the first block start of the runner's partition
    (``block_bounds`` with its ``block_rows``) at or after ``chunk_rows`` rows,
    so it never splits a block: the blocks, and so the report, do not depend
    on the chunk size.  A non-finite predictive mean or variance is a
    NumericalError, and a data or numerical error raised here names its
    1-based row.  ``chunk_rows`` below 1 is a ValueError."""
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be at least 1, got {chunk_rows}")
    n = len(data)
    bounds = block_bounds(data.t, n, runner.block_rows)
    start = 0
    while start < n:
        stop = int(bounds[np.searchsorted(bounds, min(start + chunk_rows, n))])
        chunk = data.rows(start, stop)
        row = chunk.first_row
        try:
            runner.prepare(chunk)
            for rec in chunk.records():
                row = rec.row
                res = runner.step(rec)
                if not (math.isfinite(res.mean) and math.isfinite(res.var)):
                    raise NumericalError(f"non-finite prediction: mean {res.mean!r}, variance {res.var!r}")
                yield rec, res
        except (DataError, NumericalError) as exc:
            exc.args = (f"row {row}: {exc}",)  # same class and detail, now naming the row
            raise
        start = stop


def _require_seed(cfg: dict, key: str) -> int:
    seed = get_int(cfg, key, default=get_int(cfg, "seed"))
    if seed is None:
        raise ConfigurationError(f"{key}: a seed is required for stochastic components (or set seed=)")
    return seed


def _input_points(data: Columns) -> np.ndarray:
    if not len(data):
        return np.zeros((0, 1))
    return data.points


def build_runner(cfg: dict, data: Columns, prefix: str = ""):
    """Construct the model runner a validated config describes, for the stream
    ``data`` (whose inputs place inducing points and size the HSGP domain); a
    configuration error names its key, after ``prefix`` for an ensemble member."""
    with keyed(prefix=prefix):
        model = get_str(cfg, "model", required=True, choices=set(MODELS_BUILDABLE))
        return MODELS_BUILDABLE[model](cfg, data)


def _build_exact(cfg, data):
    kernel = build_kernel(cfg)
    return ExactRunner(kernel, get_float(cfg, "noise_var", required=True))


def _build_linear(cfg, data):
    kernel = build_kernel(cfg)
    kind = get_str(cfg, "features.kind", default="rff", choices={"rff", "hsgp"})
    n_feat = get_int(cfg, "features.F", required=True)
    if kind == "rff":
        fmap = features.sample_rff(kernel, n_feat, _require_seed(cfg, "features.seed"))
    else:
        halfwidth = get_float(cfg, "features.L")
        if halfwidth is None:  # 0 on an empty stream, which build_hsgp rejects
            halfwidth = 4.0 * float(np.max(np.abs(_input_points(data)), initial=0.0))
        fmap = features.build_hsgp(kernel, n_feat, halfwidth)
    dynamics = build_dynamics(cfg, fmap.weight_prior_var)
    likelihood = get_str(cfg, "likelihood", default="gaussian",
                         choices={"gaussian"} | set(linear_filter.LIKELIHOODS))
    return LinearRunner(fmap, dynamics, get_float(cfg, "noise_var", required=True), likelihood)


def _build_markov(cfg, data):
    kernel = build_kernel(cfg)
    noise_var = get_float(cfg, "noise_var", required=True)
    loc_path = get_str(cfg, "spatial.locations")
    times = data.t if get_bool(cfg, "emit_smoothed", default=False) else None
    if loc_path is None:
        sde = markovian.build_lti(kernel)
        return MarkovRunner(sde, noise_var, history_times=times)
    locations = load_locations(loc_path)
    spatial_kernel = build_kernel(cfg, prefix="spatial.kernel.")
    sde = markovian.build_spatiotemporal(kernel, spatial_kernel, locations)
    return MarkovRunner(sde, noise_var, locations=locations, history_times=times)


def _build_sparse(cfg, data):
    kernel = build_kernel(cfg)
    noise_var = get_float(cfg, "noise_var", required=True)
    explicit = get_float_list(cfg, "sparse.inducing")
    if explicit is not None:
        inducing = np.array(explicit).reshape(-1, 1)
    else:
        n_inducing = get_int(cfg, "sparse.M", required=True)
        pts = _input_points(data)
        seed = get_int(cfg, "sparse.seed", default=get_int(cfg, "seed"))
        if pts.shape[1] > 1 and seed is None:
            raise ConfigurationError("sparse.seed: required for k-means seeding of multi-D inducing inputs")
        inducing = sparse.choose_inducing(pts, n_inducing, 0 if seed is None else seed)
    residual = get_bool(cfg, "sparse.residual", default=True)
    # inducing inputs placed from sparse.M that coincide are blamed on sparse.M
    with keyed({"inducing": "sparse.inducing" if explicit is not None else "sparse.M"}):
        return SparseRunner(kernel, noise_var, inducing, residual)


def _build_ensemble(cfg, data):
    combiner = get_str(cfg, "ensemble.combiner", default="bma", choices={"bma", "stacking"})
    members = []
    for i, block in enumerate(member_configs(cfg), start=1):
        with keyed(prefix=f"member.{i}."):
            # a smoothed member would keep its whole history for columns no report has
            if get_bool(block, "emit_smoothed", default=False):
                raise ConfigurationError("emit_smoothed: ensemble members are not smoothed")
        members.append(build_runner(block, data, f"member.{i}."))
    return EnsembleRunner(members, combiner)


MODELS_BUILDABLE = {
    "exact": _build_exact,
    "linear": _build_linear,
    "markov": _build_markov,
    "sparse": _build_sparse,
    "vsgp": _build_sparse,
    "ensemble": _build_ensemble,
}
