"""Cholesky-based linear algebra helpers.

All posterior computations in this package solve SPD systems through a
Cholesky factor instead of forming explicit inverses.  Near-singular
matrices are handled by a bounded jitter escalation on the diagonal.

The scalar Kalman step of every filter route is ``observe`` (forms s = P h
once) followed by ``condition``, the one scored update: it checks y,
conditions the mean and covariance its caller owns in place, and returns the
predictive log density of y.  A block of rows observed together is one vector
measurement, ``condition_block``, which the Markov time step and the exact GP
share.  Every other function here is pure.  A caller that wants a new belief
conditions a copy of its own.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas, lapack

from .errors import DataError, NumericalError

# Escalation ladder for diagonal jitter, relative to the supplied scale.
JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part 0.5*(A + A^T), of each matrix in a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def chol_jitter(a: np.ndarray, scale: float | None = None) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``a``, escalating jitter on failure.

    Tries ``a + j*scale*I`` for j in ``JITTER_LADDER`` (a bare attempt, then
    three retries growing tenfold from 1e-10 to 1e-7).  ``scale`` defaults to
    the mean diagonal magnitude.

    Returns
    -------
    (L, jitter) : the factor and the absolute jitter that was added.

    Raises
    ------
    NumericalError
        if the ladder is exhausted; carries a condition-number diagnostic.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix has non-finite entries")
    if scale is None:
        scale = float(np.mean(np.abs(np.diag(a)))) or 1.0
    n = a.shape[0]
    for j in JITTER_LADDER:
        try:
            L = np.linalg.cholesky(a + j * scale * np.eye(n) if j else a)
            return L, j * scale
        except np.linalg.LinAlgError:
            continue
    cond = float(np.linalg.cond(symmetrize(a)))
    raise NumericalError(
        f"Cholesky failed after jitter escalation to {JITTER_LADDER[-1]:.0e}*scale "
        f"(scale={scale:.3e}, cond~{cond:.3e})",
        detail={"cond": cond, "scale": scale},
    )


def chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the lower Cholesky factor L of A.

    Two LAPACK ``dtrtrs`` calls, L y = b and then L^T x = y, made directly:
    ``scipy.linalg.solve_triangular`` spends about 25 us per call validating
    its arguments, several times the solve itself at the sizes the sparse
    projection uses.  The calls follow solve_triangular's own dispatch for
    C- and F-contiguous factors (an F-contiguous L is passed as is, a
    C-contiguous one as the F-contiguous upper factor L^T), so the result is
    the same bit for bit; any other layout is solved as its C-contiguous
    copy.  ``b`` is never modified.

    Raises
    ------
    numpy.linalg.LinAlgError
        if L has a zero on its diagonal, as solve_triangular does.
    """
    if L.flags.f_contiguous:
        y, info = lapack.dtrtrs(L, b, lower=1)
        if info == 0:
            y, info = lapack.dtrtrs(L, y, lower=1, trans=1, overwrite_b=1)
    else:
        U = np.ascontiguousarray(L).T
        y, info = lapack.dtrtrs(U, b, trans=1)
        if info == 0:
            y, info = lapack.dtrtrs(U, y, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return y


def chol_logdet(L: np.ndarray) -> float:
    """log det A from its lower Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def observe(mean: np.ndarray, cov: np.ndarray, h: np.ndarray):
    """One observation row's latent predictive moments and the product a Kalman
    update needs, formed once: (h^T mean, h^T s, s) with s = cov h.  Pure."""
    s = cov @ h
    return float(h @ mean), float(h @ s), s


def condition(mean: np.ndarray, cov: np.ndarray, observed, y: float, noise_var: float) -> float:
    """Condition N(mean, cov) in place on one observation y = h^T x + N(0, noise_var)
    and score it: the one scalar Kalman update of every filter route.

    ``observed`` is (h^T mean, v, s) from one observe step on this very belief
    and row: s = cov h, and v its latent predictive variance (h^T s, to which
    a caller may add latent variance of its own, such as a sparse residual).
    With pred_var = v + noise_var the optimal-gain update is mean += s (y -
    h^T mean) / pred_var and cov -= s s^T / pred_var.  The caller owns
    ``mean`` and ``cov``; both are overwritten, and s must not share memory
    with them.  The covariance is one BLAS k = 1 ``dgemm`` with
    ``overwrite_c``, run on ``cov`` as BLAS sees it, its F-ordered transpose.
    f2py would silently run it on a copy of any other layout and drop the
    result, so ``cov`` must be a writeable C-contiguous float64 array.  The
    GEMM forms each product s_i s_j once and scales it, so entries (i, j) and
    (j, i) add the same rounded number: a bit-symmetric ``cov`` stays
    bit-symmetric (the tests check this across BLAS tile sizes).  No
    symmetrizing pass follows, so an asymmetric ``cov`` is not repaired; every
    producer of a covariance in this package makes it bit-symmetric.

    Returns
    -------
    log N(y | h^T mean, pred_var), the predictive log density of y under the
    incoming belief.

    Raises
    ------
    DataError
        if y is not finite, before anything else.
    NumericalError
        if ``pred_var`` is not positive, before anything is modified.
    ValueError
        if ``cov`` cannot be updated in place, before anything is modified.
    """
    if not math.isfinite(y):
        raise DataError(f"non-finite observation {y!r}")
    pred_mean, var, s = observed
    pred_var = var + noise_var
    if pred_var <= 0.0:
        raise NumericalError(f"non-positive predictive variance {pred_var!r}")
    if not (cov.flags.c_contiguous and cov.flags.writeable and cov.dtype == np.float64):
        raise ValueError("condition updates cov in place: it must be a writeable C-contiguous float64 array")
    mean += (s / pred_var) * (y - pred_mean)
    blas.dgemm(-1.0 / pred_var, s[:, None], s[None, :], beta=1.0, c=cov.T, overwrite_c=1)
    return gaussian_loglik(y, pred_mean, pred_var)


class BlockUpdate(NamedTuple):
    """What ``condition_block`` gives back: per row, and for the caller's state update."""

    means: list  # each row's latent predictive mean given the y-rows before it
    variances: list  # and its latent predictive variance
    logdensities: list  # each y-row's predictive log density, None on a predict-only row
    scored: np.ndarray  # the block's y-rows, in order
    factor: np.ndarray | None  # L, lower Cholesky factor of C_YY + noise_var I (None without y-rows)
    inverse: np.ndarray | None  # L^-1
    z: np.ndarray | None  # L^-1 (y_Y - mu_Y)


def condition_block(mu: np.ndarray, C: np.ndarray, ys: np.ndarray, noise_var: float) -> BlockUpdate:
    """Condition a block of n rows on its y-rows as one vector measurement.

    The rows' latent values are a priori N(``mu``, ``C``) (n,) and (n, n), and
    ``ys`` (n,) holds their observations, NaN on a predict-only row.  With Y the
    y-rows and L the lower Cholesky factor of S = C_YY + noise_var I
    (``dpotrf``), z = L^-1 (y_Y - mu_Y), and row i of W = L^-1 C_Y is y-row i's
    share of every row's prequential moments: a row's mean and variance are
    mu and C's diagonal plus partial sums over the y-rows strictly before it
    (W masked), and y-row i's log density is -(log(2 pi L_ii^2) + z_i^2) / 2.
    The masked entries of C_Y are zeroed before the product, so an entry that
    no row reads (a y-row against an earlier predict-only row) may be
    non-finite.  The caller folds (L^-1, z) into its own state.  Pure.

    Raises
    ------
    NumericalError
        if a pivot of S is not positive; ``detail["row"]`` is its row of the
        block, so the rows before it can be conditioned on as a block of their own.
    """
    n = ys.size
    scored = ~np.isnan(ys)
    Y = np.flatnonzero(scored)
    if not Y.size:
        return BlockUpdate(mu.tolist(), C.diagonal().tolist(), [None] * n, Y, None, None, None)
    S = C[np.ix_(Y, Y)]
    S.flat[::Y.size + 1] += noise_var
    L, info = lapack.dpotrf(S, lower=1, clean=1)
    if info > 0:
        raise NumericalError(f"non-positive predictive variance at pivot {info} of the block",
                             detail={"row": int(Y[info - 1])})
    L_inv = lapack.dtrtri(L, lower=1)[0]
    z = L_inv @ (ys[Y] - mu[Y])
    before = np.cumsum(scored) - scored  # y-rows strictly before each row
    mask = np.arange(Y.size)[:, None] < before  # (n_y, n)
    W = (L_inv @ np.where(mask, C[Y], 0.0)) * mask
    means = mu + z @ W
    variances = C.diagonal() - np.einsum("ij,ij->j", W, W)
    lls = [None] * n
    for i, pivot, zi in zip(Y.tolist(), np.diagonal(L).tolist(), z.tolist()):
        lls[i] = -0.5 * (math.log(2.0 * math.pi * pivot * pivot) + zi * zi)
    return BlockUpdate(means.tolist(), variances.tolist(), lls, Y, L, L_inv, z)


def gaussian_loglik(y: float, mean: float, var: float) -> float:
    """log N(y | mean, var) for scalar arguments."""
    if var <= 0.0:
        raise NumericalError(f"non-positive predictive variance {var!r}")
    r = y - mean
    return -0.5 * (np.log(2.0 * np.pi * var) + r * r / var)
