"""Output checks for one ``seqgp run`` report, including the chain-rule oracle.

Prequential scoring telescopes: summed over the y-bearing rows of a prefix,
``pred_logdensity`` equals the exact-GP log marginal likelihood of those
targets under the Gram matrix the configured model implies.  The Gram is
assembled here from public ``seqgp`` functions only, and the likelihood is
``exact.log_marginal_likelihood``, so the check does not reuse the code path
it checks.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from workloads import (
    HM_COMPONENTS,
    NOISE_VAR,
    RFF_FEATURES,
    RFF_SEED,
    RW_VAR,
    SPARSE_M,
    SPATIAL_LENGTHSCALE,
    TEMPORAL_LENGTHSCALE,
    VSGP_M,
    Workload,
)

TOLERANCE = 1e-6  # absolute, in nats: the acceptance tolerance for Markovian = exact GP


class _FixedGram:
    """Kernel stand-in whose Gram is precomputed; ``exact`` accepts any ``.gram``."""

    def __init__(self, K: np.ndarray):
        self.K = K
        self.total_variance = float(np.mean(np.diag(K)))

    def gram(self, X, X2=None) -> np.ndarray:
        return self.K


def _lml(K: np.ndarray, y: np.ndarray) -> float:
    from seqgp import exact

    return exact.log_marginal_likelihood(_FixedGram(K), NOISE_VAR, np.arange(y.size, dtype=float), y)


def _sparse_gram(kernel, inducing: np.ndarray, t: np.ndarray) -> np.ndarray:
    """K_xu K_uu^-1 K_ux plus the diagonal residual, with the runner's jittered K_uu."""
    from seqgp import kernels

    k_uu = kernels.gram(kernel, inducing) + kernels.GRAM_JITTER * kernel.total_variance * np.eye(inducing.shape[0])
    a = solve_triangular(np.linalg.cholesky(k_uu), kernels.gram(kernel, t, inducing).T, lower=True)
    q = a.T @ a
    resid = np.maximum(kernel.total_variance - np.diag(q), 0.0)
    return q + np.diag(resid)


def _member_lmls(w: Workload, n: int) -> list[float]:
    """Log evidence of each ensemble member on the y-bearing rows among the first ``n``."""
    from seqgp import features, kernels, sparse

    obs = ~np.isnan(w.y[:n])
    t, y = w.t[:n][obs], w.y[:n][obs]
    m12, m32 = kernels.matern12(), kernels.matern32()

    fmap = features.sample_rff(m32, RFF_FEATURES, RFF_SEED)
    phi = features.featurize_many(fmap, t)
    k = np.arange(1, t.size + 1)  # the random walk ticks once per observed row
    rff = (phi @ phi.T) * (fmap.weight_prior_var + RW_VAR * np.minimum.outer(k, k))

    grams = [kernels.gram(m12, t), rff]
    for m in (SPARSE_M, VSGP_M):
        inducing = sparse.choose_inducing(w.t.reshape(-1, 1), m, 0)  # placed on every row's input
        grams.append(_sparse_gram(m32, inducing, t))
    return [_lml(K, y) for K in grams]


def expected_loglik(w: Workload, n: int) -> float:
    """Exact log evidence of the y-bearing rows among the first ``n`` rows."""
    from seqgp import kernels

    obs = ~np.isnan(w.y[:n])
    t, y = w.t[:n][obs], w.y[:n][obs]
    if y.size == 0:
        return 0.0
    if w.name == "markov-irregular":
        return _lml(kernels.gram(kernels.hida_matern(HM_COMPONENTS), t), y)
    if w.name == "spacetime-grid":
        spatial = kernels.se(lengthscale=SPATIAL_LENGTHSCALE)
        K_t = kernels.gram(kernels.matern32(lengthscale=TEMPORAL_LENGTHSCALE), t)
        K_s = kernels.gram(spatial, w.x[:n][obs]) / spatial.total_variance
        return _lml(K_t * K_s, y)
    if w.name == "ensemble-mixed":
        lmls = np.array(_member_lmls(w, n))
        return float(logsumexp(lmls - math.log(lmls.size)))
    if w.name == "oracle-exact":
        return _lml(kernels.gram(kernels.matern32(), t), y)
    raise ValueError(f"no oracle for workload {w.name!r}")


def _strict_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def read_report(text: str):
    """(header, rows as lists of floats or None, summary dict); raises ValueError on bad output."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("report has no summary line")
    summary = json.loads(lines[-1], parse_constant=_strict_constant)
    reader = csv.reader(io.StringIO("\n".join(lines[:-1])))
    header = next(reader)
    rows = []
    for cells in reader:
        vals = [None if c == "" else float(c) for c in cells]
        if any(v is not None and not math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite cell in report row {len(rows) + 1}")
        rows.append(vals)
    return header, rows, summary


def oracle_prefix(w: Workload, header: list[str], rows: list) -> int:
    """Rows the chain-rule check covers: capped, and for BMA ended before any weight is floored."""
    from seqgp.ensemble import LOG_FLOOR

    n = min(w.oracle_rows, len(rows))
    weight_cols = [i for i, c in enumerate(header) if c.startswith("weight_")]
    if weight_cols:
        floor = math.exp(LOG_FLOOR + 1.0)
        for i, r in enumerate(rows[:n]):
            if min(r[c] for c in weight_cols) <= floor:
                return i  # this row's update floored a weight; later densities would differ
    return n


def checkpoints(n: int) -> list[int]:
    """Prefix lengths checked: 25, 50, 100, ... below ``n``, then ``n``.

    Short prefixes keep every ensemble member visible: over a long prefix
    the best member's evidence swamps the others in the BMA sum.
    """
    return [25 * 2**j for j in range(32) if 25 * 2**j < n] + [n]


def check_report(w: Workload, text: str, expected: dict) -> dict:
    """Check one report; ``failure`` is None when every check passes.

    ``expected`` caches the oracle value per prefix length across repeats.
    """
    try:
        header, rows, summary = read_report(text)
    except (ValueError, StopIteration) as exc:
        return {"failure": f"malformed report: {exc}"}
    n_in = w.t.size
    if len(rows) != n_in or summary.get("rows") != n_in:
        return {"failure": f"expected {n_in} rows, got {len(rows)} (summary {summary.get('rows')})"}
    col = header.index("pred_logdensity")
    n = oracle_prefix(w, header, rows)
    cumulative = np.cumsum([0.0 if r[col] is None else r[col] for r in rows[:n]])
    worst, failure = 0.0, None
    for m in checkpoints(n):
        if m not in expected:
            expected[m] = expected_loglik(w, m)
        err = abs(float(cumulative[m - 1]) - expected[m])
        worst = max(worst, err)
        if not err <= TOLERANCE and failure is None:
            failure = (f"chain-rule oracle: sum pred_logdensity {float(cumulative[m - 1])!r} "
                       f"vs exact {expected[m]!r} over the first {m} rows")
    return {"failure": failure, "oracle_rows": n, "oracle_abs_err": worst}
