"""Seeded synthetic streams for the benchmark, and the model config each one runs.

Every workload is a function of its seed only.  It writes the stream (and,
for the space-time grid, the locations) as CSV into a work directory and
returns a ``Workload`` naming the files, the ``seqgp run`` overrides, and
the arrays the output check needs.  Model settings are fixed per workload;
only the data depend on the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

NOISE_VAR = 0.1
PREDICT_ONLY_SHARE = 0.1

# (weight, phase, nu, lengthscale, sigma2): blocks of state dim 4 + 2 + 2 = 8
HM_COMPONENTS = ((0.5, 1.5, 1.5, 1.0, 1.0), (0.3, 0.0, 1.5, 2.0, 1.0), (0.2, 0.8, 0.5, 0.5, 1.0))

GRID_SIDE = 8
GRID_SPACING = 0.5  # exactly representable, so the location lookup is exact
GRID_STEPS = 120
GRID_DT = 0.25  # exactly representable: every step is bit-identical
TEMPORAL_LENGTHSCALE = 2.0  # Matern-3/2 in time, space-time model
SPATIAL_LENGTHSCALE = 1.0  # SE in space, space-time model

# Ensemble members use unit-variance, unit-lengthscale kernels (the config defaults).
RFF_FEATURES = 256
RFF_SEED = 1
RW_VAR = 1e-4
SPARSE_M = 64
VSGP_M = 32


@dataclass
class Workload:
    name: str
    input_path: str
    overrides: list[str]
    t: np.ndarray  # (N,) timestamps as the program parses them
    x: np.ndarray | None  # (N, D) spatial inputs, space-time only
    y: np.ndarray  # (N,) NaN marks a predict-only row
    oracle_rows: int  # longest prefix the chain-rule check may use
    shape: dict = field(default_factory=dict)  # state dim, F, M


def _irregular_times(rng, n: int) -> np.ndarray:
    return np.cumsum(rng.uniform(0.01, 0.05, n))


def _signal(rng, t: np.ndarray) -> np.ndarray:
    """Sum of three random sinusoids plus observation noise of variance NOISE_VAR."""
    freqs = rng.uniform(0.2, 2.0, 3)
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    amps = np.array([1.0, 0.6, 0.3])
    f = (amps[None, :] * np.sin(np.outer(t, freqs) + phases[None, :])).sum(axis=1)
    return f + np.sqrt(NOISE_VAR) * rng.standard_normal(t.size)


def _hide_targets(rng, y: np.ndarray) -> np.ndarray:
    y = y.copy()
    y[rng.random(y.size) < PREDICT_ONLY_SHARE] = np.nan
    return y


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for cells in zip(*columns):
            fh.write(",".join("" if c != c else repr(float(c)) for c in cells) + "\n")


def _time_stream(name: str, seed: int, n: int, workdir: str):
    rng = np.random.default_rng(seed)
    t = _irregular_times(rng, n)
    y = _hide_targets(rng, _signal(rng, t))
    path = os.path.join(workdir, f"{name}.csv")
    _write_csv(path, ["t", "y"], [t, y])
    return path, t, y


def markov_irregular(seed: int, workdir: str) -> Workload:
    path, t, y = _time_stream("markov-irregular", seed, 20_000, workdir)
    hm = ";".join(":".join(repr(v) for v in comp) for comp in HM_COMPONENTS)
    overrides = ["model=markov", "kernel.family=hida_matern", f"kernel.hm_components={hm}",
                 f"noise_var={NOISE_VAR}", "emit_smoothed=true"]
    dim = sum((2 if nu == 1.5 else 1) * (2 if phase > 0 else 1) for _, phase, nu, _, _ in HM_COMPONENTS)
    return Workload("markov-irregular", path, overrides, t, None, y, oracle_rows=2000,
                    shape={"state_dim": dim})


def spacetime_grid(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    axis = GRID_SPACING * np.arange(GRID_SIDE)
    locs = np.array([(a, b) for a in axis for b in axis])
    loc_path = os.path.join(workdir, "locations.csv")
    _write_csv(loc_path, ["x1", "x2"], [locs[:, 0], locs[:, 1]])

    n_s = locs.shape[0]
    order = np.concatenate([rng.permutation(n_s) for _ in range(GRID_STEPS)])
    t = np.repeat(GRID_DT * np.arange(GRID_STEPS), n_s)
    x = locs[order]
    k1, k2, w = rng.uniform(0.5, 1.5, 3)
    y = np.sin(w * t + k1 * x[:, 0]) * np.cos(k2 * x[:, 1]) + np.sqrt(NOISE_VAR) * rng.standard_normal(t.size)
    y = _hide_targets(rng, y)
    path = os.path.join(workdir, "spacetime-grid.csv")
    _write_csv(path, ["t", "x1", "x2", "y"], [t, x[:, 0], x[:, 1], y])
    overrides = ["model=markov", "kernel.family=matern32", f"kernel.lengthscale={TEMPORAL_LENGTHSCALE}",
                 f"noise_var={NOISE_VAR}", f"spatial.locations={loc_path}",
                 "spatial.kernel.family=se", f"spatial.kernel.lengthscale={SPATIAL_LENGTHSCALE}"]
    return Workload("spacetime-grid", path, overrides, t, x, y, oracle_rows=30 * n_s,
                    shape={"state_dim": 2 * n_s, "locations": n_s})


def ensemble_mixed(seed: int, workdir: str) -> Workload:
    path, t, y = _time_stream("ensemble-mixed", seed, 2_000, workdir)
    overrides = [
        "model=ensemble", "ensemble.combiner=bma",
        "member.1.model=markov", "member.1.kernel.family=matern12",
        "member.2.model=linear", "member.2.kernel.family=matern32", "member.2.features.kind=rff",
        f"member.2.features.F={RFF_FEATURES}", f"member.2.features.seed={RFF_SEED}",
        "member.2.dynamics.mode=random_walk", f"member.2.dynamics.sigma_rw2={RW_VAR}",
        "member.3.model=sparse", "member.3.kernel.family=matern32", f"member.3.sparse.M={SPARSE_M}",
        "member.4.model=vsgp", "member.4.kernel.family=matern32", f"member.4.sparse.M={VSGP_M}",
    ] + [f"member.{k}.noise_var={NOISE_VAR}" for k in range(1, 5)]
    return Workload("ensemble-mixed", path, overrides, t, None, y, oracle_rows=t.size,
                    shape={"state_dim": 1, "F": RFF_FEATURES, "M": SPARSE_M, "M_vsgp": VSGP_M})


def oracle_exact(seed: int, workdir: str) -> Workload:
    path, t, y = _time_stream("oracle-exact", seed, 600, workdir)
    overrides = ["model=exact", "kernel.family=matern32", f"noise_var={NOISE_VAR}"]
    return Workload("oracle-exact", path, overrides, t, None, y, oracle_rows=t.size)


WORKLOADS = {
    "markov-irregular": markov_irregular,
    "spacetime-grid": spacetime_grid,
    "ensemble-mixed": ensemble_mixed,
    "oracle-exact": oracle_exact,
}


def properties(w: Workload) -> dict:
    """Input properties a later optimisation may depend on, measured on the stream."""
    deltas = np.concatenate([[0.0], np.diff(w.t)])  # the stepper's first step is 0
    seen: set[float] = set()
    repeats = 0
    for d in deltas.tolist():
        repeats += d in seen
        seen.add(d)
    return {
        "rows": int(w.t.size),
        "y_share": float(np.mean(~np.isnan(w.y))),
        "delta_repeat_share": repeats / w.t.size,
        **w.shape,
    }
