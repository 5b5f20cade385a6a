"""Finite basis expansions of stationary GP priors.

Two maps are provided:

* random Fourier features (RFF): F/2 frequencies sampled from the kernel's
  spectral density, paired sin/cos columns scaled by sqrt(2/F), with the
  process variance living in the weight prior theta ~ N(0, sigma_f^2 I);
* the Hilbert-space (HSGP) eigenbasis on [-L, L]: deterministic sinusoids
  with sqrt-spectral-density weights folded into the basis, so the weight
  prior is theta ~ N(0, I).

Either map reduces the GP to the linear model f(x) = phi(x)^T theta, which
is what the sequential filters in this package operate on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError, UnsupportedKernelError
from .kernels import Kernel, as_points, eval_psd


@dataclass(frozen=True)
class FeatureMap:
    kind: str  # "rff" | "hsgp"
    n_features: int
    input_dim: int
    weight_prior_var: float  # prior variance per weight: sigma_f^2 (rff), 1.0 (hsgp)
    frequencies: np.ndarray | None = None  # (F/2, D), rff only
    halfwidth: float | None = None  # L, hsgp only
    spectral_weights: np.ndarray | None = None  # (F,), hsgp only
    seed: int | None = None  # rff only


def _sample_frequencies(kernel: Kernel, n_freq: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n_freq rows from the kernel's (1-D) spectral density."""
    if kernel.family == "se":
        return rng.standard_normal((n_freq, 1)) / kernel.lengthscale
    if kernel.family in ("matern12", "matern32"):
        # Matern-nu frequencies are multivariate-t with 2*nu degrees of freedom.
        nu = 0.5 if kernel.family == "matern12" else 1.5
        dof = 2.0 * nu
        z = rng.standard_normal((n_freq, 1))
        g = rng.chisquare(dof, size=(n_freq, 1))
        return math.sqrt(dof) * z / (np.sqrt(g) * kernel.lengthscale)
    if kernel.family == "spectral_mixture":
        w = np.array([c.weight for c in kernel.sm_components])
        comp = rng.choice(len(w), size=n_freq, p=w / w.sum())
        mu = np.array([c.mean_freq for c in kernel.sm_components])[comp]
        sd = np.sqrt(np.array([c.freq_var for c in kernel.sm_components])[comp])
        s = mu + sd * rng.standard_normal(n_freq)
        # the PSD is the symmetrized mixture: flip sign with probability 1/2
        sign = np.where(rng.random(n_freq) < 0.5, -1.0, 1.0)
        return (sign * s).reshape(-1, 1)
    raise UnsupportedKernelError(f"no spectral sampler for kernel family {kernel.family!r}", param="family")


def sample_rff(kernel: Kernel, n_features: int, seed: int) -> FeatureMap:
    """Sample a random Fourier feature map with ``n_features`` (even) columns.

    Deterministic given ``seed``; the same seed reproduces the frequency
    table bit for bit.
    """
    if n_features < 2 or n_features % 2 != 0:
        raise ConfigurationError(f"RFF feature count must be even and >= 2, got {n_features}", param="n_features")
    rng = np.random.default_rng(seed)
    freqs = _sample_frequencies(kernel, n_features // 2, rng)
    return FeatureMap(
        kind="rff",
        n_features=n_features,
        input_dim=freqs.shape[1],
        weight_prior_var=float(kernel.total_variance),
        frequencies=freqs,
        seed=seed,
    )


def build_hsgp(kernel: Kernel, n_features: int, halfwidth: float) -> FeatureMap:
    """Deterministic sinusoidal basis on [-L, L] for a 1-D stationary kernel.

    Basis k is sqrt(S(k pi / 2L)) * sin(k pi (x + L) / 2L) / sqrt(L), where S
    is the spectral density under the unnormalized-transform convention
    (2 pi times this package's spectral-integral convention), so that
    sum_k phi_k(x) phi_k(x') reconstructs kappa(x, x') with unit weight prior.
    """
    if n_features < 1:
        raise ConfigurationError(f"HSGP feature count must be >= 1, got {n_features}", param="n_features")
    if halfwidth <= 0.0:
        raise ConfigurationError(f"HSGP halfwidth must be positive, got {halfwidth}", param="halfwidth")
    k = np.arange(1, n_features + 1)
    omega = k * math.pi / (2.0 * halfwidth)
    weights = np.sqrt(2.0 * math.pi * eval_psd(kernel, omega))
    return FeatureMap(
        kind="hsgp",
        n_features=n_features,
        input_dim=1,
        weight_prior_var=1.0,
        halfwidth=float(halfwidth),
        spectral_weights=weights,
    )


def featurize_many(fmap: FeatureMap, X) -> np.ndarray:
    """Feature matrix of shape (n, F) for a batch of points."""
    pts = as_points(X)
    if pts.shape[1] != fmap.input_dim:
        raise ShapeError(f"feature map expects {fmap.input_dim}-dimensional inputs, got {pts.shape[1]}")
    if fmap.kind == "rff":
        z = pts @ fmap.frequencies.T  # (n, F/2)
        out = np.empty((pts.shape[0], fmap.n_features))
        out[:, 0::2] = np.sin(z)
        out[:, 1::2] = np.cos(z)
        out *= math.sqrt(2.0 / fmap.n_features)
        return out
    # hsgp
    L = fmap.halfwidth
    k = np.arange(1, fmap.n_features + 1)
    arg = (k * math.pi / (2.0 * L))[None, :] * (pts + L)
    return fmap.spectral_weights[None, :] * np.sin(arg) / math.sqrt(L)


def featurize(fmap: FeatureMap, x) -> np.ndarray:
    """Feature vector phi(x) of length F for a single point."""
    a = np.atleast_1d(np.asarray(x, dtype=float))
    return featurize_many(fmap, a.reshape(1, -1))[0]


class DegenerateKernel:
    """Finite-rank kernel prior_var * phi(x)^T phi(x') induced by a feature map.

    Exposes the same ``gram`` interface as a Kernel, so the exact-GP routines
    accept it; this is the function-space twin of the weight-space filter.
    """

    def __init__(self, fmap: FeatureMap):
        self.fmap = fmap
        self.total_variance = fmap.weight_prior_var

    def gram(self, X, X2=None) -> np.ndarray:
        A = featurize_many(self.fmap, X)
        B = A if X2 is None else featurize_many(self.fmap, X2)
        return self.fmap.weight_prior_var * (A @ B.T)
