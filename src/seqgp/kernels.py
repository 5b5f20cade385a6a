"""Stationary covariance functions and their power spectral densities.

Every kernel here is isotropic in the Euclidean distance r = ||x - x'||.
Spectral densities follow the angular-frequency convention

    kappa(r) = integral exp(i*s*r) S(s) ds,

so S integrates to the total variance kappa(0).  The supported families:

* ``se``               : squared exponential, sigma_f^2 * exp(-r^2 / (2 l^2))
* ``matern12``         : exponential / OU, sigma_f^2 * exp(-r / l)
* ``matern32``         : once-differentiable Matern
* ``spectral_mixture`` : Gaussian-mixture PSD, evaluated in closed form as
                         sum_q w_q exp(-v_q r^2 / 2) cos(mu_q r)
* ``hida_matern``      : mixture of cosine-modulated Matern components
                         sum_j w_j cos(b_j r) matern_nu_j(r; l_j, sigma_j^2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError

FAMILIES = ("se", "matern12", "matern32", "spectral_mixture", "hida_matern")

# Relative diagonal jitter guaranteed to make any Gram of this package's
# kernels factorizable (scaled by total variance).
GRAM_JITTER = 1e-8


@dataclass(frozen=True)
class SmComponent:
    """One spectral-mixture component: weight, mean frequency, frequency variance."""

    weight: float
    mean_freq: float
    freq_var: float


@dataclass(frozen=True)
class HmComponent:
    """One Hida-Matern component: weight, phase shift, smoothness, lengthscale, variance."""

    weight: float
    phase: float
    nu: float
    lengthscale: float
    sigma2: float


@dataclass(frozen=True)
class Kernel:
    family: str
    sigma_f2: float = 1.0
    lengthscale: float = 1.0
    sm_components: tuple[SmComponent, ...] = ()
    hm_components: tuple[HmComponent, ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown kernel family {self.family!r}", param="family")
        if self.family in ("se", "matern12", "matern32"):
            if self.sigma_f2 <= 0.0:
                raise ConfigurationError(f"sigma_f2 must be positive, got {self.sigma_f2}", param="sigma_f2")
            if self.lengthscale <= 0.0:
                raise ConfigurationError(f"lengthscale must be positive, got {self.lengthscale}", param="lengthscale")
            _check_scale(self.sigma_f2, self.lengthscale, "lengthscale")
            if self.family == "se" and not math.isfinite(2.0 * float(self.lengthscale) ** 2):
                raise ConfigurationError(f"lengthscale {self.lengthscale!r} overflows 2 * l**2 in the SE exponent",
                                         param="lengthscale")
        elif self.family == "spectral_mixture":
            if not self.sm_components:
                raise ConfigurationError("spectral_mixture needs at least one component", param="sm_components")
            for c in self.sm_components:
                if c.weight < 0.0:
                    raise ConfigurationError(f"SM weight must be nonnegative, got {c.weight}", param="sm_components")
                if c.freq_var <= 0.0:
                    raise ConfigurationError(f"SM frequency variance must be positive, got {c.freq_var}",
                                             param="sm_components")
            if sum(c.weight for c in self.sm_components) <= 0.0:
                raise ConfigurationError("SM weights must not all be zero", param="sm_components")
        elif self.family == "hida_matern":
            if not self.hm_components:
                raise ConfigurationError("hida_matern needs at least one component", param="hm_components")
            for c in self.hm_components:
                if c.weight < 0.0:
                    raise ConfigurationError(f"HM weight must be nonnegative, got {c.weight}", param="hm_components")
                if c.phase < 0.0:
                    raise ConfigurationError(f"HM phase shift must be nonnegative, got {c.phase}",
                                             param="hm_components")
                if c.nu not in (0.5, 1.5):
                    raise ConfigurationError(f"HM smoothness must be 1/2 or 3/2, got {c.nu}", param="hm_components")
                if c.lengthscale <= 0.0 or c.sigma2 <= 0.0:
                    raise ConfigurationError("HM lengthscale and variance must be positive", param="hm_components")
                _check_scale(c.sigma2, c.lengthscale, "hm_components")
            if sum(c.weight for c in self.hm_components) <= 0.0:
                raise ConfigurationError("HM weights must not all be zero", param="hm_components")
            if not 0.0 < self.total_variance < math.inf:  # an underflow to 0 makes every variance 0
                raise ConfigurationError(f"HM total variance sum(weight * sigma2) is {self.total_variance!r}",
                                         param="hm_components")

    @property
    def total_variance(self) -> float:
        """kappa(x, x): sigma_f^2 for single kernels, the weighted sum for mixtures."""
        if self.family == "spectral_mixture":
            return float(sum(c.weight for c in self.sm_components))
        if self.family == "hida_matern":
            return sum(float(c.weight) * float(c.sigma2) for c in self.hm_components)
        return float(self.sigma_f2)

    def gram(self, X, X2=None) -> np.ndarray:
        return gram(self, X, X2)


def _check_scale(sigma2: float, lengthscale: float, param: str) -> None:
    """Reject a lengthscale whose l^2 or Matern-3/2 constant (sqrt(3)/l)^3 sigma2
    is not a finite float, so that no power taken for a kernel constant (SE
    exponent, Matern drift and diffusion, spectral density) overflows."""
    ell, lam = float(lengthscale), math.sqrt(3.0) / float(lengthscale)
    if not (math.isfinite(ell * ell) and math.isfinite(lam * lam * lam * float(sigma2))):
        raise ConfigurationError(
            f"lengthscale {lengthscale!r} with variance {sigma2!r} overflows l**2 or (sqrt(3)/l)**3 * variance",
            param=param)


def se(sigma_f2: float = 1.0, lengthscale: float = 1.0) -> Kernel:
    return Kernel("se", sigma_f2=sigma_f2, lengthscale=lengthscale)


def matern12(sigma_f2: float = 1.0, lengthscale: float = 1.0) -> Kernel:
    return Kernel("matern12", sigma_f2=sigma_f2, lengthscale=lengthscale)


def matern32(sigma_f2: float = 1.0, lengthscale: float = 1.0) -> Kernel:
    return Kernel("matern32", sigma_f2=sigma_f2, lengthscale=lengthscale)


def spectral_mixture(components) -> Kernel:
    """Build an SM kernel from (weight, mean_freq, freq_var) triples."""
    comps = tuple(SmComponent(*c) if not isinstance(c, SmComponent) else c for c in components)
    return Kernel("spectral_mixture", sm_components=comps)


def hida_matern(components) -> Kernel:
    """Build an HM mixture from (weight, phase, nu, lengthscale, sigma2) tuples."""
    comps = tuple(HmComponent(*c) if not isinstance(c, HmComponent) else c for c in components)
    return Kernel("hida_matern", hm_components=comps)


def as_points(x) -> np.ndarray:
    """Coerce scalars / vectors / point lists to an (n, d) array."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        return a.reshape(1, 1)
    if a.ndim == 1:
        return a.reshape(-1, 1)
    if a.ndim == 2:
        return a
    raise ShapeError(f"points must be at most 2-dimensional, got shape {a.shape}")


def _matern_r(nu: float, sigma2: float, lengthscale: float, r: np.ndarray) -> np.ndarray:
    if nu == 0.5:
        return sigma2 * np.exp(-r / lengthscale)
    if nu == 1.5:
        z = math.sqrt(3.0) * r / lengthscale
        e = np.exp(-z)
        return _decayed(sigma2 * (1.0 + z) * e, e)
    raise ConfigurationError(f"unsupported Matern smoothness {nu}")


def _decayed(term: np.ndarray, envelope: np.ndarray) -> np.ndarray:
    """``term``, and 0, its limit, where its decaying ``envelope`` is 0: there an overflowed
    distance may have made the term's other factor (1 + z, a cosine) inf or NaN."""
    return np.where(envelope == 0.0, 0.0, term)


_MATERN_NU = {"matern12": 0.5, "matern32": 1.5}


def hida_matern_components(kernel: Kernel) -> tuple[HmComponent, ...] | None:
    """The kernel as a Hida-Matern mixture, or None for the SE and
    spectral-mixture families.  A Matern-1/2 or Matern-3/2 kernel is the
    one-component, zero-phase, unit-weight mixture: cos(0 r) = 1 and the
    shifts s -+ 0 leave its value and spectral density as they are."""
    if kernel.family in _MATERN_NU:
        return (HmComponent(1.0, 0.0, _MATERN_NU[kernel.family], kernel.lengthscale, kernel.sigma_f2),)
    if kernel.family == "hida_matern":
        return kernel.hm_components
    return None


def kappa_of_distance(kernel: Kernel, r) -> np.ndarray:
    """Evaluate kappa at Euclidean distance(s) r >= 0, r = inf included: a term whose
    squared or scaled distance overflows is its limit 0, with no warning."""
    with np.errstate(all="ignore"):
        return _kappa(kernel, np.asarray(r, dtype=float))


def _kappa(kernel: Kernel, r: np.ndarray) -> np.ndarray:
    """``kappa_of_distance`` under the caller's ``np.errstate``; a factor cos(0 r) = 1 is not formed."""
    if kernel.family == "se":
        return kernel.sigma_f2 * np.exp(-(r * r) / (2.0 * kernel.lengthscale**2))
    out = np.zeros_like(r)
    if kernel.family == "spectral_mixture":
        for c in kernel.sm_components:
            envelope = c.weight * np.exp(-0.5 * c.freq_var * r * r)
            out += envelope if c.mean_freq == 0.0 else _decayed(envelope * np.cos(c.mean_freq * r), envelope)
        return out
    for c in hida_matern_components(kernel):
        m = _matern_r(c.nu, c.sigma2, c.lengthscale, r)
        out += c.weight * m if c.phase == 0.0 else _decayed(c.weight * np.cos(c.phase * r) * m, m)
    return out


def eval_kernel(kernel: Kernel, x, x2) -> float:
    """kappa(x, x2) for two points (scalars or equal-length vectors)."""
    a = np.atleast_1d(np.asarray(x, dtype=float))
    b = np.atleast_1d(np.asarray(x2, dtype=float))
    if a.shape != b.shape:
        raise ShapeError(f"point dimensions differ: {a.shape} vs {b.shape}")
    r = float(np.linalg.norm(a - b))
    return float(kappa_of_distance(kernel, r))


def _matern_psd(nu: float, sigma2: float, lengthscale: float, s: np.ndarray) -> np.ndarray:
    lam = math.sqrt(2.0 * nu) / lengthscale
    if nu == 0.5:
        return sigma2 * (lam / math.pi) / (lam**2 + s * s)
    if nu == 1.5:
        return sigma2 * (2.0 * lam**3 / math.pi) / (lam**2 + s * s) ** 2
    raise ConfigurationError(f"unsupported Matern smoothness {nu}")


def _gauss_pdf(s, mean, var):
    return np.exp(-0.5 * (s - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def eval_psd(kernel: Kernel, s) -> np.ndarray:
    """Spectral density S(s) of a 1-D kernel at angular frequencies ``s``.

    Even in s, nonnegative, and integrates to kappa(0) over the real line.
    """
    s = np.asarray(s, dtype=float)
    if kernel.family == "se":
        ell = kernel.lengthscale
        return kernel.sigma_f2 * (ell / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * ell * ell * s * s)
    out = np.zeros_like(s)
    if kernel.family == "spectral_mixture":
        for c in kernel.sm_components:
            out += c.weight * 0.5 * (_gauss_pdf(s, c.mean_freq, c.freq_var) + _gauss_pdf(s, -c.mean_freq, c.freq_var))
        return out
    # Hida-Matern (Matern included): each component's PSD is the Matern PSD shifted by +-b
    for c in hida_matern_components(kernel):
        out += c.weight * 0.5 * (
            _matern_psd(c.nu, c.sigma2, c.lengthscale, s - c.phase)
            + _matern_psd(c.nu, c.sigma2, c.lengthscale, s + c.phase)
        )
    return out


def gram(kernel: Kernel, X, X2=None) -> np.ndarray:
    """Cross-covariance matrix with entry (i, j) = kappa(X[i], X2[j])."""
    A = as_points(X)
    B = A if X2 is None else as_points(X2)
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ShapeError("point lists must be non-empty")
    if A.shape[1] != B.shape[1]:
        raise ShapeError(f"input dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    with np.errstate(all="ignore"):  # an overflowing squared distance is r = inf
        diff = A[:, None, :] - B[None, :, :]
        return _kappa(kernel, np.sqrt(np.sum(diff * diff, axis=-1)))
