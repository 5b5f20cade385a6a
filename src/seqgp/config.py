"""Flat key=value configuration: parsing, validation, and model assembly.

A config is a plain mapping of dotted keys to strings, merged from an
optional file (one ``key = value`` per line, ``#`` comments) and
command-line overrides.  There is no nested schema; ensemble members are
addressed with a ``member.<k>.`` prefix, and each member block is a
self-contained model config.  Errors carry the offending field path.
"""

from __future__ import annotations

import numpy as np

from . import kernels, linear_filter
from .errors import ConfigurationError

KERNEL_ALIASES = {
    "se": "se",
    "rbf": "se",
    "matern12": "matern12",
    "matern32": "matern32",
    "spectral_mixture": "spectral_mixture",
    "sm": "spectral_mixture",
    "hida_matern": "hida_matern",
    "hm": "hida_matern",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; blank lines and ``#`` comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_overrides(pairs) -> dict[str, str]:
    """Parse command-line ``key=value`` override tokens."""
    out: dict[str, str] = {}
    for token in pairs:
        if "=" not in token:
            raise ConfigurationError(f"override {token!r}: expected key=value")
        key, value = token.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def get_str(cfg: dict, key: str, default=None, choices=None, required=False) -> str | None:
    value = cfg.get(key, default)
    if value is None:
        if required:
            raise ConfigurationError(f"{key}: required key is missing")
        return None
    if choices is not None and value not in choices:
        raise ConfigurationError(f"{key}: expected one of {sorted(choices)}, got {value!r}")
    return value


def get_float(cfg: dict, key: str, default=None, required=False) -> float | None:
    value = cfg.get(key)
    if value is None:
        if required:
            raise ConfigurationError(f"{key}: required key is missing")
        return default
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigurationError(f"{key}: expected a number, got {value!r}") from exc


def get_int(cfg: dict, key: str, default=None, required=False) -> int | None:
    value = cfg.get(key)
    if value is None:
        if required:
            raise ConfigurationError(f"{key}: required key is missing")
        return default
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigurationError(f"{key}: expected an integer, got {value!r}") from exc


def get_bool(cfg: dict, key: str, default=False) -> bool:
    value = cfg.get(key)
    if value is None:
        return default
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigurationError(f"{key}: expected true/false, got {value!r}")


def get_float_list(cfg: dict, key: str) -> list[float] | None:
    value = cfg.get(key)
    if value is None:
        return None
    try:
        return [float(tok) for tok in value.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"{key}: expected comma-separated numbers, got {value!r}") from exc


def _parse_components(key: str, value: str, n_fields: int) -> list[tuple]:
    comps = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) != n_fields:
            raise ConfigurationError(f"{key}: component {part!r} needs {n_fields} colon-separated fields")
        try:
            comps.append(tuple(float(f) for f in fields))
        except ValueError as exc:
            raise ConfigurationError(f"{key}: non-numeric field in component {part!r}") from exc
    if not comps:
        raise ConfigurationError(f"{key}: no components given")
    return comps


def build_kernel(cfg: dict, prefix: str = "kernel.") -> kernels.Kernel:
    """Assemble a Kernel from ``<prefix>family`` and its hyperparameter keys."""
    name = get_str(cfg, prefix + "family", required=True)
    family = KERNEL_ALIASES.get(name.lower())
    if family is None:
        raise ConfigurationError(f"{prefix}family: unknown kernel {name!r} (choose from {sorted(set(KERNEL_ALIASES))})")
    try:
        if family in ("se", "matern12", "matern32"):
            return kernels.Kernel(
                family,
                sigma_f2=get_float(cfg, prefix + "sigma_f2", default=1.0),
                lengthscale=get_float(cfg, prefix + "lengthscale", default=1.0),
            )
        if family == "spectral_mixture":
            raw = get_str(cfg, prefix + "sm_components", required=True)
            return kernels.spectral_mixture(_parse_components(prefix + "sm_components", raw, 3))
        raw = get_str(cfg, prefix + "hm_components", required=True)
        return kernels.hida_matern(_parse_components(prefix + "hm_components", raw, 5))
    except ConfigurationError as exc:
        if str(exc).startswith(prefix):
            raise
        raise ConfigurationError(f"{prefix}*: {exc}") from exc


def build_dynamics(cfg: dict, prior_var: float, n_features: int) -> linear_filter.Dynamics:
    """Weight dynamics from ``dynamics.*`` keys (scalar u and C = c*I for general)."""
    mode = get_str(
        cfg, "dynamics.mode", default="static",
        choices={"static", "random_walk", "b2p", "general"},
    )
    if mode == "static":
        return linear_filter.static()
    if mode == "random_walk":
        s = get_float(cfg, "dynamics.sigma_rw2", required=True)
        try:
            return linear_filter.random_walk(s)
        except ConfigurationError as exc:
            raise ConfigurationError(f"dynamics.sigma_rw2: {exc}") from exc
    if mode == "b2p":
        lam = get_float(cfg, "dynamics.lambda", required=True)
        try:
            return linear_filter.b2p(lam, prior_var)
        except ConfigurationError as exc:
            raise ConfigurationError(f"dynamics.lambda: {exc}") from exc
    a = get_float(cfg, "dynamics.a", default=1.0)
    u = get_float(cfg, "dynamics.u", default=0.0)
    c = get_float(cfg, "dynamics.c", default=0.0)
    if c < 0.0:
        raise ConfigurationError(f"dynamics.c: process-noise scale must be nonnegative, got {c}")
    return linear_filter.general(a, np.full(n_features, u), c * np.eye(n_features))


def member_configs(cfg: dict) -> list[dict[str, str]]:
    """Split ``member.<k>.<key>`` entries into per-member config dicts."""
    members: dict[int, dict[str, str]] = {}
    for key, value in cfg.items():
        if not key.startswith("member."):
            continue
        parts = key.split(".", 2)
        if len(parts) != 3 or not parts[1].isdigit():
            raise ConfigurationError(f"{key}: member keys look like member.<k>.<key> with k >= 1")
        idx = int(parts[1])
        if idx < 1:
            raise ConfigurationError(f"{key}: member indices are 1-based")
        members.setdefault(idx, {})[parts[2]] = value
    if not members:
        raise ConfigurationError("ensemble model needs member.<k>.* keys")
    indices = sorted(members)
    if indices != list(range(1, len(indices) + 1)):
        raise ConfigurationError(f"member indices must be 1..K without gaps, got {indices}")
    out = []
    for idx in indices:
        block = members[idx]
        if "seed" not in block and "seed" in cfg:
            block["seed"] = cfg["seed"]
        out.append(block)
    return out


def load_locations(path: str) -> np.ndarray:
    """Read spatial locations from a CSV with columns x1[,x2,...]."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigurationError(f"spatial.locations: cannot read {path!r}: {exc}") from exc
    if not lines:
        raise ConfigurationError(f"spatial.locations: {path!r} is empty")
    start = 1 if lines[0].lstrip().lower().startswith("x") else 0
    rows = []
    for ln in lines[start:]:
        try:
            rows.append([float(tok) for tok in ln.split(",")])
        except ValueError as exc:
            raise ConfigurationError(f"spatial.locations: bad row {ln!r}") from exc
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2:
        raise ConfigurationError("spatial.locations: rows have inconsistent lengths")
    return arr
