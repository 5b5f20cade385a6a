"""Flat key=value configuration: parsing, validation, and model assembly.

A config is a plain mapping of dotted keys to strings, merged from an
optional file (one ``key = value`` per line, ``#`` comments) and
command-line overrides.  There is no nested schema; ensemble members are
addressed with a ``member.<k>.`` prefix, and each member block is a
self-contained model config.  Errors carry the offending field path.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

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


def _number(key: str, token: str) -> float:
    """Parse one finite number for ``key``; nan and inf are configuration errors."""
    try:
        value = float(token)
    except ValueError as exc:
        raise ConfigurationError(f"{key}: expected a number, got {token!r}") from exc
    if not math.isfinite(value):
        raise ConfigurationError(f"{key}: non-finite value {token!r}")
    return value


def get_float(cfg: dict, key: str, default=None, required=False) -> float | None:
    value = cfg.get(key)
    if value is None:
        if required:
            raise ConfigurationError(f"{key}: required key is missing")
        return default
    return _number(key, value)


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
    return [_number(key, tok) for tok in value.split(",") if tok.strip()]


def _parse_components(key: str, value: str, n_fields: int) -> list[tuple]:
    comps = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) != n_fields:
            raise ConfigurationError(f"{key}: component {part!r} needs {n_fields} colon-separated fields")
        comps.append(tuple(_number(key, f) for f in fields))
    if not comps:
        raise ConfigurationError(f"{key}: no components given")
    return comps


# The config key each library argument is read from; ``keyed`` names it.
PARAM_KEYS = {
    "noise_var": "noise_var", "family": "kernel.family",
    "n_features": "features.F", "halfwidth": "features.L",
    "n_inducing": "sparse.M", "inducing": "sparse.inducing", "locations": "spatial.locations",
    "sigma_rw2": "dynamics.sigma_rw2", "lambda_forget": "dynamics.lambda",
    "a": "dynamics.a", "u": "dynamics.u", "c": "dynamics.c",
}


@contextmanager
def keyed(table=PARAM_KEYS, prefix=""):
    """Re-raise a ``ConfigurationError`` as ``<prefix><key>: <message>``, ``key`` being what
    ``table`` maps its ``param`` to.  An error that names its key already (``param``
    None) gains only the prefix; one whose ``param`` no key feeds passes through."""
    try:
        yield
    except ConfigurationError as exc:
        key = table.get(exc.param)
        if key is None and exc.param is not None:
            raise
        raise type(exc)(f"{prefix}{key}: {exc}" if key else f"{prefix}{exc}") from exc


def build_kernel(cfg: dict, prefix: str = "kernel.") -> kernels.Kernel:
    """Assemble a Kernel from ``<prefix>family`` and its hyperparameter keys."""
    name = get_str(cfg, prefix + "family", required=True)
    family = KERNEL_ALIASES.get(name.lower())
    if family is None:
        raise ConfigurationError(f"{prefix}family: unknown kernel {name!r} (choose from {sorted(set(KERNEL_ALIASES))})")
    with keyed({field: prefix + field for field in ("sigma_f2", "lengthscale", "sm_components", "hm_components")}):
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


@keyed()
def build_dynamics(cfg: dict, prior_var: float) -> linear_filter.Dynamics:
    """Weight dynamics from ``dynamics.*`` keys; errors name the offending key."""
    mode = get_str(
        cfg, "dynamics.mode", default="static",
        choices={"static", "random_walk", "b2p", "general"},
    )
    if mode == "static":
        return linear_filter.static()
    if mode == "random_walk":
        return linear_filter.random_walk(get_float(cfg, "dynamics.sigma_rw2", required=True))
    if mode == "b2p":
        return linear_filter.b2p(get_float(cfg, "dynamics.lambda", required=True), prior_var)
    return linear_filter.general(
        get_float(cfg, "dynamics.a", default=1.0),
        get_float(cfg, "dynamics.u", default=0.0),
        get_float(cfg, "dynamics.c", default=0.0),
    )


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
        raise ConfigurationError("model: ensemble needs member.<k>.* keys")
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
    if len({len(r) for r in rows}) != 1:
        raise ConfigurationError("spatial.locations: rows have inconsistent lengths")
    arr = np.asarray(rows, dtype=float)
    if not np.isfinite(arr).all():
        raise ConfigurationError(f"spatial.locations: non-finite coordinate in {path!r}")
    return arr
