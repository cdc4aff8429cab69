"""Flat INI-style configuration: [section] headers and key = value lines.

Comments start with '#'; values are typed by the schema below; unknown
sections or keys and malformed lines are hard errors (exit code 2 at the
command line), as is a duplicate key or a value out of range."""

from __future__ import annotations

import math
from pathlib import Path

from .rates import KIND_ORDER


class ConfigError(Exception):
    pass


def _float(s):
    return float(s)


def _int(s):
    v = float(s)
    if v != int(v):
        raise ValueError(f"expected an integer, got {s!r}")
    return int(v)


def _str(s):
    return s


def _floatlist(s):
    return [float(p) for p in s.split(",") if p.strip()]


def _strlist(s):
    return [p.strip() for p in s.split(",") if p.strip()]


TWO_PI = 2.0 * math.pi

# section -> key -> (parser, default)
SCHEMA = {
    "run": {
        "alpha": (_float, 0.6),
        "beta": (_float, 0.2),
        "delta": (_float, 0.05),
        "seed": (_int, 1234),
        "threads": (_int, 1),
        "out": (_str, "qnls_out"),
    },
    "identity": {
        "n_points": (_int, 64),
        "band_limit": (_float, 3.0),
        "sigma": (_float, 3.0),
        "amplitude": (_float, 1.0),
        "dt": (_float, 1e-3),
        "t": (_float, 0.1),
        "n_pairs": (_int, 8),
    },
    "smoothing": {
        "n_points": (_int, 1024),
        "sigma": (_float, 0.0),
        "amplitude": (_float, 1.0),
        "freq_hi": (_float, 256.0),
        "n_seeds": (_int, 16),
        "fit_lo": (_int, 3),
        "fit_hi": (_int, 6),
    },
    "simulate": {
        "n_points": (_int, 256),
        "variables": (_str, "u"),
        "kind": (_str, "u2"),
        "dt": (_float, 2.5e-4),
        "t_final": (_float, 0.1),
        "n_saves": (_int, 11),
        "sigma": (_float, 3.0),
        "freq_hi": (_float, 8.0),
        "amplitude": (_float, 0.5),
    },
    "decompose": {
        "n_points": (_int, 1024),
        "dt": (_float, 1e-5),
        "t_final": (_float, 0.1),
        "n_saves": (_int, 11),
        "sigma": (_float, 0.0),
        "amplitude": (_float, 0.1),
        "freq_hi": (_float, 256.0),
        "fit_lo": (_int, 3),
        "fit_hi": (_int, 6),
        "u_sigma": (_float, -0.79),
        "u_amplitude": (_float, 0.02),
    },
    "rates": {
        "k_lo": (_int, 3),
        "k_hi": (_int, 8),
        "n_seeds": (_int, 16),
        "n_t": (_int, 256),
        "kinds": (_strlist, ["all"]),
    },
    "mnorm": {
        "n_tau": (_int, 64),
        "n_xi": (_int, 64),
        "iters": (_int, 8),
        "tiny_grid": (_int, 96),
    },
    "lipschitz": {
        "n_points": (_int, 512),
        "dt": (_float, 4e-5),
        "t_final": (_float, 0.1),
        "n_saves": (_int, 6),
        "sigma": (_float, -0.6),
        "amplitude": (_float, 0.05),
        "freq_hi": (_float, 128.0),
        "g_sigma": (_float, -0.5),
        "epsilons": (_floatlist, [1e-4, 1e-3, 1e-2, 1e-1]),
    },
    "subst": {
        "n_points": (_int, 256),
        "beta": (_float, 0.3),
        "dt": (_float, 2.5e-4),
        "t_final": (_float, 0.1),
        "n_saves": (_int, 6),
        "sigma": (_float, 3.0),
        "freq_hi": (_float, 8.0),
        "amplitude": (_float, 0.5),
    },
    "infra": {
        "n_points": (_int, 256),
        "order_n": (_int, 64),
        "order_dt": (_float, 0.02),
        "order_t_final": (_float, 0.4),
        "order_sigma": (_float, 1.0),
        "order_freq_hi": (_float, 8.0),
        "order_amplitude": (_float, 1.0),
        "route_dt": (_float, 2.5e-4),
        "route_t_final": (_float, 0.05),
    },
}


def default_config() -> dict:
    return {sec: {k: d for k, (_p, d) in keys.items()} for sec, keys in SCHEMA.items()}


def parse_config(path) -> dict:
    """Read a config file and return the fully defaulted nested dict."""
    cfg = default_config()
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    section = None
    seen = set()
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} in [{section}]")
        seen.add((section, key))
        parser, _default = SCHEMA[section][key]
        try:
            cfg[section][key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {section}.{key}: {exc}") from None
    try:
        check_ranges(cfg)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


def check_ranges(cfg) -> None:
    """Raise ConfigError for a value its parser accepts but the experiments
    cannot run with."""
    run, rates, mnorm = cfg["run"], cfg["rates"], cfg["mnorm"]
    bad = []
    if run["seed"] < 0:
        bad.append(f"[run] seed must be >= 0, got {run['seed']}")
    if run["threads"] < 1:
        bad.append(f"[run] threads must be >= 1, got {run['threads']}")
    if rates["k_lo"] < 1:
        bad.append(f"[rates] k_lo must be >= 1, got {rates['k_lo']}")
    if rates["k_hi"] < rates["k_lo"]:
        bad.append(f"[rates] k_hi must be >= k_lo = {rates['k_lo']}, got {rates['k_hi']}")
    if rates["n_seeds"] < 1:
        bad.append(f"[rates] n_seeds must be >= 1, got {rates['n_seeds']}")
    if rates["n_t"] < 2 or rates["n_t"] % 2:
        bad.append(f"[rates] n_t must be positive and even, got {rates['n_t']}")
    kinds = rates["kinds"]
    if kinds != ["all"]:
        unknown = [k for k in kinds if k not in KIND_ORDER]
        if unknown or not kinds:
            bad.append(f"[rates] kinds must be `all` or names from {', '.join(KIND_ORDER)}, "
                       f"got {', '.join(kinds) or 'nothing'}")
    if mnorm["n_tau"] < 4:
        bad.append(f"[mnorm] n_tau must be >= 4, got {mnorm['n_tau']}")
    # the sweep's scales 2 N0 and N0 must both sit on a lattice of step 2 N0 / (n_xi // 4)
    if mnorm["n_xi"] < 8 or (mnorm["n_xi"] // 4) % 2:
        bad.append(f"[mnorm] n_xi must be >= 8 with n_xi // 4 even, got {mnorm['n_xi']}")
    if mnorm["iters"] < 1:
        bad.append(f"[mnorm] iters must be >= 1, got {mnorm['iters']}")
    if mnorm["tiny_grid"] < 2:
        bad.append(f"[mnorm] tiny_grid must be >= 2, got {mnorm['tiny_grid']}")
    if bad:
        raise ConfigError("; ".join(bad))


def load_config(path=None) -> dict:
    """Defaults when no path is given, else parse_config."""
    if path is None:
        return default_config()
    return parse_config(path)
