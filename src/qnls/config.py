"""Flat INI-style configuration: [section] headers and key = value lines.

Comments start with '#'; values are typed by the schema below; unknown
sections or keys and malformed lines are hard errors (exit code 2 at the
command line), as is a duplicate key or a value out of range.  A section's
grid, data, fit window and flows are range-checked by building them with
the drivers' own input functions in experiments.py."""

from __future__ import annotations

import math
from pathlib import Path

from . import experiments
from .rates import KIND_ORDER


class ConfigError(Exception):
    pass


def _float(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {s!r}")
    return v


def _int(s):
    v = _float(s)
    if v != int(v):
        raise ValueError(f"expected an integer, got {s!r}")
    return int(v)


def _floatlist(s):
    return [_float(p) for p in s.split(",") if p.strip()]


def _strlist(s):
    return [p.strip() for p in s.split(",") if p.strip()]


# section -> key -> (parser, default)
SCHEMA = {
    "run": {
        "alpha": (_float, 0.6),
        "beta": (_float, 0.2),
        "delta": (_float, 0.05),
        "seed": (_int, 1234),
        "threads": (_int, 1),
        "out": (str, "qnls_out"),
    },
    "identity": {
        "n_pairs": (_int, 8),
    },
    "smoothing": {
        "n_points": (_int, 1024),
        "sigma": (_float, 0.0),
        "freq_hi": (_float, 256.0),
        "n_seeds": (_int, 16),
        "fit_lo": (_int, 3),
        "fit_hi": (_int, 6),
    },
    "simulate": {
        "n_points": (_int, 256),
        "variables": (str, "u"),
        "kind": (str, "u2"),
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
        "order_t_final": (_float, 0.4),
        "route_t_final": (_float, 0.05),
    },
}


def default_config() -> dict:
    return {sec: {k: d for k, (_p, d) in keys.items()} for sec, keys in SCHEMA.items()}


def read_config(path) -> dict:
    """Read a config file and return the fully defaulted nested dict,
    checking each key and value's syntax but not its range."""
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
    return cfg


# the drivers' input builders, each labelled by its section: a builder
# makes its section's grid, data (fitted on the section's fit window) and
# flows, and raises ValueError for keys it cannot make them from
_INPUT_BUILDERS = (
    ("[smoothing]", experiments.smoothing_inputs),
    ("[decompose]", experiments.decompose_inputs),
    ("[lipschitz]", experiments.lipschitz_inputs),
    ("[subst]", experiments.subst_inputs),
    ("[simulate]", experiments.simulate_inputs),
    ("[infra] order check:", experiments.order_inputs),
    ("[infra] route check:", experiments.route_inputs),
)


def check_ranges(cfg, path=None) -> None:
    """Raise ConfigError for a value its parser accepts but the experiments
    cannot run with: the counts and windows checked here, and each grid,
    datum, fit window or flow that the drivers' own input builders reject.
    The message names path, the file cfg was read from, when given."""
    run, rates, mnorm = cfg["run"], cfg["rates"], cfg["mnorm"]
    bad = []
    if run["seed"] < 0:
        bad.append(f"[run] seed must be >= 0, got {run['seed']}")
    if run["threads"] < 1:
        bad.append(f"[run] threads must be >= 1, got {run['threads']}")
    for sec in ("run", "subst"):  # the nonlinearity's derivative order
        if not 0.0 <= cfg[sec]["beta"] < 0.5:
            bad.append(f"[{sec}] beta must be in [0, 1/2), got {cfg[sec]['beta']:g}")
    if rates["k_lo"] < 1:
        bad.append(f"[rates] k_lo must be >= 1, got {rates['k_lo']}")
    if rates["k_hi"] < rates["k_lo"] + 1:  # the slope fit needs two scales
        bad.append(f"[rates] k_hi must be >= k_lo + 1 = {rates['k_lo'] + 1}, got {rates['k_hi']}")
    # a box holds the rows tau - xi^2 in {-2, -1, 1, 2}; below 6 rows of the
    # 2*pi period two of them fall on one row or on the dropped Nyquist row
    if rates["n_t"] < 6 or rates["n_t"] % 2:
        bad.append(f"[rates] n_t must be even and >= 6, got {rates['n_t']}")
    kinds = rates["kinds"]
    if kinds != ["all"]:
        unknown = [k for k in kinds if k not in KIND_ORDER]
        if unknown or not kinds or len(set(kinds)) < len(kinds):
            bad.append(f"[rates] kinds must be `all` or distinct names from {', '.join(KIND_ORDER)}, "
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
    for sec, key in (("rates", "n_seeds"), ("identity", "n_pairs"), ("smoothing", "n_seeds")):
        if cfg[sec][key] < 1:
            bad.append(f"[{sec}] {key} must be >= 1, got {cfg[sec][key]}")
    eps = cfg["lipschitz"]["epsilons"]
    if not eps or any(e <= 0 for e in eps):
        bad.append(f"[lipschitz] epsilons must be positive, got {', '.join(f'{e:g}' for e in eps) or 'nothing'}")
    if not bad:  # the builders draw from [run] seed, so they need it in range
        for label, build in _INPUT_BUILDERS:
            try:
                build(cfg)
            except ValueError as exc:
                bad.append(f"{label} {exc}")
    if bad:
        raise ConfigError(("" if path is None else f"{path}: ") + "; ".join(bad))


def load_config(path=None) -> dict:
    """Defaults when no path is given, else read_config, range-checked."""
    if path is None:
        return default_config()
    cfg = read_config(path)
    check_ranges(cfg, path)
    return cfg
