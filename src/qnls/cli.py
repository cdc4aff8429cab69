"""Command-line front end.

Exit codes: 0 on success, 1 when a checked threshold fails (or the field
blows up), 2 on usage or configuration errors and for nothing else: every
config value is range-checked when it loads, so any other exception is a
fault of the program and surfaces with its traceback."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

from . import acceptance, experiments
from .config import ConfigError, check_ranges, default_config, read_config
from .evolution import BlowUpError
from .reports import write_csv, write_gnuplot, write_report, write_trajectory


def _write_rates_dat(res, out_dir):
    """rates.dat: the median ratio at each dyadic level k, one column per kind."""
    kinds = list(res["slopes"])
    med = {(kind, k): ratio for kind, k, ratio in res["rows"]}
    ks = sorted({k for _kind, k in med})
    table = [[k] + [med.get((kind, k), float("nan")) for kind in kinds] for k in ks]
    write_gnuplot(os.path.join(out_dir, "rates.dat"),
                  "median product ratio per dyadic level", ["k"] + kinds, table)


class _Command(NamedTuple):
    """A criterion command: its check, its help line, its CSVs as (file, header,
    result key), its JSON report's result keys and its writer of any non-CSV artifact."""
    criterion: Callable
    help: str
    csvs: list
    report: list
    extra: Callable | None = None


# one row per criterion command, in `qnls --help` order
_COMMANDS = {
    "identity": _Command(
        acceptance.criterion_1, "residual of the time-derivative identity for the lift symbols",
        [("identity.csv", ["kind", "pair", "dt", "residual", "residual_half", "ratio"], "rows")],
        ["max_residual", "min_ratio", "max_ratio", "timing"]),
    "decompose": _Command(
        acceptance.criterion_3, "split a solution into free + lift + remainder and fit regularities",
        [("decompose_v.csv", ["t", "fit_free", "fit_lift", "fit_remainder", "margin", "remainder_l2"], "v_rows"),
         ("decompose_u.csv", ["t", "fit_difference", "difference_l2"], "u_rows")],
        ["min_margin", "min_margin_t", "min_u_fit", "min_u_fit_t", "u_data_fit", "health", "timing"]),
    "rates": _Command(
        acceptance.criterion_4, "dyadic product-estimate rate slopes",
        [("rates.csv", ["kind", "k", "median_ratio"], "rows"),
         ("rates_slopes.csv", ["kind", "slope", "stderr", "target", "tol", "ok"], "slope_rows")],
        ["slopes", "health", "timing"], _write_rates_dat),
    "mnorm": _Command(
        acceptance.criterion_5, "multiplier-form lower-bound sweep",
        [("mnorm_sweep.csv", ["family", "n0", "estimate", "bound", "ratio", "n_triples", "empty"], "sweep_rows"),
         ("mnorm_tiny.csv", ["label", "alternating", "search", "rel_diff"], "tiny_rows")],
        ["family_c", "max_tiny_reldiff", "ppm4_size_slope", "health", "timing"]),
    "lipschitz": _Command(
        acceptance.criterion_6, "data-to-solution stability ratios",
        [("lipschitz.csv", ["epsilon", "ratio"], "rows")], ["spread", "nonlinear_share", "health", "timing"]),
    "subst": _Command(
        acceptance.criterion_7, "smooth-variable substitution defect",
        [("subst.csv", ["dt", "sup_diff"], "rows")], ["max_sup", "health", "timing"]),
}


def _build_parser() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", default=None, help="path to an INI config file")
    parent.add_argument("--out", default=None,
                        help="output directory (default: $QNLS_OUT or [run] out)")
    parent.add_argument("--seed", type=int, default=None, help="override [run] seed")
    parent.add_argument("--threads", type=int, default=None, help="override [run] threads")
    parser = argparse.ArgumentParser(prog="qnls",
                                     description="pseudospectral checks for a quadratic "
                                                 "dispersive model on the circle")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = [(name, row.help) for name, row in _COMMANDS.items()]
    helps.insert(1, ("simulate", "integrate once and dump the trajectory"))  # second, after identity
    for name, text in helps + [("all", "run the full acceptance suite")]:
        sub.add_parser(name, parents=[parent], help=text)
    return parser


def cmd_criterion(name, cfg, out_dir) -> int:
    row = _COMMANDS[name]
    result = row.criterion(cfg)
    for file, header, key in row.csvs:
        write_csv(os.path.join(out_dir, file), header, result.data[key])
    if row.extra is not None:
        row.extra(result.data, out_dir)
    write_report(os.path.join(out_dir, f"{name}.json"), name, cfg, {k: result.data[k] for k in row.report})
    print(result.line)
    return 0 if result.passed else 1


def cmd_simulate(cfg, out_dir) -> int:
    res, traj = experiments.run_simulate(cfg)
    write_trajectory(out_dir, "trajectory", traj)
    write_csv(os.path.join(out_dir, "simulate_l2.csv"), ["t", "l2"], res["rows"])
    write_report(os.path.join(out_dir, "simulate.json"), "simulate", cfg,
                 {k: res[k] for k in ("final_l2", "health", "timing")})
    print(f"integrated to t={traj.times[-1]:.6g}; final L2 norm {res['final_l2']:.6e}")
    return 0


def cmd_all(cfg, out_dir) -> int:
    results = acceptance.run_all(cfg)
    for r in results:
        print(r.line)
    summary = [(r.number, r.name, r.passed, r.detail) for r in results]
    write_csv(os.path.join(out_dir, "acceptance.csv"),
              ["number", "name", "passed", "detail"], summary)
    write_report(os.path.join(out_dir, "acceptance.json"), "acceptance", cfg,
                 {"criteria": [{"number": r.number, "name": r.name, "passed": r.passed,
                                "detail": r.detail,
                                **({"timing": r.data["timing"]} if "timing" in r.data else {})}
                               for r in results]},
                 passed=all(r.passed for r in results))
    n_bad = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_bad}/{len(results)} criteria passed")
    return 0 if n_bad == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        cfg = default_config() if args.config is None else read_config(args.config)
        if args.seed is not None:
            cfg["run"]["seed"] = args.seed
        if args.threads is not None:
            cfg["run"]["threads"] = args.threads
        check_ranges(cfg, args.config)  # once, with the overrides in place
    except ConfigError as exc:
        print(f"qnls: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qnls: cannot read config: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or os.environ.get("QNLS_OUT") or cfg["run"]["out"]
    cfg["run"]["out"] = out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"qnls: cannot create output directory {out_dir}: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command in _COMMANDS:
            return cmd_criterion(args.command, cfg, out_dir)
        return {"simulate": cmd_simulate, "all": cmd_all}[args.command](cfg, out_dir)
    except BlowUpError as exc:
        print(f"qnls: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
