"""Command-line front end.

Exit codes: 0 on success, 1 when a checked threshold fails (or the field
blows up), 2 on usage or configuration errors."""

from __future__ import annotations

import argparse
import os
import sys

from . import acceptance, experiments
from .config import ConfigError, check_ranges, load_config
from .evolution import BlowUpError
from .reports import write_csv, write_gnuplot, write_report, write_trajectory


def _parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", default=None, help="path to an INI config file")
    p.add_argument("--out", default=None,
                   help="output directory (default: $QNLS_OUT or [run] out)")
    p.add_argument("--seed", type=int, default=None, help="override [run] seed")
    p.add_argument("--threads", type=int, default=None, help="override [run] threads")
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qnls",
                                     description="pseudospectral checks for a quadratic "
                                                 "dispersive model on the circle")
    sub = parser.add_subparsers(dest="command", required=True)
    parent = [_parent()]
    sub.add_parser("identity", parents=parent,
                   help="residual of the time-derivative identity for the lift symbols")
    sub.add_parser("simulate", parents=parent, help="integrate once and dump the trajectory")
    sub.add_parser("decompose", parents=parent,
                   help="split a solution into free + lift + remainder and fit regularities")
    sub.add_parser("rates", parents=parent, help="dyadic product-estimate rate slopes")
    sub.add_parser("mnorm", parents=parent, help="multiplier-form lower-bound sweep")
    sub.add_parser("lipschitz", parents=parent, help="data-to-solution stability ratios")
    sub.add_parser("subst", parents=parent, help="smooth-variable substitution defect")
    sub.add_parser("all", parents=parent, help="run the full acceptance suite")
    return parser


def _criterion_command(cfg, out_dir, crit_fn, writers) -> int:
    result = crit_fn(cfg)
    for writer in writers:
        writer(result.data, cfg, out_dir)
    print(result.line)
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# per-command artifact writers
# ---------------------------------------------------------------------------

def _write_identity(res, cfg, out_dir):
    write_csv(os.path.join(out_dir, "identity.csv"),
              ["kind", "pair", "dt", "residual", "residual_half", "ratio"], res["rows"])
    write_report(os.path.join(out_dir, "identity.json"), "identity", cfg,
                 {k: res[k] for k in ("max_residual", "min_ratio", "max_ratio")})


def _write_decompose(res, cfg, out_dir):
    write_csv(os.path.join(out_dir, "decompose_v.csv"),
              ["t", "fit_free", "fit_lift", "fit_remainder", "margin", "remainder_l2"],
              res["v_rows"])
    write_csv(os.path.join(out_dir, "decompose_u.csv"),
              ["t", "fit_difference", "difference_l2"], res["u_rows"])
    write_report(os.path.join(out_dir, "decompose.json"), "decompose", cfg,
                 {k: res[k] for k in ("min_margin", "min_u_fit", "u_data_fit", "w0_check")})


def _write_rates(res, cfg, out_dir):
    write_csv(os.path.join(out_dir, "rates.csv"), ["kind", "k", "median_ratio"], res["rows"])
    write_csv(os.path.join(out_dir, "rates_slopes.csv"),
              ["kind", "slope", "stderr", "target", "tol", "ok"], res["slope_rows"])
    kinds = [r[0] for r in res["slope_rows"]]
    ks = sorted({row[1] for row in res["rows"]})
    med = {(r[0], r[1]): r[2] for r in res["rows"]}
    table = [[k] + [med.get((kind, k), float("nan")) for kind in kinds] for k in ks]
    write_gnuplot(os.path.join(out_dir, "rates.dat"),
                  "median product ratio per dyadic level", ["k"] + kinds, table)
    write_report(os.path.join(out_dir, "rates.json"), "rates", cfg,
                 {"slopes": {r[0]: r[1] for r in res["slope_rows"]},
                  "health": res["health"], "timing": res["timing"]})


def _write_mnorm(res, cfg, out_dir):
    write_csv(os.path.join(out_dir, "mnorm_sweep.csv"),
              ["family", "n0", "estimate", "bound", "ratio", "n_triples", "empty"],
              res["sweep_rows"])
    write_csv(os.path.join(out_dir, "mnorm_tiny.csv"),
              ["label", "alternating", "search", "rel_diff"], res["tiny_rows"])
    write_report(os.path.join(out_dir, "mnorm.json"), "mnorm", cfg,
                 {"family_c": res["family_c"], "max_tiny_reldiff": res["max_tiny_reldiff"],
                  "ppm4_size_slope": res["ppm4_size_slope"],
                  "health": res["health"], "timing": res["timing"]})


def _write_lipschitz(res, cfg, out_dir):
    write_csv(os.path.join(out_dir, "lipschitz.csv"), ["epsilon", "ratio"], res["rows"])
    write_report(os.path.join(out_dir, "lipschitz.json"), "lipschitz", cfg,
                 {"spread": res["spread"]})


def _write_subst(res, cfg, out_dir):
    write_csv(os.path.join(out_dir, "subst.csv"), ["dt", "sup_diff"], res["rows"])
    write_report(os.path.join(out_dir, "subst.json"), "subst", cfg,
                 {"max_sup": res["max_sup"]})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg, out_dir) -> int:
    res, traj = experiments.run_simulate(cfg)
    write_trajectory(out_dir, "trajectory", traj)
    write_csv(os.path.join(out_dir, "simulate_l2.csv"), ["t", "l2"], res["rows"])
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
                 {"criteria": [{"number": r.number, "name": r.name,
                                "passed": r.passed, "detail": r.detail} for r in results]},
                 passed=all(r.passed for r in results))
    n_bad = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_bad}/{len(results)} criteria passed")
    return 0 if n_bad == 0 else 1


_CRITERION_COMMANDS = {
    "identity": (acceptance.criterion_1, (_write_identity,)),
    "decompose": (acceptance.criterion_3, (_write_decompose,)),
    "rates": (acceptance.criterion_4, (_write_rates,)),
    "mnorm": (acceptance.criterion_5, (_write_mnorm,)),
    "lipschitz": (acceptance.criterion_6, (_write_lipschitz,)),
    "subst": (acceptance.criterion_7, (_write_subst,)),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["run"]["seed"] = args.seed
        if args.threads is not None:
            cfg["run"]["threads"] = args.threads
        check_ranges(cfg)
    except ConfigError as exc:
        print(f"qnls: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qnls: cannot read config: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or os.environ.get("QNLS_OUT") or cfg["run"]["out"]
    cfg["run"]["out"] = out_dir
    os.makedirs(out_dir, exist_ok=True)

    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "all":
            return cmd_all(cfg, out_dir)
        crit_fn, writers = _CRITERION_COMMANDS[args.command]
        return _criterion_command(cfg, out_dir, crit_fn, writers)
    except BlowUpError as exc:
        print(f"qnls: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"qnls: invalid setup: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
