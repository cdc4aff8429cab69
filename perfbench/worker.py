"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload flow --seed 1234 [--trace SPANS.npz]
    python3 perfbench/worker.py --setup-only

The pass imports qnls from the checkout's src/ directory, loads the config,
sets [run] seed and runs the workload's criteria in order through
qnls.acceptance.criterion_N(cfg).  It prints one JSON object: set-up, wall
and CPU time, peak RSS, each criterion's wall time and outcome (pass/fail
flags and headline scalars) and, with --trace, the per-layer metrics.  A
fresh process per pass means lazy set-up (dense symbol matrices, cached
lift symbols) is paid by the criterion that triggers it, as on every
``qnls`` run.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# criteria of each workload, in the order they run
WORKLOADS = {"flow": (3, 6, 7), "rates": (4,), "checks": (1, 2, 5, 8)}


def _headline(number: int, res) -> tuple:
    """(flags, scalars) of one CriterionResult that the reference check compares.

    Defects that sit at rounding level (crit 7's substitution defect, crit
    8's partition, contraction, group-sum and route deviations, crit 5's
    optimizer-vs-search gap) are left out: a change of summation order
    moves them by orders of magnitude, so they are checked only through
    their criterion's gate, the "passed" flag."""
    d = res.data
    flags = {"passed": bool(res.passed)}
    scalars = {}
    if number == 1:
        scalars = {k: d[k] for k in ("max_residual", "min_ratio", "max_ratio")}
    elif number == 2:
        scalars = {k: d[k] for k in ("min_fit", "median_fit")}
    elif number == 3:
        scalars = {k: d[k] for k in ("min_margin", "min_u_fit", "u_data_fit")}
    elif number == 4:
        for kind, slope, _stderr, _target, _tol, ok in d["slope_rows"]:
            flags[f"ok.{kind}"] = bool(ok)
            scalars[f"slope.{kind}"] = slope
        scalars["cells"] = sum(len(v) for rep in d["reports"].values() for v in rep.ratios.values())
    elif number == 5:
        scalars = {f"C.{k}": v for k, v in d["family_c"].items()}
        scalars["ppm4_size_slope"] = d["ppm4_size_slope"]
        scalars["n_triples"] = sum(row[5] for row in d["sweep_rows"])
    elif number == 6:
        scalars = {"spread": d["spread"]}
        scalars.update({f"ratio.{i}": r for i, r in enumerate(d["ratios"])})
    elif number == 8:
        scalars = {"order_23": d["order"]["order_23"]}
    return flags, {k: float(v) for k, v in scalars.items()}


def environment(cfg) -> dict:
    import numpy as np

    from qnls import _kernels

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba_present": _kernels.HAS_NUMBA,
        "numba_used": _kernels.USE_NUMBA,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "QNLS_DISABLE_NUMBA")
        },
        "run_threads": cfg["run"]["threads"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1234, help="[run] seed of the config")
    ap.add_argument("--config", help="config file (default: the built-in defaults)")
    ap.add_argument("--trace", metavar="SPANS", help="trace the pass and write its spans here (.npz)")
    ap.add_argument("--setup-only", action="store_true", help="only import qnls and load the config")
    args = ap.parse_args(argv)
    if not args.setup_only and args.workload is None:
        ap.error("--workload is required")

    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()  # numpy is first imported by qnls
    import qnls

    if not Path(qnls.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"qnls imported from {qnls.__file__}, not from {SRC}")
    from qnls import acceptance, config

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = config.load_config(args.config)
    setup_s = time.perf_counter() - t_import
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cfg["run"]["seed"] = args.seed
    crit_s, results = {}, {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for number in WORKLOADS[args.workload]:
        t0 = time.perf_counter()
        res = getattr(acceptance, f"criterion_{number}")(cfg)
        crit_s[str(number)] = time.perf_counter() - t0
        flags, scalars = _headline(number, res)
        results[str(number)] = {"flags": flags, "scalars": scalars, "line": res.line}
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "crit_s": crit_s,
        "results": results,
        "env": environment(cfg),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.save(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
