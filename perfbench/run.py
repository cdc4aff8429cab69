"""End-to-end and per-layer benchmark of the qnls acceptance criteria.

    python3 perfbench/run.py --workload flow --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record

Workloads (together they run all eight criteria once, so the sum of their
wall_s is ``qnls all`` without its artifact writes):

  flow    criteria 3, 6, 7: Lawson-RK4 flows on guard-band-limited states at
          n = 1024, 512, 256; the RK4 nonlinearity stage does most of the
          work, spacetime, rates and mnorm do none.
  rates   criterion 4, all eight kinds: 768 rate cells on 256 x 2^(k+3)
          space-time fields; no integrator, lift or trilinear work.
  checks  criteria 1, 2, 5, 8: mnorm's trilinear partials, the dense lift
          inside every RK4 stage of direct_w_solve, small unguarded grids --
          the same integrator and bilinear layer used differently from flow.

Every pass is a fresh process (perfbench/worker.py) with [run] threads = 1,
the default config and BLAS/OpenMP pinned to one thread.  With --trace 0
the run times set-up in several fresh processes, then runs passes until the
next one would end after --seconds (at least one), and reports medians:
setup_s, wall_s, cpu_s, peak_rss_mb.  With --trace 1 it runs one untraced
and one traced pass and reports the per-layer metrics, each criterion's
untraced wall time (critN_s) and the tracing overhead (traced minus
untraced wall_s).

--seed n selects the config seed 1234 + (n - 1234) mod 16, so the default
--seed 1234 is the config's own seed.  perfbench/reference.json holds every
criterion's pass/fail flags and headline scalars at those 16 seeds; each
pass is compared against it and the last stdout line reports the number of
checks attempted and failed.  The line before it records failed_frac, crit
3's min_margin and min_u_fit, and the environment: nproc, CPU model, Python,
numpy, numba, BLAS/OpenMP thread settings and [run] threads.  A report with
every pass, and with --trace 1 the spans, go to .bench_out/.  --record
rewrites reference.json from the current code.  --smoke runs all three
workloads on perfbench/tiny.cfg, checks that every metric BENCHMARK.json
names is emitted with its unit, and that counts and results repeat exactly
across two runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
TINY = HERE / "tiny.cfg"

BASE_SEED = 1234  # [run] seed of the default config
N_REFERENCE_SEEDS = 16
SETUP_SAMPLES = 21  # set-up-only processes per untraced run, after one warm-up
RUN_LIMIT_S = 170.0  # a benchmark run must end within 180 s
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Relative tolerances of the headline scalars.  Discretisation-error
# measurements (a residual, a halving ratio, an order fit) come out of a
# cancellation, so rounding moves them more than the well-conditioned fits.
LOOSE = {"max_residual", "min_ratio", "max_ratio", "order_23"}
LOOSE_RTOL = 1e-6
TIGHT_RTOL = 1e-9
EXACT = {"cells", "n_triples"}


class WorkerError(RuntimeError):
    pass


def config_seed(seed: int) -> int:
    return BASE_SEED + (seed - BASE_SEED) % N_REFERENCE_SEEDS


def run_worker(args, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("run time limit reached")
    # bytecode caching on, as for a user: set-up then times cached imports
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env={**env, **THREAD_ENV},
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------------

def _scalar_ok(name: str, ref: float, got: float) -> bool:
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    if name in EXACT:
        return ref == got
    rtol = LOOSE_RTOL if name in LOOSE else TIGHT_RTOL
    return abs(got - ref) <= rtol * abs(ref)


def compare(ref: dict, results: dict) -> tuple:
    """(attempted, failed, messages) of one pass against its reference."""
    attempted, failed, messages = 0, 0, []
    for number, want in ref.items():
        got = results.get(number)
        if got is None:
            attempted, failed = attempted + 1, failed + 1
            messages.append(f"crit {number}: missing")
            continue
        for kind in ("flags", "scalars"):
            for name, value in want[kind].items():
                attempted += 1
                have = got[kind].get(name)
                ok = have == value if kind == "flags" else have is not None and _scalar_ok(name, value, have)
                if not ok:
                    failed += 1
                    messages.append(f"crit {number} {name}: reference {value!r}, got {have!r}")
    return attempted, failed, messages


def load_reference(workload: str, seed: int) -> dict:
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return table["workloads"][workload][str(seed)]


# ----------------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------------

def untraced_run(workload: str, cseed: int, seconds: float, deadline: float, config=None) -> tuple:
    extra = ["--config", str(config)] if config else []
    run_worker(["--setup-only", *extra], deadline)  # warm-up: byte-compiles the package
    setup = [run_worker(["--setup-only", *extra], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes = []
    t_begin = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(run_worker(["--workload", workload, "--seed", str(cseed), *extra], deadline))
        now = time.monotonic()
        if now + (now - t0) > t_begin + seconds:
            break
    setup += [p["setup_s"] for p in passes]

    def med(key):
        return statistics.median(p[key] for p in passes)

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
    }
    return metrics, passes, {"setup_samples": setup}


def traced_run(workload: str, cseed: int, deadline: float, spans: Path, config=None) -> tuple:
    extra = ["--config", str(config)] if config else []
    plain = run_worker(["--workload", workload, "--seed", str(cseed), *extra], deadline)
    traced = run_worker(
        ["--workload", workload, "--seed", str(cseed), "--trace", str(spans), *extra], deadline
    )
    metrics = {k: tuple(v) for k, v in traced.pop("layers").items()}
    metrics.update({f"crit{n}_s": (plain["crit_s"].get(str(n), 0.0), "s") for n in range(1, 9)})
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return metrics, [plain, traced], {"spans": str(spans.relative_to(ROOT))}


def bench(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    cseed = config_seed(args.seed)
    reference = load_reference(args.workload, cseed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, passes, extra = traced_run(args.workload, cseed, deadline, OUT / f"spans-{tag}.npz")
    else:
        metrics, passes, extra = untraced_run(args.workload, cseed, args.seconds, deadline)

    attempted, failed, messages = 0, 0, []
    for p in passes:
        a, f, m = compare(reference, p["results"])
        attempted, failed, messages = attempted + a, failed + f, messages + m
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": cseed,
        "passes": len(passes),
        "failed_frac": failed / attempted,
        "env": passes[0]["env"],
        "criteria": [r["line"] for r in passes[0]["results"].values()],
    }
    if "3" in passes[0]["results"]:
        info["crit3"] = {k: passes[0]["results"]["3"]["scalars"][k] for k in ("min_margin", "min_u_fit")}
    report = {**info, **extra, "mismatches": messages, "metrics": metrics, "pass_records": passes}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    for m in messages:
        print(f"MISMATCH {m}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# ----------------------------------------------------------------------------
# smoke test and reference recording
# ----------------------------------------------------------------------------

def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        reps = []
        for rep in range(2):
            deadline = time.monotonic() + RUN_LIMIT_S
            e2e, p0, _ = untraced_run(workload, BASE_SEED, 0.0, deadline, TINY)
            layer, p1, _ = traced_run(workload, BASE_SEED, deadline, OUT / f"spans-smoke-{workload}.npz", TINY)
            reps.append((layer, [p["results"] for p in p0 + p1]))
            for got, want, label in ((e2e, want_e2e, "end_to_end"), (layer, want_layer, "per_layer")):
                for name, unit in want.items():
                    if name not in got:
                        problems.append(f"{workload}: {label} metric {name} not emitted")
                    elif got[name][1] != unit:
                        problems.append(f"{workload}: {name} unit {got[name][1]!r}, want {unit!r}")
        (l0, r0), (l1, r1) = reps
        for name, (value, unit) in l0.items():
            if unit in ("count", "bytes") and l1[name][0] != value:
                problems.append(f"{workload}: count {name} {value} then {l1[name][0]}")
        if any(r != r0[0] for r in r0 + r1):
            problems.append(f"{workload}: criterion results differ between passes")
        print(f"smoke {workload}: {len(l0)} per-layer metrics, {len(e2e)} end-to-end metrics")
    for p in problems:
        print(f"SMOKE {p}", file=sys.stderr)
    print(json.dumps({"smoke_ok": not problems, "problems": len(problems)}))
    return 0 if not problems else 1


def record() -> int:
    table = {
        "note": "flags and headline scalars per workload and config seed, recorded by run.py --record",
        "workloads": {},
    }
    for workload in WORKLOADS:
        table["workloads"][workload] = {}
        for cseed in range(BASE_SEED, BASE_SEED + N_REFERENCE_SEEDS):
            p = run_worker(["--workload", workload, "--seed", str(cseed)], time.monotonic() + 600)
            table["workloads"][workload][str(cseed)] = {
                n: {"flags": r["flags"], "scalars": r["scalars"]} for n, r in p["results"].items()
            }
            print(workload, cseed, f"{p['wall_s']:.2f}s", [r["line"][:40] for r in p["results"].values()], flush=True)
    REFERENCE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=BASE_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny-config check of every metric and count")
    ap.add_argument("--record", action="store_true", help="rewrite perfbench/reference.json")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
