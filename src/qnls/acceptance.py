"""Acceptance suite: eight numbered checks, one pass/fail line each.

Every check re-runs its experiment from the active config, compares the
result against a fixed tolerance, and reports a single line.  The same
functions back the ``qnls all`` command and tests/test_acceptance.py."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import experiments


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    data: dict = field(default_factory=dict)

    @property
    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} [{self.number}] {self.name}: {self.detail}"


def criterion_1(cfg) -> CriterionResult:
    res = experiments.run_identity(cfg)
    ok = res["max_residual"] <= 1e-5 and 3.5 <= res["min_ratio"] and res["max_ratio"] <= 4.5
    detail = (
        f"max relative residual {res['max_residual']:.3e} (tol 1e-05), "
        f"halving ratios in [{res['min_ratio']:.3f}, {res['max_ratio']:.3f}] (want [3.5, 4.5])"
    )
    return CriterionResult(1, "time-derivative identity", ok, detail, res)


def criterion_2(cfg) -> CriterionResult:
    res = experiments.run_smoothing(cfg)
    ok = res["min_fit"] >= 0.40
    detail = (
        f"min fitted regularity of the quadratic lift {res['min_fit']:.3f} "
        f"over {len(res['rows'])} seeds (want >= 0.40)"
    )
    return CriterionResult(2, "quadratic-lift smoothing", ok, detail, res)


def criterion_3(cfg) -> CriterionResult:
    res = experiments.run_decompose(cfg)
    ok = res["min_margin"] >= 0.3 and res["min_u_fit"] >= -0.65
    detail = (
        f"min remainder-vs-free regularity margin {res['min_margin']:.3f} (want >= 0.3); "
        f"rough-route min fitted difference regularity {res['min_u_fit']:.3f} (want >= -0.65; "
        f"data fit {res['u_data_fit']:.3f})"
    )
    return CriterionResult(3, "solution decomposition", ok, detail, res)


def criterion_4(cfg) -> CriterionResult:
    res = experiments.run_rates(cfg)
    bad = [r for r in res["slope_rows"] if not r[5]]
    ok = not bad
    pieces = []
    for kind, slope, _stderr, target, tol, k_ok in res["slope_rows"]:
        if tol == "":
            want = f">= {target:+.3f}"
        else:
            want = f"{target:+.3f}+-{tol:.2f}"
        mark = "ok" if k_ok else "OFF"
        pieces.append(f"{kind} {slope:+.3f} (want {want}, {mark})")
    detail = "; ".join(pieces)
    return CriterionResult(4, "dyadic product rates", ok, detail, res)


def criterion_5(cfg) -> CriterionResult:
    res = experiments.run_mnorm(cfg)
    c_ok = all(v <= 50.0 for v in res["family_c"].values())
    tiny_ok = res["max_tiny_reldiff"] <= 0.05
    ok = c_ok and tiny_ok
    cs = ", ".join(f"{k} C={v:.3f}" for k, v in sorted(res["family_c"].items()))
    detail = (
        f"fitted constants {cs} (want <= 50); "
        f"small-instance optimizer-vs-search gap {res['max_tiny_reldiff']:.3%} (want <= 5%)"
    )
    return CriterionResult(5, "multiplier lower bounds", ok, detail, res)


def criterion_6(cfg) -> CriterionResult:
    res = experiments.run_lipschitz(cfg)
    ok = res["spread"] <= 5.0
    detail = f"ratio spread {res['spread']:.3f} over epsilons (want <= 5)"
    return CriterionResult(6, "data-to-solution stability", ok, detail, res)


def criterion_7(cfg) -> CriterionResult:
    res = experiments.run_subst(cfg)
    ok = res["max_sup"] <= 1e-8
    detail = f"max sup-norm substitution defect {res['max_sup']:.3e} (want <= 1e-08)"
    return CriterionResult(7, "smooth-variable substitution", ok, detail, res)


def criterion_8(cfg) -> CriterionResult:
    res = experiments.run_infra(cfg)
    order = res["order"]["order_23"]
    checks = [
        (abs(order - 4.0) <= 0.2, f"integrator order {order:.3f} (want 4.0+-0.2)"),
        (res["partition_dev"] <= 1e-12, f"partition deviation {res['partition_dev']:.3e} (tol 1e-12)"),
        (res["bilinear_dev"] <= 1e-12, f"contraction-vs-reference {res['bilinear_dev']:.3e} (tol 1e-12)"),
        (res["forcing_dev"] <= 1e-10, f"remainder-forcing defect {res['forcing_dev']:.3e} (tol 1e-10)"),
        (res["max_route_dev"] <= 1e-6, f"route mismatch {res['max_route_dev']:.3e} (tol 1e-06)"),
    ]
    ok = all(c[0] for c in checks)
    detail = "; ".join(c[1] for c in checks)
    return CriterionResult(8, "numerical infrastructure", ok, detail, res)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_all(cfg) -> list:
    return [fn(cfg) for fn in CRITERIA]
