"""Experiment drivers: pure functions from a config dict to result dicts.

Each driver draws its own deterministic seed stream from [run] seed, builds
its flows and operators, measures them and returns plain rows/scalars: the
experiments live here, the integrator module holds none.  The command-line
layer writes the artifacts; the acceptance suite judges every threshold and
times each driver's whole run.  A driver's `timing` holds only the phases
it measures inside its run.

Each section whose keys shape its rough data or flows builds its inputs in
one *_inputs function ([infra] in two: order_inputs and route_inputs): the
grid, the data (with its regularity fit where the section has a fit
window) and the flows, which [decompose], [lipschitz], [subst] and
[simulate] build from their keys through _section_flow.  Each raises
ValueError for keys it cannot build from, and config.check_ranges calls
each once to range-check a config.  The identity check (criterion 1) and
the order check's datum and step (criterion 8) are fixed here, on the
setups their gates are calibrated on."""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from .bilinear import (
    KIND_FLAGS,
    apply_bilinear,
    g_symbol,
    leibniz_residual,
    lift_coeffs,
    normal_form_pair,
    pair_g_coeffs,
    weighted_product,
)
from .evolution import (
    EvolutionConfig,
    decompose,
    direct_w_solve,
    integrate,
    integrate_batch,
    normal_form_h,
    remainder_forcing,
)
from .mnorm import (
    BoxSpec,
    bound_ppm1,
    bound_ppm2,
    bound_ppm4,
    exhaustive_lower_bound,
    multiplier_lower_bound,
)
from .rates import KIND_ORDER, product_rate_experiment
from .roughdata import DataSpec, gen_rough_data
from .spacetime import fit_line, fitted_regularity, sobolev_norm
from .spectral import (
    Grid,
    SpectralField,
    bessel_potential,
    free_propagate,
    l2_norm,
    lp_annulus,
    lp_bump,
    max_band,
    sign_project,
)

_TAGS = {
    "identity": 11,
    "smoothing": 22,
    "decompose": 33,
    "rates": 44,
    "mnorm": 55,
    "lipschitz": 66,
    "subst": 77,
    "simulate": 88,
    "infra": 99,
}


def _seed(cfg, tag, idx=0) -> int:
    base = int(cfg["run"]["seed"])
    return (base * 1000003 + _TAGS[tag]) * 1000003 + idx


def _datum(cfg, sec, idx=0) -> SpectralField:
    """Datum idx of a section, drawn from its n_points, sigma, freq_hi and amplitude."""
    c = cfg[sec]
    spec = DataSpec(c["sigma"], c["freq_hi"], amplitude=c["amplitude"], seed=_seed(cfg, sec, idx))
    return gen_rough_data(spec, Grid(c["n_points"]))


def _section_flow(cfg, sec, variables="u", kind="u2") -> EvolutionConfig:
    """The flow of a section from its n_points, dt, t_final and n_saves, at
    [run] alpha and beta; [subst] beta, the one section beta, overrides
    [run] beta."""
    c, run = cfg[sec], cfg["run"]
    return EvolutionConfig(
        c["n_points"], run["alpha"], c.get("beta", run["beta"]), c["dt"], c["t_final"],
        kind=kind, variables=variables, n_saves=c["n_saves"],
    )


# ----------------------------------------------------------------------------
# resonance identity
# ----------------------------------------------------------------------------

LIFT_KINDS = tuple(KIND_FLAGS)


def run_identity(cfg) -> dict:
    """The identity's residual at dt and dt/2 per kind and pair, at t = 0.1
    and dt = 1e-3 on pairs of smooth data (sigma 3 on |xi| <= 3, amplitude
    1) on 64 points: the setup its gate is calibrated on."""
    run = cfg["run"]
    grid = Grid(64)
    t, dt = 0.1, 1e-3
    rows = []
    for kind_idx, kind in enumerate(LIFT_KINDS):
        t_sym, g_sym = normal_form_pair(kind, run["alpha"], run["beta"])
        for pair in range(cfg["identity"]["n_pairs"]):
            base = _seed(cfg, "identity", kind_idx * 1000 + pair)
            f, g = (gen_rough_data(DataSpec(3.0, 3.0, amplitude=1.0, seed=seed), grid) for seed in (base, base + 500))
            residual = leibniz_residual(t_sym, g_sym, f, g, t, dt)
            residual_half = leibniz_residual(t_sym, g_sym, f, g, t, 0.5 * dt)
            ratio = residual / residual_half if residual_half > 0 else float("nan")
            rows.append((kind, pair, dt, residual, residual_half, ratio))
    residuals = [r[3] for r in rows]
    ratios = [r[5] for r in rows]
    return {
        "rows": rows,
        "max_residual": max(residuals),
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
    }


# ----------------------------------------------------------------------------
# normal-form smoothing on rough data
# ----------------------------------------------------------------------------

def smoothing_inputs(cfg, i=0):
    """Datum i of the smoothing check and its regularity fit on the fit
    window.  The datum has amplitude 1: the lift T is bilinear, so scaling
    the datum scales every band of T(f, f) alike and leaves its fit as it is."""
    c = cfg["smoothing"]
    f = gen_rough_data(DataSpec(c["sigma"], c["freq_hi"], amplitude=1.0, seed=_seed(cfg, "smoothing", i)),
                       Grid(c["n_points"]))
    return f, fitted_regularity(f, c["fit_lo"], c["fit_hi"])


def run_smoothing(cfg) -> dict:
    """The lift's fitted regularity per datum."""
    c = cfg["smoothing"]
    rows = []
    for i in range(c["n_seeds"]):
        f, data_fit = smoothing_inputs(cfg, i)
        h0 = SpectralField(f.grid, normal_form_h(f, [0.0], cfg["run"]["alpha"], cfg["run"]["beta"], "u2")[1][0])
        fit = fitted_regularity(h0, c["fit_lo"], c["fit_hi"])
        rows.append((i, fit.sigma, fit.stderr, data_fit.sigma))
    fits = [r[1] for r in rows]
    return {"rows": rows, "min_fit": min(fits), "median_fit": float(np.median(fits))}


# ----------------------------------------------------------------------------
# flow decomposition: free wave + quadratic lift + smoother remainder
# ----------------------------------------------------------------------------

def _flow_health(traj, **labels) -> dict:
    """Integrator health of one flow: RK4 steps, nonlinear-term (RHS)
    evaluations, the largest L2 norm at a save over the initial one, and the
    largest share of a save's L2 energy in the top octave of the guard band,
    n/8 < |j| <= n/4 (0 for a zero state): a share near 1 means the flow's
    energy sits at the truncation."""
    l2 = traj.l2_history
    growth = max(l2) / l2[0] if l2[0] > 0 else float("nan")
    steps = traj.config.n_steps
    grid = traj.config.grid
    idx = np.arange(grid.n)
    mag = np.minimum(idx, grid.n - idx)
    top = (mag > grid.guard_index // 2) & (mag <= grid.guard_index)
    share = 0.0
    for state in traj.states:
        energy = np.abs(state.coeffs) ** 2
        total = float(energy.sum())
        if total > 0.0:
            share = max(share, float(energy[top].sum()) / total)
    return {**labels, "steps": steps, "rhs_evals": 4 * steps, "max_l2_over_initial": growth,
            "max_top_octave_share": share}


def decompose_inputs(cfg):
    """The v-form datum f (free + normal form + smoother remainder), the
    u-form datum fu (the rough route, measured against its own free
    evolution), their flows, and fu's regularity fit on the fit window.
    f is fitted too: the v-rows fit it as the free wave at t = 0."""
    c = cfg["decompose"]
    f = _datum(cfg, "decompose", 0)
    fu = gen_rough_data(
        DataSpec(c["u_sigma"], c["freq_hi"], amplitude=c["u_amplitude"], seed=_seed(cfg, "decompose", 1)),
        f.grid,
    )
    fitted_regularity(f, c["fit_lo"], c["fit_hi"])
    u_data_fit = fitted_regularity(fu, c["fit_lo"], c["fit_hi"]).sigma
    vcfg, ucfg = (_section_flow(cfg, "decompose", variables) for variables in ("v", "u"))
    return f, fu, vcfg, ucfg, u_data_fit


def run_decompose(cfg) -> dict:
    """The v-form decomposition and the u-form route difference; the two
    flows run as one batch.  min_margin_t and min_u_fit_t are the save
    times of the two minima (the first such save on a tie); they and
    `health` (per flow) belong in the JSON report only."""
    c = cfg["decompose"]
    f, fu, vcfg, ucfg, u_data_fit = decompose_inputs(cfg)
    traj, traj_u = integrate_batch([vcfg, ucfg], [f, fu])

    dec = decompose(traj, f)
    v_rows = []
    for t, fr, hh, ww in zip(dec.times, dec.free, dec.h, dec.w):
        fit_free = fitted_regularity(fr, c["fit_lo"], c["fit_hi"]).sigma
        fit_h = fitted_regularity(hh, c["fit_lo"], c["fit_hi"]).sigma
        fit_w = fitted_regularity(ww, c["fit_lo"], c["fit_hi"]).sigma
        v_rows.append((t, fit_free, fit_h, fit_w, fit_w - fit_free, l2_norm(ww)))
    min_v = min(v_rows, key=lambda r: r[4])

    u_rows = []
    for t, state in zip(traj_u.times, traj_u.states):
        if t == 0.0:
            continue
        diff = state - free_propagate(t, fu)
        fit_diff = fitted_regularity(diff, c["fit_lo"], c["fit_hi"]).sigma
        u_rows.append((t, fit_diff, l2_norm(diff)))
    min_u = min(u_rows, key=lambda r: r[1])

    return {
        "v_rows": v_rows,
        "min_margin": min_v[4],
        "min_margin_t": min_v[0],
        "u_rows": u_rows,
        "u_data_fit": u_data_fit,
        "min_u_fit": min_u[1],
        "min_u_fit_t": min_u[0],
        "health": [_flow_health(traj, flow="v"), _flow_health(traj_u, flow="u")],
    }


# ----------------------------------------------------------------------------
# dyadic rate suite
# ----------------------------------------------------------------------------

def run_rates(cfg) -> dict:
    """Each kind's RateReport, median ratio per k and slope; `health` (per
    kind) and `timing` (`tables_s`, the seed-independent tables of every
    kind) belong in the JSON report only."""
    c = cfg["rates"]
    run = cfg["run"]
    kinds = list(KIND_ORDER) if c["kinds"] == ["all"] else list(c["kinds"])
    reports = {}
    rows = []
    health = {}
    for kind in kinds:
        rep = product_rate_experiment(
            kind,
            (c["k_lo"], c["k_hi"]),
            run["delta"],
            c["n_seeds"],
            c["n_t"],
            seed=_seed(cfg, "rates", KIND_ORDER.index(kind)),
            threads=run["threads"],
        )
        reports[kind] = rep
        for k, med in zip(rep.ks, rep.medians):
            rows.append((kind, k, med))
        health[kind] = _ratio_health(rep)
    return {
        "reports": reports,
        "rows": rows,
        "slopes": {kind: rep.slope for kind, rep in reports.items()},
        "health": health,
        "timing": {"tables_s": sum(rep.tables_s for rep in reports.values())},
    }


def _ratio_health(rep) -> dict:
    """Spread of the rate ensemble: the IQR of the finite ratios at each k
    (NaN when none is finite), the number of non-finite cells, and at each
    k the points of the x-grid the cells transform on, the number of
    (n_t, grid_n) transforms each cell runs and the time rows per block of
    a cell."""
    iqr = {}
    non_finite = 0
    for k, vals in rep.ratios.items():
        vals = np.asarray(vals, dtype=np.float64)
        finite = vals[np.isfinite(vals)]
        non_finite += vals.size - finite.size
        if finite.size:
            q1, q3 = np.percentile(finite, [25.0, 75.0])
            iqr[k] = float(q3 - q1)
        else:
            iqr[k] = float("nan")
    return {"iqr": iqr, "non_finite_cells": int(non_finite), "grid_n": dict(rep.grid_n),
            "transforms": dict(rep.transforms), "block_rows": dict(rep.block_rows)}


# ----------------------------------------------------------------------------
# multiplier lower-bound sweep
# ----------------------------------------------------------------------------

def mnorm_sweep_configs():
    """Nine box triples: three bound families at three sizes.

    All use curvature signs (+, +, -), comparable first/third scales
    (freqs (2N0, N0, N0)) and a resonance window H = 4 N0^2 ~ N1 N2 that the
    admissible corner actually attains; the third modulation scale equals H
    (the largest), so the families differ in the small modulations."""
    out = []
    for n0 in (8, 16, 32):
        h = 4.0 * n0 * n0
        freqs = (2.0 * n0, float(n0), float(n0))
        out.append(("ppm1", n0, BoxSpec((1, 1, -1), freqs, (1.0, 4.0, h)), h))
        out.append(("ppm2", n0, BoxSpec((1, 1, -1), freqs, (4.0, 4.0, h)), h))
        out.append(("ppm4", n0, BoxSpec((1, 1, -1), freqs, (2.0, 8.0, h)), h))
    return out

_BOUNDS = {"ppm1": bound_ppm1, "ppm2": bound_ppm2, "ppm4": bound_ppm4}


def run_mnorm(cfg) -> dict:
    """Sweep and tiny-instance results; `health` (per sweep box: the restart
    that found the best value, its value after each sweep, the triple count
    and the number of runs the triples form)
    and `timing` (the nine sweep boxes, and the tiny instances' alternating
    and search passes) belong in the JSON report only."""
    start = time.perf_counter()
    c = cfg["mnorm"]
    sweep_rows = []
    health = []
    family_c: dict = {}
    ppm4_points = []
    for family, n0, box, h in mnorm_sweep_configs():
        est = multiplier_lower_bound(
            box, h, n_tau=c["n_tau"], n_xi=c["n_xi"], iters=c["iters"],
            seed=_seed(cfg, "mnorm", n0),
        )
        bound = _BOUNDS[family](box.freqs, box.mods)
        ratio = est.value / bound
        sweep_rows.append((family, n0, est.value, bound, ratio, est.n_triples, est.empty))
        health.append({"family": family, "n0": n0, "best_restart": est.best_restart,
                       "sweep_values": list(est.sweep_values), "n_triples": est.n_triples,
                       "n_runs": est.n_runs})
        family_c[family] = max(family_c.get(family, 0.0), ratio)
        if family == "ppm4" and est.value > 0:
            ppm4_points.append((math.log2(n0), math.log2(est.value)))

    size_slope = fit_line(*zip(*ppm4_points))[0] if len(ppm4_points) >= 2 else float("nan")
    sweep_s = time.perf_counter() - start

    # tiny instances: alternating maximization against the sphere-sweep oracle
    tiny_rows = []
    tiny_alternating_s = tiny_search_s = 0.0
    for label, box, h in (
        ("tiny-a", BoxSpec((1, 1, -1), (2.0, 1.0, 1.0), (1.0, 1.0, 8.0)), 2.0),
        ("tiny-b", BoxSpec((1, 1, -1), (1.0, 1.0, 1.0), (1.0, 1.0, 8.0)), 4.0),
        ("tiny-c", BoxSpec((1, 1, -1), (2.0, 2.0, 1.0), (1.0, 1.0, 4.0)), 8.0),
    ):
        t0 = time.perf_counter()
        alt = multiplier_lower_bound(box, h, n_tau=4, n_xi=8, iters=24, seed=_seed(cfg, "mnorm", 999))
        t1 = time.perf_counter()
        exh = exhaustive_lower_bound(box, h, n_tau=4, n_xi=8, grid_points=c["tiny_grid"])
        tiny_alternating_s += t1 - t0
        tiny_search_s += time.perf_counter() - t1
        rel = abs(alt.value - exh) / max(exh, 1e-300)
        tiny_rows.append((label, alt.value, exh, rel))
    max_tiny = max(r[3] for r in tiny_rows)

    return {
        "sweep_rows": sweep_rows,
        "family_c": family_c,
        "tiny_rows": tiny_rows,
        "max_tiny_reldiff": max_tiny,
        "ppm4_size_slope": size_slope,
        "health": health,
        "timing": {"sweep_s": sweep_s, "tiny_alternating_s": tiny_alternating_s,
                   "tiny_search_s": tiny_search_s},
    }


# ----------------------------------------------------------------------------
# stability experiments
# ----------------------------------------------------------------------------

def lipschitz_inputs(cfg):
    """The base datum f, the direction g (unit in H^-1/2) and the flow.
    Each epsilon must move f: one for which f + eps g rounds to f in every
    coefficient gives a ratio of 0 that measures nothing."""
    c = cfg["lipschitz"]
    f = _datum(cfg, "lipschitz", 0)
    g_raw = gen_rough_data(DataSpec(c["g_sigma"], c["freq_hi"], seed=_seed(cfg, "lipschitz", 1)), f.grid)
    with np.errstate(over="ignore"):
        g_norm = sobolev_norm(-0.5, g_raw)
    if not math.isfinite(g_norm):
        raise ValueError(f"the H^-1/2 norm of the direction with g_sigma {c['g_sigma']:g} overflows")
    # the ratios divide by the direction's norm, the nonlinear share by the datum's
    for what, norm in ((f"direction with g_sigma {c['g_sigma']:g}", g_norm),
                       (f"datum with amplitude {c['amplitude']:g}", sobolev_norm(-0.5, f))):
        if norm == 0.0:
            raise ValueError(f"the H^-1/2 norm of the {what} underflows to 0")
    g = (1.0 / g_norm) * g_raw
    for eps in c["epsilons"]:
        if np.array_equal((f + eps * g).coeffs, f.coeffs):
            raise ValueError(f"epsilon {eps:g} leaves the datum unchanged: f + eps g rounds to f")
    return f, g, _section_flow(cfg, "lipschitz")


def run_lipschitz(cfg) -> dict:
    """Difference-quotient stability of the solution map: for each epsilon,
    sup_t ||u_eps(t) - u(t)||_{H^-1/2} / (eps ||g||_{H^-1/2}) between the
    flows of f + eps g and of f.  A roughly constant ratio across decades of
    epsilon is the numerical signature of the Lipschitz property.  The base
    flow and the perturbed flows run as one batch.  `health` (per flow),
    `nonlinear_share` (sup_t ||u(t) - e^{-it d^2} f||_{H^-1/2} /
    ||f||_{H^-1/2} of the base flow) belong in the JSON report only."""
    f, g, ecfg = lipschitz_inputs(cfg)
    epsilons = [float(eps) for eps in cfg["lipschitz"]["epsilons"]]
    base, *perturbed = integrate_batch([ecfg] * (1 + len(epsilons)), [f] + [f + eps * g for eps in epsilons])
    g_norm = sobolev_norm(-0.5, g)
    ratios = []
    for eps, pert in zip(epsilons, perturbed):
        worst = 0.0
        for su, sp in zip(base.states, pert.states):
            worst = max(worst, sobolev_norm(-0.5, sp - su) / (eps * g_norm))
        ratios.append(worst)
    finite = [r for r in ratios if r > 0]
    nonlinear = (sobolev_norm(-0.5, su - free_propagate(t, f)) for t, su in zip(base.times, base.states))
    health = [_flow_health(base, flow="base")]
    health += [_flow_health(traj, flow="perturbed", epsilon=eps) for eps, traj in zip(epsilons, perturbed)]
    return {
        "rows": list(zip(epsilons, ratios)),
        "spread": max(finite) / min(finite) if finite else float("inf"),
        "ratios": ratios,
        "nonlinear_share": max(nonlinear) / sobolev_norm(-0.5, f),
        "health": health,
    }


def subst_inputs(cfg):
    """The z-form datum and the flow of the substitution check."""
    return _datum(cfg, "subst"), _section_flow(cfg, "subst")


def run_subst(cfg) -> dict:
    """The substitution defect sup_t ||u(t) - <D>^beta z(t)||_L2 at dt and
    dt/2 ([subst] beta): the z-form flow, each snapshot lifted by
    <D>^beta, against the u-form flow from the lifted datum.  The two flows
    at one dt run as one batch.  `health` (per flow) belongs in the JSON
    report only."""
    z0, ecfg = subst_inputs(cfg)
    rows, health = [], []
    for dt in (ecfg.dt, 0.5 * ecfg.dt):
        configs = [replace(ecfg, dt=dt, variables=v) for v in ("z", "u")]
        traj_z, traj_u = integrate_batch(configs, [z0, bessel_potential(ecfg.beta, z0)])
        worst = 0.0
        for zu, uu in zip(traj_z.states, traj_u.states):
            worst = max(worst, l2_norm(uu - bessel_potential(ecfg.beta, zu)))
        rows.append((dt, worst))
        health += [_flow_health(traj, flow=traj.config.variables, dt=dt) for traj in (traj_z, traj_u)]
    return {
        "rows": rows,
        "max_sup": max(sup for _dt, sup in rows),
        "health": health,
    }


def simulate_inputs(cfg):
    """The datum and the flow of the simulate command."""
    c = cfg["simulate"]
    return _datum(cfg, "simulate"), _section_flow(cfg, "simulate", c["variables"], c["kind"])


def run_simulate(cfg) -> dict:
    """One flow, its trajectory and its L2 history; `health` belongs in the
    JSON report only."""
    data, ecfg = simulate_inputs(cfg)
    traj = integrate(ecfg, data)
    return {
        "trajectory": traj,
        "rows": list(zip(traj.times, traj.l2_history)),
        "final_l2": traj.l2_history[-1],
        "health": [_flow_health(traj, flow=ecfg.variables)],
    }


# ----------------------------------------------------------------------------
# infrastructure checks
# ----------------------------------------------------------------------------

def reference_apply_bilinear(sym, u, v):
    """Independent double-loop evaluation of a bilinear symbol contraction
    (plain Python arithmetic, explicit index wrap)."""
    grid = u.grid
    n = grid.n
    mat = sym.matrix(grid)
    a = list(u.coeffs if not sym.conj_first else np.conj(u.coeffs)[(-np.arange(n)) % n])
    c = list(v.coeffs if not sym.conj_second else np.conj(v.coeffs)[(-np.arange(n)) % n])
    out = [0j] * n
    for i in range(n):
        if a[i] == 0:
            continue
        for j in range(n):
            m = mat[i, j]
            if m != 0 and c[j] != 0:
                out[(i + j) % n] += m * a[i] * c[j]
    out[n // 2] = 0j
    return SpectralField(grid, np.array(out))


def order_inputs(cfg):
    """The order check's datum (sigma 1 on |xi| <= 8, amplitude 1, on 64
    points) and its flows to [infra] order_t_final at dt = 0.02 times 1,
    1/2, 1/4 and 1/16, by that factor: the setup its gate is calibrated on."""
    run = cfg["run"]
    data = gen_rough_data(DataSpec(1.0, 8.0, amplitude=1.0, seed=_seed(cfg, "infra", 0)), Grid(64))
    configs = {
        scale: EvolutionConfig(
            64, run["alpha"], run["beta"], 0.02 * scale, cfg["infra"]["order_t_final"],
            kind="u2", variables="u", n_saves=2,
        )
        for scale in (1.0, 0.5, 0.25, 1.0 / 16.0)
    }
    return data, configs


def measure_integrator_order(cfg) -> dict:
    data, configs = order_inputs(cfg)
    finals = {scale: integrate(ecfg, data).final for scale, ecfg in configs.items()}
    ref = finals[1.0 / 16.0]
    e1 = l2_norm(finals[1.0] - ref)
    e2 = l2_norm(finals[0.5] - ref)
    e3 = l2_norm(finals[0.25] - ref)
    return {
        "errors": [e1, e2, e3],
        "order_12": math.log2(e1 / e2) if e2 > 0 else float("nan"),
        "order_23": math.log2(e2 / e3) if e3 > 0 else float("nan"),
    }


def measure_partition_deviation() -> float:
    grid = Grid(1024)
    xi = grid.frequencies
    top = max_band(grid)
    total = lp_bump(xi).copy()
    for k in range(1, top + 1):
        total += lp_annulus(xi / float(2**k))
    covered = np.abs(xi) <= float(2**top)
    return float(np.max(np.abs(total[covered] - 1.0)))


def measure_bilinear_oracle_deviation(cfg) -> float:
    """Largest relative deviation from the plain double loop over the dense
    symbol matrix: of the dense contraction for the smoothing weight, and
    for each kind of the routes the flows take for its pair (T, G):
    lift_coeffs for T (the lift of normal_form_h) and pair_g_coeffs for G
    (direct_w_solve's paired forcing)."""
    alpha, beta = cfg["run"]["alpha"], cfg["run"]["beta"]
    grid = Grid(64)

    def route(coeffs, kind):
        return lambda f, g: SpectralField(grid, coeffs(kind, alpha, beta, grid, f.coeffs, g.coeffs))

    weight = g_symbol(alpha, beta)
    routes = [(weight, lambda f, g: apply_bilinear(weight, f, g))]
    routes += [(normal_form_pair(kind, alpha, beta)[0], route(lift_coeffs, kind)) for kind in LIFT_KINDS]
    routes += [(normal_form_pair(kind, alpha, beta)[1], route(pair_g_coeffs, kind)) for kind in LIFT_KINDS]
    worst = 0.0
    for idx, (sym, fast) in enumerate(routes):
        f = gen_rough_data(DataSpec(0.5, 16.0, seed=_seed(cfg, "infra", 100 + idx)), grid)
        g = gen_rough_data(DataSpec(0.5, 16.0, seed=_seed(cfg, "infra", 200 + idx)), grid)
        slow = reference_apply_bilinear(sym, f, g)
        scale = max(l2_norm(slow), 1e-300)
        worst = max(worst, l2_norm(fast(f, g) - slow) / scale)
    return worst


def measure_forcing_deviation(cfg) -> float:
    """Relative deviation of the u2 remainder forcing G(v, v) - G_pair(F, F),
    as direct_w_solve's stage forms it (remainder_forcing, with F and h from
    normal_form_h and G_pair from pair_g_coeffs), from the doubled-grid
    oracle: weighted_product(v, v) on the guard band minus
    weighted_product(F_+, F_+)."""
    run = cfg["run"]
    alpha, beta = run["alpha"], run["beta"]
    grid = Grid(256)
    f = gen_rough_data(DataSpec(0.0, 32.0, amplitude=0.2, seed=_seed(cfg, "infra", 300)), grid)
    t = 0.37
    big_f, h_field = (SpectralField(grid, rows[0]) for rows in normal_form_h(f, [t], alpha, beta, "u2"))
    w_field = gen_rough_data(DataSpec(1.0, 32.0, amplitude=0.1, seed=_seed(cfg, "infra", 301)), grid)
    v = big_f + h_field + w_field
    g_pair = pair_g_coeffs("u2", alpha, beta, grid, big_f.coeffs, big_f.coeffs)
    forcing = SpectralField(grid, remainder_forcing("u2", alpha, beta, grid, v.coeffs, g_pair))
    on_guard = np.abs(grid.frequencies) <= grid.guard_frequency
    full = weighted_product(alpha, beta - alpha, v, v)
    fplus = sign_project(big_f)
    paired = weighted_product(alpha, beta - alpha, fplus, fplus)
    target = SpectralField(grid, np.where(on_guard, full.coeffs, 0.0)) - paired
    return l2_norm(forcing - target) / max(l2_norm(target), 1e-300)


def route_inputs(cfg, kind_idx=0):
    """The route check's datum (smooth, on |xi| <= 8) and v-form flow for
    LIFT_KINDS[kind_idx] at dt = 2.5e-4, on [infra] n_points."""
    c = cfg["infra"]
    run = cfg["run"]
    spec = DataSpec(3.0, 8.0, amplitude=0.3, seed=_seed(cfg, "infra", 400 + kind_idx))
    data = gen_rough_data(spec, Grid(c["n_points"]))
    ecfg = EvolutionConfig(
        c["n_points"], run["alpha"], run["beta"], 2.5e-4, c["route_t_final"],
        kind=LIFT_KINDS[kind_idx], variables="v", n_saves=6,
    )
    return data, ecfg


def measure_route_equivalence(cfg) -> dict:
    """Decomposed w against the direct remainder solve, per kind: `rows`
    (kind, largest relative mismatch over the saves), `health` (the v-flow
    and the direct solve of each kind, as _flow_health), and per kind the
    seconds of the whole route (`route_s`) and of the direct solve's
    forcing tables (`forcing_s`)."""
    rows, health, route_s, forcing_s = [], [], {}, {}
    for kind_idx, kind in enumerate(LIFT_KINDS):
        start = time.perf_counter()
        data, ecfg = route_inputs(cfg, kind_idx)
        traj = integrate(ecfg, data)
        dec = decompose(traj, data)
        direct = direct_w_solve(ecfg, data)
        worst = 0.0
        for wd, wdir in zip(dec.w, direct.states):
            scale = max(l2_norm(wdir), 1e-300)
            worst = max(worst, l2_norm(wd - wdir) / scale)
        rows.append((kind, worst))
        health += [_flow_health(traj, kind=kind, flow="v"), _flow_health(direct, kind=kind, flow="w_direct")]
        route_s[kind] = time.perf_counter() - start
        forcing_s[kind] = direct.timing["forcing_s"]
    return {"rows": rows, "health": health, "route_s": route_s, "forcing_s": forcing_s}


def run_infra(cfg) -> dict:
    """The five infrastructure checks; `health` (the route check's flows)
    and `timing` (the order check, and per kind the route check and its
    forcing tables) belong in the JSON report only."""
    start = time.perf_counter()
    order = measure_integrator_order(cfg)
    order_s = time.perf_counter() - start
    partition = measure_partition_deviation()
    oracle = measure_bilinear_oracle_deviation(cfg)
    forcing = measure_forcing_deviation(cfg)
    route = measure_route_equivalence(cfg)
    return {
        "order": order,
        "partition_dev": partition,
        "bilinear_dev": oracle,
        "forcing_dev": forcing,
        "route_rows": route["rows"],
        "max_route_dev": max(r[1] for r in route["rows"]),
        "health": route["health"],
        "timing": {"order_s": order_s, "route_s": route["route_s"], "forcing_s": route["forcing_s"]},
    }
