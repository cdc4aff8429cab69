"""Acceptance criteria, one check per test, at the stated tolerances.

These run the same drivers as ``qnls all`` on the default configuration.
The dyadic rate suite is split per kind so each kind is its own line.
Its tests compare the measured slope with the slope that the periodic
model predicts (``rate_oracle``, a closed-form ensemble mean computed
independently of the package), not with the continuum R^1 rate that
``qnls all`` gates on: on a 2*pi-periodic grid over an O(1) time window
the transversal bilinear gain is absent, so five kinds stay red there
(see README *Known-red checks*) while their tests check what the
instrument does compute.
"""

from dataclasses import replace

import numpy as np
import pytest

from mnorm_oracle import restart_runs
from qnls import acceptance, evolution, experiments, mnorm, rates
from qnls.bilinear import pair_g_coeffs
from qnls.config import default_config
from qnls.rates import KIND_ORDER
from rate_oracle import predicted_slope


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def identity_result(cfg):
    return experiments.run_identity(cfg)


@pytest.fixture(scope="module")
def rates_result(cfg):
    return acceptance.criterion_4(cfg).data


@pytest.fixture(scope="module")
def infra_result(cfg):
    return acceptance.criterion_8(cfg).data


# --- criterion 1: time-derivative identity of the lift symbols ------------

def test_criterion_1_residual_small(identity_result):
    assert identity_result["max_residual"] <= 1e-5


def test_criterion_1_halving_quarters_residual(identity_result):
    assert identity_result["min_ratio"] >= 3.5
    assert identity_result["max_ratio"] <= 4.5


def test_criterion_1_covers_all_kinds(identity_result):
    kinds = {row[0] for row in identity_result["rows"]}
    assert kinds == {"u2", "uubar", "ubar2"}
    assert len(identity_result["rows"]) == 24  # 8 pairs per kind


@pytest.mark.parametrize("wrong", ["g-for-t", "next-kind-t"])
def test_criterion_1_fails_on_a_wrong_pair(cfg, monkeypatch, wrong):
    # negative controls: G in T's place, or the next kind's T with the kind's G
    pair = experiments.normal_form_pair
    kinds = experiments.LIFT_KINDS

    def wrong_pair(kind, alpha, beta):
        t_sym, g_sym = pair(kind, alpha, beta)
        if wrong == "g-for-t":
            return g_sym, g_sym
        return pair(kinds[(kinds.index(kind) + 1) % len(kinds)], alpha, beta)[0], g_sym

    monkeypatch.setattr(experiments, "normal_form_pair", wrong_pair)
    res = acceptance.criterion_1(cfg)
    assert not res.passed
    assert res.data["max_residual"] > 1.0


# --- criterion 2: quadratic lift smooths borderline data -------------------

def test_criterion_2_lift_gains_regularity(cfg):
    res = experiments.run_smoothing(cfg)
    assert len(res["rows"]) == 16
    assert res["min_fit"] >= 0.40


@pytest.mark.parametrize("scale", [0.37, 50.0])
def test_criterion_2_fit_does_not_depend_on_the_amplitude(cfg, monkeypatch, scale):
    # the lift T is bilinear: scaling the datum by c scales T(f, f) by c^2
    # in every band, which leaves the fitted regularity as it is; so the
    # smoothing check needs no amplitude key
    base = experiments.run_smoothing(cfg)
    inputs = experiments.smoothing_inputs

    def scaled(cfg, i=0):
        f, fit = inputs(cfg, i)
        return scale * f, fit

    monkeypatch.setattr(experiments, "smoothing_inputs", scaled)
    res = experiments.run_smoothing(cfg)
    assert res["min_fit"] == pytest.approx(base["min_fit"], rel=1e-12)
    assert res["median_fit"] == pytest.approx(base["median_fit"], rel=1e-12)


def test_criterion_2_fails_on_g_for_t(cfg, monkeypatch):
    # negative control: the lift built from G, T's weight without the resonance division
    lift = experiments.normal_form_h

    def g_lift(f, times, alpha, beta, kind):
        big_f, _h = lift(f, times, alpha, beta, kind)
        return big_f, pair_g_coeffs(kind, alpha, beta, f.grid, big_f, big_f)

    monkeypatch.setattr(experiments, "normal_form_h", g_lift)
    res = acceptance.criterion_2(cfg)
    assert not res.passed
    assert res.data["min_fit"] < 0.40


# --- criterion 3: decomposition of the flow --------------------------------

@pytest.fixture(scope="module")
def decompose_result(cfg):
    return experiments.run_decompose(cfg)


def test_criterion_3_remainder_smoother_than_free(decompose_result):
    assert decompose_result["min_margin"] >= 0.3


def test_criterion_3_rough_route_difference_regularity(decompose_result):
    assert decompose_result["u_data_fit"] == pytest.approx(-0.8, abs=0.05)
    assert decompose_result["min_u_fit"] >= -0.65


def test_criterion_3_reports_where_each_minimum_falls(decompose_result):
    margins = {row[0]: row[4] for row in decompose_result["v_rows"]}
    u_fits = {row[0]: row[1] for row in decompose_result["u_rows"]}
    assert margins[decompose_result["min_margin_t"]] == decompose_result["min_margin"] == min(margins.values())
    assert u_fits[decompose_result["min_u_fit_t"]] == decompose_result["min_u_fit"] == min(u_fits.values())


def test_criterion_3_fails_on_a_half_lift(cfg, monkeypatch):
    # negative control: the decomposition subtracts h/2, leaving h/2 in the remainder
    lift = evolution.normal_form_h

    def half_lift(*args):
        big_f, h = lift(*args)
        return big_f, h / 2

    monkeypatch.setattr(evolution, "normal_form_h", half_lift)
    res = acceptance.criterion_3(cfg)
    assert not res.passed
    assert res.data["min_margin"] < 0.3


# --- criterion 4: dyadic product rates (split per kind) ---------------------

# Largest |measured - predicted| slope accepted.  Over config seeds
# 1234..1249 the largest deviation is 0.011 for six kinds, 0.039 for kkk1
# and 0.052 for kkkk1 (box_mask drops the cells of modulation exactly 1 or 2
# through float rounding; the oracle keeps them).  0.06 is under half the
# smallest gap between a predicted slope and its continuum target (0.16,
# gain2).  A gain2 or kkk1 cell that loses its output projection fails here
# (test below); a gain1 cell that loses it does not (gap 0.002).
SLOPE_TOL = 0.06


def test_expected_slope_values():
    assert acceptance.expected_slope("gain1", 0.05) == (-0.45, 0.1)
    assert acceptance.expected_slope("kkkk1", 0.05) == (-0.25, 0.12)
    target, tol = acceptance.expected_slope("gain3", 0.05)
    assert target == -0.1 and tol is None
    with pytest.raises(ValueError):
        acceptance.expected_slope("nope", 0.05)


def _predicted(cfg, kind):
    c = cfg["rates"]
    return predicted_slope(kind, c["k_lo"], c["k_hi"], c["n_t"], cfg["run"]["delta"])


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_criterion_4_rate_slope(cfg, rates_result, kind):
    row = next(r for r in rates_result["slope_rows"] if r[0] == kind)
    _kind, slope, _stderr, target, tol, _ok = row
    predicted = _predicted(cfg, kind)
    gate = f">= {target:+.3f}" if tol == "" else f"{target:+.3f} +- {tol}"
    assert abs(slope - predicted) <= SLOPE_TOL, (
        f"{kind}: measured slope {slope:+.4f}, periodic prediction {predicted:+.4f} "
        f"+- {SLOPE_TOL}; continuum target {gate}"
    )


@pytest.mark.parametrize("kind", ["gain2", "kkk1"])
def test_criterion_4_fails_without_the_output_projection(cfg, monkeypatch, kind):
    # negative control: the rate cell skips its output projection
    spec = rates.KINDS[kind]
    monkeypatch.setitem(rates.KINDS, kind, spec[:2] + (None,) + spec[3:])
    rates._cell_tables.cache_clear()
    try:
        res = experiments.run_rates({**cfg, "rates": {**cfg["rates"], "kinds": [kind]}})
    finally:
        rates._cell_tables.cache_clear()
    assert abs(res["slopes"][kind] - _predicted(cfg, kind)) > SLOPE_TOL


# --- criterion 5: multiplier lower bounds -----------------------------------

@pytest.fixture(scope="module")
def mnorm_result(cfg):
    return experiments.run_mnorm(cfg)


def test_criterion_5_bounded_by_reference(mnorm_result):
    assert set(mnorm_result["family_c"]) == {"ppm1", "ppm2", "ppm4"}
    for family, c in mnorm_result["family_c"].items():
        assert 0 < c <= 50.0, f"{family}: C = {c}"


def test_criterion_5_optimizer_matches_search(mnorm_result):
    assert mnorm_result["max_tiny_reldiff"] <= 0.05


def test_criterion_5_sweep_is_nondegenerate(mnorm_result):
    for family, n0, est, bound, ratio, n_triples, empty in mnorm_result["sweep_rows"]:
        assert not empty and est > 0 and n_triples > 0


def test_criterion_5_fails_on_a_slot_3_only_maximizer(cfg, monkeypatch):
    # negative control: each sweep solves slot 3 only, so slots 1 and 2 keep
    # their random start
    def slot_3_only(model, iters=8, seed=0):
        if model.empty:
            return 0.0, -1, ()
        runs = restart_runs(model.triples, iters, seed, mnorm.SWEEPS, slots=(2,))
        finals = [r[-1] for r in runs]
        first = finals.index(max(finals))
        return finals[first], first, tuple(runs[first])

    monkeypatch.setattr(mnorm, "alternating_max", slot_3_only)
    res = acceptance.criterion_5(cfg)
    assert not res.passed
    assert res.data["max_tiny_reldiff"] > 0.05


# --- criterion 6: stability of the data-to-solution map ---------------------

def test_criterion_6_lipschitz_spread(cfg):
    res = experiments.run_lipschitz(cfg)
    assert res["spread"] <= 5.0


def test_criterion_6_fails_on_misaligned_saves(cfg, monkeypatch):
    # negative control: each perturbed flow's save j + 1 is compared with
    # the base flow's save j
    batch = experiments.integrate_batch

    def shifted(configs, initials):
        base, *perturbed = batch(configs, initials)
        return [base] + [replace(traj, states=traj.states[1:]) for traj in perturbed]

    monkeypatch.setattr(experiments, "integrate_batch", shifted)
    res = acceptance.criterion_6(cfg)
    assert not res.passed
    assert res.data["spread"] > 5.0


# --- criterion 7: smooth-variable substitution ------------------------------

def test_criterion_7_substitution_defect(cfg):
    res = experiments.run_subst(cfg)
    assert res["max_sup"] <= 1e-8


def test_criterion_7_fails_on_a_wrong_lift(cfg, monkeypatch):
    # negative control: the snapshots and the u-form data are lifted by
    # beta + 0.1 while both flows keep beta
    lift = experiments.bessel_potential
    monkeypatch.setattr(experiments, "bessel_potential", lambda s, field: lift(s + 0.1, field))
    res = acceptance.criterion_7(cfg)
    assert not res.passed
    assert res.data["max_sup"] > 1e-8


# --- criterion 8: numerical infrastructure ----------------------------------

def test_criterion_8_integrator_order(infra_result):
    assert infra_result["order"]["order_23"] == pytest.approx(4.0, abs=0.2)


def test_criterion_8_partition(infra_result):
    assert infra_result["partition_dev"] <= 1e-12


def test_criterion_8_contraction_reference(infra_result):
    assert infra_result["bilinear_dev"] <= 1e-12


def test_criterion_8_forcing(infra_result):
    assert infra_result["forcing_dev"] <= 1e-10


def test_criterion_8_fails_on_the_next_kinds_paired_forcing(cfg, monkeypatch):
    # negative control: the checked u2 forcing takes its pair term from the next kind's G
    pair_g = experiments.pair_g_coeffs
    kinds = experiments.LIFT_KINDS

    def next_pair_g(kind, *args):
        return pair_g(kinds[(kinds.index(kind) + 1) % len(kinds)], *args)

    monkeypatch.setattr(experiments, "pair_g_coeffs", next_pair_g)
    res = acceptance.criterion_8(cfg)
    assert not res.passed
    assert res.data["forcing_dev"] > 1e-10


def test_criterion_8_fails_on_the_next_kinds_conjugations_in_the_forcing(cfg, monkeypatch):
    # negative control: remainder_forcing, shared by the direct remainder
    # solve and the checked forcing, weighs G(v, v) with the next kind's
    # conjugations
    factors = evolution.kind_factors
    kinds = experiments.LIFT_KINDS

    def next_factors(kind, *args):
        return factors(kinds[(kinds.index(kind) + 1) % len(kinds)], *args)

    monkeypatch.setattr(evolution, "kind_factors", next_factors)
    res = acceptance.criterion_8(cfg)
    assert not res.passed
    assert res.data["forcing_dev"] > 1e-10
    assert all(dev > 1e-6 for _kind, dev in res.data["route_rows"])


def test_criterion_8_route_equivalence(infra_result):
    assert {r[0] for r in infra_result["route_rows"]} == {"u2", "uubar", "ubar2"}
    assert infra_result["max_route_dev"] <= 1e-6


def test_criterion_8_fails_on_the_next_kinds_forcing(cfg, monkeypatch):
    # negative control: the direct remainder solve is forced by the next kind's G
    pair_g = evolution.pair_g_coeffs
    kinds = experiments.LIFT_KINDS

    def next_pair_g(kind, *args):
        return pair_g(kinds[(kinds.index(kind) + 1) % len(kinds)], *args)

    monkeypatch.setattr(evolution, "pair_g_coeffs", next_pair_g)
    res = acceptance.criterion_8(cfg)
    assert not res.passed
    assert all(dev > 1e-6 for _kind, dev in res.data["route_rows"])


def test_criterion_8_reports_timing_and_health(infra_result):
    kinds = ("u2", "uubar", "ubar2")
    timing = infra_result["timing"]
    assert set(timing) == {"wall_s", "order_s", "route_s", "forcing_s"}
    assert set(timing["route_s"]) == set(timing["forcing_s"]) == set(kinds)
    assert 0 < timing["order_s"] + sum(timing["route_s"].values()) < timing["wall_s"]
    assert all(0 < timing["forcing_s"][k] < timing["route_s"][k] for k in kinds)
    health = infra_result["health"]
    assert [(h["kind"], h["flow"]) for h in health] == [(k, f) for k in kinds for f in ("v", "w_direct")]
    for h in health:
        assert h["steps"] > 0 and h["rhs_evals"] == 4 * h["steps"]
        assert 0 <= h["max_top_octave_share"] <= 1 and h["max_l2_over_initial"] > 0


# --- the one-line-per-criterion summary used by `qnls all` ------------------

def test_criterion_lines_render(cfg):
    res = acceptance.criterion_1(cfg)
    assert res.line.startswith("PASS [1] ") or res.line.startswith("FAIL [1] ")
    assert res.name in res.line and res.detail in res.line
