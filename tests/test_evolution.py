import dataclasses
import math

import numpy as np
import pytest
from evolution_oracle import integrate_flow, rk4_loop

from qnls import evolution
from qnls.bilinear import apply_bilinear, g_symbol_restricted, normal_form_pair, weighted_product
from qnls.evolution import (
    BlowUpError,
    EvolutionConfig,
    _integrate_core,
    decompose,
    direct_w_solve,
    integrate,
    integrate_batch,
    lipschitz_experiment,
    normal_form_h,
    rhs_groups,
    substitution_check,
)
from qnls.roughdata import DataSpec, gen_rough_data
from qnls.spectral import (
    BandGrid,
    Grid,
    SpectralField,
    bessel_potential,
    free_propagate,
    l2_norm,
    sign_project,
)

ALPHA, BETA = 0.6, 0.2


def smooth_data(n, seed=3, amp=0.5, width=8.0):
    return gen_rough_data(DataSpec(3.0, width, amplitude=amp, seed=seed), Grid(n))


class TestEvolutionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.1, kind="cubic")
        with pytest.raises(ValueError):
            EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.1, variables="q")
        # dt not dividing t_final
        with pytest.raises(ValueError):
            EvolutionConfig(64, ALPHA, BETA, 3e-3, 0.1)
        # dt too large for the guard frequency
        with pytest.raises(ValueError):
            EvolutionConfig(256, ALPHA, BETA, 1e-2, 0.1)
        with pytest.raises(ValueError):
            EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.1, n_saves=1)

    def test_derived_quantities(self):
        c = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.1)
        assert c.n_steps == 100
        assert c.grid == Grid(64)
        inner, outer = c.exponents
        assert inner == pytest.approx(0.0)
        assert outer == pytest.approx(BETA)

    def test_variable_exponent_table(self):
        v = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.1, variables="v")
        assert v.exponents == pytest.approx((ALPHA, BETA - ALPHA))
        z = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.1, variables="z")
        assert z.exponents == pytest.approx((BETA, 0.0))


class TestIntegrate:
    def test_zero_data_stays_zero(self):
        c = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.1)
        traj = integrate(c, SpectralField(Grid(64), np.zeros(64)))
        assert traj.l2_history[-1] == 0.0

    def test_linear_limit_matches_free_propagation(self):
        # tiny amplitude: nonlinear contribution falls below roundoff of the
        # linear part, which the integrating factor reproduces exactly
        g = Grid(64)
        data = smooth_data(64, amp=1e-11)
        c = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.05)
        traj = integrate(c, data)
        expect = free_propagate(0.05, data)
        assert l2_norm(traj.final - expect) <= 1e-12 * l2_norm(expect)

    def test_save_times(self):
        c = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.1, n_saves=6)
        traj = integrate(c, smooth_data(64))
        np.testing.assert_allclose(traj.times, [0.0, 0.02, 0.04, 0.06, 0.08, 0.1], atol=1e-12)
        assert len(traj.states) == 6
        assert traj.states[0].coeffs[3] == smooth_data(64).coeffs[3]

    def test_fourth_order_convergence(self):
        g = Grid(64)
        data = gen_rough_data(DataSpec(1.0, 8.0, amplitude=1.0, seed=3), g)
        finals = {}
        for s in (1.0, 0.5, 1 / 8.0):
            c = EvolutionConfig(64, ALPHA, BETA, 0.02 * s, 0.4, n_saves=2)
            finals[s] = integrate(c, data).final
        e1 = l2_norm(finals[1.0] - finals[1 / 8.0])
        e2 = l2_norm(finals[0.5] - finals[1 / 8.0])
        assert math.log2(e1 / e2) == pytest.approx(4.0, abs=0.4)

    def test_guard_truncation_invariant(self):
        c = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.02)
        traj = integrate(c, smooth_data(64))
        g = Grid(64)
        beyond = np.abs(g.frequencies) > g.guard_frequency
        assert np.all(traj.final.coeffs[beyond] == 0)

    def test_wide_initial_data_rejected(self):
        g = Grid(64)
        c = np.zeros(64, complex)
        c[20] = 1.0  # beyond guard index 16
        cfg = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.1)
        with pytest.raises(ValueError):
            integrate(cfg, SpectralField(g, c))

    def test_blow_up_raises(self):
        # quadratic growth: huge data blows past the guard within the run
        data = smooth_data(64, amp=2000.0, width=4.0)
        cfg = EvolutionConfig(64, ALPHA, BETA, 2e-3, 2.0)
        with pytest.raises(BlowUpError) as info:
            integrate(cfg, data)
        assert info.value.t <= 2.0
        assert info.value.norm > info.value.initial_norm

    def test_non_finite_stage_raises_blow_up(self):
        # NaN compares False against the growth bound; it must still trip
        g = Grid(64)
        data = smooth_data(64)

        def nan_stage(coeffs, _t, _k):
            return np.full_like(coeffs, np.nan)

        with pytest.raises(BlowUpError, match="not finite") as info:
            _integrate_core(g, data.coeffs, 1e-3, 10, nan_stage, 0.0, {0, 10})
        assert info.value.t == pytest.approx(1e-3)
        assert math.isnan(info.value.norm)

    def test_non_finite_initial_data_rejected(self):
        g = Grid(64)
        c = smooth_data(64).coeffs.copy()
        c[2] = np.nan
        cfg = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.1)
        with pytest.raises(ValueError, match="not finite"):
            integrate(cfg, SpectralField(g, c))


class TestIntegrateBatch:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("batch", [1, 2, 5])
    @pytest.mark.parametrize("kind", ["u2", "uubar", "ubar2"])
    def test_rows_equal_single_flows(self, kind, batch, n):
        # rows cycle through the u, v and z variables, so their exponents differ
        configs = [
            EvolutionConfig(n, ALPHA, BETA, 5e-4, 5e-3, kind=kind, variables="uvz"[b % 3], n_saves=3)
            for b in range(batch)
        ]
        initials = [smooth_data(n, seed=20 + b, amp=0.3, width=n / 8) for b in range(batch)]
        batched = integrate_batch(configs, initials)
        assert len(batched) == batch
        for cfg, data, got in zip(configs, initials, batched):
            want = integrate(cfg, data)
            assert got.config == cfg
            assert got.times == want.times
            assert got.l2_history == want.l2_history
            for a, b in zip(got.states, want.states, strict=True):
                assert np.array_equal(a.coeffs, b.coeffs)
            # the flow moved away from the free wave, so the rows test the nonlinearity
            free = free_propagate(cfg.t_final, data)
            assert l2_norm(got.final - free) > 1e-6 * l2_norm(free)

    @pytest.mark.parametrize(
        "change",
        [{"n_points": 128}, {"dt": 2.5e-4}, {"t_final": 0.02}, {"kind": "uubar"}, {"n_saves": 4}],
        ids=["grid", "dt", "t_final", "kind", "n_saves"],
    )
    def test_mismatched_configs_rejected(self, change):
        cfg = EvolutionConfig(64, ALPHA, BETA, 5e-4, 0.01, n_saves=3)
        other = dataclasses.replace(cfg, **change)
        data = smooth_data(64)
        with pytest.raises(ValueError, match="must share"):
            integrate_batch([cfg, other], [data, data])

    def test_bad_initial_rejected(self):
        cfg = EvolutionConfig(64, ALPHA, BETA, 5e-4, 0.01, n_saves=3)
        good = smooth_data(64)
        wide = np.zeros(64, complex)
        wide[20] = 1.0  # beyond guard index 16
        nan = good.coeffs.copy()
        nan[2] = np.nan
        for bad, match in (
            (SpectralField(Grid(64), wide), "beyond the guard"),
            (SpectralField(Grid(64), nan), "not finite"),
            (smooth_data(128), "grid"),
        ):
            with pytest.raises(ValueError, match=match):
                integrate_batch([cfg, cfg], [good, bad])
        with pytest.raises(ValueError):
            integrate_batch([cfg, cfg], [good])
        with pytest.raises(ValueError):
            integrate_batch([], [])

    def test_blow_up_names_the_row(self):
        explosive = smooth_data(64, amp=2000.0, width=4.0)
        cfg = EvolutionConfig(64, ALPHA, BETA, 2e-3, 2.0)
        with pytest.raises(BlowUpError) as alone:
            integrate(cfg, explosive)
        with pytest.raises(BlowUpError, match="in row 1") as batched:
            integrate_batch([cfg, cfg], [smooth_data(64), explosive])
        assert alone.value.row == 0
        assert batched.value.row == 1
        assert batched.value.t == alone.value.t
        assert batched.value.norm == alone.value.norm
        assert batched.value.initial_norm == alone.value.initial_norm

    def test_tripping_rows_name_the_lowest(self):
        # rows 1 and 2 blow up at the same step; the error names row 1
        explosive = smooth_data(64, amp=2000.0, width=4.0)
        cfg = EvolutionConfig(64, ALPHA, BETA, 2e-3, 2.0)
        with pytest.raises(BlowUpError, match="in row 1") as info:
            integrate_batch([cfg] * 4, [smooth_data(64), explosive, explosive, smooth_data(64)])
        assert info.value.row == 1

    def test_nan_row_is_not_finite(self):
        g = Grid(64)
        rows = np.stack([smooth_data(64, seed=s).coeffs for s in (1, 2, 3)])

        def stage(coeffs, _t, _k):
            out = np.zeros_like(coeffs)
            out[2, 3] = np.nan
            return out

        with pytest.raises(BlowUpError, match="in row 2.*not finite") as info:
            _integrate_core(g, rows, 1e-3, 10, stage, 0.0, set())
        assert info.value.row == 2
        assert info.value.t == pytest.approx(1e-3)
        assert math.isnan(info.value.norm)
        assert info.value.initial_norm == pytest.approx(l2_norm(smooth_data(64, seed=3)), rel=1e-14)


# (k_in, k_out) of each product path on n points
BANDS = {
    "stage": lambda n: (n // 4, n // 4),  # the RK4 stage
    "lift": lambda n: (n // 4, n // 2 - 1),  # the factored lifts and pair-g
    "wide": lambda n: (n // 2 - 1, n // 2 - 1),  # rhs_groups
    "remainder": lambda n: (n // 2 - 1, n // 4),  # direct_w_solve's G(v, v)
}


def band_cases(sizes):
    """(band, n) cases; the stage band keeps the bare size as its id."""
    return [pytest.param(band, n, id=str(n) if band == "stage" else f"{band}-{n}") for band in BANDS for n in sizes]


class TestStageGrid:
    @staticmethod
    def smallest_size(floor):
        """Brute force: the smallest even integer above floor with no prime
        factor beyond 5."""
        m = floor + 1
        while True:
            rest = m
            for p in (2, 3, 5):
                while rest % p == 0:
                    rest //= p
            if m % 2 == 0 and rest == 1:
                return m
            m += 1

    @pytest.mark.parametrize("band, n", band_cases([16, 32, 64, 128, 256, 512, 1024, 2048, 4096]))
    def test_size_table(self, band, n):
        k_in, k_out = BANDS[band](n)
        bg = BandGrid(Grid(n), k_in, k_out)
        assert bg.m == self.smallest_size(2 * k_in + k_out)
        stage = {16: 16, 32: 30, 64: 50, 128: 100, 256: 200, 512: 400, 1024: 800, 2048: 1600, 4096: 3200}
        assert bg.m == {"stage": stage[n], "lift": n, "wide": 3 * n // 2, "remainder": 5 * n // 4}[band]
        assert bg is BandGrid(Grid(n), k_in, k_out)

    @pytest.mark.parametrize("band, n", band_cases([16, 64, 1024]))
    def test_embed_round_trip(self, band, n):
        g = Grid(n)
        k_in, k_out = BANDS[band](n)
        bg = BandGrid(g, k_in, k_out)
        signed = np.where(np.arange(bg.m) < bg.m // 2, np.arange(bg.m), np.arange(bg.m) - bg.m)
        in_slots = np.abs(signed) <= k_in
        f = SpectralField(g, np.random.default_rng(4).standard_normal(n) + 0j)
        slots = bg.embed(f.coeffs)
        assert np.array_equal(slots[in_slots], f.coeffs[signed[in_slots] % n])
        assert np.all(slots[~in_slots] == 0.0)
        both = np.minimum(np.arange(n), n - np.arange(n)) <= min(k_in, k_out)
        assert np.array_equal(bg.extract(slots), np.where(both, f.coeffs, 0.0))
        assert np.array_equal(bg.mask, np.abs(signed) <= k_out)
        assert np.array_equal(bg.frequencies[in_slots], g.frequencies[signed[in_slots] % n])
        assert np.all(bg.frequencies[~in_slots] == 0.0)
        assert not (bg.frequencies.flags.writeable or bg.mask.flags.writeable)

    @pytest.mark.parametrize("k_in, k_out", [(8, 4), (4, 9), (-1, 0), (7, -1)])
    def test_rejects_bands_that_do_not_fit(self, k_in, k_out):
        # on n = 16: an input band reaching the Nyquist index, an output band
        # wider than the product, and negative bands
        with pytest.raises(ValueError):
            BandGrid(Grid(16), k_in, k_out)


class TestSteppingOracle:
    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    @pytest.mark.parametrize("variables", ["u", "v", "z"])
    @pytest.mark.parametrize("kind", ["u2", "uubar", "ubar2"])
    def test_matches_n_point_stepping(self, kind, variables, n):
        cfg = EvolutionConfig(n, ALPHA, BETA, 1e-4, 2e-3, kind=kind, variables=variables, n_saves=3)
        # data on the whole guard band, so the products reach |j| = n/2
        data = 0.3 * random_guard_limited(n, seed=n + 1)
        got = integrate(cfg, data)
        want = integrate_flow(cfg, data)
        assert len(got.states) == len(want) == 3
        for state, ref in zip(got.states, want):
            assert np.linalg.norm(state.coeffs - ref) <= 1e-12 * np.linalg.norm(ref)
            assert np.all(state.coeffs[~in_guard_band(cfg.grid)] == 0.0)
        # the flow moved away from the free wave, so the comparison tests the stage
        free = free_propagate(cfg.t_final, data)
        assert l2_norm(got.final - free) > 1e-6 * l2_norm(free)

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_stage_output_stays_in_the_guard_band(self, n):
        cfgs = [EvolutionConfig(n, ALPHA, BETA, 1e-4, 2e-3, variables=v) for v in "uvz"]
        sg, stage = evolution._stage(cfgs)
        x = sg.embed(np.stack([random_guard_limited(n, seed=s).coeffs for s in range(3)]))
        for k in (0, 1, 2):
            out = stage(x, 0.0, k)
            assert out.shape == (3, sg.m)
            assert np.all(out[:, ~sg.mask] == 0.0)
            assert np.all(out[:, sg.mask] != 0.0)


def in_guard_band(g):
    idx = np.arange(g.n)
    return np.minimum(idx, g.n - idx) <= g.guard_index


def random_guard_limited(n, seed):
    """Seeded complex data on |j| <= n/4 with a mild decay."""
    g = Grid(n)
    rng = np.random.default_rng(seed)
    c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / (1.0 + np.abs(g.frequencies))
    return SpectralField(g, np.where(in_guard_band(g), c, 0.0))


def truncate_guard(field):
    return SpectralField(field.grid, np.where(in_guard_band(field.grid), field.coeffs, 0.0))


def rhs_oracle(cfg, f):
    """The doubled-grid weighted product, truncated to the guard band."""
    inner, outer = cfg.exponents
    conj = {"u2": (False, False), "uubar": (False, True), "ubar2": (True, True)}[cfg.kind]
    return truncate_guard(weighted_product(inner, outer, f, f, conj_first=conj[0], conj_second=conj[1]))


def rel_l2(a, b):
    return l2_norm(a - b) / l2_norm(b)


def stage_rhs(cfg, f):
    """The nonlinear term N(f) of the configured evolution: the stage at
    k = 0 on the stage grid, moved back to the n-point grid."""
    sg, stage = evolution._stage([cfg])
    return SpectralField(f.grid, sg.extract(stage(sg.embed(f.coeffs), 0.0, 0))[0])


class TestRhs:
    def test_uses_kind_conjugations(self):
        # each kind matches its own conjugation pattern and no other one
        f = random_guard_limited(64, seed=9)
        kinds = ("u2", "uubar", "ubar2")
        for kind in kinds:
            out = stage_rhs(EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.1, kind=kind), f)
            for other in kinds:
                dev = rel_l2(out, rhs_oracle(EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.1, kind=other), f))
                if other == kind:
                    assert dev <= 1e-13
                else:
                    assert dev > 1e-2

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("variables", ["u", "v", "z"])
    @pytest.mark.parametrize("kind", ["u2", "uubar", "ubar2"])
    def test_matches_doubled_grid_oracle(self, kind, variables, n):
        cfg = EvolutionConfig(n, ALPHA, BETA, 1e-6, 1e-5, kind=kind, variables=variables)
        f = random_guard_limited(n, seed=n)
        out = stage_rhs(cfg, f)
        assert rel_l2(out, rhs_oracle(cfg, f)) <= 1e-13
        g = cfg.grid
        assert np.all(out.coeffs[~in_guard_band(g)] == 0.0)
        assert out.coeffs[g.nyquist_index] == 0.0

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    @pytest.mark.parametrize("variables", ["u", "v", "z"])
    @pytest.mark.parametrize("kind", ["u2", "uubar", "ubar2"])
    def test_edge_modes_fold_nothing_onto_the_guard_band(self, kind, variables, n):
        # only +-n/4 and +-(n/4 - 1): their sums reach |j| = n/2, the largest
        # span the stage grid must keep off the guard band
        g = Grid(n)
        q = g.guard_index
        c = np.zeros(n, complex)
        for j, a in ((q, 1.0 + 0.5j), (-q, -0.7 + 0.2j), (q - 1, 0.3 - 0.9j), (1 - q, 0.8 + 0.1j)):
            c[j % n] = a
        f = SpectralField(g, c)
        cfg = EvolutionConfig(n, ALPHA, BETA, 1e-6, 1e-5, kind=kind, variables=variables)
        out = stage_rhs(cfg, f)
        assert rel_l2(out, rhs_oracle(cfg, f)) <= 1e-14
        assert np.all(out.coeffs[~in_guard_band(g)] == 0.0)


class TestNormalFormH:
    def test_at_time_zero_is_symbol_application(self):
        f = smooth_data(256, seed=5, amp=0.2, width=32.0)
        t_sym = normal_form_pair("u2", ALPHA, BETA)[0]
        direct = apply_bilinear(t_sym, f, f)
        h0 = normal_form_h(f, 0.0, ALPHA, BETA, "u2")
        assert l2_norm(h0 - direct) <= 1e-13 * max(l2_norm(direct), 1e-300)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            normal_form_h(smooth_data(64), 0.0, ALPHA, BETA, "bogus")


class TestGroups:
    def test_eight_groups_sum_to_remainder_forcing(self):
        g = Grid(256)
        # at width 64 (the guard index) h reaches |j| = n/2 - 1
        for width in (32.0, 64.0):
            f = gen_rough_data(DataSpec(0.0, width, amplitude=0.2, seed=11), g)
            h_field = normal_form_h(f, 0.37, ALPHA, BETA, "u2")
            w_field = gen_rough_data(DataSpec(1.0, width, amplitude=0.1, seed=12), g)
            groups = rhs_groups(f, h_field, w_field, 0.37, ALPHA, BETA)
            assert len(groups) == 8
            total = groups[0]
            for piece in groups[1:]:
                total = total + piece
            big_f = free_propagate(0.37, f)
            v = big_f + h_field + w_field
            full = weighted_product(ALPHA, BETA - ALPHA, v, v)
            fplus = sign_project("+", big_f)
            paired = weighted_product(ALPHA, BETA - ALPHA, fplus, fplus)
            target = full - paired
            assert l2_norm(total - target) <= 1e-10 * l2_norm(target)


class TestRoutes:
    @pytest.mark.parametrize("kind", ["u2", "uubar", "ubar2"])
    def test_decomposed_w_matches_direct_solve(self, kind):
        data = smooth_data(256, seed=4, amp=0.3)
        cfg = EvolutionConfig(256, ALPHA, BETA, 5e-4, 0.02, kind=kind, variables="v", n_saves=3)
        traj = integrate(cfg, data)
        dec = decompose(traj, data)
        direct = direct_w_solve(cfg, data)
        for wd, wdir in zip(dec.w, direct.states):
            assert l2_norm(wd - wdir) <= 1e-7 * max(l2_norm(wdir), 1e-300)

    def test_decompose_needs_v_form(self):
        data = smooth_data(64, amp=0.1)
        cfg = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.01, variables="u")
        with pytest.raises(ValueError):
            decompose(integrate(cfg, data), data)

    def test_w_starts_at_minus_h(self):
        data = smooth_data(256, seed=6, amp=0.2)
        cfg = EvolutionConfig(256, ALPHA, BETA, 5e-4, 0.01, variables="v", n_saves=2)
        dec = decompose(integrate(cfg, data), data)
        h0 = normal_form_h(data, 0.0, ALPHA, BETA, "u2")
        assert l2_norm(dec.w[0] + h0) <= 1e-12 * l2_norm(h0)


def uncached_direct_w_solve(cfg, f):
    """The remainder equation from dense and doubled-grid oracles, with h and
    the paired forcing recomputed in every stage."""
    grid = cfg.grid
    t_sym, g_sym = normal_form_pair(cfg.kind, cfg.alpha, cfg.beta)
    conj = (t_sym.conj_first, t_sym.conj_second)
    guard = in_guard_band(grid)

    def nonlin(coeffs, t):
        big_f = free_propagate(t, f)
        v = big_f + apply_bilinear(t_sym, big_f, big_f) + SpectralField(grid, coeffs)
        full = weighted_product(cfg.alpha, cfg.beta - cfg.alpha, v, v, *conj)
        paired = apply_bilinear(g_sym, big_f, big_f)
        return np.where(guard, full.coeffs - paired.coeffs, 0.0)

    w0 = -1.0 * apply_bilinear(t_sym, f, f)
    steps = set(evolution._save_schedule(cfg.n_steps, cfg.n_saves))
    saves = rk4_loop(grid, w0.coeffs, cfg.dt, cfg.n_steps, nonlin, 0.0, steps)
    return [SpectralField(grid, saves[k]) for k in sorted(saves)]


class TestDirectSolve:
    @pytest.mark.parametrize(
        "kind, wide",
        [pytest.param(kind, wide, id=f"{kind}-guard-band" if wide else kind) for wide in (False, True)
         for kind in ("u2", "uubar", "ubar2")],
    )
    def test_one_lift_per_stage_time(self, kind, wide, monkeypatch):
        # wide: data on the whole guard band, so h and v reach |j| = n/2 - 1
        # and the paired forcing leaves the guard band
        data = 0.1 * random_guard_limited(64, seed=9) if wide else smooth_data(64, seed=9, amp=0.3)
        cfg = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.02, kind=kind, variables="v", n_saves=3)
        calls = []
        original = evolution.normal_form_h

        def counting(f, t, *args):
            calls.append(t)
            return original(f, t, *args)

        monkeypatch.setattr(evolution, "normal_form_h", counting)
        direct = direct_w_solve(cfg, data)
        monkeypatch.undo()
        # w(0) = -h(0), then the start of the first step and two new stage times per step
        assert len(calls) <= 2 * cfg.n_steps + 2
        for got, want in zip(direct.states, uncached_direct_w_solve(cfg, data), strict=True):
            assert l2_norm(got - want) <= 1e-13 * l2_norm(want)

    def test_stage_times_shared(self):
        times = []

        def stage(coeffs, t, _k):
            times.append(t)
            return np.zeros_like(coeffs)

        dt = 0.1
        _integrate_core(Grid(16), np.zeros(16, complex), dt, 7, stage, 0.3, set())
        per_step = [times[4 * s : 4 * s + 4] for s in range(7)]
        for s, (t1, t2, t3, t4) in enumerate(per_step):
            assert t2 == t3
            assert t1 == pytest.approx(0.3 + s * dt, abs=1e-15)
            assert t4 == pytest.approx(0.3 + (s + 1) * dt, abs=1e-15)
            if s + 1 < len(per_step):
                assert per_step[s + 1][0] == t4


class TestLipschitz:
    def test_nonlinear_share_and_flows(self):
        cfg = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.02, n_saves=3)
        g = smooth_data(64, seed=12, amp=1.0)
        shares = []
        for amp in (1e-9, 0.5):
            f = smooth_data(64, seed=11, amp=amp)
            rep = lipschitz_experiment(f, g, [1e-3, 1e-2], cfg)
            assert len(rep.flows) == 3
            for flow, data in zip(rep.flows, [f, f + 1e-3 * g, f + 1e-2 * g]):
                want = integrate(cfg, data)
                assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(flow.states, want.states))
            shares.append(rep.nonlinear_share)
        # the share scales with the amplitude: quadratic nonlinearity over linear data
        assert shares[0] < 1e-8
        assert shares[1] > 1e-3


class TestSubstitution:
    def test_smooth_variable_change_commutes(self):
        z0 = smooth_data(64, seed=7, amp=0.5)
        cfg = EvolutionConfig(64, ALPHA, 0.3, 1e-3, 0.02, n_saves=3)
        rep = substitution_check(z0, 0.3, cfg)
        assert len(rep.dts) == 2
        assert max(rep.sup_diffs) <= 1e-10

    def test_weight_commutation_identity(self):
        # the u-form nonlinearity of lifted data equals the lifted z-form one
        z = smooth_data(64, seed=8, amp=0.4)
        beta = 0.3
        u = bessel_potential(beta, z)
        lhs = weighted_product(0.0, beta, u, u)
        rhs_ = bessel_potential(beta, weighted_product(beta, 0.0, z, z))
        assert l2_norm(lhs - rhs_) <= 1e-12 * l2_norm(lhs)
