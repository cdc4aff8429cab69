import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from evolution_oracle import integrate_flow, lift_at, per_time_direct_w_solve, rk4_loop

from qnls import evolution
from qnls.bilinear import apply_bilinear, normal_form_pair, pair_g_coeffs, weighted_product
from qnls.evolution import (
    BlowUpError,
    EvolutionConfig,
    _integrate_core,
    decompose,
    direct_w_solve,
    integrate,
    integrate_batch,
    normal_form_h,
)
from qnls.config import check_ranges, default_config
from qnls.experiments import run_lipschitz, run_subst
from qnls.roughdata import DataSpec, gen_rough_data
from qnls.spectral import (
    BandGrid,
    Grid,
    SpectralField,
    bessel_potential,
    free_propagate,
    l2_norm,
)

ALPHA, BETA = 0.6, 0.2


def smooth_data(n, seed=3, amp=0.5, width=8.0):
    return gen_rough_data(DataSpec(3.0, width, amplitude=amp, seed=seed), Grid(n))


# the blow-up guard's message: time, row, L2 norm, and the initial norm when
# the norm is finite
BLOWUP_MESSAGE = re.compile(
    r"^blow-up guard tripped at t=(\S+) in row (\d+): L2 norm (\S+) (?:exceeds 1e\+06 x initial (\S+)|is not finite)$"
)


def blowup_figures(exc):
    """(t, row, norm, initial norm or None) read from a BlowUpError's message."""
    match = BLOWUP_MESSAGE.match(str(exc))
    assert match, str(exc)
    t, row, norm, initial = match.groups()
    return float(t), int(row), float(norm), None if initial is None else float(initial)


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
        with pytest.raises(BlowUpError, match="in row 0") as info:
            integrate(cfg, data)
        t, _row, norm, initial = blowup_figures(info.value)
        assert t <= 2.0
        assert initial == pytest.approx(l2_norm(data), rel=5e-3)
        assert norm > 1e6 * initial * (1 - 5e-3)

    def test_non_finite_stage_raises_blow_up(self):
        # NaN compares False against the growth bound; it must still trip
        g = Grid(64)
        data = smooth_data(64)

        def nan_stage(coeffs, _j, _k):
            return np.full_like(coeffs, np.nan)

        with pytest.raises(BlowUpError, match="not finite") as info:
            _integrate_core(g.frequencies, data.coeffs, 1e-3, 10, nan_stage, {0, 10})
        t, row, norm, initial = blowup_figures(info.value)
        assert (t, row, initial) == (1e-3, 0, None)
        assert math.isnan(norm)

    def test_blow_up_error_pickles(self):
        # an error raised in a worker process reaches the parent pickled
        data = smooth_data(64, amp=2000.0, width=4.0)
        with pytest.raises(BlowUpError) as info:
            integrate(EvolutionConfig(64, ALPHA, BETA, 2e-3, 2.0), data)
        copy = pickle.loads(pickle.dumps(info.value))
        assert type(copy) is BlowUpError
        assert str(copy) == str(info.value)

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
        with pytest.raises(BlowUpError, match="in row 0") as alone:
            integrate(cfg, explosive)
        with pytest.raises(BlowUpError, match="in row 1") as batched:
            integrate_batch([cfg, cfg], [smooth_data(64), explosive])
        # the same time and norms, in the other row
        assert str(batched.value) == str(alone.value).replace("in row 0", "in row 1")

    def test_tripping_rows_name_the_lowest(self):
        # rows 1 and 2 blow up at the same step; the error names row 1
        explosive = smooth_data(64, amp=2000.0, width=4.0)
        cfg = EvolutionConfig(64, ALPHA, BETA, 2e-3, 2.0)
        with pytest.raises(BlowUpError, match="in row 1") as info:
            integrate_batch([cfg] * 4, [smooth_data(64), explosive, explosive, smooth_data(64)])
        assert blowup_figures(info.value)[1] == 1

    def test_nan_row_is_not_finite(self):
        g = Grid(64)
        rows = np.stack([smooth_data(64, seed=s).coeffs for s in (1, 2, 3)])

        def stage(coeffs, _j, _k):
            out = np.zeros_like(coeffs)
            out[2, 3] = np.nan
            return out

        with pytest.raises(BlowUpError, match="in row 2.*not finite") as info:
            _integrate_core(g.frequencies, rows, 1e-3, 10, stage, set())
        t, row, norm, initial = blowup_figures(info.value)
        assert (t, row, initial) == (1e-3, 2, None)
        assert math.isnan(norm)


# (k_in, k_out) of each product path on n points
BANDS = {
    "stage": lambda n: (n // 4, n // 4),  # the RK4 stage
    "lift": lambda n: (n // 4, n // 2 - 1),  # the factored lifts and pair-g
    "wide": lambda n: (n // 2 - 1, n // 2 - 1),  # full band in and out, the 3/2 rule
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

    @pytest.mark.parametrize("band, n", band_cases([16, 256]))
    def test_self_product_takes_one_inverse_transform(self, band, n, monkeypatch):
        bg = BandGrid(Grid(n), *BANDS[band](n))
        rows = np.stack([random_guard_limited(n, seed=s).coeffs for s in range(3)])
        want = bg.product(rows, rows.copy())
        calls = []
        original = np.fft.ifft

        def counting(x, *args, **kwargs):
            calls.append(x.shape)
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counting)
        got = bg.product(rows, rows)
        monkeypatch.undo()
        assert calls == [(3, bg.m)]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

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
    first, second = {"u2": (False, False), "uubar": (False, True), "ubar2": (True, True)}[cfg.kind]
    return truncate_guard(weighted_product(inner, outer, f.conj() if first else f, f.conj() if second else f))


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
        h0 = lift_at(f, 0.0, ALPHA, BETA, "u2")
        assert l2_norm(h0 - direct) <= 1e-13 * max(l2_norm(direct), 1e-300)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            normal_form_h(smooth_data(64), [0.0], ALPHA, BETA, "bogus")


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

    def test_direct_solve_follows_h_beyond_guard_band(self):
        # data up to |xi| = n/4 puts h, and so w, past the guard band, where
        # the flow of v is zero and w = -h; the two routes must agree there
        data = smooth_data(256, seed=4, amp=0.3, width=64.0)
        cfg = EvolutionConfig(256, ALPHA, BETA, 5e-4, 0.02, kind="u2", variables="v", n_saves=3)
        dec = decompose(integrate(cfg, data), data)
        direct = direct_w_solve(cfg, data)
        beyond = ~in_guard_band(cfg.grid)
        for wd, wdir in zip(dec.w[1:], direct.states[1:], strict=True):
            ref = np.linalg.norm(wdir.coeffs[beyond])
            assert ref > 0
            assert np.linalg.norm((wd.coeffs - wdir.coeffs)[beyond]) <= 1e-3 * ref

    def test_decompose_needs_v_form(self):
        data = smooth_data(64, amp=0.1)
        cfg = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.01, variables="u")
        with pytest.raises(ValueError):
            decompose(integrate(cfg, data), data)

    def test_decompose_lifts_once(self, monkeypatch):
        data = smooth_data(256, seed=6, amp=0.2)
        cfg = EvolutionConfig(256, ALPHA, BETA, 5e-4, 0.01, kind="uubar", variables="v", n_saves=4)
        traj = integrate(cfg, data)
        blocks = counting_blocks(monkeypatch)
        dec = decompose(traj, data)
        assert blocks == [traj.times]
        for t, fr, hh in zip(traj.times, dec.free, dec.h, strict=True):
            assert np.array_equal(fr.coeffs, free_propagate(t, data).coeffs)
            assert np.array_equal(hh.coeffs, lift_at(data, t, ALPHA, BETA, "uubar").coeffs)

    def test_decompose_rejects_data_beyond_guard_band(self):
        data = smooth_data(64, amp=0.1)
        cfg = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.01, variables="v")
        traj = integrate(cfg, data)
        wide = SpectralField(data.grid, np.where(np.arange(64) == 20, 1e-3, data.coeffs))
        with pytest.raises(ValueError, match="guard"):
            decompose(traj, wide)

    def test_w_starts_at_minus_h(self):
        data = smooth_data(256, seed=6, amp=0.2)
        cfg = EvolutionConfig(256, ALPHA, BETA, 5e-4, 0.01, variables="v", n_saves=2)
        dec = decompose(integrate(cfg, data), data)
        h0 = lift_at(data, 0.0, ALPHA, BETA, "u2")
        assert l2_norm(dec.w[0] + h0) <= 1e-12 * l2_norm(h0)


def uncached_direct_w_solve(cfg, f):
    """The remainder equation from dense and doubled-grid oracles, with h and
    the paired forcing recomputed in every stage."""
    grid = cfg.grid
    t_sym, g_sym = normal_form_pair(cfg.kind, cfg.alpha, cfg.beta)
    guard = in_guard_band(grid)

    def nonlin(coeffs, t):
        big_f = free_propagate(t, f)
        v = big_f + apply_bilinear(t_sym, big_f, big_f) + SpectralField(grid, coeffs)
        slots = (v.conj() if conj else v for conj in (t_sym.conj_first, t_sym.conj_second))
        full = weighted_product(cfg.alpha, cfg.beta - cfg.alpha, *slots)
        paired = apply_bilinear(g_sym, big_f, big_f)
        return np.where(guard, full.coeffs, 0.0) - paired.coeffs

    w0 = -1.0 * apply_bilinear(t_sym, f, f)
    steps = set(evolution._save_schedule(cfg.n_steps, cfg.n_saves))
    saves = rk4_loop(grid, w0.coeffs, cfg.dt, cfg.n_steps, nonlin, 0.0, steps)
    return [SpectralField(grid, saves[k]) for k in sorted(saves)]


def route_data(n, seed):
    """The route check's data: smooth, on |xi| <= 8 (experiments.route_inputs)."""
    return gen_rough_data(DataSpec(3.0, 8.0, amplitude=0.3, seed=seed), Grid(n))


def counting_blocks(monkeypatch):
    """The times of every free-wave lift (one per forcing table of
    direct_w_solve), one list per lift."""
    blocks = []
    original = evolution.normal_form_h

    def counting(f, times, *args):
        blocks.append(list(times))
        return original(f, times, *args)

    monkeypatch.setattr(evolution, "normal_form_h", counting)
    return blocks


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
        blocks = counting_blocks(monkeypatch)
        direct = direct_w_solve(cfg, data)
        monkeypatch.undo()
        # 2 n_steps + 1 = 41 half steps: one full table and a partial one,
        # each half step j tabulated once, in order, at time (j / 2) dt
        times = [t for block in blocks for t in block]
        assert [len(block) for block in blocks] == [evolution.FORCING_BLOCK, 41 - evolution.FORCING_BLOCK]
        assert times == [0.5 * j * cfg.dt for j in range(2 * cfg.n_steps + 1)]
        assert direct.timing["forcing_blocks"] == 2
        assert 0.0 < direct.timing["forcing_s"]
        for got, want in zip(direct.states, uncached_direct_w_solve(cfg, data), strict=True):
            assert l2_norm(got - want) <= 1e-13 * l2_norm(want)

    @pytest.mark.parametrize("kind", ["u2", "uubar", "ubar2"])
    @pytest.mark.parametrize(
        "n, data",
        [
            pytest.param(64, lambda: 0.1 * random_guard_limited(64, seed=9), id="guard-band-64"),
            pytest.param(256, lambda: route_data(256, seed=401), id="route-256"),
        ],
    )
    def test_matches_per_time_forcing(self, n, data, kind):
        # 81 stage times: tables of 32, 32 and 17
        f = data()
        cfg = EvolutionConfig(n, ALPHA, BETA, 2.5e-4, 0.01, kind=kind, variables="v", n_saves=4)
        assert (2 * cfg.n_steps + 1) % evolution.FORCING_BLOCK != 0
        direct = direct_w_solve(cfg, f)
        want = per_time_direct_w_solve(cfg, f)
        assert len(direct.states) == len(want) == 4
        for got, ref in zip(direct.states, want):
            assert np.array_equal(got.coeffs, ref)

    def test_free_lift_rows_match_per_time_fields(self):
        f = route_data(256, seed=402)
        times = [0.5 * j * 1e-3 for j in range(5)]
        for kind in ("u2", "uubar", "ubar2"):
            big_f, h = normal_form_h(f, times, ALPHA, BETA, kind)
            for t, f_row, h_row in zip(times, big_f, h, strict=True):
                assert np.array_equal(SpectralField(f.grid, f_row).coeffs, free_propagate(t, f).coeffs)
                assert np.array_equal(SpectralField(f.grid, h_row).coeffs, lift_at(f, t, ALPHA, BETA, kind).coeffs)

    @pytest.mark.parametrize("kind", ["u2", "uubar", "ubar2"])
    def test_paired_rows_match_per_time_fields(self, kind, monkeypatch):
        # the paired forcing of every row of both tables (41 half steps)
        f = route_data(64, seed=403)
        cfg = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.02, kind=kind, variables="v", n_saves=3)
        tables = []
        original = evolution.pair_g_coeffs

        def recording(*args):
            tables.append(original(*args))
            return tables[-1]

        monkeypatch.setattr(evolution, "pair_g_coeffs", recording)
        direct_w_solve(cfg, f)
        rows = [row for table in tables for row in table]
        assert len(rows) == 2 * cfg.n_steps + 1
        for j, row in enumerate(rows):
            big_f = free_propagate(0.5 * j * cfg.dt, f)
            paired = pair_g_coeffs(kind, ALPHA, BETA, f.grid, big_f.coeffs, big_f.coeffs)
            assert np.array_equal(row, SpectralField(f.grid, paired).coeffs)

    @pytest.mark.parametrize(
        "bad, match",
        [
            pytest.param(lambda f: SpectralField(Grid(128), np.zeros(128)), "grid", id="wrong-grid"),
            pytest.param(lambda f: SpectralField(f.grid, np.where(np.arange(64) == 3, np.nan, f.coeffs)),
                         "not finite", id="non-finite"),
            pytest.param(lambda f: SpectralField(f.grid, np.where(np.arange(64) == 20, 1e-3, f.coeffs)),
                         "guard", id="beyond-guard"),
        ],
    )
    def test_rejects_bad_data_before_any_table(self, bad, match, monkeypatch):
        cfg = EvolutionConfig(64, ALPHA, BETA, 1e-3, 0.02, kind="ubar2", variables="v", n_saves=3)
        blocks = counting_blocks(monkeypatch)
        with pytest.raises(ValueError, match=match):
            direct_w_solve(cfg, bad(smooth_data(64, seed=9, amp=0.3)))
        assert blocks == []

    def test_stages_get_half_step_indices(self):
        calls = []

        def stage(coeffs, j, k):
            calls.append((j, k))
            return np.zeros_like(coeffs)

        _integrate_core(Grid(16).frequencies, np.zeros(16, complex), 0.1, 7, stage, set())
        assert calls == [(2 * s + j, k) for s in range(7) for j, k in ((0, 0), (1, 1), (1, 1), (2, 2))]


def small_flow_config(section, **keys):
    """The default config with a 64-point, 20-step flow of smooth data in
    [section] and the given keys, range-checked."""
    cfg = default_config()
    cfg[section].update(n_points=64, dt=1e-3, t_final=0.02, n_saves=3, sigma=3.0, freq_hi=8.0, **keys)
    check_ranges(cfg)
    return cfg


class TestLipschitz:
    def test_nonlinear_share_and_flows(self):
        shares = []
        for amp in (1e-9, 0.5):
            res = run_lipschitz(small_flow_config("lipschitz", amplitude=amp, epsilons=[1e-3, 1e-2]))
            # the base flow and one perturbed flow per epsilon, each 20 steps
            flows = [(h["flow"], h["steps"]) for h in res["health"]]
            assert flows == [("base", 20), ("perturbed", 20), ("perturbed", 20)]
            assert [eps for eps, _ratio in res["rows"]] == [1e-3, 1e-2]
            shares.append(res["nonlinear_share"])
        # the share scales with the amplitude: quadratic nonlinearity over linear data
        assert shares[0] < 1e-8
        assert shares[1] > 1e-3


class TestSubstitution:
    def test_smooth_variable_change_commutes(self):
        res = run_subst(small_flow_config("subst", beta=0.3, amplitude=0.5))
        assert [dt for dt, _sup in res["rows"]] == [1e-3, 5e-4]
        assert res["max_sup"] <= 1e-10

    def test_weight_commutation_identity(self):
        # the u-form nonlinearity of lifted data equals the lifted z-form one
        z = smooth_data(64, seed=8, amp=0.4)
        beta = 0.3
        u = bessel_potential(beta, z)
        lhs = weighted_product(0.0, beta, u, u)
        rhs_ = bessel_potential(beta, weighted_product(beta, 0.0, z, z))
        assert l2_norm(lhs - rhs_) <= 1e-12 * l2_norm(lhs)
