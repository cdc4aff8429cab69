import numpy as np
import pytest

from qnls import experiments
from qnls.bilinear import (
    KIND_FLAGS,
    BilinearSymbol,
    apply_bilinear,
    g_symbol,
    kind_factors,
    leibniz_residual,
    lift_coeffs,
    normal_form_pair,
    pair_g_coeffs,
    weighted_product,
)
from qnls.evolution import EvolutionConfig, decompose, direct_w_solve, integrate, normal_form_h
from qnls.config import default_config
from qnls.spectral import BandGrid, Grid, SpectralField, bracket, l2_norm


def single_mode(grid, k, amp=1.0):
    c = np.zeros(grid.n, dtype=complex)
    c[k % grid.n] = amp
    return SpectralField(grid, c)


def plain_product(u, v):
    """The doubled-grid product of two fields, no weights (<xi>^0 is exactly 1)."""
    return weighted_product(0.0, 0.0, u, v)


def pair_g(kind, alpha, beta, u, v):
    """pair_g_coeffs of two fields, as a field."""
    return SpectralField(u.grid, pair_g_coeffs(kind, alpha, beta, u.grid, u.coeffs, v.coeffs))


def lift(kind, alpha, beta, u, v):
    """lift_coeffs of two fields, as a field."""
    return SpectralField(u.grid, lift_coeffs(kind, alpha, beta, u.grid, u.coeffs, v.coeffs))


def band_limited(grid, seed, width):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    c[np.abs(grid.frequencies) > width] = 0
    return SpectralField(grid, c)


class TestWeightSymbol:
    """Values of the product weight <xi>^a <eta>^a <xi+eta>^(b-a)."""

    def test_frozen_values(self):
        g = Grid(64)
        m = g_symbol(0.5, 0.0).matrix(g)
        # 2^(1/2) * 2^(1/2) * 5^(-1/4)
        assert m[1, 1].real == pytest.approx(0.9457416090031757, abs=1e-14)
        m2 = g_symbol(0.6, 0.0).matrix(g)
        assert m2[4, 4].real == pytest.approx(1.5645712510460963, abs=1e-13)

    def test_symmetry_and_reality(self):
        g = Grid(32)
        m = g_symbol(0.6, 0.2).matrix(g)
        assert np.all(m.imag == 0)
        np.testing.assert_allclose(m, m.T)

    def test_nyquist_rows_zeroed(self):
        g = Grid(32)
        m = g_symbol(0.6, 0.2).matrix(g)
        assert np.all(m[16, :] == 0)
        assert np.all(m[:, 16] == 0)

    def test_matrix_cache(self):
        g = Grid(32)
        sym = g_symbol(0.6, 0.2)
        assert sym.matrix(g) is sym.matrix(g)


class TestLiftSymbols:
    def test_frozen_magnitude(self):
        # same-sign square interaction at (4, 4): weight / |2 * 4 * 4|
        g = Grid(64)
        t = normal_form_pair("u2", 0.6, 0.0)[0].matrix(g)
        assert abs(t[4, 4]) == pytest.approx(0.04889285159519051, abs=1e-14)

    def test_u2_excludes_nonpositive_pairs(self):
        g = Grid(64)
        t = normal_form_pair("u2", 0.6, 0.2)[0].matrix(g)
        assert np.all(t[0, :] == 0)
        assert np.all(t[:, 0] == 0)
        # negative-frequency rows live in the upper index range
        assert np.all(t[40, :] == 0)
        assert t[3, 5] != 0

    def test_uubar_exclusions(self):
        g = Grid(64)
        t = normal_form_pair("uubar", 0.6, 0.2)[0].matrix(g)
        assert np.all(t[0, :] == 0)  # first slot must be positive
        assert np.all(t[:, 0] == 0)  # second effective frequency nonzero
        assert t[3, (-3) % 64] == 0  # output frequency zero excluded
        assert t[3, (-5) % 64] != 0

    def test_ubar2_keeps_almost_everything(self):
        g = Grid(64)
        t = normal_form_pair("ubar2", 0.6, 0.2)[0].matrix(g)
        assert t[0, 0] == 0  # only the double zero mode drops
        assert t[0, 5] != 0
        assert t[3, (-3) % 64] != 0

    def test_restricted_weight_matches_lift_support(self):
        g = Grid(64)
        for kind in ("u2", "uubar", "ubar2"):
            t_sym, g_sym = normal_form_pair(kind, 0.6, 0.2)
            t, r = t_sym.matrix(g), g_sym.matrix(g)
            np.testing.assert_array_equal(t != 0, r != 0)


class TestApplyBilinear:
    def test_convolution_offsets(self):
        # single modes: output lands at the frequency sum
        g = Grid(64)
        sym = g_symbol(0.6, 0.2)
        out = apply_bilinear(sym, single_mode(g, 3), single_mode(g, 5))
        m = sym.matrix(g)
        assert out.coeffs[8] == pytest.approx(m[3, 5])
        assert np.sum(out.coeffs != 0) == 1

    def test_conjugated_slot_uses_reversed_conjugate(self):
        g = Grid(64)
        sym = BilinearSymbol("test", g_symbol(0.6, 0.2).fill, False, True)
        # v has content at +5 only; conjugated slot sees eta = -5
        out = apply_bilinear(sym, single_mode(g, 3), single_mode(g, 5, amp=2j))
        m = sym.matrix(g)
        assert out.coeffs[(3 - 5) % 64] == pytest.approx(m[3, (-5) % 64] * np.conj(2j))

    def test_guard_rejects_wide_input(self):
        g = Grid(64)
        wide = single_mode(g, 20)  # beyond guard index 16
        with pytest.raises(ValueError):
            apply_bilinear(g_symbol(0.6, 0.2), wide, single_mode(g, 1))


class TestWeightedProduct:
    def test_agrees_with_symbol_contraction(self):
        g = Grid(64)
        u = band_limited(g, 11, 14)
        v = band_limited(g, 12, 14)
        base = g_symbol(0.6, 0.2)
        for cf, cs in ((False, False), (False, True), (True, True)):
            sym = BilinearSymbol(base.name, base.fill, cf, cs)
            fast = weighted_product(0.6, 0.2 - 0.6, u.conj() if cf else u, v.conj() if cs else v)
            slow = apply_bilinear(sym, u, v)
            assert l2_norm(fast - slow) <= 1e-12 * l2_norm(slow)

    def test_dealiased_product_is_true_product(self):
        g = Grid(64)
        u = band_limited(g, 13, 14)
        v = band_limited(g, 14, 14)
        prod = plain_product(u, v)
        # compare against the physical-space product evaluated on a finer grid
        fine = Grid(256)
        uf = SpectralField(fine, np.concatenate([u.coeffs[:32], np.zeros(192), u.coeffs[32:]]))
        vf = SpectralField(fine, np.concatenate([v.coeffs[:32], np.zeros(192), v.coeffs[32:]]))
        # the product of the collocation samples, back to coefficients
        pf = SpectralField(fine, np.fft.fft(np.fft.ifft(uf.coeffs) * np.fft.ifft(vf.coeffs)) * fine.n)
        np.testing.assert_allclose(prod.coeffs[:30], pf.coeffs[:30], atol=1e-13)
        np.testing.assert_allclose(prod.coeffs[-29:], pf.coeffs[-29:], atol=1e-13)

    def test_no_aliasing_from_high_content(self):
        # content at +14 and +15 multiplies to +29 < 32; nothing may wrap
        g = Grid(64)
        prod = plain_product(single_mode(g, 14), single_mode(g, 15))
        assert prod.coeffs[29] == pytest.approx(1.0)
        rest = np.delete(prod.coeffs, 29)
        assert np.max(np.abs(rest)) < 1e-14


class TestPairRestrictedProduct:
    @pytest.mark.parametrize("kind", ["u2", "uubar", "ubar2"])
    def test_matches_restricted_symbol(self, kind):
        g = Grid(64)
        u = band_limited(g, 21, 14)
        v = band_limited(g, 22, 14)
        fast = pair_g(kind, 0.6, 0.2, u, v)
        slow = apply_bilinear(normal_form_pair(kind, 0.6, 0.2)[1], u, v)
        assert l2_norm(fast - slow) <= 1e-12 * max(l2_norm(slow), 1e-300)


def guard_limited(grid, seed):
    """Seeded complex data on every slot |j| <= n/4, guard edge included."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    idx = np.arange(grid.n)
    c[np.minimum(idx, grid.n - idx) > grid.guard_index] = 0
    return SpectralField(grid, c)


class TestFactoredLift:
    """lift_coeffs against the dense contraction of the lift symbol."""

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("alpha, beta", [(0.6, 0.2), (0.5, 0.0), (0.3, 0.45)])
    @pytest.mark.parametrize("kind", ["u2", "uubar"])
    def test_matches_dense_symbol(self, kind, alpha, beta, n):
        g = Grid(n)
        u = guard_limited(g, 1000 + n)
        v = guard_limited(g, 2000 + n)
        dense = apply_bilinear(normal_form_pair(kind, alpha, beta)[0], u, v)
        fast = lift(kind, alpha, beta, u, v)
        assert l2_norm(fast - dense) <= 1e-13 * l2_norm(dense)

    def test_ubar2_is_the_dense_contraction(self):
        g = Grid(64)
        u, v = guard_limited(g, 5), guard_limited(g, 6)
        dense = apply_bilinear(normal_form_pair("ubar2", 0.6, 0.2)[0], u, v)
        np.testing.assert_array_equal(lift("ubar2", 0.6, 0.2, u, v).coeffs, dense.coeffs)

    # single modes (xi, eta) as grid indices, eta before conjugation; each
    # sits on a cutoff of the kind or beside one
    @pytest.mark.parametrize(
        "kind, p, q",
        [
            ("u2", 0, 3),  # xi = 0
            ("u2", 3, 0),  # eta = 0
            ("u2", -3, 5),  # xi < 0
            ("u2", 3, 5),  # admissible
            ("u2", 1, 1),  # smallest admissible pair
            ("u2", 16, 16),  # guard edge: the sum is the Nyquist index
            ("u2", 16, 15),  # guard edge, inside the band
            ("uubar", 0, 3),  # xi = 0
            ("uubar", 3, 0),  # eta = 0
            ("uubar", 3, 3),  # xi + eta = 0 (the slot is conjugated)
            ("uubar", -3, 5),  # xi < 0
            ("uubar", 3, 5),  # admissible, output -2
            ("uubar", 3, -5),  # admissible, output 8
            ("uubar", 16, -16),  # guard edge: the sum is the Nyquist index
            ("uubar", 16, -15),  # guard edge, inside the band
            ("uubar", 1, 16),  # guard edge of the conjugated slot
        ],
    )
    def test_single_modes_on_cutoffs(self, kind, p, q):
        g = Grid(64)
        u, v = single_mode(g, p, amp=0.5 + 1j), single_mode(g, q, amp=2.0 - 0.25j)
        t_sym, g_sym = normal_form_pair(kind, 0.6, 0.2)
        for fast, dense in (
            (lift(kind, 0.6, 0.2, u, v), apply_bilinear(t_sym, u, v)),
            (pair_g(kind, 0.6, 0.2, u, v), apply_bilinear(g_sym, u, v)),
        ):
            atol = 1e-14 * max(np.max(np.abs(dense.coeffs)), 1.0)
            np.testing.assert_allclose(fast.coeffs, dense.coeffs, rtol=0, atol=atol)
            assert fast.coeffs[g.nyquist_index] == 0
            assert np.sum(np.abs(fast.coeffs) > atol) <= 1

    def test_rejects_wide_input(self):
        # the guard check sits at the one lift entry point
        g = Grid(64)
        for kind in ("u2", "uubar", "ubar2"):
            with pytest.raises(ValueError, match="guard"):
                normal_form_h(single_mode(g, 17) + single_mode(g, 1), [0.0, 0.1], 0.6, 0.2, kind)

    def test_unknown_kind(self):
        g = Grid(64)
        for symbol in (lift_coeffs, pair_g_coeffs):
            with pytest.raises(ValueError, match="cubic"):
                symbol("cubic", 0.6, 0.2, g, single_mode(g, 1).coeffs, single_mode(g, 2).coeffs)


class TestPairBuilder:
    def test_repeated_calls_share_the_symbols(self):
        for kind in ("u2", "uubar", "ubar2"):
            t_sym, g_sym = normal_form_pair(kind, 0.6, 0.2)
            again = normal_form_pair(kind, 0.6, 0.2)
            assert again[0] is t_sym and again[1] is g_sym
        assert normal_form_pair("u2", 0.5, 0.2)[0] is not normal_form_pair("u2", 0.6, 0.2)[0]

    def test_criteria_and_lift_build_each_matrix_once(self, monkeypatch):
        # criteria 1 and 8 and the ubar2 lift sample the same pairs on n = 64
        builds = []
        original = BilinearSymbol.matrix

        def matrix(sym, grid):
            if (grid.n, grid.length) not in sym._cache:
                builds.append((sym.name, grid.n))
            return original(sym, grid)

        monkeypatch.setattr(BilinearSymbol, "matrix", matrix)
        normal_form_pair.cache_clear()
        cfg = default_config()
        cfg["identity"]["n_pairs"] = 1
        experiments.run_identity(cfg)
        experiments.measure_bilinear_oracle_deviation(cfg)
        g = Grid(64)
        lift("ubar2", cfg["run"]["alpha"], cfg["run"]["beta"], guard_limited(g, 5), guard_limited(g, 6))
        # T and G of each kind, and the weight
        assert len(builds) == len(set(builds)) == 7
        assert {n for _name, n in builds} == {64}


class TestKindFactors:
    def test_built_once_per_kind_parameters_and_grid(self):
        # the lifts, paired weights and remainder forcing of two kinds on two
        # grids, run twice: one build per (kind, alpha, beta, grid)
        kind_factors.cache_clear()
        for _ in range(2):
            for n in (64, 128):
                for kind in ("u2", "uubar"):
                    f = 0.1 * guard_limited(Grid(n), n)
                    cfg = EvolutionConfig(n, 0.6, 0.2, 1e-3, 4e-3, kind=kind, variables="v", n_saves=2)
                    decompose(integrate(cfg, f), f)
                    direct_w_solve(cfg, f)
        info = kind_factors.cache_info()
        assert info.misses == info.currsize == 4
        assert info.hits > 0

    def test_read_only_and_shared_slot_multipliers(self):
        g = Grid(64)
        factors = {kind: kind_factors(kind, 0.6, 0.2, g) for kind in ("u2", "uubar", "ubar2")}
        assert factors["ubar2"].lift is None
        # one multiplier in both slots keeps factored_product's square path
        same = [factors["u2"].lift, factors["u2"].pair, factors["ubar2"].pair]
        same += [kf.weight for kf in factors.values()]
        assert all(m2 is m1 for m1, m2, _m_out in same)
        for kind, kf in factors.items():
            assert kf.conj == KIND_FLAGS[kind]
            for sym in filter(None, (kf.lift, kf.pair, kf.weight)):
                assert not any(m.flags.writeable for m in sym)
        assert kind_factors("u2", 0.6, 0.2, Grid(64)) is factors["u2"]


def full_band(grid, seed, k=None):
    """Seeded complex data on every slot |j| <= k (default: below the
    Nyquist index)."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    if k is not None:
        idx = np.arange(grid.n)
        c[np.minimum(idx, grid.n - idx) > k] = 0
    return SpectralField(grid, c)


# (k_in, k_out) of each product path on n points
BANDS = {
    "stage": lambda n: (n // 4, n // 4),  # the RK4 stage
    "lift": lambda n: (n // 4, n // 2 - 1),  # the factored lifts and pair-g
    "wide": lambda n: (n // 2 - 1, n // 2 - 1),  # full band in and out, the 3/2 rule
    "remainder": lambda n: (n // 2 - 1, n // 4),  # direct_w_solve's G(v, v)
}


def kept(grid, k):
    idx = np.arange(grid.n)
    return np.minimum(idx, grid.n - idx) <= k


def edge_cases(band, n):
    """Single-mode pairs at the input band edge +-k_in, with the output index
    they must land on (None when the sum leaves the kept band): the largest
    sums +-2 k_in and 2 k_in - 1, the sum 0, and a sum on the output edge."""
    k_in, k_out = BANDS[band](n)
    for p, q in ((k_in, k_in), (-k_in, -k_in), (k_in, k_in - 1), (k_in, -k_in), (k_in, k_out - k_in)):
        out = p + q if abs(p + q) <= k_out else None
        yield pytest.param(band, n, p, q, out, id=f"{band}-{n}-{p}-{q}")


class TestPaddedProduct:
    """BandGrid.product against the doubled-grid oracle, for inputs on the
    whole input band of each product path."""

    @pytest.mark.parametrize(
        "band, n",
        [
            pytest.param(band, n, id=str(n) if band == "wide" and n > 16 else f"{band}-{n}")
            for band in BANDS
            for n in (16, 64, 256, 1024)
        ],
    )
    def test_matches_dealiased_product(self, band, n):
        g = Grid(n)
        k_in, k_out = BANDS[band](n)
        u, v = full_band(g, 3 * n, k_in), full_band(g, 3 * n + 1, k_in)
        assert u.coeffs[k_in] != 0 and u.coeffs[-k_in] != 0
        oracle = plain_product(u, v).coeffs
        fast = BandGrid(g, k_in, k_out).product(u.coeffs, v.coeffs)
        inside = kept(g, k_out)
        assert np.linalg.norm((fast - oracle)[inside]) <= 1e-13 * np.linalg.norm(oracle[inside])
        assert np.all(fast[~inside] == 0.0)

    @pytest.mark.parametrize("conj_first, conj_second", [(False, False), (False, True), (True, True)])
    def test_matches_weighted_product(self, conj_first, conj_second):
        g = Grid(256)
        u, v = full_band(g, 41), full_band(g, 42)
        oracle = weighted_product(0.6, -0.4, u.conj() if conj_first else u, v.conj() if conj_second else v)
        w_in = bracket(g.frequencies, 0.6)
        a, c = ((f.conj() if conj else f).coeffs * w_in for f, conj in ((u, conj_first), (v, conj_second)))
        fast = SpectralField(g, BandGrid(g, *BANDS["wide"](g.n)).product(a, c) * bracket(g.frequencies, -0.4))
        assert l2_norm(fast - oracle) <= 1e-13 * l2_norm(oracle)

    @pytest.mark.parametrize(
        "band, n, p, q, out",
        [
            pytest.param("wide", 64, p, q, out, id=f"{p}-{q}-{out}")
            for p, q, out in [(31, 31, None), (31, 1, None), (31, -31, 0), (31, -1, 30), (-31, -2, None)]
        ]
        + [case for band in BANDS for n in (16, 64, 256) for case in edge_cases(band, n)],
    )
    def test_edge_modes(self, band, n, p, q, out):
        # sums beyond the kept band are dropped, never wrapped onto it
        g = Grid(n)
        k_in, k_out = BANDS[band](n)
        fast = BandGrid(g, k_in, k_out).product(single_mode(g, p).coeffs, single_mode(g, q).coeffs)
        expect = np.zeros(n, dtype=complex)
        if out is not None:
            expect[out % n] = 1.0
        np.testing.assert_allclose(fast, expect, rtol=0, atol=1e-14)
        oracle = plain_product(single_mode(g, p), single_mode(g, q)).coeffs
        np.testing.assert_allclose(np.where(kept(g, k_out), oracle, 0.0), expect, rtol=0, atol=1e-14)


class TestLeibnizresidual:
    """Closed form for one interacting pair: the lift of two single modes
    oscillates at the curvature mismatch, so the centered difference of its
    time derivative misses the true derivative by |sin(w dt)/dt - w| / |res|.
    """

    def test_single_pair_closed_form(self):
        g = Grid(64)
        t_sym, g_sym = normal_form_pair("u2", 0.5, 0.0)
        f, h = single_mode(g, 3), single_mode(g, 5)
        residual = leibniz_residual(t_sym, g_sym, f, h, 0.1, 1e-3)
        assert residual == pytest.approx(2.1834293495170224e-4, rel=1e-6)
        residual_half = leibniz_residual(t_sym, g_sym, f, h, 0.1, 5e-4)
        assert residual_half == pytest.approx(5.458810008486618e-5, rel=1e-6)
        assert residual / residual_half == pytest.approx(3.999826603458487, rel=1e-6)

    def test_conjugated_pair_closed_form(self):
        g = Grid(64)
        t_sym, g_sym = normal_form_pair("uubar", 0.5, 0.0)
        f = single_mode(g, 3)
        h = single_mode(g, 5)  # conjugated slot sees eta = -5
        assert leibniz_residual(t_sym, g_sym, f, h, 0.1, 1e-3) == pytest.approx(3.413289642928419e-5, rel=1e-6)

    def test_residual_shrinks_quadratically(self):
        g = Grid(64)
        t_sym, g_sym = normal_form_pair("ubar2", 0.6, 0.2)
        u = band_limited(g, 31, 3)
        v = band_limited(g, 32, 3)
        r1 = leibniz_residual(t_sym, g_sym, u, v, 0.2, 1e-3)
        r2 = leibniz_residual(t_sym, g_sym, u, v, 0.2, 5e-4)
        assert 3.5 <= r1 / r2 <= 4.5
