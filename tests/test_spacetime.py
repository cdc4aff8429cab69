import math

import numpy as np
import pytest

from qnls.spacetime import (
    SpaceTimeField,
    apply_window,
    box_mask,
    dyadic_profile,
    fitted_regularity,
    from_spacetime_coeffs,
    regularity_fit,
    sobolev_norm,
    st_l2_norm,
    st_product,
    st_spatial_multiplier,
    synth_cells,
    window_weights,
    xsb_norm,
)
from qnls.spectral import Grid, SpectralField

TWO_PI = 2 * np.pi


def synth_boxed(N, L, seed, grid, n_t=256, xi_side="both"):
    """Unit-norm random field on the dyadic box |xi| ~ N, |tau - xi^2| ~ L."""
    mask = box_mask(grid, n_t, N, 2.0 * N, L, 2.0 * L, xi_side)
    return synth_cells(grid, n_t, mask, seed)


def st_single_mode(grid, n_t, tau, k, amp=1.0):
    c = np.zeros((n_t, grid.n), dtype=complex)
    c[tau % n_t, k % grid.n] = amp
    return from_spacetime_coeffs(grid, c)


class TestSobolevAndProfile:
    def test_sobolev_single_mode(self):
        g = Grid(64)
        c = np.zeros(64, complex)
        c[3] = 2.0
        f = SpectralField(g, c)
        assert sobolev_norm(1.5, f) == pytest.approx(2 * math.sqrt(TWO_PI) * 10**0.75)

    def test_profile_blocks(self):
        g = Grid(256)
        c = np.zeros(256, complex)
        c[0] = 1.0   # low block
        c[4] = 1.0   # exactly on the band-2 plateau (4 / 2^2 = 1)
        f = SpectralField(g, c)
        ks, norms = dyadic_profile(f)
        assert list(ks[:3]) == [0, 1, 2]
        assert norms[0] == pytest.approx(math.sqrt(TWO_PI), rel=1e-12)
        assert norms[1] == pytest.approx(0.0, abs=1e-12)
        assert norms[2] == pytest.approx(math.sqrt(TWO_PI), rel=1e-12)

    def test_power_law_fit(self):
        # |u^(xi)| = <xi>^{-sigma-1/2} should fit sigma
        g = Grid(1024)
        xi = g.frequencies
        for sigma in (0.0, 0.7):
            c = (1.0 + xi**2) ** (-0.5 * (sigma + 0.5)) + 0j
            c[0] = 1.0
            f = SpectralField(g, c)
            fit = fitted_regularity(f, 3, 7)
            assert fit.sigma == pytest.approx(sigma, abs=0.05)

    def test_fit_needs_enough_bands(self):
        with pytest.raises(ValueError):
            regularity_fit([0, 1, 2], [1.0, 0.5, 0.25], 1, 2)

    def test_fit_window_above_top_band_rejected(self):
        # bands 3..8 alone make a six-band fit of norms 2^-k, so sigma 1; a
        # window to 9 is an error
        ks, norms = np.arange(9), 2.0 ** -np.arange(9.0)
        assert regularity_fit(ks, norms, 3, 8).sigma == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError, match="top band 8"):
            regularity_fit(ks, norms, 3, 9)


class TestSpaceTimeBasics:
    def test_st_l2_quadrature(self):
        g = Grid(64)
        vals = np.ones((32, 64), complex)
        f = SpaceTimeField(g, vals, windowed=False)
        assert st_l2_norm(f) == pytest.approx(math.sqrt(TWO_PI * TWO_PI))

    def test_spectral_roundtrip_and_nyquist(self):
        g = Grid(64)
        rng = np.random.default_rng(0)
        c = rng.standard_normal((32, 64)) + 1j * rng.standard_normal((32, 64))
        f = from_spacetime_coeffs(g, c)
        spec = f.spectral()
        assert np.all(spec[16, :] == 0)  # time Nyquist line
        assert np.all(spec[:, 32] == 0)  # space Nyquist line
        c2 = c.copy()
        c2[16, :] = 0
        c2[:, 32] = 0
        np.testing.assert_allclose(spec, c2, atol=1e-12)



class TestXsbNorm:
    def test_b_zero_is_l2_sobolev(self):
        g = Grid(64)
        f = st_single_mode(g, 32, 5, 3, amp=2.0)
        want = math.sqrt(TWO_PI * TWO_PI) * 2.0 * (1 + 9) ** 0.65
        assert xsb_norm(1.3, 0.0, f) == pytest.approx(want, rel=1e-12)

    def test_weight_sits_on_parabola(self):
        # the tau = xi^2 line carries weight 1
        g = Grid(64)
        on = st_single_mode(g, 32, 9, 3)    # tau = 9 = 3^2
        off = st_single_mode(g, 32, 13, 3)  # distance 4
        w_on = xsb_norm(0.0, 0.5, apply_window(on))
        w_off = xsb_norm(0.0, 0.5, apply_window(off))
        assert w_off > w_on

    def test_wrapping_distance(self):
        # with n_t=32 the tau period is 32; tau=-15 and tau=17
        # are the same lattice point relative to xi^2 = 1
        g = Grid(64)
        a = st_single_mode(g, 32, -15, 1)
        b = st_single_mode(g, 32, 17, 1)
        assert xsb_norm(0.0, 0.5, apply_window(a)) == pytest.approx(
            xsb_norm(0.0, 0.5, apply_window(b)), rel=1e-12
        )

    def test_unwindowed_positive_b_rejected(self):
        g = Grid(64)
        f = st_single_mode(g, 32, 0, 1)
        with pytest.raises(ValueError):
            xsb_norm(0.0, 0.3, f)


class TestWindow:
    def test_window_profile(self):
        w = window_weights(64)
        # flat region around the middle of [0, T]
        assert w[32] == pytest.approx(1.0)
        assert w[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(w >= 0) and np.all(w <= 1)

    def test_apply_window_marks_field(self):
        g = Grid(64)
        f = st_single_mode(g, 32, 0, 1)
        fw = apply_window(f)
        assert fw.windowed and not f.windowed
        np.testing.assert_allclose(fw.values, f.values * window_weights(32)[:, None])


class TestSynthesis:
    def test_boxed_unit_norm_and_support(self):
        g = Grid(128)
        u = synth_boxed(8.0, 16.0, [0, 2], g, n_t=64)
        assert st_l2_norm(u) == pytest.approx(1.0, rel=1e-12)
        spec = u.spectral()
        xi = g.frequencies
        tau = np.fft.fftfreq(64, d=1.0 / 64)  # the integer tau lattice, in FFT order
        mask = box_mask(g, 64, 8.0, 2 * 8.0, 16.0, 2 * 16.0)
        assert np.max(np.abs(spec[~mask])) < 1e-15
        # frequency support inside |xi| in [8, 16]
        cols = np.any(np.abs(spec) > 1e-15, axis=0)
        assert np.all((np.abs(xi[cols]) >= 8.0) & (np.abs(xi[cols]) <= 16.0))
        # modulation support: |tau - xi^2| <= 2 * 16 for every active row
        rows = np.any(np.abs(spec) > 1e-15, axis=1)
        assert rows.any() and np.all(np.abs(tau[rows]) <= 16.0**2 + 2 * 16.0)

    def test_seed_determinism(self):
        g = Grid(64)
        a = synth_boxed(4.0, 8.0, [5, 7], g, n_t=32)
        b = synth_boxed(4.0, 8.0, [5, 7], g, n_t=32)
        np.testing.assert_array_equal(a.values, b.values)

    def test_one_sided_boxes(self):
        g = Grid(64)
        up = synth_boxed(4.0, 8.0, [1], g, n_t=32, xi_side="+")
        dn = synth_boxed(4.0, 8.0, [1], g, n_t=32, xi_side="-")
        xi = g.frequencies
        assert np.max(np.abs(up.spectral()[:, xi < 0])) < 1e-15
        assert np.max(np.abs(dn.spectral()[:, xi > 0])) < 1e-15

    def test_empty_mask_rejected(self):
        g = Grid(64)
        with pytest.raises(ValueError):
            synth_cells(g, 32, np.zeros((32, 64), bool), [1])


class TestProducts:
    def test_pointwise_product(self):
        g = Grid(64)
        u = st_single_mode(g, 32, 2, 3)
        v = st_single_mode(g, 32, 5, 4)
        p = st_product(u, v)
        spec = p.spectral()
        assert spec[7, 7] == pytest.approx(1.0)

    def test_conjugate_product(self):
        g = Grid(64)
        u = st_single_mode(g, 32, 2, 3)
        v = st_single_mode(g, 32, 5, 4, amp=2j)
        p = st_product(u, v.conj())
        spec = p.spectral()
        assert spec[(2 - 5) % 32, (3 - 4) % 64] == pytest.approx(np.conj(2j))

    def test_spatial_multiplier(self):
        g = Grid(64)
        u = st_single_mode(g, 32, 2, 3, amp=1.5)
        mult = np.zeros(64)
        mult[3] = 2.0
        out = st_spatial_multiplier(u, mult)
        assert out.spectral()[2, 3] == pytest.approx(3.0)
        assert st_l2_norm(out) == pytest.approx(2.0 * st_l2_norm(u), rel=1e-12)
