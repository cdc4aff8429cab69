import numpy as np
import pytest

from qnls.spectral import (
    Grid,
    SpectralField,
    bessel_potential,
    fft_size,
    free_propagate,
    l2_norm,
    lp_annulus,
    lp_bump,
    max_band,
    sign_project,
)


def to_physical(field):
    """Collocation samples u(x_j) of the field."""
    return field.grid.n * np.fft.ifft(field.coeffs)


def to_spectral(grid, samples):
    """Field whose coefficients interpolate the given collocation samples."""
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.shape != (grid.n,):
        raise ValueError(f"sample shape {samples.shape} does not match grid n={grid.n}")
    return SpectralField(grid, np.fft.fft(samples) / grid.n)


def single_mode(grid, k, amp=1.0):
    c = np.zeros(grid.n, dtype=complex)
    c[k % grid.n] = amp
    return SpectralField(grid, c)


def random_field(grid, seed=0, width=None):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    if width is not None:
        keep = np.abs(grid.frequencies) <= width
        c = np.where(keep, c, 0)
    return SpectralField(grid, c)


class TestGrid:
    def test_basic_layout(self):
        g = Grid(64)
        assert g.n == 64
        assert g.nyquist_index == 32
        assert g.guard_index == 16
        assert g.frequencies[1] == pytest.approx(1.0)
        assert g.frequencies[-1] == pytest.approx(-1.0)
        assert g.guard_frequency == 16.0
        assert g.length == 2 * np.pi
        with pytest.raises(AttributeError):
            g.length = np.pi

    def test_rejects_bad_sizes(self):
        for bad in (0, 8, 48, 100):
            with pytest.raises(ValueError):
                Grid(bad)

    def test_grid_equality_and_hash(self):
        assert Grid(64) == Grid(64)
        assert hash(Grid(64)) == hash(Grid(64))
        assert Grid(64) != Grid(128)


class TestTransforms:
    def test_roundtrip(self):
        g = Grid(128)
        f = random_field(g, seed=3)
        back = to_spectral(g, to_physical(f))
        np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-13)

    def test_single_mode_evaluation(self):
        # u(x) = exp(i 3 x) sampled on the grid
        g = Grid(64)
        f = single_mode(g, 3)
        x = np.arange(64) * (2 * np.pi / 64)
        np.testing.assert_allclose(to_physical(f), np.exp(3j * x), atol=1e-13)

    def test_l2_norm_convention(self):
        # ||exp(i k x)||_{L^2(0, 2pi)} = sqrt(2 pi)
        g = Grid(64)
        assert l2_norm(single_mode(g, 5)) == pytest.approx(np.sqrt(2 * np.pi))

    def test_parseval(self):
        g = Grid(128)
        f = random_field(g, seed=1)
        phys = to_physical(f)
        quad = np.sqrt(np.sum(np.abs(phys) ** 2) * (g.length / g.n))
        assert l2_norm(f) == pytest.approx(quad, rel=1e-12)

    def test_nyquist_always_zero(self):
        g = Grid(32)
        c = np.ones(32, dtype=complex)
        f = SpectralField(g, c)
        assert f.coeffs[16] == 0


class TestFieldAlgebra:
    def test_arithmetic(self):
        g = Grid(32)
        f, h = random_field(g, 1), random_field(g, 2)
        np.testing.assert_allclose((f + h).coeffs, f.coeffs + h.coeffs)
        np.testing.assert_allclose((f - h).coeffs, f.coeffs - h.coeffs)
        np.testing.assert_allclose((2.5 * f).coeffs, 2.5 * f.coeffs)

    def test_coeffs_are_readonly(self):
        g = Grid(32)
        f = random_field(g, 1)
        with pytest.raises(ValueError):
            f.coeffs[3] = 1.0

    def test_conjugation_rule(self):
        # spectral coefficients of conj(u): hat(conj u)(k) = conj(hat u(-k))
        g = Grid(64)
        f = random_field(g, 4)
        fc = f.conj()
        for k in (0, 1, 7, 31, 63):
            assert fc.coeffs[k] == np.conj(f.coeffs[(-k) % 64])
        np.testing.assert_allclose(to_physical(fc), np.conj(to_physical(f)), atol=1e-13)

    def test_grid_mismatch_raises(self):
        f = random_field(Grid(32), 1)
        h = random_field(Grid(64), 1)
        with pytest.raises(ValueError):
            _ = f + h


class TestPropagator:
    def test_phase(self):
        g = Grid(64)
        h = free_propagate(0.4, single_mode(g, 1))
        # exp(i * 1^2 * 0.4)
        assert h.coeffs[1].real == pytest.approx(0.9210609940028851, abs=1e-15)
        assert h.coeffs[1].imag == pytest.approx(0.3894183423086505, abs=1e-15)

    def test_isometry_and_group_law(self):
        g = Grid(64)
        f = random_field(g, 9)
        assert l2_norm(free_propagate(1.3, f)) == pytest.approx(l2_norm(f))
        a = free_propagate(0.3, free_propagate(0.5, f))
        b = free_propagate(0.8, f)
        np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-14)

    def test_solves_free_equation(self):
        # d/dt u = i u_xx, spectrally: d/dt hat(u) = i xi^2 hat(u)
        g = Grid(64)
        f = random_field(g, 10, width=10)
        dt = 1e-6
        lhs = (free_propagate(dt, f).coeffs - free_propagate(-dt, f).coeffs) / (2 * dt)
        rhs = 1j * g.frequencies**2 * f.coeffs
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)


class TestBessel:
    def test_weights(self):
        g = Grid(64)
        f = single_mode(g, 3)
        assert bessel_potential(0.5, f).coeffs[3] == pytest.approx((1 + 9) ** 0.25)
        assert bessel_potential(-2.0, f).coeffs[3] == pytest.approx((1 + 9) ** -1.0)

    def test_zero_order_identity(self):
        g = Grid(64)
        f = random_field(g, 2)
        np.testing.assert_allclose(bessel_potential(0.0, f).coeffs, f.coeffs)


class TestLittlewoodPaley:
    def test_bump_profile(self):
        assert lp_bump(np.array([0.0]))[0] == 1.0
        assert lp_bump(np.array([1.0]))[0] == 1.0
        assert lp_bump(np.array([2.0]))[0] == 0.0
        assert lp_bump(np.array([-0.5]))[0] == 1.0
        mid = lp_bump(np.array([1.5]))[0]
        assert 0.0 < mid < 1.0

    def test_annulus_support(self):
        xs = np.array([0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
        vals = lp_annulus(xs)
        assert vals[0] == 0.0 and vals[1] == 0.0
        assert vals[3] == 1.0
        assert vals[5] == 0.0 and vals[6] == 0.0
        assert 0 < vals[2] < 1

    def test_partition_telescopes(self):
        g = Grid(1024)
        xi = g.frequencies
        total = lp_bump(xi).copy()
        top = max_band(g)
        for k in range(1, top + 1):
            total += lp_annulus(xi / 2.0**k)
        covered = np.abs(xi) <= 2.0**top
        assert np.max(np.abs(total[covered] - 1.0)) <= 1e-12

    def test_max_band(self):
        assert max_band(Grid(1024)) == 8
        assert max_band(Grid(64)) == 4

    def test_projection_reconstruction(self):
        # the low block and the resolved bands reassemble a field whose
        # support they cover
        g = Grid(256)
        f = random_field(g, 5, width=60)
        xi = g.frequencies
        total = f.coeffs * lp_bump(xi)
        for k in range(1, max_band(g) + 1):
            total = total + f.coeffs * lp_annulus(xi / 2.0**k)
        np.testing.assert_allclose(total, f.coeffs, atol=1e-12)


class TestSignProjection:
    def test_split(self):
        g = Grid(64)
        f = random_field(g, 8)
        plus = sign_project(f)
        minus = sign_project(f.conj()).conj()
        xi = g.frequencies
        assert np.all(plus.coeffs[xi <= 0] == 0)
        assert np.all(minus.coeffs[xi >= 0] == 0)
        total = plus + minus
        expect = f.coeffs.copy()
        expect[0] = 0
        np.testing.assert_allclose(total.coeffs, expect)


def test_zero_field():
    g = Grid(32)
    z = SpectralField(g, np.zeros(g.n))
    assert l2_norm(z) == 0.0
    assert z.grid is g


def test_fft_size_is_smallest_even_smooth_above_floor():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for cap in (16, 64, 1024):
        for floor in range(0, cap + 3):
            want = next((m for m in range(floor + 1, cap) if m % 2 == 0 and smooth(m)), cap)
            assert fft_size(floor, cap) == want, (floor, cap)
