"""Sobolev measurement, dyadic regularity fits, and discrete space-time norms.

Space-time fields live on an (n_t x n_x) grid that is periodic in both
directions, with expansions

    u(t, x) = sum_{tau, xi} C(tau, xi) exp(i(tau t + xi x)),

tau_p = 2*pi*p / t_total and xi the spatial grid frequencies.  The default
t_total = 2*pi puts tau on the integer lattice, so integer-frequency free
waves exp(i(xi x + xi^2 t)) are exactly periodic and sit on single cells.

The parabola weight uses the wrapped representative of tau - sign*xi^2
closest to zero (the frequency axis is periodic with period n_t * dtau);
both Nyquist lines are zeroed, matching the spatial convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Grid, SpectralField, lp_annulus, lp_bump, max_band

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------------------
# spatial measurement
# ----------------------------------------------------------------------------

def sobolev_norm(s: float, field: SpectralField) -> float:
    """H^s norm: length * sum <xi>^(2s) |uhat|^2 under the square root."""
    w = (1.0 + field.grid.frequencies**2) ** s
    return math.sqrt(field.grid.length * float(np.sum(w * np.abs(field.coeffs) ** 2)))


def dyadic_profile(field: SpectralField):
    """Band energies (k, ||P_k u||_L2) for k = 0 (low block) .. max band."""
    grid = field.grid
    xi = grid.frequencies
    power = np.abs(field.coeffs) ** 2
    ks = np.arange(0, max_band(grid) + 1)
    norms = np.empty(len(ks))
    norms[0] = math.sqrt(grid.length * float(np.sum(lp_bump(xi) ** 2 * power)))
    for k in ks[1:]:
        sym = lp_annulus(xi / float(2**k))
        norms[k] = math.sqrt(grid.length * float(np.sum(sym**2 * power)))
    return ks, norms


@dataclass
class RegularityFit:
    sigma: float
    stderr: float
    k_lo: int
    k_hi: int
    n_bands: int


def regularity_fit(ks, norms, k_lo: int | None = None, k_hi: int | None = None) -> RegularityFit:
    """Least-squares Sobolev index from a dyadic profile.

    Fits log2||P_k u|| against k on the window [k_lo, k_hi] (bands only,
    k >= 1) and returns sigma = -slope with its standard error.  Requires
    at least four bands with nonvanishing mass in the window.
    """
    ks = np.asarray(ks)
    norms = np.asarray(norms, dtype=np.float64)
    lo = 1 if k_lo is None else int(k_lo)
    hi = int(ks[-1]) if k_hi is None else int(k_hi)
    sel = (ks >= max(lo, 1)) & (ks <= hi) & (norms > 0)
    kk = ks[sel].astype(np.float64)
    if kk.size < 4:
        raise ValueError(f"regularity fit needs >= 4 usable bands, got {kk.size}")
    yy = np.log2(norms[sel])
    kbar = kk.mean()
    ybar = yy.mean()
    sxx = float(np.sum((kk - kbar) ** 2))
    slope = float(np.sum((kk - kbar) * (yy - ybar)) / sxx)
    resid = yy - (ybar + slope * (kk - kbar))
    dof = max(kk.size - 2, 1)
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return RegularityFit(-slope, stderr, int(kk[0]), int(kk[-1]), kk.size)


def fitted_regularity(field: SpectralField, k_lo: int | None = None, k_hi: int | None = None) -> RegularityFit:
    ks, norms = dyadic_profile(field)
    return regularity_fit(ks, norms, k_lo, k_hi)


# ----------------------------------------------------------------------------
# space-time fields
# ----------------------------------------------------------------------------

class SpaceTimeField:
    """Dense space-time samples on a doubly periodic grid.

    Attributes:
        grid: the spatial Grid.
        t_total: time period.
        values: (n_t, n_x) complex collocation samples.
        windowed: whether a time cutoff has been applied (required before
            any norm with b > 0 is meaningful).
    """

    __slots__ = ("grid", "t_total", "values", "windowed")

    def __init__(self, grid: Grid, t_total: float, values, windowed: bool = False):
        v = np.array(values, dtype=np.complex128)
        if v.ndim != 2 or v.shape[1] != grid.n:
            raise ValueError(f"values shape {v.shape} does not match grid n={grid.n}")
        if not (t_total > 0):
            raise ValueError("t_total must be positive")
        v.setflags(write=False)
        self.grid = grid
        self.t_total = float(t_total)
        self.values = v
        self.windowed = bool(windowed)

    @property
    def n_t(self) -> int:
        return self.values.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_t) * (self.t_total / self.n_t)

    def spectral(self) -> np.ndarray:
        """(n_t, n_x) space-time coefficients, Nyquist lines zeroed."""
        c = np.fft.fft2(self.values) / (self.n_t * self.grid.n)
        c[self.n_t // 2, :] = 0.0
        c[:, self.grid.n // 2] = 0.0
        return c

    def tau(self) -> np.ndarray:
        return TWO_PI * np.fft.fftfreq(self.n_t, d=self.t_total / self.n_t)

    def conj(self) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self.t_total, np.conj(self.values), self.windowed)


def from_spacetime_coeffs(grid: Grid, t_total: float, coeffs, windowed: bool = False) -> SpaceTimeField:
    c = np.array(coeffs, dtype=np.complex128)
    n_t = c.shape[0]
    c[n_t // 2, :] = 0.0
    c[:, grid.n // 2] = 0.0
    values = (n_t * grid.n) * np.fft.ifft2(c)
    return SpaceTimeField(grid, t_total, values, windowed)


def window_weights(n_t: int, t_total: float) -> np.ndarray:
    """Time cutoff: identically 1 on the central half period, smooth decay
    to exactly 0 at the period boundaries."""
    t = np.arange(n_t) * (t_total / n_t)
    return lp_bump((t - 0.5 * t_total) / (0.25 * t_total))


def apply_window(stf: SpaceTimeField) -> SpaceTimeField:
    w = window_weights(stf.n_t, stf.t_total)
    return SpaceTimeField(stf.grid, stf.t_total, stf.values * w[:, None], windowed=True)


def parabola_distance(n_t: int, t_total: float, xi, parabola_sign: int = 1) -> np.ndarray:
    """(n_t, len(xi)) wrapped |tau - sign*xi^2|: the representative closest
    to zero modulo the period n_t * dtau of the tau axis.

    Elementwise in xi, so a subset of the frequencies gives bit-for-bit the
    same values as the matching columns of the full table."""
    tau = TWO_PI * np.fft.fftfreq(n_t, d=t_total / n_t)[:, None]
    period = n_t * (TWO_PI / t_total)
    m = tau - float(parabola_sign) * np.asarray(xi, dtype=np.float64)[None, :] ** 2
    return np.abs(m - period * np.round(m / period))


def st_l2_norm(stf: SpaceTimeField) -> float:
    c = stf.spectral()
    return math.sqrt(stf.t_total * stf.grid.length * float(np.sum(np.abs(c) ** 2)))


def xsb_norm(s: float, b: float, stf: SpaceTimeField, parabola_sign: int = 1) -> float:
    """Dispersive space-time norm with weight <xi>^2s (1+|tau -+ xi^2|)^2b.

    The parabola distance uses the wrapped representative closest to zero.
    For b > 0 the norm is only meaningful after a time cutoff; calling it
    on an unwindowed field raises.
    """
    if parabola_sign not in (1, -1):
        raise ValueError("parabola_sign must be +1 or -1")
    if b > 0 and not stf.windowed:
        raise ValueError("b > 0 requires a windowed field (apply_window first)")
    c = stf.spectral()
    dist = parabola_distance(stf.n_t, stf.t_total, stf.grid.frequencies, parabola_sign)
    w = (1.0 + stf.grid.frequencies[None, :] ** 2) ** s * (1.0 + dist) ** (2.0 * b)
    return math.sqrt(stf.t_total * stf.grid.length * float(np.sum(w * np.abs(c) ** 2)))


# ----------------------------------------------------------------------------
# synthetic box-localized fields
# ----------------------------------------------------------------------------

def synth_cells(grid: Grid, n_t: int, t_total: float, mask, seed) -> SpaceTimeField:
    """Unit-L2 field with independent complex Gaussians on the masked cells.

    mask is boolean (n_t, n_x) over (tau index, xi index); Nyquist lines are
    excluded regardless.  Deterministic in (seed)."""
    mask = np.asarray(mask, dtype=bool).copy()
    mask[n_t // 2, :] = False
    mask[:, grid.n // 2] = False
    count = int(mask.sum())
    if count == 0:
        raise ValueError("empty cell set for synthetic field")
    rng = np.random.default_rng(seed)
    draws = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / math.sqrt(2.0)
    c = np.zeros((n_t, grid.n), dtype=np.complex128)
    c[mask] = draws
    c /= math.sqrt(t_total * grid.length * float(np.sum(np.abs(c) ** 2)))
    return from_spacetime_coeffs(grid, t_total, c)


def box_mask(
    grid: Grid,
    n_t: int,
    t_total: float,
    freq_lo: float,
    freq_hi: float,
    mod_lo: float,
    mod_hi: float,
    parabola_sign: int = 1,
    xi_side: str = "both",
) -> np.ndarray:
    """Cells with |xi| in [freq_lo, freq_hi] (optionally one-sided) and
    wrapped |tau - sign*xi^2| in [mod_lo, mod_hi]."""
    xi = grid.frequencies[None, :]
    if xi_side == "both":
        fsel = (np.abs(xi) >= freq_lo) & (np.abs(xi) <= freq_hi)
    elif xi_side == "+":
        fsel = (xi >= freq_lo) & (xi <= freq_hi)
    elif xi_side == "-":
        fsel = (xi <= -freq_lo) & (xi >= -freq_hi)
    else:
        raise ValueError(f"xi_side must be 'both', '+' or '-', got {xi_side!r}")
    dist = parabola_distance(n_t, t_total, grid.frequencies, parabola_sign)
    return fsel & (dist >= mod_lo) & (dist <= mod_hi)


def synth_boxed(
    N: float,
    L: float,
    parabola_sign: int,
    seed,
    grid: Grid,
    n_t: int = 256,
    t_total: float = TWO_PI,
    xi_side: str = "both",
) -> SpaceTimeField:
    """Unit-norm random field on the dyadic box |xi| ~ N, |tau -+ xi^2| ~ L."""
    mask = box_mask(grid, n_t, t_total, N, 2.0 * N, L, 2.0 * L, parabola_sign, xi_side)
    return synth_cells(grid, n_t, t_total, mask, seed)


# ----------------------------------------------------------------------------
# slice-wise spatial operations (used by the rate experiments)
# ----------------------------------------------------------------------------

def st_spatial_multiplier(stf: SpaceTimeField, mult) -> SpaceTimeField:
    """Apply a spatial Fourier multiplier to every time slice."""
    mult = np.asarray(mult, dtype=np.float64).copy()
    mult[stf.grid.n // 2] = 0.0
    coeffs = np.fft.fft(stf.values, axis=1) / stf.grid.n
    coeffs *= mult[None, :]
    values = stf.grid.n * np.fft.ifft(coeffs, axis=1)
    return SpaceTimeField(stf.grid, stf.t_total, values, stf.windowed)


def st_product(u: SpaceTimeField, v: SpaceTimeField, conj_second: bool = False) -> SpaceTimeField:
    """Pointwise space-time product (second factor optionally conjugated).

    Exact for factors band-limited to the guard index; the windowed flag of
    the result is inherited (a product of cut-off factors is cut off)."""
    if u.grid != v.grid or u.n_t != v.n_t or u.t_total != v.t_total:
        raise ValueError("space-time grids do not match")
    vv = np.conj(v.values) if conj_second else v.values
    return SpaceTimeField(u.grid, u.t_total, u.values * vv, u.windowed and v.windowed)
