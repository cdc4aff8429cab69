"""Sobolev measurement, dyadic regularity fits, and discrete space-time norms.

Space-time fields live on an (n_t x n_x) grid on the 2*pi torus in x with
a 2*pi time period, with expansions

    u(t, x) = sum_{tau, xi} C(tau, xi) exp(i(tau t + xi x)),

tau_p = p and xi the spatial grid frequencies (both computed as 2*pi *
fftfreq(n, 2*pi / n), so up to rounding).  The 2*pi time period puts tau on
the integer lattice, so integer-frequency free waves exp(i(xi x + xi^2 t))
are exactly periodic and sit on single cells.

The parabola weight uses the wrapped representative of tau - xi^2
closest to zero (the frequency axis is periodic with period n_t);
both Nyquist lines are zeroed, matching the spatial convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import TWO_PI, Grid, SpectralField, lp_annulus, lp_bump, max_band


# ----------------------------------------------------------------------------
# spatial measurement
# ----------------------------------------------------------------------------

def sobolev_norm(s: float, field: SpectralField) -> float:
    """H^s norm: 2*pi * sum <xi>^(2s) |uhat|^2 under the square root."""
    w = (1.0 + field.grid.frequencies**2) ** s
    return math.sqrt(TWO_PI * float(np.sum(w * np.abs(field.coeffs) ** 2)))


def dyadic_profile(field: SpectralField):
    """Band energies (k, ||P_k u||_L2) for k = 0 (low block) .. max band."""
    grid = field.grid
    xi = grid.frequencies
    power = np.abs(field.coeffs) ** 2
    ks = np.arange(0, max_band(grid) + 1)
    norms = np.empty(len(ks))
    norms[0] = math.sqrt(TWO_PI * float(np.sum(lp_bump(xi) ** 2 * power)))
    for k in ks[1:]:
        sym = lp_annulus(xi / float(2**k))
        norms[k] = math.sqrt(TWO_PI * float(np.sum(sym**2 * power)))
    return ks, norms


@dataclass
class RegularityFit:
    sigma: float
    stderr: float


def fit_line(xs, ys) -> tuple[float, float]:
    """Least-squares slope of ys against xs and its standard error."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    xbar = xs.mean()
    ybar = ys.mean()
    sxx = float(np.sum((xs - xbar) ** 2))
    slope = float(np.sum((xs - xbar) * (ys - ybar)) / sxx)
    resid = ys - (ybar + slope * (xs - xbar))
    dof = max(xs.size - 2, 1)
    return slope, math.sqrt(float(np.sum(resid**2)) / dof / sxx)


def regularity_fit(ks, norms, k_lo: int, k_hi: int) -> RegularityFit:
    """Least-squares Sobolev index from a dyadic profile.

    Fits log2||P_k u|| against k on the window [k_lo, k_hi] (bands only,
    k >= 1) and returns sigma = -slope with its standard error.  Requires
    k_hi within the profile and at least four bands with nonvanishing mass
    in the window.
    """
    ks = np.asarray(ks)
    norms = np.asarray(norms, dtype=np.float64)
    lo, hi = int(k_lo), int(k_hi)
    if hi > ks[-1]:
        raise ValueError(f"regularity fit window ends at band {hi}, above the profile's top band {ks[-1]}")
    sel = (ks >= max(lo, 1)) & (ks <= hi) & (norms > 0)
    kk = ks[sel].astype(np.float64)
    if kk.size < 4:
        raise ValueError(f"regularity fit needs >= 4 usable bands in [{lo}, {hi}], got {kk.size}")
    slope, stderr = fit_line(kk, np.log2(norms[sel]))
    return RegularityFit(-slope, stderr)


def fitted_regularity(field: SpectralField, k_lo: int, k_hi: int) -> RegularityFit:
    ks, norms = dyadic_profile(field)
    return regularity_fit(ks, norms, k_lo, k_hi)


# ----------------------------------------------------------------------------
# space-time fields
# ----------------------------------------------------------------------------

class SpaceTimeField:
    """Dense space-time samples over one 2*pi time period.

    Attributes:
        grid: the spatial Grid.
        values: (n_t, n_x) complex collocation samples.
        windowed: whether a time cutoff has been applied (required before
            any norm with b > 0 is meaningful).
    """

    __slots__ = ("grid", "values", "windowed")

    def __init__(self, grid: Grid, values, windowed: bool = False):
        v = np.array(values, dtype=np.complex128)
        if v.ndim != 2 or v.shape[1] != grid.n:
            raise ValueError(f"values shape {v.shape} does not match grid n={grid.n}")
        v.setflags(write=False)
        self.grid = grid
        self.values = v
        self.windowed = bool(windowed)

    @property
    def n_t(self) -> int:
        return self.values.shape[0]

    def spectral(self) -> np.ndarray:
        """(n_t, n_x) space-time coefficients, Nyquist lines zeroed."""
        c = np.fft.fft2(self.values) / (self.n_t * self.grid.n)
        c[self.n_t // 2, :] = 0.0
        c[:, self.grid.n // 2] = 0.0
        return c

    def conj(self) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, np.conj(self.values), self.windowed)


def from_spacetime_coeffs(grid: Grid, coeffs) -> SpaceTimeField:
    c = np.array(coeffs, dtype=np.complex128)
    n_t = c.shape[0]
    c[n_t // 2, :] = 0.0
    c[:, grid.n // 2] = 0.0
    values = (n_t * grid.n) * np.fft.ifft2(c)
    return SpaceTimeField(grid, values)


def window_weights(n_t: int) -> np.ndarray:
    """Time cutoff: identically 1 on the central half period, smooth decay
    to exactly 0 at the period boundaries."""
    t = np.arange(n_t) * (TWO_PI / n_t)
    return lp_bump((t - 0.5 * TWO_PI) / (0.25 * TWO_PI))


def apply_window(stf: SpaceTimeField) -> SpaceTimeField:
    w = window_weights(stf.n_t)
    return SpaceTimeField(stf.grid, stf.values * w[:, None], windowed=True)


def parabola_distance(n_t: int, xi) -> np.ndarray:
    """(n_t, len(xi)) wrapped |tau - xi^2|: the representative closest to
    zero modulo the period n_t of the tau axis.

    Elementwise in xi, so a subset of the frequencies gives bit-for-bit the
    same values as the matching columns of the full table."""
    tau = TWO_PI * np.fft.fftfreq(n_t, d=TWO_PI / n_t)[:, None]
    period = float(n_t)
    m = tau - np.asarray(xi, dtype=np.float64)[None, :] ** 2
    return np.abs(m - period * np.round(m / period))


def st_l2_norm(stf: SpaceTimeField) -> float:
    c = stf.spectral()
    return math.sqrt(TWO_PI * TWO_PI * float(np.sum(np.abs(c) ** 2)))


def xsb_norm(s: float, b: float, stf: SpaceTimeField) -> float:
    """Dispersive space-time norm with weight <xi>^2s (1+|tau - xi^2|)^2b.

    The parabola distance uses the wrapped representative closest to zero.
    For b > 0 the norm is only meaningful after a time cutoff; calling it
    on an unwindowed field raises.
    """
    if b > 0 and not stf.windowed:
        raise ValueError("b > 0 requires a windowed field (apply_window first)")
    c = stf.spectral()
    dist = parabola_distance(stf.n_t, stf.grid.frequencies)
    w = (1.0 + stf.grid.frequencies[None, :] ** 2) ** s * (1.0 + dist) ** (2.0 * b)
    return math.sqrt(TWO_PI * TWO_PI * float(np.sum(w * np.abs(c) ** 2)))


# ----------------------------------------------------------------------------
# synthetic box-localized fields
# ----------------------------------------------------------------------------

def synth_cells(grid: Grid, n_t: int, mask, seed) -> SpaceTimeField:
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
    c /= math.sqrt(TWO_PI * TWO_PI * float(np.sum(np.abs(c) ** 2)))
    return from_spacetime_coeffs(grid, c)


def box_columns(
    grid: Grid,
    n_t: int,
    freq_lo: float,
    freq_hi: float,
    mod_lo: float,
    mod_hi: float,
    xi_side: str = "both",
) -> tuple:
    """(cols, mask, dist) of the box of box_mask on its frequency band: the
    grid's columns with |xi| in [freq_lo, freq_hi] (optionally one-sided)
    in FFT order, the (n_t, cols.size) cells of those columns with wrapped
    |tau - xi^2| in [mod_lo, mod_hi], and parabola_distance on those
    columns, which is computed for them only."""
    xi = grid.frequencies
    if xi_side == "both":
        fsel = (np.abs(xi) >= freq_lo) & (np.abs(xi) <= freq_hi)
    elif xi_side == "+":
        fsel = (xi >= freq_lo) & (xi <= freq_hi)
    elif xi_side == "-":
        fsel = (xi <= -freq_lo) & (xi >= -freq_hi)
    else:
        raise ValueError(f"xi_side must be 'both', '+' or '-', got {xi_side!r}")
    cols = np.flatnonzero(fsel)
    dist = parabola_distance(n_t, xi[cols])
    return cols, (dist >= mod_lo) & (dist <= mod_hi), dist


def box_mask(
    grid: Grid,
    n_t: int,
    freq_lo: float,
    freq_hi: float,
    mod_lo: float,
    mod_hi: float,
    xi_side: str = "both",
) -> np.ndarray:
    """Cells with |xi| in [freq_lo, freq_hi] (optionally one-sided) and
    wrapped |tau - xi^2| in [mod_lo, mod_hi]: the box of box_columns
    on the whole (n_t, n_x) grid."""
    cols, sub, _dist = box_columns(grid, n_t, freq_lo, freq_hi, mod_lo, mod_hi, xi_side)
    mask = np.zeros((n_t, grid.n), dtype=bool)
    mask[:, cols] = sub
    return mask


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
    return SpaceTimeField(stf.grid, values, stf.windowed)


def st_product(u: SpaceTimeField, v: SpaceTimeField) -> SpaceTimeField:
    """Pointwise space-time product; a conjugated factor is passed as
    v.conj().

    Exact for factors band-limited to the guard index; the windowed flag of
    the result is inherited (a product of cut-off factors is cut off)."""
    if u.grid != v.grid or u.n_t != v.n_t:
        raise ValueError("space-time grids do not match")
    return SpaceTimeField(u.grid, u.values * v.values, u.windowed and v.windowed)
