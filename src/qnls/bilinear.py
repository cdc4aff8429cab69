"""Bilinear Fourier-symbol operators and the normal-form symbol family.

An operator here is a frequency-side double sum

    out(zeta) = sum_{xi + eta = zeta} m(xi, eta) a(xi) c(eta)

where a and c are the slot coefficient arrays *after* conjugation handling:
a conjugated slot contributes c(eta) = conj(vhat(-eta)), so the symbol is
always sampled at the effective frequencies that add up to the output
frequency.  The dense contraction runs through the kernels in _kernels.

The smoothing weight

    w(xi, eta) = <xi>^alpha <eta>^alpha <xi+eta>^(beta-alpha)

is the symbol of the quadratic nonlinearity after moving one Bessel
potential of order alpha onto each input slot; it factorizes through FFTs
(weighted_product), which the dense path must reproduce exactly.

The normal-form symbols divide w by i times the time-frequency mismatch of
the interaction.  With sign s_j = +1 for a plain slot and -1 for a
conjugated slot, a product of free waves at effective frequencies (xi, eta)
oscillates like exp(i(s1 xi^2 + s2 eta^2)t) while the output frequency
responds at (xi+eta)^2, so

    mismatch(xi, eta) = s1 xi^2 + s2 eta^2 - (xi + eta)^2.

Dividing by i*mismatch makes d/dt + i d^2/dx^2 of the transformed pair land
exactly on the weighted product, which is what leibniz_residual checks.

For u2 and uubar the mismatch factors (-2 xi eta and -2 eta (xi+eta)), so
the lift is a multiplier on each slot times a multiplier on the output, and
apply_lift evaluates it as one FFT product on the n-point grid; only ubar2,
whose mismatch -(xi^2 + eta^2 + (xi+eta)^2) does not factor, goes through
the dense contraction.  The dense matrices stay as the reference that the
tests and criterion 8 compare the factored route against.

The factored products run on spectral.BandGrid, which sizes the transform
from the band limits of the inputs and of the kept output: guard-limited
slots (|j| <= n/4) and the whole band below the Nyquist index out give n
points.  The doubled grid of dealiased_product / weighted_product is not
sized that way; it stays the independent oracle of every product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import bilinear_contract
from .spectral import BandGrid, Grid, SpectralField, bessel_potential, bracket, free_propagate, l2_norm


class BilinearSymbol:
    """A frequency-pair weight plus slot conjugation flags.

    Args:
        name: short identifier used in reports.
        fill: callable (XI, ETA, tol) -> complex matrix of weights; cells
            outside the symbol's admissible set must be exactly zero.  tol
            is half the grid frequency spacing, for sharp-cutoff tests.
        conj_first / conj_second: whether the slot enters conjugated.
    """

    def __init__(self, name, fill, conj_first=False, conj_second=False):
        self.name = name
        self.fill = fill
        self.conj_first = bool(conj_first)
        self.conj_second = bool(conj_second)
        self._cache = {}

    def matrix(self, grid: Grid) -> np.ndarray:
        """Dense symbol matrix sampled at grid frequency pairs (cached)."""
        key = (grid.n, grid.length)
        mat = self._cache.get(key)
        if mat is None:
            xi = grid.frequencies
            tol = math.pi / grid.length  # half of the frequency spacing
            mat = np.asarray(self.fill(xi[:, None], xi[None, :], tol), dtype=np.complex128)
            ny = grid.nyquist_index
            mat[ny, :] = 0.0
            mat[:, ny] = 0.0
            mat.setflags(write=False)
            self._cache[key] = mat
        return mat

    def __repr__(self):
        flags = ("conj" if self.conj_first else "id", "conj" if self.conj_second else "id")
        return f"BilinearSymbol({self.name!r}, slots={flags})"


def _check_guarded(u: SpectralField, v: SpectralField):
    """Raise ValueError unless u and v share a grid and both are guard-limited."""
    if u.grid != v.grid:
        raise ValueError("field grids do not match")
    grid = u.grid
    for field in (u, v):
        # slots guard_index + 1 .. n - guard_index - 1 hold the indices beyond the guard
        if np.any(field.coeffs[grid.guard_index + 1 : grid.n - grid.guard_index] != 0.0):
            raise ValueError(
                f"bilinear input carries frequencies beyond the guard index {grid.guard_index}"
            )


def _slot_coeffs(field: SpectralField, conj: bool) -> np.ndarray:
    if conj:
        return field.conj().coeffs
    return field.coeffs


def apply_bilinear(sym: BilinearSymbol, u: SpectralField, v: SpectralField) -> SpectralField:
    """Evaluate the symbol contraction of two guard-band-limited fields."""
    _check_guarded(u, v)
    a = _slot_coeffs(u, sym.conj_first)
    c = _slot_coeffs(v, sym.conj_second)
    out = bilinear_contract(sym.matrix(u.grid), a, c)
    return SpectralField(u.grid, out)


# ----------------------------------------------------------------------------
# the smoothing weight and the normal-form family
# ----------------------------------------------------------------------------

def g_symbol(alpha: float, beta: float) -> BilinearSymbol:
    """The quadratic nonlinearity's weight, both slots plain, no cutoffs."""

    def fill(XI, ETA, tol):
        return (bracket(XI, alpha) * bracket(ETA, alpha) * bracket(XI + ETA, beta - alpha)).astype(
            np.complex128
        )

    return BilinearSymbol(f"g(a={alpha:g},b={beta:g})", fill)


# (first slot conjugated, second slot conjugated) of each interaction kind
KIND_FLAGS = {"u2": (False, False), "uubar": (False, True), "ubar2": (True, True)}


def _admissible_mask(kind, XI, ETA, tol):
    if kind == "u2":
        return (XI > tol) & (ETA > tol)
    if kind == "uubar":
        return (XI > tol) & (np.abs(ETA) > tol) & (np.abs(XI + ETA) > tol)
    if kind == "ubar2":
        return XI * XI + XI * ETA + ETA * ETA > tol * tol
    raise ValueError(f"unknown interaction kind {kind!r}")


def _mismatch(kind, XI, ETA):
    s1 = -1.0 if KIND_FLAGS[kind][0] else 1.0
    s2 = -1.0 if KIND_FLAGS[kind][1] else 1.0
    return s1 * XI * XI + s2 * ETA * ETA - (XI + ETA) ** 2


def _t_symbol(kind, alpha, beta):
    """The kind's normal-form symbol: the smoothing weight divided by
    i * mismatch on the admissible set.

        u2:    divides by -2i xi eta, supported on xi > 0, eta > 0;
        uubar: divides by -2i eta (xi + eta) at the effective second
               frequency, supported on xi > 0, eta != 0, xi + eta != 0;
        ubar2: see t_symbol_ubar2."""
    conj1, conj2 = KIND_FLAGS[kind]

    def fill(XI, ETA, tol):
        mask = _admissible_mask(kind, XI, ETA, tol)
        w = bracket(XI, alpha) * bracket(ETA, alpha) * bracket(XI + ETA, beta - alpha)
        mis = _mismatch(kind, XI, ETA)
        safe = np.where(mask, mis, 1.0)
        mat = np.where(mask, w / (1j * safe), 0.0)
        return mat

    return BilinearSymbol(f"t_{kind}(a={alpha:g},b={beta:g})", fill, conj1, conj2)


def t_symbol_ubar2(alpha: float, beta: float) -> BilinearSymbol:
    """Normal-form symbol for the doubly conjugated interaction.

    Division by -2i*(xi^2 + xi*eta + eta^2); only the (0,0) cell is
    excluded, the mismatch being definite elsewhere.
    """
    return _t_symbol("ubar2", alpha, beta)


def g_symbol_restricted(kind: str, alpha: float, beta: float) -> BilinearSymbol:
    """Smoothing weight carrying exactly the admissible set of the kind's
    normal-form symbol, with matching slot conjugations."""
    conj1, conj2 = KIND_FLAGS[kind]

    def fill(XI, ETA, tol):
        mask = _admissible_mask(kind, XI, ETA, tol)
        w = bracket(XI, alpha) * bracket(ETA, alpha) * bracket(XI + ETA, beta - alpha)
        return np.where(mask, w, 0.0).astype(np.complex128)

    return BilinearSymbol(f"gpair_{kind}(a={alpha:g},b={beta:g})", fill, conj1, conj2)


def normal_form_pair(kind: str, alpha: float, beta: float):
    """(T symbol, matching restricted weight) for one interaction kind."""
    if kind not in KIND_FLAGS:
        raise ValueError(f"unknown interaction kind {kind!r}")
    return _t_symbol(kind, alpha, beta), g_symbol_restricted(kind, alpha, beta)


# ----------------------------------------------------------------------------
# fast factorized products (FFT route)
# ----------------------------------------------------------------------------

def dealiased_product(u: SpectralField, v: SpectralField) -> SpectralField:
    """Pointwise product computed on a doubled grid; output truncated to the
    original grid (content beyond the representable band is dropped)."""
    if u.grid != v.grid:
        raise ValueError("field grids do not match")
    n = u.grid.n
    half = n // 2
    big_u = np.zeros(2 * n, dtype=np.complex128)
    big_v = np.zeros(2 * n, dtype=np.complex128)
    big_u[:half] = u.coeffs[:half]
    big_u[2 * n - half :] = u.coeffs[half:]
    big_v[:half] = v.coeffs[:half]
    big_v[2 * n - half :] = v.coeffs[half:]
    w = (2 * n) * np.fft.ifft(big_u) * (2 * n) * np.fft.ifft(big_v)
    d = np.fft.fft(w) / (2 * n)
    out = np.zeros(n, dtype=np.complex128)
    out[:half] = d[:half]
    out[half + 1 :] = d[2 * n - half + 1 :]
    return SpectralField(u.grid, out)


def weighted_product(
    inner: float,
    outer: float,
    u: SpectralField,
    v: SpectralField,
    conj_first: bool = False,
    conj_second: bool = False,
) -> SpectralField:
    """<D>^outer [ (<D>^inner u') * (<D>^inner v') ] with optional slot
    conjugations, via the dealiased FFT product.

    With inner = alpha, outer = beta - alpha this is the fast route for the
    smoothing weight: it must agree with apply_bilinear(g_symbol(alpha,
    beta), u, v) to rounding error on guard-limited fields.
    """
    a = u.conj() if conj_first else u
    b = v.conj() if conj_second else v
    prod = dealiased_product(bessel_potential(inner, a), bessel_potential(inner, b))
    return bessel_potential(outer, prod)


def _factored_product(grid: Grid, a, m1, c, m2, m_out) -> SpectralField:
    """The contraction with symbol m1(xi) m2(eta) m_out(xi + eta) of
    guard-limited slot arrays a and c, as one FFT product on the band grid
    of guard-limited inputs and the whole band out (n points: the sums
    reach |j| = n/2 only at the Nyquist slot, which the dense contraction
    drops too)."""
    band = BandGrid(grid, grid.guard_index, grid.nyquist_index - 1)
    return SpectralField(grid, m_out * band.product(m1 * a, m2 * c))


def apply_pair_g_fast(kind: str, alpha: float, beta: float, u: SpectralField, v: SpectralField) -> SpectralField:
    """FFT evaluation of g_symbol_restricted on guard-limited fields: the
    sharp cutoffs of each kind factor into per-slot and output cutoffs, plus
    for ubar2 a correction at the single excluded (0, 0) cell."""
    _check_guarded(u, v)
    grid = u.grid
    xi = grid.frequencies
    tol = math.pi / grid.length
    w_in = bracket(xi, alpha)
    w_out = bracket(xi, beta - alpha)
    pos = np.where(xi > tol, w_in, 0.0)
    if kind == "u2":
        return _factored_product(grid, u.coeffs, pos, v.coeffs, pos, w_out)
    if kind == "uubar":
        # effective-frequency cutoffs eta != 0 and xi + eta != 0
        nonzero = np.abs(xi) > tol
        return _factored_product(
            grid, u.coeffs, pos, v.conj().coeffs, np.where(nonzero, w_in, 0.0), np.where(nonzero, w_out, 0.0)
        )
    if kind == "ubar2":
        a, c = u.conj().coeffs, v.conj().coeffs
        out = _factored_product(grid, a, w_in, c, w_in, w_out).coeffs.copy()
        # remove the single excluded (0,0) cell: weight there is 1
        out[0] -= a[0] * c[0]
        return SpectralField(grid, out)
    raise ValueError(f"unknown interaction kind {kind!r}")


_LIFT_SYMBOLS: dict = {}


def apply_lift(kind: str, alpha: float, beta: float, u: SpectralField, v: SpectralField) -> SpectralField:
    """T(u, v) for the kind's normal-form symbol, on guard-limited fields.

    Equals apply_bilinear(normal_form_pair(kind, alpha, beta)[0], u, v) to
    rounding.  For u2 and uubar the symbol factors, and this is one n-point
    FFT product:

        u2:    <xi>^a / xi 1{xi>0}  *  <eta>^a / eta 1{eta>0}
               * <zeta>^(b-a) / (-2i)
        uubar: <xi>^a 1{xi>0}  *  <eta>^a / eta 1{eta!=0}  (eta effective)
               * <zeta>^(b-a) / zeta 1{zeta!=0} / (-2i)

    with zeta = xi + eta.  ubar2 goes through the dense contraction with the
    symbol built once per (alpha, beta)."""
    if kind == "ubar2":
        key = (float(alpha), float(beta))
        sym = _LIFT_SYMBOLS.get(key)
        if sym is None:
            sym = _LIFT_SYMBOLS[key] = t_symbol_ubar2(alpha, beta)
        return apply_bilinear(sym, u, v)
    if kind not in ("u2", "uubar"):
        raise ValueError(f"unknown interaction kind {kind!r}")
    _check_guarded(u, v)
    grid = u.grid
    xi = grid.frequencies
    tol = math.pi / grid.length
    w_in = bracket(xi, alpha)
    w_out = bracket(xi, beta - alpha) / -2j
    pos = xi > tol
    nonzero = np.abs(xi) > tol
    safe_xi = np.where(nonzero, xi, 1.0)
    over_xi = np.where(nonzero, w_in / safe_xi, 0.0)
    if kind == "u2":
        m1 = np.where(pos, over_xi, 0.0)
        return _factored_product(grid, u.coeffs, m1, v.coeffs, m1, w_out)
    return _factored_product(
        grid, u.coeffs, np.where(pos, w_in, 0.0), v.conj().coeffs, over_xi, np.where(nonzero, w_out / safe_xi, 0.0)
    )


# ----------------------------------------------------------------------------
# the defining identity, measured discretely
# ----------------------------------------------------------------------------

@dataclass
class ResonanceReport:
    """Outcome of one discrete check of the normal-form identity."""

    symbol: str
    t: float
    dt: float
    defect_norm: float
    rhs_norm: float
    residual: float


def leibniz_residual(
    t_sym: BilinearSymbol,
    g_sym: BilinearSymbol,
    f: SpectralField,
    g: SpectralField,
    t: float,
    dt: float,
) -> ResonanceReport:
    """Relative defect of (d/dt + i d^2/dx^2) T(U, V) = G(U, V) on free waves.

    U, V are the free evolutions of f, g; the time derivative is a central
    difference at step dt, the spatial operator is exact.  The residual is
    the L2 defect divided by the L2 norm of the right-hand side, so for an
    exact symbol pair it is pure O(dt^2) differencing error.
    """
    if f.grid != g.grid:
        raise ValueError("field grids do not match")
    grid = f.grid

    def transform(s):
        return apply_bilinear(t_sym, free_propagate(s, f), free_propagate(s, g))

    h_mid = transform(t)
    h_plus = transform(t + dt)
    h_minus = transform(t - dt)
    ddt = (h_plus.coeffs - h_minus.coeffs) / (2.0 * dt)
    lap = -1j * grid.frequencies**2 * h_mid.coeffs
    rhs = apply_bilinear(g_sym, free_propagate(t, f), free_propagate(t, g))
    defect = SpectralField(grid, ddt + lap - rhs.coeffs)
    dn = l2_norm(defect)
    rn = l2_norm(rhs)
    residual = dn / rn if rn > 0 else (0.0 if dn == 0.0 else float("inf"))
    return ResonanceReport(t_sym.name, t, dt, dn, rn, residual)
