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
potential of order alpha onto each input slot (g_symbol).  It factorizes
through FFTs: weighted_product takes the pointwise product on a doubled
(2n-point) grid, which is not sized by band limits and stays the
independent oracle of every product.

normal_form_pair builds, once per (kind, alpha, beta), the two symbols of
each interaction kind.  T divides w by i times the time-frequency mismatch
of the interaction; G is w on T's admissible set.  With sign s_j = +1 for
a plain slot and -1 for a conjugated slot, a product of free waves at
effective frequencies (xi, eta) oscillates like exp(i(s1 xi^2 + s2 eta^2)t)
while the output frequency responds at (xi+eta)^2, so

    mismatch(xi, eta) = s1 xi^2 + s2 eta^2 - (xi + eta)^2.

Dividing by i*mismatch makes d/dt + i d^2/dx^2 of T applied to free waves
land exactly on G, which is what leibniz_residual checks.

For u2 and uubar the mismatch factors (-2 xi eta and -2 eta (xi+eta)), so
T is a multiplier on each slot times a multiplier on the output; G factors
so for every kind, ubar2's up to its one excluded (0, 0) cell.
kind_factors declares these factors once per (kind, alpha, beta, grid), with
the kind's slot conjugations, together with the whole smoothing weight that
the remainder forcing G(v, v) applies.  lift_coeffs and pair_g_coeffs
contract T and G through them as one factored_product each; only ubar2's T,
whose mismatch -(xi^2 + eta^2 + (xi+eta)^2) does not factor, goes through
the dense contraction.  The dense matrices stay as the reference that the
tests and criterion 8 compare the factored route against.

factored_product is the one weighted product of the lifts, the paired
weights and the remainder forcing (the RK4 stage of the flows folds its
weights and phases into tables of its own).  It runs on a
spectral.BandGrid, which sizes the transform from the band limits of the
inputs and of the kept output.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from ._kernels import bilinear_contract
from .spectral import BandGrid, Grid, SpectralField, bessel_potential, bracket, conj_coeffs, free_propagate, l2_norm


class BilinearSymbol:
    """A frequency-pair weight plus slot conjugation flags.

    Args:
        name: short identifier used in reports.
        fill: callable (XI, ETA) -> complex matrix of weights; cells
            outside the symbol's admissible set must be exactly zero (sharp
            cutoffs compare against HALF_SPACING).
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
            mat = np.asarray(self.fill(xi[:, None], xi[None, :]), dtype=np.complex128)
            ny = grid.nyquist_index
            mat[ny, :] = 0.0
            mat[:, ny] = 0.0
            mat.setflags(write=False)
            self._cache[key] = mat
        return mat

    def __repr__(self):
        flags = ("conj" if self.conj_first else "id", "conj" if self.conj_second else "id")
        return f"BilinearSymbol({self.name!r}, slots={flags})"


def apply_bilinear(sym: BilinearSymbol, u: SpectralField, v: SpectralField) -> SpectralField:
    """Evaluate the symbol contraction of two guard-band-limited fields;
    raises ValueError unless both share a grid and are guard-limited."""
    if u.grid != v.grid:
        raise ValueError("field grids do not match")
    guard = u.grid.guard_index
    for field in (u, v):
        # slots guard + 1 .. n - guard - 1 hold the indices beyond the guard
        if np.any(field.coeffs[guard + 1 : u.grid.n - guard] != 0.0):
            raise ValueError(f"bilinear input carries frequencies beyond the guard index {guard}")
    a = (u.conj() if sym.conj_first else u).coeffs
    c = (v.conj() if sym.conj_second else v).coeffs
    return SpectralField(u.grid, bilinear_contract(sym.matrix(u.grid), a, c))


# ----------------------------------------------------------------------------
# the smoothing weight and the normal-form family
# ----------------------------------------------------------------------------

def _weight(alpha, beta, XI, ETA):
    """The smoothing weight <xi>^alpha <eta>^alpha <xi+eta>^(beta-alpha)."""
    return bracket(XI, alpha) * bracket(ETA, alpha) * bracket(XI + ETA, beta - alpha)


def g_symbol(alpha: float, beta: float) -> BilinearSymbol:
    """The quadratic nonlinearity's weight, both slots plain, no cutoffs."""

    def fill(XI, ETA):
        return _weight(alpha, beta, XI, ETA).astype(np.complex128)

    return BilinearSymbol(f"g(a={alpha:g},b={beta:g})", fill)


# half the grid frequency spacing on the 2*pi torus: the sharp cutoffs of the
# symbols compare the grid frequencies, which are integers only up to
# rounding, against it
HALF_SPACING = 0.5

# (first slot conjugated, second slot conjugated) of each interaction kind
KIND_FLAGS = {"u2": (False, False), "uubar": (False, True), "ubar2": (True, True)}


def _admissible_mask(kind, XI, ETA):
    tol = HALF_SPACING
    if kind == "u2":
        return (XI > tol) & (ETA > tol)
    if kind == "uubar":
        return (XI > tol) & (np.abs(ETA) > tol) & (np.abs(XI + ETA) > tol)
    return XI * XI + XI * ETA + ETA * ETA > tol * tol  # ubar2


def _mismatch(kind, XI, ETA):
    s1 = -1.0 if KIND_FLAGS[kind][0] else 1.0
    s2 = -1.0 if KIND_FLAGS[kind][1] else 1.0
    return s1 * XI * XI + s2 * ETA * ETA - (XI + ETA) ** 2


@functools.lru_cache(maxsize=None)
def normal_form_pair(kind: str, alpha: float, beta: float) -> tuple:
    """(T, G) of one interaction kind, with the kind's slot conjugations: T
    is the smoothing weight divided by i * mismatch on the kind's admissible
    set, G the weight on that same set.

        u2:    T divides by -2i xi eta, supported on xi > 0, eta > 0;
        uubar: T divides by -2i eta (xi + eta) at the effective second
               frequency, supported on xi > 0, eta != 0, xi + eta != 0;
        ubar2: T divides by -2i (xi^2 + xi eta + eta^2), definite off the
               (0, 0) cell, the only cell excluded.

    Built once per (kind, alpha, beta), so every caller shares the symbols'
    cached matrices."""
    if kind not in KIND_FLAGS:
        raise ValueError(f"unknown interaction kind {kind!r}")

    def t_fill(XI, ETA):
        mask = _admissible_mask(kind, XI, ETA)
        safe = np.where(mask, _mismatch(kind, XI, ETA), 1.0)
        return np.where(mask, _weight(alpha, beta, XI, ETA) / (1j * safe), 0.0)

    def g_fill(XI, ETA):
        mask = _admissible_mask(kind, XI, ETA)
        return np.where(mask, _weight(alpha, beta, XI, ETA), 0.0).astype(np.complex128)

    tag = f"{kind}(a={alpha:g},b={beta:g})"
    flags = KIND_FLAGS[kind]
    return BilinearSymbol(f"t_{tag}", t_fill, *flags), BilinearSymbol(f"gpair_{tag}", g_fill, *flags)


# ----------------------------------------------------------------------------
# FFT products
# ----------------------------------------------------------------------------

def weighted_product(inner: float, outer: float, u: SpectralField, v: SpectralField) -> SpectralField:
    """<D>^outer [ (<D>^inner u) * (<D>^inner v) ], the pointwise product
    taken on a doubled grid and truncated to the original one (content
    beyond the representable band is dropped); with inner = outer = 0 it is
    the plain product.  A conjugated slot takes the conjugate field
    (u.conj()).

    With inner = alpha, outer = beta - alpha this is the smoothing weight:
    it must agree with apply_bilinear(g_symbol(alpha, beta), u, v) to
    rounding error on guard-limited fields.
    """
    if u.grid != v.grid:
        raise ValueError("field grids do not match")
    n = u.grid.n
    half = n // 2
    big = []
    for field in (u, v):
        c = bessel_potential(inner, field).coeffs
        padded = np.zeros(2 * n, dtype=np.complex128)
        padded[:half] = c[:half]
        padded[2 * n - half :] = c[half:]
        big.append(padded)
    w = (2 * n) * np.fft.ifft(big[0]) * (2 * n) * np.fft.ifft(big[1])
    d = np.fft.fft(w) / (2 * n)
    out = np.zeros(n, dtype=np.complex128)
    out[:half] = d[:half]
    out[half + 1 :] = d[2 * n - half + 1 :]
    return bessel_potential(outer, SpectralField(u.grid, out))


class KindFactors(NamedTuple):
    """One kind's slot conjugations (first, second) and the multipliers
    (m1, m2, m_out) of its symbols m1(xi) m2(eta) m_out(xi + eta) at the
    effective frequencies: T (None for ubar2, whose T stays dense), G
    (ubar2's less its (0, 0) cell) and the whole smoothing weight, the G of
    the remainder forcing."""

    conj: tuple
    lift: tuple | None
    pair: tuple
    weight: tuple


@functools.lru_cache(maxsize=None)
def kind_factors(kind: str, alpha: float, beta: float, grid: Grid) -> KindFactors:
    """The factors of the kind's T and G (normal_form_pair) and of the
    smoothing weight on grid; built once per (kind, alpha, beta, grid),
    read-only, one array where both slots share a multiplier:

        u2 T:     <xi>^a / xi 1{xi>0}  *  <eta>^a / eta 1{eta>0}
                  * <zeta>^(b-a) / (-2i)
        uubar T:  <xi>^a 1{xi>0}  *  <eta>^a / eta 1{eta!=0}
                  * <zeta>^(b-a) / zeta 1{zeta!=0} / (-2i)
        u2 G:     <xi>^a 1{xi>0}  *  <eta>^a 1{eta>0}  *  <zeta>^(b-a)
        uubar G:  <xi>^a 1{xi>0}  *  <eta>^a 1{eta!=0}
                  * <zeta>^(b-a) 1{zeta!=0}
        ubar2 G and every weight:  <xi>^a  *  <eta>^a  *  <zeta>^(b-a)

    with eta the effective second frequency and zeta = xi + eta."""
    if kind not in KIND_FLAGS:
        raise ValueError(f"unknown interaction kind {kind!r}")
    xi = grid.frequencies
    tol = HALF_SPACING
    nonzero = np.abs(xi) > tol
    safe_xi = np.where(nonzero, xi, 1.0)
    w_in = bracket(xi, alpha)
    w_out = bracket(xi, beta - alpha)
    lift_out = w_out / -2j
    over_xi = np.where(nonzero, w_in / safe_xi, 0.0)
    pos_in = np.where(xi > tol, w_in, 0.0)
    weight = (w_in, w_in, w_out)
    if kind == "u2":
        m = np.where(xi > tol, over_xi, 0.0)
        lift, pair = (m, m, lift_out), (pos_in, pos_in, w_out)
    elif kind == "uubar":
        lift = (pos_in, over_xi, np.where(nonzero, lift_out / safe_xi, 0.0))
        pair = (pos_in, np.where(nonzero, w_in, 0.0), np.where(nonzero, w_out, 0.0))
    else:
        lift, pair = None, weight
    for m in (lift or ()) + pair + weight:
        m.setflags(write=False)
    return KindFactors(KIND_FLAGS[kind], lift, pair, weight)


def factored_product(band: BandGrid, conj: tuple, factors: tuple, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The contraction of coefficient arrays u and v, (..., n) each, with the
    symbol m1(xi) m2(eta) m_out(xi + eta) of factors = (m1, m2, m_out) and
    the slot conjugations conj, as one FFT product on band, whose input band
    must hold their content; the output is kept on band's output band.  One
    array in both slots (v is u) with equal conjugations and one multiplier
    makes one weighted array, whose product is a square."""
    (first, second), (m1, m2, m_out) = conj, factors
    a = conj_coeffs(u) if first else u
    if v is u and second == first:
        c = a
    else:
        c = conj_coeffs(v) if second else v
    x = m1 * a
    y = x if c is a and m2 is m1 else m2 * c
    return m_out * band.product(x, y)


def _lift_band(grid: Grid) -> BandGrid:
    """The band grid of guard-limited inputs and the whole band out (n
    points: the sums reach |j| = n/2 only at the Nyquist slot, which the
    dense contraction drops too)."""
    return BandGrid(grid, grid.guard_index, grid.nyquist_index - 1)


def lift_coeffs(kind: str, alpha: float, beta: float, grid: Grid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The contraction of the kind's T (normal_form_pair(kind, alpha,
    beta)[0]) on stacks of coefficient arrays (..., n) of guard-limited
    fields, row by row and unchecked: the factored product of its
    kind_factors for u2 and uubar, the dense contraction for ubar2.  Passing
    one array for both fields (v is u) shares its slot arrays."""
    factors = kind_factors(kind, alpha, beta, grid)
    if factors.lift is None:
        a = conj_coeffs(u)
        mat = normal_form_pair(kind, alpha, beta)[0].matrix(grid)
        return bilinear_contract(mat, a, a if v is u else conj_coeffs(v))
    return factored_product(_lift_band(grid), factors.conj, factors.lift, u, v)


def pair_g_coeffs(kind: str, alpha: float, beta: float, grid: Grid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The contraction of the kind's G (normal_form_pair(kind, alpha,
    beta)[1]) on stacks of coefficient arrays (..., n) of guard-limited
    fields, row by row and unchecked: the factored product of its
    kind_factors, plus for ubar2 a correction at the single excluded (0, 0)
    cell.  Passing one array for both fields (v is u) shares its slot
    arrays."""
    factors = kind_factors(kind, alpha, beta, grid)
    out = factored_product(_lift_band(grid), factors.conj, factors.pair, u, v)
    if kind == "ubar2":
        # remove the single excluded (0,0) cell, where the weight is 1 and the
        # slots hold the conjugated zero modes.  Its product is formed from
        # real parts, each operation rounded on its own as in numpy's scalar
        # product; numpy's array product may fuse multiply-adds, and one
        # field and a stack of rows must agree bit for bit
        a0, c0 = np.conj(u[..., 0]), np.conj(v[..., 0])
        cell = np.empty_like(a0)
        cell.real = a0.real * c0.real - a0.imag * c0.imag
        cell.imag = a0.real * c0.imag + a0.imag * c0.real
        out[..., 0] -= cell
    return out


# ----------------------------------------------------------------------------
# the defining identity, measured discretely
# ----------------------------------------------------------------------------

def leibniz_residual(
    t_sym: BilinearSymbol,
    g_sym: BilinearSymbol,
    f: SpectralField,
    g: SpectralField,
    t: float,
    dt: float,
) -> float:
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
    return dn / rn if rn > 0 else (0.0 if dn == 0.0 else float("inf"))
