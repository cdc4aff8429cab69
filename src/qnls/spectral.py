"""Periodic grids, discrete fields, and Fourier-side operators.

Conventions (used consistently everywhere in the package):

* fields are expansions u(x) = sum_xi uhat(xi) exp(i xi x) over the grid
  frequencies xi_j = 2*pi*j / length, stored in numpy FFT index order;
* to_physical multiplies the inverse FFT by n, to_spectral divides the
  forward FFT by n, so a unit single-mode coefficient gives exp(i xi x)
  with peak amplitude 1;
* the Nyquist coefficient (index n/2) is always zero: constructors drop it
  and every operator preserves that;
* ||u||_L2^2 = length * sum |uhat|^2.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


class Grid:
    """Uniform periodic spatial grid.

    Args:
        n_points: number of collocation points; a power of two, at least 16.
        length: period of the domain (default 2*pi, which makes the grid
            frequencies consecutive integers).
    """

    def __init__(self, n_points: int, length: float = TWO_PI):
        n = int(n_points)
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 16, got {n_points}")
        if not (length > 0):
            raise ValueError(f"length must be positive, got {length}")
        self.n = n
        self.length = float(length)
        self.x = np.arange(n) * (self.length / n)
        # xi_j = 2*pi*j/length in FFT index order (j = 0..n/2-1, -n/2..-1)
        self.frequencies = TWO_PI * np.fft.fftfreq(n, d=self.length / n)
        self.nyquist_index = n // 2
        # largest index magnitude admitted as input to a bilinear operation
        self.guard_index = n // 4
        self.guard_frequency = TWO_PI * self.guard_index / self.length
        self.x.setflags(write=False)
        self.frequencies.setflags(write=False)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.length == other.length
        )

    def __hash__(self):
        return hash((self.n, self.length))

    def __repr__(self):
        return f"Grid(n_points={self.n}, length={self.length!r})"


class SpectralField:
    """Immutable spatial field stored by Fourier coefficients.

    The coefficient array is copied on construction, the Nyquist slot is
    zeroed, and the copy is marked read-only.  All operators return new
    fields; none mutates its inputs.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: Grid, coeffs):
        c = np.array(coeffs, dtype=np.complex128)
        if c.shape != (grid.n,):
            raise ValueError(f"coefficient shape {c.shape} does not match grid n={grid.n}")
        c[grid.nyquist_index] = 0.0
        c.setflags(write=False)
        self.grid = grid
        self.coeffs = c

    # light arithmetic sugar used by the integrator and experiments
    def __add__(self, other):
        self._check(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.coeffs)

    def conj(self):
        """Complex conjugate field: coefficients conj(uhat(-xi))."""
        rev = np.conj(self.coeffs)[_reversal(self.grid.n)]
        return SpectralField(self.grid, rev)

    def _check(self, other):
        if not isinstance(other, SpectralField) or other.grid != self.grid:
            raise ValueError("field grids do not match")

    def __repr__(self):
        return f"SpectralField(n={self.grid.n}, l2={l2_norm(self):.6g})"


_REV_CACHE: dict = {}


def _reversal(n: int):
    """Index permutation sending coefficient at xi to the slot of -xi."""
    try:
        return _REV_CACHE[n]
    except KeyError:
        rev = (-np.arange(n)) % n
        rev.setflags(write=False)
        _REV_CACHE[n] = rev
        return rev


def fft_size(floor: int, cap: int) -> int:
    """The smallest even 5-smooth integer above floor, capped at cap, which
    must itself be 5-smooth (a power of two is): the size of a transform
    grid that needs only to exceed an alias-free bound."""
    m = floor + 1 + (floor + 1) % 2
    while m < cap and not _smooth(m):
        m += 2
    return min(m, cap)


def _smooth(m: int) -> bool:
    """True when m has no prime factor above 5."""
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def to_physical(field: SpectralField) -> np.ndarray:
    """Collocation samples u(x_j) of the field."""
    return field.grid.n * np.fft.ifft(field.coeffs)


def to_spectral(grid: Grid, samples) -> SpectralField:
    """Field whose coefficients interpolate the given collocation samples."""
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.shape != (grid.n,):
        raise ValueError(f"sample shape {samples.shape} does not match grid n={grid.n}")
    return SpectralField(grid, np.fft.fft(samples) / grid.n)


def l2_norm(field: SpectralField) -> float:
    """Spatial L2 norm, length * sum|uhat|^2 under the square root."""
    return math.sqrt(field.grid.length * float(np.sum(np.abs(field.coeffs) ** 2)))


def bessel_potential(s: float, field: SpectralField) -> SpectralField:
    """Smoothing/roughening multiplier (1 + xi^2)^(s/2)."""
    w = (1.0 + field.grid.frequencies**2) ** (0.5 * s)
    return SpectralField(field.grid, field.coeffs * w)


# ----------------------------------------------------------------------------
# Littlewood-Paley family
# ----------------------------------------------------------------------------

def lp_bump(x) -> np.ndarray:
    """The low-pass profile: 1 on |x|<=1, smooth decay on 1<|x|<2, 0 beyond.

    On the transition interval the value is exp(1 - 1/(1 - r^2)) with
    r = |x| - 1.
    """
    ax = np.abs(np.asarray(x, dtype=np.float64))
    scalar = ax.ndim == 0
    ax = np.atleast_1d(ax)
    out = np.zeros_like(ax)
    out[ax <= 1.0] = 1.0
    mid = (ax > 1.0) & (ax < 2.0)
    r = ax[mid] - 1.0
    with np.errstate(over="ignore", divide="ignore"):
        out[mid] = np.exp(1.0 - 1.0 / (1.0 - r * r))
    return out[0] if scalar else out


def lp_annulus(x) -> np.ndarray:
    """Difference profile lp_bump(x) - lp_bump(2x), supported on 1/2<=|x|<=2."""
    return lp_bump(x) - lp_bump(2.0 * np.asarray(x, dtype=np.float64))


def max_band(grid: Grid) -> int:
    """Largest k whose dyadic band is fully resolved on the grid.

    The band-k symbol is supported in |xi| < 2^(k+1); it fits when
    2^(k+1) <= largest grid frequency magnitude.
    """
    top = TWO_PI * grid.nyquist_index / grid.length
    return int(math.floor(math.log2(top))) - 1


def sign_project(sign: str, field: SpectralField) -> SpectralField:
    """Sharp frequency half-line projection.

    '+' keeps xi > 0, '-' keeps xi < 0; the zero mode belongs to neither.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    xi = field.grid.frequencies
    mask = xi > 0 if sign == "+" else xi < 0
    return SpectralField(field.grid, np.where(mask, field.coeffs, 0.0))


def free_propagate(t: float, field: SpectralField) -> SpectralField:
    """Exact free evolution: multiply each coefficient by exp(i xi^2 t)."""
    phase = np.exp(1j * field.grid.frequencies**2 * t)
    return SpectralField(field.grid, field.coeffs * phase)
