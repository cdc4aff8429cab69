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


class BandGrid:
    """The transform grid of a product of band-limited coefficient arrays.

    The inputs are kept on |j| <= k_in and the output on |j| <= k_out.  The
    product reaches |j| <= 2 k_in, and a sum that wraps on m points lands
    m away from where it belongs, so the kept band is alias-free when
    m > 2 k_in + k_out (Orszag 1971): the 3K+1 rule for guard-limited inputs
    (k_in = k_out = n/4, m > 3n/4) and the 3/2 rule for full-band ones
    (k_in = k_out = n/2 - 1).  m is the smallest even 5-smooth size above
    that bound.  Signed index j of either band sits in slot j mod m.

    frequencies holds the grid frequency of each input-band slot (0 in the
    other slots) and mask the output band, so a Grid and a BandGrid both
    give the RK4 loop the frequencies and the length it needs.  One
    instance is built per (grid, k_in, k_out); its arrays are read-only.
    """

    _built: dict = {}

    def __new__(cls, grid: Grid, k_in: int, k_out: int):
        key = (grid, int(k_in), int(k_out))
        self = cls._built.get(key)
        if self is None:
            self = super().__new__(cls)
            self._build(*key)
            cls._built[key] = self
        return self

    def _build(self, grid: Grid, k_in: int, k_out: int):
        n = grid.n
        if not (0 <= k_in < n // 2 and 0 <= k_out <= min(2 * k_in, n // 2 - 1)):
            raise ValueError(f"bands k_in={k_in}, k_out={k_out} do not fit a product on n={n}")
        self.grid = grid
        self.length = grid.length
        self.m = m = fft_size(2 * k_in + k_out, 2 * n)
        # (slots, grid indices) of the runs 0..k and -k..-1 of each band
        self._in, self._out = (((slice(0, k + 1),) * 2, (slice(m - k, m), slice(n - k, n))) for k in (k_in, k_out))
        self.frequencies = self.embed(grid.frequencies).real.copy()
        self.mask = _moved(np.ones(n), self._out, m).real == 1.0
        self.frequencies.setflags(write=False)
        self.mask.setflags(write=False)

    def embed(self, coeffs: np.ndarray) -> np.ndarray:
        """The input band of coefficients (..., n) moved into the slots (..., m)."""
        return _moved(coeffs, self._in, self.m)

    def extract(self, coeffs: np.ndarray) -> np.ndarray:
        """The output band of the slots (..., m) moved back to the n-point
        grid (..., n)."""
        return _moved(coeffs, [run[::-1] for run in self._out], self.grid.n)

    def product(self, a: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The output band, on the n-point grid, of the product of the fields
        with n-point coefficient arrays a and c; content of a and c beyond
        the input band is not seen."""
        # numpy.fft is looked up per call, so a patched transform is seen
        p = np.fft.ifft(self.embed(a)) * np.fft.ifft(self.embed(c))
        return self.extract(self.m * np.fft.fft(p))


def _moved(coeffs: np.ndarray, runs, size: int) -> np.ndarray:
    """A zero array (..., size) with coeffs[..., src] copied to [..., dest]
    for each (dest, src) in runs."""
    out = np.zeros(coeffs.shape[:-1] + (size,), dtype=np.complex128)
    for dest, src in runs:
        out[..., dest] = coeffs[..., src]
    return out


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


def bracket(x, s: float) -> np.ndarray:
    """The Japanese bracket <x>^s = (1 + x^2)^(s/2)."""
    return (1.0 + np.asarray(x, dtype=np.float64) ** 2) ** (0.5 * s)


def bessel_potential(s: float, field: SpectralField) -> SpectralField:
    """Smoothing/roughening multiplier <xi>^s = (1 + xi^2)^(s/2)."""
    w = bracket(field.grid.frequencies, s)
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
