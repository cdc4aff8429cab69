"""Random rough initial data with prescribed Sobolev borderline profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Grid, SpectralField


@dataclass(frozen=True)
class DataSpec:
    """Recipe for a random field at the edge of H^sigma.

    The moduli are deterministic, |uhat(xi)| = amplitude * <xi>^(-sigma-1/2)
    on the support 1 <= |xi| <= freq_hi, only the phases are random.
    The zero mode is left empty.
    """

    sigma: float
    freq_hi: float
    amplitude: float = 1.0
    seed: int = 0


def gen_rough_data(spec: DataSpec, grid: Grid) -> SpectralField:
    """Draw the field described by ``spec`` on the grid.

    The support must fit inside the guard band (so the data is usable as
    bilinear/evolution input), and the field must be nonzero with finite
    coefficients; deterministic in spec.seed."""
    if not 1.0 <= spec.freq_hi <= grid.guard_frequency + 1e-12:
        raise ValueError(
            f"data support 1 <= |xi| <= {spec.freq_hi:g} is empty or exceeds the guard frequency "
            f"{grid.guard_frequency:g}"
        )
    xi = grid.frequencies
    support = (np.abs(xi) >= 1.0) & (np.abs(xi) <= spec.freq_hi)
    rng = np.random.default_rng([int(spec.seed), 1315423911])
    phases = np.exp(2j * math.pi * rng.random(grid.n))
    # an overflow is caught below, as a non-finite coefficient
    with np.errstate(over="ignore", invalid="ignore"):
        moduli = np.where(support, (1.0 + xi**2) ** (-(spec.sigma + 0.5) / 2.0), 0.0)
        coeffs = spec.amplitude * moduli * phases
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"data with amplitude {spec.amplitude:g} and sigma {spec.sigma:g} overflows")
    if not np.any(coeffs):
        raise ValueError(f"data with amplitude {spec.amplitude:g} and sigma {spec.sigma:g} is all zero")
    coeffs[0] = 0.0  # +0 where the phase may leave -0: artifacts print the sign
    return SpectralField(grid, coeffs)
