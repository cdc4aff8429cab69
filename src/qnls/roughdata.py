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
    on the support freq_lo <= |xi| <= freq_hi, only the phases are random.
    The zero mode is left empty.
    """

    sigma: float
    freq_hi: float
    freq_lo: float = 1.0
    amplitude: float = 1.0
    seed: int = 0


def gen_rough_data(spec: DataSpec, grid: Grid) -> SpectralField:
    """Draw the field described by ``spec`` on the grid.

    The support must fit inside the guard band (so the data is usable as
    bilinear/evolution input); deterministic in spec.seed."""
    if spec.freq_hi > grid.guard_frequency + 1e-12:
        raise ValueError(
            f"data support (|xi| <= {spec.freq_hi:g}) exceeds the guard frequency "
            f"{grid.guard_frequency:g}"
        )
    if spec.freq_lo <= 0 or spec.freq_hi < spec.freq_lo:
        raise ValueError("need 0 < freq_lo <= freq_hi")
    xi = grid.frequencies
    support = (np.abs(xi) >= spec.freq_lo) & (np.abs(xi) <= spec.freq_hi)
    rng = np.random.default_rng([int(spec.seed), 1315423911])
    phases = np.exp(2j * math.pi * rng.random(grid.n))
    moduli = np.where(support, (1.0 + xi**2) ** (-(spec.sigma + 0.5) / 2.0), 0.0)
    coeffs = spec.amplitude * moduli * phases
    coeffs[0] = 0.0
    return SpectralField(grid, coeffs)
