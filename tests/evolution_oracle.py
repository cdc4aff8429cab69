"""The n-point stepping path of the flows, kept as an oracle for the
stage-grid integrator in qnls.evolution, and the per-stage-time remainder
solve, kept as an oracle for its tabulated forcing.

nonlinear_term is the guard-limited nonlinearity on the n-point grid
itself: one inverse FFT, the kind's pointwise (conjugate) square, one
forward FFT, truncation to the guard band.  rk4_loop is the
integrating-factor RK4 loop with the phases applied as separate multiplies
around each stage, and integrate_flow runs one flow through both.

per_time_direct_w_solve is evolution.direct_w_solve with F + h and
G_pair(F, F) computed for each new half step j, at time (j / 2) dt,
through the per-time functions (free_propagate, normal_form_h of one
time, pair_g_coeffs) and kept for the last two half steps.
"""

import numpy as np

from qnls import evolution
from qnls.bilinear import KIND_FLAGS, pair_g_coeffs
from qnls.spectral import BandGrid, SpectralField, bracket, free_propagate

_KIND_PRODUCT = {
    "u2": lambda p: p * p,
    "uubar": lambda p: p * np.conj(p),
    "ubar2": lambda p: np.conj(p * p),
}


def guard_mask(grid):
    idx = np.arange(grid.n)
    return np.minimum(idx, grid.n - idx) <= grid.guard_index


def nonlinear_term(config):
    """nonlin(coeffs, t) -> coeffs of the configured evolution on the n-point grid."""
    grid = config.grid
    inner, outer = config.exponents
    w_in = (1.0 + grid.frequencies**2) ** (0.5 * inner)
    w_out = np.where(guard_mask(grid), (1.0 + grid.frequencies**2) ** (0.5 * outer), 0.0)
    product = _KIND_PRODUCT[config.kind]

    def nonlin(coeffs, _t):
        p = np.fft.ifft(coeffs * w_in)
        return grid.n * w_out * np.fft.fft(product(p))

    return nonlin


def rk4_loop(grid, u0, dt, n_steps, nonlin, t0, save_steps):
    """The states at save_steps of integrating-factor RK4 from u0 at t0."""
    L = 1j * grid.frequencies**2
    e_full = np.exp(L * dt)
    e_half = np.exp(L * (0.5 * dt))
    e_half_i = np.conj(e_half)
    e_full_i = np.conj(e_full)
    saves = {}
    u = u0.copy()
    if 0 in save_steps:
        saves[0] = u.copy()
    for step in range(n_steps):
        t_mid = t0 + (step + 0.5) * dt
        t_end = t0 + (step + 1) * dt
        g1 = nonlin(u, t0 + step * dt)
        g2 = e_half_i * nonlin(e_half * (u + 0.5 * dt * g1), t_mid)
        g3 = e_half_i * nonlin(e_half * (u + 0.5 * dt * g2), t_mid)
        g4 = e_full_i * nonlin(e_full * (u + dt * g3), t_end)
        u = e_full * (u + (dt / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4))
        if step + 1 in save_steps:
            saves[step + 1] = u.copy()
    return saves


def save_schedule(n_steps, n_saves):
    return sorted({int(round(j * n_steps / (n_saves - 1))) for j in range(n_saves)})


def integrate_flow(config, initial):
    """The coefficient arrays the flow saves, in time order."""
    steps = save_schedule(config.n_steps, config.n_saves)
    saves = rk4_loop(config.grid, initial.coeffs, config.dt, config.n_steps, nonlinear_term(config), 0.0, set(steps))
    return [saves[s] for s in steps]


def lift_at(f, t, alpha, beta, kind):
    """The lift h(t) of f's free wave alone, a batch of one time, as a field."""
    return SpectralField(f.grid, evolution.normal_form_h(f, [t], alpha, beta, kind)[1][0])


def per_time_direct_w_solve(config, f):
    """The coefficient arrays direct_w_solve saves, in time order, with the
    forcing computed one stage time at a time."""
    grid = config.grid
    alpha, beta = config.alpha, config.beta
    band = BandGrid(grid, grid.nyquist_index - 1, grid.guard_index)
    w_in = bracket(grid.frequencies, alpha)
    w_out = bracket(grid.frequencies, beta - alpha)
    by_step = {}

    def forcing_terms(j):
        terms = by_step.get(j)
        if terms is None:
            t = 0.5 * j * config.dt
            big_f = free_propagate(t, f)
            lifted = (big_f + lift_at(f, t, alpha, beta, config.kind)).coeffs
            paired = SpectralField(grid, pair_g_coeffs(config.kind, alpha, beta, grid, big_f.coeffs, big_f.coeffs)).coeffs
            if len(by_step) == 2:
                del by_step[next(iter(by_step))]
            terms = by_step[j] = (lifted, paired)
        return terms

    def nonlin(coeffs, j):
        lifted, paired = forcing_terms(j)
        v = SpectralField(grid, lifted + coeffs)
        a, c = ((v.conj() if conj else v).coeffs * w_in for conj in KIND_FLAGS[config.kind])
        return band.product(a, c) * w_out - paired

    w0 = -1.0 * lift_at(f, 0.0, alpha, beta, config.kind)
    steps = evolution._save_schedule(config.n_steps, config.n_saves)
    stage = evolution._phased(grid.frequencies, config.dt, nonlin)
    saves = evolution._integrate_core(grid.frequencies, w0.coeffs, config.dt, config.n_steps, stage, set(steps))
    return [saves[s] for s in steps]
