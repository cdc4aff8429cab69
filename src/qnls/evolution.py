"""Time integration and the normal-form decomposition pipeline.

The evolutions integrated here are quadratic Schrodinger flows

    u_t + i u_xx = <D>^outer [ (<D>^inner u') (<D>^inner u'') ]

where the primes mark the interaction kind (plain square, mixed conjugate,
double conjugate) and the exponent pair (inner, outer) encodes the working
variable:

    variables "u": (0, beta)           rough route
    variables "v": (alpha, beta-alpha) smoothed route
    variables "z": (beta, 0)           both derivatives on the inputs

The integrator is an integrating-factor Runge-Kutta 4 scheme (Lawson 1967):
the linear phase exp(i xi^2 t) is applied exactly and the classical RK4
tableau acts on the rotated nonlinearity, so a vanishing nonlinearity
reproduces the free propagator to rounding error and the local error is
O(dt^5).

States stay band-limited to the guard index n/4, so the flows are stepped
on the band grid of guard-limited inputs and output (spectral.BandGrid,
the 3K+1 rule: the smallest even 5-smooth m above 3n/4, 800, 400, 200
points at n = 1024, 512, 256; n itself at n = 16): each row's guard band
is moved into the m slots once at the start, and the saves are moved
back to the n-point grid.  A stage is one inverse m-point FFT, the kind's
pointwise (conjugate) square, one forward m-point FFT, and truncation to
the guard band; the weights <xi>^inner and <xi>^outer and the integrating
factor of the stage are folded into one table before and one after the
transforms.  The doubled-grid weighted_product and the n-point stepping
with separate phase multiplies (tests/evolution_oracle.py) are the tests'
oracles.

integrate_batch steps several flows as the rows of one (B, m) coefficient
array: each RK4 update broadcasts, and each stage is one inverse and one
forward FFT over all rows.  The rows must share grid, dt, t_final, kind
and save schedule; their variables (u, v, z), and so their exponents, may
differ.  numpy's FFT of a row of a stacked array is bit-identical to the
FFT of that row alone, so a batched flow saves the same states as the flow
run by itself through integrate, a batch of one.

The normal-form layer computes each of its pieces in one place.
normal_form_h is the one evaluator of the free wave F = e^{-it d^2} f and
its lift h = T(F, F): it takes several times at once and gives decompose
F and h at every save, and direct_w_solve a block of stage times, as one
lift product over all the rows.  remainder_forcing is the forcing
G(v, v) - G_pair(F, F) of the remainder equation, v = F + h + w, which
direct_w_solve steps on the n-point grid with the integrating factor
applied around its stage; criterion 8 checks that same function against
the doubled-grid oracle.  Its forcing terms F + h and G_pair(F, F) depend
on the stage time alone, so they are tabulated for a block of half steps
at once and each stage reads its row by its half-step index.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .bilinear import KIND_FLAGS, factored_product, kind_factors, lift_coeffs, pair_g_coeffs
from .spectral import TWO_PI, BandGrid, Grid, SpectralField, bracket, l2_norm

# the pointwise product of each kind, in place on physical samples p
_KIND_SQUARE = {
    "u2": lambda p: np.multiply(p, p, out=p),
    "uubar": lambda p: np.multiply(p, np.conj(p), out=p),
    "ubar2": lambda p: np.conjugate(np.multiply(p, p, out=p), out=p),
}
_VARIABLE_EXPONENTS = {
    "u": lambda a, b: (0.0, b),
    "v": lambda a, b: (a, b - a),
    "z": lambda a, b: (b, 0.0),
}

BLOWUP_FACTOR = 1.0e6


class BlowUpError(RuntimeError):
    """L2 mass exceeded the blow-up guard, or stopped being finite, during
    integration.  The message names the time, the row of the flow that
    tripped in a batch (0 for a single flow), its L2 norm and, for a finite
    norm, the initial norm it is measured against."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Parameters of one integration run.

    dt must resolve the nonlinear phase at the guard frequency:
    dt * guard_frequency^2 <= 10 (the linear phase is exact, so only the
    nonlinear return trips matter).
    """

    n_points: int
    alpha: float
    beta: float
    dt: float
    t_final: float
    kind: str = "u2"
    variables: str = "u"
    n_saves: int = 11

    def __post_init__(self):
        if self.kind not in KIND_FLAGS:
            raise ValueError(f"unknown interaction kind {self.kind!r}")
        if self.variables not in _VARIABLE_EXPONENTS:
            raise ValueError(f"variables must be 'u', 'v' or 'z', got {self.variables!r}")
        if not (self.dt > 0 and self.t_final > 0):
            raise ValueError("dt and t_final must be positive")
        if self.n_saves < 2:
            raise ValueError("n_saves must be at least 2")
        grid = Grid(self.n_points)
        phase = self.dt * grid.guard_frequency**2
        if phase > 10.0 + 1e-12:
            raise ValueError(
                f"dt={self.dt:g} does not resolve the guard frequency "
                f"(dt * guard_freq^2 = {phase:.3g} > 10)"
            )
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-8 * max(1.0, steps):
            raise ValueError(f"dt={self.dt:g} does not divide t_final={self.t_final:g}")
        if self.n_saves > self.n_steps + 1:
            raise ValueError(f"n_saves={self.n_saves} exceeds the {self.n_steps + 1} step times "
                             f"from 0 to t_final={self.t_final:g} at dt={self.dt:g}")

    @property
    def grid(self) -> Grid:
        return Grid(self.n_points)

    @property
    def exponents(self):
        return _VARIABLE_EXPONENTS[self.variables](self.alpha, self.beta)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class Trajectory:
    config: EvolutionConfig
    times: list
    states: list
    l2_history: list = dataclass_field(default_factory=list)
    # seconds and counts of the run's phases, where it reports any
    timing: dict = dataclass_field(default_factory=dict)

    @property
    def final(self) -> SpectralField:
        return self.states[-1]


def _phases(frequencies: np.ndarray, dt: float):
    """(e_half, e_full) = exp(i xi^2 dt/2), exp(i xi^2 dt): the integrating
    factor over half a step and over a step."""
    L = 1j * frequencies**2
    return np.exp(L * (0.5 * dt)), np.exp(L * dt)


def _stage(configs):
    """The stage grid of the configured evolutions (the BandGrid of
    guard-limited inputs and output) and their RK4 stage on it,
    stage(x, j, k) -> coeffs, with row b of a (B, m) array evolving under
    configs[b].  The rows share the grid, dt and the kind.

    stage(x, j, k) is e_k^-1 N(e_k x), with N the nonlinear term and e_k the
    integrating factor over k half steps (k = 0, 1, 2).  Each multiplier is
    folded into one table before the inverse and one after the forward
    transform: w_in e_k with w_in = <xi>^inner, and m w_out e_k^-1 with
    w_out = <xi>^outer on the guard band and zero beyond it.  A call is one
    inverse and one forward m-point FFT along the last axis and the kind's
    pointwise (conjugate) square in place; the input must be guard-limited
    for the product to be alias-free on the guard band."""
    guard = configs[0].grid.guard_index
    sg = BandGrid(configs[0].grid, guard, guard)
    w_in = np.stack([bracket(sg.frequencies, config.exponents[0]) for config in configs])
    w_out = np.stack([np.where(sg.mask, sg.m * bracket(sg.frequencies, config.exponents[1]), 0.0) for config in configs])
    e_half, e_full = _phases(sg.frequencies, configs[0].dt)
    pre = (w_in, e_half * w_in, e_full * w_in)
    post = (w_out, np.conj(e_half) * w_out, np.conj(e_full) * w_out)
    square = _KIND_SQUARE[configs[0].kind]

    def stage(x, _j, k):
        # numpy.fft is looked up per call, so a patched transform is seen
        p = np.fft.ifft(x * pre[k])
        square(p)
        q = np.fft.fft(p)
        q *= post[k]
        return q

    return sg, stage


def _phased(frequencies: np.ndarray, dt: float, nonlin):
    """The RK4 stage of a nonlinear term nonlin(coeffs, j) -> coeffs at half
    step j, with the integrating factor applied around it as separate
    multiplies."""
    e_half, e_full = _phases(frequencies, dt)
    factors = (None, (e_half, np.conj(e_half)), (e_full, np.conj(e_full)))

    def stage(x, j, k):
        if k == 0:
            return nonlin(x, j)
        e, e_inv = factors[k]
        return e_inv * nonlin(e * x, j)

    return stage


def _integrate_core(frequencies: np.ndarray, u0: np.ndarray, dt: float, n_steps: int, stage, save_steps):
    """Integrating-factor RK4 (Lawson 1967) on raw coefficient arrays: u0 is
    one flow's 1-D array or a (B, m) array of B flows, one per row, whose
    slots hold the frequencies (a Grid's, or the flows' stage BandGrid's);
    a row's L2 norm is sqrt(2 pi) times its l2 norm.

    stage(x, j, k) -> coeffs is e_k^-1 N(e_k x, j dt/2) for the integrating
    factor e_k = exp(i xi^2 k dt/2) over k = 0, 1 or 2 half steps; it must
    return a new guard-limited array of the same shape, which the loop
    overwrites.  The four stages of step s get the half-step indices
    j = 2s, 2s + 1, 2s + 1, 2s + 2, the time being j dt/2.  The blow-up
    guard takes every row's L2 norm after each step and raises for the
    first row that trips."""
    e_full = _phases(frequencies, dt)[1]
    scale = math.sqrt(TWO_PI)
    u = u0.copy()
    refs = np.maximum(scale * _row_norms(u), 1e-300)
    saves = {}
    if 0 in save_steps:
        saves[0] = u.copy()
    for step in range(n_steps):
        mid = 2 * step + 1
        # acc collects g1 + 2 g2 + 2 g3 + g4, x holds each stage's input
        acc = stage(u, mid - 1, 0)
        x = np.multiply(acc, 0.5 * dt)
        x += u
        g = stage(x, mid, 1)
        np.multiply(g, 0.5 * dt, out=x)
        x += u
        g *= 2.0
        acc += g
        g = stage(x, mid, 1)
        np.multiply(g, dt, out=x)
        x += u
        g *= 2.0
        acc += g
        acc += stage(x, mid + 1, 2)
        acc *= dt / 6.0
        u += acc
        u *= e_full
        norms = scale * _row_norms(u)
        tripped = ~(norms <= BLOWUP_FACTOR * refs)  # a NaN norm trips too
        if tripped.any():
            row = int(np.argmax(tripped))
            norm, ref = float(norms[row]), float(refs[row])
            what = f"exceeds {BLOWUP_FACTOR:.0e} x initial {ref:.3e}" if math.isfinite(norm) else "is not finite"
            t = (step + 1) * dt
            raise BlowUpError(f"blow-up guard tripped at t={t:.6g} in row {row}: L2 norm {norm:.3e} {what}")
        if step + 1 in save_steps:
            saves[step + 1] = u.copy()
    return saves


def _row_norms(u: np.ndarray) -> np.ndarray:
    """The l2 norm of each row of a contiguous 1-D or (B, m) complex array,
    as a 1-D array."""
    pairs = u.view(np.float64)
    return np.atleast_1d(np.sqrt(np.einsum("...j,...j->...", pairs, pairs)))


def _save_schedule(n_steps: int, n_saves: int):
    """The n_saves steps nearest to even spacing from 0 to n_steps: distinct
    and increasing, as EvolutionConfig keeps n_saves <= n_steps + 1."""
    return [int(round(j * n_steps / (n_saves - 1))) for j in range(n_saves)]


def _check_initial(grid: Grid, initial: SpectralField):
    if initial.grid != grid:
        raise ValueError("initial data grid does not match the configuration")
    if not np.all(np.isfinite(initial.coeffs)):
        raise ValueError("initial data is not finite")
    # slots guard_index + 1 .. n - guard_index - 1 hold the indices beyond the guard
    if np.any(initial.coeffs[grid.guard_index + 1 : grid.n - grid.guard_index] != 0.0):
        raise ValueError("initial data carries frequencies beyond the guard index")


def integrate_batch(configs, initials) -> list:
    """Run configs[b] from initials[b] for every b as one batch and return
    the trajectories in that order.

    The configs must share grid, dt, t_final, kind and n_saves; their
    variables (and alpha, beta) may differ.  Each trajectory is the one
    integrate gives for its flow alone.  Raises BlowUpError (with the
    row that tripped) if an L2 norm grows by the guard factor or stops
    being finite, and ValueError for mismatched configs or initial data
    that is not finite or not guard-band-limited."""
    configs, initials = list(configs), list(initials)
    if not configs or len(configs) != len(initials):
        raise ValueError("need one initial datum per config, and at least one flow")
    first = configs[0]
    shared = (first.grid, first.dt, first.t_final, first.kind, first.n_saves)
    for config in configs[1:]:
        if (config.grid, config.dt, config.t_final, config.kind, config.n_saves) != shared:
            raise ValueError("batched flows must share grid, dt, t_final, kind and n_saves")
    grid = first.grid
    for initial in initials:
        _check_initial(grid, initial)

    sg, stage = _stage(configs)
    u0 = sg.embed(np.stack([f.coeffs for f in initials]))
    save_steps = _save_schedule(first.n_steps, first.n_saves)
    saves = _integrate_core(sg.frequencies, u0, first.dt, first.n_steps, stage, set(save_steps))
    saves = {s: sg.extract(saves[s]) for s in save_steps}
    times = [s * first.dt for s in save_steps]
    out = []
    for row, config in enumerate(configs):
        states = [SpectralField(grid, saves[s][row]) for s in save_steps]
        out.append(Trajectory(config, list(times), states, [l2_norm(st) for st in states]))
    return out


def integrate(config: EvolutionConfig, initial: SpectralField) -> Trajectory:
    """Run the configured evolution from the given initial data (a batch of
    one flow, on the 1-D coefficient array).

    Raises BlowUpError if the L2 norm grows by the guard factor or stops
    being finite, and ValueError if the initial data is not finite or not
    guard-band-limited."""
    return integrate_batch([config], [initial])[0]


# ----------------------------------------------------------------------------
# normal-form pipeline
# ----------------------------------------------------------------------------

def normal_form_h(f: SpectralField, times, alpha: float, beta: float, kind: str) -> tuple:
    """The free wave F(t) = e^{-it d^2} f and its lift h(t) = T(F(t), F(t))
    at each of the times, as the rows of two (len(times), n) arrays: the
    package's one evaluator of (F, h), one lift_coeffs over all the rows.
    Each row acts alone and keeps its operand order, so it does not depend
    on the other times.  Raises ValueError for f that is not finite or not
    guard-band-limited, and for an unknown kind."""
    _check_initial(f.grid, f)
    grid = f.grid
    big_f = np.exp(1j * grid.frequencies**2 * np.asarray(times, dtype=np.float64)[:, None])
    np.multiply(f.coeffs, big_f, out=big_f)
    return big_f, lift_coeffs(kind, alpha, beta, grid, big_f, big_f)


@dataclass
class Decomposition:
    times: list
    free: list
    h: list
    w: list


def decompose(trajectory: Trajectory, f: SpectralField) -> Decomposition:
    """Split a v-form trajectory into free wave + normal form + remainder.

    At each save time, free = the propagated data, h = the normal-form pair
    of the free wave, w = state - free - h; one normal_form_h over the
    save times gives every free and h.  At t = 0 this forces w(0) = -h(0)
    since free(0) = f.  Raises ValueError for data that is not on the
    trajectory's grid, not finite or not guard-band-limited."""
    cfg = trajectory.config
    if cfg.variables != "v":
        raise ValueError("the decomposition applies to the v-form evolution")
    _check_initial(cfg.grid, f)
    rows = normal_form_h(f, trajectory.times, cfg.alpha, cfg.beta, cfg.kind)
    free_fields, h_fields = ([SpectralField(f.grid, row) for row in table] for table in rows)
    w_fields = [state - fr - hh for state, fr, hh in zip(trajectory.states, free_fields, h_fields)]
    return Decomposition(list(trajectory.times), free_fields, h_fields, w_fields)


def remainder_forcing(
    kind: str, alpha: float, beta: float, grid: Grid, v: np.ndarray, paired: np.ndarray
) -> np.ndarray:
    """The remainder equation's forcing G(v, v) - G_pair(F, F) on coefficient
    arrays (..., n), v = F + h + w and paired = G_pair(F, F): G(v, v) weighs
    both slots by <xi>^alpha and the output by <xi>^(beta - alpha), with the
    kind's conjugations (kind_factors' weight).  v reaches past the guard
    band (h does) and G(v, v) is kept on it, as in the flow of v: the band
    grid of full-band inputs and a guard-band output (5n/4 points).  paired
    is kept on the whole grid: beyond the guard band, where v and F vanish,
    w = -h follows it."""
    band = BandGrid(grid, grid.nyquist_index - 1, grid.guard_index)
    factors = kind_factors(kind, alpha, beta, grid)
    return factored_product(band, factors.conj, factors.weight, v, v) - paired


# half steps per table of direct_w_solve's forcing
FORCING_BLOCK = 32


def direct_w_solve(config: EvolutionConfig, f: SpectralField) -> Trajectory:
    """Integrate the remainder equation directly from w(0) = -T(f, f), its
    stage forced by remainder_forcing.

    F + h and G_pair(F, F) depend on the stage time alone.  Table b holds
    them at half steps b FORCING_BLOCK ... (b + 1) FORCING_BLOCK - 1 (from
    one normal_form_h and one batched pair product), and the stage at half
    step j reads row j % FORCING_BLOCK of table j // FORCING_BLOCK; one
    table is held at once.  w(0) is minus the t = 0 row of table 0's h.
    The trajectory's timing holds forcing_s, the seconds spent building
    tables, and forcing_blocks, their number.

    Raises ValueError for data that is not on the configured grid, not
    finite or not guard-band-limited, before any table is built."""
    if config.variables != "v":
        raise ValueError("the remainder equation lives in the v-form variables")
    grid = config.grid
    _check_initial(grid, f)
    alpha, beta, kind, dt = config.alpha, config.beta, config.kind, config.dt
    n_half_steps = 2 * config.n_steps + 1
    timing = {"forcing_s": 0.0, "forcing_blocks": 0}

    @functools.lru_cache(maxsize=1)
    def table(b):
        """(h, F + h, G_pair(F, F)) at the half steps of table b."""
        start = time.perf_counter()
        # half step j is at time (j / 2) dt
        j = np.arange(b * FORCING_BLOCK, min((b + 1) * FORCING_BLOCK, n_half_steps))
        big_f, h = normal_form_h(f, 0.5 * j * dt, alpha, beta, kind)
        paired = pair_g_coeffs(kind, alpha, beta, grid, big_f, big_f)
        paired[:, grid.nyquist_index] = 0.0
        rows = (h, h + big_f, paired)
        timing["forcing_s"] += time.perf_counter() - start
        timing["forcing_blocks"] += 1
        return rows

    def nonlin(coeffs, j):
        _, lifted, paired = table(j // FORCING_BLOCK)
        r = j % FORCING_BLOCK
        return remainder_forcing(kind, alpha, beta, grid, lifted[r] + coeffs, paired[r])

    w0 = -1.0 * SpectralField(grid, table(0)[0][0])
    save_steps = _save_schedule(config.n_steps, config.n_saves)
    stage = _phased(grid.frequencies, dt, nonlin)
    saves = _integrate_core(grid.frequencies, w0.coeffs, dt, config.n_steps, stage, set(save_steps))
    times = [s * dt for s in save_steps]
    states = [SpectralField(grid, saves[s]) for s in save_steps]
    return Trajectory(config, times, states, [l2_norm(st) for st in states], timing)

