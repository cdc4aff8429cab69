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

direct_w_solve steps the remainder equation on the n-point grid, with the
integrating factor applied around its stage.  Its input v = F + h + w
reaches past the guard band (h does) and its output is kept on the guard
band, so its product G(v, v) runs on the band grid of full-band inputs and
a guard-band output (5n/4 points); rhs_groups keeps the whole band out
(3n/2 points, Orszag's 3/2 rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .bilinear import KIND_FLAGS, apply_lift, apply_pair_g_fast
from .spectral import (
    BandGrid,
    Grid,
    SpectralField,
    bessel_potential,
    bracket,
    free_propagate,
    l2_norm,
    sign_project,
)

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
    integration.  row is the index of the flow that tripped in a batch
    (0 for a single flow)."""

    def __init__(self, t, norm, initial_norm, row=0):
        if math.isfinite(norm):
            what = f"exceeds {BLOWUP_FACTOR:.0e} x initial {initial_norm:.3e}"
        else:
            what = "is not finite"
        super().__init__(f"blow-up guard tripped at t={t:.6g} in row {row}: L2 norm {norm:.3e} {what}")
        self.t = t
        self.norm = norm
        self.initial_norm = initial_norm
        self.row = row


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
    length: float = 2.0 * math.pi
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
        grid = Grid(self.n_points, self.length)
        phase = self.dt * grid.guard_frequency**2
        if phase > 10.0 + 1e-12:
            raise ValueError(
                f"dt={self.dt:g} does not resolve the guard frequency "
                f"(dt * guard_freq^2 = {phase:.3g} > 10)"
            )
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-8 * max(1.0, steps):
            raise ValueError(f"dt={self.dt:g} does not divide t_final={self.t_final:g}")

    @property
    def grid(self) -> Grid:
        return Grid(self.n_points, self.length)

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

    @property
    def final(self) -> SpectralField:
        return self.states[-1]


def _guard_mask(grid: Grid) -> np.ndarray:
    idx = np.arange(grid.n)
    mag = np.minimum(idx, grid.n - idx)
    return mag <= grid.guard_index


def _phases(frequencies: np.ndarray, dt: float):
    """(e_half, e_full) = exp(i xi^2 dt/2), exp(i xi^2 dt): the integrating
    factor over half a step and over a step."""
    L = 1j * frequencies**2
    return np.exp(L * (0.5 * dt)), np.exp(L * dt)


def _stage(configs):
    """The stage grid of the configured evolutions (the BandGrid of
    guard-limited inputs and output) and their RK4 stage on it,
    stage(x, t, k) -> coeffs, with row b of a (B, m) array evolving under
    configs[b].  The rows share the grid, dt and the kind.

    stage(x, t, k) is e_k^-1 N(e_k x), with N the nonlinear term and e_k the
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

    def stage(x, _t, k):
        # numpy.fft is looked up per call, so a patched transform is seen
        p = np.fft.ifft(x * pre[k])
        square(p)
        q = np.fft.fft(p)
        q *= post[k]
        return q

    return sg, stage


def _phased(frequencies: np.ndarray, dt: float, nonlin):
    """The RK4 stage of a nonlinear term nonlin(coeffs, t) -> coeffs, with
    the integrating factor applied around it as separate multiplies."""
    e_half, e_full = _phases(frequencies, dt)
    factors = (None, (e_half, np.conj(e_half)), (e_full, np.conj(e_full)))

    def stage(x, t, k):
        if k == 0:
            return nonlin(x, t)
        e, e_inv = factors[k]
        return e_inv * nonlin(e * x, t)

    return stage


def _integrate_core(layout, u0: np.ndarray, dt: float, n_steps: int, stage, t0: float, save_steps):
    """Integrating-factor RK4 (Lawson 1967) on raw coefficient arrays: u0 is
    one flow's 1-D array or a (B, m) array of B flows, one per row, laid out
    on layout (a Grid, or the flows' stage BandGrid: its frequencies and
    length).

    stage(x, t, k) -> coeffs is e_k^-1 N(e_k x, t) for the integrating
    factor e_k = exp(i xi^2 k dt/2) over k = 0, 1 or 2 half steps; it must
    return a new guard-limited array of the same shape, which the loop
    overwrites.  Stage times are computed from the step index, so stages 2
    and 3 get the same float, and stage 4 the float that stage 1 of the
    next step gets.  The blow-up guard takes every row's L2 norm after each
    step and raises for the first row that trips."""
    e_full = _phases(layout.frequencies, dt)[1]
    scale = math.sqrt(layout.length)
    u = u0.copy()
    refs = np.maximum(scale * _row_norms(u), 1e-300)
    saves = {}
    if 0 in save_steps:
        saves[0] = u.copy()
    for step in range(n_steps):
        t_mid = t0 + (step + 0.5) * dt
        t_end = t0 + (step + 1) * dt
        # acc collects g1 + 2 g2 + 2 g3 + g4, x holds each stage's input
        acc = stage(u, t0 + step * dt, 0)
        x = np.multiply(acc, 0.5 * dt)
        x += u
        g = stage(x, t_mid, 1)
        np.multiply(g, 0.5 * dt, out=x)
        x += u
        g *= 2.0
        acc += g
        g = stage(x, t_mid, 1)
        np.multiply(g, dt, out=x)
        x += u
        g *= 2.0
        acc += g
        acc += stage(x, t_end, 2)
        acc *= dt / 6.0
        u += acc
        u *= e_full
        norms = scale * _row_norms(u)
        tripped = ~(norms <= BLOWUP_FACTOR * refs)  # a NaN norm trips too
        if tripped.any():
            row = int(np.argmax(tripped))
            raise BlowUpError(t_end, float(norms[row]), float(refs[row]), row)
        if step + 1 in save_steps:
            saves[step + 1] = u.copy()
    return saves


def _row_norms(u: np.ndarray) -> np.ndarray:
    """The l2 norm of each row of a contiguous 1-D or (B, m) complex array,
    as a 1-D array."""
    pairs = u.view(np.float64)
    return np.atleast_1d(np.sqrt(np.einsum("...j,...j->...", pairs, pairs)))


def _save_schedule(n_steps: int, n_saves: int):
    idx = sorted({int(round(j * n_steps / (n_saves - 1))) for j in range(n_saves)})
    return idx


def _check_initial(grid: Grid, initial: SpectralField):
    if initial.grid != grid:
        raise ValueError("initial data grid does not match the configuration")
    if not np.all(np.isfinite(initial.coeffs)):
        raise ValueError("initial data is not finite")
    if np.any(initial.coeffs[~_guard_mask(grid)] != 0.0):
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
    saves = _integrate_core(sg, u0, first.dt, first.n_steps, stage, 0.0, set(save_steps))
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

def normal_form_h(f: SpectralField, t: float, alpha: float, beta: float, kind: str = "u2") -> SpectralField:
    """The transformed pair h(t) = T(F(t), F(t)) of the free wave F = e^{it
    d^2/dx^2-ish} f; solves the inhomogeneous linear flow forced by the
    frequency-restricted weight of the kind (apply_lift: factored for u2
    and uubar, dense for ubar2)."""
    big_f = free_propagate(t, f)
    return apply_lift(kind, alpha, beta, big_f, big_f)


@dataclass
class Decomposition:
    times: list
    free: list
    h: list
    w: list


def decompose(trajectory: Trajectory, f: SpectralField) -> Decomposition:
    """Split a v-form trajectory into free wave + normal form + remainder.

    At each save time, free = the propagated data, h = the normal-form pair
    of the free wave, w = state - free - h.  At t = 0 this forces
    w(0) = -h(0) since free(0) = f."""
    cfg = trajectory.config
    if cfg.variables != "v":
        raise ValueError("the decomposition applies to the v-form evolution")
    free_fields, h_fields, w_fields = [], [], []
    for t, state in zip(trajectory.times, trajectory.states):
        fr = free_propagate(t, f)
        hh = normal_form_h(f, t, cfg.alpha, cfg.beta, cfg.kind)
        w_fields.append(state - fr - hh)
        free_fields.append(fr)
        h_fields.append(hh)
    return Decomposition(list(trajectory.times), free_fields, h_fields, w_fields)


def rhs_groups(
    f: SpectralField,
    h_field: SpectralField,
    w_field: SpectralField,
    t: float,
    alpha: float,
    beta: float,
):
    """The eight pieces of the remainder equation's right side (plain-square
    kind, v-form weight).

    With F the free wave at time t, v = F + h + w, and split(x) denoting the
    positive-frequency part x_+ and its complement x_0 = x - x_+, the pieces
    are ordered as:

        1: G(( F + w )_0, v + v_+)       5: 2 G(F_+, w_+)
        2: G(h_0, (h + w) + (h + w)_+)   6: G(h_+, h_+)
        3: G(h_0, F + F_+)               7: 2 G(h_+, w_+)
        4: 2 G(F_+, h_+)                 8: G(w_+, w_+)

    Their sum telescopes to G(v, v) - G(F_+, F_+), the full remainder
    forcing.  v reaches past the guard band (h does), so each G runs on the
    band grid of full-band inputs and output (3n/2 points)."""
    grid = f.grid
    band = BandGrid(grid, grid.nyquist_index - 1, grid.nyquist_index - 1)
    w_in = bracket(grid.frequencies, alpha)
    w_out = bracket(grid.frequencies, beta - alpha)

    def g(a, b):
        return SpectralField(grid, band.product(a.coeffs * w_in, b.coeffs * w_in) * w_out)

    big_f = free_propagate(t, f)
    v = big_f + h_field + w_field

    def pos(x):
        return sign_project("+", x)

    def low(x):
        return x - pos(x)

    v_plus = pos(v)
    hw = h_field + w_field
    n1 = g(low(big_f + w_field), v + v_plus)
    n2 = g(low(h_field), hw + pos(hw))
    n3 = g(low(h_field), big_f + pos(big_f))
    n4 = 2.0 * g(pos(big_f), pos(h_field))
    n5 = 2.0 * g(pos(big_f), pos(w_field))
    n6 = g(pos(h_field), pos(h_field))
    n7 = 2.0 * g(pos(h_field), pos(w_field))
    n8 = g(pos(w_field), pos(w_field))
    return [n1, n2, n3, n4, n5, n6, n7, n8]


def direct_w_solve(config: EvolutionConfig, f: SpectralField) -> Trajectory:
    """Integrate the remainder equation directly from w(0) = -T(f, f).

    The remainder forcing is G(v, v) - G_pair(F, F) with v = F + h + w,
    valid for every interaction kind; for the plain-square kind, summing
    the eight groups gives the same field (the group-sum consistency
    check).  v reaches past the guard band and the forcing is kept on the
    guard band, so G(v, v) runs on the band grid of full-band inputs and a
    guard-band output (5n/4 points).  F + h and G_pair(F, F), masked to
    the guard band, depend on the stage time alone and are kept for the
    last two stage times, which covers the shared time of stages 2 and 3
    and the end of a step, where the next step starts."""
    if config.variables != "v":
        raise ValueError("the remainder equation lives in the v-form variables")
    grid = config.grid
    if f.grid != grid:
        raise ValueError("data grid does not match the configuration")
    alpha, beta = config.alpha, config.beta
    band = BandGrid(grid, grid.nyquist_index - 1, grid.guard_index)
    w_in = bracket(grid.frequencies, alpha)
    w_out = bracket(grid.frequencies, beta - alpha)
    gmask = _guard_mask(grid)
    by_time: dict = {}

    def forcing_terms(t):
        terms = by_time.get(t)
        if terms is None:
            big_f = free_propagate(t, f)
            lifted = (big_f + normal_form_h(f, t, alpha, beta, config.kind)).coeffs
            paired = np.where(gmask, apply_pair_g_fast(config.kind, alpha, beta, big_f, big_f).coeffs, 0.0)
            if len(by_time) == 2:
                del by_time[next(iter(by_time))]
            terms = by_time[t] = (lifted, paired)
        return terms

    def nonlin(coeffs, t):
        lifted, paired = forcing_terms(t)
        v = SpectralField(grid, lifted + coeffs)
        a, c = ((v.conj() if conj else v).coeffs * w_in for conj in KIND_FLAGS[config.kind])
        return band.product(a, c) * w_out - paired

    w0 = -1.0 * normal_form_h(f, 0.0, alpha, beta, config.kind)
    save_steps = _save_schedule(config.n_steps, config.n_saves)
    stage = _phased(grid.frequencies, config.dt, nonlin)
    saves = _integrate_core(grid, w0.coeffs, config.dt, config.n_steps, stage, 0.0, set(save_steps))
    times = [s * config.dt for s in save_steps]
    states = [SpectralField(grid, saves[s]) for s in save_steps]
    return Trajectory(config, times, states, [l2_norm(st) for st in states])


# ----------------------------------------------------------------------------
# stability experiments
# ----------------------------------------------------------------------------

@dataclass
class LipschitzReport:
    epsilons: list
    ratios: list
    # sup_t ||u(t) - e^{-it d^2} f||_{H^-1/2} / ||f||_{H^-1/2} of the base flow
    nonlinear_share: float = float("nan")
    # the base flow, then one perturbed flow per epsilon
    flows: list = dataclass_field(default_factory=list)

    @property
    def spread(self) -> float:
        finite = [r for r in self.ratios if r > 0]
        return max(finite) / min(finite) if finite else float("inf")


def lipschitz_experiment(f: SpectralField, g: SpectralField, eps_list, config: EvolutionConfig) -> LipschitzReport:
    """Difference-quotient stability of the solution map.

    For each eps, integrates data f and f + eps*g and records
    sup_t ||u_eps(t) - u(t)||_{H^-1/2} / (eps ||g||_{H^-1/2}); a roughly
    constant ratio across decades of eps is the numerical signature of the
    Lipschitz property.  The base flow and every perturbed flow run as one
    batch."""
    from .spacetime import sobolev_norm  # local import avoids a cycle

    g_norm = sobolev_norm(-0.5, g)
    if g_norm == 0:
        raise ValueError("perturbation direction has zero H^-1/2 norm")
    eps_list = [float(eps) for eps in eps_list]
    flows = integrate_batch(
        [config] * (1 + len(eps_list)), [f] + [f + eps * g for eps in eps_list]
    )
    base = flows[0]
    ratios = []
    for eps, pert in zip(eps_list, flows[1:]):
        worst = 0.0
        for su, sp in zip(base.states, pert.states):
            diff = sobolev_norm(-0.5, sp - su)
            worst = max(worst, diff / (eps * g_norm))
        ratios.append(worst)
    f_norm = sobolev_norm(-0.5, f)
    share = float("nan")
    if f_norm > 0:
        nonlinear = (sobolev_norm(-0.5, su - free_propagate(t, f)) for t, su in zip(base.times, base.states))
        share = max(nonlinear) / f_norm
    return LipschitzReport(eps_list, ratios, share, flows)


@dataclass
class SubstitutionReport:
    dts: list
    sup_diffs: list
    # z-form and u-form flow at each dt, in that order
    flows: list = dataclass_field(default_factory=list)


def substitution_check(z0: SpectralField, beta: float, config: EvolutionConfig) -> SubstitutionReport:
    """Compare the two equivalent routes to the rough evolution.

    Route one integrates the z-form equation and lifts each snapshot by
    <D>^beta; route two integrates the u-form equation from the lifted
    data.  The two flows at one dt run as one batch.  The report records
    sup_t ||u(t) - <D>^beta z(t)||_L2 at the configured dt and at dt/2."""
    sups, dts, flows = [], [], []
    for dt in (config.dt, 0.5 * config.dt):
        cfg_z, cfg_u = (
            EvolutionConfig(
                config.n_points, config.alpha, beta, dt, config.t_final,
                kind=config.kind, variables=variables, length=config.length, n_saves=config.n_saves,
            )
            for variables in ("z", "u")
        )
        traj_z, traj_u = integrate_batch([cfg_z, cfg_u], [z0, bessel_potential(beta, z0)])
        worst = 0.0
        for zu, uu in zip(traj_z.states, traj_u.states):
            worst = max(worst, l2_norm(uu - bessel_potential(beta, zu)))
        sups.append(worst)
        dts.append(dt)
        flows += [traj_z, traj_u]
    return SubstitutionReport(dts, sups, flows)
