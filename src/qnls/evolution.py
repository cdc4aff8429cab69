"""Time integration and the normal-form decomposition pipeline.

The evolutions integrated here are quadratic Schrodinger flows

    u_t + i u_xx = <D>^outer [ (<D>^inner u') (<D>^inner u'') ]

where the primes mark the interaction kind (plain square, mixed conjugate,
double conjugate) and the exponent pair (inner, outer) encodes the working
variable:

    variables "u": (0, beta)           rough route
    variables "v": (alpha, beta-alpha) smoothed route
    variables "z": (beta, 0)           both derivatives on the inputs

The integrator is an integrating-factor Runge-Kutta 4 scheme: the linear
phase exp(i xi^2 t) is applied exactly and the classical RK4 tableau acts on
the rotated nonlinearity, so a vanishing nonlinearity reproduces the free
propagator to rounding error and the local error is O(dt^5).

States stay band-limited to the guard index n/4, so the product of two of
them lives in |j| <= n/2.  The n-point grid holds each of those frequencies
except that +n/2 and -n/2 share the Nyquist slot, so the only alias lands
at |j| = n/2, outside the guard band (the 2/3 rule; Orszag 1971).  The
nonlinear term is therefore evaluated on the n-point grid itself -- one
inverse FFT, the kind's pointwise (conjugate) square, one forward FFT --
and truncated back to the guard band, which is what the doubled-grid
weighted_product gives; that slower route stays as the tests' oracle.

integrate_batch steps several flows as the rows of one (B, n) coefficient
array: each RK4 update broadcasts, and each stage is one inverse and one
forward FFT over all rows.  The rows must share grid, dt, t_final, kind
and save schedule; their variables (u, v, z), and so their exponents, may
differ.  numpy's FFT of a row of a stacked array is bit-identical to the
FFT of that row alone, so a batched flow saves the same states as the flow
run by itself through integrate, which passes the 1-D array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .bilinear import apply_lift, apply_pair_g_fast, padded_weighted_product
from .spectral import (
    Grid,
    SpectralField,
    bessel_potential,
    free_propagate,
    l2_norm,
    sign_project,
)

_KIND_CONJ = {"u2": (False, False), "uubar": (False, True), "ubar2": (True, True)}
# the pointwise product of each kind on physical samples p
_KIND_PRODUCT = {
    "u2": lambda p: p * p,
    "uubar": lambda p: p * np.conj(p),
    "ubar2": lambda p: np.conj(p * p),
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
        if self.kind not in _KIND_CONJ:
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


def _stage(configs):
    """The nonlinear term of the configured evolutions as a function on raw
    coefficient arrays, nonlin(coeffs, t) -> coeffs, with row b of a (B, n)
    array evolving under configs[b]; a single config acts on a 1-D array.

    The multipliers are built once per row: w_in = <xi>^inner on the input,
    and w_out = <xi>^outer on the guard band, zero beyond it (the Nyquist
    slot included).  Each call is one inverse and one forward n-point FFT
    along the last axis; the input must be guard-limited for the product
    to be alias-free on the guard band.  The rows share the grid and the
    kind."""
    grid = configs[0].grid
    n = grid.n
    guard = _guard_mask(grid)
    w_in, w_out = [], []
    for config in configs:
        inner, outer = config.exponents
        w_in.append((1.0 + grid.frequencies**2) ** (0.5 * inner))
        w_out.append(np.where(guard, (1.0 + grid.frequencies**2) ** (0.5 * outer), 0.0))
    if len(configs) == 1:
        w_in, w_out = w_in[0], w_out[0]
    else:
        w_in, w_out = np.stack(w_in), np.stack(w_out)
    product = _KIND_PRODUCT[configs[0].kind]

    def nonlin(coeffs, _t):
        # numpy.fft is looked up per call, so a patched transform is seen
        p = np.fft.ifft(coeffs * w_in)
        return n * w_out * np.fft.fft(product(p))

    return nonlin


def rhs(config: EvolutionConfig, state: SpectralField) -> SpectralField:
    """Nonlinear term of the configured evolution (autonomous).

    The state must be band-limited to the guard index; the result is
    truncated back to the guard band.  This is the stage integrate runs."""
    grid = state.grid
    if grid != config.grid:
        raise ValueError("state grid does not match the configuration")
    if np.any(state.coeffs[~_guard_mask(grid)] != 0.0):
        raise ValueError("state carries frequencies beyond the guard index")
    return SpectralField(grid, _stage([config])(state.coeffs, 0.0))


def _integrate_core(grid: Grid, u0: np.ndarray, dt: float, n_steps: int, nonlin, t0: float, save_steps):
    """Integrating-factor RK4 on raw coefficient arrays: u0 is one flow's
    1-D array or a (B, n) array of B flows, one per row.

    nonlin(coeffs, t) -> coeffs must return guard-limited arrays of the
    same shape.  Stage times are computed from the step index, so stages 2
    and 3 get the same float, and stage 4 the float that stage 1 of the
    next step gets.  The blow-up guard checks each row's L2 norm after each
    step and raises for the first row that trips."""
    L = 1j * grid.frequencies**2
    e_full = np.exp(L * dt)
    e_half = np.exp(L * (0.5 * dt))
    e_half_i = np.conj(e_half)
    e_full_i = np.conj(e_full)

    scale = math.sqrt(grid.length)
    refs = [max(scale * float(np.linalg.norm(r)), 1e-300) for r in _rows(u0)]
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
        for row, (r, ref) in enumerate(zip(_rows(u), refs)):
            norm = scale * float(np.linalg.norm(r))
            if not math.isfinite(norm) or norm > BLOWUP_FACTOR * ref:
                raise BlowUpError(t_end, norm, ref, row)
        if step + 1 in save_steps:
            saves[step + 1] = u.copy()
    return saves


def _rows(u: np.ndarray):
    """The flows of a 1-D or (B, n) coefficient array, as 1-D arrays."""
    return (u,) if u.ndim == 1 else u


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

    u0 = initials[0].coeffs if len(initials) == 1 else np.stack([f.coeffs for f in initials])
    save_steps = _save_schedule(first.n_steps, first.n_saves)
    saves = _integrate_core(grid, u0, first.dt, first.n_steps, _stage(configs), 0.0, set(save_steps))
    times = [s * first.dt for s in save_steps]
    out = []
    for row, config in enumerate(configs):
        states = [SpectralField(grid, _rows(saves[s])[row]) for s in save_steps]
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
    forcing.  v reaches past the guard band (h does), so each G is the
    3n/2-padded product."""
    def g(a, b):
        return padded_weighted_product(alpha, beta - alpha, a, b)

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
    check).  v reaches past the guard band, so G(v, v) is the 3n/2-padded
    product.  F + h and G_pair(F, F) depend on the stage time alone and are
    kept for the last two stage times, which covers the shared time of
    stages 2 and 3 and the end of a step, where the next step starts."""
    if config.variables != "v":
        raise ValueError("the remainder equation lives in the v-form variables")
    grid = config.grid
    if f.grid != grid:
        raise ValueError("data grid does not match the configuration")
    alpha, beta = config.alpha, config.beta
    c1, c2 = _KIND_CONJ[config.kind]
    gmask = _guard_mask(grid)
    by_time: dict = {}

    def forcing_terms(t):
        terms = by_time.get(t)
        if terms is None:
            big_f = free_propagate(t, f)
            lifted = (big_f + normal_form_h(f, t, alpha, beta, config.kind)).coeffs
            paired = apply_pair_g_fast(config.kind, alpha, beta, big_f, big_f).coeffs
            if len(by_time) == 2:
                del by_time[next(iter(by_time))]
            terms = by_time[t] = (lifted, paired)
        return terms

    def nonlin(coeffs, t):
        lifted, paired = forcing_terms(t)
        v = SpectralField(grid, lifted + coeffs)
        full = padded_weighted_product(alpha, beta - alpha, v, v, conj_first=c1, conj_second=c2)
        return np.where(gmask, full.coeffs - paired, 0.0)

    w0 = -1.0 * normal_form_h(f, 0.0, alpha, beta, config.kind)
    save_steps = _save_schedule(config.n_steps, config.n_saves)
    saves = _integrate_core(grid, w0.coeffs, config.dt, config.n_steps, nonlin, 0.0, set(save_steps))
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
