"""Monte-Carlo lower bounds for trilinear hyperplane multiplier norms.

The object estimated is the best constant in

    | sum_{xi1+xi2+xi3 = 0, tau1+tau2+tau3 = 0}  m . u1 u2 u3 |
        <=  ||m||_M  ||u1||  ||u2||  ||u3||

where m is the indicator of a triple of dyadic boxes: slot j is constrained
to |xi_j| in [N_j, 2N_j] and |tau_j - eps_j xi_j^2| in [L_j, 2L_j], together
with a window |sum_j eps_j xi_j^2| in [H, 2H] on the resonance level.

Discrete model: a common xi lattice (spacing dxi) makes the frequency
constraint exact; each slot carries its own modulation lattice (spacing
dmu_j) covering both sign intervals, and the third modulation, fixed by the
hyperplane, is snapped to slot 3's lattice (a triple whose snapped value
falls outside the box is excluded).  Sums carry the product measure
(dxi dmu_1)(dxi dmu_2); norms carry dxi dmu_j per slot.

The estimator restricts m's exact trilinear norm to the discrete cells, so
it is a certified lower bound of the model norm; alternating maximization
over the three slot vectors (each step solves its slot exactly) makes it
monotone nondecreasing in the number of restarts.

build_model lists the admissible triples (c1, c2, c3) of flat cell indices
c = xi_index * n_mu + mu_index once, vectorised over all slot-1/slot-2 xi
pairs.  Every single-slot step of the maximizer is a partial contraction on
that list (one gather-multiply and one bincount, see _kernels), the triple
count is its length, and the sphere-sweep oracle for tiny instances reads
the same list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import Triples, trilinear_partial1, trilinear_partial2, trilinear_partial3


@dataclass(frozen=True)
class BoxSpec:
    """Dyadic box triple: curvature signs, frequency scales, modulation scales."""

    signs: tuple
    freqs: tuple
    mods: tuple

    def __post_init__(self):
        if len(self.signs) != 3 or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be three values +-1")
        if len(self.freqs) != 3 or any(n <= 0 for n in self.freqs):
            raise ValueError("freqs must be three positive scales")
        if len(self.mods) != 3 or any(l <= 0 for l in self.mods):
            raise ValueError("mods must be three positive scales")


@dataclass
class MnormModel:
    """Discretized instance: lattices, admissibility tables, measure factor."""

    box: BoxSpec
    H: float
    xi_grids: tuple  # three 1-D arrays
    mu_grids: tuple  # three 1-D arrays
    ix3: np.ndarray  # (nxi1, nxi2) slot-3 xi index or -1
    shift: np.ndarray  # (nxi1, nxi2) -sum eps_j xi_j^2 at cell centers
    dxi: float
    dmus: tuple
    lo3: float
    nneg3: int
    triples: Triples  # every admissible (c1, c2, c3), c = xi_index * n_mu + mu_index

    @property
    def empty(self) -> bool:
        return not np.any(self.ix3 >= 0)

    @property
    def cells(self) -> tuple:
        return self.triples.sizes

    @property
    def measure_factor(self) -> float:
        d1, d2, d3 = self.dmus
        return math.sqrt(self.dxi * d1 * d2 / d3)


def _signed_lattice(scale: float, step: float) -> np.ndarray:
    """Both sign intervals of [scale, 2*scale], sampled at the given step,
    negative side first, each side ordered by increasing magnitude."""
    npts = int(math.floor(scale / step + 1e-9)) + 1
    mags = scale + step * np.arange(npts)
    return np.concatenate([-mags, mags])


def _snap(vals, lo, step, nneg):
    """Index of each value on a signed lattice with nneg magnitudes
    lo, lo + step, ... per side (negative side first), or -1 where the value
    falls off the lattice."""
    av = np.abs(vals)
    sub = np.rint((av - lo) / step)
    valid = (sub >= 0) & (sub < nneg) & (np.abs(av - (lo + sub * step)) <= 0.5 * step + 1e-9)
    idx = np.where(vals < 0, sub, sub + nneg).astype(np.int64)
    return np.where(valid, idx, -1)


def build_model(box: BoxSpec, H: float, n_tau: int = 64, n_xi: int = 64) -> MnormModel:
    """Lay down lattices, admissibility tables and the admissible triples for
    one box triple."""
    if H <= 0:
        raise ValueError("H must be positive")
    p_xi = max(1, n_xi // 4)
    p_tau = max(1, n_tau // 4)
    dxi = max(box.freqs) / p_xi
    # frequency block endpoints must sit on the common lattice
    for n in box.freqs:
        if abs(n / dxi - round(n / dxi)) > 1e-9:
            raise ValueError(
                f"frequency scale {n} is not resolved by the common lattice (dxi={dxi})"
            )
    xi_grids = tuple(_signed_lattice(n, dxi) for n in box.freqs)
    dmus = tuple(l / p_tau for l in box.mods)
    mu_grids = tuple(_signed_lattice(l, d) for l, d in zip(box.mods, dmus))

    x1 = xi_grids[0][:, None]
    x2 = xi_grids[1][None, :]
    x3 = -(x1 + x2)
    # locate x3 on slot 3's lattice
    n3 = box.freqs[2]
    mag = np.abs(x3)
    sub = np.rint((mag - n3) / dxi)
    npts3 = int(math.floor(n3 / dxi + 1e-9)) + 1
    on_lattice = (sub >= 0) & (sub < npts3) & (np.abs(mag - (n3 + sub * dxi)) < 1e-9 * max(1.0, n3))
    idx3 = np.where(x3 < 0, sub, sub + npts3).astype(np.int64)
    e1, e2, e3 = box.signs
    level = e1 * x1**2 + e2 * x2**2 + e3 * x3**2
    window = (np.abs(level) >= H) & (np.abs(level) <= 2.0 * H)
    ok = on_lattice & window & (mag > 0)
    ix3 = np.where(ok, idx3, -1)
    shift = -level
    lo3 = float(box.mods[2])
    nneg3 = int(math.floor(box.mods[2] / dmus[2] + 1e-9)) + 1

    # admissible triples, ordered by (m1, m2, l1, l2): for every admissible xi
    # pair the slot-3 modulation shift - mu1 - mu2 must snap onto slot 3's lattice
    n_mu = tuple(len(m) for m in mu_grids)
    m1, m2 = np.nonzero(ix3 >= 0)
    musum = np.add.outer(mu_grids[0], mu_grids[1])
    l3 = _snap(shift[m1, m2][:, None, None] - musum, lo3, dmus[2], nneg3)
    pair, l1, l2 = np.nonzero(l3 >= 0)
    triples = Triples(
        (m1[pair] * n_mu[0] + l1, m2[pair] * n_mu[1] + l2, ix3[m1, m2][pair] * n_mu[2] + l3[pair, l1, l2]),
        tuple(len(x) * n for x, n in zip(xi_grids, n_mu)),
    )
    return MnormModel(
        box, float(H), xi_grids, mu_grids, ix3.astype(np.int64), shift.astype(np.float64),
        dxi, dmus, lo3, nneg3, triples,
    )


@dataclass
class MnormEstimate:
    value: float
    empty: bool
    cells: tuple
    n_triples: int
    iters: int
    raw: float
    best_restart: int = -1  # first restart reaching raw
    sweep_values: tuple = ()  # that restart's value after each sweep


def count_triples(model: MnormModel) -> int:
    return len(model.triples)


def _unit(rng, shape) -> np.ndarray:
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(v)


def alternating_max(
    model: MnormModel, iters: int = 8, seed: int = 0, sweeps: int = 10, history: list | None = None
) -> float:
    """Best trilinear value over unit slot vectors found by alternating
    exact single-slot maximization, maximized over seeded restarts.

    When a list is passed as history, each restart appends to it the list of
    its values after every sweep."""
    if model.empty:
        return 0.0
    tri = model.triples
    best = 0.0
    for restart in range(iters):
        rng = np.random.default_rng([int(seed), restart])
        u1 = _unit(rng, tri.sizes[0])
        u2 = _unit(rng, tri.sizes[1])
        values = []
        for _ in range(sweeps):
            p3 = trilinear_partial3(u1, u2, tri)
            nrm = np.linalg.norm(p3)
            if nrm == 0.0:
                values.append(0.0)
                break
            u3 = np.conj(p3) / nrm
            p1 = trilinear_partial1(u2, u3, tri)
            nrm = np.linalg.norm(p1)
            if nrm == 0.0:
                values.append(0.0)
                break
            u1 = np.conj(p1) / nrm
            p2 = trilinear_partial2(u1, u3, tri)
            nrm = np.linalg.norm(p2)
            if nrm == 0.0:
                values.append(0.0)
                break
            u2 = np.conj(p2) / nrm
            values.append(float(nrm))
        if history is not None:
            history.append(values)
        best = max(best, values[-1] if values else 0.0)
    return best


def multiplier_lower_bound(
    box: BoxSpec,
    H: float,
    n_tau: int = 64,
    n_xi: int = 64,
    iters: int = 8,
    seed: int = 0,
) -> MnormEstimate:
    """Certified lower bound for the multiplier norm of one box triple.

    An incompatible box triple (no admissible cells) yields value 0 with
    the empty flag set.  The value is monotone nondecreasing in iters for
    a fixed seed.  The estimate also names the first restart that reached
    the best value and that restart's value after each sweep.
    """
    model = build_model(box, H, n_tau, n_xi)
    if model.empty:
        return MnormEstimate(0.0, True, model.cells, 0, iters, 0.0)
    runs = []
    raw = alternating_max(model, iters=iters, seed=seed, history=runs)
    best = next((i for i, r in enumerate(runs) if r and r[-1] == raw), -1)
    return MnormEstimate(
        model.measure_factor * raw, False, model.cells, count_triples(model), iters, raw,
        best, tuple(runs[best]) if best >= 0 else (),
    )


# ----------------------------------------------------------------------------
# exhaustive oracle for tiny instances
# ----------------------------------------------------------------------------

def trilinear_sphere_max(t1, t2, t3, grid_points: int = 96) -> float:
    """Global maximum of |sum over triples of u1[a] u2[b] u3[c]| over unit
    vectors, for 0/1 triple weights where one slot touches at most two cells.

    The slot with the fewest active cells is swept over its full projective
    sphere -- amplitude angle theta and relative phase phi on a grid, then
    three local refinements around the best point -- while the other two
    slots are solved exactly by a singular value decomposition.  Because the
    value is 1-Lipschitz relative to its own maximum along the sphere, the
    grid resolution bounds the relative error (well under one percent here).

    Only the cells some triple touches (the active cells) enter the
    matrices: the others would add zero rows and columns, which leave the
    singular values unchanged.
    """
    ts = [np.asarray(t, np.int64) for t in (t1, t2, t3)]
    if ts[0].size == 0:
        return 0.0
    # per slot: the active cells, and each triple's position among them
    active, pos = zip(*(np.unique(t, return_inverse=True) for t in ts))
    j = int(np.argmin([a.size for a in active]))
    if active[j].size > 2:
        raise ValueError(
            "sphere-sweep oracle needs a slot with at most two active cells "
            f"(got {[a.size for a in active]})"
        )
    a, b = (i for i in range(3) if i != j)

    # per-active-cell slices of the tensor, as (slot_a x slot_b) matrices
    slices = []
    for cell in range(active[j].size):
        mat = np.zeros((active[a].size, active[b].size), dtype=np.complex128)
        sel = pos[j] == cell
        np.add.at(mat, (pos[a][sel], pos[b][sel]), 1.0)
        slices.append(mat)

    if len(slices) == 1:
        return float(np.linalg.svd(slices[0], compute_uv=False)[0])

    mat_a, mat_b = slices

    def sweep(th_lo, th_hi, ph_lo, ph_hi, n_th, n_ph):
        th = np.linspace(th_lo, th_hi, n_th)
        ph = np.linspace(ph_lo, ph_hi, n_ph)
        tt, pp = np.meshgrid(th, ph, indexing="ij")
        co = np.cos(tt).ravel()
        si = (np.sin(tt) * np.exp(1j * pp)).ravel()
        stack = co[:, None, None] * mat_a[None] + si[:, None, None] * mat_b[None]
        vals = np.linalg.svd(stack, compute_uv=False)[:, 0]
        k = int(np.argmax(vals))
        return float(vals[k]), float(tt.ravel()[k]), float(pp.ravel()[k])

    best, th0, ph0 = sweep(0.0, 0.5 * math.pi, 0.0, 2.0 * math.pi, grid_points, 2 * grid_points)
    d_th = 0.5 * math.pi / (grid_points - 1)
    d_ph = 2.0 * math.pi / (2 * grid_points - 1)
    for _ in range(3):
        val, th0, ph0 = sweep(th0 - d_th, th0 + d_th, ph0 - d_ph, ph0 + d_ph, 25, 25)
        best = max(best, val)
        d_th /= 12.0
        d_ph /= 12.0
    return best


def exhaustive_max(model: MnormModel, grid_points: int = 96) -> float:
    """Independent search oracle for tiny instances: full sphere sweep of the
    least-active slot with the other two slots solved exactly."""
    if model.empty:
        return 0.0
    if max(model.cells) > 400:
        raise ValueError("search oracle is restricted to tiny instances")
    return trilinear_sphere_max(*model.triples.cells, grid_points=grid_points)


def exhaustive_lower_bound(
    box: BoxSpec, H: float, n_tau: int, n_xi: int, grid_points: int = 96
) -> float:
    model = build_model(box, H, n_tau, n_xi)
    return model.measure_factor * exhaustive_max(model, grid_points)


# ----------------------------------------------------------------------------
# reference upper bounds (the quantities the sweep calibrates against)
# ----------------------------------------------------------------------------

def bound_ppm1(freqs, mods) -> float:
    return math.sqrt(min(mods) * min(freqs))


def bound_ppm2(freqs, mods) -> float:
    n1, n2, _n3 = freqs
    l1, l2, l3 = mods
    return math.sqrt(min(l1 * l3 / n2, l2 * l3 / n1))


def bound_ppm4(freqs, mods) -> float:
    ls = sorted(mods)
    return math.sqrt(ls[0]) * ls[1] ** 0.25
