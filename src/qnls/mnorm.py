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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    _snap3_numpy,
    trilinear_partial1,
    trilinear_partial2,
    trilinear_partial3,
)


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

    @property
    def empty(self) -> bool:
        return not np.any(self.ix3 >= 0)

    @property
    def cells(self) -> tuple:
        return tuple(len(x) * len(m) for x, m in zip(self.xi_grids, self.mu_grids))

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


def build_model(box: BoxSpec, H: float, n_tau: int = 64, n_xi: int = 64) -> MnormModel:
    """Lay down lattices and admissibility tables for one box triple."""
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
    return MnormModel(
        box,
        float(H),
        xi_grids,
        mu_grids,
        ix3.astype(np.int64),
        shift.astype(np.float64),
        dxi,
        dmus,
        float(box.mods[2]),
        int(math.floor(box.mods[2] / dmus[2] + 1e-9)) + 1,
    )


@dataclass
class MnormEstimate:
    value: float
    empty: bool
    cells: tuple
    n_triples: int
    iters: int
    raw: float


def count_triples(model: MnormModel) -> int:
    mu1, mu2 = model.mu_grids[0], model.mu_grids[1]
    musum = np.add.outer(mu1, mu2)
    total = 0
    for m1 in range(len(model.xi_grids[0])):
        for m2 in range(len(model.xi_grids[1])):
            if model.ix3[m1, m2] < 0:
                continue
            _idx, valid = _snap3_numpy(
                model.shift[m1, m2] - musum, model.lo3, model.dmus[2], model.nneg3
            )
            total += int(valid.sum())
    return total


def _unit(rng, shape) -> np.ndarray:
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(v)


def alternating_max(model: MnormModel, iters: int = 8, seed: int = 0, sweeps: int = 10) -> float:
    """Best trilinear value over unit slot vectors found by alternating
    exact single-slot maximization, maximized over seeded restarts."""
    if model.empty:
        return 0.0
    n1 = (len(model.xi_grids[0]), len(model.mu_grids[0]))
    n2 = (len(model.xi_grids[1]), len(model.mu_grids[1]))
    n3 = (len(model.xi_grids[2]), len(model.mu_grids[2]))
    args = (model.ix3, model.shift, model.mu_grids[0], model.mu_grids[1],
            model.lo3, model.dmus[2], model.nneg3, n3[1])
    best = 0.0
    for restart in range(iters):
        rng = np.random.default_rng([int(seed), restart])
        u1 = _unit(rng, n1)
        u2 = _unit(rng, n2)
        val = 0.0
        for _ in range(sweeps):
            p3 = trilinear_partial3(u1, u2, *args, n3[0])
            nrm = np.linalg.norm(p3)
            if nrm == 0.0:
                val = 0.0
                break
            u3 = np.conj(p3) / nrm
            p1 = trilinear_partial1(u2, u3, *args, n1[0])
            nrm = np.linalg.norm(p1)
            if nrm == 0.0:
                val = 0.0
                break
            u1 = np.conj(p1) / nrm
            p2 = trilinear_partial2(u1, u3, *args, n2[0])
            nrm = np.linalg.norm(p2)
            if nrm == 0.0:
                val = 0.0
                break
            u2 = np.conj(p2) / nrm
            val = float(nrm)
        best = max(best, val)
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
    a fixed seed.
    """
    model = build_model(box, H, n_tau, n_xi)
    if model.empty:
        return MnormEstimate(0.0, True, model.cells, 0, iters, 0.0)
    raw = alternating_max(model, iters=iters, seed=seed)
    return MnormEstimate(
        model.measure_factor * raw, False, model.cells, count_triples(model), iters, raw
    )


# ----------------------------------------------------------------------------
# exhaustive oracle for tiny instances
# ----------------------------------------------------------------------------

def _triple_lists(model: MnormModel):
    """Flattened admissible triples (c1, c2, c3) with cell index
    c = xi_index * n_mu + mu_index."""
    mu1, mu2 = model.mu_grids[0], model.mu_grids[1]
    nmu1, nmu2, nmu3 = (len(m) for m in model.mu_grids)
    musum = np.add.outer(mu1, mu2)
    l1_idx, l2_idx = np.meshgrid(np.arange(nmu1), np.arange(nmu2), indexing="ij")
    out1, out2, out3 = [], [], []
    for m1 in range(len(model.xi_grids[0])):
        for m2 in range(len(model.xi_grids[1])):
            i3 = model.ix3[m1, m2]
            if i3 < 0:
                continue
            idx, valid = _snap3_numpy(
                model.shift[m1, m2] - musum, model.lo3, model.dmus[2], model.nneg3
            )
            if not valid.any():
                continue
            out1.append(m1 * nmu1 + l1_idx[valid])
            out2.append(m2 * nmu2 + l2_idx[valid])
            out3.append(i3 * nmu3 + idx[valid])
    if not out1:
        return (np.zeros(0, np.int64),) * 3
    return (
        np.concatenate(out1).astype(np.int64),
        np.concatenate(out2).astype(np.int64),
        np.concatenate(out3).astype(np.int64),
    )


def trilinear_sphere_max(t1, t2, t3, cells, grid_points: int = 96) -> float:
    """Global maximum of |sum over triples of u1[a] u2[b] u3[c]| over unit
    vectors, for 0/1 triple weights where one slot touches at most two cells.

    The slot with the fewest active cells is swept over its full projective
    sphere -- amplitude angle theta and relative phase phi on a grid, then
    three local refinements around the best point -- while the other two
    slots are solved exactly by a singular value decomposition.  Because the
    value is 1-Lipschitz relative to its own maximum along the sphere, the
    grid resolution bounds the relative error (well under one percent here).
    """
    t1 = np.asarray(t1, np.int64)
    t2 = np.asarray(t2, np.int64)
    t3 = np.asarray(t3, np.int64)
    if t1.size == 0:
        return 0.0
    active = [np.unique(t) for t in (t1, t2, t3)]
    j = int(np.argmin([a.size for a in active]))
    if active[j].size > 2:
        raise ValueError(
            "sphere-sweep oracle needs a slot with at most two active cells "
            f"(got {[a.size for a in active]})"
        )
    tj = (t1, t2, t3)[j]
    ta, tb = (t for i, t in enumerate((t1, t2, t3)) if i != j)
    da, db = (c for i, c in enumerate(cells) if i != j)

    # per-active-cell slices of the tensor, as (slot_a x slot_b) matrices
    slices = []
    for cell in active[j]:
        a = np.zeros((da, db), dtype=np.complex128)
        sel = tj == cell
        np.add.at(a, (ta[sel], tb[sel]), 1.0)
        slices.append(a)

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
    t1, t2, t3 = _triple_lists(model)
    return trilinear_sphere_max(t1, t2, t3, model.cells, grid_points)


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


def bound_ppm3(freqs, mods) -> float:
    ls = sorted(mods)
    return math.sqrt(ls[0]) * math.sqrt(ls[1]) / math.sqrt(max(freqs))


def bound_ppm4(freqs, mods) -> float:
    ls = sorted(mods)
    return math.sqrt(ls[0]) * ls[1] ** 0.25
