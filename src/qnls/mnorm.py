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
pairs, as runs: for a fixed xi pair and slot-1 modulation, the slot-2
modulations that share a slot-3 cell are contiguous once put in increasing
order, because the slot-3 modulation shift - mu1 - mu2 is monotone in mu2.
On the default lattices a sweep box's 75k triples form 2.6k-6.6k runs.
Every single-slot step of the maximizer is a partial contraction over the
runs (one pass, with slot 2's sum over a run taken from prefix sums, see
_kernels), the triple count is the total run length, and the sphere-sweep
oracle for tiny instances reads the triples the runs expand to and splits
the two swept slots into the connected blocks those triples link.
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

    xi_grids: tuple  # three 1-D arrays
    mu_grids: tuple  # three 1-D arrays
    ix3: np.ndarray  # (nxi1, nxi2) slot-3 xi index or -1
    shift: np.ndarray  # (nxi1, nxi2) -sum eps_j xi_j^2 at cell centers
    dxi: float
    dmus: tuple
    lo3: float
    nneg3: int
    triples: Triples  # every admissible (c1, c2, c3), c = xi_index * n_mu + mu_index, as runs

    @property
    def empty(self) -> bool:
        """No admissible triple: no xi pair in the window, or none whose
        slot-3 modulation snaps onto slot 3's lattice."""
        return len(self.triples) == 0

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
    e1, e2, e3 = box.signs
    level = e1 * x1**2 + e2 * x2**2 + e3 * x3**2
    window = (np.abs(level) >= H) & (np.abs(level) <= 2.0 * H)
    # x3 is a multiple of dxi, so it either sits on slot 3's lattice or falls off it
    ix3 = np.where(window, _snap(x3, box.freqs[2], dxi, len(xi_grids[2]) // 2), -1)
    shift = -level
    lo3 = float(box.mods[2])
    nneg3 = len(mu_grids[2]) // 2

    # admissible triples as runs: for every admissible xi pair (m1, m2) the
    # slot-3 modulation shift - mu1 - mu2 must snap onto slot 3's lattice.
    # With slot 2's modulations in increasing order it is monotone in mu2,
    # so for each slot-1 modulation every slot-3 cell takes one contiguous
    # run of slot-2 modulations; a run starts and ends where l3 changes
    n_mu = tuple(len(m) for m in mu_grids)
    m1, m2 = np.nonzero(ix3 >= 0)
    order = np.argsort(mu_grids[1], kind="stable")
    musum = np.add.outer(mu_grids[0], mu_grids[1][order])
    l3 = _snap(shift[m1, m2][:, None, None] - musum, lo3, dmus[2], nneg3)
    change = l3[..., 1:] != l3[..., :-1]
    starts, ends = l3 >= 0, l3 >= 0
    starts[..., 1:] &= change
    ends[..., :-1] &= change
    pair, l1, lo = np.nonzero(starts)
    runs = (
        m1[pair] * n_mu[0] + l1,
        ix3[m1, m2][pair] * n_mu[2] + l3[pair, l1, lo],
        m2[pair],
        lo,
        np.nonzero(ends)[2] + 1,
    )
    triples = Triples(runs, order, tuple(len(x) * n for x, n in zip(xi_grids, n_mu)))
    return MnormModel(xi_grids, mu_grids, ix3, shift, dxi, dmus, lo3, nneg3, triples)


@dataclass
class MnormEstimate:
    value: float
    empty: bool
    n_triples: int
    n_runs: int  # runs of slot-2 cells the triples form
    best_restart: int = -1  # first restart reaching the best value
    sweep_values: tuple = ()  # that restart's value after each sweep


def count_triples(model: MnormModel) -> int:
    return len(model.triples)


def _unit(rng, shape) -> np.ndarray:
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(v)


# sweeps of the three slot solves per restart of alternating_max
SWEEPS = 10


def alternating_max(model: MnormModel, iters: int = 8, seed: int = 0) -> tuple:
    """Best trilinear value over unit slot vectors found by alternating
    exact single-slot maximization (slot 3, then 1, then 2, SWEEPS times),
    maximized over seeded restarts.

    Returns the best value, the first restart that reached it (-1 when no
    restart ran a sweep) and that restart's value after each sweep."""
    if model.empty:
        return 0.0, -1, ()
    tri = model.triples
    # the partials are looked up when the call runs, so a wrapper installed
    # in this module's namespace sees every contraction
    solves = ((2, trilinear_partial3), (0, trilinear_partial1), (1, trilinear_partial2))
    value, first, best = 0.0, -1, ()
    for restart in range(iters):
        rng = np.random.default_rng([int(seed), restart])
        u = [_unit(rng, tri.sizes[0]), _unit(rng, tri.sizes[1]), None]
        values = []
        for _ in range(SWEEPS):
            for slot, partial in solves:
                p = partial(*(u[i] for i in range(3) if i != slot), tri)
                nrm = float(np.linalg.norm(p))
                if nrm == 0.0:
                    break
                u[slot] = np.conj(p) / nrm
            values.append(nrm)
            if nrm == 0.0:
                break
        if values and (first < 0 or values[-1] > value):
            value, first, best = values[-1], restart, tuple(values)
    return value, first, best


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
        return MnormEstimate(0.0, True, 0, 0)
    raw, best, values = alternating_max(model, iters=iters, seed=seed)
    return MnormEstimate(
        model.measure_factor * raw, False, count_triples(model), model.triples.n_runs, best, values
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
    singular values unchanged.  The (slot_a, slot_b) pairs that the triples
    link split the active rows and columns into connected blocks; every
    combination of the two slices is block diagonal on them after a
    permutation, so its top singular value is the largest over the blocks,
    and each grid point runs one small SVD per block.  A block that only one
    slice touches scales with that slice's coefficient, so its value is the
    coefficient's modulus times the block's top singular value.
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
    blocks = [(mat_a[np.ix_(r, c)], mat_b[np.ix_(r, c)])
              for r, c in _blocks(pos[a], pos[b], *mat_a.shape)]
    tops = [tuple(float(np.linalg.svd(m, compute_uv=False)[0]) for m in blk) for blk in blocks]

    def sweep(th_lo, th_hi, ph_lo, ph_hi, n_th, n_ph):
        th = np.linspace(th_lo, th_hi, n_th)
        ph = np.linspace(ph_lo, ph_hi, n_ph)
        tt, pp = np.meshgrid(th, ph, indexing="ij")
        co = np.cos(tt).ravel()
        si = (np.sin(tt) * np.exp(1j * pp)).ravel()
        vals = np.zeros(co.size)
        for (blk_a, blk_b), (top_a, top_b) in zip(blocks, tops):
            if top_b == 0.0:  # a block in one slice only: sigma(c A) = |c| sigma(A)
                top = np.abs(co) * top_a
            elif top_a == 0.0:
                top = np.abs(si) * top_b
            else:
                stack = co[:, None, None] * blk_a[None] + si[:, None, None] * blk_b[None]
                top = np.linalg.svd(stack, compute_uv=False)[:, 0]
            np.maximum(vals, top, out=vals)
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


def _blocks(rows, cols, n_rows, n_cols):
    """Connected components of the bipartite graph on n_rows rows and
    n_cols columns with one edge per (rows[k], cols[k]), by union-find: for
    each, its rows and its columns, both increasing."""
    parent = list(range(n_rows + n_cols))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c in zip(rows.tolist(), (cols + n_rows).tolist()):
        parent[root(r)] = root(c)
    roots = np.array([root(x) for x in range(len(parent))])
    return [(members[members < n_rows], members[members >= n_rows] - n_rows)
            for members in (np.flatnonzero(roots == r) for r in np.unique(roots))]


def exhaustive_lower_bound(
    box: BoxSpec, H: float, n_tau: int, n_xi: int, grid_points: int = 96
) -> float:
    """Independent search oracle for tiny instances: full sphere sweep of the
    least-active slot with the other two slots solved exactly, times the
    model's measure factor; 0 for an empty model."""
    model = build_model(box, H, n_tau, n_xi)
    if model.empty:
        return 0.0
    if max(model.triples.sizes) > 400:
        raise ValueError("search oracle is restricted to tiny instances")
    return model.measure_factor * trilinear_sphere_max(*model.triples.cells, grid_points=grid_points)


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
