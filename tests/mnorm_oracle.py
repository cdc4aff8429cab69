"""Slow reference paths for the criterion-5 kernels.

* `contract_bincount`: a trilinear partial as one gather-multiply and one
  bincount of the product's float64 view into interleaved bins 2c, 2c + 1,
  read back as complex values, summed triple by triple in list order.
* `contract_loop`: the same partial, one triple at a time in a Python loop.
* `dense_sphere_max`: the sphere-sweep oracle on the full (slot_a x slot_b)
  slices, one stack of dense matrices per sweep and one SVD each, with no
  block split.  Same grid, same refinements, same tie-breaking (first
  maximum) as `mnorm.trilinear_sphere_max`.

The three read only the three index arrays of the triples, never the
package's runs, prefix sums or blocks.

* `restart_runs`: the alternating maximizer one restart at a time, on the
  package's partials, keeping every restart's value after each sweep; the
  slots it solves are a parameter.
"""

from __future__ import annotations

import math

import numpy as np

from qnls._kernels import trilinear_partial1, trilinear_partial2, trilinear_partial3


def contract_bincount(cells, sizes, a, sa, b, sb, out):
    """p[c_out] = sum over triples of a[c_sa] * b[c_sb], by bincount."""
    cells = [np.asarray(t, dtype=np.intp) for t in cells]
    bins = (2 * cells[out][:, None] + np.arange(2)).ravel()
    prod = np.asarray(a, np.complex128).ravel()[cells[sa]] * np.asarray(b, np.complex128).ravel()[cells[sb]]
    sums = np.bincount(bins, weights=prod.view(np.float64), minlength=2 * sizes[out])
    return sums.view(np.complex128)


def contract_loop(cells, sizes, a, sa, b, sb, out):
    """The same partial, one triple at a time."""
    p = np.zeros(sizes[out], dtype=np.complex128)
    for k in range(len(cells[0])):
        p[cells[out][k]] += a[cells[sa][k]] * b[cells[sb][k]]
    return p


def dense_sphere_max(t1, t2, t3, grid_points: int = 96) -> float:
    """Sphere sweep of the slot with at most two active cells, the other two
    slots solved by the SVD of the full active-cell matrices."""
    ts = [np.asarray(t, np.int64) for t in (t1, t2, t3)]
    if ts[0].size == 0:
        return 0.0
    active, pos = zip(*(np.unique(t, return_inverse=True) for t in ts))
    j = int(np.argmin([a.size for a in active]))
    if active[j].size > 2:
        raise ValueError("needs a slot with at most two active cells")
    a, b = (i for i in range(3) if i != j)

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


def restart_runs(tri, iters: int, seed: int, sweeps: int = 10, slots=(2, 0, 1)) -> list:
    """Each seeded restart's values after every sweep.  A restart draws unit
    slot-1 and slot-2 vectors from the generator seeded [seed, restart]; a
    sweep sets each listed slot in turn to the normalised conjugate of its
    partial and records the last norm; a zero partial ends the restart at 0."""
    partials = (trilinear_partial1, trilinear_partial2, trilinear_partial3)
    runs = []
    for restart in range(iters):
        rng = np.random.default_rng([seed, restart])
        u = []
        for size in tri.sizes[:2]:
            v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            u.append(v / np.linalg.norm(v))
        u.append(None)
        values = []
        for _ in range(sweeps):
            for slot in slots:
                a, b = (u[i] for i in range(3) if i != slot)
                p = partials[slot](a, b, tri)
                nrm = float(np.linalg.norm(p))
                if nrm == 0.0:
                    break
                u[slot] = np.conj(p) / nrm
            values.append(nrm)
            if nrm == 0.0:
                break
        runs.append(values)
    return runs
