import math

import numpy as np
import pytest

from qnls._kernels import trilinear_partial1, trilinear_partial2, trilinear_partial3
from qnls.experiments import mnorm_sweep_configs
from qnls.mnorm import (
    BoxSpec,
    alternating_max,
    bound_ppm1,
    bound_ppm2,
    bound_ppm4,
    build_model,
    count_triples,
    exhaustive_lower_bound,
    exhaustive_max,
    multiplier_lower_bound,
    trilinear_sphere_max,
)

TINY_A = (BoxSpec((1, 1, -1), (2.0, 1.0, 1.0), (1.0, 1.0, 8.0)), 2.0)
TINY_B = (BoxSpec((1, 1, -1), (1.0, 1.0, 1.0), (1.0, 1.0, 8.0)), 4.0)
TINY_C = (BoxSpec((1, 1, -1), (2.0, 2.0, 1.0), (1.0, 1.0, 4.0)), 8.0)


# ---------------------------------------------------------------------------
# scalar-loop oracle for the partial contractions: one admissible cell pair
# at a time, with its own scalar snap of the slot-3 modulation; slot fields
# are (xi cell, mu cell) arrays
# ---------------------------------------------------------------------------

def _snap3(v, lo3, dmu3, nneg3):
    av = abs(v)
    sub = round((av - lo3) / dmu3)
    if sub < 0 or sub >= nneg3:
        return -1
    if abs(av - (lo3 + sub * dmu3)) > 0.5 * dmu3 + 1e-9:
        return -1
    if v < 0:
        return int(sub)
    return int(sub) + nneg3


def _partial3(u1, u2, ix3, shift, mu1g, mu2g, lo3, dmu3, nneg3, nmu3, nxi3):
    p3 = np.zeros((nxi3, nmu3), dtype=np.complex128)
    for m1 in range(u1.shape[0]):
        for m2 in range(u2.shape[0]):
            i3 = ix3[m1, m2]
            if i3 < 0:
                continue
            s = shift[m1, m2]
            for l1 in range(mu1g.shape[0]):
                a = u1[m1, l1]
                if a == 0.0:
                    continue
                for l2 in range(mu2g.shape[0]):
                    b = u2[m2, l2]
                    if b == 0.0:
                        continue
                    l3 = _snap3(s - mu1g[l1] - mu2g[l2], lo3, dmu3, nneg3)
                    if l3 >= 0:
                        p3[i3, l3] += a * b
    return p3


def _partial1(u2, u3, ix3, shift, mu1g, mu2g, lo3, dmu3, nneg3, nmu3, nxi1):
    p1 = np.zeros((nxi1, mu1g.shape[0]), dtype=np.complex128)
    for m1 in range(nxi1):
        for m2 in range(u2.shape[0]):
            i3 = ix3[m1, m2]
            if i3 < 0:
                continue
            s = shift[m1, m2]
            for l1 in range(mu1g.shape[0]):
                acc = 0.0 + 0.0j
                for l2 in range(mu2g.shape[0]):
                    b = u2[m2, l2]
                    if b == 0.0:
                        continue
                    l3 = _snap3(s - mu1g[l1] - mu2g[l2], lo3, dmu3, nneg3)
                    if l3 >= 0:
                        acc += b * u3[i3, l3]
                p1[m1, l1] += acc
    return p1


def _partial2(u1, u3, ix3, shift, mu1g, mu2g, lo3, dmu3, nneg3, nmu3, nxi2):
    p2 = np.zeros((nxi2, mu2g.shape[0]), dtype=np.complex128)
    for m2 in range(nxi2):
        for m1 in range(u1.shape[0]):
            i3 = ix3[m1, m2]
            if i3 < 0:
                continue
            s = shift[m1, m2]
            for l2 in range(mu2g.shape[0]):
                acc = 0.0 + 0.0j
                for l1 in range(mu1g.shape[0]):
                    a = u1[m1, l1]
                    if a == 0.0:
                        continue
                    l3 = _snap3(s - mu1g[l1] - mu2g[l2], lo3, dmu3, nneg3)
                    if l3 >= 0:
                        acc += a * u3[i3, l3]
                p2[m2, l2] += acc
    return p2


def _oracle_triple_count(m):
    count = 0
    for m1, m2 in zip(*np.nonzero(m.ix3 >= 0)):
        for mu1 in m.mu_grids[0]:
            for mu2 in m.mu_grids[1]:
                count += _snap3(m.shift[m1, m2] - mu1 - mu2, m.lo3, m.dmus[2], m.nneg3) >= 0
    return count


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestBoxSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoxSpec((1, 1), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            BoxSpec((1, 1, 0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            BoxSpec((1, 1, -1), (1.0, -1.0, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            BoxSpec((1, 1, -1), (1.0, 1.0, 1.0), (1.0, 0.0, 1.0))


class TestBuildModel:
    def test_lattice_layout(self):
        box, h = TINY_A
        m = build_model(box, h, n_tau=4, n_xi=8)
        # common xi step: max freq / (8//4) = 1
        assert m.dxi == pytest.approx(1.0)
        # slot 1 covers +-[2, 4]: magnitudes 2, 3, 4 on both sides
        assert sorted(np.abs(m.xi_grids[0]).tolist()) == [2, 2, 3, 3, 4, 4]
        # each mu lattice covers +-[L, 2L] at step L (n_tau//4 = 1)
        assert sorted(m.mu_grids[0].tolist()) == [-2.0, -1.0, 1.0, 2.0]
        assert m.measure_factor == pytest.approx(math.sqrt(1.0 * 1.0 * 1.0 / 8.0))

    def test_unresolved_scale_rejected(self):
        # max freq 3 -> dxi = 3/2 does not hit the other block endpoint 1
        box = BoxSpec((1, 1, -1), (3.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            build_model(box, 4.0, n_tau=4, n_xi=8)

    def test_window_filters_levels(self):
        box, _ = TINY_A
        # resonance level of (+,+,-) at |xi_j| ~ 1..4 never reaches 1000
        m = build_model(box, 1000.0, n_tau=4, n_xi=8)
        assert m.empty
        est = multiplier_lower_bound(box, 1000.0, n_tau=4, n_xi=8)
        assert est.empty and est.value == 0.0

    def test_triples_known_instance(self):
        box, h = TINY_A
        m = build_model(box, h, n_tau=4, n_xi=8)
        assert count_triples(m) == 20

    def test_bad_h(self):
        with pytest.raises(ValueError):
            build_model(TINY_A[0], 0.0, n_tau=4, n_xi=8)


class TestPartials:
    """The index-triple partials against the scalar-loop oracle."""

    @pytest.mark.parametrize(
        "box, h, n_tau, n_xi",
        [
            (*TINY_A, 4, 8),
            (*TINY_B, 4, 8),
            (*TINY_C, 4, 8),
            (BoxSpec((1, 1, -1), (4.0, 2.0, 2.0), (1.0, 2.0, 16.0)), 16.0, 8, 16),
            (*mnorm_sweep_configs()[1][2:], 32, 32),  # ppm2 at N0 = 8
        ],
        ids=["tiny-a", "tiny-b", "tiny-c", "mid", "ppm2-8"],
    )
    def test_partials_match_scalar_oracle(self, box, h, n_tau, n_xi):
        m = build_model(box, h, n_tau=n_tau, n_xi=n_xi)
        tri = m.triples
        assert len(tri) == _oracle_triple_count(m) > 0
        shapes = [(len(x), len(mu)) for x, mu in zip(m.xi_grids, m.mu_grids)]
        rng = np.random.default_rng(3)
        u1, u2, u3 = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes)
        args = (m.ix3, m.shift, m.mu_grids[0], m.mu_grids[1], m.lo3, m.dmus[2], m.nneg3, shapes[2][1])
        p3 = trilinear_partial3(u1.ravel(), u2.ravel(), tri)
        assert _rel(p3, _partial3(u1, u2, *args, shapes[2][0]).ravel()) <= 1e-13
        p1 = trilinear_partial1(u2.ravel(), u3.ravel(), tri)
        assert _rel(p1, _partial1(u2, u3, *args, shapes[0][0]).ravel()) <= 1e-13
        p2 = trilinear_partial2(u1.ravel(), u3.ravel(), tri)
        assert _rel(p2, _partial2(u1, u3, *args, shapes[1][0]).ravel()) <= 1e-13

    def test_sweep_triple_counts(self):
        # triple counts of the nine sweep boxes at n_tau = n_xi = 64, as
        # enumerated by the per-cell-pair loop the triples replaced
        counts = [count_triples(build_model(box, h)) for _f, _n0, box, h in mnorm_sweep_configs()]
        assert counts == [76080, 75648, 74798] + [76296] * 6
        assert sum(counts) == 684302


class TestSphereMax:
    """Closed-form instances for the search oracle."""

    def test_single_triple(self):
        assert trilinear_sphere_max([0], [0], [0]) == pytest.approx(1.0)

    def test_repeated_triple_adds(self):
        assert trilinear_sphere_max([0, 0], [0, 0], [0, 0]) == pytest.approx(2.0)

    def test_disjoint_triples_take_max(self):
        # mass concentrates on one component
        val = trilinear_sphere_max([0, 1], [0, 1], [0, 1])
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_all_ones_tensor(self):
        t1, t2, t3 = np.meshgrid(np.arange(2), np.arange(3), np.arange(4), indexing="ij")
        val = trilinear_sphere_max(t1.ravel(), t2.ravel(), t3.ravel())
        assert val == pytest.approx(math.sqrt(24), rel=1e-9)

    def test_shared_slot_svd(self):
        # W[0, :, :] = identity: best value is the top singular value 1
        val = trilinear_sphere_max([0, 0], [0, 1], [0, 1])
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_needs_small_slot(self):
        t1, t2, t3 = np.meshgrid(np.arange(3), np.arange(3), np.arange(3), indexing="ij")
        with pytest.raises(ValueError):
            trilinear_sphere_max(t1.ravel(), t2.ravel(), t3.ravel())

    def test_empty(self):
        assert trilinear_sphere_max([], [], []) == 0.0


class TestAlternating:
    def test_monotone_in_restarts(self):
        box, h = TINY_B
        m = build_model(box, h, n_tau=4, n_xi=8)
        vals = [alternating_max(m, iters=i, seed=3) for i in (1, 2, 4, 8)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_matches_search_oracle_tiny(self):
        for box, h in (TINY_A, TINY_B):
            est = multiplier_lower_bound(box, h, n_tau=4, n_xi=8, iters=24, seed=1)
            exh = exhaustive_lower_bound(box, h, n_tau=4, n_xi=8)
            assert est.value == pytest.approx(exh, rel=1e-9)

    def test_estimate_fields(self):
        box, h = TINY_A
        est = multiplier_lower_bound(box, h, n_tau=4, n_xi=8, iters=4, seed=2)
        assert not est.empty
        assert est.n_triples == 20
        assert est.value == pytest.approx(est.raw * build_model(box, h, 4, 8).measure_factor)

    def test_seed_determinism(self):
        box, h = TINY_A
        a = multiplier_lower_bound(box, h, n_tau=4, n_xi=8, iters=4, seed=5)
        b = multiplier_lower_bound(box, h, n_tau=4, n_xi=8, iters=4, seed=5)
        assert a.value == b.value


class TestGuards:
    def test_exhaustive_size_guard(self):
        box = BoxSpec((1, 1, -1), (8.0, 8.0, 8.0), (8.0, 8.0, 64.0))
        m = build_model(box, 64.0, n_tau=64, n_xi=64)
        if not m.empty:
            with pytest.raises(ValueError):
                exhaustive_max(m)


class TestBounds:
    def test_reference_bound_formulas(self):
        freqs = (16.0, 8.0, 8.0)
        mods = (1.0, 4.0, 256.0)
        assert bound_ppm1(freqs, mods) == pytest.approx(math.sqrt(1.0 * 8.0))
        assert bound_ppm2(freqs, mods) == pytest.approx(
            math.sqrt(min(1.0 * 256.0 / 8.0, 4.0 * 256.0 / 16.0))
        )
        lo, mid, _hi = sorted(mods)
        assert bound_ppm4(freqs, mods) == pytest.approx(lo**0.5 * mid**0.25)
