import math
import tracemalloc

import numpy as np
import pytest

from mnorm_oracle import contract_bincount, contract_loop, dense_sphere_max, restart_runs
from qnls import mnorm
from qnls._kernels import Triples, trilinear_partial1, trilinear_partial2, trilinear_partial3
from qnls.experiments import mnorm_sweep_configs
from qnls.mnorm import (
    _blocks,
    BoxSpec,
    alternating_max,
    bound_ppm1,
    bound_ppm2,
    bound_ppm4,
    build_model,
    count_triples,
    exhaustive_lower_bound,
    multiplier_lower_bound,
    trilinear_sphere_max,
)

TINY_A = (BoxSpec((1, 1, -1), (2.0, 1.0, 1.0), (1.0, 1.0, 8.0)), 2.0)
TINY_B = (BoxSpec((1, 1, -1), (1.0, 1.0, 1.0), (1.0, 1.0, 8.0)), 4.0)
TINY_C = (BoxSpec((1, 1, -1), (2.0, 2.0, 1.0), (1.0, 1.0, 4.0)), 8.0)
TINY = {"tiny-a": TINY_A, "tiny-b": TINY_B, "tiny-c": TINY_C}
# slot 3 holds two cells, (xi3, mu3) = (1, -2) and (-1, -2), and triples of
# both share slot-1 cells: xi1 = 3 pairs with xi2 = -4 (level 26, mu2 = -24)
# and with xi2 = -2 (level 14, mu2 = -12), so one block links both slices
MID = (BoxSpec((1, 1, -1), (4.0, 2.0, 2.0), (1.0, 2.0, 16.0)), 16.0)
TINY_LINKED = (BoxSpec((1, 1, 1), (2.0, 2.0, 1.0), (0.25, 12.0, 2.0)), 13.0)

# each partial with its output slot and its two factor slots
PARTIALS = [(trilinear_partial3, 2, 0, 1), (trilinear_partial1, 0, 1, 2), (trilinear_partial2, 1, 0, 2)]


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


def _oracle_triples(m):
    """Every admissible (c1, c2, c3), by the scalar snap."""
    n_mu = [len(g) for g in m.mu_grids]
    out = set()
    for m1, m2 in zip(*np.nonzero(m.ix3 >= 0)):
        for l1, mu1 in enumerate(m.mu_grids[0]):
            for l2, mu2 in enumerate(m.mu_grids[1]):
                l3 = _snap3(m.shift[m1, m2] - mu1 - mu2, m.lo3, m.dmus[2], m.nneg3)
                if l3 >= 0:
                    out.add((m1 * n_mu[0] + l1, m2 * n_mu[1] + l2, m.ix3[m1, m2] * n_mu[2] + l3))
    return out


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

    def test_no_triples_is_empty(self):
        # two xi pairs sit in the window, but no slot-3 modulation snaps
        # onto a lattice that starts at 1000: no admissible triple
        box = BoxSpec((1, 1, -1), (2.0, 1.0, 1.0), (1.0, 1.0, 1000.0))
        m = build_model(box, 2.0, n_tau=4, n_xi=8)
        assert np.any(m.ix3 >= 0) and len(m.triples) == 0
        assert m.empty
        est = multiplier_lower_bound(box, 2.0, n_tau=4, n_xi=8)
        assert est.empty and est.value == 0.0 and est.n_triples == 0
        assert alternating_max(m) == (0.0, -1, ()) and exhaustive_lower_bound(box, 2.0, n_tau=4, n_xi=8) == 0.0

    def test_triples_known_instance(self):
        box, h = TINY_A
        m = build_model(box, h, n_tau=4, n_xi=8)
        assert count_triples(m) == 20

    def test_bad_h(self):
        with pytest.raises(ValueError):
            build_model(TINY_A[0], 0.0, n_tau=4, n_xi=8)

    @pytest.mark.parametrize(
        "box, h, n_tau, n_xi",
        [(*TINY_A, 4, 8), (*TINY_B, 4, 8), (*TINY_C, 4, 8), (*MID, 8, 16)]
        + [(box, h, 64, 64) for _f, _n0, box, h in mnorm_sweep_configs()],
        ids=["tiny-a", "tiny-b", "tiny-c", "mid"] + [f"{f}-{n0}" for f, n0, _b, _h in mnorm_sweep_configs()],
    )
    def test_ix3_matches_brute_force_placement(self, box, h, n_tau, n_xi):
        # x3 = -(x1 + x2) looked up in slot 3's lattice, kept inside the H window
        m = build_model(box, h, n_tau=n_tau, n_xi=n_xi)
        e1, e2, e3 = box.signs
        want = np.full(m.ix3.shape, -1)
        for i, x1 in enumerate(m.xi_grids[0]):
            for j, x2 in enumerate(m.xi_grids[1]):
                x3 = -(x1 + x2)
                hits = np.flatnonzero(np.abs(m.xi_grids[2] - x3) <= 1e-9)
                assert hits.size <= 1
                if hits.size and h <= abs(e1 * x1**2 + e2 * x2**2 + e3 * x3**2) <= 2.0 * h:
                    want[i, j] = hits[0]
        assert np.any(want >= 0)
        assert np.array_equal(m.ix3, want)


class TestPartials:
    """The index-triple partials against the scalar-loop oracle."""

    @pytest.mark.parametrize(
        "box, h, n_tau, n_xi",
        [
            (*TINY_A, 4, 8),
            (*TINY_B, 4, 8),
            (*TINY_C, 4, 8),
            (*MID, 8, 16),
            (*mnorm_sweep_configs()[1][2:], 32, 32),  # ppm2 at N0 = 8
        ],
        ids=["tiny-a", "tiny-b", "tiny-c", "mid", "ppm2-8"],
    )
    def test_partials_match_scalar_oracle(self, box, h, n_tau, n_xi):
        m = build_model(box, h, n_tau=n_tau, n_xi=n_xi)
        tri = m.triples
        assert len(tri) == len(_oracle_triples(m)) > 0
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


ORACLE_MODELS = (
    [pytest.param(box, h, 64, 64, id=f"{f}-{n0}") for f, n0, box, h in mnorm_sweep_configs()]
    + [pytest.param(*TINY[label], 4, 8, id=label) for label in TINY]
    + [pytest.param(*TINY_LINKED, 4, 8, id="tiny-linked"),
       pytest.param(BoxSpec((1, 1, -1), (2.0, 1.0, 1.0), (1.0, 1.0, 1000.0)), 2.0, 4, 8, id="empty")]
)

# the scalar enumeration of every triple takes about 0.5 s per sweep box;
# the layout test keeps ppm4-8 (some xi pairs partly admissible) and ppm1-32
SCALAR_SLOW = {"ppm1-8", "ppm2-8", "ppm1-16", "ppm2-16", "ppm4-16", "ppm2-32", "ppm4-32"}


class TestRunPartials:
    """The run-factored partials against the triple-by-triple oracles, on
    unit random slot vectors, for every model the package builds: the nine
    sweep boxes (ppm4 at N0 = 8 has xi pairs with only some modulation pairs
    admissible), the tiny instances and a model with no triples."""

    @pytest.mark.parametrize("box, h, n_tau, n_xi", ORACLE_MODELS)
    def test_runs_match_contraction_oracles(self, box, h, n_tau, n_xi):
        tri = build_model(box, h, n_tau=n_tau, n_xi=n_xi).triples
        cells = tri.cells
        assert all(len(c) == len(tri) for c in cells)
        rng = np.random.default_rng([5, len(tri)])
        us = [mnorm._unit(rng, n) for n in tri.sizes]
        oracles = (contract_bincount, contract_loop) if len(tri) < 5000 else (contract_bincount,)
        for fn, out, sa, sb in PARTIALS:
            got = fn(us[sa], us[sb], tri)
            assert got.shape == (tri.sizes[out],) and got.dtype == np.complex128
            for oracle in oracles:
                want = oracle(cells, tri.sizes, us[sa], sa, us[sb], sb, out)
                if len(tri) == 0:
                    assert not np.any(got) and not np.any(want)
                else:
                    assert _rel(got, want) <= 1e-13

    @pytest.mark.parametrize("box, h, n_tau, n_xi", [p for p in ORACLE_MODELS if p.id not in SCALAR_SLOW])
    def test_runs_are_sorted_disjoint_and_read_only(self, box, h, n_tau, n_xi):
        m = build_model(box, h, n_tau=n_tau, n_xi=n_xi)
        tri = m.triples
        want = _oracle_triples(m)
        assert count_triples(m) == len(want)
        for out, runs in enumerate(tri.runs):
            assert int(np.sum(runs.last - runs.first)) == len(want)
            key = (runs.c1, runs.first, runs.c3)[out]
            assert np.all(np.diff(key) >= 0)
            assert np.all(np.diff(runs.cells) > 0)
            assert np.array_equal(np.repeat(runs.cells, np.diff(np.r_[runs.starts, key.size])), key)
            # every run stays inside one row and covers at least one cell
            assert np.all(runs.last > runs.first)
            assert np.array_equal(runs.first // (tri.width + 1), (runs.last - 1) // (tri.width + 1))
            for arr in runs:
                assert not arr.flags.writeable
            # the runs cover each triple once: no triple twice, none missing
            got = [(c1, tri.width * (q // (tri.width + 1)) + tri.order[q % (tri.width + 1)], c3)
                   for c1, c3, a, b in zip(runs.c1, runs.c3, runs.first, runs.last) for q in range(a, b)]
            assert len(got) == len(set(got)) and set(got) == want
        assert not tri.order.flags.writeable
        assert set(zip(*(c.tolist() for c in tri.cells))) == want

    def test_model_and_sweep_memory(self):
        # ppm1 at N0 = 8: per-triple index arrays sorted for each output slot
        # held 5.3 MiB after build_model, and one alternating_max(iters=8)
        # allocated 2.4 MiB of per-triple products above that
        _f, _n0, box, h = mnorm_sweep_configs()[0]
        alternating_max(build_model(box, h), iters=1)  # first-call allocations
        tracemalloc.start()
        try:
            m = build_model(box, h)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            alternating_max(m, iters=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= 3e6
        assert peak - held <= 1e6


class TestPartialProperties:
    """Seeded random triple lists against the bincount and scalar-loop
    oracles: unsorted and repeated triples, cells no triple touches, a slot
    of one cell, no triples at all."""

    @staticmethod
    def _random_triples(rng, sizes, n):
        """n random runs, some repeated, out of order and overlapping, on
        rows of a random width that divides slot 2's size, drawn from a
        subset of each end slot's cells so some stay untouched; with the
        cells of the triples they stand for, expanded here."""
        width = int(rng.choice([w for w in range(1, sizes[1] + 1) if sizes[1] % w == 0]))
        order = rng.permutation(width)
        pools = [rng.choice(s, size=max(1, (2 * s + 2) // 3), replace=False) for s in (sizes[0], sizes[2])]
        c1, c3 = (rng.choice(pool, size=n) for pool in pools)
        row = rng.integers(0, sizes[1] // width, size=n)
        lo = rng.integers(0, width, size=n)
        hi = lo + 1 + (rng.integers(0, width - lo) if n > 4 else 0)
        runs = [c1, c3, row, lo, hi]
        if n > 4:  # repeat a few runs, out of order
            dup = rng.choice(n, size=n // 4)
            runs = [np.concatenate([r, r[dup]]) for r in runs]
            perm = rng.permutation(len(runs[0]))
            runs = [r[perm] for r in runs]
        cells = [[], [], []]
        for a, c, r, l, h in zip(*runs):
            for k in range(l, h):
                for slot, cell in enumerate((a, r * width + order[k], c)):
                    cells[slot].append(cell)
        return Triples(runs, order, sizes), [np.array(c, dtype=np.intp) for c in cells]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_triples_match_oracles(self, seed):
        rng = np.random.default_rng([2025, seed])
        sizes = tuple(int(s) for s in rng.integers(1, 40, size=3))
        sizes = sizes[:seed % 3] + (1,) + sizes[seed % 3 + 1:] if seed % 4 == 0 else sizes
        tri, cells = self._random_triples(rng, sizes, int(rng.integers(1, 300)))
        assert len(tri) == len(cells[0])
        us = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in sizes]
        touched = [np.isin(np.arange(s), c) for s, c in zip(sizes, cells)]
        for fn, out, sa, sb in PARTIALS:
            got = fn(us[sa], us[sb], tri)
            assert got.shape == (sizes[out],) and got.dtype == np.complex128
            assert np.all(got[~touched[out]] == 0)
            for oracle in (contract_bincount, contract_loop):
                want = oracle(cells, sizes, us[sa], sa, us[sb], sb, out)
                assert _rel(got, want) <= 1e-13

    def test_no_triples_gives_zeros(self):
        tri = Triples(([], [], [], [], []), [0], (5, 1, 7))
        assert len(tri) == tri.n_runs == 0
        us = [np.ones(s, dtype=np.complex128) for s in tri.sizes]
        for fn, out, sa, sb in PARTIALS:
            got = fn(us[sa], us[sb], tri)
            assert got.shape == (tri.sizes[out],) and not np.any(got)


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


class TestSphereBlocks:
    """The block-split sphere sweep against the single-stack dense sweep."""

    @pytest.mark.parametrize(
        "label, shapes",
        [("tiny-a", [(4, 4)] * 2), ("tiny-b", [(4, 4)] * 4), ("tiny-c", [(2, 2)] * 4)],
    )
    def test_tiny_matches_dense_sweep(self, label, shapes):
        box, h = TINY[label]
        cells = build_model(box, h, n_tau=4, n_xi=8).triples.cells
        pos = [np.unique(t, return_inverse=True)[1] for t in cells]
        # slot 3 is the two-cell slot; slots 1 and 2 split into the blocks
        blocks = _blocks(pos[0], pos[1], pos[0].max() + 1, pos[1].max() + 1)
        assert sorted((len(r), len(c)) for r, c in blocks) == shapes
        got = trilinear_sphere_max(*cells)
        assert got == pytest.approx(dense_sphere_max(*cells), rel=1e-12)

    @pytest.mark.parametrize("split", [False, True], ids=["connected", "split"])
    @pytest.mark.parametrize("small_slot", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_matches_dense_sweep(self, seed, small_slot, split):
        rng = np.random.default_rng([31, seed, small_slot, split])
        n_a, n_b = 6, 5
        masks = rng.random((2, n_a, n_b)) < 0.4
        groups = [(slice(0, n_a), slice(0, n_b))]
        if split:  # the second block lies in the first slice only
            groups = [(slice(0, 3), slice(0, 2)), (slice(3, n_a), slice(2, n_b))]
            masks[:, :3, 2:] = False
            masks[:, 3:, :2] = False
            masks[1, 3:, 2:] = False
        for rows, cols in groups:  # one full row and column per group link it
            masks[0, rows.start, cols] = True
            masks[0, rows, cols.start] = True
        small, a, b = np.nonzero(masks)
        labels = [rng.choice(50, size=n, replace=False) for n in (2, n_a, n_b)]
        other = [labels[1][a], labels[2][b]]
        perm = rng.permutation(small.size)
        slots = other[:small_slot] + [labels[0][small]] + other[small_slot:]
        t1, t2, t3 = (s[perm] for s in slots)
        assert len(_blocks(a, b, n_a, n_b)) == len(groups)
        got = trilinear_sphere_max(t1, t2, t3, grid_points=32)
        assert got == pytest.approx(dense_sphere_max(t1, t2, t3, grid_points=32), rel=1e-12)

    def test_tiny_b_search_memory(self):
        # the single-stack sweep peaks at about 145 MiB of traced allocation
        box, h = TINY_B
        tracemalloc.start()
        try:
            exhaustive_lower_bound(box, h, n_tau=4, n_xi=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestAlternating:
    def test_monotone_in_restarts(self):
        box, h = TINY_B
        m = build_model(box, h, n_tau=4, n_xi=8)
        vals = [alternating_max(m, iters=i, seed=3)[0] for i in (1, 2, 4, 8)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_matches_search_oracle_tiny(self):
        for box, h in (TINY_A, TINY_B):
            est = multiplier_lower_bound(box, h, n_tau=4, n_xi=8, iters=24, seed=1)
            exh = exhaustive_lower_bound(box, h, n_tau=4, n_xi=8)
            assert est.value == pytest.approx(exh, rel=1e-9)

    def test_linked_slices_match_dense_sweep(self):
        box, h = TINY_LINKED
        m = build_model(box, h, n_tau=4, n_xi=8)
        cells = m.triples.cells
        pos = [np.unique(t, return_inverse=True)[1] for t in cells]
        assert pos[2].max() == 1  # the swept slot is slot 3, with two cells
        blocks = _blocks(pos[0], pos[1], pos[0].max() + 1, pos[1].max() + 1)
        slices = [set(pos[2][np.isin(pos[0], r) & np.isin(pos[1], c)].tolist()) for r, c in blocks]
        assert {0, 1} in slices
        dense = dense_sphere_max(*cells)
        assert trilinear_sphere_max(*cells) == pytest.approx(dense, rel=1e-12)
        # the gap criterion 5 gates on its tiny instances
        assert alternating_max(m, iters=8, seed=1)[0] == pytest.approx(dense, rel=0.05)

    @pytest.mark.parametrize(
        "box, h, n_tau, n_xi, iters",
        [(*TINY_A, 4, 8, 24), (*TINY_B, 4, 8, 24), (*TINY_C, 4, 8, 24),
         (*mnorm_sweep_configs()[2][2:], 32, 32, 4)],  # ppm4 at N0 = 8
        ids=["tiny-a", "tiny-b", "tiny-c", "ppm4-8"],
    )
    def test_matches_reference_restarts(self, box, h, n_tau, n_xi, iters):
        m = build_model(box, h, n_tau=n_tau, n_xi=n_xi)
        runs = restart_runs(m.triples, iters, seed=7)
        finals = [r[-1] for r in runs]
        value, first, values = alternating_max(m, iters=iters, seed=7)
        assert value == max(finals)
        assert first == finals.index(value)
        assert values == tuple(runs[first]) and len(values) == 10

    def test_partial_calls_per_estimate(self, monkeypatch):
        # 4 restarts x 10 sweeps, one call of each partial per sweep; the
        # partials are looked up in mnorm's namespace, where the benchmark
        # tracer wraps them
        calls = {}
        for name in ("trilinear_partial1", "trilinear_partial2", "trilinear_partial3"):
            def counted(*args, _fn=getattr(mnorm, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(mnorm, name, counted)
        multiplier_lower_bound(*TINY_A, n_tau=4, n_xi=8, iters=4)
        assert calls == {"trilinear_partial1": 40, "trilinear_partial2": 40, "trilinear_partial3": 40}

    def test_estimate_fields(self):
        box, h = TINY_A
        est = multiplier_lower_bound(box, h, n_tau=4, n_xi=8, iters=4, seed=2)
        assert not est.empty
        assert est.n_triples == 20
        model = build_model(box, h, 4, 8)
        assert est.value == pytest.approx(model.measure_factor * alternating_max(model, iters=4, seed=2)[0])

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
                exhaustive_lower_bound(box, 64.0, n_tau=64, n_xi=64)


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
