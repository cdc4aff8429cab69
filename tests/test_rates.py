import gc
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from qnls import rates, spacetime
from qnls.rates import (
    KIND_ORDER,
    KINDS,
    _band,
    _block_rows,
    _cell_tables,
    _draws,
    _one_cell,
    _output_multiplier,
    _time_tables,
    _windowed_side,
    product_rate_experiment,
)
from qnls.spacetime import (
    apply_window,
    box_mask,
    parabola_distance,
    st_l2_norm,
    st_product,
    st_spatial_multiplier,
    synth_cells,
    window_weights,
    xsb_norm,
)
from qnls.spectral import TWO_PI, Grid, lp_annulus


def oracle_cell(kind, k, delta, seed_key, n_t):
    """The rate cell as a composition of SpaceTimeField operations on dense
    (n_t, 2^(k+3)) fields: the slow, independent reference for _one_cell."""
    conj2, v_pattern, out_pattern, vb_tag, u_side, v_side = KINDS[kind]
    grid = Grid(2 ** (k + 3))
    kind_id = KIND_ORDER.index(kind)

    u_mask = box_mask(grid, n_t, 2**k, 2 ** (k + 1), 1.0, 2.0, u_side)
    v_mask = box_mask(grid, n_t, *_band(v_pattern, k), 1.0, 2.0, v_side)
    u = synth_cells(grid, n_t, u_mask, [seed_key, kind_id, k, 0])
    v = synth_cells(grid, n_t, v_mask, [seed_key, kind_id, k, 1])

    wu = apply_window(u)
    wv = apply_window(v)
    bu = 0.5 + delta
    bv = 0.5 + delta if vb_tag == "plus" else 0.5 - delta
    nu = xsb_norm(0.0, bu, wu)
    nv = xsb_norm(0.0, bv, wv)
    if nu == 0.0 or nv == 0.0:
        return float("nan")

    prod = st_product(wu, wv.conj() if conj2 else wv)
    if out_pattern is not None:
        prod = st_spatial_multiplier(prod, _output_multiplier(grid, out_pattern, k))
    return st_l2_norm(prod) / (nu * nv)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _boxes(kind, k, delta, n_t):
    """(mask, b) of the u and v factors of a kind on the 2^(k+3)-point grid,
    Nyquist row and column cleared."""
    _conj2, v_pattern, _out, vb_tag, u_side, v_side = KINDS[kind]
    grid = Grid(2 ** (k + 3))
    masks = (
        box_mask(grid, n_t, 2**k, 2 ** (k + 1), 1.0, 2.0, u_side),
        box_mask(grid, n_t, *_band(v_pattern, k), 1.0, 2.0, v_side),
    )
    for mask in masks:
        mask[n_t // 2, :] = False
        mask[:, grid.n // 2] = False
    bv = 0.5 + delta if vb_tag == "plus" else 0.5 - delta
    return grid, ((masks[0], 0.5 + delta), (masks[1], bv))


def fft_side(mask, b, seed, grid, n_t, n, parts):
    """One factor's windowed samples, scattered onto one n-point buffer per
    part and inverse-transformed along x there, and its X^{0,b} norm, by an
    inverse and a forward time-axis FFT on the occupied columns: the rate
    cell's arithmetic before the quadratic form.  The draws fill the mask in
    row-major order, unnormalised, as the cell draws them; a part with shift
    s puts frequency xi of its columns in column (xi - s) mod n."""
    cols = np.flatnonzero(mask.any(axis=0))
    sub = mask[:, cols]
    weight = (1.0 + parabola_distance(n_t, grid.frequencies[cols])) ** (2.0 * b)
    count = int(np.count_nonzero(sub))
    rng = np.random.default_rng(seed)
    c = np.zeros(sub.shape, dtype=np.complex128)
    c[sub] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    samples = np.fft.ifft(c, axis=0)
    samples *= window_weights(n_t)[:, None]
    cw = np.fft.fft(samples, axis=0)
    cw[n_t // 2, :] = 0.0
    norm = math.sqrt(TWO_PI * TWO_PI * float(np.sum(weight * (cw.real**2 + cw.imag**2))))
    freqs = np.where(cols < grid.n // 2, cols, cols - grid.n)
    buffers = []
    for part in parts:
        sel = _positions(part)
        full = np.zeros((n_t, n), dtype=np.complex128)
        full[:, (freqs[sel] - part.shift) % n] = samples[:, sel]
        buffers.append(np.fft.ifft(full, axis=1))
    return buffers, norm


def _span(rows, n_t):
    """Length of the shortest cyclic window of n_t rows holding every row in
    rows, by trying each row as the start."""
    return min(int(np.max((rows - start) % n_t)) + 1 for start in rows)


def test_kind_table_complete():
    assert len(KINDS) == 8
    assert set(KIND_ORDER) == set(KINDS)
    for kind, row in KINDS.items():
        conj2, v_pattern, out_pattern, vb_tag, u_side, v_side = row
        assert isinstance(conj2, bool)
        assert v_pattern in ("band", "muchless", "broad")
        assert out_pattern in ("similar", "muchless", "exact", None)
        assert vb_tag in ("plus", "minus")
        assert u_side in ("both", "+") and v_side in ("both", "-")




def test_output_multiplier_patterns():
    g = Grid(256)
    xi = g.frequencies
    exact = _output_multiplier(g, "exact", 4)
    np.testing.assert_allclose(exact, lp_annulus(xi / 16.0))
    low = _output_multiplier(g, "muchless", 8)
    assert np.all(low[np.abs(xi) > 8.0] == 0)  # bands up to k-6=2
    assert low[0] == 1.0
    sim = _output_multiplier(g, "similar", 4)
    assert sim[16] == pytest.approx(1.0)
    assert np.all(sim[np.abs(xi) > 2.0**8] == 0)


def test_one_cell_ratio_positive_and_deterministic():
    for kind in ("gain1", "kkk1", "plusminus"):
        r1 = _one_cell(kind, 3, 0.05, 7, 64)
        r2 = _one_cell(kind, 3, 0.05, 7, 64)
        assert r1 == r2
        assert np.isfinite(r1) and r1 > 0


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_one_cell_matches_dense_oracle(kind):
    for k in (3, 4, 5):
        for n_t in (64, 256):
            for seed_key in (3, 1000004):
                fast = _one_cell(kind, k, 0.05, seed_key, n_t)
                slow = oracle_cell(kind, k, 0.05, seed_key, n_t)
                assert np.isfinite(slow) and slow > 0
                assert _rel(fast, slow) <= 1e-13, (k, n_t, seed_key, fast, slow)


# k = 8 is the largest default scale.  At k = 7 and 8 gain2, kkk1 and kkkk1
# split both factors into sign halves and sum two pair products in one group,
# gain1 and kkk2 split u into two groups (gain1's by Parseval along x);
# plusminus (one-sided, 540 of 2048 points at k = 8) and gain3 (800 of 1024 at
# k = 7) transform whole factors
LARGE_CASES = [
    *((kind, k) for kind in ("gain1", "gain2", "kkk1", "kkk2", "kkkk1") for k in (7, 8)),
    ("plusminus", 8),
    ("gain3", 7),
]


def test_one_cell_matches_dense_oracle_large_and_off_lattice():
    for kind, k in LARGE_CASES:
        fast = _one_cell(kind, k, 0.05, 11, 256)
        slow = oracle_cell(kind, k, 0.05, 11, 256)
        assert np.isfinite(slow) and slow > 0
        assert _rel(fast, slow) <= 1e-13, (kind, k, fast, slow)


def _occupied_freqs(mask, n_t):
    """Signed frequencies of the columns a box occupies, Nyquist row and
    column excluded."""
    mask = mask.copy()
    n = mask.shape[1]
    mask[n_t // 2, :] = False
    mask[:, n // 2] = False
    cols = np.flatnonzero(mask.any(axis=0))
    return np.where(cols < n // 2, cols, cols - n)


def _positions(part):
    """Positions, among its factor's occupied columns, of a part's columns."""
    return np.concatenate([np.arange(src.start, src.stop) for _dest, src in part.runs])


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_cell_grid_alias_free(kind):
    conj2, v_pattern, out_pattern, _vb, u_side, v_side = KINDS[kind]
    sign = -1 if conj2 else 1
    for k in range(1, 11):
        grid = Grid(2 ** (k + 3))
        full_mult = np.ones(grid.n) if out_pattern is None else _output_multiplier(grid, out_pattern, k)
        full_mult[grid.n // 2] = 0.0
        for n_t in (64, 256):
            tables = _cell_tables(kind, k, 0.05, n_t)
            m = tables.n
            assert m % 2 == 0 and m <= grid.n
            u = _occupied_freqs(box_mask(grid, n_t, 2**k, 2 ** (k + 1), 1.0, 2.0, u_side), n_t)
            v = _occupied_freqs(box_mask(grid, n_t, *_band(v_pattern, k), 1.0, 2.0, v_side), n_t)
            computed = np.zeros((u.size, v.size), dtype=bool)
            outputs = []
            for group in tables.groups:
                assert group.mult.shape == (m,)
                sums = []
                for a, b in group.pairs:
                    pu, pv = tables.u_parts[a], tables.v_parts[b]
                    assert pu.shift + sign * pv.shift == group.shift
                    iu, iv = _positions(pu), _positions(pv)
                    computed[np.ix_(iu, iv)] = True
                    # the sumset by brute force: every pair of the parts' columns,
                    # shifted as they sit on the m-point grid
                    sums.append(np.add.outer(u[iu] - pu.shift, sign * (v[iv] - pv.shift)).ravel())
                sums = np.unique(np.concatenate(sums))
                lands = group.mult[sums % m] != 0
                # a sum that lands on a kept column is that column itself, in
                # the base range of the m-point grid, with the multiplier its
                # output frequency has on the 2^(k+3) grid
                assert np.all((sums[lands] >= -m // 2) & (sums[lands] < m // 2)), (k, n_t)
                np.testing.assert_array_equal(
                    group.mult[sums[lands] % m], full_mult[(sums[lands] + group.shift) % grid.n]
                )
                # and every sum the 2^(k+3) grid keeps lands
                assert np.all(lands[full_mult[(sums + group.shift) % grid.n] != 0]), (k, n_t)
                cols = np.flatnonzero(group.mult)
                outputs.append(np.where(cols < m // 2, cols, cols - m) + group.shift)
            # different groups keep disjoint output frequencies, and each u
            # part is in one pair, which the cell multiplies in place
            u_used = [a for group in tables.groups for a, _b in group.pairs]
            assert sorted(u_used) == list(range(len(tables.u_parts))), (k, n_t)
            outputs = np.concatenate(outputs)
            assert np.unique(outputs).size == outputs.size, (k, n_t)
            # no pair of columns whose sum the 2^(k+3) grid keeps is dropped
            keep = full_mult[np.add.outer(u, sign * v) % grid.n] != 0
            assert np.all(computed[keep]), (k, n_t)


# each kind's transform grid and its transforms per cell at k = 3..8
# (delta 0.05, n_t 256, one period): the grid_n and transforms of rates.json
CELL_GRID_N = {
    "gain1": [16, 24, 40, 72, 144, 288],
    "gain2": [10, 18, 36, 72, 144, 270],
    "gain3": [50, 100, 200, 400, 800, 1600],
    "kkk1": [18, 36, 72, 144, 270, 540],
    "kkk2": [16, 24, 40, 72, 144, 288],
    "kkk3": [50, 100, 200, 400, 800, 1600],
    "kkkk1": [18, 36, 72, 144, 270, 540],
    "plusminus": [18, 36, 72, 144, 270, 540],
}
# both factors split, one group (gain2, kkk1, kkkk1); u split, two groups
# taken by Parseval along x (gain1) or transformed (kkk2); whole factors
CELL_TRANSFORMS = {"gain1": 3, "gain2": 5, "gain3": 2, "kkk1": 5, "kkk2": 5, "kkk3": 2, "kkkk1": 5, "plusminus": 3}


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_cell_grid_sizes(kind):
    tables = [_cell_tables(kind, k, 0.05, 256) for k in range(3, 9)]
    assert [t.n for t in tables] == CELL_GRID_N[kind]
    assert {t.transforms for t in tables} == {CELL_TRANSFORMS[kind]}


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_plan_search_skips_one_sided_splits(kind, monkeypatch):
    # the choices the search leaves out (a split of a factor with one sign
    # half) never beat the plan it keeps, so each (kind, k) keeps its grid
    # and its transforms
    searched, original = [], rates._plan

    def recording(*args):
        searched.append(args)
        return original(*args)

    monkeypatch.setattr(rates, "_plan", recording)
    for k in range(3, 9):
        searched.clear()
        _cell_tables.cache_clear()
        tables = _cell_tables(kind, k, 0.05, 256)
        u_freqs, v_freqs, sign, mult = searched[0][:4]
        one_sided = [freqs.min() >= 0 or freqs.max() < 0 for freqs in (u_freqs, v_freqs)]
        choices = [(su, sv) for sv in (False, True) for su in (False, True)]
        kept = [c for c in choices if not (c[0] and one_sided[0] or c[1] and one_sided[1])]
        assert [args[4:] for args in searched] == kept
        plans = [p for p in (original(u_freqs, v_freqs, sign, mult, *c) for c in choices) if p is not None]
        best = min(plans, key=lambda p: p[0] * p[1])
        assert (best[1], best[0]) == (tables.n, tables.transforms) == (CELL_GRID_N[kind][k - 3], CELL_TRANSFORMS[kind])
    _cell_tables.cache_clear()


def test_empty_box_rejected(monkeypatch):
    # no box of the 2*pi period is empty, down to n_t = 2, which the config
    # rejects; the guard still raises for a band that holds no grid column
    for n_t in (2, 4):
        for k in range(1, 9):
            for pattern in ("band", "muchless", "broad"):
                for side in ("both", "+", "-"):
                    assert rates._box_table(k, pattern, side, 0.55, n_t).tau0.size > 0
    rates._box_table.cache_clear()
    _cell_tables.cache_clear()
    monkeypatch.setattr(rates, "_band", lambda pattern, k: (2.0 ** (k + 4), 2.0 ** (k + 5)))
    with pytest.raises(ValueError, match="empty"):
        _one_cell("gain1", 3, 0.05, 0, 64)


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_table_masks_equal_box_mask(kind):
    for k, n_t in ((3, 64), (6, 256)):
        tables = _cell_tables(kind, k, 0.05, n_t)
        grid, boxes = _boxes(kind, k, 0.05, n_t)
        freqs = np.where(np.arange(grid.n) < grid.n // 2, np.arange(grid.n), np.arange(grid.n) - grid.n)
        sides = ((tables.u, tables.u_parts), (tables.v, tables.v_parts))
        for ((_freqs, tau0, place, q), parts), (mask, _b) in zip(sides, boxes):
            span, ncols = q.shape[1], tau0.size
            assert q.shape == (ncols, span, span)
            # each draw's row is its column's start plus its offset in C
            offset, col = np.divmod(place, ncols)
            assert offset.max() < span
            rows = (tau0[col] + offset) % n_t
            # the draws run over the cells in row-major order, as in synth_cells
            assert np.all(np.diff(rows * ncols + col) > 0)
            sub = np.zeros((n_t, ncols), dtype=int)
            np.add.at(sub, (rows, col), 1)
            # the parts hold each occupied column once, and each part's runs
            # place its columns at their signed frequency less its shift, mod n
            cols = np.flatnonzero(mask.any(axis=0))
            held = np.zeros(ncols, dtype=int)
            for part in parts:
                full = np.zeros((n_t, tables.n), dtype=int)
                for dest, src in part.runs:
                    full[:, dest] += sub[:, src]
                mine = cols[_positions(part)]
                held[_positions(part)] += 1
                moved = np.zeros_like(full)
                np.add.at(moved, (slice(None), (freqs[mine] - part.shift) % tables.n), mask[:, mine].astype(int))
                np.testing.assert_array_equal(full, moved)
            assert np.all(held == 1)
            # every column starts on an occupied row, and R is the shortest
            # cyclic window that holds each column's rows
            assert np.all(sub[tau0, np.arange(ncols)] == 1)
            assert span == max(_span(np.flatnonzero(sub[:, j]), n_t) for j in range(ncols))
            assert span == 5  # tau - xi^2 in {-2, -1, 1, 2}
            assert not (tau0.flags.writeable or place.flags.writeable or q.flags.writeable)
        assert not any(group.mult.flags.writeable for group in tables.groups)
    assert not any(a.flags.writeable for a in _time_tables(64))


@pytest.mark.parametrize("n_t", [64, 256], ids=["64-2pi", "256-2pi"])
def test_quadratic_form_matches_fft_side(n_t):
    # the samples of each block of 24 time rows, transformed in place in the
    # leading rows of the scatter buffers, and the X^{0,b} norm of each
    # factor, against the time-axis FFT pair, for seeded draws; the buffers
    # start full of another cell's values and then hold the previous
    # block's, which must not show
    block = 24
    for kind in ("gain1", "gain3", "kkkk1", "plusminus"):
        for k in (3, 4, 5):
            tables = _cell_tables(kind, k, 0.05, n_t)
            grid, boxes = _boxes(kind, k, 0.05, n_t)
            sides = ((tables.u, tables.u_parts), (tables.v, tables.v_parts))
            for slot, ((box, parts), (mask, b)) in enumerate(zip(sides, boxes)):
                for seed in ([7, slot], [1000004, k]):
                    c, norm = _draws(box, seed)
                    ref, ref_norm = fft_side(mask, b, seed, grid, n_t, tables.n, parts)
                    assert _rel(norm, ref_norm) <= 1e-13, (kind, k, slot)
                    buffers = [np.full((block, tables.n), 3.0 - 1.0j) for _part in parts]
                    for start in range(0, n_t, block):
                        rows = slice(start, min(start + block, n_t))
                        samples = _windowed_side(box, parts, c, rows, n_t, buffers)
                        for full, buffer, want in zip(samples, buffers, ref, strict=True):
                            assert full.base is buffer and full.shape == (rows.stop - start, tables.n)
                            assert np.max(np.abs(full - want[rows])) <= 1e-13 * np.max(np.abs(want)), (kind, k, slot)


def _one_block(monkeypatch, kind, k, seed_key, n_t):
    """The cell as one block of all n_t time rows."""
    with monkeypatch.context() as m:
        m.setattr(rates, "_BLOCK_BYTES", 1 << 40)
        _cell_tables.cache_clear()
        assert _cell_tables(kind, k, 0.05, n_t).rows == n_t
        ratio = _one_cell(kind, k, 0.05, seed_key, n_t)
    _cell_tables.cache_clear()
    return ratio


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_blocked_cell_matches_one_block(kind, monkeypatch):
    # the default blocks (one block up to k = 5, several at k = 8) against
    # the whole cell in one block
    for k in range(3, 9):
        rows = _cell_tables(kind, k, 0.05, 256).rows
        assert rows == 256 if k <= 5 else k < 8 or rows < 256, (k, rows)
        for seed_key in (3, 1000004):
            blocked = _one_cell(kind, k, 0.05, seed_key, 256)
            whole = _one_block(monkeypatch, kind, k, seed_key, 256)
            assert _rel(blocked, whole) <= 1e-13, (k, seed_key, blocked, whole)


@pytest.mark.parametrize("n_t", [72, 200])
def test_short_last_block_matches_one_block(n_t, monkeypatch):
    # a byte budget of 20 rows of the cell's work gives blocks of 16 rows
    # whose last one holds 8, so the row sums, the alternating one among
    # them, carry over several block edges
    for kind in KIND_ORDER:
        for k in (3, 4, 5):
            whole = _one_block(monkeypatch, kind, k, 5, n_t)
            tables = _cell_tables(kind, k, 0.05, n_t)
            parts = len(tables.u_parts) + len(tables.v_parts)
            width = tables.n * parts + 2 * max(tables.u.tau0.size, tables.v.tau0.size)
            with monkeypatch.context() as m:
                m.setattr(rates, "_BLOCK_BYTES", 16 * width * 20)
                _cell_tables.cache_clear()
                assert _cell_tables(kind, k, 0.05, n_t).rows == 16 and n_t % 16 == 8
                blocked = _one_cell(kind, k, 0.05, 5, n_t)
            _cell_tables.cache_clear()
            assert _rel(blocked, whole) <= 1e-13, (kind, k, blocked, whole)


def test_block_rows_balanced_within_budget():
    budget = rates._BLOCK_BYTES
    for n_t in (2, 8, 64, 72, 200, 256, 1024):
        for width in (1, 50, 420, 532, 660, 4228, 10**6):
            rows = _block_rows(n_t, width)
            blocks = -(-n_t // rows)
            assert 0 < rows <= n_t and (rows % 8 == 0 or rows == n_t)
            assert rows == 8 or rows == n_t or 16 * rows * width <= budget, (n_t, width)
            # balanced: the next smaller multiple of 8 would need another block
            assert rows in (8, n_t) or -(-n_t // (rows - 8)) > blocks, (n_t, width)


def test_kkk3_cell_memory_stays_in_blocks(monkeypatch):
    # the widest default cell (kkk3 at k = 8, two 1,600-point parts): with
    # its tables built, one cell's transient allocations stay under 1.5 MB
    # besides its part buffers (the samples and gathered phases of u's 514
    # columns over all 256 rows alone take 4.2 MB), and no part buffer
    # holds more rows than a block
    buffers, original = [], rates._part_buffers

    def recording(tables):
        made = original(tables)
        buffers.extend(b for side in made for b in side)
        return made

    monkeypatch.setattr(rates, "_part_buffers", recording)
    _one_cell("kkk3", 8, 0.05, 1, 256)
    buffers.clear()
    tracemalloc.start()
    try:
        _one_cell("kkk3", 8, 0.05, 2, 256)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = _cell_tables("kkk3", 8, 0.05, 256)
    parts = len(tables.u_parts) + len(tables.v_parts)
    assert len(buffers) == parts == 2
    assert all(b.shape == (tables.rows, 1600) for b in buffers) and tables.rows < 256
    assert peak <= 1.5e6 + parts * tables.rows * tables.n * 16, peak


@pytest.mark.parametrize("n_t", [64, 256])
def test_wrapping_and_nyquist_columns(n_t):
    # a column xi holds rows xi^2 + {-2, -1, 1, 2} mod n_t:
    # they wrap past tau = 0 when xi^2 = 0 or 1 mod n_t (xi^2 = -1, -2 are
    # not squares mod 4), and one of them is the excluded Nyquist row when
    # xi^2 = n_t/2 + 1 mod n_t.  Each such column alone, in the quadratic
    # form, against the time-axis FFT pair
    k = 5
    tables = _cell_tables("gain1", k, 0.05, n_t)
    grid, ((mask, b), _v) = _boxes("gain1", k, 0.05, n_t)
    cols = np.flatnonzero(mask.any(axis=0))
    sq = (grid.frequencies[cols].astype(np.int64) ** 2) % n_t
    wrap = np.flatnonzero(np.isin(sq, (0, 1)))
    nyquist = np.flatnonzero(sq == n_t // 2 + 1)
    assert wrap.size and nyquist.size
    tau0, q = tables.u.tau0, tables.u.q
    rng = np.random.default_rng(12)
    for j in (*wrap, *nyquist):
        rows = np.flatnonzero(mask[:, cols[j]])
        if j in wrap:  # rows on both sides of tau = 0; the start is before it
            assert rows.min() <= 2 and rows.max() >= n_t - 2 and tau0[j] >= n_t - 2
        else:  # next to the Nyquist row, which is not among them
            assert n_t // 2 not in rows and np.any(np.abs(rows - n_t // 2) <= 2)
        assert np.all((rows - tau0[j]) % n_t < q.shape[1])
        for _ in range(3):
            vals = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
            c = np.zeros(q.shape[1], dtype=np.complex128)
            c[(rows - tau0[j]) % n_t] = vals
            form = TWO_PI * TWO_PI * float(np.real(np.conj(c) @ q[j] @ c))
            # the oracle draws from a seed; feed it these values instead
            samples = np.zeros(n_t, dtype=np.complex128)
            samples[rows] = vals
            cw = np.fft.fft(np.fft.ifft(samples) * window_weights(n_t))
            cw[n_t // 2] = 0.0
            weight = (1.0 + parabola_distance(n_t, grid.frequencies[cols[j : j + 1]])[:, 0]) ** (2.0 * b)
            ref = TWO_PI * TWO_PI * float(np.sum(weight * np.abs(cw) ** 2))
            assert _rel(form, ref) <= 1e-13, (j, form, ref)


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_parseval_flag_iff_multiplier_one_on_span(kind):
    # a group's flag is set exactly when the multiplier is 1 on every output
    # frequency from the least to the largest sum of its pairs' columns
    conj2, v_pattern, out_pattern, _vb, u_side, v_side = KINDS[kind]
    sign = -1 if conj2 else 1
    for k in range(1, 10):
        grid = Grid(2 ** (k + 3))
        full_mult = np.ones(grid.n) if out_pattern is None else _output_multiplier(grid, out_pattern, k)
        full_mult[grid.n // 2] = 0.0
        for n_t in (64, 256):
            tables = _cell_tables(kind, k, 0.05, n_t)
            u = _occupied_freqs(box_mask(grid, n_t, 2**k, 2 ** (k + 1), 1.0, 2.0, u_side), n_t)
            v = _occupied_freqs(box_mask(grid, n_t, *_band(v_pattern, k), 1.0, 2.0, v_side), n_t)
            for group in tables.groups:
                sums = np.concatenate([
                    np.add.outer(u[_positions(tables.u_parts[a])], sign * v[_positions(tables.v_parts[b])]).ravel()
                    for a, b in group.pairs
                ])
                span = np.arange(sums.min(), sums.max() + 1)
                assert group.parseval == bool(np.all(full_mult[span % grid.n] == 1.0)), (k, n_t)
    # in the default sweep the unprojected kinds take the x-side Parseval and
    # the other projected kinds do not (gain1: the next test)
    if kind != "gain1":
        flags = {g.parseval for k in range(3, 9) for g in _cell_tables(kind, k, 0.05, 256).groups}
        assert flags == {out_pattern is None}


def test_gain1_projection_is_one_wherever_its_products_land():
    # in the default sweep every group of gain1's parts takes the x-side
    # Parseval: its split groups miss the low frequencies where its `similar`
    # projection falls below 1, so the projection cuts nothing and no fault
    # in it can move gain1's ratios
    for k in range(3, 9):
        groups = _cell_tables("gain1", k, 0.05, 256).groups
        assert groups and all(group.parseval for group in groups), k


def test_experiment_report_shape():
    rep = product_rate_experiment("gain3", (3, 5), 0.05, n_seeds=3, n_t=64, seed=5)
    assert rep.ks == [3, 4, 5]
    assert len(rep.medians) == 3
    assert all(m > 0 for m in rep.medians)
    assert not rep.degenerate
    assert len(rep.ratios[3]) == 3
    assert rep.grid_n == {k: _cell_tables("gain3", k, 0.05, 64).n for k in (3, 4, 5)}
    assert rep.tables_s > 0
    assert np.isfinite(rep.slope) and np.isfinite(rep.stderr)


def test_threads_do_not_change_values():
    # k runs over three scales, so every worker thread switches tables; a
    # short switch interval makes the threads interleave.  gain1's v side
    # occupies few columns of its buffer, so a column the cell left unwritten
    # would change its values; gain2 up to k = 7 splits both factors, four
    # part buffers per cell
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for kind, threads, ks in (("kkk3", 3, (3, 5)), ("kkk1", 2, (3, 5)), ("plusminus", 2, (3, 5)),
                                  ("gain1", 3, (3, 5)), ("gain2", 3, (5, 7))):
            a = product_rate_experiment(kind, ks, 0.05, n_seeds=3, n_t=64, seed=9, threads=1)
            b = product_rate_experiment(kind, ks, 0.05, n_seeds=3, n_t=64, seed=9, threads=threads)
            assert a.ratios == b.ratios
            assert a.medians == b.medians
            assert a.grid_n == b.grid_n and a.transforms == b.transforms
    finally:
        sys.setswitchinterval(interval)
    # one grid size, different part counts: gain2 at k = 8 transforms four
    # parts on 270 points and plusminus at k = 7 two
    shared = [_cell_tables(kind, k, 0.05, 256) for kind, k in (("gain2", 8), ("plusminus", 7))]
    assert [(t.n, len(t.u_parts) + len(t.v_parts)) for t in shared] == [(270, 4), (270, 2)]


def _default_boxes():
    """The distinct (k, pattern, xi side, b) boxes of the default kinds at
    k = 3..8 (delta 0.05)."""
    boxes = set()
    for _conj2, v_pattern, _out, vb_tag, u_side, v_side in KINDS.values():
        bv = 0.5 + 0.05 if vb_tag == "plus" else 0.5 - 0.05
        boxes |= {(k, "band", u_side, 0.5 + 0.05) for k in range(3, 9)}
        boxes |= {(k, v_pattern, v_side, bv) for k in range(3, 9)}
    return boxes


def test_box_tables_built_once_per_box():
    # the kinds share six boxes per scale: one build each over the sweep
    rates._box_table.cache_clear()
    _cell_tables.cache_clear()
    for kind in KIND_ORDER:
        for k in range(3, 9):
            _cell_tables(kind, k, 0.05, 256)
    info = rates._box_table.cache_info()
    assert info.misses == info.currsize == len(_default_boxes()) == 36
    assert info.hits == 2 * 48 - 36


def test_cells_from_shared_boxes_equal_fresh_builds():
    # every cell of the sweep, its boxes built by whichever kind came first,
    # against the same cell built alone from empty caches
    rates._box_table.cache_clear()
    shared = {(kind, k): _one_cell(kind, k, 0.05, 21, 64) for kind in KIND_ORDER for k in range(3, 9)}
    for (kind, k), ratio in shared.items():
        rates._box_table.cache_clear()
        _cell_tables.cache_clear()
        assert _one_cell(kind, k, 0.05, 21, 64) == ratio, (kind, k)


def test_box_tables_hold_only_band_columns(monkeypatch):
    # the parabola distance is computed on a box's band columns only, and
    # no distance table outlives the build; the shared arrays are indexed
    # by the box's occupied columns
    tables, original = [], spacetime.parabola_distance

    def recording(n_t, xi):
        dist = original(n_t, xi)
        tables.append((np.size(xi), weakref.ref(dist)))
        return dist

    monkeypatch.setattr(spacetime, "parabola_distance", recording)
    rates._box_table.cache_clear()
    for k, pattern, side, b in sorted(_default_boxes()):
        n = 2 ** (k + 3)
        box = rates._box_table(k, pattern, side, b, 256)
        lo, hi = _band(pattern, k)
        xi = Grid(n).frequencies
        band = (np.abs(xi) >= lo) & (np.abs(xi) <= hi) & (np.sign(xi) != {"+": -1, "-": 1}.get(side, 0))
        size, _ref = tables[-1]
        assert size == np.count_nonzero(band) < n
        ncols = box.freqs.size
        assert np.all(band[box.freqs % n])
        assert box.tau0.shape == (ncols,) and box.q.shape[0] == ncols
        assert box.place.size <= 256 * ncols
    gc.collect()
    assert len(tables) == 36 and all(ref() is None for _size, ref in tables)
    rates._box_table.cache_clear()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        product_rate_experiment("mystery", (3, 4), 0.05, n_seeds=2)


def test_one_scale_rejected():
    # a slope needs two scales; one would divide by zero in the fit
    with pytest.raises(ValueError):
        product_rate_experiment("gain1", (3, 3), 0.05, n_seeds=2, n_t=64)
