"""Dyadic bilinear rate experiments.

Each experiment kind measures, for band scale k, the ratio

    || Proj( W u . (conj?) W v ) ||_{L2_{t,x}}
    --------------------------------------------
    ||W u||_{X^{0, bu}} . ||W v||_{X^{0, bv}}

for random unit-norm box-localized inputs (W is the time window).  The
median ratio over an ensemble of seeds is regressed against k in log2
scale.  On the 2*pi-periodic grid with an O(1) time window that slope is
not the decay rate of the continuum bilinear estimate: for independent
Gaussian cells the mean squared numerator counts the cell pairs that the
output projection keeps and carries no transversality, so the transversal
gain of the estimate on the line does not show (README *Known-red checks*).

The eight kinds:

    gain1      (u_k v_{<<k})_{~k}     plain product, comparable output
    gain2      (u_k v_k)_{<<k}        plain product, low output
    gain3      u_k v                  plain product, no output projection
    kkk1       (u_k conj(v_k))_k      conjugate product, band-k output
    kkk2       (u_k conj(v_{<<k}))_k  conjugate product, band-k output
    kkk3       u_k conj(v)            conjugate product, no projection
    kkkk1      kkk1 with the v norm at b = 1/2 - delta instead of 1/2 + delta
    plusminus  (u+_{~k} v-_{~k})_{~k} positive-frequency u, negative v

The boxes and the output multiplier are defined on n_x = 2^(k+3) points,
where every box and every product is representable; the time grid is fixed
(default 256 points over one 2*pi period, which puts tau on the integer
lattice).

A cell works on space-time coefficients and runs no time-axis transform.
Each occupied xi column of a factor's box holds its draws on a few rows
tau0 + r, 0 <= r < R (R = 5: tau - xi^2 in {-2, -1, 1, 2}), so its
windowed time samples are a rank-R synthesis, (cis[:, :R] @ C) times the
column's phase and window, and its X^{0,b} norm is a quadratic form
C^H Q C whose R x R blocks come from the circularly shifted coefficients
of the window.

Along x a cell moves each factor onto a small transform grid in one or two
parts.  A dyadic box |xi| ~ 2^k has two sign halves, each 2^k wide and
centred at +-3 * 2^(k-1); a split factor puts each half on its own grid,
shifted by the integer centre s of its span, so frequency xi sits in
column (xi - s) mod M (bandpass sampling: Vaughan, Scott & White 1991).  A
factor left whole is one part at s = 0.  Each part takes one inverse
x-transform on the common M-point grid.  The pairs (u part, v part) whose
sums reach a column the output multiplier keeps are grouped by their total
shift; each group sums its pair products and takes one forward transform,
and the projected L2 norm of the group follows from Parseval along t.  The
groups keep disjoint output columns, so their squared norms add up.  M is
the smallest even 5-smooth size, at most 2^(k+3), on which every part is
distinct and every group is alias-free on its kept columns (Orszag 1971):
the shifted sums that fold onto such a column must be that column itself.
Of the four choices (split u, split v, both, neither) the cell takes the
legal one with the fewest transform points; unsplit, it is one group at
shift 0 on the whole-grid layout.  At k = 8 gain2, kkk1 and kkkk1 split
both factors (one group, 270 or 540 points), gain1 and kkk2 split u (two
groups, 288 points), and gain3 and kkk3 (where the products of both u
halves with v reach output 0, so split groups would overlap) and the
one-sided plusminus stay whole.  Where the multiplier is 1 on every column
a group can reach (gain3, kkk3 and gain1's split groups) its norm follows
from Parseval along x as well and its forward transform is skipped.
Everything that does not depend on the seed is built before a scale's
cells run.  What depends only on a factor's box (its columns, each
column's start row, the place of each draw, Q) is built once per box and
scale and shared by every kind with that box, on the box's band columns
only; the rest (the parts, the groups, the transform grid, the multiplier
on it) is built once per (kind, k) and held for one (kind, k) at a time.
A cell runs its time rows in blocks, each through the whole pipeline
(synthesis, scatter, x-transforms, products, row sums), so that a block's
work fits in a per-core L2 cache: the sum of |X|^2 and the (-1)^t
alternating sums of each group carry from block to block and are squared
once at the end.  Every block starts on an even row, so the alternating
sums keep the global row parity.  At the default n_t = 256 every cell up
to k = 5 is one block.  Every transform runs in place, in the cell's
buffers of one block's rows for each part, zeroed before each block's
scatter, so a cell allocates no (n_t, M) array and no part buffer has
more rows than its block.  The dense
SpaceTimeField composition in spacetime.py (synth_cells, apply_window,
xsb_norm, st_product, st_spatial_multiplier, st_l2_norm) on the 2^(k+3)
grid computes the same ratio and is the reference the tests compare the
cell against.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .spectral import Grid, fft_size, lp_annulus, lp_bump
from .spacetime import TWO_PI, box_columns, fit_line, window_weights

# kind -> (conjugate second slot, v synth pattern, output projection pattern,
#          v norm exponent tag, u side, v side)
KINDS = {
    "gain1": (False, "muchless", "similar", "plus", "both", "both"),
    "gain2": (False, "band", "muchless", "plus", "both", "both"),
    "gain3": (False, "broad", None, "plus", "both", "both"),
    "kkk1": (True, "band", "exact", "plus", "both", "both"),
    "kkk2": (True, "muchless", "exact", "plus", "both", "both"),
    "kkk3": (True, "broad", None, "plus", "both", "both"),
    "kkkk1": (True, "band", "exact", "minus", "both", "both"),
    "plusminus": (False, "band", "similar", "plus", "+", "-"),
}

KIND_ORDER = list(KINDS)


@dataclass
class RateReport:
    ks: list
    medians: list
    slope: float
    stderr: float
    degenerate: bool = False
    ratios: dict = field(default_factory=dict)  # k -> list over seeds
    grid_n: dict = field(default_factory=dict)  # k -> transform grid points
    transforms: dict = field(default_factory=dict)  # k -> (n_t, grid_n) transforms per cell
    block_rows: dict = field(default_factory=dict)  # k -> time rows per block of a cell
    tables_s: float = 0.0  # time spent building the seed-independent tables


def _output_multiplier(grid: Grid, pattern: str, k: int) -> np.ndarray:
    xi = grid.frequencies
    if pattern == "similar":
        sym = np.zeros(grid.n)
        for j in range(max(1, k - 3), k + 4):
            sym += lp_annulus(xi / float(2**j))
        return sym
    if pattern == "muchless":
        sym = lp_bump(xi).copy()
        for j in range(1, k - 5):
            sym += lp_annulus(xi / float(2**j))
        return sym
    if pattern == "exact":
        return lp_annulus(xi / float(2**k))
    raise ValueError(f"unknown output pattern {pattern!r}")


def _band(pattern: str, k: int) -> tuple:
    """(freq_lo, freq_hi) of |xi| in a factor's box at scale k: u's box is
    the band pattern, v's the pattern of its kind."""
    if pattern == "band":
        return 2**k, 2 ** (k + 1)
    if pattern == "muchless":
        n2 = max(1, 2 ** (k - 6))
        return n2, 2 * n2
    if pattern == "broad":
        return 1.0, float(2**k)
    raise ValueError(f"unknown v pattern {pattern!r}")


def _column_runs(cols: np.ndarray) -> tuple:
    """(destination, source) slice pairs of the maximal runs of consecutive
    indices in cols: a scatter by slices is several times cheaper than a
    fancy-indexed one."""
    if cols.size == 0:
        return ()
    breaks = np.flatnonzero(np.diff(cols) != 1) + 1
    starts = [0, *breaks.tolist()]
    ends = [*breaks.tolist(), cols.size]
    return tuple((slice(int(cols[a]), int(cols[b - 1]) + 1), slice(a, b)) for a, b in zip(starts, ends))


def _signed(cols: np.ndarray, n: int) -> np.ndarray:
    """Signed frequency indices of the FFT-order columns cols of an n-point grid."""
    return np.where(cols < n // 2, cols, cols - n)


def _transform_grid(u_freqs: np.ndarray, v_freqs: np.ndarray, mult: np.ndarray, shift: int) -> tuple:
    """(M, kept) for a product of factors whose columns hold the signed
    frequencies u_freqs and v_freqs (v already negated for a conjugate slot)
    and the output multiplier mult on the mult.size-point grid, where column
    j of the product holds the output frequency j + shift.

    kept are the columns inside the span [s_lo, s_hi] of the sums where mult
    is nonzero, K the largest |j| among them.  M is the smallest even
    5-smooth grid size on which the product is alias-free there: M > 2K
    keeps every kept column off the Nyquist column and distinct mod M;
    M > K - s_lo and M > s_hi + K keep every shifted span [s_lo, s_hi] + jM
    (j != 0) out of [-K, K] (Orszag 1971); M larger than each factor's spread
    keeps its columns distinct.  mult.size caps the search: it qualifies
    for the unshifted product of the two whole factors."""
    n_max = mult.size
    s_lo = int(u_freqs.min() + v_freqs.min())
    s_hi = int(u_freqs.max() + v_freqs.max())
    freqs = _signed(np.flatnonzero(mult), n_max) - shift
    kept = freqs[(freqs >= s_lo) & (freqs <= s_hi)]
    big_k = int(np.abs(kept).max()) if kept.size else 0
    spread = max(int(np.ptp(u_freqs)), int(np.ptp(v_freqs)))
    return fft_size(max(2 * big_k, big_k - s_lo, s_hi + big_k, spread), n_max), kept


# rows of the left factor per BLAS call in _thin_matmul
_BLAS_ROWS = 8

# bytes of complex work one block of time rows of a rate cell may hold: 2.25
# MiB, about a 2 MiB per-core L2 cache, and enough that every default cell
# up to k = 5 (at most 2.08 MiB of work at n_t = 256) stays one block
_BLOCK_BYTES = 9 << 18


def _block_rows(n_t: int, width: int) -> int:
    """Time rows per block of a rate cell whose rows each hold width complex
    values of work: at most _BLOCK_BYTES of it per block, and balanced
    multiples of _BLAS_ROWS (the last block may be shorter), at most n_t.
    Every block then starts on an even row."""
    cap = max(_BLAS_ROWS, _BLOCK_BYTES // (16 * width) // _BLAS_ROWS * _BLAS_ROWS)
    per_block = -(-n_t // -(-n_t // cap))
    return min(-(-per_block // _BLAS_ROWS) * _BLAS_ROWS, n_t)


def _thin_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, one BLAS call per block of _BLAS_ROWS rows of a.

    The rate sweep makes thousands of these products, each too small to gain
    from threads.  Small calls keep a threaded BLAS on one thread; a threaded
    call leaves its idle threads spinning for about 0.1 s, which doubled the
    CPU time of an unpinned sweep."""
    rows = a.shape[0]
    pad = -rows % _BLAS_ROWS
    if pad:
        a = np.concatenate((a, np.zeros((pad, a.shape[1]), dtype=a.dtype)))
    return (a.reshape(-1, _BLAS_ROWS, a.shape[1]) @ b).reshape(rows + pad, -1)[:rows]


@lru_cache(maxsize=4)
def _time_tables(n_t: int) -> tuple:
    """(cis, cisw, what) of one time grid: cis[t, tau] = exp(2 pi i tau t / n_t),
    cisw = (window / n_t) * cis, and what the window's discrete Fourier
    coefficients fft(window) / n_t.  Read-only; worker threads share them."""
    t = np.arange(n_t)
    cis = np.exp((2j * math.pi / n_t) * (np.outer(t, t) % n_t))
    window = window_weights(n_t)
    cisw = cis * (window / n_t)[:, None]
    what = np.fft.fft(window) / n_t
    for a in (cis, cisw, what):
        a.setflags(write=False)
    return cis, cisw, what


class _Part(NamedTuple):
    """The occupied columns of a factor, or of one sign half of it, on the
    transform grid: frequency xi sits in column (xi - shift) mod n.  runs are
    the (destination, source) slices from the factor's samples (one column
    per occupied column of its box) into the part's n-point buffer."""

    shift: int
    runs: tuple


class _Box(NamedTuple):
    """One factor's box at scale k with its X^{0,b} form, whatever the kind.

    freqs are the signed frequencies of its occupied columns in FFT order
    (Nyquist row and column excluded).  tau0[j] is occupied column j's
    cyclic start row: every occupied row of the column is tau0[j] + r
    (mod n_t) with 0 <= r < R.  place holds the flat index into the
    (R, columns) coefficient block C of each draw, in the row-major order
    of the box mask that synth_cells fills, and q the (columns, R, R)
    quadratic form with ||W u||^2_{X^{0,b}} = sum_j C_j^H q_j C_j (up to
    the factor (2 pi)^2)."""

    freqs: np.ndarray
    tau0: np.ndarray
    place: np.ndarray
    q: np.ndarray


@lru_cache(maxsize=64)
def _box_table(k: int, pattern: str, side: str, weight_b: float, n_t: int) -> _Box:
    """The _Box of the box with |xi| in _band(pattern, k) on the given xi
    side and modulation in [1, 2] on the 2^(k+3)-point grid, with its
    X^{0,b} form at b = weight_b.

    The parabola distance is computed on the band's columns only.  Kinds
    share boxes, so the cache holds every box of a default sweep (six per
    scale) and each is built once; every array is read-only because worker
    threads share it; an empty box raises (no box at an even n_t is
    empty, so this is a guard)."""
    grid = Grid(2 ** (k + 3))
    cols, sub, dist = box_columns(grid, n_t, *_band(pattern, k), 1.0, 2.0, side)
    sub[n_t // 2, :] = False
    sub[:, cols == grid.n // 2] = False
    occupied = sub.any(axis=0)
    if not occupied.any():
        raise ValueError("empty cell set for synthetic field")
    cols, sub, dist = cols[occupied], sub[:, occupied], dist[:, occupied]
    rows, col = np.nonzero(sub)  # row-major: the order of the draws
    # each column starts on the row after its widest cyclic gap between
    # occupied rows, so a column whose rows wrap past tau = 0 stays compact
    by_col, by_row = np.nonzero(sub.T)
    starts = np.searchsorted(by_col, np.arange(cols.size))
    prev = np.roll(by_row, 1)
    prev[starts] = by_row[np.r_[starts[1:], by_row.size] - 1] - n_t
    gap = by_row - prev
    after = np.lexsort((-gap, by_col))[starts]
    tau0 = by_row[after]
    span = n_t + 1 - int(gap[after].min())
    place = ((rows - tau0[col]) % n_t) * cols.size + col
    # q_j = sum_sigma wsh[j, sigma] conj(what[sigma - r]) what[sigma - s]: the
    # windowed coefficient of row tau0_j + sigma is sum_r what[sigma - r] C_rj
    _cis, _cisw, what = _time_tables(n_t)
    weight = (1.0 + dist) ** (2.0 * weight_b)
    weight[n_t // 2, :] = 0.0
    sigma = np.arange(n_t)
    wsh = np.take(weight, (sigma[None, :] + tau0[:, None]) % n_t * cols.size + np.arange(cols.size)[:, None])
    shifted = what[(sigma[:, None] - np.arange(span)[None, :]) % n_t]
    pairs = (np.conj(shifted)[:, :, None] * shifted[:, None, :]).reshape(n_t, span * span)
    q = _thin_matmul(wsh, pairs.view(np.float64)).view(np.complex128).reshape(cols.size, span, span)
    freqs = _signed(cols, grid.n)
    for a in (freqs, tau0, place, q):
        a.setflags(write=False)
    return _Box(freqs, tau0, place, q)


class _Group(NamedTuple):
    """Pairs of parts whose products the cell sums before one forward
    transform: every pair (u part, v part) in pairs has the total shift
    shift (a v part's shift counted negated for a conjugate slot), so column
    j of the sum holds output frequency j + shift.  mult is the output
    multiplier in those columns, and out_runs holds (slice of the product's
    float64 view, mult^2 repeated for the real and imaginary parts) for each
    run of columns where mult is nonzero.  parseval is set when mult is 1 on
    every column the group's products can reach: its projected L2 norm is
    then the plain one, taken in x."""

    shift: int
    pairs: tuple
    mult: np.ndarray
    out_runs: tuple
    parseval: bool


class _CellTables(NamedTuple):
    """The seed-independent part of one (kind, k) rate cell: the transform
    grid n, the two factors' shared _Boxes, the _Parts of each on that grid
    (the whole box, or its two sign halves), the _Groups of those parts,
    the number of (n_t, n) transforms a cell runs (one inverse per part,
    one forward per group without parseval) and the time rows per block
    (_block_rows)."""

    n: int
    u: _Box
    v: _Box
    u_parts: tuple
    v_parts: tuple
    groups: tuple
    transforms: int
    rows: int


def _halves(freqs: np.ndarray, split: bool) -> tuple:
    """(shift, start, stop) of a factor's parts over its occupied columns in
    FFT order, whose signed frequencies are freqs: the whole factor at shift
    0, or each nonempty sign half shifted by the integer centre of its span.
    The columns of xi >= 0 come first in FFT order, so each half is one
    range of positions."""
    if not split:
        return ((0, 0, freqs.size),)
    p = int(np.count_nonzero(freqs >= 0))
    return tuple(
        ((int(freqs[a:b].min()) + int(freqs[a:b].max())) // 2, a, b) for a, b in ((0, p), (p, freqs.size)) if b > a
    )


def _plan(u_freqs: np.ndarray, v_freqs: np.ndarray, sign: int, mult: np.ndarray, split_u: bool,
          split_v: bool):
    """(transforms, n, u halves, v halves, groups) of one choice of split
    factors, or None when the choice is illegal.

    u_freqs and v_freqs are the factors' signed frequencies, sign is -1 for
    a conjugate second slot and mult the output multiplier on the
    mult.size-point grid.  The pairs of parts whose sums reach a frequency
    where mult is nonzero are grouped by total shift; parts in no such pair
    are dropped.  The choice is legal when no two groups keep a common
    output frequency, so that the groups' squared projected norms add up,
    and no u part is in two pairs, so that the cell forms each product in
    place in the u part's samples and allocates no (n_t, n) array for it.
    n is the smallest transform grid that is alias-free for every group
    (_transform_grid on its shifted frequencies).  A cell runs one inverse
    (n_t, n) transform per part and one forward transform per group whose
    norm Parseval along x does not give; the points of those transforms are
    the choice's cost.  Unsplit, this is the whole-grid cell: one group at
    shift 0.  A split choice whose grid reaches the cap mult.size is
    illegal too: the cap is alias-free for the unshifted product, not
    necessarily for shifted groups.  The halves are (shift, start, stop)
    as in _halves, and a group is (shift, pairs of indices into the halves
    kept, kept columns, parseval flag as in _Group)."""
    n_max = mult.size
    kept_all = _signed(np.flatnonzero(mult), n_max)
    u_all, v_all = _halves(u_freqs, split_u), _halves(v_freqs, split_v)
    u_sh = [u_freqs[a:b] - s for s, a, b in u_all]
    v_sh = [sign * (v_freqs[a:b] - s) for s, a, b in v_all]
    by_shift: dict = {}
    for i, (su, _a, _b) in enumerate(u_all):
        for j, (sv, _c, _d) in enumerate(v_all):
            shift = su + sign * sv
            lo = u_sh[i].min() + v_sh[j].min()
            hi = u_sh[i].max() + v_sh[j].max()
            if np.any((kept_all >= lo + shift) & (kept_all <= hi + shift)):
                by_shift.setdefault(shift, []).append((i, j, lo, hi))
    used_u = sorted({p[0] for pairs in by_shift.values() for p in pairs})
    used_v = sorted({p[1] for pairs in by_shift.values() for p in pairs})
    n, groups = 0, []
    for shift, pairs in by_shift.items():
        us = np.concatenate([u_sh[i] for i in sorted({p[0] for p in pairs})])
        vs = np.concatenate([v_sh[j] for j in sorted({p[1] for p in pairs})])
        m, kept = _transform_grid(us, vs, mult, shift)
        n = max(n, m)
        # mult is 1 on every output frequency the group's pairs reach
        reach = np.arange(min(p[2] for p in pairs), max(p[3] for p in pairs) + 1) + shift
        parseval = bool(np.all(mult[reach % n_max] == 1.0))
        groups.append((shift, tuple((used_u.index(p[0]), used_v.index(p[1])) for p in pairs), kept, parseval))
    outputs = np.concatenate([kept + shift for shift, _p, kept, _f in groups]) if groups else kept_all[:0]
    shared_u = sum(len(pairs) for pairs in by_shift.values()) > len(used_u)
    if shared_u or np.unique(outputs).size < outputs.size or ((split_u or split_v) and n >= n_max):
        return None
    transforms = len(used_u) + len(used_v) + sum(not g[3] for g in groups)
    return transforms, n, tuple(u_all[i] for i in used_u), tuple(v_all[j] for j in used_v), tuple(groups)


def _group(shift: int, pairs: tuple, kept: np.ndarray, parseval: bool, mult: np.ndarray, n: int) -> _Group:
    """The _Group of one group of _plan on the n-point grid, mult the output
    multiplier on the 2^(k+3)-point grid."""
    mult_n = np.zeros(n)
    mult_n[kept % n] = mult[(kept + shift) % mult.size]
    out_runs = tuple(
        (slice(2 * dest.start, 2 * dest.stop), np.repeat(mult_n[dest] ** 2, 2))
        for dest, _src in _column_runs(np.flatnonzero(mult_n))
    )
    for a in (mult_n, *(w for _s, w in out_runs)):
        a.setflags(write=False)
    return _Group(shift, pairs, mult_n, out_runs, parseval)


def _parts(freqs: np.ndarray, halves: tuple, n: int) -> tuple:
    """The _Parts of a factor with signed frequencies freqs on the n-point
    grid, one for each (shift, start, stop) in halves."""
    parts = []
    for shift, a, b in halves:
        cols = (freqs[a:b] - shift) % n
        runs = tuple((dest, slice(a + src.start, a + src.stop)) for dest, src in _column_runs(cols))
        parts.append(_Part(shift, runs))
    return tuple(parts)


@lru_cache(maxsize=1)
def _cell_tables(kind: str, k: int, delta: float, n_t: int) -> _CellTables:
    """Everything of a rate cell that does not depend on the seed.

    The two factors' boxes come from _box_table, shared with every kind
    that has the same box; the multiplier is built on the 2^(k+3)-point
    grid.  Of the four choices (split u, split v, both, neither) the cell
    takes the legal one with the fewest transform points (_plan), the
    unsplit one on a tie, and attaches the chosen parts to the shared
    boxes.  One entry: the sweep runs k-major, so each (kind, k) is built
    once and dropped when the next one starts; every array is read-only
    because worker threads share it."""
    conj2, v_pattern, out_pattern, vb_tag, u_side, v_side = KINDS[kind]
    grid = Grid(2 ** (k + 3))
    bv = 0.5 + delta if vb_tag == "plus" else 0.5 - delta
    u_box = _box_table(k, "band", u_side, 0.5 + delta, n_t)
    v_box = _box_table(k, v_pattern, v_side, bv, n_t)
    mult = np.ones(grid.n) if out_pattern is None else _output_multiplier(grid, out_pattern, k)
    mult[grid.n // 2] = 0.0
    u_freqs, v_freqs = u_box.freqs, v_box.freqs
    sign = -1 if conj2 else 1
    # a one-sided factor split is one part, which costs what the unsplit
    # factor costs, and the unsplit choice wins ties
    u_splits, v_splits = ((False, True) if f.min() < 0 <= f.max() else (False,) for f in (u_freqs, v_freqs))
    choices = [(su, sv) for sv in v_splits for su in u_splits]
    plans = [p for p in (_plan(u_freqs, v_freqs, sign, mult, *c) for c in choices) if p is not None]
    transforms, n, u_halves, v_halves, groups = min(plans, key=lambda p: p[0] * p[1])
    # a block holds every part's buffer rows and, while a factor is
    # synthesised, its samples and their gathered phases
    width = n * (len(u_halves) + len(v_halves)) + 2 * max(u_freqs.size, v_freqs.size)
    return _CellTables(
        n,
        u_box,
        v_box,
        _parts(u_freqs, u_halves, n),
        _parts(v_freqs, v_halves, n),
        tuple(_group(*g, mult, n) for g in groups),
        transforms,
        _block_rows(n_t, width),
    )


def _part_buffers(tables: _CellTables) -> tuple:
    """One cell's (tables.rows, tables.n) part buffers, one per part of each
    factor, left unzeroed.

    A cell runs each block of time rows through these buffers (the last,
    shorter block through their leading rows) and transforms in place:
    _windowed_side zeroes a buffer's rows in each block and then writes the
    columns of its part's runs from the samples."""
    return tuple(
        tuple(np.empty((tables.rows, tables.n), dtype=np.complex128) for _part in parts)
        for parts in (tables.u_parts, tables.v_parts)
    )


def _draws(box: _Box, seed) -> tuple:
    """(C, norm): the (R, columns) coefficient block of one factor's random
    field and the X^{0,b} norm of the windowed field, the quadratic form
    sum_j C_j^H q_j C_j.  The ratio is scale-invariant in each factor, so
    the draws are not normalised."""
    _freqs, tau0, place, q = box
    rng = np.random.default_rng(seed)
    c = np.zeros((q.shape[1], tau0.size), dtype=np.complex128)
    flat = c.reshape(-1).view(np.float64).reshape(-1, 2)
    flat[place, 0] = rng.standard_normal(place.size)
    flat[place, 1] = rng.standard_normal(place.size)
    return c, math.sqrt(TWO_PI * TWO_PI * float(np.einsum("rj,jrs,sj->", c.conj(), q, c).real))


def _windowed_side(box: _Box, parts: tuple, c: np.ndarray, rows: slice, n_t: int, buffers: tuple) -> list:
    """Space-time samples of each of a factor's parts on the time rows rows
    (up to one constant factor) of the windowed field on its box with
    coefficient block c.

    Column j holds the draws C_j on rows tau0_j + r, so its windowed samples
    are (cis[rows, :R] @ C)_j times the phase cisw[rows, tau0_j], copied into
    the leading rows of its part's buffer once those rows are zeroed; each
    buffer then takes one inverse x-transform in place and its leading rows
    are returned as that part's samples.  No time-axis transform runs."""
    cis, cisw, _what = _time_tables(n_t)
    samples = _thin_matmul(cis[rows, : c.shape[0]], c)
    # a product written into a column slice of the buffer runs row by row
    # and costs about twice one over the contiguous samples plus a copy
    samples *= np.take(cisw[rows], box.tau0, axis=1)
    out = []
    for part, buffer in zip(parts, buffers):
        full = buffer[: samples.shape[0]]
        full.fill(0.0)
        for dest, src in part.runs:
            full[:, dest] = samples[:, src]
        np.fft.ifft(full, axis=1, out=full)
        out.append(full)
    return out


def _group_sums(group: _Group, us: list, vs: list, alt: np.ndarray) -> list:
    """[sum of mult^2 |X|^2 over the block, (-1)^t alternating sum of X over
    the block's rows] for each run of output columns of a group, on one
    block of time rows that starts on an even row, X the x-transform of
    the group's summed pair products.  With parseval the one run is the
    samples themselves at mult = 1: Parseval along x gives the norm."""
    # each u part is in one pair only, so its samples take the product in place
    (a, b), *rest = group.pairs
    prod = us[a]
    prod *= vs[b]
    for a, b in rest:
        us[a] *= vs[b]
        prod += us[a]
    if group.parseval:
        # mult is 1 wherever X can be nonzero, so Parseval along x gives both
        # sums from the samples without the transform
        flat = prod.view(np.float64).reshape(-1)
        even, odd = prod.reshape(prod.shape[0] // 2, 2, -1).sum(axis=0)
        return [[float(np.einsum("i,i->", flat, flat)), (even - odd).view(np.float64)]]
    x = np.fft.fft(prod, axis=1, out=prod).view(np.float64)
    sums = []
    for cols, w in group.out_runs:
        block = x[:, cols]
        sums.append([float(np.einsum("ij,ij->j", block, block) @ w), alt[: x.shape[0]] @ block])
    return sums


def _group_square(group: _Group, sums: list, n_t: int, n: int) -> float:
    """Sum over tau and x of |mult fft2(prod)|^2 less the zeroed Nyquist row,
    up to the factor the ratio restores, from the group's _group_sums over
    all time rows: by Parseval along t, n_t times the sum of |mult X|^2
    less |sum_t (-1)^t mult X|^2."""
    if group.parseval:
        ((sq, flip),) = sums
        return n * (n_t * sq - float(np.einsum("i,i->", flip, flip)))
    total = 0.0
    for (sq, flip), (_cols, w) in zip(sums, group.out_runs):
        total += n_t * sq - float((flip * flip) @ w)
    return total


def _one_cell(kind: str, k: int, delta: float, seed_key, n_t: int) -> float:
    """Ratio for a single (kind, scale, seed) cell.

    Draws the same cells as synth_cells on the box of each factor and
    equals the SpaceTimeField composition (synth_cells, apply_window,
    xsb_norm, st_product, st_spatial_multiplier, st_l2_norm) up to
    rounding; the tests keep that composition as the oracle.  The time
    rows run in blocks of tables.rows, each through the whole pipeline;
    the groups' row sums carry from block to block and are squared once at
    the end.  The groups keep disjoint output frequencies, so their squared
    projected norms add up."""
    tables = _cell_tables(kind, k, delta, n_t)
    u_bufs, v_bufs = _part_buffers(tables)
    kind_id = KIND_ORDER.index(kind)
    cu, nu = _draws(tables.u, [seed_key, kind_id, k, 0])
    cv, nv = _draws(tables.v, [seed_key, kind_id, k, 1])
    if nu == 0.0 or nv == 0.0:
        return float("nan")
    alt = np.ones(tables.rows)
    alt[1::2] = -1.0
    totals = [[[0.0, 0.0] for _run in range(1 if g.parseval else len(g.out_runs))] for g in tables.groups]
    for start in range(0, n_t, tables.rows):
        rows = slice(start, min(start + tables.rows, n_t))
        us = _windowed_side(tables.u, tables.u_parts, cu, rows, n_t, u_bufs)
        vs = _windowed_side(tables.v, tables.v_parts, cv, rows, n_t, v_bufs)
        if KINDS[kind][0]:
            for v in vs:
                np.conjugate(v, out=v)
        for group, total in zip(tables.groups, totals):
            for run, (sq, flip) in zip(total, _group_sums(group, us, vs, alt)):
                run[0] += sq
                run[1] += flip
    sq = sum(_group_square(group, total, n_t, tables.n) for group, total in zip(tables.groups, totals))
    l2 = math.sqrt(TWO_PI * TWO_PI * sq)
    # the parts above are ifft2 of the coefficients on the (n_t, n) grid:
    # each lacks a factor n_t * n, and the coefficients of the product are
    # fft2 / (n_t * n)
    return n_t * tables.n * l2 / (nu * nv)


def product_rate_experiment(
    kind: str,
    k_range=(3, 8),
    delta: float = 0.05,
    n_seeds: int = 16,
    n_t: int = 256,
    seed: int = 0,
    threads: int = 1,
) -> RateReport:
    """Measure median decay of one bilinear rate kind across dyadic scales.

    Returns a RateReport whose slope is the log2-linear fit of the median
    ratio against k.  A kind whose ratios vanish identically is flagged
    degenerate (slope meaningless) rather than fitted.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown rate kind {kind!r}")
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    if k_lo < 1 or k_hi < k_lo + 1:
        raise ValueError(f"bad k_range {k_range!r}: the slope fit needs k_lo >= 1 and two scales or more")
    ks = list(range(k_lo, k_hi + 1))

    def work(k, i):
        return _one_cell(kind, k, delta, seed * 1000003 + i, n_t)

    # k-major: each scale's tables are built once, here, before its cells run
    ratios, grid_n, transforms, block_rows = {}, {}, {}, {}
    tables_s = 0.0
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        run = pool.map if pool is not None else map
        for k in ks:
            start = time.perf_counter()
            tables = _cell_tables(kind, k, delta, n_t)
            tables_s += time.perf_counter() - start
            grid_n[k], transforms[k], block_rows[k] = tables.n, tables.transforms, tables.rows
            ratios[k] = [float(v) for v in run(work, [k] * n_seeds, range(n_seeds))]

    medians = [float(np.median(ratios[k])) for k in ks]
    degenerate = any((not np.isfinite(m)) or m <= 0.0 for m in medians)
    if degenerate:
        slope, stderr = float("nan"), float("nan")
    else:
        slope, stderr = fit_line(ks, np.log2(medians))
    return RateReport(ks, medians, slope, stderr, degenerate, ratios, grid_n, transforms, block_rows, tables_s)
