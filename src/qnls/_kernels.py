"""Hot numerical kernels, in numpy only.

* The dense bilinear symbol contraction  out[(i+j) % n] += sym[i,j]*u[i]*v[j],
  an O(n^2) pass.  The lift symbols of u2 and uubar factor through FFTs
  (bilinear.kind_factors), so it runs for the ubar2 lift, whose mismatch
  does not factor (bilinear.lift_coeffs, under evolution.normal_form_h),
  and for the dense reference symbols.  It is one bincount over the float64
  view of the product on the inputs' support (the indices where they are
  nonzero) into wrap bins built once per support, row by row over a stack
  of rows (..., n) in each slot, so its sums do not depend on what else is
  installed.
* The trilinear box contractions of the alternating maximizer for the
  multiplier lower bounds: the box's index triples come as runs of
  contiguous slot-2 cells, and each partial is one pass over the runs,
  sorted once by the output slot's cell.  Slot 2's sum over a run is a
  difference of per-row prefix sums; slot 2's own partial scatters each
  run's value to the run's two ends and takes the prefix sum.
"""

import functools
import importlib.util
from typing import NamedTuple

import numpy as np

# read only by the benchmark's environment record; no kernel uses numba
HAS_NUMBA = importlib.util.find_spec("numba") is not None
USE_NUMBA = False


# ----------------------------------------------------------------------------
# bilinear symbol contraction
# ----------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _support_bins(n: int, rows: bytes, cols: bytes) -> np.ndarray:
    """Bins 2k and 2k + 1, interleaved, of every (i, j) in rows x cols with
    (i + j) % n = k, in row-major order, for the float64 view of the
    product block on those indices (rows and cols: the bytes of sorted intp
    index arrays).  Read-only; 16 MB for the whole grid at n = 1024."""
    i, j = np.frombuffer(rows, dtype=np.intp), np.frombuffer(cols, dtype=np.intp)
    wrap = (np.add.outer(i, j) % n).ravel()
    bins = (2 * wrap[:, None] + np.arange(2)).ravel()
    bins.setflags(write=False)
    return bins


def bilinear_contract(sym, u, v):
    """out[..., (i+j) % n] = sum_ij sym[i,j] * (u[..., i] v[..., j]),
    vectorized over the support: the indices where some row of u, and of v,
    is nonzero.  Each row is one bincount of the product block on the
    support, in row-major order, read back as complex values; the skipped
    terms are exact zeros, so every sum is bit-identical to the bincount
    over the whole grid.

    numpy's complex product fuses multiply-adds, so it does not commute,
    and on arrays of one element it rounds differently when its output
    overwrites an input or its operands broadcast.  Each product here is of
    two arrays of one shape into a new array, in the order above.

    Args:
        sym: (n, n) complex symbol matrix, sym[i, j] sampled at the grid
            frequencies of index i (slot 1) and j (slot 2).
        u, v: complex coefficient arrays of equal shape (..., n).

    Returns:
        complex array (..., n) of output coefficients.
    """
    n = u.shape[-1]
    u_rows = np.asarray(u, dtype=np.complex128).reshape(-1, n)
    v_rows = np.asarray(v, dtype=np.complex128).reshape(-1, n)
    out = np.zeros(u_rows.shape, dtype=np.complex128)
    rows, cols = (np.flatnonzero(np.any(x != 0, axis=0)) for x in (u_rows, v_rows))
    if rows.size and cols.size:
        block = np.asarray(sym, dtype=np.complex128)[np.ix_(rows, cols)]
        bins = _support_bins(n, rows.tobytes(), cols.tobytes())
        for r, (a, c) in enumerate(zip(u_rows[:, rows], v_rows[:, cols])):
            prod = np.multiply(block, np.outer(a, c))
            out[r] = np.bincount(bins, weights=prod.reshape(-1).view(np.float64), minlength=2 * n).view(np.complex128)
    return out.reshape(u.shape)


# ----------------------------------------------------------------------------
# trilinear box contractions (multiplier lower bounds)
# ----------------------------------------------------------------------------
#
# Slot vectors are flat complex arrays over cells c = xi_index * n_mu +
# mu_index, and the admissible triples come as runs of slot-2 cells (see
# Triples).  A partial is one pass over the runs.  The sum of u2 over a run
# is the difference of two prefix sums along its row, so p3 and p1 gather
# one factor and that difference per run and sum the runs of equal output
# cell; p2 adds the product of the two end-slot factors at the run's first
# position, takes it off again past its last, and takes the prefix sum
# along each row.  Prefix sums sit on rows of width + 1 entries, so a run's
# two ends are the flat indices row * (width + 1) + lo and
# row * (width + 1) + hi.


class Runs(NamedTuple):
    """The runs sorted by one output slot's cell: each run's slot-1 and
    slot-3 cells and the flat prefix indices of its two ends, the start of
    each group of runs with equal output cell and that cell.  For slot 2 a
    group shares the first end, and its cell is that prefix index."""

    c1: np.ndarray
    c3: np.ndarray
    first: np.ndarray
    last: np.ndarray
    starts: np.ndarray
    cells: np.ndarray


def _sorted_runs(key, c1, c3, first, last) -> Runs:
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    runs = Runs(c1[order], c3[order], first[order], last[order], starts, key[starts])
    for arr in runs:
        arr.setflags(write=False)
    return runs


class Triples:
    """Admissible triples as runs of slot-2 cells.

    Slot 2's cells are rows of len(order) cells, c2 = row * width + col, and
    order lists a row's columns in run order.  runs = (c1, c3, row, lo, hi),
    five equal-length arrays: run r stands for the hi - lo triples
    (c1, row * width + order[k], c3), lo <= k < hi.  sizes gives the number
    of cells of each slot.  For each output slot the runs are sorted once by
    that slot's cell (for slot 2: by the run's first position)."""

    def __init__(self, runs, order, sizes):
        c1, c3, row, lo, hi = (np.asarray(r, dtype=np.intp) for r in runs)
        self.order = np.asarray(order, dtype=np.intp)
        self.order.setflags(write=False)
        self.width = self.order.size
        self.sizes = tuple(sizes)
        self.n_triples = int(np.sum(hi - lo))
        first = row * (self.width + 1) + lo
        last = row * (self.width + 1) + hi
        self.runs = tuple(_sorted_runs(key, c1, c3, first, last) for key in (c1, first, c3))

    def __len__(self) -> int:
        return self.n_triples

    @property
    def n_runs(self) -> int:
        return self.runs[0].c1.size

    @property
    def cells(self) -> tuple:
        """Every triple's three cells, run after run: three arrays built on
        each call, for the tiny-instance search oracle."""
        c1, c3, first, last = self.runs[0][:4]
        length = last - first
        run = np.repeat(np.arange(length.size), length)
        pos = np.arange(run.size) - np.repeat(np.cumsum(length) - length, length) + first[run]
        row, k = np.divmod(pos, self.width + 1)
        return c1[run], row * self.width + self.order[k], c3[run]


def _run_sums(u2, tri, runs):
    """The sum of u2 over each run, in the order of runs."""
    rows = tri.sizes[1] // tri.width
    ordered = np.asarray(u2, dtype=np.complex128).reshape(rows, tri.width)[:, tri.order]
    prefix = np.zeros((rows, tri.width + 1), dtype=np.complex128)
    np.cumsum(ordered, axis=1, out=prefix[:, 1:])
    prefix = prefix.ravel()
    sums = prefix[runs.last]
    sums -= prefix[runs.first]
    return sums


def _group_sums(vals, runs, size):
    """Sum vals over each group of runs with equal output cell."""
    res = np.zeros(size, dtype=np.complex128)
    if runs.starts.size:  # no runs: reduceat needs one start
        res[runs.cells] = np.add.reduceat(vals, runs.starts)
    return res


def trilinear_partial3(u1, u2, tri):
    """p3[c3] = sum over triples (c1, c2, c3) of u1[c1] * u2[c2]."""
    runs = tri.runs[2]
    vals = _run_sums(u2, tri, runs)
    vals *= np.asarray(u1, dtype=np.complex128).ravel()[runs.c1]
    return _group_sums(vals, runs, tri.sizes[2])


def trilinear_partial1(u2, u3, tri):
    """p1[c1] = sum over triples (c1, c2, c3) of u2[c2] * u3[c3]."""
    runs = tri.runs[0]
    vals = _run_sums(u2, tri, runs)
    vals *= np.asarray(u3, dtype=np.complex128).ravel()[runs.c3]
    return _group_sums(vals, runs, tri.sizes[0])


def trilinear_partial2(u1, u3, tri):
    """p2[c2] = sum over triples (c1, c2, c3) of u1[c1] * u3[c3]."""
    runs = tri.runs[1]
    rows = tri.sizes[1] // tri.width
    vals = np.asarray(u1, dtype=np.complex128).ravel()[runs.c1]
    vals *= np.asarray(u3, dtype=np.complex128).ravel()[runs.c3]
    steps = _group_sums(vals, runs, rows * (tri.width + 1))
    np.subtract.at(steps, runs.last, vals)
    res = np.empty((rows, tri.width), dtype=np.complex128)
    res[:, tri.order] = np.cumsum(steps.reshape(rows, tri.width + 1)[:, :-1], axis=1)
    return res.ravel()
