"""Hot numerical kernels, in numpy only.

* The dense bilinear symbol contraction  out[(i+j) % n] += sym[i,j]*u[i]*v[j],
  an O(n^2) pass.  The lift symbols of u2 and uubar factor through FFTs
  (bilinear.apply_lift), so it runs for the ubar2 lift, whose mismatch does
  not factor, and for the dense reference symbols.  It is one bincount over
  the float64 view of the product on the inputs' support (the indices where
  they are nonzero) into wrap bins built once per support, row by row over
  a stack of rows (..., n) in each slot, so its sums do not depend on what
  else is installed.
* The trilinear box contractions of the alternating maximizer for the
  multiplier lower bounds: each partial runs on the box's index triples,
  sorted once by the output slot's cell, as one gather-multiply and one
  segment sum (np.add.reduceat).
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
# mu_index.  The caller lists every admissible triple (c1, c2, c3) once; a
# partial contracts two slots over that list into the third.  For each
# output slot the triples are kept sorted by that slot's cell, so a partial
# is one gather of the two factors, one product, and one segment sum over
# the runs of equal output cell, scattered into the touched cells.


class Segments(NamedTuple):
    """The triples sorted by one output slot: the other two slots' cells in
    that order (lower slot first), the start of each run of equal output
    cell, and that run's output cell."""

    first: np.ndarray
    second: np.ndarray
    starts: np.ndarray
    cells: np.ndarray


def _segments(cells, out) -> Segments:
    order = np.argsort(cells[out], kind="stable")
    key = cells[out][order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    a, b = (cells[i][order] for i in range(3) if i != out)
    seg = Segments(a, b, starts, key[starts])
    for arr in seg:
        arr.setflags(write=False)
    return seg


class Triples:
    """Admissible triples as three equal-length arrays of flat cell indices,
    with the number of cells of each slot, and per output slot the triples
    sorted into segments of equal output cell."""

    def __init__(self, cells, sizes):
        self.cells = tuple(np.asarray(t, dtype=np.intp) for t in cells)
        self.sizes = tuple(sizes)
        self.segments = tuple(_segments(self.cells, out) for out in range(3))

    def __len__(self) -> int:
        return len(self.cells[0])


def _contract(tri, a, b, out):
    """Sum over triples of a[c_lo] * b[c_hi] into slot out's cells, where
    c_lo and c_hi are the triple's cells in the other two slots, lower
    slot first."""
    seg = tri.segments[out]
    res = np.zeros(tri.sizes[out], dtype=np.complex128)
    if seg.starts.size == 0:  # no triples: reduceat needs one start
        return res
    prod = np.asarray(a, dtype=np.complex128).ravel()[seg.first]
    prod *= np.asarray(b, dtype=np.complex128).ravel()[seg.second]
    res[seg.cells] = np.add.reduceat(prod, seg.starts)
    return res


def trilinear_partial3(u1, u2, tri):
    """p3[c3] = sum over triples (c1, c2, c3) of u1[c1] * u2[c2]."""
    return _contract(tri, u1, u2, 2)


def trilinear_partial1(u2, u3, tri):
    """p1[c1] = sum over triples (c1, c2, c3) of u2[c2] * u3[c3]."""
    return _contract(tri, u2, u3, 0)


def trilinear_partial2(u1, u3, tri):
    """p2[c2] = sum over triples (c1, c2, c3) of u1[c1] * u3[c3]."""
    return _contract(tri, u1, u3, 1)
