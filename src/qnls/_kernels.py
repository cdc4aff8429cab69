"""Hot numerical kernels.

* The dense bilinear symbol contraction  out[(i+j) % n] += sym[i,j]*u[i]*v[j]
  (the normal-form symbols do not factor through FFTs, so this is a genuine
  O(n^2) pass).  It exists twice with identical semantics: a numba-jitted
  version, used when numba imports and the environment variable
  QNLS_DISABLE_NUMBA is unset (or "0"), and a pure-numpy twin used otherwise.
  benchmarks/bench_kernels.py times the two.
* The trilinear box contractions of the alternating maximizer for the
  multiplier lower bounds, in numpy only: each partial runs on the box's
  precomputed index triples as one gather-multiply and one bincount.
"""

import os

import numpy as np

_flag = os.environ.get("QNLS_DISABLE_NUMBA", "0").strip().lower()
NUMBA_DISABLED = _flag not in ("", "0", "false", "no")

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled via QNLS_DISABLE_NUMBA")
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False

USE_NUMBA = HAS_NUMBA and not NUMBA_DISABLED


# ----------------------------------------------------------------------------
# bilinear symbol contraction
# ----------------------------------------------------------------------------

def bilinear_contract_numpy(sym, u, v):
    """out[(i+j) % n] = sum_ij sym[i,j] * u[i] * v[j], vectorized.

    Args:
        sym: (n, n) complex symbol matrix, sym[i, j] sampled at the grid
            frequencies of index i (slot 1) and j (slot 2).
        u, v: length-n complex coefficient arrays.

    Returns:
        length-n complex array of output coefficients.
    """
    n = u.shape[0]
    prod = sym * np.outer(u, v)
    idx = np.add.outer(np.arange(n), np.arange(n)) % n
    flat = prod.ravel()
    idx = idx.ravel()
    out_re = np.bincount(idx, weights=flat.real, minlength=n)
    out_im = np.bincount(idx, weights=flat.imag, minlength=n)
    return out_re + 1j * out_im


if HAS_NUMBA:

    @njit(cache=True)
    def _bilinear_contract_nb(sym, u, v):  # pragma: no cover - numba
        n = u.shape[0]
        out = np.zeros(n, dtype=np.complex128)
        for i in range(n):
            ui = u[i]
            if ui == 0.0:
                continue
            for j in range(n):
                s = sym[i, j]
                if s != 0.0:
                    k = i + j
                    if k >= n:
                        k -= n
                    out[k] += s * ui * v[j]
        return out

    def bilinear_contract_numba(sym, u, v):
        return _bilinear_contract_nb(
            np.ascontiguousarray(sym, dtype=np.complex128),
            np.ascontiguousarray(u, dtype=np.complex128),
            np.ascontiguousarray(v, dtype=np.complex128),
        )

else:
    bilinear_contract_numba = None


def bilinear_contract(sym, u, v):
    """Dispatch to the jitted kernel when available, else the numpy twin."""
    if USE_NUMBA:
        return bilinear_contract_numba(sym, u, v)
    return bilinear_contract_numpy(sym, u, v)


# ----------------------------------------------------------------------------
# trilinear box contractions (multiplier lower bounds)
# ----------------------------------------------------------------------------
#
# Slot vectors are flat complex arrays over cells c = xi_index * n_mu +
# mu_index.  The caller lists every admissible triple (c1, c2, c3) once; a
# partial contracts two slots over that list into the third: one gather of
# the two factors, one product, and one bincount that sums the product's
# real and imaginary parts into interleaved bins 2c and 2c + 1, read back as
# complex values.


class Triples:
    """Admissible triples as three equal-length arrays of flat cell indices,
    with the number of cells of each slot."""

    def __init__(self, cells, sizes):
        self.cells = tuple(np.asarray(t, dtype=np.intp) for t in cells)
        self.sizes = tuple(sizes)
        # per slot: bins 2c and 2c + 1, interleaved, for the float64 view of a complex product
        self.bins = tuple((2 * t[:, None] + np.arange(2)).ravel() for t in self.cells)

    def __len__(self) -> int:
        return len(self.cells[0])


def _contract(tri, a, sa, b, sb, out):
    prod = a.ravel()[tri.cells[sa]] * b.ravel()[tri.cells[sb]]
    sums = np.bincount(tri.bins[out], weights=prod.view(np.float64), minlength=2 * tri.sizes[out])
    return sums.view(np.complex128)


def trilinear_partial3(u1, u2, tri):
    """p3[c3] = sum over triples (c1, c2, c3) of u1[c1] * u2[c2]."""
    return _contract(tri, u1, 0, u2, 1, 2)


def trilinear_partial1(u2, u3, tri):
    """p1[c1] = sum over triples (c1, c2, c3) of u2[c2] * u3[c3]."""
    return _contract(tri, u2, 1, u3, 2, 0)


def trilinear_partial2(u1, u3, tri):
    """p2[c2] = sum over triples (c1, c2, c3) of u1[c1] * u3[c3]."""
    return _contract(tri, u1, 0, u3, 2, 1)
