"""Timing comparison of the compiled bilinear contraction against its
pure-numpy twin.

Run with the compiled path (default) and with QNLS_DISABLE_NUMBA=1 to see
both sides; this script times both twins in a single process regardless of
the flag, since it imports the numpy implementations directly.

    python3 benchmarks/bench_kernels.py
"""

import time

import numpy as np

from qnls import _kernels
from qnls.bilinear import t_symbol_uubar
from qnls.roughdata import DataSpec, gen_rough_data
from qnls.spectral import make_grid


def _time(fn, *args, repeats=5, warmup=1):
    for _ in range(warmup):
        fn(*args)
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_bilinear():
    print("bilinear contraction (symbol-weighted convolution)")
    print(f"  {'n':>6}  {'numpy':>10}  {'numba':>10}  {'speedup':>8}")
    for n in (256, 1024, 4096):
        g = make_grid(n)
        sym = t_symbol_uubar(0.6, 0.2).matrix(g)
        hi = g.guard_frequency
        u = gen_rough_data(DataSpec(sigma=0.0, freq_hi=hi, seed=1), g).coeffs
        v = gen_rough_data(DataSpec(sigma=0.0, freq_hi=hi, seed=2), g).coeffs
        t_np = _time(_kernels.bilinear_contract_numpy, sym, u, v)
        if _kernels.HAS_NUMBA:
            t_nb = _time(_kernels.bilinear_contract_numba, sym, u, v)
            print(f"  {n:>6}  {t_np:>10.2e}  {t_nb:>10.2e}  {t_np / t_nb:>7.1f}x")
        else:
            print(f"  {n:>6}  {t_np:>10.2e}  {'-':>10}  {'-':>8}")


def main():
    backend = "numba" if _kernels.USE_NUMBA else "numpy"
    print(f"active kernel backend: {backend} (HAS_NUMBA={_kernels.HAS_NUMBA})")
    print()
    bench_bilinear()


if __name__ == "__main__":
    main()
