"""In-memory span tracer for one benchmark pass.

The tracer wraps qnls functions from outside the package.  A module that
did ``from .bilinear import weighted_product`` holds its own reference, so
every wrapped function is replaced in each qnls module namespace that
binds it, not only in the module that defines it.

Each call of a wrapped function records a span (name, start, end, parent
span, grid n) in flat arrays; the arrays are written out when the pass
ends.  Self time (span duration minus the time covered by child spans)
and call counts are accumulated as spans close; the metrics filtered by
grid size are computed from the span arrays at the end.

A traced function that the package no longer has is skipped and reads
0 calls, so the tracer keeps working when a later change removes a layer.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function) pairs traced as spans; the metric names are
# "<module>.<function>.calls" and "<module>.<function>.self_s".
SPANS = (
    ("spectral", "free_propagate"),
    ("spectral", "bessel_potential"),
    ("spectral", "sign_project"),
    ("bilinear", "weighted_product"),
    ("bilinear", "dealiased_product"),
    ("bilinear", "apply_bilinear"),
    ("bilinear", "apply_pair_g_fast"),
    ("bilinear", "leibniz_residual"),
    ("evolution", "integrate"),
    ("evolution", "direct_w_solve"),
    ("evolution", "normal_form_h"),
    ("evolution", "decompose"),
    ("spacetime", "synth_cells"),
    ("spacetime", "box_mask"),
    ("spacetime", "apply_window"),
    ("spacetime", "xsb_norm"),
    ("spacetime", "st_product"),
    ("spacetime", "st_spatial_multiplier"),
    ("spacetime", "st_l2_norm"),
    ("spacetime", "fitted_regularity"),
    ("rates", "product_rate_experiment"),
    ("rates", "_one_cell"),
    ("mnorm", "build_model"),
    ("mnorm", "alternating_max"),
    ("mnorm", "count_triples"),
    ("mnorm", "exhaustive_lower_bound"),
    ("_kernels", "trilinear_partial1"),
    ("_kernels", "trilinear_partial2"),
    ("_kernels", "trilinear_partial3"),
    ("roughdata", "gen_rough_data"),
    ("config", "load_config"),
) + tuple(("acceptance", f"criterion_{i}") for i in range(1, 9))

# the space-time operations of one rate cell (synthesise, window, X^{s,b}
# norm, product, projected L2)
RATE_CELL = tuple(
    f"spacetime.{fn}" for m, fn in SPANS if m == "spacetime" and fn != "fitted_regularity"
)

# numpy.fft transforms the package calls; every call is one "fft" span.
FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2")


def metric_prefix(module: str, fn: str) -> str:
    """Metric names must start with a letter or digit."""
    return f"{module.lstrip('_')}.{fn}"


class Tracer:
    def __init__(self):
        self._names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.grid_n = array("i")
        self._stack: list = []  # [span index, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, size, after=None):
        """Wrap fn so that each call records one span named name."""
        tid = self._id(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(tid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.grid_n.append(size(args))
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.end[idx] = t1
                dur = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        """Patch numpy.fft and every qnls binding of the traced functions, for
        the rest of the process."""
        from qnls import evolution, spacetime, spectral
        from qnls.bilinear import BilinearSymbol

        spectral_types = (spectral.SpectralField, spacetime.SpaceTimeField)

        def grid_n(args):
            for a in args:
                if isinstance(a, spectral_types):
                    return a.grid.n
                if isinstance(a, spectral.Grid):
                    return a.n
                if isinstance(a, evolution.EvolutionConfig):
                    return a.n_points
            return 0

        def count_steps(args, _out):
            steps = args[0].n_steps
            self.counts["evolution.rk4_steps"] += steps
            self.counts["evolution.rhs_evals"] += 4 * steps

        def count_triples(_args, out):
            self.counts["mnorm.triples"] += int(out)

        after = {
            ("evolution", "integrate"): count_steps,
            ("evolution", "direct_w_solve"): count_steps,
            ("mnorm", "count_triples"): count_triples,
        }
        modules = [m for k, m in sys.modules.items() if k == "qnls" or k.startswith("qnls.")]
        for module, fn in SPANS:
            original = getattr(sys.modules[f"qnls.{module}"], fn, None)
            if original is None:
                continue
            if module == "rates" and fn == "_one_cell":
                # _one_cell(kind, k, ...) synthesises on a 2^(k+3) grid
                size = lambda args: 2 ** (int(args[1]) + 3)  # noqa: E731
            else:
                size = grid_n
            wrapped = self.span(metric_prefix(module, fn), original, size, after.get((module, fn)))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

        for fn in FFT_FUNCS:
            original = getattr(np.fft, fn)
            setattr(np.fft, fn, self.span("fft", original, self._fft_points))

        self._count_fields(spectral.SpectralField, "spectral", "coeffs")
        self._count_fields(spacetime.SpaceTimeField, "spacetime", "values")

        original_matrix = BilinearSymbol.matrix
        counts = self.counts

        def matrix(sym, grid):
            miss = (grid.n, grid.length) not in sym._cache
            mat = original_matrix(sym, grid)
            if miss:
                counts["bilinear.symbol_matrix.builds"] += 1
                counts["bilinear.symbol_matrix.bytes"] += mat.nbytes
            return mat

        BilinearSymbol.matrix = matrix

    def _fft_points(self, args):
        a = np.asarray(args[0])
        self.counts["fft.points"] += a.size
        return a.shape[-1]

    def _count_fields(self, cls, module, attr):
        original_init = cls.__init__
        counts = self.counts
        built = f"{module}.{cls.__name__}.built"
        nbytes = f"{module}.field_bytes"

        def __init__(obj, *args, **kwargs):
            original_init(obj, *args, **kwargs)
            counts[built] += 1
            counts[nbytes] += getattr(obj, attr).nbytes

        cls.__init__ = __init__

    # -- results ---------------------------------------------------------------

    def _inclusive(self, name: str, n: int | None = None) -> np.ndarray:
        names = np.frombuffer(self.name, dtype=np.int32)
        sel = names == self._ids.get(name, -1)
        if n is not None:
            sel &= np.frombuffer(self.grid_n, dtype=np.int32) == n
        return np.frombuffer(self.end)[sel] - np.frombuffer(self.start)[sel]

    def _self_at(self, names_wanted, n: int) -> float:
        """Self time of the spans with one of the given names, at grid n."""
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name, dtype=np.int32)
        sizes = np.frombuffer(self.grid_n, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        ids = [self._ids[nm] for nm in names_wanted if nm in self._ids]
        sel = np.isin(names, ids) & (sizes == n)
        return float(np.sum(dur[sel] - child[sel]))

    def metrics(self) -> dict:
        """Per-layer metrics: {name: (value, unit)}."""
        out = {}
        for module, fn in SPANS:
            if (module, fn) == ("rates", "_one_cell"):
                continue
            key = metric_prefix(module, fn)
            out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.self_s"] = (self.self_s[key], "s")
        out["fft.calls"] = (self.calls["fft"], "count")
        out["fft.self_s"] = (self.self_s["fft"], "s")
        for key in (
            "fft.points",
            "spectral.SpectralField.built",
            "spacetime.SpaceTimeField.built",
            "bilinear.symbol_matrix.builds",
            "evolution.rk4_steps",
            "evolution.rhs_evals",
            "mnorm.triples",
        ):
            out[key] = (self.counts[key], "count")
        for key in ("spectral.field_bytes", "spacetime.field_bytes", "bilinear.symbol_matrix.bytes"):
            out[key] = (self.counts[key], "bytes")
        for fn in ("weighted_product", "apply_bilinear"):
            for n in (256, 1024):
                per_call = self._inclusive(f"bilinear.{fn}", n)
                us = float(np.median(per_call)) * 1e6 if per_call.size else 0.0
                out[f"bilinear.{fn}.n{n}.us"] = (us, "us")
        for n in (256, 2048):
            out[f"spacetime.n{n}.self_s"] = (self._self_at(RATE_CELL, n), "s")
        cells = self._inclusive("rates._one_cell")
        out["rates.cells"] = (int(cells.size), "count")
        out["rates.cell_ms"] = (float(np.median(cells)) * 1e3 if cells.size else 0.0, "ms")
        return out

    def save(self, path):
        np.savez(
            path,
            names=np.array(self._names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            grid_n=np.frombuffer(self.grid_n, dtype=np.int32),
        )
