import sys

import numpy as np
import pytest

from qnls.rates import (
    KIND_ORDER,
    KINDS,
    _cell_tables,
    _one_cell,
    _output_multiplier,
    _v_mask,
    expected_slope,
    product_rate_experiment,
)
from qnls.spacetime import (
    apply_window,
    box_mask,
    st_l2_norm,
    st_product,
    st_spatial_multiplier,
    synth_cells,
    xsb_norm,
)
from qnls.spectral import Grid, lp_annulus


def oracle_cell(kind, k, delta, seed_key, n_t, t_total):
    """The rate cell as a composition of SpaceTimeField operations on dense
    (n_t, 2^(k+3)) fields: the slow, independent reference for _one_cell."""
    conj2, v_pattern, out_pattern, vb_tag, u_side, v_side = KINDS[kind]
    grid = Grid(2 ** (k + 3))
    kind_id = KIND_ORDER.index(kind)

    u_mask = box_mask(grid, n_t, t_total, 2**k, 2 ** (k + 1), 1.0, 2.0, 1, u_side)
    v_mask = _v_mask(grid, n_t, t_total, v_pattern, k, v_side)
    u = synth_cells(grid, n_t, t_total, u_mask, [seed_key, kind_id, k, 0])
    v = synth_cells(grid, n_t, t_total, v_mask, [seed_key, kind_id, k, 1])

    wu = apply_window(u)
    wv = apply_window(v)
    bu = 0.5 + delta
    bv = 0.5 + delta if vb_tag == "plus" else 0.5 - delta
    nu = xsb_norm(0.0, bu, wu)
    nv = xsb_norm(0.0, bv, wv)
    if nu == 0.0 or nv == 0.0:
        return float("nan")

    prod = st_product(wu, wv, conj_second=conj2)
    if out_pattern is not None:
        prod = st_spatial_multiplier(prod, _output_multiplier(grid, out_pattern, k))
    return st_l2_norm(prod) / (nu * nv)


def _rel(a, b):
    return abs(a - b) / abs(b)


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


def test_expected_slope_values():
    assert expected_slope("gain1", 0.05) == (-0.45, 0.1)
    assert expected_slope("kkkk1", 0.05) == (-0.25, 0.12)
    target, tol = expected_slope("gain3", 0.05)
    assert target == -0.1 and tol is None
    with pytest.raises(ValueError):
        expected_slope("nope", 0.05)


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
        r1 = _one_cell(kind, 3, 0.05, 7, 64, 2 * np.pi)
        r2 = _one_cell(kind, 3, 0.05, 7, 64, 2 * np.pi)
        assert r1 == r2
        assert np.isfinite(r1) and r1 > 0


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_one_cell_matches_dense_oracle(kind):
    for k in (3, 4, 5):
        for n_t in (64, 256):
            for seed_key in (3, 1000004):
                fast = _one_cell(kind, k, 0.05, seed_key, n_t, 2 * np.pi)
                slow = oracle_cell(kind, k, 0.05, seed_key, n_t, 2 * np.pi)
                assert np.isfinite(slow) and slow > 0
                assert _rel(fast, slow) <= 1e-13, (k, n_t, seed_key, fast, slow)


def test_one_cell_matches_dense_oracle_large_and_off_lattice():
    # k = 8 is the largest default scale; t_total != 2*pi puts tau off the
    # integer lattice, so the boxes and weights differ from the default ones
    for kind, k, n_t, t_total in (("kkk1", 8, 256, 2 * np.pi), ("gain2", 4, 64, 3.0)):
        fast = _one_cell(kind, k, 0.05, 11, n_t, t_total)
        slow = oracle_cell(kind, k, 0.05, 11, n_t, t_total)
        assert np.isfinite(slow) and slow > 0
        assert _rel(fast, slow) <= 1e-13, (kind, fast, slow)


def test_empty_box_rejected():
    # period n_t * dtau = 1: every wrapped modulation is <= 1/2, so no cell
    # has modulation in [1, 2]
    with pytest.raises(ValueError):
        oracle_cell("gain1", 3, 0.05, 0, 4, 8 * np.pi)
    with pytest.raises(ValueError):
        _one_cell("gain1", 3, 0.05, 0, 4, 8 * np.pi)


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_table_masks_equal_box_mask(kind):
    _conj2, v_pattern, _out, _vb, u_side, v_side = KINDS[kind]
    for k, n_t, t_total in ((3, 64, 2 * np.pi), (6, 256, 2 * np.pi), (4, 64, 3.0)):
        grid, u_table, v_table, _window, _cols, _mult = _cell_tables(kind, k, 0.05, n_t, t_total)
        expected = (
            box_mask(grid, n_t, t_total, 2**k, 2 ** (k + 1), 1.0, 2.0, 1, u_side),
            _v_mask(grid, n_t, t_total, v_pattern, k, v_side),
        )
        for (runs, sub, weight), mask in zip((u_table, v_table), expected):
            mask = mask.copy()
            mask[n_t // 2, :] = False
            mask[:, grid.n // 2] = False
            full = np.zeros_like(mask)
            for dest, src in runs:
                full[:, dest] = sub[:, src]
            np.testing.assert_array_equal(full, mask)
            assert not (sub.flags.writeable or weight.flags.writeable)


def test_experiment_report_shape():
    rep = product_rate_experiment("gain3", (3, 5), 0.05, n_seeds=3, n_t=64, seed=5)
    assert rep.kind == "gain3"
    assert rep.ks == [3, 4, 5]
    assert len(rep.medians) == 3
    assert all(m > 0 for m in rep.medians)
    assert not rep.degenerate
    assert len(rep.ratios[3]) == 3
    assert np.isfinite(rep.slope) and np.isfinite(rep.stderr)


def test_threads_do_not_change_values():
    # k runs over three scales, so worker threads meet a table rebuild; a
    # short switch interval makes them interleave inside the table cache
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for kind, threads in (("kkk3", 3), ("kkk1", 2), ("plusminus", 2)):
            a = product_rate_experiment(kind, (3, 5), 0.05, n_seeds=3, n_t=64, seed=9, threads=1)
            b = product_rate_experiment(kind, (3, 5), 0.05, n_seeds=3, n_t=64, seed=9, threads=threads)
            assert a.ratios == b.ratios
            assert a.medians == b.medians
    finally:
        sys.setswitchinterval(interval)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        product_rate_experiment("mystery", (3, 4), 0.05, n_seeds=2)
