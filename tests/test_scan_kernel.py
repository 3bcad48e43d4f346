"""The grid kernel's three economies, each against an independent evaluation.

``scan`` mirrors the phi <= pi half of a full circle, ``minimize_variance``
selects its incumbents by partition, and ``_fields`` evaluates large grids in
row blocks.  Each must give exactly what the plain evaluation gives; the
grid budget must refuse oversized grids before any work starts.
"""

import importlib
import json
import time

import numpy as np
import pytest

from sixport import (
    GRID_CELLS_MAX,
    ValidationError,
    WorkTooLarge,
    evaluate_point,
    minimize_variance,
    scan,
    symmetry_report,
)
from sixport.cli import main
from sixport.scan import _fields, _smallest_cells
from sixport.states import LABELS

# the package re-exports the function ``scan`` under the module's name
scan_module = importlib.import_module("sixport.scan")

QUANTITIES = ("probability", "var_x", "var_p")


# -- incumbent selection ----------------------------------------------------------

def stable_order(values, k=4):
    filled = np.where(np.isnan(values), np.inf, values)
    return np.argsort(filled, axis=None, kind="stable")[:k]


def selection_grids():
    rng = np.random.default_rng(14)
    for shape in [(1,), (2,), (3,), (1, 1), (2, 1), (1, 3), (4,), (5,), (40, 20)]:
        yield rng.uniform(0.0, 1.0, shape)
    for _ in range(30):
        values = rng.uniform(0.0, 1.0, (int(rng.integers(2, 30)), int(rng.integers(1, 30))))
        fourth = np.sort(values, axis=None)[min(3, values.size - 1)]
        spots = rng.integers(0, values.size, int(rng.integers(1, 6)))
        values.reshape(-1)[spots] = fourth
        yield values
        yield rng.integers(0, 3, values.shape).astype(float)
    nan = np.full((6, 7), np.nan)
    yield nan
    yield np.full((6, 7), np.inf)
    mixed = rng.uniform(0.0, 1.0, (6, 7))
    mixed[rng.uniform(size=mixed.shape) < 0.8] = np.nan
    mixed[0, 1] = np.inf
    yield mixed
    yield np.array([np.nan, np.inf, np.nan])
    yield np.array([[np.nan, -0.0, 0.0, 0.0, 1.0]])


def test_smallest_cells_equal_stable_sort():
    for values in selection_grids():
        np.testing.assert_array_equal(_smallest_cells(values, 4), stable_order(values),
                                      err_msg=str(values))


def test_smallest_cells_other_counts():
    values = np.random.default_rng(2).integers(0, 4, (9, 11)).astype(float)
    for k in (1, 2, 4, 7, 99, 200):
        np.testing.assert_array_equal(_smallest_cells(values, k), stable_order(values, k))


# results of the earlier full-sort selection at the smallest coarse grids,
# which hold fewer than four cells (2 at 2) or barely more (6 at 3)
COARSE_REFERENCE = {
    2: (5.447884455788881, 3.1415926278972948, 0.32060808588071876,
        2.593349735037728e-09, 10984),
    3: (2.487536749067658, 1.282147636081177, 0.276534008786757,
        0.06747756760301304, 20814),
}


@pytest.mark.parametrize("coarse", sorted(COARSE_REFERENCE))
def test_minimize_tiny_coarse_grid(coarse):
    r = minimize_variance("psi16", coarse_resolution=coarse)
    assert (r.alpha_opt, r.phi_opt, r.var_min, r.probability_at_opt,
            r.evaluations) == COARSE_REFERENCE[coarse]


def test_optimize_cli_tiny_coarse_grid(capsys):
    code = main(["optimize", "--family", "psi16", "--coarse-res", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        '{"alpha_opt": 5.4478844557888806, "phi_opt": 3.1415926278972948, '
        '"var_min": 0.32060808588071876, "squeeze_db": 1.9299553307679989, '
        '"probability_at_opt": 2.5933497350377278e-09, "evaluations": 10984}\n')


# -- mirror half ------------------------------------------------------------------

def cell_scale(quantity, alpha_axis):
    # var_x is a difference of terms of size ~|alpha|^2, so its rounding
    # between e^{-i phi} and its conjugate scales with it
    if quantity == "var_x":
        return 1.0 + alpha_axis[:, None] ** 2
    return np.ones((len(alpha_axis), 1))


@pytest.mark.parametrize("res", [2, 7, 200, 201])
def test_full_circle_upper_half_matches_direct_evaluation(res):
    for index in range(1, 17):
        for quantity in QUANTITIES:
            grid = scan(index, quantity, resolution=res)
            assert symmetry_report(grid) == 0.0
            upper = grid.phi_axis > np.pi
            # the kernel on the phi > pi columns themselves, not their mirror
            (direct,) = _fields(LABELS[index], grid.alpha_axis, grid.phi_axis[upper], (quantity,))
            got = grid.values[:, upper]
            np.testing.assert_array_equal(np.isnan(got), np.isnan(direct))
            dev = np.nan_to_num(np.abs(got - direct)) / cell_scale(quantity, grid.alpha_axis)
            assert np.max(dev, initial=0.0) <= 1e-12, (index, quantity)


def test_direct_upper_half_is_evaluate_point():
    # ties the vectorized reference above to the single-point path
    grids = [scan("psi16", q, resolution=201) for q in QUANTITIES]
    alpha_axis, phi_axis = grids[0].alpha_axis, grids[0].phi_axis
    cols = np.flatnonzero(phi_axis > np.pi)[::9]
    direct = _fields(LABELS[16], alpha_axis[::11], phi_axis[cols])
    for i, a in enumerate(alpha_axis[::11]):
        for j, p in enumerate(phi_axis[cols]):
            want = [d[i, j] for d in direct]
            np.testing.assert_array_equal(evaluate_point("psi16", a, p), want)


def test_partial_range_cells_equal_evaluate_point():
    for index in range(1, 17):
        grids = [scan(index, q, (0.5, 5.5), (0.5, 5.5), 7) for q in QUANTITIES]
        for i, a in enumerate(grids[0].alpha_axis):
            for j, p in enumerate(grids[0].phi_axis):
                want = [g.values[i, j] for g in grids]
                np.testing.assert_array_equal(evaluate_point(index, a, p), want,
                                              err_msg=f"psi{index} cell ({i}, {j})")


# -- row blocks -------------------------------------------------------------------

def unblocked(index, alpha, phi):
    # (m, 1) against (1, n) broadcasts to the same grid but is never blocked
    return _fields(LABELS[index], alpha[:, None], phi[None, :])


def row_by_row(index, alpha, phi):
    rows = [_fields(LABELS[index], alpha[i:i + 1], phi) for i in range(len(alpha))]
    return tuple(np.concatenate([r[q] for r in rows]) for q in range(3))


def assert_fields_equal(index, alpha, phi):
    blocked = _fields(LABELS[index], alpha, phi)
    for reference in (unblocked(index, alpha, phi), row_by_row(index, alpha, phi)):
        for got, want in zip(blocked, reference):
            assert got.shape == (len(alpha), len(phi))
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("shape", [
    (3, 3),     # below one block
    (2, 5),     # exactly one block
    (11, 1),    # one cell above: blocks of 10 rows and 1 row
    (7, 3),     # rows per block 3 does not divide 7
    (3, 11),    # phi axis longer than a block: one row per block
])
def test_blocked_fields_small_block(monkeypatch, shape):
    monkeypatch.setattr(scan_module, "_BLOCK_CELLS", 10)
    rows, cols = shape
    alpha = np.linspace(0.0, 6.0, rows)
    phi = np.linspace(0.0, 2 * np.pi, cols)
    for index in (1, 2, 5, 7, 12, 16):
        assert_fields_equal(index, alpha, phi)


def test_blocked_fields_real_block():
    block = scan_module._BLOCK_CELLS
    cols = 128
    for rows in (block // cols - 1, block // cols, block // cols + 1, 3 * (block // cols) + 5):
        alpha = np.linspace(0.0, 10.0, rows)
        phi = np.linspace(0.0, np.pi, cols)
        for index in (2, 8, 16):
            assert_fields_equal(index, alpha, phi)
    alpha = np.linspace(0.0, 10.0, 3)
    assert_fields_equal(16, alpha, np.linspace(0.0, 2 * np.pi, block + 1))


# -- the grid budget --------------------------------------------------------------

class FieldsReached(Exception):
    pass


@pytest.fixture
def no_fields(monkeypatch):
    """Stop any call that gets past the budget check before it evaluates."""
    reached = []

    def stub(index, alpha_axis, phi_axis, quantities=QUANTITIES):
        reached.append(np.size(alpha_axis) * np.size(phi_axis))
        raise FieldsReached
    monkeypatch.setattr(scan_module, "_fields", stub)
    return reached


def test_grid_budget():
    assert GRID_CELLS_MAX == 2 ** 22
    assert issubclass(WorkTooLarge, ValidationError)


def test_scan_at_and_above_the_budget(no_fields):
    with pytest.raises(FieldsReached):
        scan("psi16", "var_x", resolution=2 ** 11)
    with pytest.raises(FieldsReached):
        scan("psi16", "var_x", (0.0, 1.0), (0.5, 5.5), (2 ** 21, 2))
    # 2^22 + 1 = 5 x 838861
    for resolution in [(5, 838861), (838861, 5)]:
        with pytest.raises(WorkTooLarge):
            scan("psi16", "var_x", resolution=resolution)
    assert len(no_fields) == 2


def test_minimize_at_and_above_the_budget(no_fields):
    # 2896 x 1448 is the largest coarse half within 2^22 cells
    assert 2896 * 1448 <= GRID_CELLS_MAX < 2897 * 1449
    with pytest.raises(FieldsReached):
        minimize_variance("psi16", coarse_resolution=2896)
    assert no_fields == [2896 * 1448]
    with pytest.raises(WorkTooLarge):
        minimize_variance("psi16", coarse_resolution=2897)
    assert len(no_fields) == 1


@pytest.mark.parametrize("argv", [
    ("scan", "--family", "psi16", "--quantity", "varx", "--res", "100000"),
    ("optimize", "--family", "psi16", "--coarse-res", "100000"),
])
def test_cli_refuses_oversized_grid_before_work(capsys, no_fields, argv):
    start = time.perf_counter()
    code = main(list(argv))
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "WorkTooLarge"
    assert no_fields == []
