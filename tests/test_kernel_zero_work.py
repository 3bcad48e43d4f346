"""The grid kernel skips structurally zero work and still gives every byte.

``dense_fields`` below is an independent, dense evaluation of the same
kernel: every family carries all three levels, a zero level as 0.0 * alpha
broadcast over the grid; the norm and the frame moments each square the
levels themselves; and the forbidden-cell guard runs on every grid.  The
production kernel skips the zero levels, squares each level once and guards
only grids that hold a forbidden cell.  A skipped term adds an exact zero, so
the two must agree byte for byte, NaN sentinels included.

``full_symmetry_report`` compares every cell with its mirror; the production
``symmetry_report`` compares only the phi <= pi half, which holds the same
differences.
"""

import math

import numpy as np
import pytest

from sixport import HeraldSpec, ScanGrid, compose, symmetry_report, table1_coeffs
from sixport.interferometer import closed_form_matrix, derived_coeffs
from sixport.moments import NORM_FLOOR, quadrature_variance
from sixport.scan import _fields, _mirrored_axis
from sixport.states import LABELS

QUANTITIES = ("probability", "var_x", "var_p")
SQRT2 = math.sqrt(2.0)


# -- dense reference kernel ------------------------------------------------------

def dense_rows(index, U, D, alpha):
    u12, u13 = U[0, 1], U[0, 2]
    u21, u31 = U[1, 0], U[2, 0]
    u22, u23 = U[1, 1], U[1, 2]
    u32, u33 = U[2, 1], U[2, 2]
    zero = 0.0 * alpha
    return {
        1: (1.0 + zero, zero, zero),
        2: (u12 * alpha, zero, zero),
        3: (u13 * alpha, zero, zero),
        4: (u12 * u13 * alpha ** 2, zero, zero),
        5: (zero, u21 + zero, zero),
        6: (zero, u31 + zero, zero),
        7: (zero, zero, u21 * u31 + zero),
        8: (u22 + zero, u12 * u21 * alpha, zero),
        9: (u33 + zero, u13 * u31 * alpha, zero),
        10: (u32 + zero, u12 * u31 * alpha, zero),
        11: (u23 + zero, u13 * u21 * alpha, zero),
        12: (D.tau1 * alpha, u12 * u13 * u21 * alpha ** 2, zero),
        13: (D.tau2 * alpha, u12 * u13 * u31 * alpha ** 2, zero),
        14: (zero, D.tau3 + zero, u12 * u21 * u31 * alpha),
        15: (zero, D.tau4 + zero, u13 * u21 * u31 * alpha),
        16: (D.tau5 + zero, D.kappa * alpha, u12 * u13 * u21 * u31 * alpha ** 2),
    }[index]


def abs2(z):
    return z.real ** 2 + z.imag ** 2


def dense_fields(index, alpha, phi):
    """The three grids, by broadcasting ``alpha`` against ``phi`` in one piece."""
    U = closed_form_matrix(np.exp(-1j * phi))
    D = derived_coeffs(U)
    diag = U[0, 0]
    c0, c1, c2 = dense_rows(index, U, D, alpha)
    beta_c = np.conjugate(diag * alpha)
    t = np.multiply(c2, beta_c)
    v0, v1, v2 = c0 + np.multiply(c1 + t, beta_c), c1 + 2.0 * t, SQRT2 * c2
    norm = abs2(v0) + abs2(v1) + abs2(v2)
    fields = {"probability": norm * np.exp((np.abs(diag) ** 2 - 1.0) * alpha ** 2)}
    forbidden = norm < NORM_FLOOR
    safe = np.where(forbidden, 1.0, norm)
    first = (np.multiply(np.conjugate(v0), v1)
             + SQRT2 * np.multiply(np.conjugate(v1), v2)) / safe
    n_bar = (abs2(v1) + 2.0 * abs2(v2)) / safe
    a_sq = SQRT2 * np.multiply(np.conjugate(v0), v2) / safe
    for name in ("var_x", "var_p"):
        fields[name] = quadrature_variance(name, first, n_bar, a_sq)
        fields[name][forbidden] = np.nan
    return tuple(fields[q] for q in QUANTITIES)


def assert_same_bytes(got, want, label):
    assert got.dtype == want.dtype and got.shape == want.shape, label
    assert got.tobytes() == want.tobytes(), label


def grids():
    """(label, alpha, phi) of the grid shapes the kernel meets."""
    # the phi <= pi half of a 200x200 landscape: blocked, with the
    # forbidden cells of the alpha = 0 row and the phi = 0 column
    yield ("half 200x100", np.linspace(0.0, 10.0, 200),
           _mirrored_axis(0.0, 2.0 * math.pi, 200)[:100])
    yield ("7x4, below one block", np.linspace(0.0, 10.0, 7),
           _mirrored_axis(0.0, 2.0 * math.pi, 7)[:4])
    rng = np.random.default_rng(15)
    yield ("zoom batch (4, 17, 17)", rng.uniform(0.0, 10.0, (4, 17, 1)),
           rng.uniform(0.0, 2.0 * math.pi, (4, 1, 17)))


@pytest.mark.parametrize("index", range(1, 17))
def test_fields_equal_dense_kernel(index):
    for label, alpha, phi in grids():
        # two 1-D axes make an outer-product grid
        a, p = (alpha[:, None], phi[None, :]) if alpha.ndim == 1 else (alpha, phi)
        want = dense_fields(index, a, p)
        got = _fields(index, alpha, phi)
        for name, g, w in zip(QUANTITIES, got, want):
            assert_same_bytes(g, w, f"psi{index} {name} on {label}")
        # each quantity alone is the same grid
        for name, w in zip(QUANTITIES, want):
            (g,) = _fields(index, alpha, phi, (name,))
            assert_same_bytes(g, w, f"psi{index} {name} alone on {label}")


def test_forbidden_cells_are_covered():
    # psi5 is c1 = u21, and u21 = 0 at phi = 0: the whole phi = 0 column is
    # forbidden, so the guard path runs in every row block
    _, alpha, phi = next(grids())
    prob, var_x, var_p = _fields(5, alpha, phi)
    assert np.all(prob[:, 0] == 0.0)
    assert np.all(np.isnan(var_x[:, 0])) and np.all(np.isnan(var_p[:, 0]))
    assert not np.any(np.isnan(var_x[1:, 1:]))
    # psi2 (c0 = u12 alpha, a coherent state) is forbidden on the alpha = 0
    # row and, as u12 = 0 too, on the phi = 0 column; its variance is the
    # vacuum's everywhere else
    _, var_x, _ = _fields(2, alpha, phi)
    assert np.all(np.isnan(var_x[0])) and np.all(np.isnan(var_x[:, 0]))
    assert np.all(var_x[1:, 1:] == 0.5)


def test_table1_coeffs_equal_dense_rows():
    """The scalar path keeps the dense rows' coefficients, signed zeros
    included: the CLI prints them."""
    for index, pattern in LABELS.items():
        for phi in (0.0, 2.0, math.pi):
            U = compose(phi)
            D = derived_coeffs(U)
            for alpha_mag in (0.0, 1.7):
                for theta in (0.0, 2.5, -1.0):
                    spec = HeraldSpec(*pattern, alpha_mag=alpha_mag, phi=phi, theta=theta)
                    st = table1_coeffs(spec, U, D)
                    want = [complex(c) for c in dense_rows(index, U, D, spec.alpha)]
                    assert (np.array([st.c0, st.c1, st.c2]).tobytes()
                            == np.array(want).tobytes()), (index, phi, alpha_mag, theta)


# -- symmetry report ---------------------------------------------------------------

def full_symmetry_report(grid):
    v = grid.values
    w = v[:, ::-1]
    nan_v = np.isnan(v)
    if np.any(nan_v != np.isnan(w)):
        return float("inf")
    diff = np.abs(v - w)
    diff[nan_v] = 0.0
    return float(np.max(diff)) if diff.size else 0.0


def mirrored_grid(rng, rows, cols):
    """A random grid whose phi <= pi half mirrors exactly onto the rest."""
    half = rng.normal(size=(rows, (cols + 1) // 2))
    values = np.concatenate((half, half[:, :cols // 2][:, ::-1]), axis=1)
    return ScanGrid(np.linspace(0.0, 1.0, rows), _mirrored_axis(0.0, 2.0 * math.pi, cols),
                    values, "var_x")


def symmetry_cases():
    rng = np.random.default_rng(1515)
    for cols in (2, 3, 4, 7, 8, 200, 201):
        rows = int(rng.integers(1, 12))
        grid = mirrored_grid(rng, rows, cols)
        yield grid                                   # exact mirror
        noisy = grid.values + rng.normal(scale=1e-9, size=grid.values.shape)
        yield ScanGrid(grid.alpha_axis, grid.phi_axis, noisy, "var_x")
        for side in (0, cols - 1, cols // 2, (cols - 1) // 2):
            corrupted = grid.values.copy()           # one cell, either half
            corrupted[rows // 2, side] += 0.25
            yield ScanGrid(grid.alpha_axis, grid.phi_axis, corrupted, "var_x")
            one_nan = grid.values.copy()             # a NaN without its mirror
            one_nan[0, side] = np.nan
            yield ScanGrid(grid.alpha_axis, grid.phi_axis, one_nan, "var_x")
            both_nan = noisy.copy()                  # a NaN and its mirror
            both_nan[-1, side] = both_nan[-1, cols - 1 - side] = np.nan
            yield ScanGrid(grid.alpha_axis, grid.phi_axis, both_nan, "var_x")
        if cols % 2:
            # an infinite cell on the mirror line: inf - inf is NaN
            infinite = grid.values.copy()
            infinite[0, cols // 2] = np.inf
            yield ScanGrid(grid.alpha_axis, grid.phi_axis, infinite, "var_x")


def test_symmetry_report_equals_full_width_reference():
    seen = set()
    for grid in symmetry_cases():
        with np.errstate(invalid="ignore"):
            want = full_symmetry_report(grid)
            got = symmetry_report(grid)
        assert repr(got) == repr(want), (grid.values.shape, got, want)
        seen.add("nan" if math.isnan(want) else "inf" if math.isinf(want)
                 else "zero" if want == 0.0 else "finite")
    assert seen == {"nan", "inf", "zero", "finite"}
