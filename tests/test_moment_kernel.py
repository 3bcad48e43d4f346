"""The closed-form moment kernel against the series projector route and, on
more than three levels, the oracle; and the single quadrature formula shared
by the moments, the oracle and the grids."""

import importlib
import math

import numpy as np
import pytest

from sixport import (
    HeraldSpec,
    compose,
    evaluate_point,
    expectation,
    expectation_quadratures,
    general_heralded,
    herald_state,
    moment,
    moment_component,
    quadratures,
    table1_coeffs,
)
from sixport import moments
from sixport.moments import MAX_POWER, displaced_frame, frame_moments, quadrature_variance
from sixport.states import LABELS


def series_moment(state, k, l):
    """<a^dagger^k a^l> as the projector sum over series moment_component."""
    cs = (state.c0, state.c1, state.c2)
    total = 0.0 + 0.0j
    for h_l, c_l in enumerate(cs):
        for h_r, c_r in enumerate(cs):
            if c_l == 0 or c_r == 0:
                continue
            total += (c_l * c_r.conjugate() / state.norm
                      * moment_component(h_l, h_r, k, l, state.seed))
    return total


def seeded_states(points_per_family, seed):
    rng = np.random.default_rng(seed)
    for family in range(1, 17):
        for _ in range(points_per_family):
            alpha = float(rng.uniform(0.0, 6.0))
            phi = float(rng.uniform(0.1, 2.0 * np.pi - 0.1))
            yield family, table1_coeffs(
                HeraldSpec(*LABELS[family], alpha_mag=alpha, phi=phi), compose(phi))


def test_closed_form_moment_matches_series_projector_sum():
    worst = 0.0
    for family, state in seeded_states(3, 2024):
        for k in range(5):
            for l in range(5):
                got = moment(state, k, l)
                want = series_moment(state, k, l)
                worst = max(worst, abs(got - want) / abs(want))
                assert got == pytest.approx(want, rel=1e-12), (family, k, l)
    assert worst <= 1e-12


def test_closed_form_moment_is_hermitian_and_normalized():
    for _, state in seeded_states(1, 7):
        assert moment(state, 0, 0) == pytest.approx(1.0, rel=1e-13)
        n_bar = moment(state, 1, 1)
        assert abs(n_bar.imag) <= 1e-14 * abs(n_bar)
        assert moment(state, 2, 1) == pytest.approx(moment(state, 1, 2).conjugate(), rel=1e-13)


def test_closed_form_moment_matches_oracle_expectation():
    spec = HeraldSpec(1, 1, 1, 1, alpha_mag=2.0, phi=2.0)
    state = table1_coeffs(spec, compose(spec.phi))
    fock, _ = herald_state(spec)
    for k, l in [(0, 1), (1, 1), (0, 2), (2, 1), (3, 3)]:
        assert moment(state, k, l) == pytest.approx(expectation(fock, k, l), rel=1e-9)


# -- one quadrature formula ---------------------------------------------------

def test_grid_kernel_uses_the_moments_quadrature_formula():
    grid_kernel = importlib.import_module("sixport.scan")
    assert grid_kernel.quadrature_variance is moments.quadrature_variance


def test_quadrature_formula_is_elementwise_bit_identical():
    rng = np.random.default_rng(3)
    first = rng.normal(size=8) + 1j * rng.normal(size=8)
    n_bar = rng.uniform(0.0, 5.0, size=8)
    a_sq = rng.normal(size=8) + 1j * rng.normal(size=8)
    for name in ("var_x", "var_p"):
        grid = moments.quadrature_variance(name, first, n_bar, a_sq)
        cells = [moments.quadrature_variance(name, complex(f), float(n), complex(a))
                 for f, n, a in zip(first, n_bar, a_sq)]
        assert grid.tolist() == cells


def test_quadratures_agree_across_moment_oracle_and_grid():
    spec = HeraldSpec(1, 1, 1, 1, alpha_mag=1.3, phi=2.2)
    report = quadratures(table1_coeffs(spec, compose(spec.phi)))
    fock_x, fock_p = expectation_quadratures(herald_state(spec)[0])
    _, grid_x, grid_p = evaluate_point("psi16", spec.alpha_mag, spec.phi)
    assert report.var_x == pytest.approx(grid_x, rel=1e-12)
    assert report.var_p == pytest.approx(grid_p, rel=1e-12)
    assert report.var_x == pytest.approx(fock_x, rel=1e-9)
    assert report.var_p == pytest.approx(fock_p, rel=1e-9)


@pytest.mark.parametrize("pattern", [(2, 1, 1, 1), (2, 2, 1, 2), (3, 2, 1, 1),
                                     (2, 3, 3, 0), (3, 3, 1, 3)])
def test_frame_kernel_on_four_to_seven_levels_matches_oracle(pattern):
    """The kernel on the L = n2 + n3 + 1 levels of a state beyond the table,
    with the coefficients from the series route, against the number basis."""
    rng = np.random.default_rng(sum(pattern) * 31 + pattern[0])
    for _ in range(2):
        spec = HeraldSpec(*pattern, alpha_mag=float(rng.uniform(0.3, 2.0)),
                          phi=float(rng.uniform(0.2, 2 * np.pi - 0.2)),
                          theta=float(rng.uniform(-3.0, 3.0)))
        U = compose(spec.phi)
        state = general_heralded(spec, U)
        assert len(state.coeffs) == pattern[0] + pattern[1] + 1
        fock, probability = herald_state(spec)
        v, squares, norm = displaced_frame(state.coeffs, state.seed)
        filtering = math.exp((abs(U[0, 0]) ** 2 - 1.0) * spec.alpha_mag ** 2)
        # the norm is the probability before the filtering factor
        assert norm * filtering == pytest.approx(probability, rel=1e-12)
        first, n_bar, a_sq = frame_moments(v, squares, norm)
        # the frame's <a> is the state's, less the displacement
        assert abs(first + state.seed - expectation(fock, 0, 1)) <= 1e-12
        for name, want in zip(("var_x", "var_p"), expectation_quadratures(fock)):
            assert quadrature_variance(name, first, n_bar, a_sq) == pytest.approx(
                want, rel=1e-12, abs=1e-12)
        for k in range(MAX_POWER + 1):
            for l in range(MAX_POWER + 1):
                want = expectation(fock, k, l)
                assert abs(moment(state, k, l) - want) <= 1e-12 * max(1.0, abs(want)), (k, l)
