import math

import numpy as np
import pytest

from sixport import (
    ClosedFormMismatch,
    ValidationError,
    compose,
    phase_matrix,
    tritter1_matrix,
    tritter2_matrix,
)


def assert_unitary(U, tol=1e-12):
    assert np.max(np.abs(U @ U.conj().T - np.eye(3))) <= tol


def test_tritter1_entries():
    T = tritter1_matrix()
    assert T[0, 0] == pytest.approx(1 / math.sqrt(3))
    assert T[1, 1] == pytest.approx(np.exp(2j * np.pi / 3) / math.sqrt(3))


def test_tritter2_entries():
    T = tritter2_matrix()
    assert T[1, 1] == pytest.approx(np.exp(4j * np.pi / 3) / math.sqrt(3))


def test_tritters_unitary():
    assert_unitary(tritter1_matrix())
    assert_unitary(tritter2_matrix())


def test_tritter2_is_tritter1_with_rows_swapped():
    T1 = tritter1_matrix()
    T2 = tritter2_matrix()
    swapped = T1[[0, 2, 1], :]
    np.testing.assert_allclose(T2, swapped, atol=1e-15)


@pytest.mark.parametrize("phi,expected", [
    (0.0, np.eye(3)),
    (np.pi, np.diag([-1.0, 1.0, 1.0])),
])
def test_phase_matrix_special_values(phi, expected):
    np.testing.assert_allclose(phase_matrix(phi), expected, atol=1e-15)


def test_phase_matrix_quarter_turn():
    assert phase_matrix(np.pi / 2)[0, 0] == pytest.approx(-1j)


def test_compose_identity_at_zero():
    assert np.max(np.abs(compose(0.0) - np.eye(3))) < 1e-14


def test_compose_closed_form_at_pi():
    U = compose(np.pi)
    assert U[0, 0] == pytest.approx(1 / 3)
    assert U[0, 1] == pytest.approx(-2 / 3)


def test_compose_row_norm():
    for phi in (0.3, 1.7, 4.4):
        U = compose(phi)
        assert abs(U[0, 0]) ** 2 + 2 * abs(U[0, 1]) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_compose_matches_explicit_product():
    for phi in np.linspace(0, 2 * np.pi, 17):
        product = tritter2_matrix() @ phase_matrix(phi) @ tritter1_matrix()
        np.testing.assert_allclose(compose(phi), product, atol=1e-14)


def test_compose_mismatch_detector_fires():
    with pytest.raises(ClosedFormMismatch):
        compose(1.0, check_tol=-1.0)


def test_unitarity_on_sampled_phases():
    rng = np.random.default_rng(7)
    for phi in rng.uniform(0.0, 2 * np.pi, 1000):
        assert_unitary(compose(phi), tol=1e-12)


def test_entry_symmetry_exact():
    U = compose(2.345)
    off = U[0, 1]
    diag = U[0, 0]
    for i in range(3):
        for j in range(3):
            assert U[i, j] == (diag if i == j else off)


def test_periodicity():
    for phi in (0.1, 2.6, 5.9):
        np.testing.assert_allclose(compose(phi), compose(phi + 2 * np.pi), atol=1e-12)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_compose_rejects_non_finite_phase(phi):
    with pytest.raises(ValidationError):
        compose(phi)


def test_compose_mismatch_detector_fires_on_nan_deviation():
    with pytest.raises(ClosedFormMismatch):
        compose(1.0, check_tol=math.nan)
