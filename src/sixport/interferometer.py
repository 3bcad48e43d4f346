"""Transfer matrix of the six-port Mach-Zehnder interferometer.

The device is a symmetric three-port splitter (tritter), a phase shifter on
the first arm, and a second tritter.  Composing the three factor matrices
gives a 3x3 unitary whose diagonal entries all equal (e^{-i phi} + 2)/3 and
whose six off-diagonal entries all equal (e^{-i phi} - 1)/3.  The closed form
is the canonical output; the explicit product is kept as a self-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClosedFormMismatch, ValidationError

_OMEGA = np.exp(2j * np.pi / 3)


def tritter1_matrix() -> np.ndarray:
    """First tritter: discrete-Fourier pattern (1, w, w^2) in row 2."""
    w = _OMEGA
    return np.array(
        [[1, 1, 1],
         [1, w, w ** 2],
         [1, w ** 2, w]],
        dtype=complex,
    ) / np.sqrt(3)


def tritter2_matrix() -> np.ndarray:
    """Second tritter: rows 2 and 3 of the first tritter's phase pattern swapped."""
    w = _OMEGA
    return np.array(
        [[1, 1, 1],
         [1, w ** 2, w],
         [1, w, w ** 2]],
        dtype=complex,
    ) / np.sqrt(3)


def phase_matrix(phi: float) -> np.ndarray:
    """Phase shifter on the first arm: diag(e^{-i phi}, 1, 1)."""
    return np.diag([np.exp(-1j * phi), 1.0, 1.0]).astype(complex)


def closed_form_matrix(e) -> np.ndarray:
    """Transfer matrix from e = e^{-i phi}: (e + 2)/3 on the diagonal, (e - 1)/3 off it.

    ``e`` may be an array; the result then has shape (3, 3) + e.shape.
    """
    e = np.asarray(e, dtype=complex)
    diag = (e + 2.0) / 3.0
    off = (e - 1.0) / 3.0
    U = np.empty((3, 3) + e.shape, dtype=complex)
    for i in range(3):
        for j in range(3):
            U[i, j] = diag if i == j else off
    return U


def compose(phi: float, check_tol: float = 1e-12) -> np.ndarray:
    """Full interferometer matrix for shift phase ``phi``.

    Returns the closed-form matrix (equal diagonal entry, equal off-diagonal
    entry, exactly).  The explicit product tritter2 @ phase @ tritter1 is
    computed alongside and compared; disagreement beyond ``check_tol`` raises
    ClosedFormMismatch, which signals an implementation bug rather than bad
    input.  A non-finite ``phi`` raises ValidationError.
    """
    if not math.isfinite(phi):
        raise ValidationError(f"phi must be finite, got {phi!r}")
    closed = closed_form_matrix(np.exp(-1j * float(phi)))

    product = tritter2_matrix() @ phase_matrix(phi) @ tritter1_matrix()
    dev = np.max(np.abs(product - closed))
    if not dev <= check_tol:  # a NaN deviation fails too
        raise ClosedFormMismatch(
            f"product deviates from closed form by {dev:.3e} at phi={phi!r}"
        )
    return closed


@dataclass(frozen=True)
class DerivedCoeffs:
    """Bilinear and trilinear entry combinations used by the state table."""
    tau1: complex  # u12 u23 + u13 u22
    tau2: complex  # u12 u33 + u13 u32
    tau3: complex  # u21 u32 + u22 u31
    tau4: complex  # u21 u33 + u23 u31
    tau5: complex  # u23 u32 + u22 u33
    kappa: complex  # u12 u23 u31 + u13 u22 u31 + u13 u21 u32 + u12 u21 u33


def derived_coeffs(U: np.ndarray) -> DerivedCoeffs:
    """Compute tau_1..tau_5 and kappa from the matrix entries."""
    u = U
    return DerivedCoeffs(
        tau1=u[0, 1] * u[1, 2] + u[0, 2] * u[1, 1],
        tau2=u[0, 1] * u[2, 2] + u[0, 2] * u[2, 1],
        tau3=u[1, 0] * u[2, 1] + u[1, 1] * u[2, 0],
        tau4=u[1, 0] * u[2, 2] + u[1, 2] * u[2, 0],
        tau5=u[1, 2] * u[2, 1] + u[1, 1] * u[2, 2],
        kappa=(
            u[0, 1] * u[1, 2] * u[2, 0]
            + u[0, 2] * u[1, 1] * u[2, 0]
            + u[0, 2] * u[1, 0] * u[2, 1]
            + u[0, 1] * u[1, 0] * u[2, 2]
        ),
    )


def is_unitary(U: np.ndarray, tol: float = 1e-12) -> bool:
    """True if U @ U^dagger is the identity within ``tol``."""
    return bool(np.max(np.abs(U @ U.conj().T - np.eye(U.shape[0]))) <= tol)
