"""Permanent-based transition amplitudes, a reference for the Fock oracle.

Linear optics maps an input occupation to an output occupation with the
permanent of the transfer matrix's submatrix that repeats row i n_out[i]
times and column j n_in[j] times.  Ryser's formula makes that tractable for
small photon numbers, which is all the oracle cross-checks need.  The module
shares no code with ``sixport.oracle``'s raising loop.
"""

from __future__ import annotations

import math

import numpy as np

from sixport import ValidationError


class DimensionTooLarge(ValidationError):
    """Matrix too large for the permanent routine."""


class PhotonNumberMismatch(ValidationError):
    """Input and output occupations carry different total photon number."""


def permanent(M: np.ndarray) -> complex:
    """Matrix permanent by Ryser's inclusion-exclusion with Gray-code updates."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionTooLarge("permanent requires a square matrix")
    n = M.shape[0]
    if n > 20:
        raise DimensionTooLarge(f"matrix size {n} exceeds the n <= 20 limit")
    if n == 0:
        return 1.0 + 0.0j

    row_sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    old_gray = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        changed = gray ^ old_gray
        j = changed.bit_length() - 1
        if gray & changed:
            row_sums += M[:, j]
        else:
            row_sums -= M[:, j]
        sign = -1.0 if (n - gray.bit_count()) & 1 else 1.0
        total += sign * np.prod(row_sums)
        old_gray = gray
    return complex(total)


def fock_amplitude(U: np.ndarray, n_in, n_out) -> complex:
    """<n_out| U |n_in> for a three-mode passive unitary.

    The submatrix repeats row i n_out[i] times and column j n_in[j] times;
    the amplitude is its permanent over the square root of all occupation
    factorials.
    """
    n_in = tuple(int(v) for v in n_in)
    n_out = tuple(int(v) for v in n_out)
    if sum(n_in) != sum(n_out):
        raise PhotonNumberMismatch(f"{n_in} -> {n_out} changes the photon number")
    if sum(n_in) == 0:
        return 1.0 + 0.0j
    rows = [i for i, c in enumerate(n_out) for _ in range(c)]
    cols = [j for j, c in enumerate(n_in) for _ in range(c)]
    sub = np.asarray(U, dtype=complex)[np.ix_(rows, cols)]
    norm = 1.0
    for c in (*n_in, *n_out):
        norm *= math.factorial(c)
    return permanent(sub) / math.sqrt(norm)
