"""Closed-form heralded states.

For ancilla photon numbers at the single-photon level the heralded output of
the interferometer is (c0 + c1 a^dagger + c2 a^dagger^2) |u11 alpha>, up to
normalization, with coefficients that are fixed products of transfer-matrix
entries.  This module holds that sixteen-row coefficient table; the norm,
which is the squared length of the displaced-frame vector v of
D(u11 alpha)|v> (``moments.displaced_frame``); the success probability,
the norm times the coherent filtering factor; and the number-basis
amplitudes of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffInadequate, HeraldImpossible, OutOfTableRange
from .interferometer import DerivedCoeffs, derived_coeffs
from .moments import NORM_FLOOR, displaced_frame
from .oracle import TAIL_FRACTION, FockVector, HeraldSpec, fix_global_phase

#: herald pattern (n2, n3, m2, m3) -> family index 1..16
PATTERNS: dict[tuple[int, int, int, int], int] = {
    (0, 0, 0, 0): 1,
    (0, 0, 1, 0): 2,
    (0, 0, 0, 1): 3,
    (0, 0, 1, 1): 4,
    (1, 0, 0, 0): 5,
    (0, 1, 0, 0): 6,
    (1, 1, 0, 0): 7,
    (1, 0, 1, 0): 8,
    (0, 1, 0, 1): 9,
    (0, 1, 1, 0): 10,
    (1, 0, 0, 1): 11,
    (1, 0, 1, 1): 12,
    (0, 1, 1, 1): 13,
    (1, 1, 1, 0): 14,
    (1, 1, 0, 1): 15,
    (1, 1, 1, 1): 16,
}

LABELS: dict[int, tuple[int, int, int, int]] = {i: p for p, i in PATTERNS.items()}


def pattern_for_label(label: str) -> tuple[int, int, int, int]:
    """Herald pattern for a family name like ``psi7``."""
    name = label.strip().lower()
    if not name.startswith("psi"):
        raise ValueError(f"unknown family label {label!r}")
    try:
        index = int(name[3:])
        return LABELS[index]
    except (ValueError, KeyError):
        raise ValueError(f"unknown family label {label!r}") from None


@dataclass(frozen=True)
class ClosedFormState:
    """Coefficients of (c0 + c1 a^dagger + c2 a^dagger^2)|seed>, with metadata."""
    c0: complex
    c1: complex
    c2: complex
    seed: complex
    norm: float
    probability: float
    label: str


def row_coefficients(index: int, U, D: DerivedCoeffs, alpha):
    """Coefficient tuple (c0, c1, c2) of family ``index``.

    A level that is identically zero for the family is None.  ``U`` may hold
    scalar entries or arrays broadcast over a parameter grid; the
    expressions below only index and multiply, so both work alike.  A level
    that does not involve ``alpha`` keeps the shape of the entries it is
    built from.
    """
    u12, u13 = U[0, 1], U[0, 2]
    u21, u31 = U[1, 0], U[2, 0]
    u22, u23 = U[1, 1], U[1, 2]
    u32, u33 = U[2, 1], U[2, 2]
    if index == 1:
        return 1.0, None, None
    if index == 2:
        return u12 * alpha, None, None
    if index == 3:
        return u13 * alpha, None, None
    if index == 4:
        return u12 * u13 * alpha ** 2, None, None
    if index == 5:
        return None, u21, None
    if index == 6:
        return None, u31, None
    if index == 7:
        return None, None, u21 * u31
    if index == 8:
        return u22, u12 * u21 * alpha, None
    if index == 9:
        return u33, u13 * u31 * alpha, None
    if index == 10:
        return u32, u12 * u31 * alpha, None
    if index == 11:
        return u23, u13 * u21 * alpha, None
    if index == 12:
        return D.tau1 * alpha, u12 * u13 * u21 * alpha ** 2, None
    if index == 13:
        return D.tau2 * alpha, u12 * u13 * u31 * alpha ** 2, None
    if index == 14:
        return None, D.tau3, u12 * u21 * u31 * alpha
    if index == 15:
        return None, D.tau4, u13 * u21 * u31 * alpha
    if index == 16:
        return D.tau5, D.kappa * alpha, u12 * u13 * u21 * u31 * alpha ** 2
    raise OutOfTableRange(f"family index {index} outside 1..16")


def normalization(c0, c1, c2, seed):
    """Norm squared of (c0 + c1 a^dagger + c2 a^dagger^2)|seed>, |seed> normalized.

    The squared length of the state's displaced-frame vector.
    """
    return displaced_frame(c0, c1, c2, seed)[2]


def table1_coeffs(spec: HeraldSpec, U: np.ndarray,
                  D: DerivedCoeffs | None = None) -> ClosedFormState:
    """Closed-form state for a herald pattern with n, m in {0, 1}."""
    pattern = (spec.n2, spec.n3, spec.m2, spec.m3)
    if any(v > 1 for v in pattern):
        raise OutOfTableRange(
            f"pattern {pattern} has photon numbers above 1; use general_heralded")
    if D is None:
        D = derived_coeffs(U)
    index = PATTERNS[pattern]
    # Level k carries alpha^(k + m2 + m3 - n2 - n3), photon number being
    # conserved, so at most one level has no alpha factor.  That level and
    # the zero levels get + 0.0 * alpha, which fixes the sign of every zero
    # part of the coefficients (they are printed).
    zero = 0.0 * spec.alpha
    free = spec.n2 + spec.n3 - spec.m2 - spec.m3
    c0, c1, c2 = (complex(zero if c is None else c + zero if k == free else c)
                  for k, c in enumerate(row_coefficients(index, U, D, spec.alpha)))
    seed = complex(U[0, 0]) * spec.alpha
    norm = float(normalization(c0, c1, c2, seed))
    prob = norm * math.exp((abs(U[0, 0]) ** 2 - 1.0) * spec.alpha_mag ** 2)
    return ClosedFormState(c0, c1, c2, seed, norm, prob, f"psi{index}")


def _poly_fock_vector(coeffs, seed: complex, norm: float, cutoff: int) -> FockVector:
    """Number-basis amplitudes of sum_d coeffs[d] a^dagger^d |seed>, over sqrt(norm)."""
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    if norm < NORM_FLOOR:
        raise HeraldImpossible("state has zero norm")
    coherent = np.zeros(cutoff + 1, dtype=complex)
    coherent[0] = math.exp(-0.5 * abs(seed) ** 2)
    for n in range(1, cutoff + 1):
        coherent[n] = coherent[n - 1] * seed / math.sqrt(n)
    amps = np.zeros(cutoff + 1, dtype=complex)
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        for n in range(d, cutoff + 1):
            w = 1.0
            for i in range(n - d + 1, n + 1):   # n!/(n-d)!
                w *= i
            amps[n] += c * math.sqrt(w) * coherent[n - d]
    amps /= math.sqrt(norm)
    if abs(amps[cutoff]) ** 2 >= TAIL_FRACTION:
        raise CutoffInadequate(
            f"cutoff {cutoff} leaves tail fraction {abs(amps[cutoff]) ** 2:.3e}")
    return fix_global_phase(FockVector.from_amplitudes(amps))


def state_fock_vector(state: ClosedFormState, cutoff: int) -> FockVector:
    """Truncated number-basis representation of a closed-form state."""
    return _poly_fock_vector((state.c0, state.c1, state.c2),
                             state.seed, state.norm, cutoff)
