"""Closed-form heralded states.

For ancilla photon numbers at the single-photon level the heralded output of
the interferometer is (c0 + c1 a^dagger + c2 a^dagger^2) |u11 alpha>, up to
normalization, with coefficients that are sums of products of transfer-matrix
entries, one product per partial matching of the occupied input ports to the
counted output ports.  This module holds that rule; the norm,
which is the squared length of the displaced-frame vector v of
D(u11 alpha)|v> (``moments.displaced_frame`` on the three levels
(c0, c1, c2)); the success probability, the norm times the coherent
filtering factor; and the number-basis amplitudes of the state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations

import numpy as np

from .errors import CutoffInadequate, HeraldImpossible, OutOfTableRange, UnknownFamily
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
        raise UnknownFamily(f"unknown family label {label!r}")
    try:
        index = int(name[3:])
        return LABELS[index]
    except (ValueError, KeyError):
        raise UnknownFamily(f"unknown family label {label!r}") from None


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

    @property
    def coeffs(self) -> tuple[complex, complex, complex]:
        return self.c0, self.c1, self.c2


def _level_plan(pattern):
    """Terms of levels 0..2 of ``pattern``, one per partial matching.

    The state is the coefficient of s2^n2 s3^n3 t2^m2 t3^m3 in
    exp(sum_k t_k (alpha u1k + s2 u2k + s3 u3k) + a^dagger (s2 u21 + s3 u31)).
    With every number in {0, 1}, each partial matching of the occupied
    sources (rows 2, 3) to the counted sinks (columns 2, 3) gives one term: a
    matched pair (r, k) gives u_rk, an unmatched sink k alpha u1k and an
    unmatched source r a^dagger u_r1.  Level d holds the terms with d
    unmatched sources and carries alpha^k, k = m - n + d.  Per level: None if
    no matching reaches it, else (k, terms), a term being the indices of its
    U entries in row order.  Matchings are listed by size, then
    lexicographically, which fixes the order of every sum.
    """
    n2, n3, m2, m3 = pattern
    sources = [r for r, n in ((1, n2), (2, n3)) if n]
    sinks = [k for k, m in ((1, m2), (2, m3)) if m]
    levels = [None, None, None]
    for size in range(min(len(sources), len(sinks)) + 1):
        terms = []
        for rows in combinations(sources, size):
            for cols in permutations(sinks, size):
                term = [*zip(rows, cols), *((0, k) for k in sinks if k not in cols),
                        *((r, 0) for r in sources if r not in rows)]
                terms.append(tuple(sorted(term)))
        levels[len(sources) - size] = (len(sinks) - size, tuple(terms))
    return tuple(levels)


_PLANS = {pattern: _level_plan(pattern) for pattern in PATTERNS}


def row_coefficients(pattern, U):
    """Per level of the family heralded by ``pattern``: None or (k, factor).

    A level is None where it is identically zero; else its coefficient is
    ``factor`` times alpha^k, ``factor`` being the sum of its terms' products
    of U entries.  ``U`` may hold scalar entries or arrays broadcast over a
    parameter grid.
    """
    plan = _PLANS.get(tuple(pattern))
    if plan is None:
        raise OutOfTableRange(
            f"pattern {pattern} has photon numbers above 1; use general_heralded")

    def factor(terms):  # the terms' products of U entries, summed in order
        products = [reduce(operator.mul, [U[e] for e in t]) if t else 1.0 for t in terms]
        return reduce(operator.add, products)
    return tuple(None if level is None else (level[0], factor(level[1])) for level in plan)


def times_alpha(levels, alpha):
    """Coefficients (c0, c1, c2) from ``row_coefficients``, a zero level None.

    alpha^1 is ``alpha`` itself: Python's complex ``** 1`` can flip the sign
    of a zero imaginary part.
    """
    return tuple(None if level is None else level[1] if level[0] == 0 else
                 level[1] * alpha if level[0] == 1 else level[1] * alpha ** level[0]
                 for level in levels)


def normalization(c0, c1, c2, seed):
    """Norm squared of (c0 + c1 a^dagger + c2 a^dagger^2)|seed>, |seed> normalized.

    The squared length of the state's three-level displaced-frame vector.
    """
    return displaced_frame((c0, c1, c2), seed)[2]


def table1_coeffs(spec: HeraldSpec, U: np.ndarray) -> ClosedFormState:
    """Closed-form state for a herald pattern with n, m in {0, 1}."""
    pattern = (spec.n2, spec.n3, spec.m2, spec.m3)
    levels = row_coefficients(pattern, U)
    # The level without an alpha factor (k == 0) and the zero levels get
    # + 0.0 * alpha, which fixes the sign of every zero part of the
    # coefficients (they are printed).
    zero = 0.0 * spec.alpha
    c0, c1, c2 = (complex(zero if level is None else c + zero if level[0] == 0 else c)
                  for level, c in zip(levels, times_alpha(levels, spec.alpha)))
    seed = complex(U[0, 0]) * spec.alpha
    norm = float(normalization(c0, c1, c2, seed))
    prob = norm * math.exp((abs(U[0, 0]) ** 2 - 1.0) * spec.alpha_mag ** 2)
    return ClosedFormState(c0, c1, c2, seed, norm, prob, f"psi{PATTERNS[pattern]}")


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
