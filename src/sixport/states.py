"""Closed-form heralded states.

The heralded output of the interferometer is sum_d c_d a^dagger^d |u11 alpha>,
d = 0..n2+n3, up to normalization, with coefficients that are weighted sums of
products of transfer-matrix entries, one product per matching of the input
photons to the counted output photons.  The paper's sixteen states, every
photon number in {0, 1}, are the three levels (c0, c1, c2).  This module
holds that rule; the norm, which is the squared length of the
displaced-frame vector v of D(u11 alpha)|v> (``moments.displaced_frame``);
the success probability, the norm times the coherent filtering factor; and
the number-basis amplitudes of the state.  ``HeraldedState`` is also the
result of the series route, ``series.general_heralded``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .errors import CutoffInadequate, UnknownFamily, WorkTooLarge
from .moments import check_norm, displaced_frame
from .oracle import TAIL_FRACTION, FockVector, HeraldSpec, fix_global_phase

# Most photons n2 + n3 + m2 + m3 a closed form is built for, a work budget.
# Up to it every closed quantity stays finite for |alpha| <= ALPHA_MAX.
PHOTONS_MAX = 12

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


def family_label(pattern) -> str:
    """``psiN`` for the paper's sixteen herald tuples, else ``general``."""
    index = PATTERNS.get(tuple(pattern))
    return "general" if index is None else f"psi{index}"


def check_photons(pattern) -> None:
    """Refuse a negative photon count (``ValueError``) and over ``PHOTONS_MAX`` photons."""
    if min(pattern) < 0:
        raise ValueError(f"herald photon numbers must be non-negative, got {pattern}")
    if sum(pattern) > PHOTONS_MAX:
        raise WorkTooLarge(f"herald {pattern} has {sum(pattern)} photons, "
                           f"over PHOTONS_MAX = {PHOTONS_MAX}")


@dataclass(frozen=True)
class HeraldedState:
    """sum_d coeffs[d] a^dagger^d |seed>, coeffs Python complex; c0..c2 are 0j past the last."""
    coeffs: tuple[complex, ...]
    seed: complex
    norm: float
    probability: float
    label: str

    c0 = property(lambda self: self.coeffs[0])
    c1 = property(lambda self: self.coeffs[1] if len(self.coeffs) > 1 else 0j)
    c2 = property(lambda self: self.coeffs[2] if len(self.coeffs) > 2 else 0j)


@lru_cache(maxsize=None)
def _level_plan(pattern):
    """Terms of the levels of ``pattern``, one per matrix of matched photon counts.

    The state is sqrt(n2! n3! m2! m3!) times the coefficient of s2^n2 s3^n3
    t2^m2 t3^m3 in
    exp(sum_k t_k (alpha u1k + s2 u2k + s3 u3k) + a^dagger (s2 u21 + s3 u31)).
    A term matches e_rk photons of source r (rows 2, 3) to sink k (columns
    2, 3), each giving u_rk; each unmatched sink photon gives alpha u1k and
    each unmatched source photon a^dagger u_r1.  Its weight is
    sqrt(n2! n3! m2! m3!) over the product of the factorials of all those
    counts, 1 when every count is at most 1.  Level d holds the terms with d
    unmatched source photons and carries alpha^k, k = m - n + d.  Per level:
    None if no term reaches it, else (k, terms), a term being (weight, the
    indices of its U entries in row order with repeats), listed by matched
    total, then by count matrix in descending lexicographic order.  The
    pattern must pass ``check_photons``.
    """
    check_photons(pattern)
    n2, n3, m2, m3 = pattern
    sources = [(r, n) for r, n in ((1, n2), (2, n3)) if n]
    sinks = [(k, m) for k, m in ((1, m2), (2, m3)) if m]
    cells = [((r, k), min(n, m)) for r, n in sources for k, m in sinks]
    root = math.sqrt(math.prod(math.factorial(x) for x in pattern))
    levels = [[] for _ in range(max(3, n2 + n3 + 1))]
    for counts in product(*(range(top, -1, -1) for _, top in cells)):
        e = dict(zip((pair for pair, _ in cells), counts))
        free = [((r, 0), n - sum(e[r, k] for k, _ in sinks)) for r, n in sources]
        free += [((0, k), m - sum(e[r, k] for r, _ in sources)) for k, m in sinks]
        if any(c < 0 for _, c in free):
            continue
        factors = [*e.items(), *free]
        entries = tuple(sorted(i for i, c in factors for _ in range(c)))
        weight = root / math.prod(math.factorial(c) for _, c in factors)
        levels[sum(c for (_, k), c in free if k == 0)].append((weight, entries))
    return tuple((m2 + m3 - n2 - n3 + d, tuple(terms)) if terms else None
                 for d, terms in enumerate(levels))


def row_coefficients(pattern, U):
    """Per level of the state heralded by ``pattern``: None or (k, factor).

    A level is None where it is identically zero; else its coefficient is
    ``factor`` times alpha^k, ``factor`` being the sum of its terms' weighted
    products of U entries.  ``U`` may hold scalar entries or arrays broadcast
    over a parameter grid.
    """
    def factor(terms):  # the terms' products of U entries, weighted and summed in order
        products = []
        for weight, entries in terms:
            p = reduce(operator.mul, [U[e] for e in entries]) if entries else 1.0
            products.append(p if weight == 1.0 else p * weight)
        return reduce(operator.add, products)
    return tuple(None if level is None else (level[0], factor(level[1]))
                 for level in _level_plan(tuple(pattern)))


def times_alpha(levels, alpha):
    """Coefficients c_d from ``row_coefficients``, a zero level None.

    alpha^1 is ``alpha`` itself: Python's complex ``** 1`` can flip the sign
    of a zero imaginary part.
    """
    return tuple(None if level is None else level[1] if level[0] == 0 else
                 level[1] * alpha if level[0] == 1 else level[1] * alpha ** level[0]
                 for level in levels)


def table1_coeffs(spec: HeraldSpec, U: np.ndarray) -> HeraldedState:
    """Closed-form state for any herald tuple of at most ``PHOTONS_MAX`` photons."""
    pattern = (spec.n2, spec.n3, spec.m2, spec.m3)
    levels = row_coefficients(pattern, U)
    # The level without an alpha factor (k == 0) and the zero levels get
    # + 0.0 * alpha, which fixes the sign of every zero part of the
    # coefficients (they are printed).
    zero = 0.0 * spec.alpha
    coeffs = tuple(complex(zero if level is None else c + zero if level[0] == 0 else c)
                   for level, c in zip(levels, times_alpha(levels, spec.alpha)))
    seed = complex(U[0, 0]) * spec.alpha
    norm = float(displaced_frame(coeffs, seed)[2])
    prob = norm * math.exp((abs(U[0, 0]) ** 2 - 1.0) * spec.alpha_mag ** 2)
    return HeraldedState(coeffs, seed, norm, prob, family_label(pattern))


def state_fock_vector(state: HeraldedState, cutoff: int) -> FockVector:
    """Number-basis amplitudes of a ``HeraldedState``."""
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    check_norm(state)
    seed = state.seed
    coherent = np.zeros(cutoff + 1, dtype=complex)
    coherent[0] = math.exp(-0.5 * abs(seed) ** 2)
    for n in range(1, cutoff + 1):
        coherent[n] = coherent[n - 1] * seed / math.sqrt(n)
    amps = np.zeros(cutoff + 1, dtype=complex)
    for d, c in enumerate(state.coeffs):
        if c == 0:
            continue
        for n in range(d, cutoff + 1):
            w = 1.0
            for i in range(n - d + 1, n + 1):   # n!/(n-d)!
                w *= i
            amps[n] += c * math.sqrt(w) * coherent[n - d]
    amps /= math.sqrt(state.norm)
    if abs(amps[cutoff]) ** 2 >= TAIL_FRACTION:
        raise CutoffInadequate(
            f"cutoff {cutoff} leaves tail fraction {abs(amps[cutoff]) ** 2:.3e}")
    return fix_global_phase(FockVector.from_amplitudes(amps))
