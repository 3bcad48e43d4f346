"""Operator moments <a^dagger^k a^l> for the generated states.

A state sum_{d < L} c_d a^dagger^d |beta> equals D(beta)|v>, v on the levels
|0> .. |L-1>, as D(beta)^dagger a^dagger D(beta) = a^dagger + conj(beta); the
paper's states (c0 + c1 a^dagger + c2 a^dagger^2)|beta> are L = 3.
``displaced_frame`` builds v, its squares and the norm |v|^2, ``frame_moments``
the moments <a>, <a^dagger a>, <a^2> of |v>.  A displacement leaves the
quadrature variances unchanged, so they come from those three with no
|beta|^2-sized terms to cancel; ``moment`` undoes the displacement by a
binomial sum.  ``scan`` runs the same two helpers over whole grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import HeraldImpossible, NonpositiveVariance
from .oracle import FockVector, expectation

NORM_FLOOR = 1e-28   # below this the herald is analytically forbidden
MAX_POWER = 8        # scope guard on moment powers


def _plus(a, b):
    """a + b, with None standing for an exact zero."""
    if a is None:
        return b
    return a if b is None else a + b


def _scaled(k, a):
    """k a for a real k, skipped when k is 1, with None standing for zero."""
    return a if a is None or k == 1 else k * a


# Every complex product below is written np.multiply(left, right).  numpy's
# complex multiply fuses multiply-adds on CPUs that have them, so a * b and
# b * a can differ in the last bit, and the * operator evaluates a large
# ``named * temporary`` in the temporary's buffer with the operands swapped.
# The written order keeps every grid cell bit-equal to the same point
# evaluated alone.
#
# A coefficient or level given as None is identically zero, and every term
# it would enter is skipped.  A skipped term would only add an exact zero,
# so the values are those of the full sums.

def displaced_frame(coeffs, beta):
    """(v, squares, norm) with sum_d coeffs[d] a^dagger^d |beta> = D(beta)|v>.

    ``v`` holds the amplitudes on |0> .. |L-1>, L = len(coeffs):
    v_s = sqrt(s!) sum_{d >= s} C(d, s) c_d conj(beta)^(d - s), by Horner's
    rule in conj(beta).  ``squares`` holds the |v_s|^2, and ``norm`` = |v|^2
    is the state's norm squared, |beta> being normalized.  A coefficient may
    be None (zero); a level it leaves zero, always a suffix of the levels, is
    None in ``v`` and ``squares``.  Works elementwise on arrays.
    """
    beta_c = np.conjugate(beta)
    top = len(coeffs) - 1
    # each level's Horner sum starts from this one product, times C(top, s)
    head = None if coeffs[top] is None else np.multiply(coeffs[top], beta_c)
    v = []
    for s in range(top + 1):
        h = coeffs[top] if s == top else _scaled(math.comb(top, s), head)
        for d in range(top - 1, s - 1, -1):
            if d < top - 1 and h is not None:
                h = np.multiply(h, beta_c)
            h = _plus(_scaled(math.comb(d, s), coeffs[d]), h)
        v.append(_scaled(math.sqrt(math.factorial(s)), h))
    squares = tuple(None if x is None else x.real ** 2 + x.imag ** 2 for x in v)
    return tuple(v), squares, reduce(_plus, squares)


def frame_moments(v, squares, norm):
    """(<a>, <a^dagger a>, <a^2>) of the frame vector ``v``, over ``norm``.

    ``v`` and its ``squares`` are as ``displaced_frame`` returns them.  Over
    the levels present, <a> = sum_s sqrt(s) conj(v_{s-1}) v_s, <a^dagger a> =
    sum_s s |v_s|^2 and <a^2> = sum_s sqrt(s (s - 1)) conj(v_{s-2}) v_s, the
    moments of |v>.  A sum with no term is 0.0.
    """
    v_c = []
    first = n_bar = None
    for s in range(1, len(v)):
        if v[s] is None:   # the zero levels are a suffix
            break
        v_c.append(np.conjugate(v[s - 1]))
        first = _plus(first, _scaled(math.sqrt(s), np.multiply(v_c[s - 1], v[s])))
        n_bar = _plus(n_bar, _scaled(s, squares[s]))
    # <a^2> last, once the undivided sums are freed: fewer live grid-sized arrays
    first, n_bar = (0.0, 0.0) if first is None else (first / norm, n_bar / norm)
    a_sq = reduce(_plus, [_scaled(math.sqrt(s * (s - 1)), np.multiply(v_c[s - 2], v[s]))
                          for s in range(2, len(v_c) + 1)], None)
    return first, n_bar, 0.0 if a_sq is None else a_sq / norm


def check_norm(state) -> None:
    """Refuse a state whose norm is below ``NORM_FLOOR``: its herald is impossible."""
    if state.norm < NORM_FLOOR:
        raise HeraldImpossible(f"state {state.label} has zero norm")


def _state_frame(state):
    """The displaced-frame vector of a state and its squares, as Python scalars."""
    check_norm(state)
    v, squares, _ = displaced_frame(state.coeffs, state.seed)
    return [complex(x) for x in v], [float(x) for x in squares]


def moment(state, k: int, l: int) -> complex:
    """<a^dagger^k a^l> on a ``states.HeraldedState``.

    ``state`` carries ``coeffs``, the coherent seed beta, and the norm.  With
    a -> a + beta in the displaced frame the moment is the sum of
    C(k, i) C(l, j) conj(beta)^(k-i) beta^(l-j) <a^dagger^i a^j>_v, and each
    frame moment is a sum over the frame's levels.
    """
    if not (0 <= k <= MAX_POWER and 0 <= l <= MAX_POWER):
        raise ValueError(f"moment powers limited to 0..{MAX_POWER}")
    v, _ = _state_frame(state)
    beta = complex(state.seed)
    beta_c = beta.conjugate()
    total = 0.0 + 0.0j
    for i in range(min(k, len(v) - 1) + 1):
        for j in range(min(l, len(v) - 1) + 1):
            inner = sum(v[s + i].conjugate() * v[s + j]
                        * math.sqrt(math.perm(s + i, i) * math.perm(s + j, j))
                        for s in range(len(v) - max(i, j)))
            total += (math.comb(k, i) * math.comb(l, j)
                      * beta_c ** (k - i) * beta ** (l - j) * inner)
    return complex(total / state.norm)


@dataclass(frozen=True)
class QuadratureReport:
    """Variances of x = (a + a^dagger)/sqrt(2) and p = (a - a^dagger)/(i sqrt(2))."""
    var_x: float
    var_p: float
    squeeze_db_x: float


def quadrature_variance(name: str, first, n_bar, a_sq):
    """``var_x`` or ``var_p`` (as ``name`` says) from <a>, <a^dagger a>, <a^2>.

    The one quadrature formula of the package; works elementwise on arrays.
    """
    if name == "var_x":
        return 0.5 + n_bar + a_sq.real - 2.0 * first.real ** 2
    return 0.5 + n_bar - a_sq.real - 2.0 * first.imag ** 2


def quadratures(state) -> QuadratureReport:
    """Quadrature variances from the displaced-frame moments with k + l <= 2."""
    first, n_bar, a_sq = frame_moments(*_state_frame(state), state.norm)
    var_x = float(quadrature_variance("var_x", first, n_bar, a_sq))
    var_p = float(quadrature_variance("var_p", first, n_bar, a_sq))
    return QuadratureReport(var_x, var_p, squeeze_db(var_x))


def squeeze_db(variance: float) -> float:
    """Squeezing in dB relative to the vacuum variance 0.5; positive means squeezed."""
    if not variance > 0:
        raise NonpositiveVariance(f"variance must be positive, got {variance!r}")
    # + 0.0 turns the -0.0 of the vacuum variance into 0.0 and changes no other value
    return -10.0 * math.log10(variance / 0.5) + 0.0


def expectation_quadratures(state: FockVector) -> tuple[float, float]:
    """(var_x, var_p) straight from number-basis expectation values."""
    first = expectation(state, 0, 1)
    n_bar = expectation(state, 1, 1).real
    a_sq = expectation(state, 0, 2)
    return (quadrature_variance("var_x", first, n_bar, a_sq),
            quadrature_variance("var_p", first, n_bar, a_sq))
