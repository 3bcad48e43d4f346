"""Operator moments <a^dagger^k a^l> for the generated states.

A closed-form state (c0 + c1 a^dagger + c2 a^dagger^2)|beta> equals
D(beta)|v>, with |v> on |0>, |1>, |2> only, because
D(beta)^dagger a^dagger D(beta) = a^dagger + conj(beta).
``displaced_frame`` builds v, its squared amplitudes and the norm |v|^2,
and ``frame_moments`` the moments <a>, <a^dagger a>, <a^2> in that frame.
Quadrature variances do not change under a displacement, so they come from
those three with no |beta|^2-sized terms to cancel; ``moment`` undoes the
displacement by a binomial sum.  The grid kernel in ``scan`` runs the same two helpers over
whole (|alpha|, phi) grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HeraldImpossible, NonpositiveVariance
from .oracle import FockVector, expectation

NORM_FLOOR = 1e-28   # below this the herald is analytically forbidden
MAX_POWER = 8        # scope guard on moment powers

_SQRT2 = math.sqrt(2.0)


def _abs2(z):
    return z.real ** 2 + z.imag ** 2


def _plus(a, b):
    """a + b, with None standing for an exact zero."""
    if a is None:
        return b
    return a if b is None else a + b


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

def displaced_frame(c0, c1, c2, beta):
    """(v, squares, norm) with (c0 + c1 a^dagger + c2 a^dagger^2)|beta> = D(beta)|v>.

    ``v`` = (v0, v1, v2) holds the amplitudes on |0>, |1>, |2>:
    v0 = c0 + c1 conj(beta) + c2 conj(beta)^2, v1 = c1 + 2 c2 conj(beta) and
    v2 = sqrt(2) c2.  ``squares`` holds |v0|^2, |v1|^2, |v2|^2, and
    ``norm`` = |v|^2 is the state's norm squared, |beta> being normalized.
    A coefficient may be None (zero); a level it leaves zero is None in
    ``v`` and ``squares``.  Works elementwise on arrays.
    """
    beta_c = np.conjugate(beta)
    t = None if c2 is None else np.multiply(c2, beta_c)
    s = _plus(c1, t)
    v = (c0 if s is None else _plus(c0, np.multiply(s, beta_c)),
         _plus(c1, None if t is None else 2.0 * t),
         None if c2 is None else _SQRT2 * c2)
    squares = tuple(None if x is None else _abs2(x) for x in v)
    return v, squares, _plus(_plus(squares[0], squares[1]), squares[2])


def frame_moments(v, squares, norm):
    """(<a>, <a^dagger a>, <a^2>) of the three-level vector ``v``, over ``norm``.

    ``v`` and its ``squares`` are as ``displaced_frame`` returns them.  These
    are the moments in the displaced frame; the quadrature variances built
    from them are those of D(beta)|v> for every beta.  A moment with no
    nonzero term is 0.0.
    """
    v0, v1, v2 = v
    if v1 is None:
        return 0.0, 0.0, 0.0
    v0_c = np.conjugate(v0)
    first = np.multiply(v0_c, v1)
    n_bar = squares[1]
    if v2 is None:
        return first / norm, n_bar / norm, 0.0
    first = first + _SQRT2 * np.multiply(np.conjugate(v1), v2)
    n_bar = n_bar + 2.0 * squares[2]
    return first / norm, n_bar / norm, _SQRT2 * np.multiply(v0_c, v2) / norm


def _state_frame(state):
    """The displaced-frame vector of a closed-form state and its squares, as
    Python scalars."""
    if state.norm < NORM_FLOOR:
        raise HeraldImpossible(f"state {state.label} has zero norm")
    v, squares, _ = displaced_frame(state.c0, state.c1, state.c2, state.seed)
    return [complex(x) for x in v], [float(x) for x in squares]


def moment(state, k: int, l: int) -> complex:
    """<a^dagger^k a^l> on a closed-form state.

    ``state`` carries coefficients c0, c1, c2, the coherent seed beta, and
    the norm.  With a -> a + beta in the displaced frame the moment is the
    sum of C(k, i) C(l, j) conj(beta)^(k-i) beta^(l-j) <a^dagger^i a^j>_v,
    and each frame moment is a sum over at most three levels.
    """
    if not (0 <= k <= MAX_POWER and 0 <= l <= MAX_POWER):
        raise ValueError(f"moment powers limited to 0..{MAX_POWER}")
    v, _ = _state_frame(state)
    beta = complex(state.seed)
    beta_c = beta.conjugate()
    total = 0.0 + 0.0j
    for i in range(min(k, 2) + 1):
        for j in range(min(l, 2) + 1):
            inner = sum(v[s + i].conjugate() * v[s + j]
                        * math.sqrt(math.perm(s + i, i) * math.perm(s + j, j))
                        for s in range(3 - max(i, j)))
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
