"""Exact rational reference for the closed-form states.

The inputs a float computation sees are exact rationals: the two floats of
e^{-i phi} and |alpha| (theta = 0).  From them the transfer matrix, the
sixteen coefficient rows, the coherent seed beta and every moment are exact
rationals too, evaluated here on ``fractions.Fraction``.  The only
irrational factor is the probability's filtering exponential, taken with
``decimal`` at 40 digits.

The module shares no code with ``sixport``: it carries its own copy of the
coefficient rows and evaluates each moment as the projector sum over the
photon-added coherent projectors a^dagger^hl |beta><beta| a^hr,

    <beta| a^hr a^dagger^k a^l a^dagger^hl |beta>
        = sum over i, j, r of  i! C(hr, i) C(k, i)  j! C(l, j) C(hl, j)
          r! C(hr - i, r) C(hl - j, r)
          conj(beta)^((k - i) + (hl - j - r))  beta^((hr - i - r) + (l - j)),

the normal ordering of a^hr a^dagger^k, of a^l a^dagger^hl and of what
stands between them.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np


class Q:
    """Complex rational number."""
    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return Q(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Q(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, Q):
            return Q(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)
        return Q(self.re * other, self.im * other)

    __rmul__ = __mul__

    def conj(self) -> "Q":
        return Q(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


ZERO = Q(0)
ONE = Q(1)


def phase_factor(phi: float) -> complex:
    """e^{-i phi} as the grid kernel computes it for a single point."""
    return complex(np.exp(-1j * np.array([phi]))[0])


def rows(e: complex, alpha_mag: float):
    """Exact (c0, c1, c2) of all sixteen families by index, and u11.

    The transfer matrix has (e + 2)/3 on the diagonal and (e - 1)/3 off it.
    """
    eq = Q(e.real, e.imag)
    d = (eq + Q(2)) * Fraction(1, 3)
    o = (eq - ONE) * Fraction(1, 3)
    u = {(i, j): d if i == j else o for i in (1, 2, 3) for j in (1, 2, 3)}
    a = Fraction(alpha_mag)
    a2 = a * a
    tau1 = u[1, 2] * u[2, 3] + u[1, 3] * u[2, 2]
    tau2 = u[1, 2] * u[3, 3] + u[1, 3] * u[3, 2]
    tau3 = u[2, 1] * u[3, 2] + u[2, 2] * u[3, 1]
    tau4 = u[2, 1] * u[3, 3] + u[2, 3] * u[3, 1]
    tau5 = u[2, 3] * u[3, 2] + u[2, 2] * u[3, 3]
    kappa = (u[1, 2] * u[2, 3] * u[3, 1] + u[1, 3] * u[2, 2] * u[3, 1]
             + u[1, 3] * u[2, 1] * u[3, 2] + u[1, 2] * u[2, 1] * u[3, 3])
    table = {
        1: (ONE, ZERO, ZERO),
        2: (u[1, 2] * a, ZERO, ZERO),
        3: (u[1, 3] * a, ZERO, ZERO),
        4: (u[1, 2] * u[1, 3] * a2, ZERO, ZERO),
        5: (ZERO, u[2, 1], ZERO),
        6: (ZERO, u[3, 1], ZERO),
        7: (ZERO, ZERO, u[2, 1] * u[3, 1]),
        8: (u[2, 2], u[1, 2] * u[2, 1] * a, ZERO),
        9: (u[3, 3], u[1, 3] * u[3, 1] * a, ZERO),
        10: (u[3, 2], u[1, 2] * u[3, 1] * a, ZERO),
        11: (u[2, 3], u[1, 3] * u[2, 1] * a, ZERO),
        12: (tau1 * a, u[1, 2] * u[1, 3] * u[2, 1] * a2, ZERO),
        13: (tau2 * a, u[1, 2] * u[1, 3] * u[3, 1] * a2, ZERO),
        14: (ZERO, tau3, u[1, 2] * u[2, 1] * u[3, 1] * a),
        15: (ZERO, tau4, u[1, 3] * u[2, 1] * u[3, 1] * a),
        16: (tau5, kappa * a, u[1, 2] * u[1, 3] * u[2, 1] * u[3, 1] * a2),
    }
    return table, d


def _projector_moment(hr: int, k: int, l: int, hl: int, bc_pow, b_pow) -> Q:
    total = ZERO
    for i in range(min(hr, k) + 1):
        ci = math.factorial(i) * math.comb(hr, i) * math.comb(k, i)
        for j in range(min(l, hl) + 1):
            cj = ci * math.factorial(j) * math.comb(l, j) * math.comb(hl, j)
            for r in range(min(hr - i, hl - j) + 1):
                cr = cj * math.factorial(r) * math.comb(hr - i, r) * math.comb(hl - j, r)
                p = (k - i) + (hl - j - r)
                q = (hr - i - r) + (l - j)
                total = total + bc_pow[p] * b_pow[q] * cr
    return total


def raw_moment(cs, beta: Q, k: int, l: int) -> Q:
    """Unnormalized <psi| a^dagger^k a^l |psi> for psi = sum_h c_h a^dagger^h |beta>."""
    top = max(k, l) + 2
    b_pow, bc_pow = [ONE], [ONE]
    for _ in range(top):
        b_pow.append(b_pow[-1] * beta)
        bc_pow.append(bc_pow[-1] * beta.conj())
    total = ZERO
    for hl, c_l in enumerate(cs):
        if c_l.abs2() == 0:
            continue
        for hr, c_r in enumerate(cs):
            if c_r.abs2() == 0:
                continue
            total = total + c_l * c_r.conj() * _projector_moment(hr, k, l, hl, bc_pow, b_pow)
    return total


class ExactState:
    """Exact norm, moments, quadrature variances and probability of one point."""

    def __init__(self, index: int, alpha_mag: float, phi: float):
        table, u11 = rows(phase_factor(phi), alpha_mag)
        self.cs = table[index]
        self.beta = u11 * Fraction(alpha_mag)
        #: (|u11|^2 - 1) |alpha|^2, the filtering exponent
        self.filter_exponent = (u11.abs2() - 1) * Fraction(alpha_mag) ** 2
        self.norm = raw_moment(self.cs, self.beta, 0, 0).re

    def moment(self, k: int, l: int) -> Q:
        return raw_moment(self.cs, self.beta, k, l) * (1 / self.norm)

    def variances(self) -> tuple[Fraction, Fraction]:
        """Exact (var_x, var_p)."""
        first = self.moment(0, 1)
        n_bar = self.moment(1, 1).re
        a_sq = self.moment(0, 2)
        var_x = Fraction(1, 2) + n_bar + a_sq.re - 2 * first.re ** 2
        var_p = Fraction(1, 2) + n_bar - a_sq.re - 2 * first.im ** 2
        return var_x, var_p

    def probability(self) -> float:
        """norm * exp((|u11|^2 - 1) |alpha|^2) to 40 digits, rounded once."""
        x = self.filter_exponent
        with localcontext() as ctx:
            ctx.prec = 40
            factor = (Decimal(x.numerator) / Decimal(x.denominator)).exp()
            norm = Decimal(self.norm.numerator) / Decimal(self.norm.denominator)
            return float(norm * factor)
