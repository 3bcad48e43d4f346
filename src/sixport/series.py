"""Truncated multivariate formal power series.

Evaluates derivative-at-zero expressions by exact polynomial coefficient
extraction: a mixed partial derivative of an analytic generating expression,
taken at the origin, equals the matching Taylor coefficient times factorials.
All arithmetic here is plain truncated polynomial algebra, exact up to
floating-point rounding.  The exponential, which every generating function
here needs, is built as a product of one-monomial exponentials, each a short
finite sum in the truncated ring.

Coefficients are held in a dense complex ndarray with one axis per variable
(axis length = truncation order + 1).  The orders in play are tiny, so the
dense block stays small even with ten variables; terms whose exponents exceed
the truncation are dropped, which is the defining property of the ring.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .errors import NonzeroConstantTerm, OrderOverflow, VariableMismatch

# Exponent vectors may be given as tuples (positional) or mappings
# {variable name: power}; omitted variables mean power zero.
Exponents = Sequence[int] | Mapping[str, int]


@functools.lru_cache(maxsize=None)
def _axes(variables: tuple[str, ...]) -> dict[str, int]:
    """Axis of each variable name, built once per variables tuple."""
    return {v: axis for axis, v in enumerate(variables)}


class FormalSeries:
    """Polynomial in named formal variables, truncated per variable."""

    __slots__ = ("variables", "orders", "coeffs")

    def __init__(self, variables: Sequence[str], orders: Sequence[int],
                 coeffs: np.ndarray | None = None):
        if len(variables) != len(orders):
            raise VariableMismatch("one truncation order per variable required")
        if any(o < 0 for o in orders):
            raise OrderOverflow("truncation orders must be non-negative")
        self.variables = tuple(variables)
        self.orders = tuple(int(o) for o in orders)
        shape = tuple(o + 1 for o in self.orders)
        if coeffs is None:
            coeffs = np.zeros(shape, dtype=complex)
        elif coeffs.shape != shape:
            raise VariableMismatch(f"coefficient block must have shape {shape}")
        self.coeffs = coeffs

    # -- construction ---------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str], orders: Sequence[int]) -> "FormalSeries":
        return cls(variables, orders)

    @classmethod
    def from_terms(cls, variables: Sequence[str], orders: Sequence[int],
                   terms: Iterable[tuple[Exponents, complex]],
                   clip: bool = False) -> "FormalSeries":
        """Series with the given coefficients; duplicate exponents sum.

        Exponents beyond the truncation raise OrderOverflow unless ``clip``
        is set, in which case those terms are dropped -- the correct image
        of the polynomial in the truncated ring.
        """
        s = cls(variables, orders)
        for exponents, value in terms:
            try:
                idx = s._index(exponents)
            except OrderOverflow:
                if clip:
                    continue
                raise
            s.coeffs[idx] += value
        return s

    def _index(self, exponents: Exponents) -> tuple[int, ...]:
        if isinstance(exponents, Mapping):
            axes = _axes(self.variables)
            raw = [0] * len(self.variables)
            try:
                for v, e in exponents.items():
                    raw[axes[v]] = e
            except KeyError:
                unknown = set(exponents) - set(self.variables)
                raise VariableMismatch(f"unknown variables: {sorted(unknown)}") from None
        else:
            if len(exponents) != len(self.variables):
                raise VariableMismatch("exponent vector length mismatch")
            raw = exponents
        idx = tuple(map(int, raw))
        for e, o, v in zip(idx, self.orders, self.variables):
            if e < 0 or e > o:
                raise OrderOverflow(f"exponent {e} of {v} outside [0, {o}]")
        return idx

    # -- ring operations --------------------------------------------------

    def _check_compatible(self, other: "FormalSeries") -> None:
        if self.variables != other.variables or self.orders != other.orders:
            raise VariableMismatch("series have different variables or orders")

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        self._check_compatible(other)
        return FormalSeries(self.variables, self.orders, self.coeffs + other.coeffs)

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        self._check_compatible(other)
        # Convolve by iterating the sparser factor's nonzero monomials; each
        # monomial is a shift-and-scale of the other block, cropped to the
        # truncation box.
        a, b = self.coeffs, other.coeffs
        if np.count_nonzero(b) > np.count_nonzero(a):
            a, b = b, a
        out = np.zeros_like(a)
        shape = a.shape
        for exp in np.argwhere(b):
            src = tuple(slice(0, n - e) for n, e in zip(shape, exp))
            dst = tuple(slice(e, None) for e in exp)
            out[dst] += b[tuple(exp)] * a[src]
        return FormalSeries(self.variables, self.orders, out)

    def constant_term(self) -> complex:
        return complex(self.coeffs[(0,) * len(self.orders)])

    def nonzero_terms(self) -> list[tuple[tuple[int, ...], complex]]:
        return [(tuple(int(i) for i in idx), complex(self.coeffs[tuple(idx)]))
                for idx in np.argwhere(self.coeffs)]


def series_from_polynomial(terms: Iterable[tuple[Exponents, complex]],
                           variables: Sequence[str],
                           orders: Sequence[int]) -> FormalSeries:
    """Build a series from (exponents, coefficient) pairs."""
    return FormalSeries.from_terms(variables, orders, terms)


def series_mul(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    """Truncated convolution product."""
    return a * b


def series_exp(p: FormalSeries) -> FormalSeries:
    """exp(p), truncated, as a product of monomial exponentials.

    Requires p to have no constant term.  Monomials commute, so exp(p) is the
    product over p's nonzero terms c x^e of sum_n c^n/n! x^(n e), and that
    sum stops at the largest n with n e inside the truncation box.  Each
    factor multiplies the running block in place: one copy of the block, then
    one shifted, scaled slice-add per power.
    """
    if p.constant_term() != 0:
        raise NonzeroConstantTerm("series_exp requires zero constant term")
    shape = p.coeffs.shape
    out = np.zeros(shape, dtype=complex)
    out[(0,) * len(shape)] = 1.0
    for exp in np.argwhere(p.coeffs).tolist():
        c = complex(p.coeffs[tuple(exp)])
        nmax = min(o // e for o, e in zip(p.orders, exp) if e)
        base = out.copy()
        scale = 1.0 + 0.0j
        for n in range(1, nmax + 1):
            scale *= c / n
            src = tuple(slice(0, m - n * e) for m, e in zip(shape, exp))
            dst = tuple(slice(n * e, None) for e in exp)
            out[dst] += scale * base[src]
    return FormalSeries(p.variables, p.orders, out)


def extract_derivative(series: FormalSeries, index: Exponents) -> complex:
    """Mixed partial derivative of the series at the origin.

    Equals the Taylor coefficient at ``index`` times the product of the
    index factorials.
    """
    idx = series._index(index)
    fact = 1.0
    for e in idx:
        fact *= math.factorial(e)
    return complex(series.coeffs[idx]) * fact
