"""The paper's derivative method, used only as a cross-check.

The paper writes every heralded state and moment as a mixed derivative at
zero of a generating function: a Taylor coefficient times factorials, here
extracted exactly from a truncated multivariate power series.  The
exponential is a product of one-monomial exponentials, each a short finite
sum.  Coefficients sit in a dense complex ndarray, one axis per variable
(length = truncation order + 1); terms beyond the truncation are dropped.

No work is spent on exact zeros or repeats.  ``series_exp`` updates only the
box of coefficients it has reached so far, and ``general_heralded`` takes
every overlap of its norm from one series, since a coefficient of a longer
truncation gets the same additions, in the same order, as that of a shorter
one.  Both give the full computation's bytes.

On the engine sit ``general_heralded`` (the state for any photon numbers),
``moment_component`` (one projector moment) and way 1, ``way1_moment_table``
(moments straight from the heralded density operator).  Only ``verification``,
the tests and ``state --method general`` use this module.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (HeraldImpossible, NonzeroConstantTerm, OrderOverflow,
                     SeriesOrderTooLarge, VariableMismatch)
from .moments import MAX_POWER, NORM_FLOOR
from .oracle import HeraldSpec

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
    def from_terms(cls, variables: Sequence[str], orders: Sequence[int],
                   terms: Iterable[tuple[Exponents, complex]]) -> "FormalSeries":
        """Series with the given coefficients; duplicate exponents sum.

        Terms with exponents beyond the truncation are dropped: the image of
        the polynomial in the truncated ring.
        """
        s = cls(variables, orders)
        for exponents, value in terms:
            try:
                s.coeffs[s._index(exponents)] += value
            except OrderOverflow:
                pass
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

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        if self.variables != other.variables or self.orders != other.orders:
            raise VariableMismatch("series have different variables or orders")
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


def series_exp(p: FormalSeries) -> FormalSeries:
    """exp(p), truncated, as a product of monomial exponentials.

    Requires p to have no constant term.  Monomials commute, so exp(p) is the
    product over p's nonzero terms c x^e of sum_n c^n/n! x^(n e), and that
    sum stops at the largest n with n e inside the truncation box.  Each
    factor multiplies the running block in place: one shifted, scaled
    slice-add per power, read from a copy of the block unless the factor has
    a single power.

    Only the support reached so far is touched.  Its exclusive upper corner
    ``top`` starts at (1, ..., 1) and grows to min(orders + 1, top + nmax e)
    with each factor; the copy and every slice-add are cut to that box.  A
    coefficient outside it is an exact +0, and the block never holds -0
    (every update is ``+=``, and in round-to-nearest +0 + -0 and x + -x are
    +0), so each skipped update would have added +-0 and changed no bit.
    For finite coefficients the result is the full-box loop's, byte for
    byte.
    """
    if p.coeffs[(0,) * len(p.orders)] != 0:
        raise NonzeroConstantTerm("series_exp requires zero constant term")
    shape = p.coeffs.shape
    out = np.zeros(shape, dtype=complex)
    out[(0,) * len(shape)] = 1.0
    top = [1] * len(shape)
    for exp in np.argwhere(p.coeffs).tolist():
        c = complex(p.coeffs[tuple(exp)])
        moved = [(axis, e) for axis, e in enumerate(exp) if e]
        nmax = min(p.orders[axis] // e for axis, e in moved)
        # only the moved axes' slices differ between src, dst and the box
        src = [slice(0, t) for t in top]
        dst = src.copy()
        # with one power, scale * out[src] is evaluated into a temporary
        # before the add, so no copy is needed
        base = out if nmax == 1 else out[tuple(src)].copy()
        scale = 1.0 + 0.0j
        for n in range(1, nmax + 1):
            scale *= c / n
            for axis, e in moved:
                k = min(top[axis], shape[axis] - n * e)
                src[axis] = slice(0, k)
                dst[axis] = slice(n * e, n * e + k)
            out[tuple(dst)] += scale * base[tuple(src)]
        for axis, e in moved:
            top[axis] = min(shape[axis], top[axis] + nmax * e)
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


# -- projector moments ---------------------------------------------------------

def moment_component(h_l: int, h_r: int, k: int, l: int, seed: complex) -> complex:
    """<a^dagger^k a^l> on the projector a^dagger^{h_l} |seed><seed| a^{h_r}.

    The coherent state |seed> is normalized; the result is the trace
    Tr[a^dagger^k a^l a^dagger^{h_l} |seed><seed| a^{h_r}], obtained as the
    (h_l, h_r, k, l) mixed derivative at zero of
    exp(s nu + t mu + s t) * exp((nu + t) seed + (s + mu) conj(seed)).
    """
    orders = (h_l, h_r, k, l)
    return extract_derivative(_projector_series(orders, seed), orders)


def _projector_series(orders: tuple[int, int, int, int], seed: complex) -> FormalSeries:
    """The generating series of ``moment_component``, truncated at ``orders``.

    Its (h_l, h_r, k, l) coefficient depends only on the terms that can reach
    it, so one series truncated at (D, D, k, l) holds every projector pair up
    to D, each bit for bit as its own series would.
    """
    seed = complex(seed)
    seed_c = seed.conjugate()
    poly = FormalSeries.from_terms(("s", "t", "mu", "nu"), orders, [
        ({"s": 1, "nu": 1}, 1.0), ({"t": 1, "mu": 1}, 1.0), ({"s": 1, "t": 1}, 1.0),
        ({"nu": 1}, seed), ({"t": 1}, seed), ({"s": 1}, seed_c), ({"mu": 1}, seed_c)])
    return series_exp(poly)


# -- way 1: moments straight from the heralded density operator ----------------

def _herald_terms(a, u, names=("s2", "s3", "t2", "t3")) -> list:
    """Terms of the herald polynomial: t_k (a u[0, k] + s2 u[1, k] + s3 u[2, k]), k = 1, 2.

    ``names`` gives (s2, s3, t2, t3).  The bra's terms are those of conj(a),
    conj(u) under the names (f2, f3, g2, g3).
    """
    s2, s3, t2, t3 = names
    return [({t2: 1}, a * u[0, 1]), ({t2: 1, s2: 1}, u[1, 1]), ({t2: 1, s3: 1}, u[2, 1]),
            ({t3: 1}, a * u[0, 2]), ({t3: 1, s2: 1}, u[1, 2]), ({t3: 1, s3: 1}, u[2, 2])]


def _trace_terms(a, u) -> list:
    """Exponent terms of the trace of the heralded density operator.

    The ket's herald terms, the bra's, and the signal-mode overlap of the
    two generating amplitudes, which couples s and f.  The constant
    |a u[0, 0]|^2 is left out.
    """
    ac = a.conjugate()
    uc = u.conjugate()
    overlap = [
        ({"s2": 1}, ac * uc[0, 0] * u[1, 0]), ({"s3": 1}, ac * uc[0, 0] * u[2, 0]),
        ({"f2": 1}, a * u[0, 0] * uc[1, 0]), ({"f3": 1}, a * u[0, 0] * uc[2, 0]),
        ({"s2": 1, "f2": 1}, u[1, 0] * uc[1, 0]),
        ({"s2": 1, "f3": 1}, u[1, 0] * uc[2, 0]),
        ({"s3": 1, "f2": 1}, u[2, 0] * uc[1, 0]),
        ({"s3": 1, "f3": 1}, u[2, 0] * uc[2, 0]),
    ]
    return _herald_terms(a, u) + _herald_terms(ac, uc, ("f2", "f3", "g2", "g3")) + overlap


_WAY1_VARS = ("s2", "s3", "t2", "t3", "f2", "f3", "g2", "g3", "mu", "nu")


def _way1_series(spec: HeraldSpec, U: np.ndarray, k: int, l: int) -> FormalSeries:
    """Generating series whose mixed derivatives give way-1 moments.

    The trace terms gain the generating variables mu (a^dagger) and nu (a).
    The constant |alpha u11|^2 in the exponent is dropped; it cancels in the
    moment ratio below.
    """
    a = spec.alpha
    ac = a.conjugate()
    u = np.asarray(U, dtype=complex)
    uc = u.conjugate()
    terms = _trace_terms(a, u) + [
        ({"mu": 1}, ac * uc[0, 0]), ({"mu": 1, "f2": 1}, uc[1, 0]),
        ({"mu": 1, "f3": 1}, uc[2, 0]),
        ({"nu": 1}, a * u[0, 0]), ({"nu": 1, "s2": 1}, u[1, 0]),
        ({"nu": 1, "s3": 1}, u[2, 0]),
    ]
    orders = (spec.n2, spec.n3, spec.m2, spec.m3) * 2 + (k, l)
    poly = FormalSeries.from_terms(_WAY1_VARS, orders, terms)
    return series_exp(poly)


def way1_moment_table(spec: HeraldSpec, U: np.ndarray,
                      kmax: int, lmax: int) -> np.ndarray:
    """All way-1 moments <a^dagger^k a^l>, k <= kmax, l <= lmax, from one series.

    Entry (0, 0) of the underlying extraction normalizes the rest, so the
    success probability never needs to be computed separately here.
    """
    if not (0 <= kmax <= MAX_POWER and 0 <= lmax <= MAX_POWER):
        raise ValueError(f"moment powers limited to 0..{MAX_POWER}")
    exp_series = _way1_series(spec, U, kmax, lmax)
    base = (spec.n2, spec.n3, spec.m2, spec.m3) * 2     # the ket's and the bra's
    trace = extract_derivative(exp_series, base + (0, 0))
    if abs(trace) < NORM_FLOOR:
        raise HeraldImpossible("herald has zero probability")
    out = np.empty((kmax + 1, lmax + 1), dtype=complex)
    for k in range(kmax + 1):
        for l in range(lmax + 1):
            out[k, l] = extract_derivative(exp_series, base + (k, l)) / trace
    return out


# -- the heralded state for any photon numbers --------------------------------

@dataclass(frozen=True)
class GeneralHeraldResult:
    """Series-extraction result: polynomial-in-a^dagger coefficients over |seed>."""
    coeffs: np.ndarray      # degree-d coefficient at index d
    seed: complex
    norm: float
    probability: float

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


_ORDER_GUARD = 12


def general_heralded(spec: HeraldSpec, U: np.ndarray) -> GeneralHeraldResult:
    """Heralded state for arbitrary photon numbers by series extraction.

    Works for any n2 + n3 + m2 + m3 up to the order guard; on patterns with
    all numbers in {0, 1} it reproduces the table rows coefficient by
    coefficient.  The norm's (D + 1)^2 overlaps, D = n2 + n3, come from one
    series truncated at (D, D, 0, 0).  With the support-bounded
    ``series_exp`` that took (3, 3, 3, 3) from 16.7 to 5.9 ms (in-process,
    2 vCPUs, median over 12 alternating rounds of the fastest of 15 calls);
    most of what is left is the way-1 trace over its 65,536-cell block.
    """
    if spec.n2 + spec.n3 + spec.m2 + spec.m3 > _ORDER_GUARD:
        raise SeriesOrderTooLarge(
            f"total photon number exceeds the guard {_ORDER_GUARD}")
    a = spec.alpha
    u = np.asarray(U, dtype=complex)
    variables = ("s2", "s3", "t2", "t3")
    orders = (spec.n2, spec.n3, spec.m2, spec.m3)
    ladder = FormalSeries.from_terms(variables, orders,
                                     [({"s2": 1}, u[1, 0]), ({"s3": 1}, u[2, 0])])

    degree = spec.n2 + spec.n3
    coeffs = np.zeros(degree + 1, dtype=complex)
    block = series_exp(FormalSeries.from_terms(variables, orders, _herald_terms(a, u)))
    for d in range(degree + 1):
        coeffs[d] = extract_derivative(block, orders) / math.factorial(d)
        if d < degree:
            block = block * ladder

    seed = complex(u[0, 0]) * a
    # every overlap <seed| a^dr a^dagger^dl |seed> from one series; pairs
    # with a zero coefficient add nothing and are skipped
    overlaps = _projector_series((degree, degree, 0, 0), seed)
    norm = 0.0
    for dl in range(degree + 1):
        for dr in range(degree + 1):
            if coeffs[dl] == 0 or coeffs[dr] == 0:
                continue
            norm += (coeffs[dl] * coeffs[dr].conjugate()
                     * extract_derivative(overlaps, (dl, dr, 0, 0))).real
    # the success probability: the way-1 trace with no moment variables
    trace = extract_derivative(_way1_series(spec, u, 0, 0), orders * 2 + (0, 0))
    fact = math.prod(math.factorial(n) for n in orders)
    scale = math.exp((abs(u[0, 0]) ** 2 - 1.0) * spec.alpha_mag ** 2) / fact
    return GeneralHeraldResult(coeffs, seed, float(norm), float(trace.real * scale))
