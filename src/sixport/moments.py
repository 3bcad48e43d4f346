"""Operator moments <a^dagger^k a^l> for the generated states.

The production route expands the state's density operator over
photon-added coherent projectors a^dagger^{h_l} |beta><beta| a^{h_r} and
evaluates each projector moment by a closed combinatorial sum,
``_antinormal_terms``; the grid kernel in ``scan`` sums the same table over
whole (|alpha|, phi) grids.  Two generating-series routes stay as
independent cross-checks: ``moment_component`` extracts one projector moment
from a four-variable series, and "way 1" extracts the moment directly from
the full ten-variable generating expression of the heralded density
operator, without ever forming state coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import HeraldImpossible, NonpositiveVariance
from .oracle import FockVector, HeraldSpec, expectation
from .series import FormalSeries, extract_derivative, series_exp

NORM_FLOOR = 1e-28   # below this the herald is analytically forbidden
MAX_POWER = 8        # scope guard on moment powers


@functools.lru_cache(maxsize=None)
def _antinormal_terms(hr: int, k: int, l: int, hl: int):
    """(cr, p, q) with <beta| a^hr a^dagger^k a^l a^dagger^hl |beta> the sum
    of cr conj(beta)**p beta**q over the terms, in summation order."""
    terms = []
    for i in range(min(hr, k) + 1):
        ci = math.factorial(i) * math.comb(hr, i) * math.comb(k, i)
        for j in range(min(l, hl) + 1):
            cj = ci * math.factorial(j) * math.comb(l, j) * math.comb(hl, j)
            for r in range(min(hr - i, hl - j) + 1):
                cr = cj * math.factorial(r) * math.comb(hr - i, r) * math.comb(hl - j, r)
                terms.append((float(cr), (k - i) + (hl - j - r), (hr - i - r) + (l - j)))
    return tuple(terms)


def moment_component(h_l: int, h_r: int, k: int, l: int, seed: complex) -> complex:
    """<a^dagger^k a^l> on the projector a^dagger^{h_l} |seed><seed| a^{h_r}.

    The coherent state |seed> is normalized; the result is the trace
    Tr[a^dagger^k a^l a^dagger^{h_l} |seed><seed| a^{h_r}], obtained as the
    (h_l, h_r, k, l) mixed derivative at zero of
    exp(s nu + t mu + s t) * exp((nu + t) seed + (s + mu) conj(seed)).
    """
    seed = complex(seed)
    orders = (h_l, h_r, k, l)
    poly = FormalSeries.from_terms(
        ("s", "t", "mu", "nu"), orders,
        [({"s": 1, "nu": 1}, 1.0),
         ({"t": 1, "mu": 1}, 1.0),
         ({"s": 1, "t": 1}, 1.0),
         ({"nu": 1}, seed),
         ({"t": 1}, seed),
         ({"s": 1}, seed.conjugate()),
         ({"mu": 1}, seed.conjugate())],
        clip=True,
    )
    return extract_derivative(series_exp(poly), orders)


def moment(state, k: int, l: int) -> complex:
    """<a^dagger^k a^l> on a closed-form state.

    ``state`` carries coefficients c0, c1, c2, the coherent seed, and the
    norm; the moment is the weight-sum of projector moments, each a sum of
    plain Python scalars over ``_antinormal_terms``.
    """
    if not (0 <= k <= MAX_POWER and 0 <= l <= MAX_POWER):
        raise ValueError(f"moment powers limited to 0..{MAX_POWER}")
    if state.norm < NORM_FLOOR:
        raise HeraldImpossible(f"state {state.label} has zero norm")
    cs = (state.c0, state.c1, state.c2)
    beta = complex(state.seed)
    beta_c = beta.conjugate()
    total = 0.0 + 0.0j
    for h_l, c_l in enumerate(cs):
        if c_l == 0:
            continue
        for h_r, c_r in enumerate(cs):
            if c_r == 0:
                continue
            weight = c_l * c_r.conjugate() / state.norm
            anti = 0.0 + 0.0j
            for cr, p, q in _antinormal_terms(h_r, k, l, h_l):
                anti += cr * beta_c ** p * beta ** q
            total += weight * anti
    return complex(total)


_WAY1_VARS = ("s2", "s3", "t2", "t3", "f2", "f3", "g2", "g3", "mu", "nu")


def _way1_series(spec: HeraldSpec, U: np.ndarray, k: int, l: int) -> FormalSeries:
    """Generating series whose mixed derivatives give way-1 moments.

    The constant |alpha u11|^2 in the exponent is dropped; it cancels in the
    moment ratio below.
    """
    a = spec.alpha
    ac = a.conjugate()
    u = np.asarray(U, dtype=complex)
    uc = u.conjugate()
    orders = (spec.n2, spec.n3, spec.m2, spec.m3,
              spec.n2, spec.n3, spec.m2, spec.m3, k, l)
    terms = [
        # herald factor of the ket
        ({"t2": 1}, a * u[0, 1]), ({"t2": 1, "s2": 1}, u[1, 1]),
        ({"t2": 1, "s3": 1}, u[2, 1]),
        ({"t3": 1}, a * u[0, 2]), ({"t3": 1, "s2": 1}, u[1, 2]),
        ({"t3": 1, "s3": 1}, u[2, 2]),
        # herald factor of the bra
        ({"g2": 1}, ac * uc[0, 1]), ({"g2": 1, "f2": 1}, uc[1, 1]),
        ({"g2": 1, "f3": 1}, uc[2, 1]),
        ({"g3": 1}, ac * uc[0, 2]), ({"g3": 1, "f2": 1}, uc[1, 2]),
        ({"g3": 1, "f3": 1}, uc[2, 2]),
        # signal-mode overlap of bra and ket generating amplitudes
        ({"mu": 1}, ac * uc[0, 0]), ({"mu": 1, "f2": 1}, uc[1, 0]),
        ({"mu": 1, "f3": 1}, uc[2, 0]),
        ({"nu": 1}, a * u[0, 0]), ({"nu": 1, "s2": 1}, u[1, 0]),
        ({"nu": 1, "s3": 1}, u[2, 0]),
        ({"f2": 1}, a * u[0, 0] * uc[1, 0]), ({"f3": 1}, a * u[0, 0] * uc[2, 0]),
        ({"s2": 1}, ac * uc[0, 0] * u[1, 0]), ({"s3": 1}, ac * uc[0, 0] * u[2, 0]),
        ({"s2": 1, "f2": 1}, u[1, 0] * uc[1, 0]),
        ({"s2": 1, "f3": 1}, u[1, 0] * uc[2, 0]),
        ({"s3": 1, "f2": 1}, u[2, 0] * uc[1, 0]),
        ({"s3": 1, "f3": 1}, u[2, 0] * uc[2, 0]),
    ]
    poly = FormalSeries.from_terms(_WAY1_VARS, orders, terms, clip=True)
    return series_exp(poly)


def moment_way1(spec: HeraldSpec, U: np.ndarray, k: int, l: int) -> complex:
    """<a^dagger^k a^l> straight from the heralded density operator (way 1)."""
    if not (0 <= k <= MAX_POWER and 0 <= l <= MAX_POWER):
        raise ValueError(f"moment powers limited to 0..{MAX_POWER}")
    exp_series = _way1_series(spec, U, k, l)
    base = (spec.n2, spec.n3, spec.m2, spec.m3,
            spec.n2, spec.n3, spec.m2, spec.m3)
    trace = extract_derivative(exp_series, base + (0, 0))
    if abs(trace) < NORM_FLOOR:
        raise HeraldImpossible("herald has zero probability")
    return complex(extract_derivative(exp_series, base + (k, l)) / trace)


def way1_moment_table(spec: HeraldSpec, U: np.ndarray,
                      kmax: int, lmax: int) -> np.ndarray:
    """All way-1 moments with k <= kmax, l <= lmax from a single series.

    Entry (0, 0) of the underlying extraction normalizes the rest, so the
    success probability never needs to be computed separately here.
    """
    if not (0 <= kmax <= MAX_POWER and 0 <= lmax <= MAX_POWER):
        raise ValueError(f"moment powers limited to 0..{MAX_POWER}")
    exp_series = _way1_series(spec, U, kmax, lmax)
    base = (spec.n2, spec.n3, spec.m2, spec.m3,
            spec.n2, spec.n3, spec.m2, spec.m3)
    trace = extract_derivative(exp_series, base + (0, 0))
    if abs(trace) < NORM_FLOOR:
        raise HeraldImpossible("herald has zero probability")
    out = np.empty((kmax + 1, lmax + 1), dtype=complex)
    for k in range(kmax + 1):
        for l in range(lmax + 1):
            out[k, l] = extract_derivative(exp_series, base + (k, l)) / trace
    return out


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
    """Quadrature variances from the moments with k + l <= 2."""
    first = moment(state, 0, 1)
    n_bar = moment(state, 1, 1).real
    a_sq = moment(state, 0, 2)
    var_x = quadrature_variance("var_x", first, n_bar, a_sq)
    var_p = quadrature_variance("var_p", first, n_bar, a_sq)
    return QuadratureReport(var_x, var_p, squeeze_db(var_x))


def squeeze_db(variance: float) -> float:
    """Squeezing in dB relative to the vacuum variance 0.5; positive means squeezed."""
    if not variance > 0:
        raise NonpositiveVariance(f"variance must be positive, got {variance!r}")
    return -10.0 * math.log10(variance / 0.5)


def expectation_quadratures(state: FockVector) -> tuple[float, float]:
    """(var_x, var_p) straight from number-basis expectation values."""
    first = expectation(state, 0, 1)
    n_bar = expectation(state, 1, 1).real
    a_sq = expectation(state, 0, 2)
    return (quadrature_variance("var_x", first, n_bar, a_sq),
            quadrature_variance("var_p", first, n_bar, a_sq))
