"""The series engine skips exact-zero and repeated work and still gives every byte.

``full_box_exp`` below is the exponential loop without a support bound: every
factor copies the whole block and every power slice-adds over the whole
truncation box.  ``series_exp`` cuts the copy and the slice-adds to the
support reached so far and skips the copy for single-power factors; a skipped
update would add +-0 to a block that never holds -0, so the two must agree
byte for byte.

``reference_heralded`` is ``general_heralded`` on that loop with one
``moment_component`` series per projector pair for the norm; production takes
every pair from one series truncated at (D, D, 0, 0).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixport import (FormalSeries, HeraldSpec, compose, extract_derivative,
                     general_heralded, series_exp)
from sixport import series as series_module
from sixport.series import _herald_terms, _way1_series

from projector import moment_component

FAST = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def full_box_exp(p, pinned=()):
    """exp(p) by monomial factors, every update over the whole truncation box.

    The ``pinned`` variables are read at their orders from the whole result.
    """
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
    index = tuple(o if v in pinned else slice(None) for v, o in zip(p.variables, p.orders))
    kept = [(v, o) for v, o in zip(p.variables, p.orders) if v not in pinned]
    return FormalSeries([v for v, _ in kept], [o for _, o in kept], np.asarray(out[index]))


@st.composite
def polynomials(draw):
    """Polynomials with 1-4 axes, orders <= 3, duplicate terms and terms past the truncation."""
    orders = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any))
    inside = st.tuples(*(st.integers(0, o) for o in orders)).filter(any)
    # a power one past its order puts the term outside the box: dropped
    past = st.tuples(*(st.integers(0, o + 1) for o in orders)).filter(
        lambda e: any(x > o for x, o in zip(e, orders)))
    value = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                               allow_nan=False, allow_infinity=False)
    terms = draw(st.lists(st.tuples(st.one_of(inside, inside, past), value),
                          min_size=1, max_size=8))
    duplicates = draw(st.lists(st.sampled_from(terms), max_size=3))
    variables = tuple(f"x{i}" for i in range(len(orders)))
    return FormalSeries.from_terms(variables, orders, terms + duplicates)


@FAST
@given(polynomials())
# x y comes after x and y, so its powers read cells the first power writes
@example(FormalSeries.from_terms(("x", "y"), (3, 3), [
    ((1, 0), 0.5 + 1j), ((0, 1), -0.3 + 0.2j), ((1, 1), 0.7 - 0.1j), ((4, 0), 2.0)]))
def test_exp_matches_full_box_loop_bytes(p):
    assert series_exp(p).coeffs.tobytes() == full_box_exp(p).coeffs.tobytes()


@FAST
@given(polynomials().flatmap(
    lambda p: st.tuples(st.just(p), st.sets(st.sampled_from(p.variables)))))
# w is pinned at once (its one term lies past the truncation), y after its
# last mover y z, and the x and x z factors come after that
@example((FormalSeries.from_terms(("x", "y", "z", "w"), (2, 1, 2, 1), [
    ((0, 1, 0, 0), 0.5 + 1j), ((0, 1, 1, 0), -0.3 + 0.2j), ((1, 0, 0, 0), 0.7 - 0.1j),
    ((1, 0, 1, 0), -1.1 - 0.4j), ((0, 0, 0, 2), 2.0)]), {"y", "w"}))
def test_pinned_exp_is_the_full_box_slice(case):
    # pinned axes keep only the slice at their order: the same bytes as that
    # slice of the whole block, for axes that no term moves too
    p, pins = case
    got, want = series_exp(p, pins), full_box_exp(p, pins)
    assert got.variables == want.variables and got.orders == want.orders
    assert got.coeffs.tobytes() == want.coeffs.tobytes()


def reference_heralded(spec, U):
    """(coeffs, seed, norm, probability) on the full-box loop, norm pair by pair."""
    a = spec.alpha
    u = np.asarray(U, dtype=complex)
    variables = ("s2", "s3", "t2", "t3")
    orders = (spec.n2, spec.n3, spec.m2, spec.m3)
    ladder = FormalSeries.from_terms(variables, orders,
                                     [({"s2": 1}, u[1, 0]), ({"s3": 1}, u[2, 0])])
    degree = spec.n2 + spec.n3
    fact = math.prod(math.factorial(n) for n in orders)
    coeffs = np.zeros(degree + 1, dtype=complex)
    block = full_box_exp(FormalSeries.from_terms(variables, orders, _herald_terms(a, u)))
    for d in range(degree + 1):
        coeffs[d] = extract_derivative(block, orders) / math.factorial(d) / math.sqrt(fact)
        if d < degree:
            block = block * ladder
    seed = complex(u[0, 0]) * a
    norm = 0.0
    for dl in range(degree + 1):
        for dr in range(degree + 1):
            if coeffs[dl] == 0 or coeffs[dr] == 0:
                continue
            norm += (coeffs[dl] * coeffs[dr].conjugate()
                     * moment_component(dl, dr, 0, 0, seed)).real
    trace = extract_derivative(_way1_series(spec, u, 0, 0), orders * 2 + (0, 0))
    scale = math.exp((abs(u[0, 0]) ** 2 - 1.0) * spec.alpha_mag ** 2) / fact
    return coeffs, seed, float(norm), float(trace.real * scale)


# the crosscheck's herald tuples beyond the 16-row table, and two at the guard
PATTERNS = [(2, 0, 0, 0), (2, 0, 1, 1), (1, 2, 2, 0), (2, 2, 1, 1),
            (2, 2, 2, 2), (3, 1, 2, 2), (0, 3, 3, 3), (3, 3, 3, 3),
            (4, 4, 2, 2), (0, 0, 6, 6)]


@pytest.mark.parametrize("pattern", PATTERNS)
def test_general_heralded_matches_full_box_reference_bytes(pattern, monkeypatch):
    rng = np.random.default_rng(list(pattern))
    points = [(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.1, 2 * np.pi - 0.1)))
              for _ in range(2)]
    got = [general_heralded(HeraldSpec(*pattern, alpha_mag=m, phi=phi), compose(phi))
           for m, phi in points]
    monkeypatch.setattr(series_module, "series_exp", full_box_exp)
    for res, (m, phi) in zip(got, points):
        coeffs, seed, norm, probability = reference_heralded(
            HeraldSpec(*pattern, alpha_mag=m, phi=phi), compose(phi))
        assert np.array(res.coeffs).tobytes() == coeffs.tobytes()
        assert np.complex128(res.seed).tobytes() == np.complex128(seed).tobytes()
        assert np.float64(res.norm).tobytes() == np.float64(norm).tobytes()
        assert np.float64(res.probability).tobytes() == np.float64(probability).tobytes()
