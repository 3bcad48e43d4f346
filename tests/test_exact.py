"""The closed-form kernel against the exact rational reference in ``exact.py``.

The reference is first checked against the independent float routes (the
coefficient table and the Fock oracle); the kernel is then held to
ulp-level bounds at seeded points across the box and far beyond it.
"""

from fractions import Fraction

import numpy as np
import pytest

from exact import ExactState, Q, phase_factor, raw_moment, rows
from sixport import (
    LABELS,
    HeraldSpec,
    compose,
    evaluate_point,
    herald_state,
    moment,
    table1_coeffs,
)
from sixport.moments import displaced_frame

EPS = np.finfo(float).eps


def _points(count, alpha_max, seed):
    rng = np.random.default_rng(seed)
    return [(float(rng.uniform(0.0, alpha_max)), float(rng.uniform(0.0, 2 * np.pi)))
            for _ in range(count)]


# six points in the optimisation box, and one each at |alpha| 1e2, 1e4, 1e6
POINTS = (_points(6, 10.0, 0)
          + [(alpha, phi) for alpha, (_, phi) in zip((1e2, 1e4, 1e6), _points(3, 1.0, 1))])


def _state(index, alpha, phi):
    return table1_coeffs(HeraldSpec(*LABELS[index], alpha_mag=alpha, phi=phi), compose(phi))


def test_reference_reproduces_table_coefficients():
    for alpha, phi in _points(4, 10.0, 2):
        table, u11 = rows(phase_factor(phi), alpha)
        beta = (u11 * Fraction(alpha)).to_complex()
        for index in range(1, 17):
            st = _state(index, alpha, phi)
            assert st.seed == pytest.approx(beta, rel=1e-15)
            for got, want in zip((st.c0, st.c1, st.c2), table[index]):
                assert got == pytest.approx(want.to_complex(), rel=1e-14), index


def test_reference_reproduces_oracle_probability():
    for alpha, phi in _points(3, 3.0, 3):
        for index in range(1, 17):
            ref = ExactState(index, alpha, phi)
            _, prob = herald_state(HeraldSpec(*LABELS[index], alpha_mag=alpha, phi=phi))
            assert prob == pytest.approx(ref.probability(), rel=1e-9), index


@pytest.mark.parametrize("index", range(1, 17))
def test_kernel_variances_match_exact_reference(index):
    for alpha, phi in POINTS:
        ref = ExactState(index, alpha, phi)
        if ref.norm == 0:
            continue
        var_x, var_p = ref.variances()
        _, got_x, got_p = evaluate_point(index, alpha, phi)
        assert got_x == pytest.approx(float(var_x), rel=2e-15), (alpha, phi)
        assert got_p == pytest.approx(float(var_p), rel=2e-15), (alpha, phi)


@pytest.mark.parametrize("index", range(1, 17))
def test_norm_matches_exact_reference(index):
    for alpha, phi in POINTS:
        ref = ExactState(index, alpha, phi)
        if ref.norm == 0:
            continue
        st = _state(index, alpha, phi)
        # the kernel alone: the norm of the float coefficients, against the
        # exact norm of those same coefficients
        cs = [Q(complex(c).real, complex(c).imag) for c in (st.c0, st.c1, st.c2)]
        beta = complex(st.seed)
        exact = raw_moment(cs, Q(beta.real, beta.imag), 0, 0).re
        assert displaced_frame((st.c0, st.c1, st.c2), st.seed)[2] == pytest.approx(
            float(exact), rel=1e-15), (alpha, phi)
        # end to end: the table's coefficients carry up to ~10 eps of their
        # own rounding (products of up to four matrix entries, squared)
        assert st.norm == pytest.approx(float(ref.norm), rel=4e-15), (alpha, phi)


@pytest.mark.parametrize("index", range(1, 17))
def test_probability_matches_exact_reference(index):
    # the norm's bound, and the filtering factor exp((|u11|^2 - 1) |alpha|^2),
    # which is as accurate as its float exponent: a few eps times |alpha|^2
    # and times the exponent
    for alpha, phi in POINTS:
        ref = ExactState(index, alpha, phi)
        if ref.norm == 0:
            continue
        want = ref.probability()
        tol = 4e-15 + 4 * EPS * (alpha ** 2 + abs(float(ref.filter_exponent)))
        prob, _, _ = evaluate_point(index, alpha, phi)
        assert abs(prob - want) <= tol * want + 1e-300, (alpha, phi)
        assert abs(_state(index, alpha, phi).probability - want) <= tol * want + 1e-300


def test_moment_matches_exact_reference():
    for alpha, phi in POINTS[:6]:
        for index in (5, 7, 8, 14, 16):
            ref = ExactState(index, alpha, phi)
            st = _state(index, alpha, phi)
            for k, l in ((0, 1), (1, 1), (0, 2), (2, 1), (3, 3)):
                want = ref.moment(k, l).to_complex()
                assert moment(st, k, l) == pytest.approx(want, rel=1e-14), (index, k, l)
