import math

import numpy as np
import pytest

from sixport import (
    HeraldSpec,
    NonpositiveVariance,
    compose,
    expectation,
    expectation_quadratures,
    herald_state,
    moment,
    moment_component,
    quadratures,
    squeeze_db,
    table1_coeffs,
    way1_moment_table,
)
from sixport.states import PATTERNS


def closed_state(pattern, alpha, phi):
    return table1_coeffs(HeraldSpec(*pattern, alpha_mag=alpha, phi=phi), compose(phi))


# -- single projector moments ---------------------------------------------------

def test_component_trace_of_coherent_projector():
    assert moment_component(0, 0, 0, 0, 1.3 - 0.2j) == pytest.approx(1.0)


def test_component_coherent_eigenvalue():
    beta = 0.8 + 0.4j
    assert moment_component(0, 0, 0, 1, beta) == pytest.approx(beta)


def test_component_number_on_fock_one():
    assert moment_component(1, 1, 1, 1, 0.0) == pytest.approx(1.0)


def test_component_antinormal_order():
    beta = 0.9 - 1.1j
    # Tr[a^dag^{h_l}|b><b|a^{h_r}] with h_l = h_r = 1 is 1 + |b|^2
    assert moment_component(1, 1, 0, 0, beta) == pytest.approx(1 + abs(beta) ** 2)


# -- state moments -----------------------------------------------------------------

def test_moment_coherent_number():
    st = closed_state((0, 0, 0, 0), 2.0, 1.0)
    assert moment(st, 1, 1) == pytest.approx(abs(st.seed) ** 2)


def test_moment_fock_one():
    st = closed_state((1, 0, 0, 0), 0.0, 2.0)
    assert moment(st, 1, 1) == pytest.approx(1.0)


def test_moment_normalized():
    for pattern in [(1, 1, 1, 1), (1, 0, 1, 0), (1, 1, 0, 0)]:
        st = closed_state(pattern, 2.0, 2.0)
        assert moment(st, 0, 0) == pytest.approx(1.0, abs=1e-12)


def test_moment_conjugation():
    st = closed_state((1, 1, 1, 1), 2.0, 2.0)
    for k in range(4):
        for l in range(4):
            assert moment(st, k, l) == pytest.approx(
                np.conjugate(moment(st, l, k)), abs=1e-12)


def test_moment_psi16_matches_oracle():
    spec = HeraldSpec(1, 1, 1, 1, alpha_mag=2.0, phi=2.0)
    st = closed_state((1, 1, 1, 1), 2.0, 2.0)
    vec, _ = herald_state(spec)
    got = moment(st, 2, 1)
    assert got == pytest.approx(expectation(vec, 2, 1), abs=1e-9)


def test_moment_power_guard():
    st = closed_state((0, 0, 0, 0), 1.0, 1.0)
    with pytest.raises(ValueError):
        moment(st, 9, 0)


# -- two routes --------------------------------------------------------------------

def test_way1_matches_way2_everywhere():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        alpha = float(rng.uniform(0.2, 3.0))
        phi = float(rng.uniform(0.1, 2 * np.pi - 0.1))
        U = compose(phi)
        for pattern in PATTERNS:
            spec = HeraldSpec(*pattern, alpha_mag=alpha, phi=phi)
            st = table1_coeffs(spec, U)
            table = way1_moment_table(spec, U, 3, 3)
            for k in range(4):
                for l in range(4):
                    worst = max(worst, abs(table[k, l] - moment(st, k, l)))
    assert worst < 1e-11


def test_moment_way1_single_query():
    spec = HeraldSpec(1, 0, 1, 0, alpha_mag=1.5, phi=2.4)
    U = compose(2.4)
    st = table1_coeffs(spec, U)
    assert way1_moment_table(spec, U, 2, 1)[2, 1] == pytest.approx(moment(st, 2, 1), abs=1e-12)


def test_both_ways_match_oracle():
    spec = HeraldSpec(1, 1, 1, 0, alpha_mag=1.8, phi=2.8)
    U = compose(2.8)
    st = table1_coeffs(spec, U)
    vec, _ = herald_state(spec)
    for k, l in [(0, 1), (1, 1), (0, 2), (2, 2)]:
        reference = expectation(vec, k, l)
        assert moment(st, k, l) == pytest.approx(reference, abs=1e-9)
        assert way1_moment_table(spec, U, k, l)[k, l] == pytest.approx(reference, abs=1e-9)


# -- quadratures --------------------------------------------------------------------

def test_quadratures_coherent_family():
    for index_pattern in [(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1)]:
        st = closed_state(index_pattern, 2.0, 2.0)
        q = quadratures(st)
        assert q.var_x == pytest.approx(0.5, abs=1e-12)
        assert q.var_p == pytest.approx(0.5, abs=1e-12)
        assert q.squeeze_db_x == pytest.approx(0.0, abs=1e-11)


def test_quadratures_fock_one():
    st = closed_state((1, 0, 0, 0), 0.0, 2.0)
    q = quadratures(st)
    assert q.var_x == pytest.approx(1.5, abs=1e-13)
    assert q.var_p == pytest.approx(1.5, abs=1e-13)


def test_quadratures_match_oracle_route():
    spec = HeraldSpec(1, 1, 1, 1, alpha_mag=2.0, phi=2.0)
    st = closed_state((1, 1, 1, 1), 2.0, 2.0)
    vec, _ = herald_state(spec)
    var_x, var_p = expectation_quadratures(vec)
    q = quadratures(st)
    assert q.var_x == pytest.approx(var_x, abs=1e-9)
    assert q.var_p == pytest.approx(var_p, abs=1e-9)


def test_heisenberg_bound():
    rng = np.random.default_rng(23)
    for _ in range(20):
        alpha = float(rng.uniform(0.0, 4.0))
        phi = float(rng.uniform(0.2, 2 * np.pi - 0.2))
        st = closed_state((1, 1, 1, 1), alpha, phi)
        q = quadratures(st)
        assert q.var_x > 0 and q.var_p > 0
        assert q.var_x * q.var_p >= 0.25 - 1e-10


# -- dB scale -----------------------------------------------------------------------

def test_squeeze_db_vacuum():
    # exactly zero with a positive sign: the CLI prints it
    assert math.copysign(1.0, squeeze_db(0.5)) == 1.0
    assert squeeze_db(0.5) == 0.0


def test_squeeze_db_published_value():
    assert squeeze_db(0.375) == pytest.approx(1.2494, abs=1e-4)


def test_squeeze_db_quarter():
    assert squeeze_db(0.25) == pytest.approx(3.0103, abs=1e-4)


def test_squeeze_db_rejects_nonpositive():
    with pytest.raises(NonpositiveVariance):
        squeeze_db(0.0)
