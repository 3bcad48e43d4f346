import itertools
import math
from itertools import combinations, permutations
from types import SimpleNamespace

import numpy as np
import pytest

from sixport import (
    PHOTONS_MAX,
    HeraldImpossible,
    HeraldSpec,
    PATTERNS,
    WorkTooLarge,
    compose,
    default_cutoff,
    expectation_quadratures,
    general_heralded,
    herald_state,
    moment,
    pattern_for_label,
    quadratures,
    state_fock_vector,
    table1_coeffs,
)
from sixport.moments import NORM_FLOOR, displaced_frame
from sixport.oracle import PROB_FLOOR
from sixport.states import _level_plan, row_coefficients

# probability of the (2,0,1,0) herald at alpha=1.5, phi=1.0, frozen after
# triple agreement (series extraction, oracle state, oracle distribution)
GOLDEN_GENERAL_PROB = 0.2121166000211765

PAIRED_FAMILIES = [(2, 3), (5, 6), (8, 9), (10, 11), (12, 13), (14, 15)]


def spec_for(index, alpha, phi):
    pattern = pattern_for_label(f"psi{index}")
    return HeraldSpec(*pattern, alpha_mag=alpha, phi=phi)


# -- table rows ----------------------------------------------------------------

def test_row_psi1():
    st = table1_coeffs(spec_for(1, 2.0, 1.3), compose(1.3))
    assert (st.c0, st.c1, st.c2) == (1.0, 0.0, 0.0)
    assert st.label == "psi1"


def test_row_psi5():
    U = compose(1.3)
    st = table1_coeffs(spec_for(5, 2.0, 1.3), U)
    assert st.c0 == 0 and st.c2 == 0
    assert st.c1 == pytest.approx(U[1, 0])


def test_row_psi16():
    U = compose(2.0)
    alpha = 2.0
    st = table1_coeffs(spec_for(16, alpha, 2.0), U)
    assert st.c0 == pytest.approx(U[1, 2] * U[2, 1] + U[1, 1] * U[2, 2])
    assert st.c1 == pytest.approx(
        (U[0, 1] * U[1, 2] * U[2, 0] + U[0, 2] * U[1, 1] * U[2, 0]
         + U[0, 2] * U[1, 0] * U[2, 1] + U[0, 1] * U[1, 0] * U[2, 2]) * alpha)
    assert st.c2 == pytest.approx(U[0, 1] * U[0, 2] * U[1, 0] * U[2, 0] * alpha ** 2)
    assert st.seed == pytest.approx(U[0, 0] * alpha)


def partial_matchings(pattern):
    """The sixteen-row rule written out: one term per partial matching of ports.

    Each term is the indices of its U entries in row order; a level is None
    or (power of alpha, terms), matchings listed by size, then
    lexicographically.
    """
    n2, n3, m2, m3 = pattern
    sources = [r for r, n in ((1, n2), (2, n3)) if n]
    sinks = [k for k, m in ((1, m2), (2, m3)) if m]
    levels = [None, None, None]
    for size in range(min(len(sources), len(sinks)) + 1):
        terms = []
        for rows in combinations(sources, size):
            for cols in permutations(sinks, size):
                term = [*zip(rows, cols), *((0, k) for k in sinks if k not in cols),
                        *((r, 0) for r in sources if r not in rows)]
                terms.append(tuple(sorted(term)))
        levels[len(sources) - size] = (len(sinks) - size, tuple(terms))
    return tuple(levels)


def test_photon_counting_rule_is_partial_matching_on_the_table():
    for pattern in PATTERNS:
        plan = _level_plan(pattern)
        weights = [w for level in plan if level is not None for w, _ in level[1]]
        assert weights and all(w == 1.0 for w in weights), pattern
        stripped = tuple(None if level is None else
                         (level[0], tuple(entries for _, entries in level[1]))
                         for level in plan)
        assert stripped == partial_matchings(pattern), pattern


def test_herald_past_photons_max_is_work_too_large():
    U = compose(1.0)
    for pattern in ((13, 0, 0, 0), (4, 3, 3, 3), (0, 0, 6, 7)):
        spec = HeraldSpec(*pattern, alpha_mag=1.0, phi=1.0)
        with pytest.raises(WorkTooLarge):
            table1_coeffs(spec, U)
        with pytest.raises(WorkTooLarge):
            general_heralded(spec, U)
    table1_coeffs(HeraldSpec(3, 3, 3, 3, alpha_mag=1.0, phi=1.0), U)   # at the budget
    with pytest.raises(ValueError):
        row_coefficients((1, -1, 0, 0), U)


def random_unitary(seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_matching_rule_on_generic_unitary():
    # the interferometer's U has one diagonal and one off-diagonal value, so
    # an index swap such as u23 <-> u32 would not show with it; a generic
    # unitary separates all nine entries
    U = random_unitary(17)
    assert np.allclose(U @ U.conj().T, np.eye(3), atol=1e-14)
    assert len({complex(v) for v in U.reshape(-1)}) == 9
    for pattern in itertools.product(range(3), repeat=4):
        n, m = pattern[0] + pattern[1], pattern[2] + pattern[3]
        levels = row_coefficients(pattern, U)
        assert [level is not None for level in levels] == [
            n - min(n, m) <= d <= n for d in range(max(3, n + 1))], pattern
        for alpha_mag, theta in ((1.3, 0.0), (0.8, 2.5)):
            spec = HeraldSpec(*pattern, alpha_mag=alpha_mag, phi=0.0, theta=theta)
            st = table1_coeffs(spec, U)
            res = general_heralded(spec, U)
            want = list(res.coeffs) + [0j] * (len(st.coeffs) - len(res.coeffs))
            assert np.max(np.abs(np.subtract(st.coeffs, want))) <= 1e-12, (pattern, theta)
            assert abs(st.norm - res.norm) <= 1e-12 * st.norm, (pattern, theta)
            assert abs(st.probability - res.probability) <= 1e-12, (pattern, theta)


# -- normalization -------------------------------------------------------------

def test_normalization_coherent():
    assert displaced_frame((1.0, 0.0, 0.0), 1.7 - 0.3j)[2] == pytest.approx(1.0)


def test_normalization_single_photon_added_vacuum():
    assert displaced_frame((0.0, 1.0, 0.0), 0.0)[2] == pytest.approx(1.0)


def test_normalization_two_photon_added_vacuum():
    assert displaced_frame((0.0, 0.0, 1.0), 0.0)[2] == pytest.approx(2.0)


def test_normalization_matches_fock_sum():
    # independent check: sum |<n|(c0 + c1 a^dag + c2 a^dag^2)|beta>|^2
    rng = np.random.default_rng(8)
    for _ in range(10):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        beta = complex(rng.normal(), rng.normal())
        vec = state_fock_vector(SimpleNamespace(coeffs=c, seed=beta, norm=1.0), 80)
        assert vec.norm_sq == pytest.approx(displaced_frame(tuple(c), beta)[2], rel=1e-12)
    # the same sum for L = 1..7 levels, with zero levels passed as None
    for levels in range(1, 8):
        for _ in range(6):
            c = rng.normal(size=levels) + 1j * rng.normal(size=levels)
            c[rng.random(levels) < 0.3] = 0.0
            c[rng.integers(levels)] = 1.0 - 0.5j      # never the zero state
            beta = complex(rng.normal(), rng.normal())
            vec = state_fock_vector(SimpleNamespace(coeffs=c, seed=beta, norm=1.0), 80)
            norm = displaced_frame([None if x == 0 else x for x in c], beta)[2]
            assert vec.norm_sq == pytest.approx(norm, rel=1e-12), (levels, c, beta)


# -- success probability ---------------------------------------------------------

def test_probability_psi1_identity():
    st = table1_coeffs(spec_for(1, 2.0, 0.0), compose(0.0))
    assert st.probability == pytest.approx(1.0)


def test_probability_psi5_vacuum_input():
    # at alpha=0 the herald probability is the single off-diagonal weight
    for phi in (np.pi, 1.0, 4.5):
        st = table1_coeffs(spec_for(5, 0.0, phi), compose(phi))
        assert st.probability == pytest.approx((2 - 2 * math.cos(phi)) / 9, abs=1e-14)
    st = table1_coeffs(spec_for(5, 0.0, np.pi), compose(np.pi))
    assert st.probability == pytest.approx(4 / 9)


def test_probability_psi16_matches_oracle():
    spec = spec_for(16, 2.0, 2.0)
    st = table1_coeffs(spec, compose(2.0))
    _, prob = herald_state(spec)
    assert st.probability == pytest.approx(prob, abs=1e-10)


# -- fock vectors ----------------------------------------------------------------

def test_state_vector_coherent():
    st = table1_coeffs(spec_for(1, 2.0, 1.0), compose(1.0))
    vec = state_fock_vector(st, 50)
    beta = st.seed
    want = np.array([math.exp(-0.5 * abs(beta) ** 2) * beta ** n
                     / math.sqrt(math.factorial(n)) for n in range(51)])
    # phase fix rotates by the (real positive) leading amplitude's phase
    assert np.max(np.abs(vec.amplitudes - want)) < 1e-12


def test_state_vector_single_photon():
    st = table1_coeffs(spec_for(5, 0.0, 2.0), compose(2.0))
    vec = state_fock_vector(st, 10)
    want = np.zeros(11)
    want[1] = 1.0
    assert np.max(np.abs(vec.amplitudes - want)) < 1e-14


def test_state_vector_psi16_matches_oracle():
    spec = spec_for(16, 2.0, 2.0)
    st = table1_coeffs(spec, compose(2.0))
    cutoff = default_cutoff(spec)
    reference, _ = herald_state(spec, cutoff)
    predicted = state_fock_vector(st, cutoff)
    assert np.max(np.abs(predicted.amplitudes - reference.amplitudes)) < 1e-10


def test_state_vector_forbidden_herald():
    st = table1_coeffs(spec_for(2, 2.0, 0.0), compose(0.0))
    with pytest.raises(HeraldImpossible):
        state_fock_vector(st, 40)


# -- general path -------------------------------------------------------------------

def test_general_vacuum_row():
    spec = HeraldSpec(0, 0, 0, 0, alpha_mag=2.0, phi=1.5)
    U = compose(1.5)
    res = general_heralded(spec, U)
    assert len(res.coeffs) == 1
    assert res.coeffs[0] == pytest.approx(1.0)
    closed = table1_coeffs(spec, U)
    assert res.probability == pytest.approx(closed.probability, abs=1e-13)


def test_general_two_photon_row():
    spec = HeraldSpec(1, 1, 0, 0, alpha_mag=2.0, phi=1.5)
    U = compose(1.5)
    res = general_heralded(spec, U)
    assert len(res.coeffs) == 3
    assert res.coeffs[0] == pytest.approx(0.0, abs=1e-15)
    assert res.coeffs[1] == pytest.approx(0.0, abs=1e-15)
    assert res.coeffs[2] == pytest.approx(U[1, 0] * U[2, 0])


def test_general_beyond_table_matches_oracle():
    spec = HeraldSpec(2, 0, 1, 0, alpha_mag=1.5, phi=1.0)
    res = general_heralded(spec, compose(1.0))
    assert res.probability == pytest.approx(GOLDEN_GENERAL_PROB, abs=1e-12)
    _, prob = herald_state(spec)
    assert res.probability == pytest.approx(prob, abs=1e-9)
    # consistency between the trace extraction and the coefficient norm, the
    # norm being the probability before the filtering factor
    u11 = compose(1.0)[0, 0]
    expected = res.norm * math.exp((abs(u11) ** 2 - 1) * 1.5 ** 2)
    assert res.probability == pytest.approx(expected, abs=1e-13)


# herald patterns outside the 16-row table, up to (3, 3, 3, 3)
BEYOND_TABLE = [(2, 0, 0, 0), (2, 0, 1, 1), (1, 2, 2, 0), (2, 2, 1, 1),
                (2, 2, 2, 2), (3, 1, 2, 2), (0, 3, 3, 3), (3, 3, 3, 3)]


@pytest.mark.parametrize("pattern", BEYOND_TABLE)
def test_general_beyond_table_probability_matches_oracle(pattern):
    rng = np.random.default_rng(list(pattern))
    for _ in range(10):
        alpha = float(rng.uniform(0.2, 3.0))
        phi = float(rng.uniform(0.1, 2 * np.pi - 0.1))
        spec = HeraldSpec(*pattern, alpha_mag=alpha, phi=phi)
        series = general_heralded(spec, compose(phi)).probability
        _, oracle = herald_state(spec)
        assert series == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_general_order_guard():
    spec = HeraldSpec(5, 4, 2, 2, alpha_mag=1.0, phi=1.0)
    with pytest.raises(WorkTooLarge):
        general_heralded(spec, compose(1.0))


# -- any herald tuple ------------------------------------------------------------------

def test_closed_form_matches_series_and_oracle_on_every_tuple_up_to_three():
    # one seeded point per tuple; where the oracle's absolute PROB_FLOOR
    # refuses the herald, the closed form's probability lies below it too
    rng = np.random.default_rng(2937)
    for pattern in itertools.product(range(4), repeat=4):
        alpha, phi = float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 2 * np.pi))
        spec = HeraldSpec(*pattern, alpha_mag=alpha, phi=phi)
        U = compose(phi)
        st = table1_coeffs(spec, U)
        res = general_heralded(spec, U)
        want = list(res.coeffs) + [0j] * (len(st.coeffs) - len(res.coeffs))
        scale = max(abs(c) for c in want)
        assert np.max(np.abs(np.subtract(st.coeffs, want))) <= 1e-12 * scale, pattern
        try:
            state, prob = herald_state(spec)
        except HeraldImpossible:
            assert st.probability < PROB_FLOOR, pattern
            continue
        assert abs(st.probability - prob) <= 1e-9 * prob, pattern
        report = quadratures(st)
        var_x, var_p = expectation_quadratures(state)
        assert abs(report.var_x - var_x) <= 1e-9, pattern
        assert abs(report.var_p - var_p) <= 1e-9, pattern


def test_every_closed_quantity_is_finite_up_to_photons_max():
    tuples = [p for p in itertools.product(range(PHOTONS_MAX + 1), repeat=4)
              if sum(p) == PHOTONS_MAX]
    assert len(tuples) == 455
    for phi in (0.0, 2.0, np.pi):
        U = compose(phi)
        for alpha in (0.0, 10.0, 1e6):
            for pattern in tuples:
                st = table1_coeffs(HeraldSpec(*pattern, alpha_mag=alpha, phi=phi), U)
                values = [*st.coeffs, st.norm, st.probability]
                if st.norm >= NORM_FLOOR:
                    report = quadratures(st)
                    values += [report.var_x, report.var_p, moment(st, 8, 8)]
                assert np.all(np.isfinite(values)), (pattern, alpha, phi)


# -- invariants ----------------------------------------------------------------------

def test_table_agreement_sweep():
    rng = np.random.default_rng(12)
    phis = rng.uniform(0.05, 2 * np.pi - 0.05, 5)
    worst_c = worst_p = 0.0
    for phi in phis:
        U = compose(phi)
        for alpha in (0.5, 2.0, 4.0):
            for pattern in PATTERNS:
                spec = HeraldSpec(*pattern, alpha_mag=alpha, phi=phi)
                closed = table1_coeffs(spec, U)
                res = general_heralded(spec, U)
                tab = np.array([closed.c0, closed.c1, closed.c2])
                gen = np.zeros(3, dtype=complex)
                gen[: len(res.coeffs)] = res.coeffs
                worst_c = max(worst_c, float(np.max(np.abs(tab - gen))))
                worst_p = max(worst_p, abs(closed.probability - res.probability))
    assert worst_c < 1e-12
    assert worst_p < 1e-12


def test_oracle_agreement_sweep():
    for phi in (0.9, 3.8):
        U = compose(phi)
        for alpha in (0.5, 2.0):
            for pattern in PATTERNS:
                spec = HeraldSpec(*pattern, alpha_mag=alpha, phi=phi)
                closed = table1_coeffs(spec, U)
                cutoff = default_cutoff(spec)
                reference, prob = herald_state(spec, cutoff)
                predicted = state_fock_vector(closed, cutoff)
                assert np.max(np.abs(predicted.amplitudes
                                     - reference.amplitudes)) < 1e-9
                assert abs(closed.probability - prob) < 1e-9


def test_probability_pairings():
    for phi in (0.7, 2.9, 5.5):
        U = compose(phi)
        for alpha in (0.5, 2.0, 4.0):
            for a, b in PAIRED_FAMILIES:
                pa = table1_coeffs(spec_for(a, alpha, phi), U).probability
                pb = table1_coeffs(spec_for(b, alpha, phi), U).probability
                assert abs(pa - pb) < 1e-12


def test_probability_phi_symmetry():
    for phi in (0.3, 1.1, 2.7):
        for alpha in (0.5, 2.0):
            for index in range(1, 17):
                p1 = table1_coeffs(spec_for(index, alpha, phi),
                                   compose(phi)).probability
                p2 = table1_coeffs(spec_for(index, alpha, 2 * np.pi - phi),
                                   compose(2 * np.pi - phi)).probability
                assert abs(p1 - p2) < 1e-12


def test_probabilities_physical():
    rng = np.random.default_rng(21)
    for _ in range(30):
        phi = rng.uniform(0.05, 2 * np.pi - 0.05)
        alpha = rng.uniform(0.1, 4.0)
        U = compose(phi)
        for index in range(1, 17):
            p = table1_coeffs(spec_for(index, alpha, phi), U).probability
            assert 0.0 < p <= 1.0 + 1e-12


def test_complex_drive_phase_supported():
    # theta is fixed to 0 in the protocol, but the formulas keep alpha complex;
    # all three routes must still agree for a rotated drive
    for theta in (0.7, -1.2):
        spec = HeraldSpec(1, 1, 1, 1, alpha_mag=1.8, phi=2.3, theta=theta)
        U = compose(2.3)
        closed = table1_coeffs(spec, U)
        res = general_heralded(spec, U)
        assert closed.c1 == pytest.approx(res.coeffs[1], abs=1e-13)
        assert closed.probability == pytest.approx(res.probability, abs=1e-13)
        cutoff = default_cutoff(spec)
        reference, prob = herald_state(spec, cutoff)
        predicted = state_fock_vector(closed, cutoff)
        assert np.max(np.abs(predicted.amplitudes - reference.amplitudes)) < 1e-10
        assert closed.probability == pytest.approx(prob, abs=1e-10)


def test_pattern_for_label():
    assert pattern_for_label("psi16") == (1, 1, 1, 1)
    assert pattern_for_label("PSI5") == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        pattern_for_label("psi17")
    with pytest.raises(ValueError):
        pattern_for_label("banana")
