import math

import numpy as np
import pytest

from permanents import DimensionTooLarge, PhotonNumberMismatch, fock_amplitude, permanent
from sixport import (
    CutoffInadequate,
    FockVector,
    HeraldImpossible,
    HeraldSpec,
    ResidualMassTooLarge,
    compose,
    default_cutoff,
    expectation,
    herald_distribution,
    herald_state,
    tritter1_matrix,
)

# frozen after cross-validation against the closed-form probability (they
# agree to 6e-17); see test_states for the closed-form side
GOLDEN_PSI16_PROB = 0.06345128642001918
GOLDEN_PSI16_AMP1 = 0.58210441718224637 - 0.19837191043006885j


def coherent_amplitudes(beta: complex, cutoff: int) -> np.ndarray:
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(beta) ** 2)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * beta / math.sqrt(n)
    return amps


# -- permanent ---------------------------------------------------------------

def test_permanent_1x1():
    assert permanent(np.array([[2.5 + 1j]])) == pytest.approx(2.5 + 1j)


def test_permanent_2x2_definition():
    a, b, c, d = 1.2, -0.3 + 1j, 2.0, 0.7j
    assert permanent(np.array([[a, b], [c, d]])) == pytest.approx(a * d + b * c)


def test_permanent_identity_3x3():
    assert permanent(np.eye(3)) == pytest.approx(1.0)


def test_permanent_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        permanent(np.zeros((21, 21)))


def test_permanent_transpose_invariance():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert permanent(M) == pytest.approx(permanent(M.T), abs=1e-10)


def test_permanent_against_definition_sum():
    from itertools import permutations
    rng = np.random.default_rng(4)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    brute = sum(np.prod([M[i, p[i]] for i in range(4)]) for p in permutations(range(4)))
    assert permanent(M) == pytest.approx(brute, abs=1e-10)


# -- fock_amplitude ----------------------------------------------------------

def test_single_photon_identity():
    assert fock_amplitude(np.eye(3), (1, 0, 0), (1, 0, 0)) == pytest.approx(1.0)
    assert fock_amplitude(np.eye(3), (1, 0, 0), (0, 1, 0)) == pytest.approx(0.0)


def test_single_photon_amplitude_is_matrix_entry():
    U = compose(np.pi)
    assert fock_amplitude(U, (1, 0, 0), (1, 0, 0)) == pytest.approx(1 / 3)
    for i in range(3):
        for j in range(3):
            n_in = tuple(1 if k == j else 0 for k in range(3))
            n_out = tuple(1 if k == i else 0 for k in range(3))
            got = fock_amplitude(U, n_in, n_out)
            assert got == pytest.approx(U[i, j], abs=1e-14)


def test_fock_amplitude_photon_conservation():
    with pytest.raises(PhotonNumberMismatch):
        fock_amplitude(np.eye(3), (1, 0, 0), (1, 1, 0))


def test_fock_amplitude_transpose_swap_symmetry():
    U = tritter1_matrix()
    n_in, n_out = (2, 1, 0), (1, 1, 1)
    assert fock_amplitude(U, n_in, n_out) == pytest.approx(
        fock_amplitude(U.T, n_out, n_in), abs=1e-13)


def test_fock_amplitude_unitarity_row():
    # amplitudes out of a fixed input sum to probability 1
    U = compose(2.0)
    n_in = (1, 1, 0)
    total = 0.0
    for a in range(3):
        for b in range(3 - a):
            c = 2 - a - b
            total += abs(fock_amplitude(U, n_in, (a, b, c))) ** 2
    assert total == pytest.approx(1.0, abs=1e-12)


# -- herald_state -------------------------------------------------------------

def test_identity_passes_coherent_state_through():
    spec = HeraldSpec(0, 0, 0, 0, alpha_mag=2.0, phi=0.0)
    state, prob = herald_state(spec)
    assert prob == pytest.approx(1.0, abs=1e-12)
    want = coherent_amplitudes(2.0, state.cutoff)
    assert np.max(np.abs(state.amplitudes - want)) < 1e-12


def test_identity_returns_ancilla_photon_to_its_port():
    for alpha in (0.5, 1.0, 3.0):
        spec = HeraldSpec(1, 0, 1, 0, alpha_mag=alpha, phi=0.0)
        state, prob = herald_state(spec)
        assert prob == pytest.approx(1.0, abs=1e-12)
        want = coherent_amplitudes(alpha, state.cutoff)
        assert np.max(np.abs(state.amplitudes - want)) < 1e-11


def test_golden_psi16_point():
    spec = HeraldSpec(1, 1, 1, 1, alpha_mag=2.0, phi=2.0)
    state, prob = herald_state(spec, cutoff=40)
    assert prob == pytest.approx(GOLDEN_PSI16_PROB, abs=1e-14)
    assert state.amplitudes[1] == pytest.approx(GOLDEN_PSI16_AMP1, abs=1e-13)


def test_impossible_herald_at_identity():
    spec = HeraldSpec(0, 0, 1, 0, alpha_mag=2.0, phi=0.0)
    with pytest.raises(HeraldImpossible):
        herald_state(spec)


def test_matched_heralds_have_unit_probability_at_identity():
    for pattern in [(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1)]:
        spec = HeraldSpec(*pattern, alpha_mag=1.5, phi=0.0)
        _, prob = herald_state(spec)
        assert prob == pytest.approx(1.0, abs=1e-12)


def test_cutoff_inadequate_detected():
    spec = HeraldSpec(0, 0, 0, 0, alpha_mag=3.0, phi=0.0)
    with pytest.raises(CutoffInadequate):
        herald_state(spec, cutoff=5)


def test_cutoff_convergence():
    spec = HeraldSpec(1, 1, 1, 1, alpha_mag=2.0, phi=2.0)
    cutoff = default_cutoff(spec)
    _, p1 = herald_state(spec, cutoff)
    _, p2 = herald_state(spec, cutoff + 10)
    assert abs(p1 - p2) < 1e-9


def test_tail_mass_invariant():
    spec = HeraldSpec(1, 0, 0, 1, alpha_mag=2.5, phi=1.3)
    state, prob = herald_state(spec)
    assert abs(state.amplitudes[-1]) ** 2 / state.norm_sq < 1e-10


def test_global_phase_convention():
    spec = HeraldSpec(1, 1, 1, 1, alpha_mag=2.0, phi=2.0)
    state, _ = herald_state(spec)
    lead = state.amplitudes[np.argmax(np.abs(state.amplitudes) > 1e-10)]
    assert lead.imag == pytest.approx(0.0, abs=1e-15)
    assert lead.real > 0


def test_ladder_matches_permanent_amplitudes():
    # the two oracle-internal routes must agree term by term; permanents are
    # only tractable for small total photon number, so compare the leading
    # amplitudes and their partial probability sum
    spec = HeraldSpec(1, 1, 1, 0, alpha_mag=1.2, phi=2.6)
    U = compose(spec.phi)
    state, prob = herald_state(spec)
    gauss = math.exp(-0.5 * spec.alpha_mag ** 2)

    reference = np.zeros(13, dtype=complex)
    for k in range(13):
        j = k + spec.m2 + spec.m3 - spec.n2 - spec.n3
        if j < 0:
            continue
        reference[k] = (gauss * spec.alpha_mag ** j / math.sqrt(math.factorial(j))
                        * fock_amplitude(U, (j, spec.n2, spec.n3),
                                         (k, spec.m2, spec.m3)))
    got = state.amplitudes[:13] * math.sqrt(prob)
    # herald_state fixes the global phase; undo it against the reference
    lead = int(np.argmax(np.abs(reference) > 1e-12))
    phase = reference[lead] / got[lead]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.max(np.abs(got * phase - reference)) < 1e-12
    partial = float(np.sum(np.abs(reference) ** 2))
    assert partial == pytest.approx(float(np.sum(np.abs(got) ** 2)), abs=1e-12)


# -- expectation ---------------------------------------------------------------

def test_expectation_number_on_fock_one():
    state = FockVector.from_amplitudes([0.0, 1.0, 0.0])
    assert expectation(state, 1, 1) == pytest.approx(1.0)


def test_expectation_coherent_eigenvalue():
    beta = 1.7
    state = FockVector.from_amplitudes(coherent_amplitudes(beta, 60))
    assert expectation(state, 0, 1) == pytest.approx(beta, abs=1e-10)


def test_expectation_conjugation():
    spec = HeraldSpec(1, 1, 1, 1, alpha_mag=2.0, phi=2.0)
    state, _ = herald_state(spec)
    for k, l in [(0, 1), (2, 1), (0, 2)]:
        assert expectation(state, k, l) == pytest.approx(
            np.conjugate(expectation(state, l, k)), abs=1e-12)


# -- herald_distribution --------------------------------------------------------

def test_distribution_identity_concentrates_on_ancilla():
    dist = herald_distribution(0, 0, 1.0, 0.0, herald_max=4)
    assert dist[(0, 0)] == pytest.approx(1.0, abs=1e-12)
    others = sum(p for key, p in dist.items() if key != (0, 0))
    assert others < 1e-20


@pytest.mark.parametrize("n2,n3", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_distribution_completeness(n2, n3):
    dist = herald_distribution(n2, n3, 2.0, np.pi, herald_max=20)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-8)


def test_distribution_completeness_across_parameters():
    for n2 in (0, 1):
        for n3 in (0, 1):
            for alpha in (0.5, 2.0, 4.0):
                for phi in (0.5, np.pi, 5.0):
                    herald_max = 18 + int(alpha ** 2)
                    dist = herald_distribution(n2, n3, alpha, phi,
                                               herald_max=herald_max)
                    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-8)


def test_distribution_residual_guard():
    with pytest.raises(ResidualMassTooLarge):
        herald_distribution(0, 0, 3.0, np.pi, herald_max=1)


def test_distribution_matches_herald_state_probability():
    # boson bunching fattens the ancilla tails; 14 levels cover 1.5 photons
    dist = herald_distribution(1, 0, 1.5, 2.2, herald_max=14)
    for m2, m3 in [(0, 0), (1, 0), (2, 1)]:
        spec = HeraldSpec(1, 0, m2, m3, alpha_mag=1.5, phi=2.2)
        _, prob = herald_state(spec)
        assert dist[(m2, m3)] == pytest.approx(prob, abs=1e-11)


def test_spec_validation():
    with pytest.raises(ValueError):
        HeraldSpec(-1, 0, 0, 0, alpha_mag=1.0, phi=0.0)
    with pytest.raises(ValueError):
        HeraldSpec(0, 0, 0, 0, alpha_mag=-2.0, phi=0.0)


@pytest.mark.parametrize("field", ["alpha_mag", "phi", "theta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite(field, value):
    kwargs = {"alpha_mag": 1.0, "phi": 0.5, "theta": 0.0, field: value}
    with pytest.raises(ValueError):
        HeraldSpec(1, 1, 1, 1, **kwargs)
