"""Acceptance suite: one test per quantitative claim the package must meet.

Each test prints a one-line summary with the measured values before
asserting, so a red run still shows how far off it was.  Run with
``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
import time

import numpy as np
import pytest

from sixport import (
    HeraldSpec,
    PATTERNS,
    ScanGrid,
    compose,
    default_cutoff,
    general_heralded,
    herald_distribution,
    herald_state,
    minimize_variance,
    moment,
    pattern_for_label,
    scan,
    state_fock_vector,
    symmetry_report,
    table1_coeffs,
    way1_moment_table,
)
from sixport.scan import _fields, _mirrored_axis

GRID = 100
BOX_ALPHA = (0.0, 10.0)
BOX_PHI = (0.0, 2.0 * math.pi)

VAR_TARGETS = [
    ("psi5", 0.375, 1.25), ("psi6", 0.375, 1.25),
    ("psi8", 0.375, 1.25), ("psi9", 0.375, 1.25),
    ("psi10", 0.375, 1.25), ("psi11", 0.375, 1.25),
    ("psi12", 0.375, 1.25), ("psi13", 0.375, 1.25),
    ("psi7", 0.322, 1.91), ("psi14", 0.322, 1.91), ("psi15", 0.322, 1.91),
    ("psi16", 0.277, 2.57),
]

PAIRED = [(2, 3), (5, 6), (8, 9), (10, 11), (12, 13), (14, 15)]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def spec_for(label: str, alpha: float, phi: float) -> HeraldSpec:
    return HeraldSpec(*pattern_for_label(label), alpha_mag=alpha, phi=phi)


@pytest.fixture(scope="module")
def optima():
    results = {}
    for label, _, _ in VAR_TARGETS:
        start = time.perf_counter()
        results[label] = (minimize_variance(label), time.perf_counter() - start)
    return results


def test_criterion_01_squeezing_minima(optima):
    ok = True
    details = []
    for label, var_target, db_target in VAR_TARGETS:
        result, elapsed = optima[label]
        good = (abs(result.var_min - var_target) <= 0.002
                and abs(result.squeeze_db - db_target) <= 0.03
                and elapsed < 60.0)
        ok &= good
        details.append(f"{label}: var={result.var_min:.4f} (target {var_target}), "
                       f"dB={result.squeeze_db:.3f} (target {db_target}), "
                       f"{elapsed:.1f}s")
    report("1 squeezing minima", ok, "; ".join(details))
    for label, var_target, db_target in VAR_TARGETS:
        result, elapsed = optima[label]
        assert abs(result.var_min - var_target) <= 0.002, label
        assert abs(result.squeeze_db - db_target) <= 0.03, label
        assert elapsed < 60.0, label


def test_criterion_02_probability_at_psi16_optimum(optima):
    result, _ = optima["psi16"]
    ok = abs(result.probability_at_opt - 0.067) <= 0.003
    report("2 psi16 success probability", ok,
           f"p={result.probability_at_opt:.4f} (target 0.067 +/- 0.003)")
    assert ok


def test_criterion_03_coherent_family_variances():
    worst = 0.0
    for label in ("psi1", "psi2", "psi3", "psi4"):
        for quantity in ("var_x", "var_p"):
            grid = scan(label, quantity, BOX_ALPHA, BOX_PHI, GRID)
            prob = scan(label, "probability", BOX_ALPHA, BOX_PHI, GRID)
            finite = np.isfinite(grid.values)
            worst = max(worst, float(np.max(np.abs(grid.values[finite] - 0.5))))
            # sentinels only appear where the herald cannot fire at all
            assert np.all(prob.values[~finite] == 0.0), label
    ok = worst <= 1e-12
    report("3 coherent family", ok, f"max |var - 0.5| = {worst:.2e} on {GRID}x{GRID}")
    assert ok


def test_criterion_04_p_quadrature_never_squeezed():
    # This criterion is implemented exactly as stated and is expected to be
    # red: the underlying claim does not hold over the whole constraint box.
    # For psi8..psi11 and psi16 the relative phase between the coefficient of
    # the identity and of a^dagger rotates the squeezing ellipse past 45
    # degrees, moving the squeezing into the p quadrature (down to the same
    # 3/8 bound the x quadrature reaches).  The values below are confirmed by
    # three independent routes: the closed-form moments, the Fock-space
    # oracle, and explicit tridiagonal quadrature operator matrices (see
    # test_p_squeezing_counterexample_is_real below).  The other eleven
    # families do satisfy the bound everywhere on the grid.
    minima = {}
    for index in range(1, 17):
        grid = scan(f"psi{index}", "var_p", BOX_ALPHA, BOX_PHI, GRID)
        filled = np.where(np.isfinite(grid.values), grid.values, np.inf)
        i, j = np.unravel_index(int(np.argmin(filled)), filled.shape)
        minima[f"psi{index}"] = (float(filled[i, j]),
                                 float(grid.alpha_axis[i]),
                                 float(grid.phi_axis[j]))
    violators = {k: v for k, v in minima.items() if v[0] < 0.5 - 1e-9}
    ok = not violators
    report("4 p never squeezed", ok,
           "all 16 families above 0.5 - 1e-9" if ok else
           "claim fails for " + ", ".join(
               f"{k}: var_p={v[0]:.4f} at (|alpha|={v[1]:.3f}, phi={v[2]:.3f})"
               for k, v in violators.items()))
    assert ok, (
        "p-quadrature squeezing exists inside the constraint box; "
        f"counterexamples (oracle-confirmed): {violators}")


def test_p_squeezing_counterexample_is_real():
    """Triple-checks the criterion-4 counterexample so the red result above
    cannot be blamed on the closed-form moment engine."""
    spec = HeraldSpec(1, 0, 1, 0, alpha_mag=1.2030075187969924,
                      phi=1.7321547044029879)
    vec, prob = herald_state(spec)
    n = vec.cutoff + 1
    lower = np.diag(np.sqrt(np.arange(1, n)), k=1)
    x_op = (lower + lower.conj().T) / math.sqrt(2)
    p_op = (lower - lower.conj().T) / (1j * math.sqrt(2))
    psi = vec.amplitudes

    def expval(op):
        return np.vdot(psi, op @ psi).real

    var_p_matrix = expval(p_op @ p_op) - expval(p_op) ** 2
    assert var_p_matrix < 0.4          # far below the vacuum level
    assert prob > 0.05                 # at a healthy operating point
    closed = table1_coeffs(spec, compose(spec.phi))
    var_p_closed = (0.5 + moment(closed, 1, 1).real
                    - moment(closed, 0, 2).real
                    - 2.0 * moment(closed, 0, 1).imag ** 2)
    assert var_p_closed == pytest.approx(var_p_matrix, abs=1e-9)


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    worst_amp = worst_prob = 0.0
    for pattern in PATTERNS:
        for alpha in (0.5, 2.0, 4.0):
            for phi in (0.7, math.pi, 5.0):
                spec = HeraldSpec(*pattern, alpha_mag=alpha, phi=phi)
                closed = table1_coeffs(spec, compose(phi))
                cutoff = default_cutoff(spec)
                reference, prob = herald_state(spec, cutoff)
                predicted = state_fock_vector(closed, cutoff)
                worst_amp = max(worst_amp, float(np.max(
                    np.abs(predicted.amplitudes - reference.amplitudes))))
                worst_prob = max(worst_prob, abs(closed.probability - prob))
    elapsed = time.perf_counter() - start
    ok = worst_amp <= 1e-9 and worst_prob <= 1e-9 and elapsed < 30.0
    report("5 oracle equivalence", ok,
           f"max amp dev {worst_amp:.2e}, max prob dev {worst_prob:.2e}, "
           f"{elapsed:.1f}s for 144 heralds")
    assert worst_amp <= 1e-9
    assert worst_prob <= 1e-9
    assert elapsed < 30.0


def test_criterion_06_general_path():
    worst_row = 0.0
    for pattern in PATTERNS:
        for alpha, phi in [(0.5, 0.9), (2.0, 2.0), (4.0, 4.6)]:
            spec = HeraldSpec(*pattern, alpha_mag=alpha, phi=phi)
            U = compose(phi)
            closed = table1_coeffs(spec, U)
            res = general_heralded(spec, U)
            table = np.array([closed.c0, closed.c1, closed.c2])
            gen = np.zeros(3, dtype=complex)
            gen[: len(res.coeffs)] = res.coeffs
            worst_row = max(worst_row, float(np.max(np.abs(table - gen))),
                            abs(closed.probability - res.probability))

    beyond = [(2, 0, 1, 0, 1.5, 1.0), (0, 2, 0, 2, 2.0, 2.5), (1, 2, 1, 0, 1.2, 4.0)]
    worst_beyond = 0.0
    for n2, n3, m2, m3, alpha, phi in beyond:
        spec = HeraldSpec(n2, n3, m2, m3, alpha_mag=alpha, phi=phi)
        res = general_heralded(spec, compose(phi))
        cutoff = default_cutoff(spec)
        reference, prob = herald_state(spec, cutoff)
        predicted = state_fock_vector(res, cutoff)
        worst_beyond = max(worst_beyond, abs(res.probability - prob), float(
            np.max(np.abs(predicted.amplitudes - reference.amplitudes))))
    ok = worst_row <= 1e-12 and worst_beyond <= 1e-9
    report("6 general path", ok,
           f"table rows dev {worst_row:.2e}, beyond-table dev {worst_beyond:.2e}")
    assert worst_row <= 1e-12
    assert worst_beyond <= 1e-9


def test_criterion_07_completeness():
    worst = 0.0
    for n2 in (0, 1):
        for n3 in (0, 1):
            dist = herald_distribution(n2, n3, 2.0, math.pi, herald_max=20)
            worst = max(worst, abs(1.0 - sum(dist.values())))
    ok = worst <= 1e-8
    report("7 completeness", ok, f"max |1 - sum| = {worst:.2e} at (alpha, phi) = (2, pi)")
    assert ok


def test_criterion_08_symmetry_and_pairing():
    # both halves of the phi axis are evaluated: scan would copy the
    # phi > pi half from its mirror
    alpha_axis = np.linspace(*BOX_ALPHA, GRID)
    phi_axis = _mirrored_axis(*BOX_PHI, GRID)
    worst_sym = 0.0
    for pattern in PATTERNS:
        (values,) = _fields(pattern, alpha_axis, phi_axis, ("probability",))
        grid = ScanGrid(alpha_axis, phi_axis, values, "probability")
        worst_sym = max(worst_sym, symmetry_report(grid))
    worst_pair = 0.0
    for a, b in PAIRED:
        ga = scan(f"psi{a}", "probability", BOX_ALPHA, BOX_PHI, GRID)
        gb = scan(f"psi{b}", "probability", BOX_ALPHA, BOX_PHI, GRID)
        worst_pair = max(worst_pair, float(np.max(np.abs(ga.values - gb.values))))
    ok = worst_sym <= 1e-12 and worst_pair <= 1e-12
    report("8 symmetry and pairing", ok,
           f"max asymmetry {worst_sym:.2e}, max pair dev {worst_pair:.2e}")
    assert worst_sym <= 1e-12
    assert worst_pair <= 1e-12


def test_criterion_09_identity_sanity():
    dev_I = float(np.max(np.abs(compose(0.0) - np.eye(3))))
    worst_prob = 0.0
    worst_amp = 0.0
    for pattern in [(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1)]:
        spec = HeraldSpec(*pattern, alpha_mag=2.0, phi=0.0)
        state, prob = herald_state(spec)
        worst_prob = max(worst_prob, abs(prob - 1.0))
        coherent = np.zeros(state.cutoff + 1, dtype=complex)
        coherent[0] = math.exp(-2.0)
        for n in range(1, state.cutoff + 1):
            coherent[n] = coherent[n - 1] * 2.0 / math.sqrt(n)
        worst_amp = max(worst_amp, float(np.max(np.abs(state.amplitudes - coherent))))
    ok = dev_I <= 1e-14 and worst_prob <= 1e-12 and worst_amp <= 1e-10
    report("9 identity sanity", ok,
           f"|U(0) - I| = {dev_I:.2e}, max |p - 1| = {worst_prob:.2e}, "
           f"max amp dev from |alpha> = {worst_amp:.2e}")
    assert dev_I <= 1e-14
    assert worst_prob <= 1e-12


def test_criterion_10_moment_path_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        alpha = float(rng.uniform(0.2, 3.0))
        phi = float(rng.uniform(0.1, 2 * math.pi - 0.1))
        U = compose(phi)
        for pattern in PATTERNS:
            spec = HeraldSpec(*pattern, alpha_mag=alpha, phi=phi)
            closed = table1_coeffs(spec, U)
            way1 = way1_moment_table(spec, U, 3, 3)
            for k in range(4):
                for l in range(4):
                    worst = max(worst, abs(way1[k, l] - moment(closed, k, l)))
    ok = worst <= 1e-11
    report("10 moment path equivalence", ok,
           f"max way-1 vs way-2 dev = {worst:.2e} over 160 states, k,l <= 3")
    assert ok
