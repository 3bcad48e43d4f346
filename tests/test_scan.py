import warnings

import numpy as np
import pytest

from sixport import (
    ALPHA_MAX,
    AxisNotSymmetric,
    HeraldSpec,
    QuantityMismatch,
    ScanGrid,
    compose,
    evaluate_point,
    feasibility_mask,
    minimize_variance,
    pattern_for_label,
    quadratures,
    scan,
    symmetry_report,
    table1_coeffs,
)
from sixport.scan import _fields, _mirrored_axis
from sixport.states import LABELS

# located while freezing the landscape behavior: the psi16 x-variance dip at
# |alpha| = 2 sits near phi = 1.47 at about 0.303
GOLDEN_PSI16_DIP_PHI = 1.4702653618800232
GOLDEN_PSI16_DIP_VAR = 0.30321803354440124


def test_psi1_probability_curve_matches_closed_form():
    grid = scan("psi1", "probability", (2.0, 2.0 + 1e-9), (0.0, 2 * np.pi), (2, 101))
    u11 = (np.exp(-1j * grid.phi_axis) + 2.0) / 3.0
    want = np.exp((np.abs(u11) ** 2 - 1.0) * 4.0)
    assert np.max(np.abs(grid.values[0] - want)) < 1e-12


def test_coherent_family_variance_grids():
    for label in ("psi1", "psi2", "psi3", "psi4"):
        grid = scan(label, "var_x", (0.0, 10.0), (0.0, 2 * np.pi), 40)
        finite = grid.values[np.isfinite(grid.values)]
        assert np.max(np.abs(finite - 0.5)) < 1e-12


def test_psi16_variance_dip():
    grid = scan("psi16", "var_x", (2.0, 2.0 + 1e-9), (0.0, 2 * np.pi), (2, 2001))
    row = grid.values[0]
    i = int(np.nanargmin(row))
    assert row[i] == pytest.approx(GOLDEN_PSI16_DIP_VAR, abs=1e-12)
    assert grid.phi_axis[i] == pytest.approx(GOLDEN_PSI16_DIP_PHI, abs=1e-12)
    assert 0.0 < grid.phi_axis[i] < 2 * np.pi
    assert row[i] < 0.5


def test_grid_matches_single_point_path():
    # grid entries equal the closed-form quadratures route within rounding
    for label, pattern in [("psi5", (1, 0, 0, 0)), ("psi16", (1, 1, 1, 1))]:
        grid = scan(label, "var_x", (0.5, 3.0), (0.5, 5.5), 7)
        for i in (0, 3, 6):
            for j in (0, 4):
                alpha = grid.alpha_axis[i]
                phi = grid.phi_axis[j]
                st = table1_coeffs(HeraldSpec(*pattern, alpha_mag=alpha, phi=phi),
                                   compose(phi))
                q = quadratures(st)
                assert grid.values[i, j] == pytest.approx(q.var_x, abs=1e-12)


def test_forbidden_points_are_sentinels():
    grid = scan("psi2", "var_x", (0.0, 2.0), (0.0, 2 * np.pi), 11)
    # the phi = 0 and 2 pi columns and the alpha = 0 row carry no state
    assert np.all(np.isnan(grid.values[:, 0]))
    assert np.all(np.isnan(grid.values[:, -1]))
    assert np.all(np.isnan(grid.values[0, :]))
    inner = grid.values[1:, 1:-1]
    assert np.all(np.isfinite(inner))
    prob = scan("psi2", "probability", (0.0, 2.0), (0.0, 2 * np.pi), 11)
    assert np.max(prob.values[:, 0]) == 0.0
    assert np.max(prob.values[0, :]) == 0.0


def test_scan_value_invariant_under_refinement():
    coarse = scan("psi16", "var_x", (0.0, 10.0), (0.0, 2 * np.pi), (11, 9))
    fine = scan("psi16", "var_x", (0.0, 10.0), (0.0, 2 * np.pi), (21, 17))
    # every coarse axis point appears bit-identically in the fine axes
    assert set(coarse.alpha_axis).issubset(set(fine.alpha_axis))
    assert set(coarse.phi_axis).issubset(set(fine.phi_axis))
    ai = np.searchsorted(fine.alpha_axis, coarse.alpha_axis)
    pi = np.searchsorted(fine.phi_axis, coarse.phi_axis)
    sub = fine.values[np.ix_(ai, pi)]
    np.testing.assert_array_equal(
        np.where(np.isnan(sub), -1.0, sub),
        np.where(np.isnan(coarse.values), -1.0, coarse.values))


def test_feasibility_mask_coherent_family_empty():
    for res in (15, 40):
        grid = scan("psi1", "var_x", (0.0, 10.0), (0.0, 2 * np.pi), res)
        assert not feasibility_mask(grid).any()


def test_feasibility_mask_psi16_nonempty():
    grid = scan("psi16", "var_x", (0.0, 10.0), (0.0, 2 * np.pi), 60)
    mask = feasibility_mask(grid)
    assert mask.any()
    # NaN sentinels never count as squeezed
    assert not mask[np.isnan(grid.values)].any()


def test_feasibility_mask_strict_threshold():
    grid = ScanGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                    np.array([[0.5, 0.49999], [np.nan, 0.500001]]), "var_x")
    mask = feasibility_mask(grid)
    assert mask.tolist() == [[False, True], [False, False]]


def test_feasibility_mask_quantity_guard():
    grid = scan("psi1", "probability", (0.0, 2.0), (0.0, 2 * np.pi), 5)
    with pytest.raises(QuantityMismatch):
        feasibility_mask(grid)


def test_minimize_coherent_family_trivial():
    r = minimize_variance("psi1")
    assert r.var_min == 0.5
    assert r.squeeze_db == 0.0
    assert r.evaluations == 0


def test_minimize_paired_families_agree():
    r5 = minimize_variance("psi5", coarse_resolution=200)
    r6 = minimize_variance("psi6", coarse_resolution=200)
    assert abs(r5.var_min - r6.var_min) < 1e-10
    r14 = minimize_variance("psi14", coarse_resolution=200)
    r15 = minimize_variance("psi15", coarse_resolution=200)
    assert abs(r14.var_min - r15.var_min) < 1e-10


def test_minimize_category_four_families_agree():
    results = [minimize_variance(f"psi{i}", coarse_resolution=200).var_min
               for i in (8, 9, 10, 11, 12, 13)]
    assert max(results) - min(results) < 1e-10


def test_minimize_stays_in_box_and_beats_coarse_grid():
    r = minimize_variance("psi16", coarse_resolution=100)
    assert 0.0 <= r.alpha_opt <= 10.0
    assert 0.0 <= r.phi_opt <= 2 * np.pi
    grid = scan("psi16", "var_x", (0.0, 10.0), (0.0, 2 * np.pi), 100)
    assert r.var_min <= np.nanmin(grid.values) + 1e-12
    assert r.evaluations > 100 * 100


def test_minimize_no_missed_basin():
    # independent fine sweep must not find anything deeper
    for label in ("psi7", "psi16"):
        r = minimize_variance(label)
        grid = scan(label, "var_x", (0.0, 10.0), (0.0, 2 * np.pi), 1000)
        assert r.var_min <= np.nanmin(grid.values) + 1e-9


def full_axis_grid(label, quantity, res):
    """The ``scan`` grid with both halves of the phi axis evaluated: ``scan``
    copies the phi > pi half from its mirror, so only this grid can show an
    asymmetry of the kernel."""
    alpha_axis = np.linspace(0.0, 10.0, res)
    phi_axis = _mirrored_axis(0.0, 2 * np.pi, res)
    (values,) = _fields(pattern_for_label(label), alpha_axis, phi_axis, (quantity,))
    return ScanGrid(alpha_axis, phi_axis, values, quantity)


def test_symmetry_report_probability_grids():
    for label in ("psi1", "psi5", "psi8", "psi16"):
        grid = full_axis_grid(label, "probability", 80)
        assert symmetry_report(grid) < 1e-12


def test_symmetry_report_variance_grids():
    for label in ("psi5", "psi16"):
        for quantity in ("var_x", "var_p"):
            grid = full_axis_grid(label, quantity, 80)
            assert symmetry_report(grid) < 1e-12


def test_symmetry_report_detects_corruption():
    grid = scan("psi5", "probability", (0.0, 4.0), (0.0, 2 * np.pi), 21)
    bad = grid.values.copy()
    bad[3, 4] += 1e-6
    corrupted = ScanGrid(grid.alpha_axis, grid.phi_axis, bad, "probability")
    assert symmetry_report(corrupted) > 1e-7


def test_symmetry_report_axis_guard():
    grid = scan("psi5", "probability", (0.0, 4.0), (0.0, np.pi), 11)
    with pytest.raises(AxisNotSymmetric):
        symmetry_report(grid)


def test_evaluate_point_consistency():
    prob, var_x, _ = evaluate_point("psi16", 2.0, 2.0)
    st = table1_coeffs(HeraldSpec(1, 1, 1, 1, alpha_mag=2.0, phi=2.0), compose(2.0))
    assert prob == pytest.approx(st.probability, abs=1e-13)
    assert var_x == pytest.approx(quadratures(st).var_x, abs=1e-12)


def test_scan_resolution_guard():
    with pytest.raises(ValueError):
        scan("psi1", "probability", (0.0, 1.0), (0.0, 1.0), 1)


@pytest.mark.parametrize("alpha_range, phi_range", [
    ((0.0, np.inf), (0.0, 1.0)),
    ((-5.0, 1.0), (0.0, 1.0)),
    ((0.0, 1.0), (0.0, np.inf)),
    ((0.0, 1.0), (-np.inf, 1.0)),
])
def test_scan_rejects_non_finite_or_negative_ranges(alpha_range, phi_range):
    with pytest.raises(ValueError):
        scan("psi16", "var_x", alpha_range, phi_range, 3)


def test_alpha_bound():
    with pytest.raises(ValueError):
        scan("psi16", "var_x", (0.0, 1e200), (0.0, 1.0), 3)
    with pytest.raises(ValueError):
        HeraldSpec(1, 1, 1, 1, alpha_mag=2.0 * ALPHA_MAX, phi=2.0)
    # at the bound every closed form stays finite: no overflow warnings, and
    # NaN only as the forbidden-herald sentinel of variance grids
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for index in range(1, 17):
            prob = scan(f"psi{index}", "probability", (0.0, ALPHA_MAX), (0.0, 6.0), 3)
            var_x = scan(f"psi{index}", "var_x", (0.0, ALPHA_MAX), (0.0, 6.0), 3)
            assert np.all(np.isfinite(prob.values))
            assert not np.any(np.isinf(var_x.values))
        spec = HeraldSpec(1, 1, 1, 1, alpha_mag=ALPHA_MAX, phi=2.0)
        report = quadratures(table1_coeffs(spec, compose(2.0)))
        assert np.isfinite([report.var_x, report.var_p]).all()


@pytest.mark.parametrize("res", [11, 129])
def test_selective_fields_match_full_call(res):
    # alpha = 0 and phi = 0, 2 pi hold forbidden cells for many families; 129
    # squared complex cells exceed 256 KiB, the size from which numpy
    # evaluates some temporaries in place
    alpha = np.linspace(0.0, 6.0, res)
    phi = _mirrored_axis(0.0, 2 * np.pi, res)
    forbidden = 0
    for index in range(1, 17):
        full = _fields(LABELS[index], alpha, phi)
        forbidden += int(np.isnan(full[1]).sum())
        for quantity, want in zip(("probability", "var_x", "var_p"), full):
            (got,) = _fields(LABELS[index], alpha, phi, quantities=(quantity,))
            np.testing.assert_array_equal(got, want)
        var_p, prob = _fields(LABELS[index], alpha, phi, quantities=("var_p", "probability"))
        np.testing.assert_array_equal(var_p, full[2])
        np.testing.assert_array_equal(prob, full[0])
    assert forbidden > 0


# optima the earlier Nelder-Mead refinement found for the seven distinct
# non-trivial families; the port-2/3 partners psi6, psi9, psi11, psi13 and
# psi15 share them
SEED_OPTIMA = {
    "psi5": 0.37499999999998934,
    "psi7": 0.32229840765037565,
    "psi8": 0.3749999999999716,
    "psi10": 0.3749999999999999,
    "psi12": 0.37499999999998934,
    "psi14": 0.32240891931502347,
    "psi16": 0.2765340087867276,
}


@pytest.mark.parametrize("label", sorted(SEED_OPTIMA))
def test_minimize_no_worse_than_seed_optimum(label):
    r = minimize_variance(label)
    assert r.var_min <= SEED_OPTIMA[label] + 1e-9
    assert r.evaluations == 400 * 200 + 14 * 4 * 17 * 17


def test_minimize_recovers_from_wrong_coarse_basin():
    # a 3x3 coarse grid starts in a 0.32 basin; the zoom must reach the global
    r = minimize_variance("psi16", coarse_resolution=3)
    assert r.var_min == pytest.approx(0.27653400878672763, abs=1e-9)


def test_batched_fields_match_outer_product_calls():
    rng = np.random.default_rng(3)
    alpha = rng.uniform(0.0, 10.0, (3, 5))
    phi = rng.uniform(0.0, 2 * np.pi, (3, 5))
    for index in (5, 7, 16):
        batched = _fields(LABELS[index], alpha[:, :, None], phi[:, None, :])
        for k in range(3):
            single = _fields(LABELS[index], alpha[k], phi[k])
            for b, s in zip(batched, single):
                np.testing.assert_array_equal(b[k], s)


@pytest.mark.parametrize("label", ["psi8", "psi14", "psi16"])
def test_scan_cells_equal_evaluate_point(label):
    # on the phi <= pi half both paths get e^{-i phi} from the same exp; the
    # 200x100 half exceeds 256 KiB per complex grid, where numpy starts to
    # evaluate temporaries in place
    grids = [scan(label, q, resolution=200) for q in ("probability", "var_x", "var_p")]
    alpha_axis, phi_axis = grids[0].alpha_axis, grids[0].phi_axis
    for i in range(0, 200, 7):
        for j in range(0, 200, 7):
            if phi_axis[j] > np.pi:
                continue
            want = [g.values[i, j] for g in grids]
            got = evaluate_point(label, alpha_axis[i], phi_axis[j])
            np.testing.assert_array_equal(got, want, err_msg=f"cell ({i}, {j})")


# every 3/8 level: the analytic floor, which the returned minimum may only
# approach from above, up to the rounding of one evaluation
@pytest.mark.parametrize("label", ["psi5", "psi6", "psi8", "psi9", "psi10", "psi11",
                                   "psi12", "psi13"])
def test_three_eighths_minimum_not_below_floor(label):
    assert minimize_variance(label).var_min >= 0.375 - 1e-15
