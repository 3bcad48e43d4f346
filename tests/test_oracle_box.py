"""The oracle's raising loop against a whole-box reference, its memory,
the oracle box budget, the drive limit, the default herald box, and series
index lookup."""

import importlib
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from sixport import (
    BOX_CELLS_MAX,
    HeraldSpec,
    OrderOverflow,
    ValidationError,
    VariableMismatch,
    WorkTooLarge,
    compose,
    default_cutoff,
    default_herald_max,
    herald_distribution,
    herald_state,
    table1_coeffs,
)
from sixport import oracle
from sixport.cli import main
from sixport.series import FormalSeries, _axes
from test_oracle_plane import assert_route_gives_box


# -- whole-box reference: every step touches the full box ---------------------

def reference_creation(vec, coeffs, tables):
    out = np.zeros_like(vec)
    if coeffs[0] != 0 and vec.shape[0] > 1:
        out[1:, :, :] += coeffs[0] * tables[0][1:, None, None] * vec[:-1, :, :]
    if coeffs[1] != 0 and vec.shape[1] > 1:
        out[:, 1:, :] += coeffs[1] * tables[1][None, 1:, None] * vec[:, :-1, :]
    if coeffs[2] != 0 and vec.shape[2] > 1:
        out[:, :, 1:] += coeffs[2] * tables[2][None, None, 1:] * vec[:, :, :-1]
    return out


def reference_output(U, n2, n3, alpha, dims, j_max):
    tables = tuple(np.sqrt(np.arange(d, dtype=float)) for d in dims)
    vec = np.zeros(dims, dtype=complex)
    vec[0, 0, 0] = 1.0
    for _ in range(n2):
        vec = reference_creation(vec, U[1, :], tables)
    if n2:
        vec /= math.sqrt(math.factorial(n2))
    for _ in range(n3):
        vec = reference_creation(vec, U[2, :], tables)
    if n3:
        vec /= math.sqrt(math.factorial(n3))
    gauss = math.exp(-0.5 * abs(alpha) ** 2)
    out = gauss * vec.copy()
    amp = complex(gauss)
    for j in range(1, j_max + 1):
        vec = reference_creation(vec, U[0, :], tables) / math.sqrt(j)
        amp *= alpha / math.sqrt(j)
        if amp != 0.0:
            out += amp * vec
        if abs(amp) < 1e-200:
            break
    return out


def test_corner_loop_matches_whole_box_for_herald_states():
    rng = np.random.default_rng(11)
    patterns = [(0, 0, 0, 0), (1, 1, 1, 1), (3, 3, 3, 3)]
    patterns += [tuple(int(v) for v in rng.integers(0, 4, size=4)) for _ in range(9)]
    for pattern in patterns:
        alpha = float(rng.uniform(0.0, 5.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        spec = HeraldSpec(*pattern, alpha_mag=alpha, phi=phi)
        cutoff = default_cutoff(spec)
        dims = (cutoff + 1, spec.m2 + 1, spec.m3 + 1)
        j_max = cutoff + spec.m2 + spec.m3 - spec.n2 - spec.n3
        case = (compose(phi), spec.n2, spec.n3, spec.alpha, dims, j_max)
        assert_route_gives_box(case, reference_output(*case))


@pytest.mark.parametrize("herald_max", [0, 1, 7, 24])
def test_corner_loop_matches_whole_box_for_distributions(herald_max):
    rng = np.random.default_rng(herald_max)
    for n2, n3 in [(0, 0), (1, 0), (2, 1)]:
        alpha = float(rng.uniform(0.0, 3.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        cutoff = default_cutoff(HeraldSpec(n2, n3, 0, 0, alpha, phi))
        dims = (cutoff + 1, herald_max + 1, herald_max + 1)
        j_tail = math.ceil(alpha ** 2 + 12.0 * alpha + 30.0)
        j_max = max(0, min(j_tail, cutoff + 2 * herald_max - n2 - n3))
        case = (compose(phi), n2, n3, HeraldSpec(n2, n3, 0, 0, alpha, phi).alpha, dims, j_max)
        assert_route_gives_box(case, reference_output(*case))


def test_herald_distribution_holds_no_box():
    # the default herald box at |alpha| = 10 here is (222, 116, 116): 46 MiB
    # of complex cells, which the oracle never allocates
    tracemalloc.start()
    try:
        herald_distribution(1, 0, 10.0, 0.0, 115)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


# -- the box budget -------------------------------------------------------------

class BoxReached(Exception):
    pass


@pytest.fixture
def no_raising(monkeypatch):
    """Stop any call that gets past the box check before the raising loop starts."""
    reached = []

    def stub(U, n2, n3, alpha, dims, j_max):
        reached.append(dims)
        raise BoxReached
    monkeypatch.setattr(oracle, "_planes", stub)
    return reached


def test_box_budget_is_a_validation_error():
    assert issubclass(WorkTooLarge, ValidationError)
    assert BOX_CELLS_MAX == 2 ** 22


def test_herald_state_box_at_and_above_the_budget(no_raising):
    spec = HeraldSpec(0, 0, 0, 0, alpha_mag=1.0, phi=2.0)
    with pytest.raises(BoxReached):
        herald_state(spec, cutoff=BOX_CELLS_MAX - 1)
    assert math.prod(no_raising[-1]) == BOX_CELLS_MAX
    with pytest.raises(WorkTooLarge):
        herald_state(spec, cutoff=BOX_CELLS_MAX)
    with pytest.raises(WorkTooLarge):
        herald_state(HeraldSpec(0, 0, 3, 3, alpha_mag=1.0, phi=2.0),
                     cutoff=BOX_CELLS_MAX // 16)
    assert len(no_raising) == 1


def test_herald_distribution_box_at_and_above_the_budget(no_raising):
    # (cutoff + 1) (h + 1)^2 with h + 1 = 2^10 leaves 4 signal levels
    with pytest.raises(BoxReached):
        herald_distribution(0, 0, 1.0, 2.0, 2 ** 10 - 1, cutoff=3)
    assert math.prod(no_raising[-1]) == BOX_CELLS_MAX
    with pytest.raises(WorkTooLarge):
        herald_distribution(0, 0, 1.0, 2.0, 2 ** 10, cutoff=3)
    assert len(no_raising) == 1


@pytest.mark.parametrize("alpha", [29.0, 30.0, oracle.DRIVE_ALPHA_MAX])
def test_herald_state_up_to_the_drive_limit_matches_closed_form(alpha):
    # U = 1 at phi = 0, so the drive passes straight through and the herald
    # (1, 1) of inputs (1, 1) has probability 1
    spec = HeraldSpec(1, 1, 1, 1, alpha_mag=alpha, phi=0.0)
    _, probability = herald_state(spec)
    closed = table1_coeffs(spec, compose(0.0)).probability
    assert closed == pytest.approx(1.0, rel=1e-12)
    assert probability == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("alpha", [31.0, 40.0, 1000.0])
def test_drive_past_the_limit_is_refused_before_the_box(no_raising, alpha):
    with pytest.raises(WorkTooLarge, match="DRIVE_ALPHA_MAX = 30.46"):
        herald_state(HeraldSpec(1, 1, 1, 1, alpha_mag=alpha, phi=0.0))
    with pytest.raises(WorkTooLarge, match="DRIVE_ALPHA_MAX = 30.46"):
        herald_distribution(0, 0, alpha, 0.0, 0, cutoff=2)
    assert no_raising == []


def test_default_boxes_fit_the_budget():
    for alpha in (0.0, 3.0, 10.0):
        h = default_herald_max(alpha)
        cutoff = default_cutoff(HeraldSpec(1, 1, 0, 0, alpha_mag=alpha, phi=0.0))
        assert (cutoff + 1) * (h + 1) ** 2 <= BOX_CELLS_MAX


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ("herald", "--n2", "0", "--n3", "0", "--m2", "0", "--m3", "0",
     "--alpha", "1", "--phi", "2", "--cutoff", "100000000"),
    ("dist", "--n2", "0", "--n3", "0", "--alpha", "1", "--phi", "2",
     "--herald-max", "100000"),
    *[("herald", "--n2", "1", "--n3", "1", "--m2", "1", "--m3", "1", "--phi", "0",
       "--alpha", alpha) for alpha in ("31", "40", "1000")],
])
def test_cli_refuses_oversized_box_before_work(capsys, no_raising, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "WorkTooLarge"
    assert no_raising == []


# -- the default herald box -------------------------------------------------------

def test_default_herald_max_rule():
    assert default_herald_max(0.0) == 15
    assert default_herald_max(2.0) == 19
    assert default_herald_max(10.0) == 115


def test_dist_sizes_its_box_when_herald_max_is_omitted(capsys):
    code, out, _ = run_cli(capsys, "dist", "--n2", "1", "--n3", "0",
                           "--alpha", "2", "--phi", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 20 * 20
    assert payload["total"] == pytest.approx(1.0, abs=1e-8)
    code, _, err = run_cli(capsys, "dist", "--n2", "1", "--n3", "0",
                           "--alpha", "2", "--phi", "3", "--herald-max", "14")
    assert code == 3
    assert json.loads(err)["error"] == "ResidualMassTooLarge"


def test_verify_uses_the_default_herald_box(monkeypatch):
    verification = importlib.import_module("sixport.verification")
    asked = []

    def recording(alpha_mag):
        asked.append(alpha_mag)
        return default_herald_max(alpha_mag)
    monkeypatch.setattr(verification, "default_herald_max", recording)
    verification.run_verification(1, 0)
    assert len(asked) == 1 and 0.2 <= asked[0] <= 3.0


def test_dist_herald_max_from_config(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"herald_max": 8}))
    code, out, _ = run_cli(capsys, "--config", str(config), "dist", "--n2", "0",
                           "--n3", "0", "--alpha", "1", "--phi", "3")
    assert code == 0
    assert len(json.loads(out)["entries"]) == 81


# -- series index lookup ----------------------------------------------------------

def test_axes_are_cached_per_variables_tuple():
    assert _axes(("s", "t", "mu")) is _axes(("s", "t", "mu"))
    assert _axes(("s", "t", "mu")) == {"s": 0, "t": 1, "mu": 2}


def test_index_from_mapping_and_sequence():
    s = FormalSeries(("s", "t", "mu", "nu"), (2, 1, 3, 2))
    assert s._index({"nu": 2, "s": 1}) == (1, 0, 0, 2)
    assert s._index({}) == (0, 0, 0, 0)
    assert s._index((1, 1, 3, 0)) == (1, 1, 3, 0)
    assert s._index({"mu": np.int64(3)}) == (0, 0, 3, 0)


def test_index_errors_keep_their_messages():
    s = FormalSeries(("s", "t"), (2, 1))
    with pytest.raises(VariableMismatch, match=r"unknown variables: \['a', 'z'\]"):
        s._index({"z": 1, "s": 1, "a": 0})
    with pytest.raises(OrderOverflow, match=r"exponent 3 of s outside \[0, 2\]"):
        s._index({"t": 2, "s": 3})
    with pytest.raises(OrderOverflow, match=r"exponent -1 of s outside \[0, 2\]"):
        s._index((-1, 0))
    with pytest.raises(VariableMismatch, match="length mismatch"):
        s._index((1,))
