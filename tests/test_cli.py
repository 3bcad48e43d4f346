import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sixport import (HeraldSpec, UnknownFamily, ValidationError, VerificationFailed,
                     expectation_quadratures, herald_state, scan)
from sixport.cli import FLAGS, main
from sixport.verification import run_verification


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_identity(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--phi", "0")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 9
    want = np.eye(3).reshape(-1)
    for (re, im), w in zip(entries, want):
        assert re == pytest.approx(w, abs=1e-14)
        assert im == pytest.approx(0.0, abs=1e-14)


def test_matrix_requires_phi(capsys):
    code, _, err = run_cli(capsys, "matrix")
    assert code == 2
    assert "missing" in json.loads(err)["message"]


def test_herald_output_schema(capsys):
    code, out, _ = run_cli(capsys, "herald", "--n2", "1", "--n3", "1",
                           "--m2", "1", "--m3", "1", "--alpha", "2", "--phi", "2",
                           "--cutoff", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["cutoff_used"] == 40
    assert payload["probability"] == pytest.approx(0.06345128642001918, abs=1e-14)
    assert len(payload["amplitudes"]) == 41
    norm = sum(re * re + im * im for re, im in payload["amplitudes"])
    assert norm == pytest.approx(1.0, abs=1e-9)


def test_state_methods_agree(capsys):
    for tuple_, label in (((1, 0, 1, 0), "psi8"), ((2, 1, 1, 1), "general")):
        assert_state_methods_agree(capsys, tuple_, label)


def assert_state_methods_agree(capsys, tuple_, label):
    flags = [*(v for name, n in zip(("--n2", "--n3", "--m2", "--m3"), tuple_)
               for v in (name, str(n))), "--alpha", "1.5", "--phi", "2.5"]
    _, closed_out, _ = run_cli(capsys, "state", *flags, "--method", "closed")
    _, general_out, _ = run_cli(capsys, "state", *flags, "--method", "general")
    closed = json.loads(closed_out)
    general = json.loads(general_out)
    assert closed["label"] == general["label"] == label
    # the closed form lists its levels only past c2; (2, 1, 1, 1) has four
    assert ("coeffs" in closed) == (sum(tuple_[:2]) > 2)
    for key in ("c0", "c1", "c2", "norm", "probability"):
        assert np.allclose(closed[key], general[key], rtol=0, atol=1e-12), key

    _, oracle_out, _ = run_cli(capsys, "state", *flags, "--method", "oracle")
    oracle = json.loads(oracle_out)
    assert oracle["c0"] is None
    assert oracle["probability"] == pytest.approx(closed["probability"], abs=1e-9)


def test_state_impossible_herald_exit_code(capsys):
    code, _, err = run_cli(capsys, "state", "--n2", "0", "--n3", "0",
                           "--m2", "1", "--m3", "0", "--alpha", "2", "--phi", "0",
                           "--method", "oracle")
    assert code == 3
    assert json.loads(err)["error"] == "HeraldImpossible"


@pytest.mark.parametrize("method, flags", [
    ("closed", ["--n2", "0", "--n3", "0", "--m2", "1", "--m3", "1", "--alpha", "0", "--phi", "1"]),
    ("general", ["--n2", "2", "--n3", "0", "--m2", "0", "--m3", "0", "--alpha", "1", "--phi", "0"]),
])
def test_state_zero_norm_is_impossible_on_every_method(capsys, method, flags):
    # the closed and general forms refuse a zero-norm state as the oracle does
    for m in (method, "oracle"):
        code, out, err = run_cli(capsys, "state", *flags, "--method", m)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "HeraldImpossible"


def test_moments_closed_vs_oracle(capsys):
    flags = ["--n2", "1", "--n3", "1", "--m2", "1", "--m3", "1",
             "--alpha", "2", "--phi", "2", "--k", "2", "--l", "1"]
    _, closed_out, _ = run_cli(capsys, "moments", *flags)
    _, oracle_out, _ = run_cli(capsys, "moments", *flags, "--method", "oracle")
    closed = json.loads(closed_out)["moment"]
    oracle = json.loads(oracle_out)["moment"]
    assert closed[0] == pytest.approx(oracle[0], abs=1e-9)
    assert closed[1] == pytest.approx(oracle[1], abs=1e-9)


@pytest.mark.parametrize("method", ["closed", "oracle"])
@pytest.mark.parametrize("k, l", [(50, 0), (0, 9), (-1, 0)])
def test_moments_power_bound_for_both_methods(capsys, method, k, l):
    code, out, err = run_cli(capsys, "moments", "--n2", "1", "--n3", "1", "--m2", "1",
                             "--m3", "1", "--alpha", "1", "--phi", "1", "--k", str(k),
                             "--l", str(l), "--method", method)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ValidationError",
                               "message": "--k and --l must be in 0..8"}


def test_quadratures_output(capsys):
    code, out, _ = run_cli(capsys, "quadratures", "--n2", "1", "--n3", "0",
                           "--m2", "0", "--m3", "0", "--alpha", "0", "--phi", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["var_x"] == pytest.approx(1.5)
    assert payload["var_p"] == pytest.approx(1.5)
    assert payload["squeeze_db_x"] == pytest.approx(-10 * math.log10(3.0), abs=1e-12)


def test_scan_csv_format(capsys):
    code, out, _ = run_cli(capsys, "scan", "--family", "psi16", "--quantity", "varx",
                           "--alpha-min", "1", "--alpha-max", "3",
                           "--phi-min", "1", "--phi-max", "2", "--res", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,phi,value"
    assert len(lines) == 1 + 9
    alpha, phi, value = lines[1].split(",")
    assert float(alpha) == 1.0
    assert float(phi) == 1.0
    assert 0.0 < float(value) < 2.0


def test_scan_csv_matches_per_cell_rendering(capsys):
    # psi2 at res 11 carries NaN sentinels on the alpha = 0 row and the
    # phi = 0, 2 pi columns
    code, out, _ = run_cli(capsys, "scan", "--family", "psi2", "--quantity", "varx",
                           "--alpha-min", "0", "--alpha-max", "2", "--res", "11")
    assert code == 0
    grid = scan("psi2", "var_x", (0.0, 2.0), (0.0, 2 * math.pi), 11)
    assert np.isnan(grid.values).any()
    lines = ["alpha,phi,value"]
    for i, a in enumerate(grid.alpha_axis):
        for j, p in enumerate(grid.phi_axis):
            lines.append(",".join(format(v, ".17g")
                                  for v in (a, p, grid.values[i, j])))
    assert out == "\n".join(lines) + "\n"


@pytest.mark.parametrize("flags", [
    ("--alpha-max", "inf"),
    ("--alpha-min", "-5"),
    ("--phi-max", "inf"),
])
def test_scan_rejects_bad_ranges(capsys, flags):
    code, out, err = run_cli(capsys, "scan", "--family", "psi16", "--quantity", "varx",
                             *flags, "--res", "3")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize("argv", [
    ("scan", "--family", "psi99", "--quantity", "prob", "--res", "2"),
    ("optimize", "--family", "psi99"),
])
def test_unknown_family_is_a_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    message = FLAGS["scan"][0].message.replace("<label>", "psi99")
    assert json.loads(err) == {"error": "UnknownFamily", "message": message}
    assert issubclass(UnknownFamily, ValidationError)
    assert issubclass(UnknownFamily, ValueError)


def test_optimize_psi16(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--family", "psi16",
                           "--coarse-res", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["var_min"] == pytest.approx(0.277, abs=0.002)
    assert payload["squeeze_db"] == pytest.approx(2.57, abs=0.03)
    assert payload["probability_at_opt"] == pytest.approx(0.067, abs=0.003)
    assert payload["evaluations"] > 100 * 100


def test_optimize_accepts_herald_tuple_addressing(capsys):
    code, by_family, _ = run_cli(capsys, "optimize", "--family", "psi5",
                                 "--coarse-res", "50")
    assert code == 0
    code, by_tuple, _ = run_cli(capsys, "optimize", "--n2", "1", "--n3", "0",
                                "--m2", "0", "--m3", "0", "--coarse-res", "50")
    assert code == 0
    assert by_family == by_tuple
    # a tuple outside the sixteen families is optimized by the same rule
    code, out, _ = run_cli(capsys, "optimize", "--n2", "2", "--n3", "0",
                           "--m2", "0", "--m3", "0", "--coarse-res", "50")
    assert code == 0
    code, out, _ = run_cli(capsys, "optimize", "--n2", "2", "--n3", "1",
                           "--m2", "1", "--m3", "1")
    assert code == 0
    best = json.loads(out)
    assert best["var_min"] <= 0.24614
    spec = HeraldSpec(2, 1, 1, 1, alpha_mag=best["alpha_opt"], phi=best["phi_opt"])
    state, probability = herald_state(spec)
    var_x, _ = expectation_quadratures(state)
    assert abs(var_x - best["var_min"]) <= 1e-9
    assert abs(probability - best["probability_at_opt"]) <= 1e-9


@pytest.mark.parametrize("argv", [
    ("scan", "--quantity", "prob", "--res", "2"),
    ("optimize",),
    ("state", "--alpha", "1", "--phi", "1", "--method", "closed"),
])
def test_negative_herald_tuple_exits_2(capsys, argv):
    tuple_flags = ("--n2", "1", "--n3", "-1", "--m2", "0", "--m3", "0")
    code, out, err = run_cli(capsys, argv[0], *tuple_flags, *argv[1:])
    assert (code, out) == (2, "")
    # every command names the library's ValueError as a ValidationError
    assert json.loads(err)["error"] == "ValidationError"
    assert "non-negative" in json.loads(err)["message"]


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--samples", "1", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(d <= t for d, t in zip(payload["deviations"].values(),
                                      payload["tolerances"].values()))


def test_verify_zero_samples_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--samples", "0")
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize("config, argv", [
    ({}, ["verify", "--samples", "1", "--seed", "-1"]),
    ({"seed": -5}, ["verify", "--samples", "1"]),
])
def test_verify_negative_seed_is_validation_error(tmp_path, capsys, config, argv):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(path), *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ValidationError",
                               "message": "--seed must be a non-negative integer"}


def test_run_verification_rejects_negative_seed():
    # its own message, raised before numpy's seeding sees the value
    with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
        run_verification(1, -1)


def test_verify_tampered_tolerance_detector():
    with pytest.raises(VerificationFailed):
        run_verification(1, 0, tolerances={"unitarity": 1e-30})


def test_dist_schema_and_total(capsys):
    code, out, _ = run_cli(capsys, "dist", "--n2", "0", "--n3", "0",
                           "--alpha", "1", "--phi", "3.0", "--herald-max", "8")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 81
    assert payload["total"] == pytest.approx(1.0, abs=1e-8)
    lookup = {(e["m2"], e["m3"]): e["probability"] for e in payload["entries"]}
    assert lookup[(0, 0)] > 0


def test_config_file_with_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "n2": 1, "n3": 0, "m2": 0, "m3": 0, "alpha": 1.0, "phi": 2.0,
    }))
    code, out, _ = run_cli(capsys, "--config", str(config), "state")
    assert code == 0
    assert json.loads(out)["label"] == "psi5"
    # explicit flag wins over the config value
    code, out, _ = run_cli(capsys, "--config", str(config), "state", "--n3", "1")
    assert code == 0
    assert json.loads(out)["label"] == "psi7"


_POINT = ["--n2", "1", "--n3", "1", "--m2", "1", "--m3", "1", "--alpha", "2", "--phi", "2"]


@pytest.mark.parametrize("config, argv", [
    ({"alpha": "abc"}, ["quadratures", "--n2", "1", "--n3", "0", "--m2", "0", "--m3", "0",
                        "--phi", "2"]),
    ({"res": "x"}, ["scan", "--family", "psi16", "--quantity", "prob"]),
    ({"samples": 2.5}, ["verify"]),
    ({"family": 7}, ["optimize"]),
    ({"k": "2"}, ["moments", *_POINT, "--l", "1"]),
    ({"seed": True}, ["verify", "--samples", "1"]),
])
def test_mistyped_config_value_is_config_error(tmp_path, capsys, config, argv):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(path), *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ConfigError"


def test_env_cutoff_override(capsys, monkeypatch):
    monkeypatch.setenv("SIXPORT_CUTOFF", "37")
    code, out, _ = run_cli(capsys, "herald", "--n2", "0", "--n3", "0",
                           "--m2", "0", "--m3", "0", "--alpha", "1", "--phi", "1")
    assert code == 0
    assert json.loads(out)["cutoff_used"] == 37
    monkeypatch.setenv("SIXPORT_CUTOFF", "banana")
    code, _, err = run_cli(capsys, "herald", "--n2", "0", "--n3", "0",
                           "--m2", "0", "--m3", "0", "--alpha", "1", "--phi", "1")
    assert code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "--output", str(target), "matrix", "--phi", "1.0")
    assert code == 0
    assert out == ""
    entries = json.loads(target.read_text())
    assert len(entries) == 9


@pytest.mark.parametrize("where", ["missing/result.json", "."])
def test_unwritable_output_is_error_payload(tmp_path, capsys, where):
    # a path in a missing directory, and a path that is a directory
    code, out, err = run_cli(capsys, "--output", str(tmp_path / where), "matrix", "--phi", "0")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "OutputError" and payload["message"]


def test_byte_identical_repeat_runs(capsys):
    args = ("optimize", "--family", "psi5", "--coarse-res", "50")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_float_serialization_roundtrip(capsys):
    _, out, _ = run_cli(capsys, "state", "--n2", "1", "--n3", "1", "--m2", "1",
                        "--m3", "1", "--alpha", "2", "--phi", "2")
    payload = json.loads(out)
    from sixport import HeraldSpec, compose, table1_coeffs
    st = table1_coeffs(HeraldSpec(1, 1, 1, 1, alpha_mag=2.0, phi=2.0), compose(2.0))
    # 17 significant digits give exact double round-trips
    assert payload["norm"] == st.norm
    assert payload["probability"] == st.probability
    assert payload["c1"] == [st.c1.real, st.c1.imag]


@pytest.mark.parametrize("argv", [
    ("matrix", "--phi", "nan"),
    ("matrix", "--phi", "inf"),
    ("state", "--n2", "1", "--n3", "1", "--m2", "1", "--m3", "1",
     "--alpha", "inf", "--phi", "2"),
])
def test_non_finite_inputs_are_validation_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValidationError"


def _run_python(code: str) -> subprocess.CompletedProcess:
    import sixport
    env = dict(os.environ, PYTHONPATH=str(Path(sixport.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_scipy():
    proc = _run_python(
        "import sys, sixport.cli\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_optimize_runs_without_scipy():
    proc = _run_python(
        "import runpy, sys\n"
        "sys.modules['scipy'] = None\n"
        "sys.argv = ['sixport', 'optimize', '--family', 'psi5', '--coarse-res', '50']\n"
        "runpy.run_module('sixport.cli', run_name='__main__')")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["var_min"] < 0.5


def test_herald_past_factorial_overflow_matches_closed_form(capsys):
    # the drive expansion reaches j > 170, where j! no longer fits a float
    code, out, _ = run_cli(capsys, "herald", "--n2", "1", "--n3", "1", "--m2", "1",
                           "--m3", "1", "--alpha", "10", "--phi", "0",
                           "--cutoff", "222")
    assert code == 0
    from sixport import HeraldSpec, compose, table1_coeffs
    closed = table1_coeffs(HeraldSpec(1, 1, 1, 1, alpha_mag=10.0, phi=0.0), compose(0.0))
    assert json.loads(out)["probability"] == pytest.approx(closed.probability, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ("quadratures", "--n2", "1", "--n3", "1", "--m2", "1", "--m3", "1",
     "--alpha", "1e200", "--phi", "2"),
    ("state", "--n2", "1", "--n3", "1", "--m2", "1", "--m3", "1",
     "--alpha", "1e200", "--phi", "2", "--method", "closed"),
    ("scan", "--family", "psi16", "--quantity", "varx", "--alpha-max", "1e200",
     "--res", "3"),
])
def test_alpha_beyond_bound_is_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValidationError"
