"""The oracle's default cutoff covers the whole optimisation box, and the
``verify`` sample count is bounded."""

import json
import math
import time

import numpy as np
import pytest

from sixport import (
    HeraldImpossible,
    HeraldSpec,
    SAMPLES_MAX,
    WorkTooLarge,
    compose,
    default_cutoff,
    herald_state,
    state_fock_vector,
    table1_coeffs,
)
from sixport import verification
from sixport.cli import main
from sixport.states import PATTERNS


# -- default cutoff ----------------------------------------------------------------

def test_default_cutoff_rule():
    # Poisson bulk of |u11 alpha| plus a safety band, at least 20, no cap
    assert default_cutoff(HeraldSpec(0, 0, 0, 0, alpha_mag=0.0, phi=0.0)) == 20
    assert default_cutoff(HeraldSpec(1, 1, 1, 1, alpha_mag=10.0, phi=0.0)) == 222
    spec = HeraldSpec(1, 0, 0, 0, alpha_mag=8.0, phi=math.pi / 2)
    s = abs((np.exp(-1j * spec.phi) + 2.0) / 3.0) * spec.alpha_mag
    assert default_cutoff(spec) == math.ceil(s * s + 10.0 * s + 20.0) + 1


@pytest.mark.parametrize("alpha", [0.0, 5.0, 8.0, 10.0])
def test_default_cutoff_oracle_matches_closed_form_across_box(alpha):
    """Each herald either succeeds with the default cutoff and agrees with the
    closed form, or is (numerically) forbidden on both routes."""
    for phi in (0.0, math.pi / 2, math.pi):
        U = compose(phi)
        for pattern in PATTERNS:
            spec = HeraldSpec(*pattern, alpha_mag=alpha, phi=phi)
            closed = table1_coeffs(spec, U)
            cutoff = default_cutoff(spec)
            try:
                state, prob = herald_state(spec)
            except HeraldImpossible:
                assert closed.probability < 1e-29, (pattern, alpha, phi)
                continue
            assert abs(prob - closed.probability) <= 1e-9 * closed.probability
            predicted = state_fock_vector(closed, cutoff)
            assert np.max(np.abs(predicted.amplitudes - state.amplitudes)) <= 1e-9


def test_herald_cli_at_alpha_10(capsys):
    """Past |u11 alpha| = 6.18 the old clamp of 120 gave CutoffInadequate."""
    code = main(["herald", "--n2", "1", "--n3", "1", "--m2", "1", "--m3", "1",
                 "--alpha", "10", "--phi", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    spec = HeraldSpec(1, 1, 1, 1, alpha_mag=10.0, phi=0.0)
    assert out["cutoff_used"] == default_cutoff(spec) == 222
    closed = table1_coeffs(spec, compose(0.0))
    assert abs(out["probability"] - closed.probability) <= 1e-9 * closed.probability
    amplitudes = np.array([complex(re, im) for re, im in out["amplitudes"]])
    predicted = state_fock_vector(closed, out["cutoff_used"]).amplitudes
    assert np.max(np.abs(amplitudes - predicted)) <= 1e-9


# -- verify sample budget ------------------------------------------------------------

@pytest.fixture
def checked(monkeypatch):
    """Stub the per-sample work; the list records each sampled point."""
    points = []
    monkeypatch.setattr(verification, "_check_sample",
                        lambda alpha_mag, phi, dev: points.append((alpha_mag, phi)))
    return points


def test_samples_budget_at_limit(checked):
    report = verification.run_verification(SAMPLES_MAX, 0)
    assert report["passed"] and report["samples"] == SAMPLES_MAX
    assert len(checked) == SAMPLES_MAX


def test_samples_budget_one_past_limit(checked, monkeypatch):
    drawn = []
    monkeypatch.setattr(verification.np.random, "default_rng",
                        lambda seed: drawn.append(seed))
    with pytest.raises(WorkTooLarge, match="SAMPLES_MAX"):
        verification.run_verification(SAMPLES_MAX + 1, 0)
    assert checked == [] and drawn == []


@pytest.mark.parametrize("samples", [str(SAMPLES_MAX + 1), "1000000000000"])
def test_verify_cli_refuses_oversized_run_before_work(capsys, checked, samples):
    start = time.perf_counter()
    code = main(["verify", "--samples", samples])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "WorkTooLarge"
    assert checked == []
