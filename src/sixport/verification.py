"""Seeded cross-path verification suite.

Draws random parameter points from a named generator and checks, for every
herald pattern at the single-photon level: closed-form vs series-extraction
vs Fock-oracle states and probabilities, the two moment routes against each
other, herald-distribution completeness, and unitarity of the transfer
matrix.  Any deviation above tolerance raises VerificationFailed with the
offending checks listed; failures are reproducible from the printed seed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import VerificationFailed, WorkTooLarge
from .interferometer import compose
from .moments import moment, way1_moment_table
from .oracle import (
    HeraldSpec,
    default_cutoff,
    default_herald_max,
    herald_distribution,
    herald_state,
)
from .states import PATTERNS, general_heralded, state_fock_vector, table1_coeffs

DEFAULT_TOLERANCES = {
    "unitarity": 1e-12,
    "table_vs_general_coeffs": 1e-12,
    "table_vs_general_probability": 1e-12,
    "oracle_state_amplitudes": 1e-9,
    "oracle_probability": 1e-9,
    "moment_way1_vs_way2": 1e-11,
    "distribution_completeness": 1e-8,
}

# Most samples one run accepts.  A sample costs about 0.1 s on one core, so
# the largest run takes a few minutes.
SAMPLES_MAX = 1000


def run_verification(samples: int, seed: int,
                     tolerances: dict[str, float] | None = None) -> dict:
    """Run all cross-path checks on ``samples`` seeded parameter points.

    More than ``SAMPLES_MAX`` samples raise ``WorkTooLarge`` before any is
    drawn.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > SAMPLES_MAX:
        raise WorkTooLarge(f"{samples} samples, over SAMPLES_MAX = {SAMPLES_MAX}")
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tols.update(tolerances)

    rng = np.random.default_rng(seed)
    dev = {name: 0.0 for name in tols}
    for _ in range(samples):
        alpha_mag = float(rng.uniform(0.2, 3.0))
        phi = float(rng.uniform(0.1, 2.0 * math.pi - 0.1))
        _check_sample(alpha_mag, phi, dev)

    failures = {name: d for name, d in dev.items() if d > tols[name]}
    report = {
        "samples": samples,
        "seed": seed,
        "deviations": dev,
        "tolerances": tols,
        "passed": not failures,
    }
    if failures:
        detail = ", ".join(
            f"{name}: {d:.3e} > {tols[name]:.1e}" for name, d in failures.items())
        raise VerificationFailed(f"checks exceeded tolerance ({detail})")
    return report


def _check_sample(alpha_mag: float, phi: float, dev: dict) -> None:
    """Raise each deviation in ``dev`` to the largest seen at one point."""
    U = compose(phi)
    dev["unitarity"] = max(
        dev["unitarity"],
        float(np.max(np.abs(U @ U.conj().T - np.eye(3)))))

    for pattern in PATTERNS:
        spec = HeraldSpec(*pattern, alpha_mag=alpha_mag, phi=phi)
        closed = table1_coeffs(spec, U)
        general = general_heralded(spec, U)

        table_coeffs = np.array([closed.c0, closed.c1, closed.c2])
        gen_coeffs = np.zeros(3, dtype=complex)
        gen_coeffs[: len(general.coeffs)] = general.coeffs
        dev["table_vs_general_coeffs"] = max(
            dev["table_vs_general_coeffs"],
            float(np.max(np.abs(table_coeffs - gen_coeffs))))
        dev["table_vs_general_probability"] = max(
            dev["table_vs_general_probability"],
            abs(closed.probability - general.probability))

        cutoff = default_cutoff(spec)
        reference, prob = herald_state(spec, cutoff)
        predicted = state_fock_vector(closed, cutoff)
        dev["oracle_state_amplitudes"] = max(
            dev["oracle_state_amplitudes"],
            float(np.max(np.abs(predicted.amplitudes - reference.amplitudes))))
        dev["oracle_probability"] = max(
            dev["oracle_probability"], abs(closed.probability - prob))

        way1 = way1_moment_table(spec, U, 2, 2)
        for k in range(3):
            for l in range(3):
                way2 = moment(closed, k, l)
                dev["moment_way1_vs_way2"] = max(
                    dev["moment_way1_vs_way2"], abs(way1[k, l] - way2))

    herald_max = default_herald_max(alpha_mag)
    for n2 in (0, 1):
        for n3 in (0, 1):
            dist = herald_distribution(n2, n3, alpha_mag, phi, herald_max)
            dev["distribution_completeness"] = max(
                dev["distribution_completeness"],
                abs(1.0 - sum(dist.values())))
