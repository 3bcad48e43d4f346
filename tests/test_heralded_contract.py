"""The closed form and the series route keep one heralded-state contract.

``table1_coeffs`` and ``general_heralded`` return the same type, with the
same label, Python complex coefficients and c0..c2 padded with 0j past the
last level.  A state of zero norm is refused with one message, naming its
label, by every consumer and by ``state`` on both routes; a herald over
``PHOTONS_MAX`` photons is refused with one error by both routes and the CLI.
"""

import contextlib
import io
import math

import numpy as np
import pytest

from sixport import (HeraldImpossible, HeraldSpec, WorkTooLarge, compose, general_heralded,
                     moment, quadratures, state_fock_vector, table1_coeffs)
from sixport.cli import main
from sixport.states import PATTERNS

TUPLES = [*PATTERNS, (2, 1, 1, 1), (0, 0, 6, 6)]


def hexes(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


def run(argv):
    """(exit code, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def cli_herald(pattern, alpha, phi):
    return [*(f"--{name}={n}" for name, n in zip(("n2", "n3", "m2", "m3"), pattern)),
            f"--alpha={alpha!r}", f"--phi={phi!r}"]


@pytest.mark.parametrize("pattern", TUPLES)
def test_both_routes_give_one_state_type(pattern):
    rng = np.random.default_rng(list(pattern))
    for _ in range(2):
        alpha, phi = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.1, 2 * math.pi - 0.1))
        spec = HeraldSpec(*pattern, alpha_mag=alpha, phi=phi)
        closed, series = table1_coeffs(spec, compose(phi)), general_heralded(spec, compose(phi))
        assert type(closed) is type(series)
        assert closed.label == series.label
        for st in (closed, series):
            assert type(st.coeffs) is tuple
            assert all(type(c) is complex for c in (*st.coeffs, st.c0, st.c1, st.c2))
            # the padding ``state`` printed: the levels, then 0j, to three
            assert hexes([st.c0, st.c1, st.c2]) == hexes((list(st.coeffs) + [0j] * 3)[:3])


def test_zero_norm_has_one_message():
    spec = HeraldSpec(0, 0, 1, 0, alpha_mag=0.0, phi=1.0)   # psi2 at |alpha| = 0
    want = "state psi2 has zero norm"
    for build in (table1_coeffs, general_heralded):
        st = build(spec, compose(spec.phi))
        for consume in (lambda: moment(st, 2, 1), lambda: quadratures(st),
                        lambda: state_fock_vector(st, 10)):
            with pytest.raises(HeraldImpossible) as info:
                consume()
            assert str(info.value) == want
    for method in ("closed", "general"):
        code, err = run(["state", "--method", method, *cli_herald((0, 0, 1, 0), 0.0, 1.0)])
        assert (code, err) == (3, f'{{"error": "HeraldImpossible", "message": "{want}"}}\n')


def test_photon_budget_has_one_error():
    spec = HeraldSpec(7, 6, 0, 0, alpha_mag=1.3, phi=0.7)
    want = "herald (7, 6, 0, 0) has 13 photons, over PHOTONS_MAX = 12"
    for build in (table1_coeffs, general_heralded):
        with pytest.raises(WorkTooLarge) as info:
            build(spec, compose(spec.phi))
        assert type(info.value) is WorkTooLarge and str(info.value) == want
    for method in ("closed", "general"):
        code, err = run(["state", "--method", method, *cli_herald((7, 6, 0, 0), 1.3, 0.7)])
        assert (code, err) == (2, f'{{"error": "WorkTooLarge", "message": "{want}"}}\n')
