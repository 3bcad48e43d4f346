"""``verify`` builds each route once per sample and still gives every byte.

At one (|alpha|, phi), ``verification._check_sample`` builds the series once
at the ceiling tuple (1, 1, 1, 1) and makes one oracle raise per (n2, n3);
the reads below are built the same way.  Each herald's reads must equal the
public per-herald calls (``general_heralded``, ``way1_moment_table``,
``herald_state``) byte for byte, and an error must still belong to its own
herald.
"""

import math

import numpy as np
import pytest

from sixport import (HeraldSpec, SixportError, compose, default_cutoff, general_heralded,
                     herald_state, verification, way1_moment_table)
from sixport.oracle import _herald_state
from sixport.series import _read_heralded, _read_way1, _state_series, _way1_series
from sixport.states import PATTERNS

TWO_PI = 2 * math.pi
CELLS = [(0, 0), (1, 0), (0, 1), (1, 1)]    # the (m2, m3) cells one raise serves

# verify's box corners, seeded points inside it, and points past it where U
# has exact zeros (phi = 0) or the drive vanishes, so that zero amplitudes
# and impossible heralds occur
POINTS = [(m, phi) for m in (0.2, 3.0) for phi in (0.1, TWO_PI - 0.1)] + [
    (float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.1, TWO_PI - 0.1)))
    for rng in [np.random.default_rng(30)] for _ in range(4)] + [
    (0.0, 1.0), (1.3, 0.0), (0.0, 0.0), (2.0, math.pi)]


def hexes(*values):
    return [float(v).hex() for v in values]


def outcome(call):
    """The call's result, or its error's class and message."""
    try:
        return call()
    except (SixportError, ValueError) as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("alpha_mag, phi", POINTS)
def test_sample_reads_equal_per_herald_calls(alpha_mag, phi):
    U = compose(phi)
    ceiling = HeraldSpec(1, 1, 1, 1, alpha_mag=alpha_mag, phi=phi)
    state_series = _state_series(ceiling, U)
    way1_series = _way1_series(ceiling, U, 2, 2).coeffs
    raised = {}
    for pattern in PATTERNS:
        spec = HeraldSpec(*pattern, alpha_mag=alpha_mag, phi=phi)
        corner = way1_series[pattern * 2]
        got, want = _read_heralded(spec, U, *state_series, corner), general_heralded(spec, U)
        assert got.coeffs.tobytes() == want.coeffs.tobytes(), pattern
        assert np.complex128(got.seed).tobytes() == np.complex128(want.seed).tobytes()
        assert hexes(got.norm, got.probability) == hexes(want.norm, want.probability)
        table = outcome(lambda: _read_way1(spec, corner).tobytes())
        assert table == outcome(lambda: way1_moment_table(spec, U, 2, 2).tobytes()), pattern
        cutoff = default_cutoff(spec)
        reads = [outcome(lambda: _herald_state(spec, cutoff, CELLS, raised)),
                 outcome(lambda: herald_state(spec, cutoff))]
        if isinstance(reads[0][0], type) or isinstance(reads[1][0], type):
            assert reads[0] == reads[1], pattern
            continue
        (state, prob), (ref, ref_prob) = reads
        assert state.amplitudes.tobytes() == ref.amplitudes.tobytes(), pattern
        assert hexes(prob, state.norm_sq) == hexes(ref_prob, ref.norm_sq), pattern


# (cutoff, seed): at cutoff 12, seed 39, (1, 1, 1, 0) is the first herald to
# fail, after (1, 1, 0, 0) made the (1, 1) raise.  At cutoff 14, seed 6, it is
# (1, 1, 0, 0); the (1, 0) raise made before it also serves (1, 0, 1, 1),
# which fails later with another tail fraction.
@pytest.mark.parametrize("cutoff, seed", [(12, 39), (14, 6)])
def test_oracle_error_belongs_to_its_herald(monkeypatch, cutoff, seed):
    rng = np.random.default_rng(seed)
    alpha_mag, phi = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.1, TWO_PI - 0.1))
    expected = None
    for pattern in PATTERNS:
        try:
            herald_state(HeraldSpec(*pattern, alpha_mag=alpha_mag, phi=phi), cutoff)
        except (SixportError, ValueError) as exc:  # the first herald whose own call fails
            expected = exc
            break
    assert expected is not None
    monkeypatch.setattr(verification, "default_cutoff", lambda spec: cutoff)
    with pytest.raises(type(expected)) as raised:
        verification.run_verification(1, seed)
    assert type(raised.value) is type(expected)
    assert str(raised.value) == str(expected)
