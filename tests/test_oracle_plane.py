"""The oracle's plane-by-plane raising loop gives every byte of a corner loop.

``corner_output`` below is the raising loop before it was cut to one
photon-number plane: each step rewrites the whole corner of the box its
photon number can reach, with two box-sized buffers alternating as the
raised vector.  ``oracle._planes`` carries only the current plane and holds
no box: ``oracle._column`` reads one column from it and ``oracle._plane_sum``
adds |amplitude|^2 plane by plane.  Every skipped update would add +-0 to a
value that is never -0, so each column, and the sum over the signal axis,
must agree with the corner loop's box byte for byte, down to the sign of
every zero.

The digests pin the public ``herald_state`` and ``herald_distribution``
outputs, and ``verify --samples 10 --seed 0``, to the bytes the corner loop
gave.
"""

import contextlib
import hashlib
import io
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixport import HeraldSpec, SixportError, compose, herald_distribution, herald_state
from sixport import oracle
from sixport.cli import main
from sixport.states import PATTERNS

FAST = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def corner_creation(vec, out, ctabs, reach):
    """Write  sum_k c_k a_k^dagger vec  into the corner of ``out`` that ``reach`` + 1 photons fill."""
    d0, d1, d2 = vec.shape
    s0, s1, s2 = min(d0, reach + 1), min(d1, reach + 1), min(d2, reach + 1)
    t0, t1, t2 = min(d0, reach + 2), min(d1, reach + 2), min(d2, reach + 2)
    corner = (slice(0, t0), slice(0, t1), slice(0, t2))
    out[corner] = 0.0
    c0, c1, c2 = ctabs
    if c0 is not None and t0 > 1:
        out[1:t0, :s1, :s2] += c0[1:t0, None, None] * vec[:t0 - 1, :s1, :s2]
    if c1 is not None and t1 > 1:
        out[:s0, 1:t1, :s2] += c1[None, 1:t1, None] * vec[:s0, :t1 - 1, :s2]
    if c2 is not None and t2 > 1:
        out[:s0, :s1, 1:t2] += c2[None, None, 1:t2] * vec[:s0, :s1, :t2 - 1]
    return corner


def corner_output(U, n2, n3, alpha, dims, j_max):
    """The box the terms of ``oracle._planes`` add up to, on box-sized buffers, one corner per step."""
    tables = tuple(np.sqrt(np.arange(d, dtype=float)) for d in dims)
    vec = np.zeros(dims, dtype=complex)
    spare = np.zeros(dims, dtype=complex)
    vec[0, 0, 0] = 1.0
    reach = 0
    for row, n in ((1, n2), (2, n3)):
        ctabs = oracle._creation_tables(U[row, :], tables)
        for _ in range(n):
            corner_creation(vec, spare, ctabs, reach)
            vec, spare = spare, vec
            reach += 1
        if n:
            vec /= math.sqrt(math.factorial(n))

    gauss = math.exp(-0.5 * abs(alpha) ** 2)
    out = gauss * vec
    ctabs = oracle._creation_tables(U[0, :], tables)
    amp = complex(gauss)
    for j in range(1, j_max + 1):
        corner = corner_creation(vec, spare, ctabs, reach)
        np.divide(spare[corner], math.sqrt(j), out=vec[corner])
        reach += 1
        amp *= alpha / math.sqrt(j)
        if amp != 0.0:
            out[corner] += amp * vec[corner]
        if abs(amp) < 1e-200:
            break
    return out


def assert_route_gives_box(case, box):
    """Every column of ``box`` and its axis-0 |.|^2 sum, by bytes, from ``oracle._planes``."""
    dims = case[4]
    for x1 in range(dims[1]):
        for x2 in range(dims[2]):
            column = oracle._column(oracle._planes(*case), x1, x2, dims[0])
            assert column.tobytes() == box[:, x1, x2].tobytes(), (x1, x2)
    probs = oracle._plane_sum(oracle._planes(*case), dims)
    assert probs.tobytes() == np.sum(np.abs(box) ** 2, axis=0).tobytes()


ENTRIES = [0.0, 0.0, 1.0, -0.6, 0.8j, -0.5j, -0.7 + 0.2j, 0.3 - 0.9j]


@st.composite
def raisings(draw):
    """(U, n2, n3, alpha, dims, j_max) with boxes from one cell wide to past the drive's reach."""
    n2, n3 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    dims = (draw(st.integers(1, 14)), draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    # up to four planes past the box's far corner, where the plane has left it
    j_max = draw(st.integers(0, max(0, sum(dims) + 1 - n2 - n3)))
    alpha_mag = draw(st.one_of(st.just(0.0), st.floats(0.0, oracle.DRIVE_ALPHA_MAX)))
    theta = draw(st.floats(-math.pi, math.pi).filter(bool))
    # the device matrix, or one whose exact zeros leave in-box cells
    # unreached and whose signs make -0 products there
    U = draw(st.one_of(st.floats(0.0, 2 * math.pi).map(compose),
                       st.lists(st.sampled_from(ENTRIES), min_size=9, max_size=9).map(
                           lambda entries: np.array(entries).reshape(3, 3))))
    return U, n2, n3, alpha_mag * complex(math.cos(theta), math.sin(theta)), dims, j_max


def _case(phi, n2, n3, alpha, dims, j_max):
    return compose(phi), n2, n3, alpha, dims, j_max


@FAST
@given(raisings())
# herald box 1 at cutoff 2, with and without drive steps
@example(_case(2.0, 1, 1, 1.5 + 0.5j, (3, 1, 1), 0))
@example(_case(2.0, 1, 1, 1.5 + 0.5j, (3, 1, 1), 6))
# the ancilla photons alone overfill the box
@example(_case(1.0, 3, 3, 2.0j, (3, 2, 2), 5))
# planes wholly inside the box, then running past the signal axis end
@example(_case(4.0, 2, 1, 3.0 - 1.0j, (12, 3, 2), 30))
# an in-box cell that no term reaches holds +0, as in the corner loop
@example((np.array([[1.0, 0.3j, 0.0], [-0.6, 0.0, 0.0], [0.0, 0.0, 1.0]]), 2, 0, 0.0,
          (3, 2, 1), 2))
# gauss * plane underflows to -0 on the first plane (phi ~ 1e-300)
@example(_case(1e-300, 1, 0, 20.0, (3, 2, 2), 5))
@example(_case(1e-300, 2, 1, 20.0 * np.exp(-2.0j), (5, 4, 4), 3))
# the same on a box one column wide, whose sum numpy adds pairwise: the -0
# stays after one drive term, and a later term's amp * (+0) makes it +0
@example(_case(1e-300, 1, 0, 20.0 * np.exp(-2.0j), (3, 1, 1), 1))
@example(_case(1e-300, 1, 0, 20.0, (3, 1, 1), 5))
def test_plane_loop_matches_corner_loop_bytes(case):
    assert_route_gives_box(case, corner_output(*case))


def test_plane_loop_matches_corner_loop_for_herald_boxes():
    rng = np.random.default_rng(22)
    for n2, n3 in [(0, 0), (1, 1), (3, 0)]:
        for herald_max in (1, 6):
            alpha = float(rng.uniform(0.0, 3.0)) * np.exp(1j * float(rng.uniform(-3.0, 3.0)))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            cutoff = oracle.default_cutoff(HeraldSpec(n2, n3, 0, 0, abs(alpha), phi))
            dims = (cutoff + 1, herald_max + 1, herald_max + 1)
            j_max = cutoff + 2 * herald_max - n2 - n3
            case = (compose(phi), n2, n3, alpha, dims, j_max)
            assert_route_gives_box(case, corner_output(*case))


# -- digests of the public routes ------------------------------------------------

BEYOND_TABLE = [(2, 0, 0, 0), (2, 0, 1, 1), (1, 2, 2, 0), (2, 2, 1, 1),
                (2, 2, 2, 2), (3, 1, 2, 2), (0, 3, 3, 3), (3, 3, 3, 3)]

# sha256 of the bytes the corner loop gave, recorded with numpy 2.4 on x86-64
HERALD_STATE_DIGEST = "a1ca80ffb1684e3be7f706cbbb894d34a64f619fe2e2663fddc8fa8f33af6b29"
HERALD_DISTRIBUTION_DIGEST = "86aedb394c18bad07dac036e037ee6a7d487eba0fac50db009f8d9505961f67d"
VERIFY_DIGEST = "7bde57311e74fd7f2df1a01bfc50904b9ddb725ba6b5d0d793ca80cc67757b96"


def test_herald_state_digest():
    rng = np.random.default_rng(2201)
    digest = hashlib.sha256()
    for pattern in [*PATTERNS, *BEYOND_TABLE]:
        for _ in range(2):
            spec = HeraldSpec(*pattern, alpha_mag=float(rng.uniform(0.0, 6.0)),
                              phi=float(rng.uniform(0.0, 2 * math.pi)),
                              theta=float(rng.uniform(-3.0, 3.0)))
            try:
                state, probability = herald_state(spec)
            except SixportError as exc:   # an impossible herald or a short cutoff
                digest.update(type(exc).__name__.encode())
                continue
            digest.update(state.amplitudes.tobytes())
            digest.update(np.float64(probability).tobytes())
    assert digest.hexdigest() == HERALD_STATE_DIGEST


def test_herald_distribution_digest():
    rng = np.random.default_rng(2202)
    digest = hashlib.sha256()
    for _ in range(12):
        n2, n3 = (int(v) for v in rng.integers(0, 4, size=2))
        alpha = float(rng.uniform(0.0, 4.0))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        herald_max = int(rng.integers(0, 20))
        try:
            dist = herald_distribution(n2, n3, alpha, phi, herald_max)
        except SixportError as exc:   # a box that misses too much probability
            digest.update(type(exc).__name__.encode())
            continue
        digest.update(np.array(list(dist.values())).tobytes())
    assert digest.hexdigest() == HERALD_DISTRIBUTION_DIGEST


def test_verify_stdout_digest():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--samples", "10", "--seed", "0"])
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == VERIFY_DIGEST
