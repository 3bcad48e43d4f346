"""Brute-force Fock-space simulator used as ground truth.

The interferometer maps each input-mode creation operator to a fixed linear
combination of output-mode creation operators.  Heralded output states are
obtained by building the transformed input state directly in a truncated
three-mode number basis through repeated application of those dressed
creation operators, then reading off the amplitudes at the measured ancilla
occupations.  Because creation operators only ever raise occupation numbers,
truncating the ancilla axes at the herald values (and the signal axis at the
cutoff) is exact for the retained amplitudes, not an approximation.

Each creation operator adds one photon, so after j raising steps the state
lies on the single plane x0 + x1 + x2 = j + const.  The raising loop carries
that plane alone (``_planes``) and no box is held: ``herald_state`` keeps the
one column it reads and ``herald_distribution`` a plane-sized running sum of
|amplitude|^2; one raise can serve several heralds (``_herald_state``).
Every retained amplitude gets the same terms, in the same order and with the
same rounding, as an update of the whole box would give it.
The loop stays in the plain number basis and uses no displaced-frame identity,
so it remains independent of the closed forms it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CutoffInadequate,
    HeraldImpossible,
    ResidualMassTooLarge,
    WorkTooLarge,
)
from .interferometer import compose

PROB_FLOOR = 1e-30       # below this a herald counts as analytically forbidden
TAIL_FRACTION = 1e-10    # max tolerated |amplitude|^2 fraction at the cutoff
PHASE_EPS = 1e-10        # relative threshold for "lowest nonzero amplitude"
RESIDUAL_TOL = 1e-8      # max probability a herald distribution may miss
# Largest accepted |alpha|.  A closed form's norm goes up to |alpha|^(2(n + m)),
# at most |alpha|^24 under ``states.PHOTONS_MAX``: finite here, inf/NaN far beyond.
ALPHA_MAX = 1e6
# Largest oracle box in cells, a work budget: the oracle holds two (d1, d2)
# planes, not the box, and its raising loop sweeps one plane per photon
# number, so the cells it visits are of the box's order.  The largest box the
# package asks for itself inside the optimisation box, (223, 116, 116) = 3.0M
# cells, is the default herald box at |alpha| = 10, phi = 0, n2 = n3 = 1.  A
# larger cutoff or herald box is refused with WorkTooLarge before any work.
BOX_CELLS_MAX = 2 ** 22
# Largest |alpha| the oracle accepts.  The raising loop stops once the drive's
# running amplitude exp(-|alpha|^2/2) |alpha|^j / sqrt(j!) falls below 1e-200;
# past |alpha| = 30.4609 its first value, exp(-|alpha|^2/2) |alpha|, already
# does, so the loop would end long before the Poisson bulk at j ~ |alpha|^2
# and report a zero state.  A larger |alpha| is refused with WorkTooLarge
# before anything is allocated.
DRIVE_ALPHA_MAX = 30.46


@dataclass(frozen=True)
class HeraldSpec:
    """One heralding experiment: inputs, measured ancilla counts, knobs.

    Ports: coherent drive alpha = alpha_mag * e^{i theta} into port 1, Fock
    states n2, n3 into the ancilla ports; m2, m3 are the photon numbers
    measured on the ancilla outputs; phi is the internal shift phase.
    """
    n2: int
    n3: int
    m2: int
    m3: int
    alpha_mag: float
    phi: float
    theta: float = 0.0

    def __post_init__(self):
        for name in ("n2", "n3", "m2", "m3"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
        if not self.alpha_mag >= 0:
            raise ValueError(f"alpha_mag must be >= 0, got {self.alpha_mag!r}")
        for name in ("alpha_mag", "phi", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.alpha_mag > ALPHA_MAX:
            raise ValueError(
                f"alpha_mag must be <= ALPHA_MAX = {ALPHA_MAX:g}, got {self.alpha_mag!r}")

    @property
    def alpha(self) -> complex:
        return self.alpha_mag * np.exp(1j * self.theta)


@dataclass
class FockVector:
    """Single-mode state as amplitudes over |0..cutoff>."""
    amplitudes: np.ndarray
    cutoff: int
    norm_sq: float

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "FockVector":
        amps = np.asarray(amplitudes, dtype=complex)
        return cls(amps, len(amps) - 1, float(np.sum(np.abs(amps) ** 2)))


def default_cutoff(spec: HeraldSpec) -> int:
    """Signal-mode truncation: Poisson bulk of the transmitted coherent seed
    plus a wide safety band, plus the added ancilla photons; at least 20.

    There is no upper clamp: ``BOX_CELLS_MAX`` bounds the box it sizes.
    """
    u11 = (np.exp(-1j * spec.phi) + 2.0) / 3.0
    s = abs(u11) * spec.alpha_mag
    c = math.ceil(s * s + 10.0 * s + 20.0) + spec.n2 + spec.n3
    return int(max(c, 20))


def default_herald_max(alpha_mag: float) -> int:
    """Default herald box edge of ``dist`` and ``verify``: 15 + int(|alpha|^2)."""
    return 15 + int(alpha_mag ** 2)


def _checked_box(*dims: int) -> tuple[int, ...]:
    """``dims``, unless the box holds more than BOX_CELLS_MAX cells."""
    cells = math.prod(dims)
    if cells > BOX_CELLS_MAX:
        raise WorkTooLarge(
            f"oracle box {dims} has {cells} cells, over BOX_CELLS_MAX = {BOX_CELLS_MAX}")
    return dims


def _checked_drive(alpha_mag: float) -> None:
    """Refuse a drive past DRIVE_ALPHA_MAX, where the raising loop stops at once."""
    if alpha_mag > DRIVE_ALPHA_MAX:
        raise WorkTooLarge(
            f"oracle drive |alpha| = {alpha_mag:g} is over DRIVE_ALPHA_MAX = {DRIVE_ALPHA_MAX}")


def _sqrt_table(n: int) -> np.ndarray:
    return np.sqrt(np.arange(n, dtype=float))


def _creation_tables(coeffs, tables):
    """coeffs[k] * sqrt-table of axis k, or None where coeffs[k] is zero."""
    return tuple(c * t if c != 0 else None for c, t in zip(coeffs, tables))


def _plane_tables(coeffs, tables, planes: int):
    """``sum_k c_k a_k^dagger`` as the tables ``_raise_plane`` reads.

    Returns (g0, c1, c2).  ``g0[M]`` is the (x1, x2) plane of the axis-0
    table at x0 = M - x1 - x2: a read-only strided view of one padded line,
    zero where x0 is 0 or past the axis end, for M < ``planes``.  ``c1`` and
    ``c2`` are the axis-1 column and axis-2 row from index 1.  None marks a
    zero coefficient or an axis of length 1.
    """
    c0, c1, c2 = _creation_tables(coeffs, tables)
    d0, d1, d2 = (len(t) for t in tables)
    g0 = None
    if c0 is not None:
        lead = d1 + d2 - 2
        line = np.zeros(lead + max(planes, d0), dtype=complex)
        line[lead + 1:lead + d0] = c0[1:]
        step = line.itemsize
        g0 = np.ndarray((planes, d1, d2), complex, buffer=line, offset=lead * step,
                        strides=(step, -step, -step))
        g0.flags.writeable = False
    return (g0,
            c1[1:, None] if c1 is not None and d1 > 1 else None,
            c2[None, 1:] if c2 is not None and d2 > 1 else None)


def _raise_plane(vec: np.ndarray, out: np.ndarray, ptabs, plane: int) -> None:
    """Write  sum_k c_k a_k^dagger vec  into ``out``, both (x1, x2) planes.

    ``vec`` holds the amplitudes at x0 = plane - 1 - x1 - x2 and ``out``
    receives those at x0 = plane - x1 - x2; cells whose x0 lies outside the
    box hold +0.  Each cell of ``out`` starts at +0 and gets its axis-0,
    axis-1 and axis-2 terms added in that order, each product written as
    table times vector.
    """
    g0, c1, c2 = ptabs
    if g0 is None:
        out.fill(0.0)
    else:
        np.multiply(g0[plane], vec, out=out)
        out += 0.0           # a sum started at +0: turns a -0 product into +0
    if c1 is not None:
        shifted = out[1:]
        shifted += c1 * vec[:-1]
    if c2 is not None:
        shifted = out[:, 1:]
        shifted += c2 * vec[:, :-1]


def _planes(U: np.ndarray, n2: int, n3: int, alpha: complex,
            dims: tuple[int, int, int], j_max: int):
    """Yield (plane, amp, vec) for each term of U (|alpha> |n2> |n3>) in the box ``dims``.

    The drive sum_j alpha^j/sqrt(j!) |j> is reached by j raisings with the
    dressed port-1 creation operator, each adding one photon, so term j lies
    on the plane x0 + x1 + x2 = n2 + n3 + j.  ``vec`` is that plane as a
    (d1, d2) array with x0 implied, overwritten by the next step; the term's
    amplitudes are ``amp * vec``, and +-0 where x0 lies outside the box.  The
    first yield is the ancilla plane with amp = exp(-|alpha|^2/2), then each
    nonzero drive term in plane order, with ``vec`` None past the box's far
    corner.  Each cell gets the terms a whole-box update gives it, in the
    same order (axis 0, 1, 2) from +0 and with the same rounding.
    """
    d0, d1, d2 = dims
    top = d0 + d1 + d2 - 3        # the last plane with a cell in the box
    planes = max(top, n2 + n3) + 1
    tables = tuple(_sqrt_table(d) for d in dims)
    vec = np.zeros((d1, d2), dtype=complex)
    spare = np.zeros((d1, d2), dtype=complex)
    vec[0, 0] = 1.0
    plane = 0
    for row, n in ((1, n2), (2, n3)):
        ptabs = _plane_tables(U[row, :], tables, planes)
        for _ in range(n):
            plane += 1
            _raise_plane(vec, spare, ptabs, plane)
            vec, spare = spare, vec
        if n:
            vec /= math.sqrt(math.factorial(n))

    gauss = math.exp(-0.5 * abs(alpha) ** 2)
    yield plane, gauss, vec
    ptabs = _plane_tables(U[0, :], tables, planes)
    # gauss alpha^j / sqrt(j!) as a running product: j! overflows a float
    # past j = 170
    amp = complex(gauss)
    for j in range(1, j_max + 1):
        plane += 1
        if plane <= top:
            _raise_plane(vec, spare, ptabs, plane)
            np.divide(spare, math.sqrt(j), out=vec)
        amp *= alpha / math.sqrt(j)
        if amp != 0.0:
            yield plane, amp, (vec if plane <= top else None)
        if abs(amp) < 1e-200:
            break


def _columns(planes, cells, d0: int) -> list[np.ndarray]:
    """Amplitudes at (x0, x1, x2), x0 = 0..d0-1, from the yields of ``_planes``.

    One column per cell (x1, x2, last), from the terms up to plane ``last``:
    its own raise's column.  A cell is +0 + amp * vec of its plane; the first
    plane's is amp * vec itself, -0 where that underflows, plus amp * (+0) for
    each later term, as a whole-box update adds them.  Each product is taken
    on the plane array and then indexed, so it rounds as the array loop does.
    """
    columns = [np.zeros(d0, dtype=complex) for _ in cells]
    zero = np.zeros(1, dtype=complex)
    first, amp, vec = next(planes)
    for column, (x1, x2, _) in zip(columns, cells):
        if 0 <= first - x1 - x2 < d0:
            column[first - x1 - x2] = (amp * vec)[x1, x2]
    for plane, amp, vec in planes:
        settle = (amp * zero)[0]
        terms = None if vec is None else amp * vec
        for column, (x1, x2, last) in zip(columns, cells):
            if plane <= last and 0 <= plane - x1 - x2 < d0:
                column[plane - x1 - x2] += terms[x1, x2]
            if plane <= last and 0 <= first - x1 - x2 < d0:
                column[first - x1 - x2] += settle
    return columns


def _plane_sum(planes, dims: tuple[int, int, int]) -> np.ndarray:
    """sum over x0 of |amplitude|^2 at each (x1, x2), added as np.sum(axis=0) adds the box."""
    d0, d1, d2 = dims
    if d1 * d2 == 1:
        # numpy sums a (d0, 1, 1) box pairwise, not in x0 order; so sum its one column
        return np.sum(np.abs(_columns(planes, [(0, 0, math.inf)], d0)[0]) ** 2).reshape(1, 1)
    probs = np.zeros((d1, d2))
    for _, amp, vec in planes:
        if vec is not None:
            probs += np.abs(amp * vec) ** 2
    return probs


def herald_state(spec: HeraldSpec, cutoff: int | None = None) -> tuple[FockVector, float]:
    """Heralded signal-mode state and its success probability.

    Returns the normalized FockVector (global phase fixed so the lowest
    non-negligible amplitude is real positive) together with the
    pre-normalization norm squared, which is the herald probability.
    """
    if cutoff is None:
        cutoff = default_cutoff(spec)
    return _herald_state(spec, cutoff, [(spec.m2, spec.m3)], {})


def _herald_state(spec: HeraldSpec, cutoff: int, cells, raised: dict) -> tuple[FockVector, float]:
    """``herald_state(spec, cutoff)`` from one raise for all heralds (m2, m3) in
    ``cells``, kept in ``raised`` per drive, (n2, n3) and cutoff.  Each column
    ends at its own j_max, and each read raises its own herald's errors."""
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    _checked_drive(spec.alpha_mag)
    _checked_box(cutoff + 1, spec.m2 + 1, spec.m3 + 1)
    if cutoff + spec.m2 + spec.m3 - spec.n2 - spec.n3 < 0:
        raise HeraldImpossible(
            f"herald ({spec.m2},{spec.m3}) unreachable below cutoff {cutoff}")
    key = (spec.n2, spec.n3, spec.alpha_mag, spec.phi, spec.theta, cutoff)
    if key not in raised:
        dims = (cutoff + 1, 1 + max(m2 for m2, _ in cells), 1 + max(m3 for _, m3 in cells))
        planes = _planes(compose(spec.phi), spec.n2, spec.n3, spec.alpha, dims,
                         cutoff + max(map(sum, cells)) - spec.n2 - spec.n3)
        ends = [(m2, m3, cutoff + m2 + m3) for m2, m3 in cells]
        raised[key] = dict(zip(cells, _columns(planes, ends, dims[0])))
    amps = raised[key][spec.m2, spec.m3]
    probability = float(np.sum(np.abs(amps) ** 2))
    if probability < PROB_FLOOR:
        raise HeraldImpossible(
            f"herald ({spec.m2},{spec.m3}) has probability {probability:.3e}")
    if abs(amps[cutoff]) ** 2 / probability >= TAIL_FRACTION:
        raise CutoffInadequate(
            f"cutoff {cutoff} leaves tail fraction "
            f"{abs(amps[cutoff]) ** 2 / probability:.3e}")
    amps = amps / math.sqrt(probability)
    return fix_global_phase(FockVector.from_amplitudes(amps)), probability


def fix_global_phase(state: FockVector) -> FockVector:
    """Rotate so the lowest non-negligible amplitude is real positive."""
    mags = np.abs(state.amplitudes)
    scale = math.sqrt(state.norm_sq) if state.norm_sq > 0 else 1.0
    nz = np.nonzero(mags > PHASE_EPS * scale)[0]
    if len(nz) == 0:
        return state
    ref = state.amplitudes[nz[0]]
    rotated = state.amplitudes * (ref.conjugate() / abs(ref))
    return FockVector(rotated, state.cutoff, state.norm_sq)


def expectation(state: FockVector, k: int, l: int) -> complex:
    """<a^dagger^k a^l> on the (normalized) single-mode state."""
    amps = state.amplitudes
    total = 0.0 + 0.0j
    for n in range(l, state.cutoff + 1):
        m = n - l + k
        if m > state.cutoff:
            continue
        w = 1.0
        for i in range(n - l + 1, n + 1):     # n!/(n-l)!
            w *= i
        for i in range(n - l + 1, m + 1):     # m!/(n-l)!
            w *= i
        total += amps[m].conjugate() * amps[n] * math.sqrt(w)
    if state.norm_sq <= 0:
        raise ValueError("expectation of a zero vector")
    return complex(total / state.norm_sq)


def herald_distribution(n2: int, n3: int, alpha_mag: float, phi: float,
                        herald_max: int,
                        cutoff: int | None = None) -> dict[tuple[int, int], float]:
    """Probabilities of every herald outcome (m2, m3) in [0, herald_max]^2.

    The probabilities are summed in fixed (m2, m3) index order; if the box
    plus the signal cutoff misses more than ``RESIDUAL_TOL`` of the total
    probability, ResidualMassTooLarge is raised.
    """
    spec = HeraldSpec(n2, n3, 0, 0, alpha_mag, phi)
    if cutoff is None:
        cutoff = default_cutoff(spec)
    _checked_drive(alpha_mag)
    dims = _checked_box(cutoff + 1, herald_max + 1, herald_max + 1)
    U = compose(phi)
    # Poisson bulk of the drive, capped at the largest j that can still land
    # inside the box.
    j_tail = math.ceil(alpha_mag ** 2 + 12.0 * alpha_mag + 30.0)
    j_box = cutoff + 2 * herald_max - n2 - n3
    j_max = max(0, min(j_tail, j_box))
    probs = _plane_sum(_planes(U, n2, n3, spec.alpha, dims, j_max), dims)
    dist: dict[tuple[int, int], float] = {}
    total = 0.0
    for m2 in range(herald_max + 1):
        for m3 in range(herald_max + 1):
            p = float(probs[m2, m3])
            dist[(m2, m3)] = p
            total += p
    if abs(1.0 - total) > RESIDUAL_TOL:
        raise ResidualMassTooLarge(
            f"herald box misses {1.0 - total:.3e} of the probability")
    return dist
