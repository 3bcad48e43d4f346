"""Brute-force Fock-space simulator used as ground truth.

The interferometer maps each input-mode creation operator to a fixed linear
combination of output-mode creation operators.  Heralded output states are
obtained by building the transformed input state directly in a truncated
three-mode number basis through repeated application of those dressed
creation operators, then reading off the amplitudes at the measured ancilla
occupations.  Because creation operators only ever raise occupation numbers,
truncating the ancilla axes at the herald values (and the signal axis at the
cutoff) is exact for the retained amplitudes, not an approximation.
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
# Largest accepted |alpha|.  The closed forms go up to |alpha|^8 (psi16's
# norm), which stays finite here; far beyond it they overflow to inf/NaN.
ALPHA_MAX = 1e6
# Largest oracle box in complex cells: 64 MiB per buffer, of which the
# raising loop holds about five.  The largest box the package asks for
# itself inside the optimisation box, (223, 116, 116) = 3.0M cells, is the
# default herald box at |alpha| = 10, phi = 0, n2 = n3 = 1.  A larger
# cutoff or herald box is refused with WorkTooLarge before anything is
# allocated.
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


def _apply_dressed_creation(vec: np.ndarray, out: np.ndarray, ctabs,
                            reach: int) -> tuple[slice, slice, slice]:
    """Write  sum_k c_k a_k^dagger vec  into ``out``.

    ``ctabs`` holds c_k times the sqrt table of axis k (``_creation_tables``).
    ``vec`` is zero wherever an occupation exceeds ``reach``, its total
    photon number, so the result is zero past reach + 1: only that corner of
    ``out`` is written, and its slices are returned.  Skipped terms are
    products with exact zeros, so every retained amplitude is bit-identical
    to a whole-box update.  Amplitude raised past an axis end is discarded;
    by the raising-only argument this never affects amplitudes retained
    inside the box.
    """
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


def _transformed_output(U: np.ndarray, n2: int, n3: int, alpha: complex,
                        dims: tuple[int, int, int], j_max: int) -> np.ndarray:
    """Output-basis amplitudes of U (|alpha> |n2> |n3>) inside the box ``dims``.

    The coherent drive is expanded as sum_j alpha^j/sqrt(j!) |j>; term j is
    reached by j applications of the dressed port-1 creation operator, so the
    whole expansion is a single accumulation loop.  Two buffers alternate as
    the raised vector, and each step works only on the corner its photon
    number can reach.
    """
    tables = tuple(_sqrt_table(d) for d in dims)
    vec = np.zeros(dims, dtype=complex)
    spare = np.zeros(dims, dtype=complex)
    vec[0, 0, 0] = 1.0
    reach = 0
    for row, n in ((1, n2), (2, n3)):
        ctabs = _creation_tables(U[row, :], tables)
        for _ in range(n):
            _apply_dressed_creation(vec, spare, ctabs, reach)
            vec, spare = spare, vec
            reach += 1
        if n:
            vec /= math.sqrt(math.factorial(n))

    gauss = math.exp(-0.5 * abs(alpha) ** 2)
    out = gauss * vec
    ctabs = _creation_tables(U[0, :], tables)
    # gauss alpha^j / sqrt(j!) as a running product: j! overflows a float
    # past j = 170
    amp = complex(gauss)
    for j in range(1, j_max + 1):
        corner = _apply_dressed_creation(vec, spare, ctabs, reach)
        np.divide(spare[corner], math.sqrt(j), out=vec[corner])
        reach += 1
        amp *= alpha / math.sqrt(j)
        if amp != 0.0:
            out[corner] += amp * vec[corner]
        if abs(amp) < 1e-200:
            break
    return out


def herald_state(spec: HeraldSpec, cutoff: int | None = None) -> tuple[FockVector, float]:
    """Heralded signal-mode state and its success probability.

    Returns the normalized FockVector (global phase fixed so the lowest
    non-negligible amplitude is real positive) together with the
    pre-normalization norm squared, which is the herald probability.
    """
    if cutoff is None:
        cutoff = default_cutoff(spec)
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    _checked_drive(spec.alpha_mag)
    dims = _checked_box(cutoff + 1, spec.m2 + 1, spec.m3 + 1)
    U = compose(spec.phi)
    j_max = cutoff + spec.m2 + spec.m3 - spec.n2 - spec.n3
    if j_max < 0:
        raise HeraldImpossible(
            f"herald ({spec.m2},{spec.m3}) unreachable below cutoff {cutoff}")
    out = _transformed_output(U, spec.n2, spec.n3, spec.alpha, dims, j_max)
    amps = np.array(out[:, spec.m2, spec.m3])

    probability = float(np.sum(np.abs(amps) ** 2))
    if probability < PROB_FLOOR:
        raise HeraldImpossible(
            f"herald ({spec.m2},{spec.m3}) has probability {probability:.3e}")
    if abs(amps[cutoff]) ** 2 / probability >= TAIL_FRACTION:
        raise CutoffInadequate(
            f"cutoff {cutoff} leaves tail fraction "
            f"{abs(amps[cutoff]) ** 2 / probability:.3e}")

    amps /= math.sqrt(probability)
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
    out = _transformed_output(U, n2, n3, spec.alpha, dims, j_max)

    probs = np.sum(np.abs(out) ** 2, axis=0)
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
