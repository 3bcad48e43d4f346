"""Parameter-space landscapes and squeezing optimization.

Grids over (|alpha|, phi) are evaluated through the same closed forms as the
single-point path, vectorized with numpy.  Heralds that are analytically
forbidden at a grid point (zero norm) get probability 0 and a NaN sentinel in
variance grids; every consumer here treats NaN as "no state".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AxisNotSymmetric, QuantityMismatch
from .interferometer import derived_coeffs
from .moments import NORM_FLOOR, squeeze_db
from .oracle import ALPHA_MAX
from .states import PATTERNS, normalization, pattern_for_label, row_coefficients

QUANTITIES = ("probability", "var_x", "var_p")

ALPHA_BOX = (0.0, 10.0)          # optimization constraint box
PHI_BOX = (0.0, 2.0 * math.pi)

# grid zoom: best coarse cells kept, points per box axis, half-width shrink
# per level, and the half-width at which the zoom stops
_ZOOM_INCUMBENTS = 4
_ZOOM_POINTS = 17
_ZOOM_SHRINK = 4.0
_ZOOM_XATOL = 1e-10

# grid cells per block of the moment sums: 128 KiB per complex array keeps a
# block's dozen operands inside a 2 MiB L2 cache (fastest of 1024..16384 on a
# 2 MiB-L2 Xeon)
_BLOCK = 8192


@dataclass(frozen=True)
class ScanGrid:
    """Sampled landscape of one quantity over (|alpha|, phi)."""
    alpha_axis: np.ndarray
    phi_axis: np.ndarray
    values: np.ndarray          # shape (len(alpha_axis), len(phi_axis))
    quantity: str

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise QuantityMismatch(f"unknown quantity {self.quantity!r}")
        if np.any(np.diff(self.alpha_axis) <= 0) or np.any(np.diff(self.phi_axis) <= 0):
            raise ValueError("axes must be strictly increasing")
        if self.values.shape != (len(self.alpha_axis), len(self.phi_axis)):
            raise ValueError("values shape does not match axes")

    def to_csv(self) -> str:
        """``alpha,phi,value`` rows, row-major, floats at 17 significant digits.

        NaN sentinels print as ``nan``.  Each axis value is formatted once and
        each alpha row is rendered by a single ``%`` over its values.
        """
        cells = ["," + "%.17g" % p + ",%.17g" for p in self.phi_axis.tolist()]
        lines = ["alpha,phi,value"]
        for a, row in zip(self.alpha_axis.tolist(), self.values.tolist()):
            head = "%.17g" % a
            lines.append("\n".join([head + cell for cell in cells]) % tuple(row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OptResult:
    """Located variance minimum inside the constraint box."""
    alpha_opt: float
    phi_opt: float
    var_min: float
    squeeze_db: float
    probability_at_opt: float
    evaluations: int


def _family_index(family) -> int:
    if isinstance(family, str):
        return PATTERNS[pattern_for_label(family)]
    index = int(family)
    if index not in range(1, 17):
        raise ValueError(f"family index {index} outside 1..16")
    return index


def _binom(n: int, k: int) -> float:
    return float(math.comb(n, k))


@functools.lru_cache(maxsize=None)
def _antinormal_terms(hr: int, k: int, l: int, hl: int):
    """(cr, p, q) with <beta| a^hr a^dagger^k a^l a^dagger^hl |beta> the sum
    of cr conj(beta)**p beta**q over the terms, in summation order."""
    terms = []
    for i in range(min(hr, k) + 1):
        ci = math.factorial(i) * _binom(hr, i) * _binom(k, i)
        for j in range(min(l, hl) + 1):
            cj = ci * math.factorial(j) * _binom(l, j) * _binom(hl, j)
            for r in range(min(hr - i, hl - j) + 1):
                cr = cj * math.factorial(r) * _binom(hr - i, r) * _binom(hl - j, r)
                terms.append((cr, (k - i) + (hl - j - r), (hr - i - r) + (l - j)))
    return tuple(terms)


def _antinormal(hr: int, k: int, l: int, hl: int, b_pow, bc_pow, out, scratch):
    """<beta| a^hr a^dagger^k a^l a^dagger^hl |beta> from power tables.

    ``b_pow[q]`` and ``bc_pow[p]`` hold beta**q and conj(beta)**p on the grid.
    The sum accumulates into ``out``; ``scratch`` holds two more buffers of
    its shape.  Each term is ``(cr * bc_pow[p]) * b_pow[q]`` with the operands
    in that order, and no product is written over its own operand: numpy's
    complex multiply fuses multiply-adds on CPUs that have them, so swapped
    operands can move the last bit, and so can a one-cell product written in
    place, which numpy runs through its unfused loop.
    """
    t1, t2 = scratch
    for n, (cr, p, q) in enumerate(_antinormal_terms(hr, k, l, hl)):
        np.multiply(cr, bc_pow[p], out=t1)
        np.multiply(t1, b_pow[q], out=t2)
        # the first term lands as 0.0 + term, as in a sum started at zero
        np.add(out if n else 0.0, t2, out=out)
    return out


def _mirrored_axis(lo: float, hi: float, n: int) -> np.ndarray:
    """linspace(lo, hi, n) with the mirror pairing about the midpoint exact."""
    ax = np.linspace(lo, hi, n)
    total = lo + hi
    for i in range(n // 2):
        ax[n - 1 - i] = total - ax[i]
    return ax


def _phase_factors(phi_axis: np.ndarray, mirror: bool) -> np.ndarray:
    """e^{-i phi} along the axis.

    For a full-circle axis the upper half is assigned the exact conjugates of
    the lower half, so conjugation symmetry (and with it the phi -> 2 pi - phi
    symmetry of every derived grid) holds bit-exactly rather than to rounding.
    """
    phi = np.asarray(phi_axis, dtype=float)
    n = len(phi)
    two_pi = 2.0 * math.pi
    full_circle = (n >= 2 and abs(phi[0] + phi[-1] - two_pi) < 1e-9
                   and np.max(np.abs(phi + phi[::-1] - two_pi)) < 1e-9)
    if not (mirror and full_circle):
        return np.exp(-1j * phi)
    e = np.empty(n, dtype=complex)
    half = (n + 1) // 2
    e[:half] = np.exp(-1j * phi[:half])
    for i in range(n // 2):
        e[n - 1 - i] = e[i].conjugate()
    return e


def _fields(index: int, alpha_axis: np.ndarray, phi_axis: np.ndarray,
            phase: np.ndarray | None = None, quantities=QUANTITIES):
    """Grids of the named ``quantities`` over (|alpha|, phi), in that order.

    Only the quantities asked for are computed: probability alone skips the
    moment sums, variances skip the probability exponential, and var_x alone
    skips var_p.  Each value is bit-identical whatever else is asked for.

    Two 1-D axes give the outer-product grid of shape (len(alpha), len(phi)).
    Otherwise the two arrays broadcast against each other as they are, so
    alpha of shape (K, m, 1) with phi of shape (K, 1, m) evaluates K grids in
    one call.  ``phase`` holds e^{-i phi} in the shape of ``phi``.
    """
    alpha = np.asarray(alpha_axis, dtype=float)
    phi = np.asarray(phi_axis, dtype=float)
    if alpha.ndim == 1 and phi.ndim == 1:
        alpha = alpha.reshape(-1, 1)
        phi = phi.reshape(1, -1)
    shape = np.broadcast_shapes(alpha.shape, phi.shape)

    e = (np.exp(-1j * phi) if phase is None
         else np.asarray(phase, dtype=complex).reshape(phi.shape))
    diag = (e + 2.0) / 3.0
    off = (e - 1.0) / 3.0
    U = np.empty((3, 3) + e.shape, dtype=complex)
    for i in range(3):
        for j in range(3):
            U[i, j] = diag if i == j else off
    D = derived_coeffs(U)

    cs = row_coefficients(index, U, D, alpha.astype(complex))
    seed = diag * alpha
    norm = normalization(*cs, seed) + np.zeros(shape)
    fields = {}
    if "probability" in quantities:
        fields["probability"] = norm * np.exp((np.abs(diag) ** 2 - 1.0) * alpha ** 2)
    variances = [q for q in ("var_x", "var_p") if q in quantities]
    if variances:
        fields.update(_variances(cs, seed, norm, variances))
    return tuple(fields[q] for q in quantities)


def _variances(cs, seed, norm, names) -> dict:
    """var_x and/or var_p (as ``names`` asks) of the row ``cs`` over the grid.

    The moment sums run over the flattened grid in blocks of ``_BLOCK``
    cells, so that each block's operands stay in cache, and accumulate in
    place.  Every cell's arithmetic is the same whatever the block size.
    """
    shape = norm.shape
    forbidden = norm < NORM_FLOOR
    live = [(h, c) for h, c in enumerate(cs) if np.any(c != 0)]
    deg = max((h for h, _ in live), default=0)
    if deg == 0:
        # purely coherent row: both quadrature variances are exactly vacuum
        out = {name: np.full(shape, 0.5) for name in names}
        for v in out.values():
            v[forbidden] = np.nan
        return out

    # cumulative products keep the power tables conjugation-exact; sums
    # reach beta**(deg + 2) and conj(beta)**(deg + 1).  The zeroth powers are
    # one broadcast element: every product with 1 + 0j is exact, so no loop
    # numpy picks for them can move a bit.
    size = norm.size
    seed = seed.reshape(-1)
    b_pow = [np.ones(1, dtype=complex)]
    for _ in range(deg + 2):
        b_pow.append(b_pow[-1] * seed)
    bc_pow = [np.conjugate(p) for p in b_pow[:deg + 2]]
    block = min(size, _BLOCK)
    t1, t2, anti = (np.empty(block, dtype=complex) for _ in range(3))
    # <a>, <a^dagger a>, <a^2> unnormalized, each summed over the (hl, hr)
    # pairs in the same order
    sums = {kl: np.zeros(size, dtype=complex) for kl in ((0, 1), (1, 1), (0, 2))}
    for hl, c_l in live:
        for hr, c_r in live:
            # kept as one full-grid expression: from 256 KiB on numpy computes
            # it in the conjugate's buffer with the operands swapped, which
            # moves last bits under fused multiply-adds; the grids keep
            # whichever order numpy picks
            weight = np.broadcast_to(c_l * np.conjugate(c_r), shape).reshape(-1)
            for start in range(0, size, block):
                cut = slice(start, start + block)
                n = min(block, size - start)
                b_cut = b_pow[:1] + [b[cut] for b in b_pow[1:]]
                bc_cut = bc_pow[:1] + [b[cut] for b in bc_pow[1:]]
                for (k, l), total in sums.items():
                    _antinormal(hr, k, l, hl, b_cut, bc_cut, anti[:n], (t1[:n], t2[:n]))
                    np.multiply(weight[cut], anti[:n], out=t1[:n])
                    total[cut] += t1[:n]

    out = {}
    with np.errstate(invalid="ignore", divide="ignore"):
        safe_norm = np.where(forbidden, 1.0, norm)
        first = sums[0, 1].reshape(shape)
        first /= safe_norm
        n_bar = np.real(sums[1, 1].reshape(shape)) / safe_norm
        a_sq = sums[0, 2].reshape(shape)
        a_sq /= safe_norm
        if "var_x" in names:
            out["var_x"] = 0.5 + n_bar + np.real(a_sq) - 2.0 * np.real(first) ** 2
        if "var_p" in names:
            out["var_p"] = 0.5 + n_bar - np.real(a_sq) - 2.0 * np.imag(first) ** 2
    for v in out.values():
        v[forbidden] = np.nan
    return out


def evaluate_point(family, alpha_mag: float, phi: float):
    """(probability, var_x, var_p) at a single parameter point."""
    index = _family_index(family)
    prob, var_x, var_p = _fields(index, np.array([alpha_mag]), np.array([phi]))
    return float(prob[0, 0]), float(var_x[0, 0]), float(var_p[0, 0])


def scan(family, quantity: str, alpha_range=ALPHA_BOX, phi_range=PHI_BOX,
         resolution: int | tuple[int, int] = 200) -> ScanGrid:
    """Dense landscape of one quantity for one family.

    Only the requested quantity is computed.  Both ranges must be finite and
    |alpha| must lie in [0, ALPHA_MAX] (``ValueError`` otherwise).
    """
    if quantity not in QUANTITIES:
        raise QuantityMismatch(f"unknown quantity {quantity!r}")
    if not all(math.isfinite(v) for v in (*alpha_range, *phi_range)):
        raise ValueError("scan ranges must be finite")
    if alpha_range[0] < 0:
        raise ValueError("alpha range must start at |alpha| >= 0")
    if max(alpha_range) > ALPHA_MAX:
        raise ValueError(f"alpha range must end at |alpha| <= ALPHA_MAX = {ALPHA_MAX:g}")
    index = _family_index(family)
    if isinstance(resolution, int):
        res_a = res_p = resolution
    else:
        res_a, res_p = resolution
    if res_a < 2 or res_p < 2:
        raise ValueError("resolution must be at least 2 per axis")
    alpha_axis = np.linspace(alpha_range[0], alpha_range[1], res_a)
    phi_axis = _mirrored_axis(phi_range[0], phi_range[1], res_p)
    phase = _phase_factors(phi_axis, mirror=True)
    (values,) = _fields(index, alpha_axis, phi_axis, phase, (quantity,))
    return ScanGrid(alpha_axis, phi_axis, values, quantity)


def feasibility_mask(grid: ScanGrid) -> np.ndarray:
    """True where the x-quadrature variance is strictly below vacuum (0.5)."""
    if grid.quantity != "var_x":
        raise QuantityMismatch(f"need a var_x grid, got {grid.quantity!r}")
    with np.errstate(invalid="ignore"):
        return grid.values < 0.5


def minimize_variance(family, coarse_resolution: int = 400) -> OptResult:
    """Minimum x-quadrature variance over the constraint box.

    Coarse mirror-half grid plus a deterministic 4-incumbent grid zoom.  The
    coarse stage evaluates the phi <= pi half of the ``scan`` grid with
    ``coarse_resolution`` points per axis; the other half mirrors it
    bit-exactly.  Its four best cells (ties broken toward smaller |alpha|,
    then smaller phi) are the incumbents of the zoom, which shrinks 17x17
    boxes around them 4x per level (``_nm_minimize``).  Both stages compute
    var_x alone, and the returned point its probability alone.
    ``evaluations`` counts the points both stages evaluated.
    """
    index = _family_index(family)
    if index <= 4:
        # coherent family: variance is 0.5 identically
        (prob,) = _fields(index, np.array([0.0]), np.array([0.0]),
                          quantities=("probability",))
        return OptResult(0.0, 0.0, 0.5, 0.0, float(prob[0, 0]), 0)
    if coarse_resolution < 2:
        raise ValueError("coarse_resolution must be at least 2")

    n = coarse_resolution
    alpha_axis = np.linspace(*ALPHA_BOX, n)
    phi_axis = _mirrored_axis(*PHI_BOX, n)
    half = (n + 1) // 2
    phase = _phase_factors(phi_axis, mirror=True)
    (var_x,) = _fields(index, alpha_axis, phi_axis[:half], phase[:half], ("var_x",))
    filled = np.where(np.isnan(var_x), np.inf, var_x)
    # stable row-major order: alpha ties first, then phi
    order = np.argsort(filled, axis=None, kind="stable")[:_ZOOM_INCUMBENTS]
    ia, ip = np.unravel_index(order, filled.shape)
    cell = ((ALPHA_BOX[1] - ALPHA_BOX[0]) / (n - 1),
            (PHI_BOX[1] - PHI_BOX[0]) / (n - 1))
    a_opt, p_opt, best, zoomed = _nm_minimize(
        index, alpha_axis[ia], phi_axis[ip], filled.reshape(-1)[order], cell)
    (prob,) = _fields(index, np.array([a_opt]), np.array([p_opt]),
                      quantities=("probability",))
    return OptResult(
        alpha_opt=a_opt,
        phi_opt=p_opt,
        var_min=best,
        squeeze_db=squeeze_db(best),
        probability_at_opt=float(prob[0, 0]),
        evaluations=var_x.size + zoomed,
    )


# the benchmark's tracer looks the refinement up by this name (scan.refine_s)
def _nm_minimize(index: int, alpha, phi, values, cell):
    """Grid zoom around incumbents (alpha[k], phi[k]) with var_x ``values``.

    Each level lays a 17x17 box of half-width ``cell`` (per axis) around every
    incumbent, clipped to the constraint box, and evaluates all boxes in one
    ``_fields`` call.  An incumbent moves to its box minimum when that is no
    worse (NaN counts as +inf); the half-width then shrinks 4x, until it is at
    most 1e-10.  Returns (alpha, phi, var_x) of the best incumbent, first
    wins ties, and the number of points evaluated.
    """
    alpha = np.array(alpha, dtype=float)
    phi = np.array(phi, dtype=float)
    values = np.array(values, dtype=float)
    k = np.arange(len(values))
    steps = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    h_alpha, h_phi = cell
    evaluations = 0
    while max(h_alpha, h_phi) > _ZOOM_XATOL:
        box_a = np.clip(alpha[:, None] + h_alpha * steps, *ALPHA_BOX)
        box_p = np.clip(phi[:, None] + h_phi * steps, *PHI_BOX)
        (var_x,) = _fields(index, box_a[:, :, None], box_p[:, None, :],
                           quantities=("var_x",))
        evaluations += var_x.size
        filled = np.where(np.isnan(var_x), np.inf, var_x).reshape(len(k), -1)
        j = np.argmin(filled, axis=1)
        found = filled[k, j]
        moved = found <= values
        ja, jp = np.unravel_index(j, var_x.shape[1:])
        alpha = np.where(moved, box_a[k, ja], alpha)
        phi = np.where(moved, box_p[k, jp], phi)
        values = np.where(moved, found, values)
        h_alpha /= _ZOOM_SHRINK
        h_phi /= _ZOOM_SHRINK
    best = int(np.argmin(values))
    return float(alpha[best]), float(phi[best]), float(values[best]), evaluations


def symmetry_report(grid: ScanGrid, axis_tol: float = 1e-9) -> float:
    """Largest |value(phi) - value(2 pi - phi)| over the grid.

    Requires the phi axis to span [0, 2 pi] and mirror onto itself about pi.
    NaN sentinels must mirror onto NaN sentinels; a one-sided NaN counts as
    infinite asymmetry.
    """
    phi = grid.phi_axis
    two_pi = 2.0 * math.pi
    if abs(phi[0]) > axis_tol or abs(phi[-1] - two_pi) > axis_tol:
        raise AxisNotSymmetric("phi axis must span [0, 2 pi]")
    if np.max(np.abs(phi + phi[::-1] - two_pi)) > axis_tol:
        raise AxisNotSymmetric("phi axis points must mirror about pi")
    v = grid.values
    w = v[:, ::-1]
    nan_v = np.isnan(v)
    nan_w = np.isnan(w)
    if np.any(nan_v != nan_w):
        return float("inf")
    diff = np.abs(v - w)
    diff[nan_v] = 0.0
    return float(np.max(diff)) if diff.size else 0.0
