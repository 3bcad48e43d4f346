"""The four benchmark workloads: inputs, the timed op, and its check.

Each workload hands out passes of ops.  An op's ``run`` is the timed unit;
its ``check`` runs outside the timed region and returns None when the output
is right, or a message saying what is wrong.  An op that raises (or, for the
CLI, exits non-zero) is a failed op.  Every failed or wrong op makes the run
incorrect, except a failure the op names as known (``known_exit``): the one
README call that exits non-zero at this commit still counts as failed, but
does not fail the run.

Why these four (each stresses layers the others skip):

* optimize   -- ``minimize_variance`` on all 16 families: the scan grid
  kernel and the Nelder-Mead refinement; no series, oracle or moments.
* landscape  -- ``scan`` at 200x200 for 16 families x 3 quantities: the grid
  kernel alone, so a kernel change and an optimiser change separate.
* crosscheck -- one seeded point through every route (``run_verification``
  plus series-vs-oracle probabilities beyond the table): series, moments,
  oracle and states at high order; never scan.
* cli        -- the README command block, one cold process per call: the
  only workload that pays import cost in every op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from sixport import (  # noqa: E402
    HeraldImpossible,
    HeraldSpec,
    compose,
    expectation_quadratures,
    feasibility_mask,
    general_heralded,
    herald_distribution,
    herald_state,
    minimize_variance,
    moment,
    quadratures,
    run_verification,
    scan,
    symmetry_report,
    table1_coeffs,
)
from sixport.states import LABELS  # noqa: E402

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

TOL_ROUTE = 1e-9        # between independent routes and against references
TOL_GRID = 1e-12        # symmetry and family pairing on a grid
TWO_PI = 6.283185307179586


class OpFailed(Exception):
    """The op ran to an error result (a non-zero CLI exit)."""

    def __init__(self, code: int, detail: str):
        super().__init__(f"exit {code}: {detail}")
        self.code = code


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_exit: int | None = None   # a CLI exit code that is a known defect

    def failure_known(self, error: Exception) -> bool:
        return isinstance(error, OpFailed) and error.code == self.known_exit


def _far(a, b, tol) -> bool:
    return not abs(a - b) <= tol


# -- optimize ------------------------------------------------------------------

class Optimize:
    """Fixed inputs: the 16 families at the default coarse resolution 400."""

    name = "optimize"
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed

    def _op(self, family: int) -> Op:
        return Op(f"psi{family}", lambda: minimize_variance(family),
                  lambda r: self._check(family, r))

    def pass_ops(self, index: int) -> list[Op]:
        return [self._op(f) for f in range(1, 17)]

    def warmup_op(self) -> Op:
        return self._op(16)

    def trace_ops(self, index: int) -> list[Op]:
        return self.pass_ops(index)

    @staticmethod
    def _check(family: int, r) -> str | None:
        ref = REFERENCE["optimize"][f"psi{family}"]["var_min"]
        if not r.var_min <= ref + TOL_ROUTE:
            return f"var_min {r.var_min!r} above reference {ref!r}"
        if family <= 4:
            return None if r.var_min == 0.5 else f"coherent family gave {r.var_min!r}"
        spec = HeraldSpec(*LABELS[family], alpha_mag=r.alpha_opt, phi=r.phi_opt)
        var_x, _ = expectation_quadratures(herald_state(spec)[0])
        if _far(var_x, r.var_min, TOL_ROUTE):
            return f"oracle var_x {var_x!r} != var_min {r.var_min!r}"
        return None


# -- landscape -----------------------------------------------------------------

QUANTITIES = ("probability", "var_x", "var_p")
#: port-2/3 swap partners: second family -> first; ops are ordered so the
#: first family's grid is the previous op's
PARTNER = {3: 2, 6: 5, 9: 8, 11: 10, 13: 12, 15: 14}


class Landscape:
    """Fixed grids; the seed picks the cells checked against the closed form."""

    name = "landscape"
    in_process = True
    resolution = 200

    def __init__(self, seed: int):
        self.seed = seed
        self._previous = None
        self._digests: dict[str, str] = {}

    def _op(self, order: int, family: int, quantity: str, spot: bool) -> Op:
        def run():
            grid = scan(family, quantity, resolution=self.resolution)
            mask = feasibility_mask(grid) if quantity == "var_x" else None
            return grid, symmetry_report(grid), mask
        label = f"psi{family}/{quantity}"
        return Op(label, run,
                  lambda out: self._check(order, family, quantity, spot, out))

    def pass_ops(self, index: int) -> list[Op]:
        # the seeded spot cells cost a series moment each, so only the first
        # pass has them; later passes must reproduce its grids bit for bit
        return [self._op(order, family, quantity, index == 0)
                for order, (quantity, family) in enumerate(
                    (q, f) for q in QUANTITIES for f in range(1, 17))]

    def warmup_op(self) -> Op:
        return Op("psi16/var_x", lambda: scan(16, "var_x", resolution=self.resolution),
                  lambda out: None)

    def trace_ops(self, index: int) -> list[Op]:
        return self.pass_ops(index)

    def _check(self, order, family, quantity, spot, out) -> str | None:
        grid, sym, mask = out
        previous, self._previous = self._previous, (family, quantity, grid)
        label = f"psi{family}/{quantity}"
        values = grid.values
        digest = hashlib.sha256(values.tobytes()).hexdigest()
        if self._digests.setdefault(label, digest) != digest:
            return "grid differs from the first pass"
        if not sym <= TOL_GRID:
            return f"mirror asymmetry {sym!r}"
        if mask is not None and np.any(mask & ~(values < 0.5)):
            return "feasibility mask marks a cell with var_x >= 0.5"
        partner = PARTNER.get(family)
        if partner is not None:
            if previous is None or previous[:2] != (partner, quantity):
                return "pairing check lost its partner grid"
            other = previous[2].values
            if np.any(np.isnan(values) != np.isnan(other)):
                return f"NaN cells differ from psi{partner}"
            dev = np.abs(values - other)
            if quantity == "var_x":
                # var_x is a difference of terms of size ~|alpha|^2, so the
                # rounding between the two rows' operation orders scales with it
                dev = dev / (1.0 + grid.alpha_axis[:, None] ** 2)
            dev = np.nan_to_num(dev)
            if np.max(dev) > TOL_GRID:
                return f"differs from psi{partner} by {np.max(dev):.3e}"
        if spot:
            return self._check_cells(order, family, quantity, grid)
        return None

    def _check_cells(self, order, family, quantity, grid) -> str | None:
        rng = np.random.default_rng([self.seed, order])
        values = grid.values
        cells = [tuple(int(v) for v in rng.integers(0, values.shape))]
        nan_cells = np.argwhere(np.isnan(values))
        if len(nan_cells):
            cells.append(tuple(int(v) for v in nan_cells[rng.integers(len(nan_cells))]))
        for i, j in cells:
            a, p = float(grid.alpha_axis[i]), float(grid.phi_axis[j])
            state = table1_coeffs(HeraldSpec(*LABELS[family], alpha_mag=a, phi=p),
                                  compose(p))
            value = values[i, j]
            if quantity == "probability":
                expected = state.probability
            else:
                try:
                    report = quadratures(state)
                except HeraldImpossible:
                    if math.isnan(value):
                        continue
                    return f"cell ({a}, {p}) finite but the herald is impossible"
                if math.isnan(value):
                    return f"cell ({a}, {p}) NaN but the closed form has a state"
                expected = report.var_x if quantity == "var_x" else report.var_p
            if _far(value, expected, TOL_ROUTE):
                return f"cell ({a}, {p}) {value!r} != closed form {expected!r}"
        return None


# -- crosscheck ----------------------------------------------------------------

#: herald patterns outside the 16-row table, up to (3, 3, 3, 3)
BEYOND_TABLE = ((2, 0, 0, 0), (2, 0, 1, 1), (1, 2, 2, 0), (2, 2, 1, 1),
                (2, 2, 2, 2), (3, 1, 2, 2), (0, 3, 3, 3), (3, 3, 3, 3))


class Crosscheck:
    """Each op is one seeded point; pass i holds points 4i .. 4i+3."""

    name = "crosscheck"
    in_process = True
    per_pass = 4

    def __init__(self, seed: int):
        self.seed = seed

    def point_seed(self, i: int) -> int:
        return int(np.random.default_rng([self.seed, i]).integers(0, 2 ** 32))

    def _op(self, i: int) -> Op:
        s = self.point_seed(i)

        def run():
            report = run_verification(1, s)
            # the same draw run_verification makes for its single sample
            rng = np.random.default_rng(s)
            alpha = float(rng.uniform(0.2, 3.0))
            phi = float(rng.uniform(0.1, TWO_PI - 0.1))
            U = compose(phi)
            probs = []
            for pattern in BEYOND_TABLE:
                spec = HeraldSpec(*pattern, alpha_mag=alpha, phi=phi)
                probs.append((pattern, general_heralded(spec, U).probability,
                              herald_state(spec)[1]))
            return report, probs
        return Op(f"seed{s}", run, self._check)

    def pass_ops(self, index: int) -> list[Op]:
        return [self._op(index * self.per_pass + k) for k in range(self.per_pass)]

    def warmup_op(self) -> Op:
        return self._op(0)

    def trace_ops(self, index: int) -> list[Op]:
        # the work counts of two traced passes are compared, so every traced
        # pass repeats the same points
        return self.pass_ops(0)

    @staticmethod
    def _check(out) -> str | None:
        report, probs = out
        if not report["passed"]:
            return "verification report not passed"
        for pattern, series_p, oracle_p in probs:
            if _far(series_p, oracle_p, TOL_ROUTE):
                return f"{pattern}: series {series_p!r} != oracle {oracle_p!r}"
        return None


# -- cli -----------------------------------------------------------------------

_POINT = ["--n2", "1", "--n3", "1", "--m2", "1", "--m3", "1", "--alpha", "2", "--phi", "2"]
_SCAN = ["--alpha-min", "0", "--alpha-max", "10", "--phi-min", "0",
         "--phi-max", "6.283185307179586", "--res", "200"]

#: the README command block: one call per {a,b,c} choice, [..] flags left out
README_CALLS = (
    ["matrix", "--phi", "0"],
    ["herald", *_POINT],
    ["state", *_POINT, "--method", "closed"],
    ["state", *_POINT, "--method", "general"],
    ["state", *_POINT, "--method", "oracle"],
    ["moments", *_POINT, "--k", "2", "--l", "1"],
    ["quadratures", "--n2", "1", "--n3", "0", "--m2", "0", "--m3", "0",
     "--alpha", "0", "--phi", "2"],
    ["scan", "--family", "psi16", "--quantity", "prob", *_SCAN],
    ["scan", "--family", "psi16", "--quantity", "varx", *_SCAN],
    ["scan", "--family", "psi16", "--quantity", "varp", *_SCAN],
    ["optimize", "--family", "psi16"],
    ["verify", "--samples", "10", "--seed", "0"],
    # exits KNOWN_EXIT at this commit (2.2e-6 of the mass lies outside the
    # box); kept verbatim so the defect shows as a failed op
    ["dist", "--n2", "1", "--n3", "0", "--alpha", "2", "--phi", "3",
     "--herald-max", "12"],
)

KNOWN_EXIT = {"dist": 3}
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "sixport.cli", *args]


class Cli:
    """Closed loop, one client: each op is one cold ``python -m sixport.cli``."""

    name = "cli"
    in_process = False

    def __init__(self, seed: int):
        self.seed = seed
        self._env = child_env()
        self._expected: dict[str, object] = {}

    def _cold(self, args) -> Op:
        def run():
            proc = subprocess.run(cli_argv(args), cwd=ROOT, env=self._env,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise OpFailed(proc.returncode, proc.stderr.strip())
            return proc.stdout
        return Op(" ".join(args), run, lambda out: self._check(args, out),
                  KNOWN_EXIT.get(args[0]))

    def _in_process(self, args) -> Op:
        from sixport import cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(args))
            if code != 0:
                raise OpFailed(code, err.getvalue().strip())
            return out.getvalue()
        return Op(" ".join(args), run, lambda out: self._check(args, out),
                  KNOWN_EXIT.get(args[0]))

    def pass_ops(self, index: int) -> list[Op]:
        return [self._cold(args) for args in README_CALLS]

    def warmup_op(self) -> Op:
        return self._cold(README_CALLS[0])

    def trace_ops(self, index: int) -> list[Op]:
        # spans cannot cross a process boundary, so the traced pass runs the
        # same calls through cli.main in this process
        return [self._in_process(args) for args in README_CALLS]

    # -- checks against the library, computed once per run -----------------

    def _library(self, key, compute):
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    def _check(self, args, stdout: str) -> str | None:
        command = args[0]
        if command == "scan":
            return self._check_scan(args, stdout)
        data = json.loads(stdout)
        spec = HeraldSpec(1, 1, 1, 1, alpha_mag=2.0, phi=2.0)
        if command == "matrix":
            got = np.array([complex(*v) for v in data]).reshape(3, 3)
            return _compare_array("matrix", got, compose(0.0), TOL_GRID)
        if command == "herald" or (command == "state" and args[-1] == "oracle"):
            state, prob = self._library("oracle", lambda: herald_state(spec))
            got = np.array([complex(*v) for v in data["amplitudes"]])
            if got.shape != state.amplitudes.shape:
                return "amplitude count differs from the library"
            return (_compare_array("amplitudes", got, state.amplitudes, TOL_ROUTE)
                    or _compare("probability", data["probability"], prob))
        if command == "state" and args[-1] == "closed":
            st = table1_coeffs(spec, compose(spec.phi))
            return _compare_fields(data, st, ("c0", "c1", "c2", "seed", "norm",
                                              "probability"))
        if command == "state":
            res = self._library("general", lambda: general_heralded(spec, compose(spec.phi)))
            got = np.array([complex(*v) for v in data["coeffs"]])
            return (_compare_array("coeffs", got, res.coeffs, TOL_ROUTE)
                    or _compare("norm", data["norm"], res.norm)
                    or _compare("probability", data["probability"], res.probability))
        if command == "moments":
            want = moment(table1_coeffs(spec, compose(spec.phi)), 2, 1)
            return _compare("moment", complex(*data["moment"]), want)
        if command == "quadratures":
            q = HeraldSpec(1, 0, 0, 0, alpha_mag=0.0, phi=2.0)
            report = quadratures(table1_coeffs(q, compose(q.phi)))
            return (_compare("var_x", data["var_x"], report.var_x)
                    or _compare("var_p", data["var_p"], report.var_p))
        if command == "optimize":
            ref = REFERENCE["optimize"]["psi16"]["var_min"]
            if not data["var_min"] <= ref + TOL_ROUTE:
                return f"var_min {data['var_min']!r} above reference {ref!r}"
            lib = self._library("optimize", lambda: minimize_variance("psi16"))
            return _compare("var_min", data["var_min"], lib.var_min)
        if command == "verify":
            if not (data["passed"] and data["samples"] == 10 and data["seed"] == 0):
                return "verify report not passed"
            worst = [k for k, d in data["deviations"].items()
                     if not d <= data["tolerances"][k]]
            return f"deviations above tolerance: {worst}" if worst else None
        if command == "dist":
            lib = self._library("dist", lambda: herald_distribution(1, 0, 2.0, 3.0, 12))
            got = {(e["m2"], e["m3"]): e["probability"] for e in data["entries"]}
            if got.keys() != lib.keys():
                return "herald outcomes differ from the library"
            return next((m for k in lib if (m := _compare(str(k), got[k], lib[k]))), None)
        return f"no check for {command}"

    def _check_scan(self, args, stdout: str) -> str | None:
        quantity = {"prob": "probability", "varx": "var_x", "varp": "var_p"}[args[4]]
        grid = self._library(quantity, lambda: scan(
            "psi16", quantity, (0.0, 10.0), (0.0, TWO_PI), 200))
        rows = np.loadtxt(io.StringIO(stdout), delimiter=",", skiprows=1)
        n = grid.values.size
        if rows.shape != (n, 3):
            return f"scan printed {rows.shape} values, expected ({n}, 3)"
        values = rows[:, 2].reshape(grid.values.shape)
        if np.any(np.isnan(values) != np.isnan(grid.values)):
            return "scan NaN cells differ from the library"
        return (_compare_array("alpha", rows[::200, 0], grid.alpha_axis, TOL_GRID)
                or _compare_array("phi", rows[:200, 1], grid.phi_axis, TOL_GRID)
                or _compare_array("values", np.nan_to_num(values),
                                  np.nan_to_num(grid.values), TOL_GRID))


def _compare(name, got, want, tol=TOL_ROUTE) -> str | None:
    return f"{name} {got!r} != library {want!r}" if _far(got, want, tol) else None


def _compare_array(name, got, want, tol) -> str | None:
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0))
    return f"{name} off by {dev:.3e}" if not dev <= tol else None


def _compare_fields(data, obj, fields) -> str | None:
    for f in fields:
        got = data[f]
        got = complex(*got) if isinstance(got, list) else got
        if (msg := _compare(f, got, getattr(obj, f))):
            return msg
    return None


WORKLOADS = {w.name: w for w in (Optimize, Landscape, Crosscheck, Cli)}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)
