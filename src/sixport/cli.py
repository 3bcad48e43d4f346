"""Command-line interface.

Every command emits machine-readable output: JSON for single results, CSV
for landscape scans.  All floating-point numbers are serialized with 17
significant digits so values round-trip exactly, and identical invocations
produce byte-identical output.

Exit status: 0 on success, 2 on validation errors (bad flags or values),
3 on computational errors (impossible herald, inadequate cutoff, failed
verification).  Error payloads are JSON objects {"error": ..., "message": ...}
on stderr.

One read-only table, ``FLAGS``, holds each flag's type, choices, default,
accepted range with its error message, and the library budget it feeds; the
parser, the --config check, the defaults and the range checks all read it.
A JSON file passed via --config seeds any omitted flags; explicit flags win.
A config value must have its flag's JSON type (else ConfigError, exit 2).
The environment variable SIXPORT_CUTOFF overrides the default Fock cutoff
when no --cutoff is given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .errors import ComputationError, ValidationError
from .interferometer import compose
from .moments import (MAX_POWER, check_norm, expectation_quadratures, moment, quadratures,
                      squeeze_db)
from .oracle import (
    HeraldSpec,
    default_cutoff,
    default_herald_max,
    expectation,
    herald_distribution,
    herald_state,
)
from .scan import minimize_variance, scan
from .series import general_heralded
from .states import family_label, pattern_for_label, table1_coeffs
from .verification import run_verification

ENV_CUTOFF = "SIXPORT_CUTOFF"


# -- the flag table -----------------------------------------------------------

@dataclass(frozen=True)
class Flag:
    """One flag's contract: its type, choices, default and accepted range.

    ``default`` fills the flag when neither the command line nor --config
    sets it.  A value outside ``low``..``high`` (inclusive, None for open) is
    a ValidationError with ``message``.  ``budget`` names the library limit
    the value feeds, checked in its own module; here it is documentation.
    """
    name: str
    type: type = str
    help: str | None = None
    choices: tuple[str, ...] | None = None
    default: object = None
    low: int | None = None
    high: int | None = None
    message: str | None = None
    budget: str | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")

    def from_config(self, value):
        """A --config value as this flag's type; ValueError if its JSON type or choice is wrong.

        int flags take integers, float flags any number, the others strings; never booleans.
        """
        kinds = (int, float) if self.type is float else self.type
        if isinstance(value, bool) or not isinstance(value, kinds) or (
                self.choices is not None and value not in self.choices):
            raise ValueError(value)
        return self.type(value)

    def check(self, value):
        """``value``; ValidationError with ``message`` if it lies outside low..high."""
        if value is not None and ((self.low is not None and value < self.low)
                                  or (self.high is not None and value > self.high)):
            raise ValidationError(self.message)
        return value


_N2 = Flag("--n2", int, "ancilla photons into port 2", budget="PHOTONS_MAX")
_N3 = replace(_N2, name="--n3", help="ancilla photons into port 3")
_M2 = replace(_N2, name="--m2", help="photons measured on port 2")
_M3 = replace(_N2, name="--m3", help="photons measured on port 3")
_ALPHA = Flag("--alpha", float, "coherent amplitude magnitude")
_PHI = Flag("--phi", float, "shift phase in radians")
_CUTOFF = Flag("--cutoff", int, "Fock cutoff override", low=2,
               message="--cutoff must be at least 2", budget="BOX_CELLS_MAX")
_HERALD = (_N2, _N3, _M2, _M3, _ALPHA, _PHI, _CUTOFF)
_FAMILY = (Flag("--family", help="family label psi1..psi16, or give its herald tuple",
                message="unknown family label '<label>'"),
           _N2, _N3, _M2, _M3)
_METHOD = Flag("--method", choices=("closed", "oracle"), default="closed")
_K = Flag("--k", int, "power of a^dagger", low=0, high=MAX_POWER,
          message=f"--k and --l must be in 0..{MAX_POWER}")
_L = replace(_K, name="--l", help="power of a")
_RES = Flag("--res", int, default=200, low=2, message="--res must be at least 2",
            budget="GRID_CELLS_MAX")
_COARSE_RES = Flag("--coarse-res", int, default=400, low=2,
                   message="--coarse-res must be at least 2", budget="GRID_CELLS_MAX")
_SAMPLES = Flag("--samples", int, default=10, low=1, message="--samples must be at least 1",
                budget="SAMPLES_MAX")
_SEED = Flag("--seed", int, default=0, low=0, message="--seed must be a non-negative integer")
_HERALD_MAX = Flag("--herald-max", int, "largest herald count per port (default 15 + |alpha|^2)",
                   low=0, message="--herald-max must be non-negative", budget="BOX_CELLS_MAX")

#: Every flag, per subcommand in declaration order; the None entry holds the
#: flags that precede the subcommand.  Read-only.
FLAGS = MappingProxyType({
    None: (Flag("--config", help="JSON file providing defaults for omitted flags"),
           Flag("--output", help="write the result to this file instead of stdout")),
    "matrix": (_PHI,),
    "herald": _HERALD,
    "state": (*_HERALD, replace(_METHOD, choices=("closed", "general", "oracle"))),
    "moments": (*_HERALD, _K, _L, _METHOD),
    "quadratures": (*_HERALD, _METHOD),
    "scan": (*_FAMILY, Flag("--quantity", choices=("prob", "varx", "varp")),
             Flag("--alpha-min", float, default=0.0), Flag("--alpha-max", float, default=10.0),
             Flag("--phi-min", float, default=0.0),
             Flag("--phi-max", float, default=2.0 * math.pi), _RES),
    "optimize": (*_FAMILY, _COARSE_RES),
    "verify": (_SAMPLES, _SEED),
    "dist": (_N2, _N3, _ALPHA, _PHI, _CUTOFF, _HERALD_MAX),
})


class ConfigError(ValidationError):
    """A --config file cannot be read, or one of its values does not fit its flag."""


# -- serialization -----------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _to_json(obj) -> str:
    """Render JSON with floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt_float(obj.real)}, {_fmt_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(text: str, output_path: str | None) -> None:
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# -- argument plumbing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixport",
        description="Heralded state engineering on a six-port Mach-Zehnder interferometer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, flags in FLAGS.items():
        target = parser if command is None else sub.add_parser(command, help=_COMMANDS[command][0])
        for flag in flags:
            target.add_argument(flag.name, type=flag.type, choices=flag.choices, help=flag.help)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The command line's flags, then --config values for omitted ones, then defaults.

    An unreadable --config file, or a value whose JSON type or choice does
    not fit its flag, raises ConfigError.  Bounds are checked later, where
    each command reads its values.
    """
    args = build_parser().parse_args(argv)
    flags = {flag.dest: flag for flag in (*FLAGS[None], *FLAGS[args.command])}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in config.items():
            flag = flags.get(key.replace("-", "_"))
            if flag is not None and getattr(args, flag.dest) is None:
                try:
                    setattr(args, flag.dest, flag.from_config(value))
                except (ValueError, OverflowError):
                    raise ConfigError(f"config value {key!r} does not fit its flag") from None
    for flag in flags.values():
        if getattr(args, flag.dest) is None:
            setattr(args, flag.dest, flag.default)
    return args


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        raise ValidationError(
            "missing required values: " + ", ".join("--" + n for n in missing))


def _spec_from_args(args, with_herald=True) -> HeraldSpec:
    needed = ["n2", "n3", "alpha", "phi"] + (["m2", "m3"] if with_herald else [])
    _require(args, needed)
    m2 = args.m2 if with_herald else 0
    m3 = args.m3 if with_herald else 0
    try:
        return HeraldSpec(args.n2, args.n3, m2, m3,
                          alpha_mag=args.alpha, phi=args.phi)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _effective_cutoff(args, spec) -> int:
    if args.cutoff is not None:
        return _CUTOFF.check(args.cutoff)
    env = os.environ.get(ENV_CUTOFF)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValidationError(f"{ENV_CUTOFF} must be an integer") from None
        if value < _CUTOFF.low:
            raise ValidationError(f"{ENV_CUTOFF} must be at least {_CUTOFF.low}")
        return value
    return default_cutoff(spec)


def _family(args) -> tuple[int, int, int, int]:
    """The herald tuple of the --family label, else of --n2 --n3 --m2 --m3."""
    if args.family is not None:
        return pattern_for_label(args.family)
    _require(args, ["n2", "n3", "m2", "m3"])
    return (args.n2, args.n3, args.m2, args.m3)


# -- command bodies -----------------------------------------------------------

def _cmd_matrix(args) -> str:
    _require(args, ["phi"])
    U = compose(args.phi)
    return _to_json([complex(v) for v in U.reshape(-1)])


def _cmd_herald(args) -> str:
    spec = _spec_from_args(args)
    cutoff = _effective_cutoff(args, spec)
    state, probability = herald_state(spec, cutoff)
    return _to_json({
        "amplitudes": list(state.amplitudes),
        "probability": probability,
        "cutoff_used": cutoff,
    })


def _cmd_state(args) -> str:
    spec = _spec_from_args(args)
    _CUTOFF.check(args.cutoff)
    if args.method != "oracle":
        build = table1_coeffs if args.method == "closed" else general_heralded
        st = build(spec, compose(spec.phi))
        check_norm(st)
        # the series route lists every level; the closed form those past c2
        listed = {"coeffs": st.coeffs} if args.method == "general" or len(st.coeffs) > 3 else {}
        return _to_json({
            "c0": st.c0, "c1": st.c1, "c2": st.c2, **listed, "seed": st.seed,
            "norm": st.norm, "probability": st.probability,
            "label": st.label, "method": args.method,
        })
    cutoff = _effective_cutoff(args, spec)
    state, probability = herald_state(spec, cutoff)
    return _to_json({
        "c0": None, "c1": None, "c2": None, "seed": None, "norm": None,
        "probability": probability,
        "label": family_label((spec.n2, spec.n3, spec.m2, spec.m3)),
        "amplitudes": list(state.amplitudes), "cutoff_used": cutoff,
        "method": "oracle",
    })


def _cmd_moments(args) -> str:
    spec = _spec_from_args(args)
    _require(args, ["k", "l"])
    k, l = _K.check(args.k), _L.check(args.l)
    _CUTOFF.check(args.cutoff)
    if args.method == "closed":
        st = table1_coeffs(spec, compose(spec.phi))
        value = moment(st, k, l)
    else:
        cutoff = _effective_cutoff(args, spec)
        state, _ = herald_state(spec, cutoff)
        value = expectation(state, k, l)
    return _to_json({"k": k, "l": l, "moment": value, "method": args.method})


def _cmd_quadratures(args) -> str:
    spec = _spec_from_args(args)
    _CUTOFF.check(args.cutoff)
    if args.method == "closed":
        st = table1_coeffs(spec, compose(spec.phi))
        report = quadratures(st)
        var_x, var_p, db = report.var_x, report.var_p, report.squeeze_db_x
    else:
        cutoff = _effective_cutoff(args, spec)
        state, _ = herald_state(spec, cutoff)
        var_x, var_p = expectation_quadratures(state)
        db = squeeze_db(var_x)
    return _to_json({"var_x": var_x, "var_p": var_p, "squeeze_db_x": db})


def _cmd_scan(args) -> str:
    family = _family(args)
    _require(args, ["quantity"])
    quantity = {"prob": "probability", "varx": "var_x", "varp": "var_p"}[args.quantity]
    res = _RES.check(args.res)
    if not (args.alpha_min < args.alpha_max and args.phi_min < args.phi_max):
        raise ValidationError("ranges must satisfy min < max")
    try:
        grid = scan(family, quantity,
                    (args.alpha_min, args.alpha_max),
                    (args.phi_min, args.phi_max), res)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    return grid.to_csv()


def _cmd_optimize(args) -> str:
    family, coarse_resolution = _family(args), _COARSE_RES.check(args.coarse_res)
    try:
        result = minimize_variance(family, coarse_resolution=coarse_resolution)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    return _to_json({
        "alpha_opt": result.alpha_opt,
        "phi_opt": result.phi_opt,
        "var_min": result.var_min,
        "squeeze_db": result.squeeze_db,
        "probability_at_opt": result.probability_at_opt,
        "evaluations": result.evaluations,
    })


def _cmd_verify(args) -> str:
    return _to_json(run_verification(_SAMPLES.check(args.samples), _SEED.check(args.seed)))


def _cmd_dist(args) -> str:
    spec = _spec_from_args(args, with_herald=False)
    herald_max = _HERALD_MAX.check(args.herald_max)
    if herald_max is None:
        herald_max = default_herald_max(spec.alpha_mag)
    cutoff = _effective_cutoff(args, spec)
    dist = herald_distribution(spec.n2, spec.n3, spec.alpha_mag, spec.phi,
                               herald_max, cutoff)
    entries = [{"m2": m2, "m3": m3, "probability": p}
               for (m2, m3), p in dist.items()]
    return _to_json({"entries": entries, "total": sum(dist.values())})


_COMMANDS = {
    "matrix": ("composed transfer matrix as JSON", _cmd_matrix),
    "herald": ("oracle heralded state in the number basis", _cmd_herald),
    "state": ("closed-form / series / oracle heralded state", _cmd_state),
    "moments": ("<a^dagger^k a^l> on the heralded state", _cmd_moments),
    "quadratures": ("x/p quadrature variances and squeezing dB", _cmd_quadratures),
    "scan": ("CSV landscape of probability or variance", _cmd_scan),
    "optimize": ("minimize the x-quadrature variance", _cmd_optimize),
    "verify": ("seeded cross-path verification suite", _cmd_verify),
    "dist": ("probabilities of all herald outcomes", _cmd_dist),
}


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        payload = _COMMANDS[args.command][1](args)
    except (ValidationError, ValueError, ComputationError) as exc:
        _fail(type(exc).__name__, str(exc))
        return 3 if isinstance(exc, ComputationError) else 2
    try:
        _emit(payload, args.output)
    except OSError as exc:
        _fail("OutputError", str(exc))
        return 2
    return 0


def _fail(code: str, message: str) -> None:
    sys.stderr.write(_to_json({"error": code, "message": message}) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
