"""Command-line interface.

Every command emits machine-readable output: JSON for single results, CSV
for landscape scans.  All floating-point numbers are serialized with 17
significant digits so values round-trip exactly, and identical invocations
produce byte-identical output.

Exit status: 0 on success, 2 on validation errors (bad flags or values),
3 on computational errors (impossible herald, inadequate cutoff, failed
verification).  Error payloads are JSON objects {"error": ..., "message": ...}
on stderr.

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

import numpy as np

from .errors import ComputationError, ValidationError
from .interferometer import compose
from .moments import MAX_POWER, expectation_quadratures, moment, quadratures, squeeze_db
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
from .states import PATTERNS, pattern_for_label, table1_coeffs
from .verification import run_verification

ENV_CUTOFF = "SIXPORT_CUTOFF"

# defaults are applied after --config merging so that config values can fill
# any omitted flag while explicit flags always win
_DEFAULTS = {
    "method": "closed",
    "res": 200,
    "coarse_res": 400,
    "alpha_min": 0.0,
    "alpha_max": 10.0,
    "phi_min": 0.0,
    "phi_max": 2.0 * math.pi,
    "samples": 10,
    "seed": 0,
}


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

def _herald_flags(p: argparse.ArgumentParser, with_herald=True) -> None:
    p.add_argument("--n2", type=int, help="ancilla photons into port 2")
    p.add_argument("--n3", type=int, help="ancilla photons into port 3")
    if with_herald:
        p.add_argument("--m2", type=int, help="photons measured on port 2")
        p.add_argument("--m3", type=int, help="photons measured on port 3")
    p.add_argument("--alpha", type=float, help="coherent amplitude magnitude")
    p.add_argument("--phi", type=float, help="shift phase in radians")
    p.add_argument("--cutoff", type=int, default=None, help="Fock cutoff override")


def _family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="family label psi1..psi16")
    p.add_argument("--n2", type=int, help="alternative addressing: herald tuple")
    p.add_argument("--n3", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--m3", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixport",
        description="Heralded state engineering on a six-port Mach-Zehnder interferometer",
    )
    parser.add_argument("--config", help="JSON file providing defaults for omitted flags")
    parser.add_argument("--output", help="write the result to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="composed transfer matrix as JSON")
    p.add_argument("--phi", type=float, help="shift phase in radians")

    p = sub.add_parser("herald", help="oracle heralded state in the number basis")
    _herald_flags(p)

    p = sub.add_parser("state", help="closed-form / series / oracle heralded state")
    _herald_flags(p)
    p.add_argument("--method", choices=("closed", "general", "oracle"))

    p = sub.add_parser("moments", help="<a^dagger^k a^l> on the heralded state")
    _herald_flags(p)
    p.add_argument("--k", type=int, help="power of a^dagger")
    p.add_argument("--l", type=int, help="power of a")
    p.add_argument("--method", choices=("closed", "oracle"))

    p = sub.add_parser("quadratures", help="x/p quadrature variances and squeezing dB")
    _herald_flags(p)
    p.add_argument("--method", choices=("closed", "oracle"))

    p = sub.add_parser("scan", help="CSV landscape of probability or variance")
    _family_flags(p)
    p.add_argument("--quantity", choices=("prob", "varx", "varp"))
    p.add_argument("--alpha-min", type=float)
    p.add_argument("--alpha-max", type=float)
    p.add_argument("--phi-min", type=float)
    p.add_argument("--phi-max", type=float)
    p.add_argument("--res", type=int)

    p = sub.add_parser("optimize", help="minimize the x-quadrature variance")
    _family_flags(p)
    p.add_argument("--coarse-res", type=int)

    p = sub.add_parser("verify", help="seeded cross-path verification suite")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("dist", help="probabilities of all herald outcomes")
    _herald_flags(p, with_herald=False)
    p.add_argument("--herald-max", type=int,
                   help="largest herald count per port (default 15 + |alpha|^2)")
    return parser


def _config_value(parser: argparse.ArgumentParser, command: str, name: str, value):
    """A --config value as its flag's type; ValueError if the JSON type or choice is wrong.

    int flags take integers, float flags any number, the others strings; never true or false.
    """
    actions = list(parser._actions)
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            actions += a.choices[command]._actions
    action = next(a for a in actions if a.dest == name)
    kind = action.type or str
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(value)
    if action.choices is not None and value not in action.choices:
        raise ValueError(value)
    return kind(value)


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
        if args.cutoff < 2:
            raise ValidationError("--cutoff must be at least 2")
        return args.cutoff
    env = os.environ.get(ENV_CUTOFF)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValidationError(f"{ENV_CUTOFF} must be an integer") from None
        if value < 2:
            raise ValidationError(f"{ENV_CUTOFF} must be at least 2")
        return value
    return default_cutoff(spec)


def _family_label(args) -> str:
    if args.family is not None:
        pattern_for_label(args.family)  # validates
        return args.family
    _require(args, ["n2", "n3", "m2", "m3"])
    pattern = (args.n2, args.n3, args.m2, args.m3)
    if pattern not in PATTERNS:
        raise ValidationError(
            f"herald tuple {pattern} has no single-photon-level family; "
            "use --family or keep all numbers in {0, 1}")
    return f"psi{PATTERNS[pattern]}"


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
    pattern = (spec.n2, spec.n3, spec.m2, spec.m3)
    label = f"psi{PATTERNS[pattern]}" if pattern in PATTERNS else "general"
    if args.method == "closed":
        st = table1_coeffs(spec, compose(spec.phi))
        return _to_json({
            "c0": st.c0, "c1": st.c1, "c2": st.c2, "seed": st.seed,
            "norm": st.norm, "probability": st.probability,
            "label": st.label, "method": "closed",
        })
    if args.method == "general":
        res = general_heralded(spec, compose(spec.phi))
        padded = list(res.coeffs) + [0j] * max(0, 3 - len(res.coeffs))
        return _to_json({
            "c0": padded[0], "c1": padded[1], "c2": padded[2],
            "coeffs": list(res.coeffs), "seed": res.seed,
            "norm": res.norm, "probability": res.probability,
            "label": label, "method": "general",
        })
    cutoff = _effective_cutoff(args, spec)
    state, probability = herald_state(spec, cutoff)
    return _to_json({
        "c0": None, "c1": None, "c2": None, "seed": None, "norm": None,
        "probability": probability, "label": label,
        "amplitudes": list(state.amplitudes), "cutoff_used": cutoff,
        "method": "oracle",
    })


def _cmd_moments(args) -> str:
    spec = _spec_from_args(args)
    _require(args, ["k", "l"])
    if not (0 <= args.k <= MAX_POWER and 0 <= args.l <= MAX_POWER):
        raise ValidationError(f"--k and --l must be in 0..{MAX_POWER}")
    if args.method == "closed":
        st = table1_coeffs(spec, compose(spec.phi))
        value = moment(st, args.k, args.l)
    else:
        cutoff = _effective_cutoff(args, spec)
        state, _ = herald_state(spec, cutoff)
        value = expectation(state, args.k, args.l)
    return _to_json({"k": args.k, "l": args.l, "moment": value, "method": args.method})


def _cmd_quadratures(args) -> str:
    spec = _spec_from_args(args)
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
    label = _family_label(args)
    _require(args, ["quantity"])
    quantity = {"prob": "probability", "varx": "var_x", "varp": "var_p"}[args.quantity]
    if args.res < 2:
        raise ValidationError("--res must be at least 2")
    if not (args.alpha_min < args.alpha_max and args.phi_min < args.phi_max):
        raise ValidationError("ranges must satisfy min < max")
    try:
        grid = scan(label, quantity,
                    (args.alpha_min, args.alpha_max),
                    (args.phi_min, args.phi_max), args.res)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    return grid.to_csv()


def _cmd_optimize(args) -> str:
    label = _family_label(args)
    if args.coarse_res < 2:
        raise ValidationError("--coarse-res must be at least 2")
    result = minimize_variance(label, coarse_resolution=args.coarse_res)
    return _to_json({
        "alpha_opt": result.alpha_opt,
        "phi_opt": result.phi_opt,
        "var_min": result.var_min,
        "squeeze_db": result.squeeze_db,
        "probability_at_opt": result.probability_at_opt,
        "evaluations": result.evaluations,
    })


def _cmd_verify(args) -> str:
    if args.samples < 1:
        raise ValidationError("--samples must be at least 1")
    if args.seed < 0:
        raise ValidationError("--seed must be a non-negative integer")
    report = run_verification(args.samples, args.seed)
    return _to_json(report)


def _cmd_dist(args) -> str:
    spec = _spec_from_args(args, with_herald=False)
    herald_max = args.herald_max
    if herald_max is None:
        herald_max = default_herald_max(spec.alpha_mag)
    if herald_max < 0:
        raise ValidationError("--herald-max must be non-negative")
    cutoff = _effective_cutoff(args, spec)
    dist = herald_distribution(spec.n2, spec.n3, spec.alpha_mag, spec.phi,
                               herald_max, cutoff)
    entries = [{"m2": m2, "m3": m3, "probability": p}
               for (m2, m3), p in dist.items()]
    return _to_json({"entries": entries, "total": sum(dist.values())})


_COMMANDS = {
    "matrix": _cmd_matrix,
    "herald": _cmd_herald,
    "state": _cmd_state,
    "moments": _cmd_moments,
    "quadratures": _cmd_quadratures,
    "scan": _cmd_scan,
    "optimize": _cmd_optimize,
    "verify": _cmd_verify,
    "dist": _cmd_dist,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            _fail("ConfigError", str(exc))
            return 2
        if not isinstance(config, dict):
            _fail("ConfigError", "config file must hold a JSON object")
            return 2
        # config fills flags the command line left unset; flags always win
        for key, value in config.items():
            name = key.replace("-", "_")
            if getattr(args, name, None) is None and hasattr(args, name):
                try:
                    setattr(args, name, _config_value(parser, args.command, name, value))
                except (ValueError, OverflowError):
                    _fail("ConfigError", f"config value {key!r} does not fit its flag")
                    return 2
    for name, value in _DEFAULTS.items():
        if hasattr(args, name) and getattr(args, name) is None:
            setattr(args, name, value)

    try:
        payload = _COMMANDS[args.command](args)
    except (ValidationError, ValueError) as exc:
        _fail(type(exc).__name__, str(exc))
        return 2
    except ComputationError as exc:
        _fail(type(exc).__name__, str(exc))
        return 3
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
