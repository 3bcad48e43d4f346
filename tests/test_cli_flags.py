"""The CLI's flag table: the README copy, every bound, and --config against it.

``sixport.cli.FLAGS`` holds each flag's type, choices, default and accepted
range.  These tests read the table instead of repeating it, so a flag added
there is covered here without an edit.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixport.cli import FLAGS, main, parse_args

FAST = settings(derandomize=True, max_examples=3, deadline=None, database=None)
README = Path(__file__).resolve().parents[1] / "README.md"



def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# -- the README copy -----------------------------------------------------------

def _cell(value):
    return "-" if value is None else f"`{value}`"


def _bound(flag):
    if flag.low is None:
        return "-"
    return f">= {flag.low}" if flag.high is None else f"{flag.low}..{flag.high}"


def test_readme_table_matches_the_flag_table():
    # one row per distinct flag, with every subcommand that declares it
    commands = {}
    for command, flags in FLAGS.items():
        for flag in flags:
            commands.setdefault(flag, []).append(command or "all")
    rows = ["| flag | subcommands | type | default | bound | error | budget |",
            "|---|---|---|---|---|---|---|"]
    for flag, names in commands.items():
        kind = "{" + ",".join(flag.choices) + "}" if flag.choices else flag.type.__name__
        rows.append(f"| `{flag.name}` | {', '.join(names)} | {kind} | {_cell(flag.default)} "
                    f"| {_bound(flag)} | {_cell(flag.message)} | {_cell(flag.budget)} |")
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(rows[0])
    assert lines[start:start + len(rows) + 1] == rows + [""]


# -- every bound ---------------------------------------------------------------

_ZERO = ["--n2", "0", "--n3", "0", "--m2", "0", "--m3", "0", "--alpha", "0", "--phi", "0"]
#: a valid call per subcommand, cheap and on the path that reads every bounded flag
BASE = {
    "herald": ["herald", *_ZERO],
    "state": ["state", *_ZERO, "--method", "oracle"],
    "moments": ["moments", *_ZERO, "--k", "0", "--l", "0", "--method", "oracle"],
    "quadratures": ["quadratures", *_ZERO, "--method", "oracle"],
    "scan": ["scan", "--family", "psi16", "--quantity", "prob", "--res", "2"],
    "optimize": ["optimize", "--family", "psi16", "--coarse-res", "2"],
    "verify": ["verify", "--samples", "1"],
    "dist": ["dist", *_ZERO[:4], *_ZERO[8:], "--herald-max", "0"],
}
BOUNDS = [(command, flag, end) for command, flags in FLAGS.items() for flag in flags
          for end in ("low", "high") if getattr(flag, end) is not None]


#: the same walk on the other methods of the subcommands that take --method
METHOD_BOUNDS = [(command, method, flag, end) for command, flag, end in BOUNDS
                 for f in FLAGS[command] if f.name == "--method"
                 for method in f.choices if method != "oracle"]


def walk_bound(argv, flag, end):
    edge = getattr(flag, end)
    code, out, err = run(*argv, flag.name, str(edge))
    assert (code, err) == (0, ""), err
    assert out
    past = edge - 1 if end == "low" else edge + 1
    code, out, err = run(*argv, flag.name, str(past))
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ValidationError", "message": flag.message}


@pytest.mark.parametrize("command, flag, end", BOUNDS,
                         ids=[f"{c}{f.name}-{e}" for c, f, e in BOUNDS])
def test_value_at_the_bound_runs_and_one_past_it_is_refused(command, flag, end):
    walk_bound(BASE[command], flag, end)


@pytest.mark.parametrize("command, method, flag, end", METHOD_BOUNDS,
                         ids=[f"{c}-{m}{f.name}-{e}" for c, m, f, e in METHOD_BOUNDS])
def test_bounds_hold_on_every_method(command, method, flag, end):
    assert BASE[command][-2:] == ["--method", "oracle"]
    walk_bound([*BASE[command][:-1], method], flag, end)


# -- --config against the table --------------------------------------------------

def right_values(flag):
    """JSON values --config accepts for ``flag``."""
    if flag.choices:
        return st.sampled_from(flag.choices)
    if flag.type is int:
        return st.integers(-10 ** 6, 10 ** 6)
    if flag.type is float:
        return st.one_of(st.integers(-10 ** 6, 10 ** 6),
                         st.floats(allow_nan=False, allow_infinity=False))
    return st.text(max_size=8)


def wrong_values(flag):
    """One strategy per kind of JSON value --config refuses for ``flag``."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if flag.type is int:
        wrong = [finite, st.text(max_size=8)]
    elif flag.type is float:
        wrong = [st.text(max_size=8)]
    else:
        wrong = [st.integers(), finite]
    if flag.choices:
        wrong.append(st.text(max_size=8).filter(lambda s: s not in flag.choices))
    return [st.booleans(), *wrong]


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "run.json"


def _argv(path, config, command, explicit=()):
    """A ``command`` call (None: matrix) with ``config`` in ``path`` and ``explicit`` flags set."""
    path.write_text(json.dumps(config), encoding="utf-8")
    flags = [f"{flag.name}={repr(v) if isinstance(v, float) else v}"
             for flag, v in explicit.items()] if explicit else []
    if command is None:
        return [*flags, "--config", str(path), "matrix"]
    return ["--config", str(path), command, *flags]


@pytest.mark.parametrize("command", list(FLAGS), ids=lambda c: c or "sixport")
@FAST
@given(data=st.data())
def test_config_values_against_the_flag_table(config_path, command, data):
    # --config is left out: a config file cannot set its own path
    flags = [flag for flag in FLAGS[command] if flag.name != "--config"]
    # a key may be spelled as the flag or as its dest
    keys = {flag: data.draw(st.sampled_from([flag.name[2:], flag.dest])) for flag in flags}

    for flag in flags:
        wrong = [data.draw(kind, label=f"wrong {flag.name}") for kind in wrong_values(flag)]
        for value in wrong:
            with pytest.raises(ValueError):
                flag.from_config(value)
        key = keys[flag]
        code, out, err = run(*_argv(config_path, {key: data.draw(st.sampled_from(wrong))},
                                    command))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ConfigError",
                                   "message": f"config value {key!r} does not fit its flag"}

    # a value of the right type fills the omitted flag
    values = {flag: data.draw(right_values(flag), label=flag.name) for flag in flags}
    config = {keys[flag]: value for flag, value in values.items()}
    args = parse_args(_argv(config_path, config, command))
    for flag, value in values.items():
        assert getattr(args, flag.dest) == value

    # an explicit flag beats it
    chosen = data.draw(st.lists(st.sampled_from(flags), unique=True), label="explicit flags")
    explicit = {flag: data.draw(right_values(flag), label=f"explicit {flag.name}")
                for flag in chosen}
    args = parse_args(_argv(config_path, config, command, explicit))
    for flag, value in values.items():
        assert getattr(args, flag.dest) == explicit.get(flag, value)


@pytest.mark.parametrize("command", list(FLAGS)[1:])
def test_omitted_flags_take_the_table_default(command):
    args = parse_args([command])
    for flag in FLAGS[None] + FLAGS[command]:
        assert getattr(args, flag.dest) == flag.default


def test_config_file_not_text_is_config_error(tmp_path):
    path = tmp_path / "run.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run("--config", str(path), "matrix", "--phi", "0")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ConfigError"
