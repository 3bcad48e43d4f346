"""The state, moments and quadratures commands keep their bytes.

One digest covers stdout, stderr and the exit code of ``state`` (closed,
general and oracle), ``moments`` and ``quadratures`` on the sixteen tuples
and four beyond them, at four points, two of them at |alpha| = 0, where
several heralds are impossible.  Error exits are part of what is pinned.
"""

import contextlib
import hashlib
import io

from sixport.cli import main
from sixport.states import PATTERNS

TUPLES = [*PATTERNS, (2, 1, 1, 1), (3, 3, 3, 3), (1, 2, 0, 0), (2, 0, 1, 0)]
POINTS = [(0.0, 1.0), (1.3, 0.7), (2.5, 4.0), (0.0, 0.0)]
COMMANDS = [["state", "--method", "closed"], ["state", "--method", "general"],
            ["state", "--method", "oracle"], ["moments", "--k", "2", "--l", "1"],
            ["quadratures"]]

# sha256 of every call's exit code, stdout and stderr, recorded with numpy 2.4 on x86-64
CLI_DIGEST = "087a31ff53bfea756df9316d353ff7d9147bd0f44fc8d3116ef0b49439c057de"


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_digest():
    digest = hashlib.sha256()
    for pattern in TUPLES:
        herald = [f"--{name}={n}" for name, n in zip(("n2", "n3", "m2", "m3"), pattern)]
        for alpha, phi in POINTS:
            for command in COMMANDS:
                code, out, err = run([*command, *herald, f"--alpha={alpha!r}", f"--phi={phi!r}"])
                digest.update(f"{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == CLI_DIGEST
