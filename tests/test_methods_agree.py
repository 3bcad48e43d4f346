"""Every method of every herald subcommand agrees, on herald tuples past the table.

Each example runs ``state`` on its three methods, ``quadratures`` and
``moments`` on both of theirs, and ``herald``, in-process, and checks that
their exit codes agree and that every probability printed agrees to 1e-9.

One documented asymmetry: the oracle refuses a herald whose probability is
below its absolute floor ``oracle.PROB_FLOOR`` = 1e-30, while the closed form
and the series refuse only a norm below ``moments.NORM_FLOOR``, the norm
being the probability before the coherent filtering factor.  So where that
factor is tiny (phi = pi and |alpha| >= 10) the oracle routes exit 3 with
``HeraldImpossible`` and the other routes print the state, for example
``quadratures --n2 1 --n3 1 --m2 1 --m3 1 --alpha 10 --phi 3.141592653589793``.
"""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixport.cli import main
from sixport.oracle import PROB_FLOOR

FAST = settings(derandomize=True, max_examples=60, deadline=None, database=None)

#: the routes that run no oracle, and those that do
CLOSED = [("state", "closed"), ("state", "general"), ("quadratures", "closed"),
          ("moments", "closed")]
ORACLE = [("state", "oracle"), ("quadratures", "oracle"), ("moments", "oracle"),
          ("herald", None)]


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def route(command, method, herald):
    argv = [command, *herald]
    if command == "moments":
        argv += ["--k", "1", "--l", "1"]
    if method is not None:
        argv += ["--method", method]
    code, out, err = run(*argv)
    return code, json.loads(out) if code == 0 else json.loads(err)


@FAST
@given(tuple_=st.tuples(*[st.integers(0, 2)] * 4),
       alpha=st.one_of(st.just(0.0), st.floats(0.0, 12.0)),
       phi=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, 2.0 * math.pi)))
@example(tuple_=(1, 1, 1, 1), alpha=10.0, phi=math.pi)   # the asymmetry
@example(tuple_=(0, 0, 1, 1), alpha=0.0, phi=1.0)        # a forbidden herald
@example(tuple_=(2, 1, 1, 1), alpha=3.3849, phi=1.0805)  # near its optimum
def test_every_method_gives_the_same_exit_and_probability(tuple_, alpha, phi):
    herald = [v for name, n in zip(("--n2", "--n3", "--m2", "--m3"), tuple_)
              for v in (name, str(n))] + ["--alpha", repr(alpha), "--phi", repr(phi)]
    closed = {r: route(*r, herald) for r in CLOSED}
    oracle = {r: route(*r, herald) for r in ORACLE}
    assert len({code for code, _ in closed.values()}) == 1, closed
    assert len({code for code, _ in oracle.values()}) == 1, oracle
    closed_code = closed["state", "closed"][0]
    oracle_code, oracle_out = oracle["state", "oracle"]
    probabilities = [out["probability"] for r, (code, out) in [*closed.items(), *oracle.items()]
                     if code == 0 and r[0] in ("state", "herald")]
    if closed_code != oracle_code:
        # the one listed asymmetry: below PROB_FLOOR only the oracle refuses
        assert (closed_code, oracle_code) == (0, 3)
        assert oracle_out["error"] == "HeraldImpossible"
        assert all(p < PROB_FLOOR for p in probabilities)
    assert max(probabilities, default=0.0) - min(probabilities, default=0.0) <= 1e-9
