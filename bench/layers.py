"""Per-layer costs measured from outside: single public calls and CLI start-up.

``baseline_rows`` times one public call per layer at a fixed point and
reports the per-call median.  ``cli_costs`` splits the cost of a cold CLI
call into bare interpreter start-up and the import of ``sixport.cli`` and of
``scipy``, read from ``-X importtime``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

from workloads import ROOT, child_env

from sixport import (
    HeraldSpec,
    compose,
    evaluate_point,
    general_heralded,
    herald_state,
    moment,
    quadratures,
    scan,
    table1_coeffs,
    way1_moment_table,
)

ROW_BUDGET_S = 0.25     # time spent per row, after at least MIN_CALLS calls
MIN_CALLS = 5
MAX_CALLS = 400


def _median_ms(fn) -> float:
    fn()  # warm-up
    samples = []
    spent = 0
    while len(samples) < MAX_CALLS and (len(samples) < MIN_CALLS
                                        or spent < ROW_BUDGET_S * 1e9):
        t0 = time.perf_counter_ns()
        fn()
        dt = time.perf_counter_ns() - t0
        samples.append(dt)
        spent += dt
    return statistics.median(samples) * 1e-6


def baseline_rows() -> dict[str, float]:
    """The ROADMAP baseline table, as per-call medians in ms."""
    phi = 2.0
    U = compose(phi)
    n1 = HeraldSpec(1, 1, 1, 1, alpha_mag=2.0, phi=phi)
    n3 = HeraldSpec(3, 3, 3, 3, alpha_mag=2.0, phi=phi)
    state = table1_coeffs(n1, U)
    rows = {
        "interferometer.compose_ms": lambda: compose(phi),
        "states.table1_coeffs_ms": lambda: table1_coeffs(n1, U),
        "states.general_heralded_n1_ms": lambda: general_heralded(n1, U),
        "states.general_heralded_n3_ms": lambda: general_heralded(n3, U),
        "moments.moment_ms": lambda: moment(state, 0, 2),
        "moments.quadratures_ms": lambda: quadratures(state),
        "moments.way1_table_ms": lambda: way1_moment_table(n1, U, 2, 2),
        "oracle.herald_state_n1_ms": lambda: herald_state(n1),
        "oracle.herald_state_n3_ms": lambda: herald_state(n3),
        "scan.evaluate_point_ms": lambda: evaluate_point("psi16", 2.0, phi),
        "scan.scan200_ms": lambda: scan("psi16", "var_x", resolution=200),
    }
    return {name: _median_ms(fn) for name, fn in rows.items()}


STARTUP_RUNS = 5
IMPORT_RUNS = 3


def _wall_s(argv) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - t0


def _import_tree(stderr: str) -> list:
    """Parse ``-X importtime`` lines into (name, cumulative us, children) roots.

    Lines come in completion order with nesting shown by indentation, so a
    line adopts every pending line indented deeper than itself.
    """
    pending = []  # (depth, node)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop()[1])
        pending.append((depth, (name.strip(), int(cumulative), children[::-1])))
    return [node for _, node in pending]


def _cumulative_us(nodes, match) -> int:
    """Sum of cumulative times of the outermost nodes whose name matches."""
    return sum(cumulative if match(name) else _cumulative_us(children, match)
               for name, cumulative, children in nodes)


def cli_costs() -> dict[str, float]:
    """Bare start-up, and the import of sixport.cli and of scipy within it."""
    startup = [_wall_s([sys.executable, "-c", "pass"]) for _ in range(STARTUP_RUNS)]
    imports, scipy = [], []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sixport.cli"],
            cwd=ROOT, env=child_env(), check=True, capture_output=True,
            text=True, timeout=120)
        tree = _import_tree(proc.stderr)
        imports.append(_cumulative_us(tree, lambda n: n == "sixport.cli") * 1e-6)
        scipy.append(_cumulative_us(
            tree, lambda n: n == "scipy" or n.startswith("scipy.")) * 1e-6)
    return {
        "cli.python_startup_s": statistics.median(startup),
        "cli.import_s": statistics.median(imports),
        "cli.import_scipy_s": statistics.median(scipy),
    }
