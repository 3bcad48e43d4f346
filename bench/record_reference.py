"""Record the reference values the benchmark checks against.

    python3 bench/record_reference.py

Writes ``bench/reference.json`` from the sources in ``src/``: the optimum of
every family at the default coarse resolution.  The checks allow a later
commit to find a lower variance, never a higher one.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sixport import minimize_variance  # noqa: E402


def main():
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    optimize = {}
    for family in range(1, 17):
        r = minimize_variance(family)
        optimize[f"psi{family}"] = {
            "var_min": r.var_min, "alpha_opt": r.alpha_opt, "phi_opt": r.phi_opt,
            "probability_at_opt": r.probability_at_opt,
            "evaluations": r.evaluations,
        }
    out = {"recorded_at_commit": sha, "optimize": optimize}
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
