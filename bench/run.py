"""sixport benchmark: one workload per run, end to end or traced per module.

    python3 bench/run.py --workload {optimize,landscape,crosscheck,cli} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures set-up (fresh interpreters that import
the package and run one op), then runs as many whole passes of the
workload's ops as fit in S seconds of timed op time (at least one),
checking every output outside the timed region.  It prints the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes over fixed inputs, checks that the
traced passes repeat the same work counts, times one public call per layer
and splits the CLI's cold-start cost; it prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A fuller record with the environment goes to
``.bench_out/result-<workload>-seed<N>-trace<T>.json`` at the repository root.
One process drives the load: a closed loop with one client, and for ``cli``
one child process at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("optimize", "landscape", "crosscheck", "cli")
SETUP_RUNS = 3
MIN_TRACED_PASSES = 2
TAIL_BEYOND = 10        # the tail percentile keeps at least this many ops above it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- running ops ---------------------------------------------------------------

class Tally:
    """Outcome of every op run: durations, failures and wrong outputs.

    ``failed`` counts every op that raised or gave a wrong output;
    ``unexpected`` leaves out the failures an op names as a known defect.
    """

    def __init__(self):
        self.durations_ns = []
        self.failed = 0
        self.unexpected = 0
        self.messages = []

    def run_pass(self, ops, tracer=None) -> int:
        """Run the ops in order and return their summed time in ns.

        The outputs are checked after the whole pass, so no check work lands
        between two timed ops, and under a tracer the checks leave no spans.
        """
        if tracer is not None:
            tracer.install()
        try:
            outcomes = [(op, *self._time(op)) for op in ops]
        finally:
            if tracer is not None:
                tracer.remove()
        return sum(self._judge(*outcome) for outcome in outcomes)

    @staticmethod
    def _time(op):
        t0 = time.perf_counter_ns()
        try:
            out = op.run()
        except Exception as exc:  # a failed op is counted, not fatal
            return None, exc, time.perf_counter_ns() - t0
        return out, None, time.perf_counter_ns() - t0

    def _judge(self, op, out, error, dt) -> int:
        self.durations_ns.append(dt)
        if error is not None:
            known = op.failure_known(error)
            self._note("known failure" if known else "failed", op,
                       f"{type(error).__name__}: {error}")
            self.failed += 1
            self.unexpected += not known
            return dt
        try:
            problem = op.check(out)
        except Exception as exc:  # a check that cannot run is a wrong output
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self._note("wrong", op, problem)
            self.failed += 1
            self.unexpected += 1
        return dt

    def _note(self, kind, op, message):
        if len(self.messages) < 20:
            self.messages.append(f"{kind}: {op.label}: {message}"[:400])

    @property
    def attempted(self) -> int:
        return len(self.durations_ns)


def tail(durations_ms):
    """(value, percentile): the highest percentile with TAIL_BEYOND ops above."""
    ordered = sorted(durations_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_seconds(workload) -> list[float]:
    """Wall time of fresh interpreters that import the package and run one op."""
    import workloads
    if workload.in_process:
        argv = [sys.executable, str(BENCH / "probe.py"), workload.name, str(workload.seed)]
    else:
        argv = workloads.cli_argv(workloads.README_CALLS[0])
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=workloads.child_env(), check=True,
                       capture_output=True, timeout=170)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is KiB on Linux


def warm_up(workload):
    """Run one untimed pass (one call for the CLI) so the heap and the file
    cache settle before timing; the first pass of a fresh process is slow.
    An op that raises here fails again in the timed passes, which count it."""
    ops = workload.pass_ops(0) if workload.in_process else [workload.warmup_op()]
    for op in ops:
        with contextlib.suppress(Exception):
            op.run()


def end_to_end(workload, seconds):
    setups = setup_seconds(workload)
    warm_up(workload)
    tally = Tally()
    pass_rates = []     # ops per second of each pass
    timed_ns = pass_ns = 0
    # whole passes only, and none that the last one says would overrun
    while not pass_rates or timed_ns + pass_ns <= seconds * 1e9:
        ops = workload.pass_ops(len(pass_rates))
        pass_ns = tally.run_pass(ops)
        pass_rates.append(len(ops) / (pass_ns * 1e-9))
        timed_ns += pass_ns
    ms = [d * 1e-6 for d in tally.durations_ns]
    tail_ms, tail_pct = tail(ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(pass_rates), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb(workload), "MiB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "fraction"),
    }
    extra = {
        "failed_frac": tally.failed / tally.attempted,
        "op_ms_tail_percentile": tail_pct,
        "ops": tally.attempted,
        "pass_ops_per_s": pass_rates,
        "timed_s": timed_ns * 1e-9,
        "setup_runs_s": setups,
    }
    return tally, metrics, extra


def traced(workload, seconds):
    import workloads
    from layers import baseline_rows, cli_costs
    from tracing import Tracer

    warm_up(workload)
    tally = Tally()
    tracer = Tracer(namespaces=[workloads])
    plain_ns, traced_ns, counts, selfs = [], [], [], []
    index = 0
    # untraced and traced passes alternate; whole pairs that fit in S seconds
    while len(traced_ns) < MIN_TRACED_PASSES or (
            sum(plain_ns + traced_ns) + plain_ns[-1] + traced_ns[-1] <= seconds * 1e9):
        plain_ns.append(tally.run_pass(workload.trace_ops(2 * index)))
        tracer.reset()
        traced_ns.append(tally.run_pass(workload.trace_ops(2 * index + 1), tracer))
        counts.append(tracer.work_counts())
        selfs.append(tracer.self_times())
        index += 1
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{workload.seed}.csv")

    repeatable = all(c == counts[0] for c in counts)
    if not repeatable:
        tally.messages.append(f"work counts differ between traced passes: {counts}")
    metrics = {}
    for name, value in counts[0].items():
        metrics[name] = (value, "count")
    for name in selfs[0]:
        metrics[name] = (statistics.median([s[name] for s in selfs]), "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_ns) / statistics.median(plain_ns) - 1.0, "fraction")
    metrics.update((k, (v, "s")) for k, v in cli_costs().items())
    metrics.update((k, (v, "ms")) for k, v in baseline_rows().items())
    extra = {
        "failed_frac": tally.failed / tally.attempted,
        "traced_passes": len(traced_ns),
        "spans_per_pass": len(tracer.spans),
        "work_counts_repeat": repeatable,
    }
    return tally, metrics, extra


# -- environment ---------------------------------------------------------------

def environment() -> dict:
    def run(argv):
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30)
        except (OSError, subprocess.SubprocessError):
            return ""
        return proc.stdout if proc.returncode == 0 else ""

    caches = {}
    for line in run(["getconf", "-a"]).splitlines():
        key, _, value = line.partition(" ")
        if key.endswith("CACHE_SIZE") and value.strip():
            caches[key] = int(value.strip())
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_sha": run(["git", "rev-parse", "HEAD"]).strip() or None,
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches_bytes": caches,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "note": ("no bandwidth metric is reported: the working sets (tens of "
                 "MiB at most) stay inside a last-level cache of 300 MiB"),
    }


# -- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sixport" / "__init__.py").is_file():
        print(f"bench: no sixport sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.make(args.workload, args.seed)
    measure = traced if args.trace else end_to_end
    tally, metrics, extra = measure(workload, args.seconds)
    correct = tally.unexpected == 0 and extra.get("work_counts_repeat", True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed, "metrics": {k: {"value": v, "unit": u}
                                            for k, (v, u) in metrics.items()},
        **extra, "messages": tally.messages, "environment": environment(),
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:11s} {name:32s} {value:.6g} {unit}")
    print(f"{args.workload:11s} {'failed_frac':32s} {extra['failed_frac']:.6g} "
          f"({tally.failed}/{tally.attempted})")
    if "op_ms_tail_percentile" in extra:
        print(f"{args.workload:11s} op_ms_tail is p{extra['op_ms_tail_percentile']:.1f}"
              f" of {extra['ops']} ops")
    for message in tally.messages:
        print(f"{args.workload:11s} {message}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
