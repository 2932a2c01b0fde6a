"""presnov benchmark: one workload, one seed, closed loop with one client.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 20 --trace 0

Jobs run back to back in one process, in rounds of the workload's fixed
job list, until ``--seconds`` have passed (a started round is finished).
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the first half of the time runs
untraced, the second half traced, and the metrics are the per-layer ones
(per round of the job list).  The line before it is a JSON detail block:
machine, tail percentile, per-group counts and any failures.

The benchmark imports presnov from ``src/`` of the checkout it sits in
and writes only a temporary directory there.  See README.md beside this
file for the workloads and the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 3
MIN_ROUNDS = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
ACCURACY_CAP = 12.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MiB",
    "pass_rate": "ratio",
    "accuracy_digits": "digits",
}


def _span_units(name):
    return {f"{name}.calls": "count", f"{name}.total_s": "s", f"{name}.self_s": "s"}


PER_LAYER_UNITS = {
    **_span_units("decomposition.verify_decomposition"),
    "decomposition.verify.idempotence_s": "s",
    "decomposition.verify.residual_potential_s": "s",
    "decomposition.verify.nested_share": "ratio",
    **_span_units("quadrature.integrate_unit"),
    "quadrature.integrate_unit.nodes": "count",
    "quadrature.integrate_unit.node_components": "count",
    "quadrature.integrate_unit.nodes_per_call": "nodes/call",
    "fields.evaluate_many.calls": "count",
    "fields.evaluate_many.points": "count",
    "fields.evaluate_many.points_per_call": "points/call",
    "fields.evaluate_many.self_s": "s",
    **_span_units("decomposition.potential_many"),
    **_span_units("decomposition.gradient_potential_many"),
    **_span_units("decomposition.gradient_potential_integral_many"),
    **_span_units("decomposition.decompose_many"),
    **_span_units("radial.paired_probe"),
    **_span_units("radial.coercivity_probe"),
    **_span_units("radial.boundary_certificate"),
    **_span_units("equilibria.find_equilibrium"),
    **_span_units("equilibria.find_equilibrium_conservative"),
    **_span_units("equilibria.perturbed_existence"),
    "equilibria.starts": "count",
    "equilibria.solve_success_ratio": "ratio",
    "equilibria.field_calls_per_solve": "calls/solve",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def _cap_threads():
    # One client on a small machine: pin BLAS/OpenMP pools to one thread
    # (at most nproc) before numpy is imported.
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "sweep", "solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------


class Ledger:
    """Latencies, failures and accuracy of every job executed in the timed phases."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.worst_error = 0.0

    def run(self, job, tracer=None):
        """Run and check one job; returns its latency.  Only ``job.run`` is traced."""
        self.attempted += 1
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            output = job.run()
        except Exception as exc:  # a job that raises is a failed job, not a crash
            elapsed = time.perf_counter() - start
            self.failures.append(f"{job.group}: raised {type(exc).__name__}: {exc}")
            return elapsed
        finally:
            if tracer is not None:
                tracer.active = False
        elapsed = time.perf_counter() - start
        try:
            error = job.check(output)
        except Exception as exc:  # CheckFailed, or output too malformed to check
            self.failures.append(f"{job.group}: {type(exc).__name__}: {exc}")
        else:
            self.worst_error = max(self.worst_error, float(error))
        return elapsed


def run_rounds(jobs, seconds, min_rounds, run_job, after_round=None):
    """Rounds of the job list until ``seconds`` have passed; per-job latencies per round."""
    deadline = time.perf_counter() + seconds
    rounds = []
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        rounds.append([run_job(job) for job in jobs])
        if after_round is not None:
            after_round()
    return rounds


def tail_percentile(count):
    """Highest ladder percentile with at least ten of ``count`` jobs beyond it."""
    for p in TAIL_LADDER:
        if count - math.ceil(p / 100.0 * count) >= 10:
            return p
    return None


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.machine()


def _git_commit():
    """The commit of a git checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_block():
    import platform

    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import presnov; print(time.perf_counter() - start)"
)


def import_seconds():
    """Median time of ``import presnov`` in SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True, text=True, check=True, timeout=60
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def setup(workload, seed, workdir, ledger):
    """Set-up time and job list: import, build the inputs, run one warm-up job.

    The import is timed in fresh interpreters; building the fields and
    inputs from the seed plus one warm-up job is timed in this process.
    Each is repeated SETUP_REPEATS times and the medians are summed.
    """
    import_s = import_seconds()
    import workloads

    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        jobs = workloads.BUILDERS[workload](seed, workdir)
        build_s = time.perf_counter() - start
        builds.append(build_s + ledger.run(jobs[0]))
    return jobs, import_s + statistics.median(builds)


def end_to_end(jobs, seconds, setup_s, ledger):
    rounds = run_rounds(jobs, seconds, MIN_ROUNDS, ledger.run)
    latencies = [t for r in rounds for t in r]
    # Later rounds repeat the same inputs, so the tail percentile counts
    # distinct jobs: ten jobs of the list must lie beyond it.  It is fixed
    # per workload and does not move when a run fits a round more or less.
    tail_p = tail_percentile(len(jobs))
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": statistics.median(len(r) / sum(r) for r in rounds),
        "job_p50_s": percentile(latencies, 50.0),
        "job_tail_s": percentile(latencies, tail_p),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "rounds": len(rounds),
        "jobs_per_round": len(jobs),
        "tail": {
            "percentile": tail_p,
            "distinct_jobs": len(jobs),
            "distinct_jobs_beyond": len(jobs) - math.ceil(tail_p / 100.0 * len(jobs)),
            "samples": len(latencies),
        },
    }
    return metrics, detail


def traced(jobs, seconds, ledger):
    """Untraced then traced rounds; per-layer metrics per round of the job list."""
    from selftest import run_selftest
    from tracer import DETERMINISTIC, Tracer

    plain = run_rounds(jobs, seconds / 2.0, 1, ledger.run)
    tracer = Tracer()
    snapshots, groups = [], {}

    def run_job(job):
        before = dict(tracer.counts)
        elapsed = ledger.run(job, tracer)
        if not snapshots:  # per-group counts, from the first traced round
            group = groups.setdefault(job.group, {})
            for name in DETERMINISTIC:
                group[name] = group.get(name, 0) + tracer.counts[name] - before.get(name, 0)
        return elapsed

    def next_round():
        snapshots.append(tracer.snapshot())
        tracer.reset()

    tracer.install()
    try:
        traced_rounds = run_rounds(jobs, seconds / 2.0, 2, run_job, after_round=next_round)
    finally:
        tracer.uninstall()

    problems = run_selftest()
    counters = [{name: s.get(name, 0) for name in DETERMINISTIC} for s in snapshots]
    if any(c != counters[0] for c in counters):
        problems.append(f"deterministic counters differ between traced rounds: {counters}")

    # Counts from one round (they repeat exactly); times as the median round.
    first = snapshots[0]
    metrics = {
        name: statistics.median(s.get(name, 0) for s in snapshots) if name.endswith("_s") else first.get(name, 0)
        for name in PER_LAYER_UNITS
    }

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics["decomposition.verify.nested_share"] = ratio(
        metrics["decomposition.verify.idempotence_s"] + metrics["decomposition.verify.residual_potential_s"],
        metrics["decomposition.verify_decomposition.total_s"],
    )
    metrics["quadrature.integrate_unit.nodes_per_call"] = ratio(
        first.get("quadrature.integrate_unit.nodes", 0), first.get("quadrature.integrate_unit.calls", 0)
    )
    metrics["fields.evaluate_many.points_per_call"] = ratio(
        first.get("fields.evaluate_many.points", 0), first.get("fields.evaluate_many.calls", 0)
    )
    metrics["equilibria.solve_success_ratio"] = ratio(
        first.get("equilibria.successful_solves", 0), first.get("equilibria.starts", 0)
    )
    metrics["equilibria.field_calls_per_solve"] = ratio(
        first.get("equilibria.solve_field_calls", 0), first.get("equilibria.solves", 0)
    )
    metrics["trace.overhead_s"] = statistics.median(sum(r) for r in traced_rounds) - statistics.median(
        sum(r) for r in plain
    )
    for group in groups.values():
        group["nodes_per_call"] = ratio(
            group["quadrature.integrate_unit.nodes"], group["quadrature.integrate_unit.calls"]
        )
    detail = {
        "rounds": {"untraced": len(plain), "traced": len(snapshots)},
        "jobs_per_round": len(jobs),
        "groups": groups,
        "selftest_problems": problems,
    }
    return metrics, detail, problems


def main(argv=None):
    args = _parse_args(argv)
    _cap_threads()
    if not os.path.isfile(os.path.join(SRC, "presnov", "__init__.py")):
        print(f"error: presnov sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    setup_ledger, ledger = Ledger(), Ledger()
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        jobs, setup_s = setup(args.workload, args.seed, workdir, setup_ledger)
        if args.trace:
            metrics, detail, problems = traced(jobs, args.seconds, ledger)
            units = PER_LAYER_UNITS
        else:
            metrics, detail = end_to_end(jobs, args.seconds, setup_s, ledger)
            problems = []
            units = END_TO_END_UNITS

    attempted = ledger.attempted
    failed = len(ledger.failures)
    if not args.trace:
        metrics["pass_rate"] = (attempted - failed) / attempted
        metrics["accuracy_digits"] = min(ACCURACY_CAP, -math.log10(max(ledger.worst_error, 10.0**-ACCURACY_CAP)))
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=machine_block(),
        worst_normalised_error=ledger.worst_error,
        failures=(setup_ledger.failures + ledger.failures)[:20],
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not (setup_ledger.failures or ledger.failures or problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
