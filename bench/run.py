"""Benchmark of the fowlerlab experiments: one workload per run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload semi_search|sign_change|shoot|archive_sweep
                         [--seed 0] [--seconds 20] [--trace 0|1]

The package is imported from the checkout's ``src/``.  Every run first runs
the workload's reference batch (fixed inputs; it also warms the process up)
and compares its verdict digest with the one recorded in ``workloads.py``.

``--trace 0`` runs untraced passes of the workload for ``--seconds`` and
reports the end-to-end metrics: set-up time (median of several fresh
processes), the pass time and operations per time in reference-kernel units
(see ``clock.py``) and peak resident memory.  The raw wall times are printed
beside them.  ``--trace 1`` alternates untraced and traced passes on the same
inputs and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin native thread pools before numpy loads, so a run uses one core per
# process (archive_sweep's two pool workers use the machine's two cores).
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("semi_search", "sign_change", "shoot", "archive_sweep")
#: Fresh processes timed per run for setup_s.
SETUP_PROBES = 5
#: Pool size of archive_sweep when untraced; traced runs use 1 because spans
#: recorded inside pool children do not come back.
POOL_WORKERS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


#: Units of the end-to-end metrics; per-layer units follow from the name.
END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref": "ref", "runs_per_ref": "1/ref", "peak_rss_mb": "MB",
    "wall_s": "s", "runs_per_s": "1/s", "failed_frac": "ratio",
}
#: Printed with the end-to-end metrics but left out of the result line: raw
#: wall time follows the shared host's speed, which drifts too far between
#: runs to gate on (see clock.py).
PRINTED_ONLY = ("wall_s", "runs_per_s", "failed_frac")


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("us_per_node"):
        return "us"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith(("_ratio", "_per_run", "_per_node", "_per_sample_call", "_frac")):
        return "ratio"
    return "count"


def machine_info() -> dict:
    import numpy
    import scipy
    from importlib.metadata import version

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": version("jsonschema"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_seconds(name: str, seed: int, workdir: str) -> float:
    """One fresh process: import, build the workload, one warm-up call."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), str(SRC), workdir],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(out.stdout.split()[-1])


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def measured_run(args, workload, workdir):
    """Untraced passes for the time budget, then set-up probes."""
    import clock

    # Children (pool workers, set-up probes) inherit the pinning.
    cpus = sorted(os.sched_getaffinity(0))[: workload.processes]
    os.sched_setaffinity(0, cpus)
    timer = clock.Clock(cpus)
    walls, results = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= args.seconds:
        timer.start_pass()
        wall, result = timed(workload.run_pass, len(walls), timer)
        walls.append(wall)
        results.append(result)
    # Read before the probes run: the only children so far are pool workers.
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setups = [setup_seconds(args.workload, args.seed, workdir) for _ in range(SETUP_PROBES)]
    ops = statistics.median(r.ops for r in results)
    wall_ref = timer.pass_ref()
    wall_s = timer.pass_seconds()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ref": wall_ref,
        "runs_per_ref": ops / wall_ref,
        "peak_rss_mb": peak_kb / 1024.0,
        "wall_s": wall_s,
        "runs_per_s": ops / wall_s,
    }
    notes = [
        f"setup_s: median of {SETUP_PROBES} fresh processes "
        f"({', '.join(f'{s:.3f}' for s in setups)} s)",
        f"{len(walls)} passes of {ops:g} operations in {len(timer.passes[0])} timed calls each; "
        f"the reference kernel took {1e3 * timer.ref_seconds():.2f} ms (median)",
        "wall_ref: per call of a pass, the median over passes of call time / kernel time, "
        "summed over the calls; runs_per_ref: operations per pass / wall_ref",
        "wall_s, runs_per_s: the same from raw call times (printed only)",
        "peak_rss_mb: benchmark process plus its largest child (pool worker)",
    ]
    return metrics, results, notes, True


def traced_run(args, workload):
    """Untraced and traced passes on the same inputs, alternately."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced, results, traced_ops = [], [], [], 0
    start = time.perf_counter()
    while not plain or (
        time.perf_counter() - start + statistics.median(plain) + statistics.median(traced)
        <= args.seconds
    ):
        k = len(plain)
        wall, result = timed(workload.run_pass, k)
        plain.append(wall)
        results.append(result)
        with tracer.patched():
            wall, result = timed(tracer.wrap("pass", workload.run_pass), k)
        traced.append(wall)
        results.append(result)
        traced_ops += result.ops
    metrics = tracer.layer_metrics(traced_ops)
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    metrics["trace.ops"] = traced_ops
    problems = tracer.problems()
    notes = [
        f"{len(plain)} untraced and {len(traced)} traced passes on the same inputs; "
        f"tracing overhead {100 * metrics['trace.overhead_frac']:+.1f}% "
        f"({sum(traced):.3f} s traced against {sum(plain):.3f} s untraced)",
        f"{len(tracer.spans)} spans, "
        + ("all inside their parents with nonnegative self time" if not problems
           else f"{len(problems)} inconsistent: " + "; ".join(problems[:5])),
    ]
    if args.workload == "archive_sweep":
        notes.append("archive_sweep runs sweep with workers=1 in both traced and untraced "
                     "passes: spans recorded inside pool children do not come back")
    return metrics, results, notes, not problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fowlerlab" / "__init__.py").is_file():
        print(f"error: no fowlerlab package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if not workloads.experiments.__file__.startswith(os.path.join(SRC, "")):
        print(f"error: fowlerlab imported from {workloads.experiments.__file__}", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        workers = 1 if args.trace else POOL_WORKERS
        workload = workloads.WORKLOADS[args.workload](args.seed, workers, workdir)
        reference = workloads.reference(args.workload, workers, workdir)
        got = workloads.digest(reference.verdicts)
        expected = workloads.REFERENCE_DIGESTS[args.workload]
        if args.trace:
            metrics, results, notes, consistent = traced_run(args, workload)
        else:
            metrics, results, notes, consistent = measured_run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted = reference.ops + sum(r.ops for r in results)
    failed = reference.failed + sum(r.failed for r in results)
    digest_ok = got == expected
    if not digest_ok:
        failed += reference.ops - reference.failed

    print(f"fowlerlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    print(f"reference batch: {reference.ops} operations, verdict digest {got} "
          f"({'matches' if digest_ok else 'differs from'} recorded {expected})")
    for note in notes:
        print("  " + note)
    metrics["failed_frac"] = failed / attempted
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0 and digest_ok and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items() if name not in PRINTED_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
