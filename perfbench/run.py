"""meanreduce benchmark: checked verdict time end to end, solve counts per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload scalar-lab --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when a correctness check fails and 2 when the library cannot be found.
Outputs (verify reports, the result record, the spans) go to
``.perfbench_out/`` in the repository root.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

# One thread everywhere: the workloads are single-threaded by design, and an
# unpinned BLAS would add thread start-up noise on a two-core machine.
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
# Untraced passes per run at least; a traced run alternates untraced and
# traced passes, and counts must repeat between traced passes.
MIN_PASSES = 2
WORKLOAD_NAMES = ("scalar-lab", "nested-scalar", "vector-hull")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "meanreduce", "__init__.py")):
        print(f"error: meanreduce sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    os.makedirs(OUTDIR, exist_ok=True)
    from bench import run_workload

    def probe() -> dict:
        return setup_once(args.workload, args.seed)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          OUTDIR, probe, SETUP_REPEATS, MIN_PASSES)
    record = dict(result.record, environment=environment(args))
    path = os.path.join(OUTDIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for line in result.lines:
        print(line)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result.summary, sort_keys=True))
    return 0 if result.summary["correct"] else 1


def setup_once(workload: str, seed: int) -> dict:
    """Set-up in a fresh interpreter: import, load suites, build runners."""
    probe = os.path.join(HERE, "setup_probe.py")
    done = subprocess.run([sys.executable, probe, workload, str(seed), OUTDIR],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": PINNED,
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_all(args) -> int:
    """Every workload in its own process; one table, one exit code."""
    worst = 0
    table = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        started = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        summary = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        worst = max(worst, done.returncode)
        if summary is None:
            table.append(f"{name}: no result (exit {done.returncode})")
            continue
        table.append(f"== {name}: correct={summary['correct']} attempted={summary['attempted']} "
                     f"failed={summary['failed']} ({time.perf_counter() - started:.0f} s)")
        for metric, entry in sorted(summary["metrics"].items()):
            table.append(f"   {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
    print("\n".join(table))
    return worst


if __name__ == "__main__":
    sys.exit(main())
