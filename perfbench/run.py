"""btucker benchmark: one closed-loop client runs a workload and prints its metrics.

    python3 perfbench/run.py --workload block-fit --seed 1000 --seconds 10 --trace 0

Run it from the repository root or anywhere else; it imports btucker from
``src/`` in the parent of this file's directory.  One client sends the workload's ops one
after another (a closed loop: the next op starts when the previous one
returns) and checks each op's output outside the timed region.  A pass is the
workload's fixed op set; passes repeat until ``--seconds`` have gone by, and
at least one runs.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics.  With ``--trace 1`` the run also repeats the set-up and one pass with
every public function of the layer modules wrapped, and reports the
per-layer metrics instead.  Lines before the last one are for people: the
environment, each op, every metric with its unit.  The full record, spans
included, goes to ``.perfbench/results/`` under the repository root.

Exit codes: 0 with a result (``correct`` says whether every output passed its
check), 1 when set-up fails, 2 when btucker cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import client
import tracing

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("block-fit", "block-certify", "matrix-cli")
SETUP_REPEATS = 3
MAX_BLAS_THREADS = 2
IMPORTS = "numpy, scipy.special, btucker"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance base seed, 1000 or 4000)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep starting passes until this many seconds have gone by")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas_threads() -> int:
    """Set the BLAS thread count for this process and its children; numpy must not be loaded yet."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def child_import_seconds() -> float:
    """Seconds from spawning a fresh interpreter to its having imported the package.

    The child reads the same monotonic clock as this process.
    """
    code = (f"import sys, time; sys.path.insert(0, sys.argv[1]); import {IMPORTS}; "
            "print(repr(time.perf_counter()))")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    if not (SRC / "btucker" / "__init__.py").is_file():
        print(f"error: no btucker package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import btucker
    import workloads

    if Path(btucker.__file__).resolve().parent != (SRC / "btucker").resolve():
        print(f"error: imported btucker from {btucker.__file__}, not {SRC}", file=sys.stderr)
        return 2
    own_import_s = time.perf_counter() - START

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    workload = workloads.make_workload(args.workload, seed, OUT / "work")
    try:
        setup_reps = [timed(workload.setup) for _ in range(SETUP_REPEATS)]
        import_reps = [child_import_seconds() for _ in range(SETUP_REPEATS)]
    except Exception:
        traceback.print_exc()
        print(f"error: set-up of {args.workload} failed", file=sys.stderr)
        return 1

    passes = client.run_loop(workload, args.seconds)
    ops = [r for p in passes for r in p]
    record = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "own_import_s": own_import_s, "setup_reps_s": setup_reps,
              "child_import_reps_s": import_reps}

    if args.trace:
        tracer, traced = client.traced_run(workload)
        ops += traced
        untraced_wall = (statistics.median(setup_reps)
                         + statistics.median(client.pass_wall(p) for p in passes))
        metrics = tracing.layer_metrics(tracer.spans, tracer.ops, untraced_wall)
        record["spans"] = [s.to_dict() for s in tracer.spans]
    else:
        metrics = client.end_to_end_metrics(passes, setup_reps, import_reps)

    failed = sum(r.failure is not None for r in ops)
    record["ops"] = [vars(r) for r in ops]
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    env = record["environment"]
    print(f"# {args.workload} seed {seed}: closed loop, one client, {len(passes)} pass(es) "
          f"of {len(passes[0])} ops" + (", then set-up and one pass traced" if args.trace else ""))
    print(f"# commit {env['git_commit']}  nproc {env['nproc']}  cpu {env['cpu_model']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  blas {env['blas']}  "
          f"blas threads {threads}")
    for r in ops:
        print(f"# op {r.id:<28} {r.seconds:9.4f} s  {r.failure or 'ok'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f" (n={len(ops)} ops)" if name == "op_s_p50" else ""))
    print(f"error_rate {failed / len(ops):.6g} ratio ({failed} failed of {len(ops)} ops)")
    if args.trace:
        print("# decomp.hooi_gflops is computed: flops per iteration from dims and ranks")
        print("# no layer queues or waits: one process, one thread, calls run to completion")

    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}_seed{seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"# record written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
