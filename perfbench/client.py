"""The closed-loop client: one caller runs a workload's ops back to back and times each one."""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

import tracing


@dataclass
class OpRecord:
    id: str
    seconds: float
    failure: str | None   # None when the op returned and its output passed the check


def run_pass(workload, label: str, tracer: tracing.Tracer | None = None) -> list[OpRecord]:
    """One pass over the workload's fixed op set; each op is timed, then checked untimed."""
    records = []
    for i, op in enumerate(workload.ops()):
        op_id = f"{label}.{i}:{op.label}"
        start = time.perf_counter()
        try:
            with tracer.op(op_id) if tracer else nullcontext():
                out = op.run()
            seconds = time.perf_counter() - start
            failure = op.check(out)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            seconds = time.perf_counter() - start
            failure = f"{type(exc).__name__}: {exc}"
        records.append(OpRecord(op_id, seconds, failure))
    return records


def run_loop(workload, seconds: float) -> list[list[OpRecord]]:
    """Whole passes until `seconds` have gone by and the workload's minimum has run."""
    passes = []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, f"p{len(passes)}"))
    return passes


def traced_run(workload) -> tuple[tracing.Tracer, list[OpRecord]]:
    """Set-up and one pass with the layer modules wrapped; the wrappers are gone afterwards."""
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.op("setup"):
            workload.setup()
        records = run_pass(workload, "traced", tracer)
    return tracer, records


def pass_wall(records: list[OpRecord]) -> float:
    return sum(r.seconds for r in records)


def end_to_end_metrics(passes, setup_reps, import_reps) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of an untraced run, as name -> (value, unit)."""
    return {
        "wall_s": (statistics.median(pass_wall(p) for p in passes), "s"),
        "op_s_p50": (statistics.median(r.seconds for p in passes for r in p), "s"),
        "setup_s": (statistics.median(import_reps) + statistics.median(setup_reps), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
