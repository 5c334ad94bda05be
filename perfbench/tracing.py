"""Span tracing around calls into the btucker modules, and the per-layer metrics.

The tracer wraps every public function of the layer modules where callers look
it up: as an attribute of each layer module's namespace.  That covers calls
from the benchmark (``cli.run_member``), calls between modules
(``cli`` -> ``decomp.hooi``) and calls to names a module imported from another
(``decomp`` calls ``unfold``, a ``tensor`` function, through its own global).
Private kernels (``_HooiWorkspace.contracted``, ``_top_left_vectors``) are not
wrapped; their time is self time of the public function that runs them.

Spans are kept in memory and written out when the benchmark ends.  A span
records its name (``layer.function``), start, end, parent span and op id;
only calls made while an op is open are recorded.  Self time is a span's
duration minus the time its child spans cover.  Everything runs in one
thread, so children never overlap and nothing queues or waits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass, field

PACKAGE = "btucker"
LAYERS = ("datagen", "tensor", "linalg", "decomp", "select", "cli")

# Entry points whose decomp self time (their own plus that of decomp calls
# nested inside them) is reported as a group.
DECOMP_GROUPS = {
    "decomp.hooi": "hooi",
    "decomp.btud_fit": "btud",
    "decomp.posterior_stats": "posterior",
    "decomp.self_consistency_check": "consistency",
}

TENSOR_WRITES = ("tensor.write_tensor", "tensor.write_matrix")
TENSOR_READS = ("tensor.read_tensor", "tensor.read_matrix", "tensor.data_kind")


@dataclass
class Span:
    id: int
    parent: int | None
    op: str
    name: str
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "op": self.op, "name": self.name,
                "start": self.start, "end": self.end, "counts": self.counts}


def hooi_flops_per_iter(dims, ranks) -> float:
    """Flops of one HOOI iteration as implemented in decomp (computed, not measured).

    Per mode: two GEMMs for the contraction, the Gram product, a symmetric
    eigendecomposition (counted as 9 n^3) and the back-projection; plus the
    projected core from the mode-3 contraction.
    """
    n, m, k = dims
    l1, l2, l3 = ranks
    modes = (  # (rows, flops of the two contraction GEMMs, kept columns, rank)
        (n, 2.0 * n * m * k * l3 + 2.0 * n * l3 * m * l2, l2 * l3, l1),
        (m, 2.0 * m * k * n * l1 + 2.0 * m * l1 * k * l3, l1 * l3, l2),
        (k, 2.0 * k * m * n * l1 + 2.0 * k * l1 * m * l2, l1 * l2, l3),
    )
    flops = 2.0 * l3 * k * l1 * l2
    for rows, gemms, cols, rank in modes:
        flops += gemms + 2.0 * rows * cols * cols + 9.0 * cols**3 + 2.0 * rows * cols * rank
    return flops


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _path_arg(args, kwargs, position: int):
    return kwargs.get("path", args[position] if len(args) > position else None)


def _counts(name: str, args, kwargs, result) -> dict:
    """Counts recorded at the boundary of a traced call, from its arguments and result."""
    if name == "decomp.hooi":
        t, ranks = args[0], kwargs.get("ranks", args[1] if len(args) > 1 else None)
        return {"iters": result[1].sweeps, "converged": bool(result[1].converged),
                "flops_per_iter": hooi_flops_per_iter(t.dims, tuple(ranks))}
    if name == "decomp.btud_fit":
        return {"sweeps": result[2].sweeps}
    if name == "decomp.self_consistency_check":
        return {"dev": max(result.max_mode_deviation, result.core_deviation)}
    if name == "select.select_features":
        return {"selected": result.n_selected}
    if name in TENSOR_WRITES:
        return {"bytes": _file_size(_path_arg(args, kwargs, 1))}
    if name in ("tensor.read_tensor", "tensor.read_matrix"):
        return {"bytes": _file_size(_path_arg(args, kwargs, 0))}
    return {}


class Tracer:
    """Records spans around the layer modules' public functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.ops: list[tuple[str, float, float]] = []  # (op id, start, end)
        self._stack: list[Span] = []
        self._op: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- installing and restoring ------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function in every layer namespace."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        owners = {f"{PACKAGE}.{layer}" for layer in LAYERS}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ not in owners):
                    continue
                self._patched.append((module, attr, value))
                setattr(module, attr, self._wrap(value))

    def uninstall(self) -> None:
        """Put every original function back and verify that it is back."""
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        left = [f"{m.__name__}.{a}" for m, a, o in self._patched if getattr(m, a) is not o]
        self._patched = []
        if left:
            raise RuntimeError(f"traced attributes not restored: {left}")

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Open an op: calls made inside it are recorded with this op id."""
        if self._op is not None:
            raise RuntimeError(f"op {self._op!r} is still open")
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ops.append((op_id, start, time.perf_counter()))
            self._op = None

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(len(tracer.spans), parent, tracer._op, name, time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            span.counts = _counts(name, args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, covered)]


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for s, own in zip(spans, self_times(spans)):
        out[s.layer] += own
    return out


def untraced_remainder(spans: list[Span], ops) -> float:
    """Time inside ops that no span covers: the benchmark's own code between calls."""
    roots = sum(s.seconds for s in spans if s.parent is None)
    return sum(end - start for _, start, end in ops) - roots


def decomp_group_self_times(spans: list[Span]) -> dict[str, float]:
    """decomp self time grouped by the outermost decomp entry point it ran under."""
    own = self_times(spans)
    out = dict.fromkeys(DECOMP_GROUPS.values(), 0.0)
    for s, t in zip(spans, own):
        if s.layer != "decomp":
            continue
        outer, node = s, s
        while node.parent is not None:
            node = spans[node.parent]
            if node.layer == "decomp":
                outer = node
        group = DECOMP_GROUPS.get(outer.name)
        if group is not None:
            out[group] += t
    return out


def layer_metrics(spans: list[Span], ops, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark, as name -> (value, unit)."""
    own = self_times(spans)
    layer = layer_self_times(spans)
    groups = decomp_group_self_times(spans)

    def total(names, key=None) -> float:
        names = (names,) if isinstance(names, str) else names
        if key is None:
            return sum((t for s, t in zip(spans, own) if s.name in names), 0.0)
        return sum(s.counts.get(key, 0) for s in spans if s.name in names)

    def calls(names) -> int:
        names = (names,) if isinstance(names, str) else names
        return sum(1 for s in spans if s.name in names)

    hooi = [s for s in spans if s.name == "decomp.hooi"]
    iters = sum(s.counts["iters"] for s in hooi)
    flops = sum(s.counts["iters"] * s.counts["flops_per_iter"] for s in hooi)
    hooi_self = total("decomp.hooi")
    traced_wall = sum(end - start for _, start, end in ops)
    devs = [s.counts["dev"] for s in spans if s.name == "decomp.self_consistency_check"]

    metrics = {f"{name}.self_s": (layer[name], "s") for name in LAYERS}
    metrics.update({
        "decomp.hooi_iters": (iters, "count"),
        "decomp.hooi_iters_max": (max((s.counts["iters"] for s in hooi), default=0), "count"),
        "decomp.hooi_self_s": (hooi_self, "s"),
        "decomp.hooi_ms_per_iter": (1e3 * hooi_self / iters if iters else 0.0, "ms"),
        "decomp.hooi_gflops": (flops / hooi_self / 1e9 if hooi_self > 0 else 0.0, "GFLOP/s"),
        "decomp.btud_self_s": (groups["btud"], "s"),
        "decomp.btud_sweeps": (total("decomp.btud_fit", "sweeps"), "count"),
        "decomp.posterior_self_s": (groups["posterior"], "s"),
        "decomp.consistency_self_s": (groups["consistency"], "s"),
        "decomp.consistency_dev_max": (max(devs, default=0.0), "abs"),
        "datagen.calls": (sum(1 for s in spans if s.layer == "datagen"), "count"),
        "tensor.write_self_s": (total(TENSOR_WRITES), "s"),
        "tensor.read_self_s": (total(TENSOR_READS), "s"),
        "tensor.write_bytes": (total(TENSOR_WRITES, "bytes"), "B"),
        "tensor.read_bytes": (total(TENSOR_READS, "bytes"), "B"),
        "linalg.svd_self_s": (total("linalg.svd"), "s"),
        "linalg.svd_calls": (calls("linalg.svd"), "count"),
        "linalg.pinv_self_s": (total("linalg.pseudoinverse"), "s"),
        "linalg.pinv_calls": (calls("linalg.pseudoinverse"), "count"),
        "select.chi2_calls": (calls("select.chi2_sf"), "count"),
        "select.selected": (total("select.select_features", "selected"), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.remainder_s": (untraced_remainder(spans, ops), "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.spans": (len(spans), "count"),
    })
    return metrics
