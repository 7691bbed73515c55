"""Per-layer spans recorded from outside the program.

The traced run wraps the public entry points of each layer (see
:data:`LAYER_ENTRY_POINTS`) with the benchmark's own span recorder while a
traced request runs, and removes the wrappers afterwards.  Spans live in
memory: name, start, end, parent span and request id.  A layer's self
time is its spans' durations minus the part their child spans cover; the
root span of each request is the benchmark itself, and its self time is
the time no wrapped layer accounts for.

Counters come from the program's own ``repro.telemetry`` session, which
is active only while a traced request runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: (module, attribute, layer).  ``Class.method`` attributes are patched on
#: the class; plain functions are patched in every ``repro`` module that
#: holds a reference to them, so ``from x import f`` bindings are covered.
LAYER_ENTRY_POINTS = (
    ("repro.stream_bench.harness", "StreamHarness.load_arrays", "maxeler.load"),
    ("repro.stream_bench.harness", "StreamHarness.run_app", "maxeler.compute"),
    ("repro.stream_bench.harness", "StreamHarness.offload_array", "maxeler.offload"),
    ("repro.program.analysis", "slot_disjoint", "program.slot_check"),
    ("repro.program.passes", "compile_program", "program.compile"),
    ("repro.program.fuse", "fusion_plan", "program.compile"),
    ("repro.program.engine", "execute", "program.run"),
    ("repro.core.polymem", "PolyMem.replay", "core.replay"),
    ("repro.kernels.matmul", "matmul", "kernels.run"),
    ("repro.kernels.transpose", "transpose", "kernels.run"),
    ("repro.kernels.stencil", "stencil_sweep", "kernels.run"),
    ("repro.kernels.jacobi", "jacobi_solve", "kernels.run"),
    ("repro.kernels.reduction", "reduce_rows", "kernels.run"),
    ("repro.kernels.reduction", "reduce_columns", "kernels.run"),
    ("repro.kernels.reduction", "load_matrix", "kernels.run"),
    ("repro.dse.explore", "explore", "dse.explore"),
    ("repro.dse.explore", "evaluate_points_batch", "dse.evaluate"),
    ("repro.dse.explore", "evaluate_point", "dse.evaluate"),
    ("repro.hw.synthesis", "SynthesisModel.estimate", "hw.estimate"),
    ("repro.hw.synthesis", "SynthesisModel.estimate_arrays", "hw.estimate"),
    ("repro.hw.synthesis", "SynthesisModel.estimate_many", "hw.estimate"),
    ("repro.maxpolymem.validation", "validate_points_batch", "maxpolymem.validate"),
    ("repro.maxpolymem.validation", "validate_config", "maxpolymem.validate"),
    ("repro.maxpolymem.validation", "validate_design", "maxpolymem.validate"),
    ("repro.exec.runtime", "run_sweep", "exec.sweep"),
    ("repro.dse.bandwidth", "achieved_bandwidth", "backend.bandwidth"),
    ("repro.experiments", "run_scorecard", "experiments.scorecard"),
)

#: the root span of every request
REQUEST = "request"


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int
    request: int


class SpanRecorder:
    """In-memory span stack; one request id per traced request."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request = -1

    def begin(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, time.perf_counter(), 0.0, parent, self.request))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = time.perf_counter()

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    # -- analysis --------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time per layer, over every recorded span."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, covered in zip(self.spans, child):
            totals[span.layer] = totals.get(span.layer, 0.0) + (span.end - span.start - covered)
        return totals

    def inclusive_times(self) -> dict[str, float]:
        """Total time per layer counting only its outermost spans."""
        totals: dict[str, float] = {}
        for span in self.spans:
            ancestor, nested = span.parent, False
            while ancestor >= 0:
                if self.spans[ancestor].layer == span.layer:
                    nested = True
                    break
                ancestor = self.spans[ancestor].parent
            if not nested:
                totals[span.layer] = totals.get(span.layer, 0.0) + (span.end - span.start)
        return totals

    def save(self, path: Path) -> None:
        """Chrome trace-event JSON (loads in ui.perfetto.dev)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.layer,
                "cat": s.layer.split(".")[0],
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"request": s.request, "parent": s.parent},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


class LayerPatches:
    """The wrappers of :data:`LAYER_ENTRY_POINTS`, installable around one
    traced request.  Binding sites are resolved once, after warm-up has
    imported every lazily loaded module."""

    def __init__(self, recorder: SpanRecorder):
        self.sites: list[tuple[object, str, object, object]] = []
        originals: dict[int, tuple[object, object]] = {}
        for module_name, attr, layer in LAYER_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self.sites.append((cls, meth, original, recorder.wrap(layer, original)))
            else:
                original = getattr(module, attr)
                originals[id(original)] = (original, recorder.wrap(layer, original))
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self.sites.append((module, attr, hit[0], hit[1]))

    def install(self) -> None:
        for owner, attr, _, wrapper in self.sites:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self.sites:
            setattr(owner, attr, original)


def layer_metrics(
    recorder: SpanRecorder,
    counters: dict,
    requests: int,
    extra: dict,
) -> tuple[dict[str, float], dict[str, str]]:
    """Every per-layer metric of the traced run, plus the reason each
    absent one is absent (its layer was never called, or a ratio has no
    denominator); absent metrics read 0.

    Times are seconds of self time per traced request; counts are totals
    over the traced requests; ratios are over the same requests.
    ``extra`` carries the metrics only the benchmark knows (the 700 KB
    Copy's simulated MB/s and efficiency, passing scorecard rows, the
    tracing overhead), by name.
    """
    self_t = recorder.self_times()
    incl_t = recorder.inclusive_times()
    values: dict[str, float] = {}
    absent: dict[str, str] = {}

    def c(name):
        return counters.get(name, 0)

    def timed(name, layer):
        values[name] = self_t.get(layer, 0.0) / requests
        if layer not in self_t:
            absent[name] = f"no traced request called {layer}"

    def counted(name, value, *sources):
        values[name] = value
        if not any(source in counters for source in sources):
            absent[name] = f"no traced request produced {', '.join(sources)}"

    def ratio(name, num, den):
        values[name] = num / den if den else 0.0
        if not den:
            absent[name] = "no events to take a ratio of"

    for layer in ("maxeler.compute", "maxeler.load", "maxeler.offload",
                  "program.compile", "program.run", "program.slot_check",
                  "core.replay", "kernels.run", "dse.explore", "dse.evaluate",
                  "hw.estimate", "maxpolymem.validate", "exec.sweep",
                  "backend.bandwidth", "experiments.scorecard"):
        timed(f"{layer}_s", layer)
    timed("trace.unattributed_s", REQUEST)
    batched, scalar = c("sim.cycles.batched"), c("sim.cycles.scalar")
    counted("maxeler.chunks", c("sim.chunks"), "sim.chunks")
    counted("maxeler.plan_rejects", c("sim.plan_rejects"), "sim.plan_rejects")
    counted("maxeler.sim_cycles", batched + scalar, "sim.cycles.batched", "sim.cycles.scalar")
    counted("maxeler.stall_cycles", c("sim.stall_cycles"), "sim.stall_cycles")
    counted("maxeler.pcie_payload_bytes", c("pcie.payload_bytes"), "pcie.payload_bytes")
    counted("program.fallback_steps", c("program.fusion.fallback_steps"),
            "program.fusion.steps")
    counted("core.collisions_forwarded", c("polymem.collision.forwarded"),
            "polymem.parallel_accesses")
    compute = c("exec.compute_seconds")
    counted("exec.compute_s", compute / requests, "exec.compute_seconds")
    counted("exec.overhead_s", (incl_t.get("exec.sweep", 0.0) - compute) / requests,
            "exec.compute_seconds")
    counted("exec.warmup_s", c("exec.warmup_seconds") / requests, "exec.warmup_seconds")
    counted("exec.ipc_s", c("exec.ipc_seconds") / requests, "exec.ipc_seconds")
    ratio("maxeler.cycles_per_chunk", batched, c("sim.chunks"))
    ratio("maxeler.batched_cycle_ratio", batched, batched + scalar)
    hits = c("program.fusion.kernel_cache.hits")
    ratio("program.fusion_hit_ratio", hits, hits + c("program.fusion.kernel_cache.misses"))
    hits = c("polymem.plan_cache.hits")
    ratio("core.plan_cache_hit_ratio", hits, hits + c("polymem.plan_cache.misses"))
    ratio("dse.prune_ratio", c("dse.batch.pruned"), c("dse.batch.candidates"))
    hits = c("exec.cache.hits")
    ratio("exec.cache_hit_ratio", hits, hits + c("exec.cache.misses"))
    hits = c("backend.dram.row_hits")
    ratio("backend.dram_row_hit_ratio", hits, hits + c("backend.dram.row_misses"))
    ratio("backend.dram_efficiency", c("backend.dram.useful_bytes"),
          c("backend.dram.transferred_bytes"))
    for name, value in extra.items():
        values[name] = value
    return values, absent
