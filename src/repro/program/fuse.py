"""Kernel fusion: cached trace kernels for compiled programs.

Every :class:`~repro.program.passes.TraceStep` runs through one trace
executor: :func:`~repro.core.plan.derive_kernel` turns the step's
streams into a :class:`~repro.core.plan.TraceKernel` (slot tables plus
the collision-forwarding gather pairs) and
:func:`~repro.core.plan.run_kernel` executes it — the same two calls
:meth:`PolyMem.replay <repro.core.polymem.PolyMem.replay>` makes per
trace.  None of the derivation depends on the *data*, only on the
anchors and the memory geometry, so for a program executed more than
once — parameter sweeps, benchmark repetitions, the PRF machine
re-issuing the same operand shapes — re-deriving it is pure overhead.

:func:`fusion_plan` removes it.  It walks the compiled segment list,
groups adjacent segments inside barrier-free regions, and derives each
group once against the concrete memories into a *group kernel*:

* every step's trace kernel is derived once;
* runs of adjacent read-only steps on one memory with one port layout
  collapse into a single fused gather (their tables concatenate — even
  across stride or kind changes the trace coalescer must split on);
* anything without a kernel — a bad cycle (out of range, in conflict, a
  wrong lane width, a ``forbid`` collision), an out-of-range port, a
  describe-only write, an empty step — runs through
  :meth:`~repro.core.polymem.PolyMem.replay`, whose serial error path
  keeps error behaviour, partial state and cycle accounting exact.

Group kernels are cached content-addressed in the module-level
:data:`kernel_cache`, keyed the way :mod:`repro.exec.cache` keys sweep
results: a SHA-256 over a canonical header (memory geometry, collision
policy, per-step access structure, write-value shapes) plus the raw
anchor bytes.  Two executions of structurally identical programs — same
anchors, same geometry, any data — share one kernel.

Specialization is per ``(scheme, lane grid, collision policy)`` by
construction: all three are part of the key, and the precomputed
forwarding indices bake the policy's visibility rule in.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Any, Mapping

import numpy as np

from ..core.exceptions import PolyMemError
from ..core.plan import (
    TraceKernel,
    _Stream,
    charge_trace,
    derive_kernel,
    run_kernel,
)
from ..telemetry import context as _telemetry

__all__ = [
    "FusionPlan",
    "KernelCache",
    "fusion_plan",
    "kernel_cache",
]

#: version tag of the kernel-key format; bump on any change to the key
#: header or the cached kernel structure
KEY_FORMAT = "repro.program.fuse/2"

_MISS = object()


class KernelCache:
    """A small LRU of compiled group kernels, content-addressed by key.

    Kernels hold only geometry-derived index tables (never data), so a
    hit is valid for any memory contents; the LRU bound keeps the large
    precomputed tables of one-shot programs from accumulating.
    """

    def __init__(self, maxsize: int = 64):
        self.maxsize = maxsize
        self._entries: OrderedDict[str, tuple] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str):
        entry = self._entries.get(key, _MISS)
        tel = _telemetry.active()
        if entry is _MISS:
            self.misses += 1
            if tel is not None:
                tel.metrics.counter("program.fusion.kernel_cache.misses").inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if tel is not None:
            tel.metrics.counter("program.fusion.kernel_cache.hits").inc()
        return entry

    def put(self, key: str, kernel) -> None:
        self._entries[key] = kernel
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def ensure(self, key: str, build) -> tuple:
        """The kernel under *key*, building (and caching) it on a miss.

        Returns ``(kernel, hit)``.
        """
        kernel = self.get(key)
        if kernel is not None:
            return kernel, True
        kernel = build()
        self.put(key, kernel)
        return kernel, False

    def clear(self) -> None:
        self._entries.clear()
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: the process-wide kernel cache (mirrors the plan cache's sharing model)
kernel_cache = KernelCache()


# ---------------------------------------------------------------------------
# content-addressed group keys


def _kind_token(kind):
    if isinstance(kind, list):
        return [k.value for k in kind]
    return kind.value


def _span_token(start: int, stop: int, src) -> list:
    if src is None:
        return [start, stop, "none"]
    if callable(src):
        return [start, stop, "callable"]
    # concrete value *shapes* classify the kernel (the lane-width check
    # happens at build time); the data itself never enters the key
    return [start, stop, "array", list(np.asarray(src).shape)]


def group_key(segments, mems: Mapping[str, Any]) -> str:
    """The content address of one barrier-free segment group.

    SHA-256 over a canonical JSON header — memory geometry + collision
    policy per memory, access structure per step — followed by the raw
    anchor bytes of every stream, mirroring how ``repro.exec.cache``
    derives sweep keys.
    """
    header: dict = {"format": KEY_FORMAT, "mems": {}, "segments": []}
    blobs: list[np.ndarray] = []

    def add_anchors(ai, aj) -> None:
        blobs.append(np.ascontiguousarray(ai, dtype=np.int64))
        blobs.append(np.ascontiguousarray(aj, dtype=np.int64))

    for name in sorted({s.mem for seg in segments for s in seg.steps}):
        pm = mems[name]
        header["mems"][name] = [
            pm.rows, pm.cols, pm.p, pm.q, str(pm.scheme),
            pm.collision_policy, pm.read_ports,
            str(pm.banks.dtype), int(pm.banks.bank_depth),
        ]
    for seg in segments:
        seg_desc = []
        for step in seg.steps:
            reads_desc = []
            for port, (kind, ai, aj, stride) in step.reads.items():
                reads_desc.append([port, _kind_token(kind), stride])
                add_anchors(ai, aj)
            write_desc = None
            if step.write is not None:
                kind, ai, aj, stride, pieces = step.write
                write_desc = [
                    _kind_token(kind), stride,
                    [_span_token(*piece) for piece in pieces],
                ]
                add_anchors(ai, aj)
            seg_desc.append([step.mem, step.n, reads_desc, write_desc])
        header["segments"].append(seg_desc)
    h = hashlib.sha256()
    h.update(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
    for blob in blobs:
        h.update(b"\0")
        h.update(blob.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# kernel construction


def _derive(step, pm):
    """The :class:`TraceKernel` of *step* on *pm*, or ``None`` to leave
    the step on :meth:`PolyMem.replay`'s path."""
    if step.n == 0 or any(not 0 <= port < pm.read_ports for port in step.reads):
        return None  # replay's early exits: the empty trace, the PortError
    if step.write is not None and any(src is None for *_, src in step.write[4]):
        return None  # describe-only: execution must raise ProgramError
    try:
        reads = {port: _Stream(*spec) for port, spec in step.reads.items()}
        write = None
        if step.write is not None:
            kind, ai, aj, stride, _ = step.write
            values = step.write_values({}) if step.concrete else None
            write = _Stream(kind, ai, aj, stride, values)
        kernel = derive_kernel(reads, write, pm)
    except PolyMemError:
        return None
    return kernel if isinstance(kernel, TraceKernel) else None


def _build_group_kernel(segments, mems: Mapping[str, Any]) -> tuple:
    """Specialize one segment group: a tuple of per-segment unit lists.

    Units are ``("run", step_indices, {port: concatenated_slots})`` for a
    fused read gather, ``("write", step_index, TraceKernel)`` for a step
    with a write stream, or ``("replay", step_index)`` for the replay path.
    """
    kernel = []
    for seg in segments:
        units: list[tuple] = []
        run: list[tuple[int, dict]] = []  # (step index, read tables)
        run_mem = run_ports = None

        def flush_run() -> None:
            nonlocal run, run_mem, run_ports
            if not run:
                return
            cat = {
                port: np.ascontiguousarray(
                    np.concatenate([tabs[port] for _, tabs in run])
                )
                for port in run_ports
            }
            units.append(("run", tuple(idx for idx, _ in run), cat))
            run, run_mem, run_ports = [], None, None

        for idx, step in enumerate(seg.steps):
            derived = _derive(step, mems[step.mem])
            if derived is None:
                flush_run()
                units.append(("replay", idx))
                continue
            if derived.w_slots is not None:
                flush_run()
                units.append(("write", idx, derived))
                continue
            ports = tuple(derived.reads)
            if run and (step.mem != run_mem or ports != run_ports):
                flush_run()
            if not run:
                run_mem, run_ports = step.mem, ports
            run.append((idx, derived.reads))
        flush_run()
        kernel.append(tuple(units))
    return tuple(kernel)


# ---------------------------------------------------------------------------
# the plan: grouped segments bound to their kernels


def _split_groups(segments) -> list[list]:
    """Maximal barrier-free segment runs (a Barrier boundary closes one).

    Compute boundaries do *not* split groups — host work between accesses
    is inlined into the group's execution, index tables intact."""
    from .ir import Barrier

    groups: list[list] = []
    current: list = []
    for seg in segments:
        current.append(seg)
        if isinstance(seg.boundary, Barrier):
            groups.append(current)
            current = []
    if current:
        groups.append(current)
    return groups


class FusionPlan:
    """A compiled program's segments bound to specialized group kernels."""

    __slots__ = (
        "units", "n_groups", "n_fused_steps", "n_fallback_steps",
        "cache_hits", "cache_misses",
    )

    def __init__(self, units, n_groups, cache_hits, cache_misses):
        self.units = units  # dict: segment index -> unit tuple
        self.n_groups = n_groups
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        self.n_fused_steps = 0
        self.n_fallback_steps = 0
        for seg_units in units.values():
            for unit in seg_units:
                if unit[0] == "replay":
                    self.n_fallback_steps += 1
                elif unit[0] == "run":
                    self.n_fused_steps += len(unit[1])
                else:
                    self.n_fused_steps += 1

    @property
    def n_fused_segments(self) -> int:
        """Segments with at least one fused (non-fallback) step."""
        return sum(
            1
            for seg_units in self.units.values()
            if any(unit[0] != "replay" for unit in seg_units)
        )

    def summary(self) -> dict:
        """Plain-JSON fusion statistics (the ``repro program dump`` view)."""
        return {
            "groups": self.n_groups,
            "fused_segments": self.n_fused_segments,
            "fused_steps": self.n_fused_steps,
            "fallback_steps": self.n_fallback_steps,
            "kernel_cache": {
                "plan_hits": self.cache_hits,
                "plan_misses": self.cache_misses,
                **kernel_cache.stats(),
            },
        }

    # -- execution ----------------------------------------------------------
    @staticmethod
    def _publish(segment, step, outputs, mem, env, observers) -> None:
        for tag, port, start, stop in step.bindings:
            env[tag] = outputs[port][start:stop]
        for observer in observers:
            observer.on_trace(segment, step, outputs, mem)

    def run_segment(self, segment, mems, env, observers) -> None:
        """Execute one segment's steps through its kernel units.

        Same outputs, bindings, memory state, statistics, error behaviour
        and observer hook order as replaying every step — fused units
        only skip the per-execution derivation of the trace kernels.
        """
        for unit in self.units[segment.index]:
            if unit[0] == "replay":
                step = segment.steps[unit[1]]
                mem = mems[step.mem]
                outputs = mem.replay(step.trace(env))
                self._publish(segment, step, outputs, mem, env, observers)
            elif unit[0] == "run":
                _, indices, cat = unit
                mem = mems[segment.steps[indices[0]].mem]
                gathered = {
                    port: mem.banks.read_slots(port, slots)
                    for port, slots in cat.items()
                }
                offset = 0
                for idx in indices:
                    step = segment.steps[idx]
                    outputs = {
                        port: g[offset:offset + step.n]
                        for port, g in gathered.items()
                    }
                    offset += step.n
                    charge_trace(mem, step.n, step.reads, False, "polymem.cycles.fused")
                    self._publish(segment, step, outputs, mem, env, observers)
            else:
                _, idx, kernel = unit
                step = segment.steps[idx]
                mem = mems[step.mem]
                # resolving late-bound values can raise ProgramError — at
                # the same point replay would (trace build); a wrong lane
                # width takes replay's serial error path, which raises
                values = step.write_values(env)
                if values.shape[1] != mem.lanes:
                    mem.replay(step.trace(env, values))
                outputs = run_kernel(mem, kernel, values, "polymem.cycles.fused")
                self._publish(segment, step, outputs, mem, env, observers)


def fusion_plan(compiled, mems: Mapping[str, Any]) -> FusionPlan:
    """Specialize *compiled* against *mems*: the engine's entry.

    Groups the segment list at barriers, fetches (or builds and caches)
    each group's kernel from :data:`kernel_cache`, and returns the
    :class:`FusionPlan` the engine drives segment by segment.
    """
    units: dict[int, tuple] = {}
    n_groups = hits = 0
    for group in _split_groups(compiled.segments):
        kernel, hit = kernel_cache.ensure(
            group_key(group, mems), lambda: _build_group_kernel(group, mems)
        )
        n_groups += 1
        hits += hit
        units.update((seg.index, seg_units) for seg, seg_units in zip(group, kernel))
    plan = FusionPlan(units, n_groups, hits, n_groups - hits)
    tel = _telemetry.active()
    if tel is not None:
        m = tel.metrics
        m.counter("program.fusion.groups").inc(plan.n_groups)
        m.counter("program.fusion.segments").inc(plan.n_fused_segments)
        m.counter("program.fusion.steps").inc(plan.n_fused_steps)
        m.counter("program.fusion.fallback_steps").inc(plan.n_fallback_steps)
    return plan

