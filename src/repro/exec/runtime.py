"""The parallel, cached, resumable sweep runtime.

All grid-shaped work in this repository — the Table III DSE sweep, the
§IV-A validation grid, the Fig. 10 size sweep, the scorecard — is a list
of independent *(experiment id, function, config, params)* points.
:func:`run_sweep` executes such a list with

* **batched evaluation**: sibling points sharing a ``batch_fn`` go to it
  in one vectorized call, serially or per pool chunk;
* a plain **process pool** when ``workers`` asks for one: ``fork`` where
  the platform offers it (workers inherit the parent's caches
  copy-on-write), else the default start method;
* **chunked dispatch**: about :data:`CHUNKS_PER_WORKER` chunks per
  worker, so stragglers rebalance while pickle/IPC is amortised;
* **streaming collection**: chunk results arrive via ``as_completed`` —
  progress callbacks fire and cache writes land as each chunk finishes,
  so a crash mid-sweep loses only in-flight work, never completed points;
* an optional content-addressed :class:`~repro.exec.cache.ResultCache`
  consulted in one batched ``get_many`` before computing and written in
  per-chunk ``put_many`` batches after;
* deterministic result ordering — ``SweepResult.results[i]`` always
  corresponds to ``tasks[i]`` regardless of completion order;
* wall-clock and IPC accounting surfaced as ``exec.*`` telemetry (see
  ``docs/observability.md``).

Task functions must be module-level callables (picklable) taking the
task's config as the first argument plus the task's params as keyword
arguments, and must return plain-JSON data (so results can be cached and
compared byte-for-byte across worker counts).
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..telemetry import context as _telemetry
from ..telemetry import ledger as _tel_ledger
from .cache import MISS, ResultCache, cache_key

__all__ = [
    "SweepTask",
    "RunResult",
    "SweepResult",
    "run_sweep",
    "resolve_workers",
]

log = logging.getLogger(__name__)

#: grids smaller than this never pay the process-pool startup cost
MIN_PARALLEL_TASKS = 4

#: chunking aims for this many chunks per worker so stragglers rebalance
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class SweepTask:
    """One independent sweep point.

    ``fn(config, **params)`` computes the point's plain-JSON payload.
    ``key`` overrides the derived cache key when the default
    *(experiment_id, config, params, model version)* hash is not the right
    identity for the work.
    """

    experiment_id: str
    fn: Callable[..., Any]
    config: Any = None
    params: Mapping[str, Any] = field(default_factory=dict)
    key: str | None = None
    #: optional vectorized evaluator: ``batch_fn(configs, **params)``
    #: computes a whole group of sibling points (same experiment_id and
    #: params) in one pass, returning one plain-JSON payload per config
    #: in order — each payload must be byte-identical to what
    #: ``fn(config, **params)`` returns for the same config.  It is an
    #: execution detail and never part of the cache key; must be
    #: module-level (picklable).
    batch_fn: Callable[..., Any] | None = None

    def cache_key(self, model_version: str | None = None) -> str:
        if self.key is not None:
            return self.key
        return cache_key(
            self.experiment_id, self.config, self.params, model_version
        )


@dataclass(frozen=True)
class RunResult:
    """Outcome of one sweep point."""

    experiment_id: str
    key: str
    value: Any
    seconds: float  #: compute time (0.0 for a cache hit)
    cached: bool


@dataclass
class SweepResult:
    """All point outcomes, in task order, plus run accounting."""

    results: list[RunResult]
    wall_seconds: float  #: end-to-end sweep wall clock
    workers: int  #: workers actually used (1 = serial)
    ipc_seconds: float = 0.0  #: queueing + (de)serialisation across chunks
    chunks: int = 0  #: dispatch batches sent to the pool (0 = serial)
    batched_points: int = 0  #: points computed through a ``batch_fn`` group
    batch_calls: int = 0  #: vectorized ``batch_fn`` invocations

    def values(self) -> list[Any]:
        return [r.value for r in self.results]

    @property
    def n_cached(self) -> int:
        return sum(r.cached for r in self.results)

    @property
    def n_computed(self) -> int:
        return len(self.results) - self.n_cached

    @property
    def compute_seconds(self) -> float:
        """Total CPU-side compute time across all points (serial cost)."""
        return sum(r.seconds for r in self.results)

    def payload_json(self) -> str:
        """Canonical JSON of (key, value) per point — identical bytes for
        identical work regardless of workers/caching/timing."""
        import json

        return json.dumps(
            [{"key": r.key, "value": r.value} for r in self.results],
            sort_keys=True,
            separators=(",", ":"),
        )


def resolve_workers(workers: int | None, n_tasks: int) -> int:
    """Effective worker count: ``None``/1 → serial, 0 → all CPUs; always
    clamped to ``os.cpu_count()`` and to the task count; tiny grids run
    serially."""
    if workers is None:
        return 1
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    cpus = os.cpu_count() or 1
    if workers > cpus:
        log.info(
            "exec: clamping workers %d -> %d (os.cpu_count()); "
            "oversubscribing CPU-bound sweeps only adds context switches",
            workers,
            cpus,
        )
        workers = cpus
    if n_tasks < MIN_PARALLEL_TASKS:
        return 1
    return max(1, min(workers, n_tasks))


def _execute(task: SweepTask) -> tuple[Any, float]:
    """In-process execution of one task."""
    t0 = time.perf_counter()
    value = task.fn(task.config, **dict(task.params))
    return value, time.perf_counter() - t0


def _dispatch_groups(
    tasks: Sequence[SweepTask], indices: Iterable[int]
) -> list[list[int]]:
    """Partition *indices* into execution groups, first-seen order.

    Tasks carrying the same ``(experiment_id, batch_fn, params)`` triple
    form one group (their configs go to ``batch_fn`` in a single call);
    tasks without a ``batch_fn`` stay singleton groups on the scalar
    path.  Within a group the original index order is preserved, so the
    group's payloads map back to their tasks positionally.
    """
    groups: dict[Any, list[int]] = {}
    order: list[list[int]] = []
    for i in indices:
        task = tasks[i]
        if task.batch_fn is None:
            order.append([i])
            continue
        key = (
            task.experiment_id,
            task.batch_fn,
            tuple(sorted((k, repr(v)) for k, v in dict(task.params).items())),
        )
        group = groups.get(key)
        if group is None:
            groups[key] = group = []
            order.append(group)
        group.append(i)
    return order


def _execute_group(
    tasks: Sequence[SweepTask], idxs: Sequence[int]
) -> tuple[list[tuple[Any, float]], int, int]:
    """Run one dispatch group; returns ``(pairs, batched_points,
    batch_calls)`` with one ``(value, seconds)`` pair per index (the
    batch call's wall time is split evenly across its points)."""
    first = tasks[idxs[0]]
    if first.batch_fn is None or len(idxs) == 0:
        return [_execute(tasks[i]) for i in idxs], 0, 0
    group = [tasks[i] for i in idxs]
    t0 = time.perf_counter()
    values = list(first.batch_fn([t.config for t in group], **dict(first.params)))
    seconds = time.perf_counter() - t0
    if len(values) != len(group):
        raise RuntimeError(
            f"batch_fn {first.batch_fn!r} returned {len(values)} payloads "
            f"for {len(group)} configs"
        )
    per = seconds / len(group)
    return [(v, per) for v in values], len(group), 1


def _execute_chunk(tasks: Sequence[SweepTask]) -> dict:
    """Worker-side execution of one chunk (module-level: picklable).

    Tasks sharing a ``batch_fn`` group evaluate in one vectorized call
    (so a chunk of sweep points shares one batched table build per config
    family).  Besides the per-task ``(value, seconds)`` pairs, the
    payload carries ``time.monotonic()`` endpoints (system-wide on Linux,
    so the parent can subtract pure compute from the submit→arrival
    window to estimate IPC overhead) and the chunk's batch-path
    accounting.
    """
    t_start = time.monotonic()
    out: list[tuple[Any, float] | None] = [None] * len(tasks)
    batched = calls = 0
    for idxs in _dispatch_groups(tasks, range(len(tasks))):
        pairs, b, c = _execute_group(tasks, idxs)
        batched += b
        calls += c
        for i, pair in zip(idxs, pairs):
            out[i] = pair
    return {
        "results": out,
        "t_start": t_start,
        "t_end": time.monotonic(),
        "batched": batched,
        "batch_calls": calls,
    }


def run_sweep(
    tasks: Iterable[SweepTask] | Sequence[SweepTask],
    workers: int | None = None,
    cache: ResultCache | None = None,
    progress: Callable[[int, int, RunResult], None] | None = None,
    model_version: str | None = None,
) -> SweepResult:
    """Run every task, in parallel when asked, consulting *cache* first.

    Parameters
    ----------
    workers:
        ``None`` or ``1`` — serial (the default); ``0`` — one worker per
        CPU; ``n`` — a pool of *n* processes (clamped to the CPU count).
        Small grids always run serially (the pool would cost more than it
        saves).
    cache:
        A :class:`ResultCache`; hits skip computation (resolved in one
        batched ``get_many``), misses are stored chunk-by-chunk as results
        stream in.  ``None`` disables caching.
    progress:
        ``progress(done, total, result)`` invoked once per finished point,
        in completion order — parallel runs report as each chunk lands,
        not after the whole sweep.
    model_version:
        Overrides the cache-key model version (tests use this to exercise
        invalidation; production code leaves the default).

    If a worker raises, the sweep cancels undispatched chunks, persists
    every already-completed chunk to *cache*, then re-raises the first
    failure — a crashed sweep resumes from its cached prefix instead of
    from zero.
    """
    tasks = list(tasks)
    total = len(tasks)
    t_sweep = time.perf_counter()
    results: list[RunResult | None] = [None] * total
    done = 0

    # -- resolve cache hits up front (one batched directory-scan lookup) ---
    keys = [t.cache_key(model_version) for t in tasks]
    hits = cache.get_many(keys) if cache is not None else {}
    pending: list[int] = []
    for i, (task, key) in enumerate(zip(tasks, keys)):
        if key not in hits:
            pending.append(i)
            continue
        results[i] = RunResult(task.experiment_id, key, hits[key], 0.0, True)
        done += 1
        if progress is not None:
            progress(done, total, results[i])

    n_workers = resolve_workers(workers, len(pending))
    ipc_seconds = 0.0
    n_batched = 0
    n_batch_calls = 0
    chunks: list[list[int]] = []

    def finish(i: int, value: Any, seconds: float, *, persist: bool = True) -> None:
        nonlocal done
        if persist and cache is not None:
            cache.put(keys[i], value)
        results[i] = RunResult(tasks[i].experiment_id, keys[i], value, seconds, False)
        done += 1
        if progress is not None:
            progress(done, total, results[i])

    if n_workers <= 1:
        for idxs in _dispatch_groups(tasks, pending):
            pairs, b, c = _execute_group(tasks, idxs)
            n_batched += b
            n_batch_calls += c
            for i, (value, seconds) in zip(idxs, pairs):
                finish(i, value, seconds)
    else:
        size = math.ceil(len(pending) / (n_workers * CHUNKS_PER_WORKER))
        chunks = [pending[i : i + size] for i in range(0, len(pending), size)]
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this platform
            ctx = multiprocessing.get_context()

        first_error: BaseException | None = None
        with ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx) as pool:
            submitted: dict[Any, list[int]] = {}
            submit_at: dict[Any, float] = {}
            for chunk in chunks:
                fut = pool.submit(_execute_chunk, [tasks[i] for i in chunk])
                submitted[fut] = chunk
                submit_at[fut] = time.monotonic()
            for fut in as_completed(submitted):
                chunk = submitted[fut]
                try:
                    payload = fut.result()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = exc
                        # stop dispatching, but keep draining completed
                        # chunks so their results are persisted below
                        pool.shutdown(wait=False, cancel_futures=True)
                    continue
                arrival = time.monotonic()
                ipc_seconds += max(
                    0.0,
                    (arrival - submit_at[fut]) - (payload["t_end"] - payload["t_start"]),
                )
                n_batched += payload["batched"]
                n_batch_calls += payload["batch_calls"]
                if cache is not None:
                    cache.put_many(
                        {keys[i]: v for i, (v, _) in zip(chunk, payload["results"])}
                    )
                for i, (value, seconds) in zip(chunk, payload["results"]):
                    finish(i, value, seconds, persist=False)
        if first_error is not None:
            raise first_error

    sweep = SweepResult(
        results=results,  # type: ignore[arg-type]  (all slots filled above)
        wall_seconds=time.perf_counter() - t_sweep,
        workers=n_workers,
        ipc_seconds=ipc_seconds,
        chunks=len(chunks),
        batched_points=n_batched,
        batch_calls=n_batch_calls,
    )
    tel = _telemetry.active()
    if tel is not None:
        m = tel.metrics
        m.counter("exec.points").inc(total)
        m.counter("exec.cache.hits").inc(sweep.n_cached)
        m.counter("exec.cache.misses").inc(sweep.n_computed)
        m.counter("exec.wall_seconds").inc(sweep.wall_seconds)
        m.counter("exec.compute_seconds").inc(sweep.compute_seconds)
        m.gauge("exec.workers").set(n_workers)
        if chunks:
            m.counter("exec.ipc_seconds").inc(ipc_seconds)
            m.counter("exec.chunks").inc(len(chunks))
            chunk_hist = m.histogram("exec.chunk_size")
            for chunk in chunks:
                chunk_hist.observe(len(chunk))
        task_hist = m.histogram("exec.task_seconds")
        for r in sweep.results:
            if not r.cached:
                task_hist.observe(r.seconds)
        if tel.tracer is not None:
            tel.tracer.instant(
                "exec.sweep",
                cat="exec",
                points=total,
                cached=sweep.n_cached,
                workers=n_workers,
                chunks=len(chunks),
                wall_seconds=sweep.wall_seconds,
            )
        # auto-ledger: a metered sweep appends a run-ledger entry when
        # $REPRO_LEDGER names a destination (never raises into the sweep)
        _tel_ledger.maybe_record_sweep(
            [t.experiment_id for t in tasks], sweep, tel
        )
    return sweep
