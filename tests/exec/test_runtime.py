"""Tests for the repro.exec sweep runtime.

Includes the equivalence requirement: the full Table III sweep produces
byte-identical SweepResults at workers=1 and workers=4; chunked dispatch
equivalence across worker counts; the CPU-count clamp; and streaming
persistence of completed chunks when a worker raises or dies.

Tests that need a real multi-worker pool pretend the machine has many
CPUs (``many_cpus``) — ``resolve_workers`` clamps to ``os.cpu_count()``,
and CI runners may have only one core.
"""

import json
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.dse import explore
from repro.dse.space import PAPER_SPACE
from repro.exec import ResultCache, SweepTask, resolve_workers, run_sweep
from repro.exec.runtime import MIN_PARALLEL_TASKS


def square(config, offset=0):
    """Module-level (picklable) toy task: config is a plain int here."""
    return {"square": config * config + offset}


def boom(config):
    raise ValueError(f"boom on {config}")


def crash_once(config, marker):
    """Kill the worker process outright the first time any task runs it
    (no exception, no cleanup — like an OOM kill); later runs compute."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL)
    except FileExistsError:
        return {"square": config * config}
    os.close(fd)
    os._exit(1)


def _tasks(n, offset=0):
    return [
        SweepTask("test.square", square, i, params={"offset": offset})
        for i in range(n)
    ]


@pytest.fixture
def many_cpus(monkeypatch):
    """Pretend the host has 32 CPUs so the clamp never forces serial."""
    monkeypatch.setattr(os, "cpu_count", lambda: 32)


class TestResolveWorkers:
    def test_none_and_one_are_serial(self):
        assert resolve_workers(None, 100) == 1
        assert resolve_workers(1, 100) == 1

    def test_zero_means_all_cpus(self):
        assert resolve_workers(0, 100) == min(os.cpu_count() or 1, 100)

    def test_clamped_to_task_count(self, many_cpus):
        assert resolve_workers(16, MIN_PARALLEL_TASKS) == MIN_PARALLEL_TASKS

    def test_clamped_to_cpu_count(self, monkeypatch, caplog):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with caplog.at_level("INFO", logger="repro.exec.runtime"):
            assert resolve_workers(16, 100) == 2
        assert any("clamping workers 16 -> 2" in r.message for r in caplog.records)

    def test_tiny_grids_stay_serial(self, many_cpus):
        assert resolve_workers(8, MIN_PARALLEL_TASKS - 1) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2, 10)


class TestPlanChunkSize:
    """Pool chunks are sized for balance: about CHUNKS_PER_WORKER (4)
    chunks per worker, never fewer than one point each."""

    def test_balance_bound_without_cost_estimate(self, many_cpus):
        # 90 points / (4 workers * 4 chunks-per-worker) -> 6 per chunk
        assert run_sweep(_tasks(90), workers=4).chunks == 15

    def test_never_below_one(self, many_cpus):
        assert run_sweep(_tasks(5), workers=4).chunks == 5


class TestRunSweep:
    def test_serial_order_and_values(self):
        sweep = run_sweep(_tasks(6))
        assert sweep.workers == 1
        assert sweep.values() == [{"square": i * i} for i in range(6)]
        assert sweep.n_computed == 6 and sweep.n_cached == 0
        assert sweep.wall_seconds >= 0
        assert sweep.compute_seconds >= 0

    def test_parallel_matches_serial_byte_for_byte(self, many_cpus):
        serial = run_sweep(_tasks(10))
        parallel = run_sweep(_tasks(10), workers=4)
        assert parallel.workers > 1
        assert parallel.payload_json() == serial.payload_json()
        assert parallel.values() == serial.values()

    def test_chunked_matches_unchunked_byte_for_byte(self, many_cpus):
        # chunk size follows the worker count: 11 points -> 6 chunks of
        # <= 2 at 2 workers, 11 chunks of 1 at 4; 50 points -> chunks of
        # 7 and 4. Every chunking must reproduce the serial bytes.
        for n in (11, 50):
            serial = run_sweep(_tasks(n))
            for workers in (2, 4):
                chunked = run_sweep(_tasks(n), workers=workers)
                assert chunked.workers == workers
                assert chunked.chunks > 1
                assert chunked.payload_json() == serial.payload_json(), (n, workers)
                assert chunked.values() == serial.values()

    def test_chunk_accounting(self, many_cpus):
        sweep = run_sweep(_tasks(24), workers=2)
        # 24 points / (2 workers * 4 chunks-per-worker) -> 8 chunks of 3
        assert sweep.chunks == 8
        assert sweep.ipc_seconds >= 0.0
        serial = run_sweep(_tasks(10))
        assert serial.chunks == 0 and serial.ipc_seconds == 0.0

    def test_results_keep_task_order(self, many_cpus):
        tasks = _tasks(12)
        sweep = run_sweep(tasks, workers=3)
        for task, result in zip(tasks, sweep.results):
            assert result.key == task.cache_key()
            assert result.experiment_id == task.experiment_id

    def test_cache_hits_skip_computation(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(_tasks(8), cache=cache)
        assert cold.n_computed == 8
        warm = run_sweep(_tasks(8), cache=cache)
        assert warm.n_cached == 8 and warm.n_computed == 0
        assert all(r.seconds == 0.0 and r.cached for r in warm.results)
        assert warm.payload_json() == cold.payload_json()

    def test_partial_cache_recomputes_only_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(_tasks(5), cache=cache)
        mixed = run_sweep(_tasks(8), cache=cache)  # 3 new points
        assert mixed.n_cached == 5 and mixed.n_computed == 3
        assert mixed.values() == [{"square": i * i} for i in range(8)]

    def test_param_change_misses_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(_tasks(5), cache=cache)
        changed = run_sweep(_tasks(5, offset=1), cache=cache)
        assert changed.n_computed == 5
        assert changed.values() == [{"square": i * i + 1} for i in range(5)]

    def test_progress_callback(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(_tasks(3), cache=cache)
        seen = []
        run_sweep(
            _tasks(6),
            cache=cache,
            progress=lambda done, total, result: seen.append((done, total)),
        )
        assert [d for d, _ in seen] == list(range(1, 7))
        assert all(t == 6 for _, t in seen)

    def test_progress_streams_in_parallel(self, many_cpus):
        """Parallel progress fires once per point as chunks land — not in
        one burst after the whole sweep (the pre-ISSUE-7 behaviour)."""
        seen = []
        run_sweep(
            _tasks(10),
            workers=2,
            progress=lambda done, total, result: seen.append((done, result)),
        )
        assert [d for d, _ in seen] == list(range(1, 11))
        assert sorted(r.value["square"] for _, r in seen) == sorted(
            i * i for i in range(10)
        )

    def test_worker_exception_propagates_serial(self):
        tasks = _tasks(3) + [SweepTask("test.boom", boom, 99)]
        with pytest.raises(ValueError, match="boom on 99"):
            run_sweep(tasks)

    def test_worker_exception_propagates_parallel(self, many_cpus):
        tasks = _tasks(4) + [SweepTask("test.boom", boom, 99)]
        with pytest.raises(ValueError, match="boom on 99"):
            run_sweep(tasks, workers=2)

    def test_completed_chunks_persist_through_failure(self, many_cpus, tmp_path):
        """A late worker failure must not lose earlier points: every chunk
        that completed before the failure is already in the cache, so the
        re-run resumes instead of starting over."""
        cache = ResultCache(tmp_path / "cache")
        good = _tasks(7)
        tasks = good + [SweepTask("test.boom", boom, 99)]
        with pytest.raises(ValueError, match="boom on 99"):
            # 8 points on 2 workers -> 8 one-point chunks: the boom chunk
            # is dispatched last, after every square chunk has started
            run_sweep(tasks, workers=2, cache=cache)
        persisted = sum(t.cache_key() in cache for t in good)
        assert persisted == len(good)
        resumed = run_sweep(good, cache=cache)
        assert resumed.n_cached == len(good)

    def test_killed_worker_leaves_valid_resumable_cache(self, many_cpus, tmp_path):
        """A worker that dies mid-sweep (``os._exit``, no exception to
        catch) breaks the pool: the sweep raises, the cache holds only
        complete entries of chunks that finished, and a re-run on that
        cache reproduces the serial payload byte for byte."""
        marker = str(tmp_path / "crashed")
        cache = ResultCache(tmp_path / "cache")
        tasks = _tasks(15) + [
            SweepTask("test.crash", crash_once, 15, params={"marker": marker})
        ]
        keys = [t.cache_key() for t in tasks]
        with pytest.raises(BrokenProcessPool):
            # 16 points on 2 workers -> 8 chunks of 2; the last chunk
            # pairs square(14) with the crash
            run_sweep(tasks, workers=2, cache=cache)
        assert os.path.exists(marker)  # the crash really happened in a worker

        serial = run_sweep(tasks)
        expected = {r.key: r.value for r in serial.results}
        entries = sorted((tmp_path / "cache").glob("*/*"))
        # no temp files left behind; every entry is whole and correct
        assert all(path.suffix == ".json" for path in entries), entries
        for path in entries:
            entry = json.loads(path.read_text())
            assert entry["key"] == path.stem
            assert entry["value"] == expected[path.stem]
        # chunks persist all-or-nothing, and the crashed chunk not at all
        cached = [key in cache for key in keys]
        assert not cached[14] and not cached[15]
        for i in range(0, 14, 2):
            assert cached[i] == cached[i + 1], i

        resumed = run_sweep(tasks, workers=2, cache=cache)
        assert resumed.n_cached == len(entries)
        assert resumed.payload_json() == serial.payload_json()

    def test_explicit_key_overrides_derived(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        a = SweepTask("test.square", square, 3, key="pinned")
        run_sweep([a], cache=cache)
        # a different config under the same pinned key is a cache hit
        b = SweepTask("test.square", square, 4, key="pinned")
        sweep = run_sweep([b], cache=cache)
        assert sweep.n_cached == 1
        assert sweep.values() == [{"square": 9}]


class TestTableIIIEquivalence:
    """ISSUE-1: the full Table III sweep is byte-identical at 1 vs 4 workers."""

    def test_full_sweep_workers_1_vs_4(self, many_cpus):
        serial = explore(workers=1)
        parallel = explore(workers=4)
        assert len(serial.points) == PAPER_SPACE.size()
        assert serial.sweep is not None and parallel.sweep is not None
        assert parallel.sweep.payload_json() == serial.sweep.payload_json()
        assert [p.config.label() for p in parallel.points] == [
            p.config.label() for p in serial.points
        ]
        assert [p.model_mhz for p in parallel.points] == [
            p.model_mhz for p in serial.points
        ]

    def test_validated_sweeps_pooled_match_serial(self, many_cpus):
        """The validated DSE sweep and the validation grid give the serial
        bytes at 2 and 4 workers (the pooled perfbench queries)."""
        from dataclasses import asdict

        from repro.maxpolymem import validate_configs

        serial = explore(validate=True, validate_rows=8)
        cfgs = [p.config for p in serial.points]
        reports = json.dumps([asdict(r) for r in validate_configs(cfgs, max_rows=8)])
        for workers in (2, 4):
            pooled = explore(validate=True, validate_rows=8, workers=workers)
            assert pooled.sweep.workers == workers and pooled.sweep.chunks > 1
            assert pooled.sweep.payload_json() == serial.sweep.payload_json()
            got = validate_configs(cfgs, max_rows=8, workers=workers)
            assert json.dumps([asdict(r) for r in got]) == reports

    def test_cached_sweep_equals_computed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = explore(workers=2, cache=cache)
        warm = explore(workers=2, cache=cache)
        assert warm.sweep.n_cached == PAPER_SPACE.size()
        assert warm.sweep.payload_json() == cold.sweep.payload_json()
        assert warm.points == cold.points


def square_batch(configs, offset=0):
    """Module-level (picklable) vectorized twin of :func:`square`."""
    return [{"square": c * c + offset} for c in configs]


def square_batch_short(configs, offset=0):
    return square_batch(configs, offset)[:-1]


def _batch_tasks(n, offset=0, batch_fn=square_batch):
    return [
        SweepTask(
            "test.square", square, i, params={"offset": offset},
            batch_fn=batch_fn,
        )
        for i in range(n)
    ]


class TestBatchDispatch:
    def test_serial_batch_matches_scalar(self):
        scalar = run_sweep(_tasks(7, offset=3))
        batched = run_sweep(_batch_tasks(7, offset=3))
        assert batched.payload_json() == scalar.payload_json()
        assert batched.batched_points == 7
        assert batched.batch_calls == 1
        assert scalar.batched_points == 0

    def test_param_groups_dispatch_separately(self):
        tasks = _batch_tasks(3, offset=0) + _batch_tasks(3, offset=9)
        sweep = run_sweep(tasks)
        assert sweep.values() == [{"square": i * i} for i in range(3)] + [
            {"square": i * i + 9} for i in range(3)
        ]
        assert sweep.batch_calls == 2
        assert sweep.batched_points == 6

    def test_mixed_scalar_and_batch_tasks(self):
        tasks = _batch_tasks(4) + _tasks(3)
        sweep = run_sweep(tasks)
        assert sweep.values() == [{"square": i * i} for i in range(4)] + [
            {"square": i * i} for i in range(3)
        ]
        assert sweep.batched_points == 4
        assert sweep.batch_calls == 1

    def test_batch_fn_not_in_cache_key(self, tmp_path):
        """Scalar- and batch-run sweeps share cache entries."""
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(_tasks(5), cache=cache)
        warm = run_sweep(_batch_tasks(5), cache=cache)
        assert warm.n_cached == 5
        assert warm.batched_points == 0
        assert warm.payload_json() == cold.payload_json()

    def test_payload_count_mismatch_raises(self):
        with pytest.raises(RuntimeError, match="payloads"):
            run_sweep(_batch_tasks(4, batch_fn=square_batch_short))

    def test_parallel_chunks_use_batch_path(self, many_cpus):
        serial = run_sweep(_tasks(40))
        parallel = run_sweep(_batch_tasks(40), workers=4)
        assert parallel.payload_json() == serial.payload_json()
        # one batch call per chunk: 40 points / 16 -> 14 chunks of 3
        assert parallel.batched_points == 40
        assert parallel.batch_calls == parallel.chunks == 14
