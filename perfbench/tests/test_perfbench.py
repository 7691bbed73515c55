"""Tests of the benchmark's own generators and checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def dse(tmp_path):
    workload = workloads.make("dse_whatif", tmp_path)
    state = workload.setup(0)
    yield workload, state
    workload.close(state)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(name):
    first = [r.key() for k in range(3) for r in workloads.make(name).round(7, k)]
    again = [r.key() for k in range(3) for r in workloads.make(name).round(7, k)]
    other = [r.key() for k in range(3) for r in workloads.make(name).round(8, k)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_keep_the_mix(name):
    """Every seed's round holds the same strata: the same request kinds
    and the same stratified parameters, only values and order differ."""

    def mix(seed):
        reqs = workloads.make(name).round(seed, 1)
        if name == "stream_sim":
            return sorted(r.param("app") for r in reqs)
        if name == "dse_whatif":
            return sorted(r.param("mode") if r.kind == "query" else r.kind for r in reqs)
        return sorted(r.param("kernel") if r.kind == "kernel" else r.param("scheme") for r in reqs)

    assert mix(1) == mix(2) == mix(3)


def test_stream_sizes_are_stratified():
    reqs = workloads.StreamSim().round(3, 0)
    assert reqs[0].params == (("app", "Copy"), ("vectors", workloads.STREAM_PAPER_VECTORS))
    sizes = sorted(r.param("vectors") for r in reqs[1:])
    edges = np.exp(np.linspace(np.log(workloads.STREAM_MIN_VECTORS),
                               np.log(workloads.STREAM_PAPER_VECTORS), 17))
    assert all(lo - 1 <= v <= hi + 1 for v, lo, hi in zip(sizes, edges, edges[1:]))


def test_stream_rounds_cover_each_stratum_evenly():
    """Any four consecutive rounds put one size in each quarter of every
    stratum."""
    w = workloads.StreamSim()
    lo, hi = np.log(workloads.STREAM_MIN_VECTORS), np.log(workloads.STREAM_PAPER_VECTORS)
    quarters = []
    for r in range(5, 9):
        sizes = sorted(req.param("vectors") for req in w.round(4, r))
        quarters.append([int((np.log(v) - lo) / (hi - lo) * 64) % 4 for v in sizes])
    assert all(sorted(q) == [0, 1, 2, 3] for q in zip(*quarters))


def test_trace_inputs_repeat_per_seed():
    workload = workloads.AccessKernels()
    req = next(r for r in workload.round(5, 0) if r.kind == "trace")
    a, b = workload.prepare(None, req), workload.prepare(None, req)
    assert np.array_equal(a["data"], b["data"])
    for pa, pb in zip(a["phases"], b["phases"]):
        for (ka, ia, ja), (kb, ib, jb) in zip(pa["reads"], pb["reads"]):
            assert ka == kb and np.array_equal(ia, ib) and np.array_equal(ja, jb)


def _run(workload, state, req):
    outcome = workload.execute(state, req, workload.prepare(state, req))
    assert workload.check(state, req, outcome) == []
    return outcome


def test_corrupted_stream_output_is_an_error():
    workload = workloads.StreamSim()
    req = workloads._req("stream", 1, app="Triad", vectors=128)
    outcome = _run(workload, None, req)
    outcome.outputs["got"] = outcome.outputs["got"].copy()
    outcome.outputs["got"][5] += 1.0
    assert workload.check(None, req, outcome)
    outcome = _run(workload, None, req)
    outcome.outputs["cycles"] += 1
    assert workload.check(None, req, outcome)


@pytest.mark.parametrize("kernel", sorted(workloads.KERNEL_SHAPES))
def test_corrupted_kernel_output_is_an_error(kernel):
    workload = workloads.AccessKernels()
    params = {"kernel": kernel, "n": 16}
    if kernel == "stencil_sweep":
        params["weights"] = 0
    if kernel == "jacobi_solve":
        params["iterations"] = 2
    req = workloads._req("kernel", 3, **params)
    outcome = _run(workload, None, req)
    out = np.array(outcome.outputs["out"], copy=True)
    out.flat[0] += 1
    outcome.outputs["out"] = out
    assert workload.check(None, req, outcome)


@pytest.mark.parametrize("path", ["replay", "program"])
def test_corrupted_trace_fails_the_oracle(path):
    workload = workloads.AccessKernels()
    req = workloads._req("trace", 4, scheme="RoCo", lanes=8, path=path, heavy="write",
                         policy="write_first", cycles=128, oracle=True)
    outcome = _run(workload, None, req)
    reads = outcome.outputs["reads"][1][0].copy()
    reads[3, 2] ^= np.uint64(1)
    outcome.outputs["reads"][1][0] = reads
    assert workload.check(None, req, outcome)


def test_corrupted_dse_payload_is_an_error(dse):
    workload, state = dse
    req = next(r for r in workload.round(2, 0) if r.kind == "query" and r.param("mode") == "serial")
    outcome = _run(workload, state, req)
    label, *values = outcome.outputs["points"][0]
    values[2] += 0.5  # logic %
    outcome.outputs["points"][0] = (label, *values)
    assert workload.check(state, req, outcome)


def test_failed_scorecard_row_is_an_error(dse):
    workload, state = dse
    req = workloads._req("scorecard", 0)
    outcome = workloads.Outcome(outputs={"rows": [("Table I", "x", "y", True),
                                                  ("Fig. 10", "x", "y", False)]}, work=1)
    assert workload.check(state, req, outcome) == ["scorecard row failed: Fig. 10 x: y"]


def test_loop_counts_errors_and_keeps_going():
    """A corrupted result and an exception each count as one failed
    request; the requests after them still run."""

    class Corrupting(workloads.AccessKernels):
        calls = 0

        def execute(self, state, req, inputs):
            Corrupting.calls += 1
            if Corrupting.calls == 2:
                raise RuntimeError("injected")
            outcome = super().execute(state, req, inputs)
            if Corrupting.calls == 3 and req.kind == "kernel":
                outcome.outputs["out"] = np.asarray(outcome.outputs["out"]) + 1
            return outcome

    workload = Corrupting()
    reqs = [r for r in workload.round(1, 0) if r.kind == "kernel"][:4]
    records = [run.run_one(workload, None, req) for req in reqs]
    assert [bool(r.failures) for r in records] == [False, True, True, False]
    assert records[1].latency is None and records[3].latency is not None


def test_tail_has_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    value, pct = run.tail(values)
    assert value == 89.0 and pct == 90.0
    assert sum(v > value for v in values) == 10
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_matches_the_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH / "spec.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    for key in ("end_to_end", "per_layer"):
        assert [m["name"] for m in bench[key]] == list(spec[key])
        for m in bench[key]:
            assert m["unit"] == spec[key][m["name"]]["unit"]
            assert m["better"] == spec[key][m["name"]]["better"]
