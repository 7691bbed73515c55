"""repro.exec scaling — process-pool fan-out and warm-cache re-runs.

The full Table III sweep with per-point §IV-A validation (the paper
"validate[s] each design") runs through the :mod:`repro.exec` runtime at
1..4 workers.  The bench measures (a) wall-clock speedup with the worker
count of the plain process pool against the serial batched path; (b)
byte-identical results across worker counts; and (c) a warm-cache re-run
that recomputes nothing and finishes in milliseconds per point.  Since
the DSE was vectorized the serial sweep takes tens of milliseconds, so
on small machines the pool's fork and IPC cost outweighs the compute it
splits and gate (i) below fails; it stays red until the runtime earns it.

Runs two ways:

* ``pytest benchmarks/bench_exec_scaling.py`` — the benchmark suite entry;
* ``python benchmarks/bench_exec_scaling.py --smoke`` — the CI perf-smoke
  gate: exits non-zero unless (i) the 1 → 4 worker speedup is >= 2x on a
  machine with >= 2 CPUs, or (ii) the 4-worker wall time is <= 1.05x of
  the 1-worker time on smaller machines (parallel dispatch must never be
  a regression, even where it cannot be a win).  When ``resolve_workers``
  clamps the 4-worker run all the way to the serial path (a 1-CPU box),
  gate (ii) holds trivially: both timed runs execute identical code, so
  any spread between them is machine noise, not a dispatch regression.

Both write ``benchmarks/out/exec_scaling.{txt,json}``.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
import time

from _util import gate as declare_gate
from _util import save_report

from repro.dse import explore
from repro.dse.space import PAPER_SPACE
from repro.exec import Report, ReportEntry, ResultCache

#: rows validated per design: enough to exercise every pattern/port, small
#: enough to keep the serial baseline in seconds
VALIDATE_ROWS = 8

#: the CI gate thresholds (see the module docstring)
MIN_SPEEDUP_MULTICORE = 2.0
MAX_SLOWDOWN_ANYWHERE = 1.05


def _timed_sweep(workers, cache=None):
    t0 = time.perf_counter()
    result = explore(
        validate=True, validate_rows=VALIDATE_ROWS, workers=workers, cache=cache
    )
    return result, time.perf_counter() - t0


def run_scaling(cache_dir) -> tuple[str, Report, list[str], list[dict]]:
    """The scaling measurement shared by the pytest entry and ``--smoke``.

    Returns the text artifact, the JSON report, the list of gate
    failures (empty when every gate holds on this machine), and the
    uniform gate records the ledger stores (the conditional branch taken
    on this machine is recorded with its own op/threshold, so ``repro
    telemetry regress`` re-evaluates the same branch bit-for-bit).
    """
    n_points = PAPER_SPACE.size()
    cpus = os.cpu_count() or 1
    out = io.StringIO()
    out.write(
        "REPRO.EXEC SCALING — full Table III sweep, validated designs "
        f"({n_points} points, {VALIDATE_ROWS} rows each, {cpus} CPU(s))\n\n"
    )

    # -- cold-cache runs at 1..4 workers -----------------------------------
    # one untimed pass first: the bench process itself pays the one-time
    # plan/model compile cost here, so the timed runs below compare
    # dispatch strategies, not who ran first; best-of-2 per worker count
    # keeps shared-runner timing noise out of the gate
    _timed_sweep(1)
    timings = {}
    sweeps = {}
    baseline = None
    for workers in (1, 2, 4):
        result, seconds = _timed_sweep(workers)
        again, seconds2 = _timed_sweep(workers)
        if seconds2 < seconds:
            result, seconds = again, seconds2
        assert len(result.points) == n_points
        assert result.sweep.n_computed == n_points
        timings[workers] = seconds
        sweeps[workers] = result.sweep
        baseline = baseline or result
        extra = ""
        if result.sweep.chunks:
            extra = (
                f"  [{result.sweep.chunks} chunks, "
                f"ipc {result.sweep.ipc_seconds:.3f} s]"
            )
        out.write(
            f"  workers={workers}: {seconds:6.2f} s"
            f"  (speedup x{timings[1] / seconds:.2f}){extra}\n"
        )

    # parallel results are byte-identical to serial ones
    failures = []
    for workers, sweep in sweeps.items():
        if sweep.payload_json() != baseline.sweep.payload_json():
            failures.append(f"workers={workers} payload differs from serial")

    # -- warm-cache re-run --------------------------------------------------
    cache = ResultCache(cache_dir)
    _timed_sweep(4, cache=cache)
    warm_result, warm_seconds = _timed_sweep(4, cache=cache)
    assert warm_result.sweep.n_cached == n_points
    assert warm_result.sweep.n_computed == 0
    if warm_result.sweep.payload_json() != baseline.sweep.payload_json():
        failures.append("warm-cache payload differs from serial")
    per_point_ms = warm_seconds / n_points * 1e3
    out.write(
        f"\n  warm cache: {warm_seconds * 1e3:6.1f} ms total "
        f"({per_point_ms:.2f} ms/point, {warm_result.sweep.n_cached}"
        f"/{n_points} cached)\n"
    )
    warm_gate = declare_gate("exec.warm_cache_seconds", warm_seconds)
    if not warm_gate["ok"]:  # milliseconds per point, not ~100 ms
        failures.append(f"warm-cache re-run took {warm_seconds:.2f} s (>= 1 s)")

    # -- the scaling gates --------------------------------------------------
    speedup4 = timings[1] / timings[4]
    out.write(f"\n  1 -> 4 workers speedup: x{speedup4:.2f}\n")
    if cpus >= 2:
        gate = f"speedup >= x{MIN_SPEEDUP_MULTICORE} ({cpus} CPUs)"
        scaling_gate = declare_gate("exec.scaling_1_to_4", speedup4)
    elif sweeps[4].workers <= 1:
        # resolve_workers clamped the 4-worker run to the serial path, so
        # both timed runs executed identical code: there is no dispatch
        # difference for the no-regression bound to measure, only machine
        # noise.  The gate holds trivially — recorded with an explicit
        # always-true threshold so the ledger replays the same branch.
        gate = "workers clamped to 1 (1 CPU): serial code paths identical"
        scaling_gate = declare_gate(
            "exec.scaling_1_to_4", speedup4, op=">=", threshold=0.0, detail=gate
        )
    else:
        gate = f"4-worker time <= x{MAX_SLOWDOWN_ANYWHERE} of 1-worker (1 CPU)"
        scaling_gate = declare_gate(
            "exec.no_regression_1cpu", timings[4] / timings[1]
        )
    ok4 = scaling_gate["ok"]
    out.write(f"  gate: {gate} — {'PASS' if ok4 else 'FAIL'}\n")
    if not ok4:
        failures.append(f"scaling gate failed: {gate}, timings={timings}")
    gates = [scaling_gate, warm_gate]

    report = Report(
        title="repro.exec scaling (Table III sweep, validated)",
        entries=[
            ReportEntry(
                experiment="exec.scaling",
                quantity=f"wall seconds @ {w} worker(s)",
                measured=round(s, 3),
                metrics={
                    "points": n_points,
                    "cpus": cpus,
                    "chunks": sweeps[w].chunks,
                    "ipc_seconds": round(sweeps[w].ipc_seconds, 4),
                },
            )
            for w, s in timings.items()
        ]
        + [
            ReportEntry(
                experiment="exec.scaling",
                quantity="warm-cache re-run seconds",
                measured=round(warm_seconds, 4),
                ok=warm_seconds < 1.0,
                metrics={"cached": warm_result.sweep.n_cached},
            ),
            ReportEntry(
                experiment="exec.scaling",
                quantity="speedup 1 -> 4 workers",
                measured=round(speedup4, 2),
                ok=ok4,
                metrics={"gate": gate},
            ),
        ],
    )
    return out.getvalue(), report, failures, gates


def _save(text, report, gates):
    cpus = os.cpu_count() or 1
    save_report(
        "exec_scaling",
        text,
        report,
        gates=gates,
        params={
            "workload": "table3.sweep",
            "scheme": "exec",
            "points": PAPER_SPACE.size(),
            "validate_rows": VALIDATE_ROWS,
        },
        flags={"cpus": cpus},
    )


def test_exec_scaling(benchmark, tmp_path):
    text, report, failures, gates = run_scaling(tmp_path / "cache")
    _save(text, report, gates)
    cpus = os.cpu_count() or 1
    # on a single-CPU machine the speedup gate is advisory in the pytest
    # entry (the --smoke CLI applies the no-regression bound instead)
    hard = [f for f in failures if "scaling gate" not in f or cpus >= 2]
    assert not hard, hard

    # benchmark the steady state: the warm-cache sweep
    cache = ResultCache(tmp_path / "cache")
    benchmark(lambda: explore(
        validate=True, validate_rows=VALIDATE_ROWS, workers=4, cache=cache
    ))


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        text, report, failures, gates = run_scaling(os.path.join(tmp, "cache"))
    _save(text, report, gates)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    if "--smoke" not in sys.argv:
        print("usage: python benchmarks/bench_exec_scaling.py --smoke")
        raise SystemExit(2)
    raise SystemExit(main(sys.argv))
