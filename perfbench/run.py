"""End-to-end benchmark of the MAX-PolyMem reproduction.

    python3 perfbench/run.py --workload stream_sim --seed 1 --seconds 15 --trace 0

Runs one seeded closed-loop workload (one client, one process; the
``dse_whatif`` pooled queries add ``nproc`` workers) through the public
API of ``src/repro`` for ``--seconds`` seconds, in whole rounds, checks
every request, and prints the end-to-end metrics by name with units.
``--trace 1`` instead runs the first rounds of the seed twice per
request, once plain and once with the benchmark's layer wrappers and a
``repro.telemetry`` session, and prints the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric definitions, workload reasons and the
held-out claims seed are in ``perfbench/spec.json``.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
#: run outputs (span files, temporary caches); ignored by git
OUT_DIR = HERE / "out"
#: fresh processes timed for ``setup_s``
SETUP_SAMPLES = 5
#: rounds the traced run executes (a fixed set, so simulated counts are exact)
TRACE_ROUNDS = {"stream_sim": 2, "dse_whatif": 3, "access_kernels": 12}
#: requests of ``digest_seed``'s round 0 in the fixed digest set
DIGEST_REQUESTS = {"stream_sim": 3, "dse_whatif": 6, "access_kernels": 16}
#: the paper's Fig. 10 and Table IV claims
PAPER_COPY_MBPS = 15_301.0
PAPER_COPY_EFFICIENCY = 0.9962
MIN_TABLE_IV_R2 = 0.8


def _import_program():
    """Put this checkout's ``src`` first on the path and import the program.

    Exits with status 2 when the checkout holds no program to measure.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src / 'repro'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


@dataclass
class Record:
    """One executed request."""

    latency: float | None
    work: int
    failures: list
    digest: str | None = None
    extra: dict = field(default_factory=dict)
    #: perf_counter() when the timed call began
    start: float = 0.0


def run_one(workload, state, req, digest: bool = False, around=None) -> Record:
    """Prepare, time, check (and optionally digest) one request.

    A failed check or an exception counts as a failure; neither stops the
    loop.  *around* (a pair of callables) brackets only the timed call.
    """
    try:
        inputs = workload.prepare(state, req)
        if around is not None:
            around[0]()
        try:
            t0 = time.perf_counter()
            outcome = workload.execute(state, req, inputs)
            latency = time.perf_counter() - t0
        finally:
            if around is not None:
                around[1]()
    except Exception as exc:  # the loop must keep running; report it
        return Record(None, 0, [f"{req.kind}: {type(exc).__name__}: {exc}"])
    try:
        failures = workload.check(state, req, outcome)
        record = Record(latency, outcome.work, failures, start=t0)
        if digest:
            record.digest = workload.digest(req, outcome)
        if req.kind == "scorecard":
            record.extra["rows_ok"] = sum(row[3] for row in outcome.outputs["rows"])
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return Record(latency, outcome.work, [f"{req.kind}: check raised {type(exc).__name__}: {exc}"])
    return record


def closed_loop(workload, state, seed: int, seconds: float, index) -> tuple[list[Record], int]:
    """Whole rounds until *seconds* of wall time have passed, probing
    the host speed *index* between requests."""
    records: list[Record] = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for req in workload.round(seed, rounds):
            index.maybe_probe()
            records.append(run_one(workload, state, req, digest=rounds == 0))
        rounds += 1
    index.maybe_probe()
    return records, rounds


def tail(latencies: list[float], beyond: int = 10) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    *beyond* samples above it (the maximum when there are too few)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def combine(digests) -> str:
    h = hashlib.sha256()
    for d in digests:
        h.update((d or "-").encode())
    return h.hexdigest()[:16]


def paper_claims(workloads_mod, workload, state) -> tuple[dict, list[str], str]:
    """The model's error against the paper, and the fixed-set digest.

    Runs the 700 KB Copy on ``digest_seed`` data plus the first requests
    of ``digest_seed``'s round 0, outside the timed loop.
    """
    from repro.hw.synthesis import default_model

    failures: list[str] = []
    digest_seed = SPEC["digest_seed"]
    stream = workloads_mod.StreamSim()
    copy = workloads_mod._req("stream", digest_seed, app="Copy",
                              vectors=workloads_mod.STREAM_PAPER_VECTORS)
    outcome = stream.execute(None, copy, None)
    failures += stream.check(None, copy, outcome)
    m = stream.measurement(outcome)
    stats = default_model().freq_fit_stats
    claims = {
        "copy_mbps": m.mbps,
        "copy_efficiency": m.efficiency,
        "table_iv_r2": stats["r2"],
        "table_iv_mean_abs_pct_err": stats["mean_abs_pct_err"],
    }
    if not (m.efficiency > 0.99 and abs(m.mbps - PAPER_COPY_MBPS) / PAPER_COPY_MBPS < 0.01):
        failures.append(f"Fig. 10: 700 KB Copy at {m.mbps:.0f} MB/s is off the paper's claim")
    if not stats["r2"] > MIN_TABLE_IV_R2:
        failures.append(f"Table IV: frequency model R^2 {stats['r2']:.3f} <= {MIN_TABLE_IV_R2}")
    digests = [stream.digest(copy, outcome)]
    for req in workload.round(digest_seed, 0)[: DIGEST_REQUESTS[workload.name]]:
        record = run_one(workload, state, req, digest=True)
        failures += record.failures
        digests.append(record.digest)
    return claims, failures, combine(digests)


def setup_probe(workload) -> None:
    """Child-process body of one ``setup_s`` sample: the set-up time and
    the host speed index measured before and after it (probe time is not
    set-up time)."""
    t0 = time.perf_counter()
    before = [speed.probe() for _ in range(5)]
    probing = time.perf_counter() - t0
    state = workload.setup(0)
    try:
        workload.warmup(state)
        workload.round(0, 0)
    finally:
        workload.close(state)
    seconds = time.perf_counter() - _T_START - probing
    index = statistics.median(before + [speed.probe() for _ in range(5)]) / speed.NOMINAL_S
    print(json.dumps({"setup_s": seconds, "index": index}))


def measure_setup(name: str) -> list[tuple[float, float]]:
    """``(raw seconds, speed index)`` of fresh set-up processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((sample["setup_s"], sample["index"]))
    return samples


def print_claims(claims: dict, sim_digest: str, seed_digest: str) -> None:
    err = (claims["copy_mbps"] - PAPER_COPY_MBPS) / PAPER_COPY_MBPS
    print(f"paper Fig. 10: 700 KB Copy {claims['copy_mbps']:.1f} MB/s vs {PAPER_COPY_MBPS:.0f} "
          f"({100 * err:+.3f}%), efficiency {100 * claims['copy_efficiency']:.3f}% vs "
          f"{100 * PAPER_COPY_EFFICIENCY:.2f}% "
          f"({100 * (claims['copy_efficiency'] - PAPER_COPY_EFFICIENCY):+.3f} pp)")
    print(f"paper Table IV: frequency model R^2 = {claims['table_iv_r2']:.4f}, "
          f"mean |err| = {claims['table_iv_mean_abs_pct_err']:.2f}% over the 90 published cells")
    print(f"sim_digest = {sim_digest} (fixed check set)   seed_digest = {seed_digest} (round 0 of this seed)")


def untraced(workloads_mod, workload, seed: int, seconds: float) -> dict:
    state = workload.setup(seed)
    index = speed.SpeedIndex()
    try:
        workload.warmup(state)
        records, rounds = closed_loop(workload, state, seed, seconds, index)
        claims, claim_failures, sim_digest = paper_claims(workloads_mod, workload, state)
    finally:
        workload.close(state)
    setups = measure_setup(workload.name)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = [r for r in records if r.latency is not None]
    failed = sum(1 for r in records if r.failures)
    work = sum(r.work for r in done)
    raw = [r.latency for r in done]
    scaled = [r.latency / index.at(r.start) for r in done]
    metrics, lines = {}, []
    for label, latencies, setup in (
        ("at reference speed", scaled, [s / i for s, i in setups]),
        ("raw host time", raw, [s for s, _ in setups]),
    ):
        busy = sum(latencies)
        value, pct = tail(latencies)
        values = {
            "requests_per_s": len(latencies) / busy,
            "p50_s": statistics.median(latencies),
            "tail_s": value,
            "work_per_s": work / busy,
            "setup_s": statistics.median(setup),
        }
        metrics = metrics or values
        n = len(latencies)
        lines += [
            f"-- {label}: {busy:.3f} s of request time",
            f"requests_per_s = {values['requests_per_s']:.4f} 1/s",
            f"p50_s = {values['p50_s']:.6f} s  (median of n = {n})",
            f"tail_s = {value:.6f} s  (p{pct:.2f}: 10 samples beyond it, n = {n})",
            f"{workload.work_metric} = {values['work_per_s']:.2f} {workload.work_unit}/s  "
            f"(reported as work_per_s; {work} {workload.work_unit})",
            f"setup_s = {values['setup_s']:.4f} s  "
            f"(median of {', '.join(f'{s:.4f}' for s in setup)})",
        ]
    metrics["peak_rss_mb"] = rss_mb
    print(f"workload {workload.name}  seed {seed}  closed loop, 1 client  "
          f"{len(records)} requests in {rounds} rounds")
    print(f"host speed index: median {index.median():.4f} over {len(index.values)} probes "
          f"(probe time / {speed.NOMINAL_S * 1e3:g} ms; metrics below are host time / index)")
    print("\n".join(lines))
    print(f"error_rate = {failed / len(records):.6f}  ({failed} failed of {len(records)} attempted)")
    print(f"peak_rss_mb = {rss_mb:.1f} MB")
    print_claims(claims, sim_digest, combine(r.digest for r in records if r.digest is not None))
    for r in records:
        for failure in r.failures:
            print(f"FAILED: {failure}")
    for failure in claim_failures:
        print(f"FAILED claim: {failure}")
    units = {name: spec["unit"] for name, spec in SPEC["end_to_end"].items()}
    return {
        "correct": failed == 0 and not claim_failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def traced(workloads_mod, workload, seed: int) -> dict:
    from repro.telemetry import Telemetry, context

    plain_state = workload.setup(seed)
    traced_state = workload.setup(seed)
    try:
        workload.warmup(plain_state)
        recorder = tracing.SpanRecorder()
        patches = tracing.LayerPatches(recorder)
        tel = Telemetry()
        root = []

        def enter():
            patches.install()
            context.activate(tel)
            root.append(recorder.begin(tracing.REQUEST))

        def leave():
            recorder.end(root.pop())
            context.deactivate()
            patches.remove()

        pairs = []
        index = 0
        for r in range(TRACE_ROUNDS[workload.name]):
            for req in workload.round(seed, r):
                recorder.request = index

                def plain():
                    return run_one(workload, plain_state, req, digest=True)

                def traced_copy():
                    return run_one(workload, traced_state, req, digest=True, around=(enter, leave))

                if index % 2:
                    tr = traced_copy()
                    pl = plain()
                else:
                    pl = plain()
                    tr = traced_copy()
                pairs.append((pl, tr))
                index += 1
        claims, claim_failures, sim_digest = paper_claims(workloads_mod, workload, plain_state)
    finally:
        workload.close(plain_state)
        workload.close(traced_state)
    failed = 0
    for pl, tr in pairs:
        if pl.digest != tr.digest and not (pl.failures or tr.failures):
            tr.failures.append("traced and untraced runs of one request simulated different results")
        failed += bool(pl.failures or tr.failures)
    complete = [(pl, tr) for pl, tr in pairs if pl.latency is not None and tr.latency is not None]
    n = len(complete)
    # medians: the first run of a new structure pays its compile, whichever copy it is
    overhead = statistics.median(tr.latency - pl.latency for pl, tr in complete)
    plain = statistics.median(pl.latency for pl, _ in complete)
    scorecards = [tr.extra["rows_ok"] for _, tr in pairs if "rows_ok" in tr.extra]
    values, absent = tracing.layer_metrics(
        recorder,
        {k: c.value for k, c in tel.metrics.counters.items()},
        n,
        {
            "stream_bench.sim_mbps": claims["copy_mbps"],
            "stream_bench.efficiency": claims["copy_efficiency"],
            "experiments.rows_ok": sum(scorecards) / len(scorecards) if scorecards else 0.0,
            "trace.overhead_s": overhead,
        },
    )
    if not scorecards:
        absent["experiments.rows_ok"] = "no traced request ran the scorecard"
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    recorder.save(spans_path)
    print(f"workload {workload.name}  seed {seed}  traced run: {len(pairs)} requests "
          f"({TRACE_ROUNDS[workload.name]} rounds), each run plain and traced, alternating order")
    print(f"tracing overhead: median {overhead:.6f} s per request "
          f"({100 * overhead / plain:+.2f}% of the median untraced {plain:.6f} s)")
    print(f"spans: {len(recorder.spans)} written to {spans_path.relative_to(ROOT)}")
    per_layer = SPEC["per_layer"]
    for name, spec in per_layer.items():
        note = f"  [absent: {absent[name]}]" if name in absent else ""
        print(f"{name} = {values[name]:.6g} {spec['unit']}  -> {spec['target']}{note}")
    seed_digest = combine(tr.digest for pl, tr in pairs[: len(workload.round(seed, 0))])
    print_claims(claims, sim_digest, seed_digest)
    for pl, tr in pairs:
        for failure in pl.failures + tr.failures:
            print(f"FAILED: {failure}")
    for failure in claim_failures:
        print(f"FAILED claim: {failure}")
    return {
        "correct": failed == 0 and not claim_failures,
        "attempted": len(pairs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": spec["unit"]}
                    for name, spec in per_layer.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # the program's defaults, and no ledger or cache written outside the checkout
    for var in ("REPRO_BACKEND", "REPRO_LEDGER", "REPRO_CACHE_DIR"):
        os.environ.pop(var, None)
    _import_program()
    import workloads as workloads_mod

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads_mod.make(args.workload, OUT_DIR)
    if args.setup_probe:
        setup_probe(workload)
        return 0
    if args.seed == SPEC["claims_seed"]:
        print(f"note: seed {args.seed} is the held-out claims seed")
    if args.trace:
        result = traced(workloads_mod, workload, args.seed)
    else:
        result = untraced(workloads_mod, workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
