"""The three benchmark workloads: seeded request generators, the calls
through the public API, and the checks on every result.

Each workload is a closed loop with one client.  Requests come in
*rounds*: a round is a small stratified design (every size stratum, app,
backend, kernel or scheme appears a fixed number of times), with the
seed choosing the values inside each stratum and the order.  Rounds keep
the request mix the same from seed to seed, so the medians and tails of
two seeds measure the same workload; the values still differ per seed.

A request runs in three steps and only the middle one is timed:

* ``prepare`` builds its inputs (random data, memories, design spaces);
* ``execute`` makes the calls a user would make and returns the outputs;
* ``check`` compares the outputs with an independent reference and
  returns a list of failures (empty when correct).

``digest`` reduces an outcome to its simulated results only — cycles,
transfers, payloads, outputs — never host times, so a change that only
makes the host faster leaves it bit-identical.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: every request of a run derives its data seed from (run seed, round)
_SEED_BOUND = 2**31


@dataclass(frozen=True)
class Request:
    """One closed-loop request: what to run and the seed of its data."""

    kind: str
    params: tuple
    seed: int

    def key(self) -> str:
        """A stable text form (same seed, same keys)."""
        return json.dumps([self.kind, self.params, self.seed], default=str)

    def param(self, name: str) -> Any:
        return dict(self.params)[name]


@dataclass
class Outcome:
    """What one request produced."""

    outputs: dict
    #: the workload's unit of work done by this request (simulated
    #: cycles, configurations evaluated or parallel accesses)
    work: int


def _req(kind: str, seed: int, **params) -> Request:
    return Request(kind, tuple(sorted(params.items())), int(seed))


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=str).encode())
    return h.hexdigest()


def _rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(round_index)])


# ---------------------------------------------------------------------------
# stream_sim: cycle-accurate STREAM runs on the Fig. 9 design
# ---------------------------------------------------------------------------

#: 8 KB per array at 8 lanes x 8 B
STREAM_MIN_VECTORS = 128
#: the paper's 700 KB maximum array (170 x 512 words)
STREAM_PAPER_VECTORS = 10_880
STREAM_APPS = ("Copy", "Scale", "Sum", "Triad")
STREAM_SCALAR = 3.0


def _stream_reference(app: str, a, b, c) -> np.ndarray:
    """The destination array after one STREAM kernel (McCalpin)."""
    if app == "Copy":
        return a.copy()
    if app == "Scale":
        return STREAM_SCALAR * b
    if app == "Sum":
        return b + c
    if app == "Triad":
        return b + STREAM_SCALAR * c
    raise ValueError(f"unknown STREAM app {app!r}")


class StreamSim:
    """``stream_sim``: load, compute and offload on a fresh Fig. 9 design.

    Each round holds 16 sizes, one per log-uniform stratum of
    8 KB .. 700 KB, with each app four times (each stratum cycles through
    the apps and through four equal slices of itself over the rounds);
    round 0 starts with the paper's 700 KB Copy.  Work is simulated
    cycles (all three stages).
    """

    name = "stream_sim"
    work_unit = "cycles"
    work_metric = "sim_cycles_per_s"
    strata = 16
    slices = 4

    def round(self, seed: int, index: int) -> list[Request]:
        rng = _rng(seed, index)
        # each size stratum cycles through the four apps over the rounds
        apps = (np.arange(self.strata) + index + seed) % len(STREAM_APPS)
        # and through its slices in a seeded order, so a run covers each
        # stratum evenly and the slow tail is not left to a few draws
        slices = np.array([
            np.random.default_rng([seed, k]).permutation(self.slices)[index % self.slices]
            for k in range(self.strata)
        ])
        u = (np.arange(self.strata) + (slices + rng.random(self.strata)) / self.slices) / self.strata
        lo, hi = np.log(STREAM_MIN_VECTORS), np.log(STREAM_PAPER_VECTORS)
        vectors = np.rint(np.exp(lo + u * (hi - lo))).astype(int)
        seeds = rng.integers(0, _SEED_BOUND, self.strata + 1)
        reqs = [
            _req("stream", seeds[k], app=STREAM_APPS[apps[k]], vectors=int(vectors[k]))
            for k in rng.permutation(self.strata)
        ]
        if index == 0:
            reqs.insert(
                0, _req("stream", seeds[-1], app="Copy", vectors=STREAM_PAPER_VECTORS)
            )
        return reqs

    def setup(self, seed: int):
        return None

    def warmup(self, state) -> None:
        req = _req("stream", 0, app="Copy", vectors=STREAM_MIN_VECTORS)
        self.check(state, req, self.execute(state, req, self.prepare(state, req)))

    def close(self, state) -> None:
        pass

    def prepare(self, state, req: Request):
        return None

    def execute(self, state, req: Request, inputs) -> Outcome:
        from repro.stream_bench import StreamHarness, all_apps
        from repro.stream_bench.controller import build_stream_design

        app = {a.name: a for a in all_apps()}[req.param("app")]
        vectors = req.param("vectors")
        harness = StreamHarness(build_stream_design())
        arrays = harness.load_arrays(vectors, seed=req.seed)
        cycles = harness.run_app(app, vectors, STREAM_SCALAR)
        got = harness.offload_array(app.destination, vectors)
        design = harness.design
        return Outcome(
            outputs={
                "arrays": arrays,
                "got": got,
                "cycles": cycles,
                "app": app,
                "harness": harness,
            },
            work=int(design.dfe.simulator.cycles),
        )

    def check(self, state, req: Request, outcome: Outcome) -> list[str]:
        from repro.stream_bench.harness import PIPELINE_SLACK_CYCLES

        out = outcome.outputs
        vectors = req.param("vectors")
        arrays = out["arrays"]
        want = _stream_reference(req.param("app"), arrays["a"], arrays["b"], arrays["c"])
        failures = []
        if not np.array_equal(out["got"], want):
            failures.append(f"{req.param('app')} {vectors}v: offloaded data differs from NumPy")
        expect = vectors + out["harness"].design.read_latency + PIPELINE_SLACK_CYCLES
        if out["cycles"] != expect:
            failures.append(
                f"{req.param('app')} {vectors}v: {out['cycles']} compute cycles, "
                f"expected vectors + read latency + slack = {expect}"
            )
        return failures

    @staticmethod
    def measurement(outcome: Outcome):
        """The simulated STREAM figures of one request."""
        from repro.stream_bench import StreamMeasurement

        out = outcome.outputs
        design = out["harness"].design
        return StreamMeasurement(
            app_name=out["app"].name,
            elements=out["got"].size,
            runs=1,
            cycles_per_run=out["cycles"],
            clock_mhz=design.dfe.clock_mhz,
            host_overhead_ns=design.dfe.board.pcie.call_overhead_ns,
            bytes_per_element=out["app"].bytes_per_element,
            lanes=design.config.lanes,
        )

    def digest(self, req: Request, outcome: Outcome) -> str:
        out = outcome.outputs
        harness = out["harness"]
        m = self.measurement(outcome)
        kernels = {
            name: [s.active_cycles, s.total_cycles, s.elements_in, s.elements_out]
            for name, s in harness.design.dfe.simulator.stats().items()
        }
        stages = {
            name: [s.calls, s.payload_bytes, s.pcie_ns, s.compute_ns]
            for name, s in harness.host.stages.items()
        }
        return _sha(
            req.key(), out["cycles"], outcome.work, kernels, stages,
            m.mbps, m.efficiency, out["got"],
        )


# ---------------------------------------------------------------------------
# dse_whatif: design-space queries
# ---------------------------------------------------------------------------

DSE_BACKENDS = ("vectis", "lx240t", "dram", "hbm2", "dual-dfe")
DSE_VALIDATE = (0, 16, 64)
DSE_SCHEMES = ("ReO", "ReRo", "ReCo", "RoCo", "ReTr")
DSE_CAPACITIES = (512, 1024, 2048, 4096)
DSE_PORTS = (1, 2, 3, 4)
#: per round of 15: fresh serial batch queries, cold-cache queries, warm
#: repeats of an earlier cached query, pooled queries and one scorecard
DSE_MODES = ("serial",) * 6 + ("cached",) * 4 + ("repeat",) * 2 + ("pooled",) * 2 + ("scorecard",)


def _dse_profiles() -> list[dict]:
    """The 60 query profiles every mode cycles through: each (validate,
    backend, capacities) combination once, with scheme windows, port
    counts and prune spread evenly over them.  Fixed, so every seed sees
    the same mix; the seed picks where each run starts in the cycle."""
    rng = np.random.default_rng(60)
    n = 60
    count = rng.permutation(np.arange(n) % 5 + 1)
    first = rng.permutation(np.arange(n) % 5)
    ports = rng.permutation(np.arange(n) % 4 + 1)
    prune = rng.permutation(np.arange(n) % 2 == 0)
    return [
        {
            "validate": DSE_VALIDATE[i % 3],
            "backend": DSE_BACKENDS[i % 5],
            # the smallest capacities and port counts, so every subspace
            # holds a feasible point
            "capacities": DSE_CAPACITIES[: i % 4 + 1],
            "schemes": tuple(DSE_SCHEMES[(first[i] + j) % 5] for j in range(count[i])),
            "ports": DSE_PORTS[: ports[i]],
            "prune": bool(prune[i]),
        }
        for i in range(n)
    ]


DSE_PROFILES = _dse_profiles()


@dataclass
class DseState:
    cache_dir: str
    cache: Any
    workers: int
    #: reference payloads of the serial batch explore(), per query key
    references: dict = field(default_factory=dict)


class DseWhatIf:
    """``dse_whatif``: ``explore()`` over a seeded Table III subspace on a
    registered backend, then Pareto and budget queries and the achieved
    bandwidth of the winner.  Work is configurations evaluated; cache hits
    are not evaluations."""

    name = "dse_whatif"
    work_unit = "configs"
    work_metric = "configs_per_s"

    def __init__(self, scratch_root: str | os.PathLike | None = None):
        self.scratch_root = scratch_root

    def round(self, seed: int, index: int) -> list[Request]:
        rng = _rng(seed, index)
        n = len(DSE_MODES)
        modes = [DSE_MODES[k] for k in rng.permutation(n)]
        # a warm repeat needs an earlier cold query in the same round
        for pos, mode in enumerate(modes):
            if mode == "repeat" and "cached" not in modes[:pos]:
                later = modes.index("cached", pos)
                modes[pos], modes[later] = "cached", "repeat"
        # each mode walks the profile cycle from a seeded start
        start = int(np.random.default_rng(seed).integers(len(DSE_PROFILES)))
        per_round = {mode: DSE_MODES.count(mode) for mode in DSE_MODES}
        seen = dict.fromkeys(per_round, 0)
        seeds = rng.integers(0, _SEED_BOUND, n)
        reqs: list[Request] = []
        for k, mode in enumerate(modes):
            g = index * per_round[mode] + seen[mode]
            seen[mode] += 1
            if mode == "scorecard":
                reqs.append(_req("scorecard", seeds[k]))
                continue
            if mode == "repeat":
                earlier = [r for r in reqs if r.kind == "query" and r.param("mode") == "cached"]
                base = earlier[int(rng.integers(len(earlier)))]
                reqs.append(Request("query", tuple(
                    (key, "repeat" if key == "mode" else value) for key, value in base.params
                ), base.seed))
                continue

            reqs.append(_req(
                "query", seeds[k],
                mode=mode,
                **DSE_PROFILES[(start + g) % len(DSE_PROFILES)],
                max_bram=float(rng.choice((30.0, 60.0, 100.0))),
                max_logic=float(rng.choice((20.0, 40.0, 100.0))),
                stride=int(rng.choice((1, 8, 64))),
            ))
        return reqs

    def setup(self, seed: int) -> DseState:
        from repro.exec import ResultCache

        cache_dir = tempfile.mkdtemp(prefix="dse-cache-", dir=self.scratch_root)
        return DseState(cache_dir, ResultCache(cache_dir), len(os.sched_getaffinity(0)))

    def warmup(self, state: DseState) -> None:
        """Fit every backend's synthesis model and compile the validation
        plans once, as a long-lived user session would have."""
        from repro.dse import explore

        for backend in DSE_BACKENDS:
            explore(backend=backend, validate=True, validate_rows=16)

    def close(self, state: DseState) -> None:
        shutil.rmtree(state.cache_dir, ignore_errors=True)

    @staticmethod
    def space(req: Request):
        from repro.core.schemes import Scheme
        from repro.dse.space import DesignSpace

        return DesignSpace(
            capacities_kb=req.param("capacities"),
            read_ports=req.param("ports"),
            schemes=tuple(Scheme(s) for s in req.param("schemes")),
        )

    def prepare(self, state: DseState, req: Request):
        if req.kind == "scorecard":
            return None
        from repro.backend import AddressStream

        stream = AddressStream.strided(4096, req.param("stride"))
        return self.space(req), stream

    @staticmethod
    def _explore_kwargs(req: Request) -> dict:
        return {
            "validate": req.param("validate") > 0,
            "validate_rows": req.param("validate") or 16,
            "prune": req.param("prune"),
            "backend": req.param("backend"),
        }

    def execute(self, state: DseState, req: Request, inputs) -> Outcome:
        if req.kind == "scorecard":
            experiments = importlib.import_module("repro.experiments")
            card = experiments.run_scorecard()
            meta = card.report.meta
            return Outcome(
                outputs={"rows": [(r.experiment, r.quantity, r.measured, r.ok) for r in card.rows]},
                work=int(meta.get("sweep_points", 0) - meta.get("sweep_cached", 0)),
            )
        dse = importlib.import_module("repro.dse")
        bandwidth = importlib.import_module("repro.dse.bandwidth")
        space, stream = inputs
        mode = req.param("mode")
        kwargs = self._explore_kwargs(req)
        if mode in ("cached", "repeat"):
            kwargs["cache"] = state.cache
        elif mode == "pooled":
            kwargs["workers"] = state.workers
        result = dse.explore(space=space, **kwargs)
        outputs = self._answers(req, result, stream, dse, bandwidth)
        sweep = result.sweep
        return Outcome(outputs=outputs, work=int(sweep.n_computed) if sweep else len(result.points))

    @staticmethod
    def _answers(req: Request, result, stream, dse, bandwidth) -> dict:
        frontier = dse.pareto_frontier(result)
        best = dse.best_under_budget(result, req.param("max_bram"), req.param("max_logic"))
        achieved = (
            bandwidth.achieved_bandwidth(best.config, stream, req.param("backend")).to_dict()
            if best is not None
            else None
        )
        return {
            "points": [
                (p.config.label(), p.paper_mhz, p.model_mhz, p.logic_pct,
                 p.lut_pct, p.bram_pct, p.validated)
                for p in result.points
            ],
            "frontier": [f.label for f in frontier],
            "best": best.config.label() if best is not None else None,
            "achieved": achieved,
        }

    @staticmethod
    def _query_key(req: Request) -> str:
        """The query without its mode: a repeat and its cold original,
        or a serial and a pooled query, ask the same question."""
        return json.dumps([[p for p in req.params if p[0] != "mode"], req.seed], default=str)

    def reference(self, state: DseState, req: Request, inputs) -> dict:
        """The same query answered by a serial batch ``explore()``
        (memoized per query: repeats share one reference)."""
        key = self._query_key(req)
        if key not in state.references:
            from repro import dse
            from repro.dse import bandwidth

            space, stream = inputs
            result = dse.explore(space=space, **self._explore_kwargs(req))
            state.references[key] = self._answers(req, result, stream, dse, bandwidth)
        return state.references[key]

    def check(self, state: DseState, req: Request, outcome: Outcome) -> list[str]:
        if req.kind == "scorecard":
            bad = [f"{e} {q}: {m}" for e, q, m, ok in outcome.outputs["rows"] if not ok]
            return [f"scorecard row failed: {b}" for b in bad]
        want = self.reference(state, req, self.prepare(state, req))
        if outcome.outputs != want:
            return [f"query {req.param('mode')}/{req.param('backend')}: payload differs from serial batch explore()"]
        if req.param("mode") == "repeat" and outcome.work != 0:
            return [f"repeated query evaluated {outcome.work} configurations instead of hitting the cache"]
        return []

    def digest(self, req: Request, outcome: Outcome) -> str:
        return _sha(req.kind, self._query_key(req) if req.kind == "query" else req.seed,
                    outcome.outputs)


# ---------------------------------------------------------------------------
# access_kernels: application kernels and random access traces
# ---------------------------------------------------------------------------

#: shapes come from small sets so structures repeat (the fusion cache)
KERNEL_SHAPES = {
    "matmul": (16, 32, 64),
    "transpose": (16, 32, 64),
    "stencil_sweep": (16, 32, 64),
    "jacobi_solve": (16, 32),
    "reduce_rows": (16, 32, 64),
    "reduce_columns": (16, 32, 64),
}
STENCIL_WEIGHTS = (
    np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]]),
    np.ones((3, 3), dtype=np.int64),
)
JACOBI_ITERATIONS = (2, 4)
TRACE_SCHEMES = ("ReO", "ReRo", "ReCo", "RoCo", "ReTr")
#: lanes -> (p, q)
TRACE_GRIDS = {8: (2, 4), 16: (4, 4), 64: (8, 8)}
TRACE_CYCLES = (128, 256)
#: traces per round: each scheme three times, each lane count five times,
#: 8 of 15 replayed directly and 7 run as access programs, likewise
#: read-/write-heavy, read_first/write_first and 128/256 cycles; one of
#: the 15 is checked against the serial step(use_plans=False) oracle
TRACES_PER_ROUND = 15
ORACLE_PER_ROUND = 1


def _conflict_free_table(scheme, kind, p: int, q: int) -> np.ndarray:
    """``ok[i % P, j % P]``: anchors whose access touches p*q distinct
    banks (every module assignment function is periodic in P = p*q)."""
    from repro.core.patterns import pattern_offsets
    from repro.core.schemes import Scheme, flat_module_assignment

    period = p * q
    di, dj = pattern_offsets(kind, p, q)
    res = np.arange(period)
    banks = flat_module_assignment(
        Scheme(scheme), res[:, None, None] + di, res[None, :, None] + dj, p, q
    )
    ordered = np.sort(banks, axis=-1)
    return (np.diff(ordered, axis=-1) != 0).all(axis=-1)


class AccessKernels:
    """``access_kernels``: PolyMem application kernels plus fresh random
    traces through ``PolyMem.replay`` and ``repro.program.build().run()``.
    Work is parallel accesses (``polymem.parallel_accesses``)."""

    name = "access_kernels"
    work_unit = "accesses"
    work_metric = "accesses_per_s"

    def __init__(self):
        self._tables: dict = {}

    # -- generation ---------------------------------------------------------
    def round(self, seed: int, index: int) -> list[Request]:
        rng = _rng(seed, index)
        seeds = rng.integers(0, _SEED_BOUND, len(KERNEL_SHAPES) + TRACES_PER_ROUND)
        reqs = []
        # shapes cycle over the rounds from a seeded start, so each shape
        # takes the same share of every run
        turn = index + seed
        for k, (kernel, shapes) in enumerate(KERNEL_SHAPES.items()):
            params = {"kernel": kernel, "n": shapes[(turn + k) % len(shapes)]}
            if kernel == "stencil_sweep":
                params["weights"] = turn // len(shapes) % len(STENCIL_WEIGHTS)
            if kernel == "jacobi_solve":
                params["iterations"] = JACOBI_ITERATIONS[turn // len(shapes) % len(JACOBI_ITERATIONS)]
            reqs.append(_req("kernel", seeds[k], **params))
        n = TRACES_PER_ROUND
        schemes = np.asarray(TRACE_SCHEMES * 3)[rng.permutation(n)]
        lanes = np.asarray(list(TRACE_GRIDS) * 5)[rng.permutation(n)]

        def split():
            return rng.permutation(np.arange(n) % 2 == 0)

        path, heavy, policy, long = split(), split(), split(), split()
        oracle = rng.permutation(np.arange(n) < ORACLE_PER_ROUND)
        for t in range(n):
            reqs.append(_req(
                "trace", seeds[len(KERNEL_SHAPES) + t],
                scheme=str(schemes[t]),
                lanes=int(lanes[t]),
                path="replay" if path[t] else "program",
                heavy="read" if heavy[t] else "write",
                policy="read_first" if policy[t] else "write_first",
                cycles=TRACE_CYCLES[int(long[t])],
                oracle=bool(oracle[t]),
            ))
        return [reqs[k] for k in rng.permutation(len(reqs))]

    def setup(self, seed: int):
        return None

    def warmup(self, state) -> None:
        for req in self.round(0, 0):
            self.check(state, req, self.execute(state, req, self.prepare(state, req)))

    def close(self, state) -> None:
        pass

    def _anchors(self, rng, scheme, kind, p, q, rows, cols, n):
        """*n* seeded in-bounds, conflict-free anchors for *kind*."""
        from repro.core.patterns import pattern_offsets

        key = (scheme, kind, p, q)
        if key not in self._tables:
            self._tables[key] = _conflict_free_table(scheme, kind, p, q)
        ok = self._tables[key]
        di, dj = pattern_offsets(kind, p, q)
        i_lo, i_hi = -int(di.min()), rows - 1 - int(di.max())
        j_lo, j_hi = -int(dj.min()), cols - 1 - int(dj.max())
        got_i, got_j = [], []
        while sum(len(a) for a in got_i) < n:
            ci = rng.integers(i_lo, i_hi + 1, 4 * n)
            cj = rng.integers(j_lo, j_hi + 1, 4 * n)
            keep = ok[ci % (p * q), cj % (p * q)]
            got_i.append(ci[keep])
            got_j.append(cj[keep])
        return np.concatenate(got_i)[:n], np.concatenate(got_j)[:n]

    def _kinds(self, scheme, p: int, q: int) -> list:
        from repro.core.schemes import SCHEME_SPECS, Scheme

        return [e.kind for e in SCHEME_SPECS[Scheme(scheme)].supported if e.condition_holds(p, q)]

    def _trace_phases(self, req: Request, rng, rows: int, cols: int):
        """Two phases: read-heavy is (2 reads) then (read + write), write-
        heavy is (write) then (read + write); the second phase re-reads
        half of the slots it writes in the same cycle, so collision
        forwarding is exercised under ``write_first``."""
        scheme, lanes = req.param("scheme"), req.param("lanes")
        p, q = TRACE_GRIDS[lanes]
        kinds = self._kinds(scheme, p, q)
        n = req.param("cycles")
        m = n // 4

        def stream(length):
            kind = kinds[int(rng.integers(len(kinds)))]
            ai, aj = self._anchors(rng, scheme, kind, p, q, rows, cols, length)
            return kind, ai, aj

        def values(length):
            return rng.integers(0, 2**63, size=(length, lanes), dtype=np.uint64)

        if req.param("heavy") == "read":
            first = {"reads": [stream(n), stream(n)], "write": None}
        else:
            first = {"reads": [], "write": (*stream(n), values(n))}
        wkind, wi, wj = stream(m)
        rkind, ri, rj = stream(m)
        same = rng.random(m) < 0.5
        ri, rj = np.where(same, wi, ri), np.where(same, wj, rj)
        kind_per_cycle = tuple(wkind if s else rkind for s in same)
        second = {"reads": [(kind_per_cycle, ri, rj)], "write": (wkind, wi, wj, values(m))}
        return [first, second]

    def prepare(self, state, req: Request):
        rng = np.random.default_rng(req.seed)
        if req.kind == "kernel":
            kernel, n = req.param("kernel"), req.param("n")
            if kernel == "matmul":
                return {"a": rng.integers(0, 100, (n, n), dtype=np.uint64),
                        "b": rng.integers(0, 100, (n, n), dtype=np.uint64)}
            if kernel == "jacobi_solve":
                return {"grid": rng.uniform(0.0, 1.0, (n, n))}
            if kernel == "stencil_sweep":
                return {"image": rng.integers(0, 100, (n, n))}
            return {"matrix": rng.integers(0, 1000, (n, n), dtype=np.uint64)}
        lanes = req.param("lanes")
        rows = cols = 4 * lanes
        data = rng.integers(0, 2**63, size=(rows, cols), dtype=np.uint64)
        phases = self._trace_phases(req, rng, rows, cols)
        return {"data": data, "phases": phases, "pm": self._memory(req, data)}

    def _memory(self, req: Request, data: np.ndarray):
        from repro.core.config import PolyMemConfig
        from repro.core.polymem import PolyMem
        from repro.core.schemes import Scheme

        p, q = TRACE_GRIDS[req.param("lanes")]
        rows, cols = data.shape
        pm = PolyMem(
            PolyMemConfig(rows * cols * 8, p=p, q=q, scheme=Scheme(req.param("scheme")),
                          read_ports=2, rows=rows, cols=cols),
            collision_policy=req.param("policy"),
        )
        pm.load(data)
        pm.reset_stats()
        return pm

    # -- execution ------------------------------------------------------------
    def execute(self, state, req: Request, inputs) -> Outcome:
        if req.kind == "kernel":
            return self._run_kernel(req, inputs)
        pm = inputs["pm"]
        if req.param("path") == "replay":
            outputs = self._replay(pm, inputs["phases"])
        else:
            outputs = self._program(pm, inputs["phases"])
        accesses = pm.write_stats.accesses + sum(s.accesses for s in pm.read_stats)
        return Outcome(
            outputs={"reads": outputs, "pm": pm, "cycles": pm.cycles},
            work=int(accesses),
        )

    @staticmethod
    def _run_kernel(req: Request, inputs) -> Outcome:
        kernels = importlib.import_module("repro.kernels")
        kernel, n = req.param("kernel"), req.param("n")
        if kernel == "matmul":
            out, report = kernels.matmul(inputs["a"], inputs["b"])
        elif kernel == "transpose":
            out, report = kernels.transpose(inputs["matrix"])
        elif kernel == "stencil_sweep":
            out, report = kernels.stencil_sweep(
                inputs["image"], STENCIL_WEIGHTS[req.param("weights")]
            )
        elif kernel == "jacobi_solve":
            out, report = kernels.jacobi_solve(inputs["grid"], req.param("iterations"))
        else:
            pm = kernels.load_matrix(inputs["matrix"])
            out, report = getattr(kernels, kernel)(pm)
        # every kernel runs on the default 2 x 4 lane grid with full-width
        # accesses, so accesses = elements / 8
        return Outcome(outputs={"out": out, "report": report},
                       work=int(report.elements_accessed // 8))

    @staticmethod
    def _replay(pm, phases) -> list:
        from repro.core.plan import AccessTrace

        results = []
        for phase in phases:
            trace = AccessTrace()
            for port, (kind, ai, aj) in enumerate(phase["reads"]):
                trace.read(kind, ai, aj, port=port)
            if phase["write"] is not None:
                trace.write(*phase["write"])
            out = pm.replay(trace)
            results.append([out[port] for port in range(len(phase["reads"]))])
        return results

    @staticmethod
    def _program(pm, phases) -> list:
        program = importlib.import_module("repro.program")

        builder = program.ProgramBuilder("bench-trace")
        for k, phase in enumerate(phases):
            joined = False
            for port, (kind, ai, aj) in enumerate(phase["reads"]):
                builder.read(kind, ai, aj, port=port, tag=f"p{k}r{port}", fuse=joined)
                joined = True
            if phase["write"] is not None:
                kind, wi, wj, values = phase["write"]
                builder.write(kind, wi, wj, values=values, fuse=joined)
        env = program.build(builder.using(pm)).run().env
        return [
            [env[f"p{k}r{port}"] for port in range(len(phase["reads"]))]
            for k, phase in enumerate(phases)
        ]

    # -- checks -------------------------------------------------------------------
    def check(self, state, req: Request, outcome: Outcome) -> list[str]:
        if req.kind == "kernel":
            return self._check_kernel(req, outcome)
        if not req.param("oracle"):
            return []
        inputs = self.prepare(state, req)
        want = self._oracle(inputs["pm"], inputs["phases"])
        out = outcome.outputs
        label = f"{req.param('path')} {req.param('scheme')}/{req.param('lanes')}L"
        failures = []
        for k, (got_phase, want_phase) in enumerate(zip(out["reads"], want["reads"])):
            if len(got_phase) != len(want_phase) or not all(
                np.array_equal(g, w) for g, w in zip(got_phase, want_phase)
            ):
                failures.append(f"{label}: phase {k} reads differ from the step() oracle")
        if not np.array_equal(out["pm"].dump(), want["memory"]):
            failures.append(f"{label}: final memory differs from the step() oracle")
        if out["cycles"] != want["cycles"]:
            failures.append(f"{label}: {out['cycles']} cycles, oracle {want['cycles']}")
        return failures

    @staticmethod
    def _oracle(pm, phases) -> dict:
        """The serial reference: one unplanned ``step()`` per cycle (the
        AGU / MAF / shuffle datapath of the paper's Fig. 3)."""
        from repro.core.agu import AccessRequest
        from repro.core.patterns import PatternKind

        def kind_at(kind, t):
            return PatternKind(kind if isinstance(kind, (str, PatternKind)) else kind[t])

        pm.use_plans = False
        reads_out = []
        for phase in phases:
            reads = phase["reads"]
            write = phase["write"]
            n = len(reads[0][1]) if reads else len(write[1])
            got = [np.empty((n, pm.lanes), dtype=np.uint64) for _ in reads]
            for t in range(n):
                res = pm.step(
                    reads=[
                        (port, AccessRequest(kind_at(kind, t), int(ai[t]), int(aj[t])))
                        for port, (kind, ai, aj) in enumerate(reads)
                    ],
                    write=None if write is None else (
                        AccessRequest(kind_at(write[0], t), int(write[1][t]), int(write[2][t])),
                        write[3][t],
                    ),
                )
                for port in range(len(reads)):
                    got[port][t] = res[port]
            reads_out.append(got)
        return {"reads": reads_out, "memory": pm.dump(), "cycles": pm.cycles}

    def _check_kernel(self, req: Request, outcome: Outcome) -> list[str]:
        from repro.kernels import jacobi_reference

        kernel = req.param("kernel")
        out = np.asarray(outcome.outputs["out"])
        inputs = self.prepare(None, req)
        if kernel == "matmul":
            want = inputs["a"] @ inputs["b"]
        elif kernel == "transpose":
            want = inputs["matrix"].T
        elif kernel == "stencil_sweep":
            want = _correlate(inputs["image"], STENCIL_WEIGHTS[req.param("weights")])
        elif kernel == "jacobi_solve":
            want = jacobi_reference(inputs["grid"], req.param("iterations"))
        elif kernel == "reduce_rows":
            want = inputs["matrix"].sum(axis=1)
        else:
            want = inputs["matrix"].sum(axis=0)
        if out.shape != want.shape or not np.array_equal(out, want):
            return [f"{kernel} n={req.param('n')}: output differs from the NumPy reference"]
        return []

    def digest(self, req: Request, outcome: Outcome) -> str:
        out = outcome.outputs
        if req.kind == "kernel":
            r = out["report"]
            return _sha(req.key(), r.kernel, r.cycles, r.elements_accessed,
                        r.result_elements, np.asarray(out["out"]))
        return _sha(req.key(), out["cycles"], outcome.work, out["pm"].dump(),
                    *[a for phase in out["reads"] for a in phase])


def _correlate(image: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Zero-padded 2-D correlation of an integer image."""
    image = np.asarray(image, dtype=np.int64)
    r = weights.shape[0] // 2
    padded = np.pad(image, r)
    out = np.zeros_like(image)
    rows, cols = image.shape
    for di in range(weights.shape[0]):
        for dj in range(weights.shape[1]):
            out += int(weights[di, dj]) * padded[di:di + rows, dj:dj + cols]
    return out


WORKLOADS = {w.name: w for w in (StreamSim, DseWhatIf, AccessKernels)}


def make(name: str, scratch_root: str | os.PathLike | None = None):
    """A fresh workload object by name."""
    cls = WORKLOADS[name]
    return cls(scratch_root) if cls is DseWhatIf else cls()
