"""Property suite: the engine's cached trace kernels vs the serial oracle.

``execute(...)`` derives every trace step's kernel once per program
structure, caches it, and runs it through the trace executor that
``PolyMem.replay`` shares.  The reference here is independent of both:
:func:`_interpret` walks the compiled program and issues every cycle
through ``trace.cycle_args(t)`` and ``PolyMem.step()`` with
``use_plans = False`` — the AGU / MAF / shuffle datapath re-derived per
access.  Results, memory state, cycle/port statistics, error behaviour
(type and message), the shared telemetry counters and the observer hook
sequence must all match.

The suite drives randomized programs — invalid anchors, strides,
multi-port reads, every collision policy, read+write traces that write
one slot in several cycles and read it in the same cycle (``forbid``
collisions, forwarding), late-bound and wrong-lane-width write values —
through both paths on twin memories, pins every production demo
lowering, and unit-tests the content-addressed kernel cache (reuse
across executions, LRU eviction).
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.program.fuse as fuse
from repro.core.config import PolyMemConfig
from repro.core.exceptions import PolyMemError
from repro.core.patterns import PatternKind
from repro.core.plan import compile_plan
from repro.core.polymem import PolyMem
from repro.core.schemes import Scheme
from repro.program import (
    AccessProgram,
    Compute,
    CycleScope,
    KernelCache,
    Observer,
    ProgramResult,
    compile_program,
    execute,
)
from repro.program.lower import DEMO_NAMES, lower_demo
from repro.telemetry import Telemetry, session
from repro.telemetry.observers import TelemetryObserver

LANE_GRIDS = [(2, 2), (2, 4)]

#: counters both paths must agree on; the path-specific ones
#: (polymem.cycles.step vs .fused vs .replay, replay.calls, plan-cache
#: traffic, program.fusion.*) are excluded by construction, and so is
#: polymem.collision.forwarded: a trace kernel counts every same-trace
#: write a read observes, serial step() only same-cycle write_first hits
#: (the randomized suite checks it against per-step replay instead)
SHARED_COUNTERS = (
    "polymem.parallel_accesses",
    "program.executions",
    "program.segments",
    "program.traces",
    "program.trace_cycles",
    "program.compute_boundaries",
    "program.cycles",
)


def _memory(p, q, scheme, rows, cols, policy, read_ports, seed):
    cfg = PolyMemConfig(
        rows * cols * 8,
        p=p,
        q=q,
        scheme=scheme,
        rows=rows,
        cols=cols,
        read_ports=read_ports,
    )
    pm = PolyMem(cfg, collision_policy=policy)
    rng = np.random.default_rng(seed)
    pm.load(rng.integers(0, 2**63, size=(rows, cols), dtype=np.uint64))
    pm.reset_stats()
    return pm


class HookLog(Observer):
    """Records every hook with the state an observer can see."""

    def __init__(self):
        self.calls = []

    def on_program_start(self, compiled, mems):
        self.calls.append(("program_start", len(compiled.segments)))

    def on_segment_start(self, segment):
        self.calls.append(("segment_start", segment.index))

    def on_trace(self, segment, step, outputs, mem):
        self.calls.append((
            "trace", segment.index, step.n, mem.cycles,
            {port: out.copy() for port, out in outputs.items()},
        ))

    def on_compute(self, segment, boundary, env):
        self.calls.append(("compute", segment.index, sorted(env)))

    def on_segment_end(self, segment, env):
        self.calls.append(("segment_end", segment.index))

    def on_program_end(self, result):
        self.calls.append(("program_end", result.report))


def _same_calls(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x[0] == y[0]
        if x[0] == "trace":
            assert x[:4] == y[:4]
            assert set(x[4]) == set(y[4])
            for port in x[4]:
                assert np.array_equal(x[4][port], y[4][port])
        else:
            assert x == y


def _interpret(program, mems, observers=()):
    """The serial oracle: the engine's hook sequence, with every compiled
    cycle issued through unplanned ``step()``."""
    compiled = compile_program(program)
    for pm in mems.values():
        pm.use_plans = False
    env = {}
    scope_mems = [mems[name] for name in compiled.mems]
    if not scope_mems:  # access-free program: account against any memory
        scope_mems = [next(iter(mems.values()))]
    with CycleScope(scope_mems[0], program.name, *scope_mems[1:]) as scope:
        for observer in observers:
            observer.on_program_start(compiled, mems)
        for seg in compiled.segments:
            for observer in observers:
                observer.on_segment_start(seg)
            for step in seg.steps:
                trace = step.trace(env)
                pm = mems[step.mem]
                outs = {port: [] for port in trace.read_ports}
                for t in range(trace.n):
                    reads, write = trace.cycle_args(t)
                    res = pm.step(reads=reads, write=write)
                    for port in outs:
                        outs[port].append(res[port])
                outputs = {
                    port: np.stack(rows) if rows
                    else np.empty((0, pm.lanes), dtype=pm.banks.dtype)
                    for port, rows in outs.items()
                }
                for tag, port, lo, hi in step.bindings:
                    env[tag] = outputs[port][lo:hi]
                for observer in observers:
                    observer.on_trace(seg, step, outputs, pm)
            if isinstance(seg.boundary, Compute):
                product = seg.boundary.fn(env)
                if isinstance(product, dict):
                    env.update(product)
                for observer in observers:
                    observer.on_compute(seg, seg.boundary, env)
            for observer in observers:
                observer.on_segment_end(seg, env)
        result_elements = env.get(
            "result_elements", program.metadata.get("result_elements", 0)
        )
        result = ProgramResult(program, env, scope.report(int(result_elements)))
    for observer in observers:
        observer.on_program_end(result)
    for pm in mems.values():
        pm.use_plans = True
    return result


def _run(program, mems, oracle):
    """Run under a private telemetry session; returns ``(result, err,
    counters, hook_log)``."""
    tel = Telemetry(label="fusion-eq-oracle" if oracle else "fusion-eq")
    log = HookLog()
    err = None
    res = None
    try:
        with session(tel):
            if oracle:
                # the engine attaches its telemetry observer itself
                res = _interpret(program, mems, (log, TelemetryObserver(tel)))
            else:
                res = execute(program, mems, observers=(log,))
    except PolyMemError as e:
        err = (type(e), str(e))
    return res, err, tel.snapshot()["metrics"]["counters"], log.calls


def _replay_forwarded(program, mems):
    """``polymem.collision.forwarded`` when every compiled step runs
    through its own uncached ``PolyMem.replay``, up to the first error."""
    compiled = compile_program(program)
    tel = Telemetry(label="fusion-eq-replay")
    env = {}
    with session(tel):
        try:
            for seg in compiled.segments:
                for step in seg.steps:
                    outputs = mems[step.mem].replay(step.trace(env))
                    for tag, port, lo, hi in step.bindings:
                        env[tag] = outputs[port][lo:hi]
                if isinstance(seg.boundary, Compute):
                    env.update(seg.boundary.fn(env) or {})
        except PolyMemError:
            pass
    return tel.snapshot()["metrics"]["counters"].get(
        "polymem.collision.forwarded", 0
    )


def _assert_same_state(mems_a, mems_b):
    assert set(mems_a) == set(mems_b)
    for name in mems_a:
        a, b = mems_a[name], mems_b[name]
        assert a.cycles == b.cycles
        assert a.write_stats == b.write_stats
        assert a.read_stats == b.read_stats
        assert np.array_equal(a.dump(), b.dump())


def _assert_same_env(env_a, env_b):
    assert set(env_a) == set(env_b)
    for tag, val in env_a.items():
        other = env_b[tag]
        if isinstance(val, np.ndarray):
            assert np.array_equal(val, other), tag
        else:
            assert np.all(val == other), tag


def _assert_same_run(prog, mems_engine, mems_oracle, mems_replay=None):
    """Engine vs serial oracle on twin memories; with *mems_replay*, a
    third twin also pins the engine's forwarded count to per-step
    replay's (cached kernels forward exactly what a fresh derivation
    does)."""
    res_e, err_e, tel_e, calls_e = _run(prog, mems_engine, oracle=False)
    res_o, err_o, tel_o, calls_o = _run(prog, mems_oracle, oracle=True)
    assert err_e == err_o
    _assert_same_state(mems_engine, mems_oracle)
    assert {k: tel_e.get(k, 0) for k in SHARED_COUNTERS} == {
        k: tel_o.get(k, 0) for k in SHARED_COUNTERS
    }
    if mems_replay is not None:
        assert tel_e.get("polymem.collision.forwarded", 0) == (
            _replay_forwarded(prog, mems_replay)
        )
    _same_calls(calls_e, calls_o)
    if err_e is None:
        _assert_same_env(res_e.env, res_o.env)
        assert res_e.report == res_o.report
    return err_e


@functools.lru_cache(maxsize=None)
def _valid_anchors(rows, cols, p, q, scheme, kind, stride):
    """Every in-range, conflict-free anchor of one access family."""
    try:
        plan = compile_plan(rows, cols, p, q, scheme, kind, stride)
    except PolyMemError:
        return ()
    ii, jj = (a.ravel() for a in np.mgrid[0:rows, 0:cols])
    ok = plan.fits_mask(ii, jj) & plan.ok_mask(ii, jj)
    return tuple(zip(ii[ok].tolist(), jj[ok].tolist()))


@st.composite
def program_cases(draw):
    p, q = draw(st.sampled_from(LANE_GRIDS))
    lanes = p * q
    rows = cols = lanes * 4
    scheme = draw(st.sampled_from(list(Scheme)))
    policy = draw(st.sampled_from(PolyMem.COLLISION_POLICIES))
    read_ports = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**32))
    n_ops = draw(st.integers(1, 6))
    faulty = draw(st.booleans())
    ops = []

    def values(n, width=lanes):
        return np.random.default_rng(
            draw(st.integers(0, 2**32))
        ).integers(0, 2**63, size=(n, width), dtype=np.uint64)

    for _ in range(n_ops):
        choice = draw(
            st.sampled_from(["read", "read", "read", "write", "write",
                             "rw", "rw", "compute", "barrier"])
        )
        if choice in ("compute", "barrier"):
            ops.append((choice,))
            continue
        n = draw(st.integers(1, 5))
        stride = draw(st.sampled_from([1, 1, 1, 2]))
        kinds = list(PatternKind)
        if not faulty:
            kinds = [
                k for k in kinds
                if _valid_anchors(rows, cols, p, q, scheme, k, stride)
            ] or kinds
        kind = draw(st.sampled_from(kinds))
        # faulty programs mix in random anchors (-1 and rows-1 exercise
        # the error paths); the others stay in range and conflict-free
        valid = _valid_anchors(rows, cols, p, q, scheme, kind, stride)
        anchor = st.tuples(st.integers(-1, rows - 1), st.integers(-1, cols - 1))
        if valid and not (faulty and draw(st.booleans())):
            anchor = st.sampled_from(valid)

        def stream(pairs):
            picks = draw(st.lists(pairs, min_size=n, max_size=n))
            return (np.asarray(c, dtype=np.int64) for c in zip(*picks))

        if choice == "rw":
            # a read+write trace over a pool of two anchors: the write
            # hits one slot in several cycles, and reads hit it in the
            # same cycle (forbid / write_first) and in later ones
            pool = st.sampled_from([draw(anchor), draw(anchor)])
            wi, wj = stream(pool)
            ri, rj = stream(pool)
            port = draw(st.integers(0, read_ports - 1))
            width = draw(st.sampled_from([lanes] * 3 + [lanes + 1]))
            data = values(n, width)
            if draw(st.booleans()):
                data = (lambda v: lambda env: v)(data)  # late-bound
            ops.append(("rw", kind, ri, rj, port, wi, wj, data, stride))
            continue
        ai, aj = stream(anchor)
        if choice == "read":
            port = draw(st.integers(0, read_ports - 1))
            ops.append(("read", kind, ai, aj, port, stride))
        else:
            ops.append(("write", kind, ai, aj, values(n), stride))
    return (p, q, scheme, rows, cols, policy, read_ports, seed, ops)


def _build_program(ops):
    prog = AccessProgram("fuzz")
    tag_i = 0
    prev = None
    for op in ops:
        if op[0] == "read":
            _, kind, ai, aj, port, stride = op
            prog.read(kind, ai, aj, port=port, stride=stride,
                      tag=f"t{tag_i}")
            tag_i += 1
        elif op[0] == "write":
            _, kind, ai, aj, values, stride = op
            prog.write(kind, ai, aj, values=values, stride=stride)
        elif op[0] == "rw":
            _, kind, ri, rj, port, wi, wj, values, stride = op
            if prev == "read":
                prog.barrier()  # keep the read from joining the last one
            prog.read(kind, ri, rj, port=port, stride=stride,
                      tag=f"t{tag_i}")
            tag_i += 1
            prog.write(kind, wi, wj, values=values, stride=stride, fuse=True)
        elif op[0] == "compute":
            prog.compute(lambda env: {}, label="nop")
        else:
            prog.barrier()
        prev = op[0]
    return prog


class TestFusedMatchesInterp:
    @given(program_cases())
    @settings(max_examples=200, deadline=None)
    def test_randomized_programs(self, case):
        p, q, scheme, rows, cols, policy, read_ports, seed, ops = case
        args = (p, q, scheme, rows, cols, policy, read_ports, seed)
        _assert_same_run(
            _build_program(ops),
            {"default": _memory(*args)},
            {"default": _memory(*args)},
            {"default": _memory(*args)},
        )

    def test_repeated_slot_writes_forward(self):
        """One slot written in cycles 0 and 2, read in every cycle."""
        args = (2, 4, Scheme.ReRo, 32, 32, "read_first", 1, 5)
        rows = np.zeros(4, dtype=np.int64)
        data = np.arange(32, dtype=np.uint64).reshape(4, 8)
        prog = AccessProgram("rewrite")
        prog.read(PatternKind.ROW, rows, rows, tag="r")
        prog.write(PatternKind.ROW, np.array([0, 8, 0, 8]), rows,
                   values=data, fuse=True)
        pm = _memory(*args)
        tel = Telemetry(label="rewrite")
        with session(tel):
            res = execute(prog, pm)
        # read_first: cycle t sees the latest write before t
        assert np.array_equal(res["r"][1], data[0])
        assert np.array_equal(res["r"][2], data[0])
        assert np.array_equal(res["r"][3], data[2])
        counters = tel.snapshot()["metrics"]["counters"]
        assert counters["polymem.collision.forwarded"] == 24
        assert counters["program.fusion.steps"] == 1
        assert _assert_same_run(prog, {"default": _memory(*args)},
                                {"default": _memory(*args)}) is None

    def test_forbid_collision_raises_like_the_oracle(self):
        args = (2, 4, Scheme.ReRo, 32, 32, "forbid", 1, 5)
        rows = np.zeros(3, dtype=np.int64)
        prog = AccessProgram("collide")
        prog.read(PatternKind.ROW, np.array([8, 16, 0]), rows, tag="r")
        prog.write(PatternKind.ROW, np.array([0, 8, 0]), rows,
                   values=np.ones((3, 8), dtype=np.uint64), fuse=True)
        err = _assert_same_run(prog, {"default": _memory(*args)},
                               {"default": _memory(*args)})
        assert err is not None and "collision" in err[1]

    def test_forbid_single_slot_collision(self):
        """The read meets only the write's lane-0 slot, in cycle 1."""
        args = (2, 4, Scheme.RoCo, 32, 32, "forbid", 1, 5)
        prog = AccessProgram("corner")
        prog.read(PatternKind.COLUMN, np.array([16, 8]), np.array([0, 8]),
                  tag="r")
        prog.write(PatternKind.ROW, np.array([0, 8]), np.array([0, 8]),
                   values=np.ones((2, 8), dtype=np.uint64), fuse=True)
        err = _assert_same_run(prog, {"default": _memory(*args)},
                               {"default": _memory(*args)})
        assert err is not None and "collision" in err[1]

    @pytest.mark.parametrize("late_bound", [False, True])
    def test_wrong_lane_width_raises_like_the_oracle(self, late_bound):
        args = (2, 4, Scheme.ReRo, 32, 32, "write_first", 1, 5)
        rows = np.zeros(3, dtype=np.int64)
        data = np.ones((3, 9), dtype=np.uint64)  # 9 values for 8 lanes
        prog = AccessProgram("too-wide")
        prog.read(PatternKind.ROW, np.array([0, 8, 16]), rows, tag="r")
        prog.write(PatternKind.ROW, np.array([0, 8, 16]), rows,
                   values=(lambda env: data) if late_bound else data,
                   fuse=True)
        err = _assert_same_run(prog, {"default": _memory(*args)},
                               {"default": _memory(*args)})
        assert err is not None and "lane values" in err[1]


class TestProductionLowerings:
    """Every production demo runs bit-identically to the serial oracle."""

    DEMOS = [n for n in DEMO_NAMES if n != "stream_copy"]  # describe-only

    @pytest.mark.parametrize("name", DEMOS)
    def test_demo_fused_matches_interp(self, name):
        prog_e, mems_e = lower_demo(name)
        prog_o, mems_o = lower_demo(name)
        assert _assert_same_run(prog_e, mems_e, mems_o) is None


def _square_read_program(rows, seed, tag="out"):
    """A fully fusable read+write stream over one memory."""
    rng = np.random.default_rng(seed)
    n = 16
    ai = rng.integers(0, rows, size=n, dtype=np.int64)
    aj = np.zeros(n, dtype=np.int64)
    values = rng.integers(0, 2**63, size=(n, 8), dtype=np.uint64)
    prog = AccessProgram("cache-case")
    prog.read(PatternKind.ROW, ai, aj, tag=tag)
    prog.write(PatternKind.ROW, ai, aj, values=values)
    return prog


class TestKernelCache:
    def _memory(self):
        return _memory(2, 4, Scheme.ReRo, 32, 32, "read_first", 1, 7)

    def test_reuse_across_executions(self, monkeypatch):
        cache = KernelCache(maxsize=8)
        monkeypatch.setattr(fuse, "kernel_cache", cache)
        prog = _square_read_program(32, seed=1)
        execute(prog, self._memory())
        assert (cache.hits, cache.misses) == (0, 1)
        # structurally identical program, different data: one hit
        execute(prog, self._memory())
        assert (cache.hits, cache.misses) == (1, 1)

    def test_different_structure_misses(self, monkeypatch):
        cache = KernelCache(maxsize=8)
        monkeypatch.setattr(fuse, "kernel_cache", cache)
        execute(_square_read_program(32, seed=1), self._memory())
        # different anchors -> different content address
        execute(_square_read_program(32, seed=2), self._memory())
        assert (cache.hits, cache.misses) == (0, 2)

    def test_lru_eviction_and_refill(self, monkeypatch):
        cache = KernelCache(maxsize=1)
        monkeypatch.setattr(fuse, "kernel_cache", cache)
        prog_a = _square_read_program(32, seed=1)
        prog_b = _square_read_program(32, seed=2)
        execute(prog_a, self._memory())  # miss, resident
        execute(prog_b, self._memory())  # miss, evicts a
        assert cache.evictions == 1
        assert len(cache) == 1
        # a was evicted: rebuilt (miss), which in turn evicts b
        execute(prog_a, self._memory())
        assert cache.misses == 3 and cache.hits == 0
        assert cache.evictions == 2
        # results stay correct through eviction churn
        res = execute(prog_a, self._memory())
        ref = _interpret(prog_a, {"default": self._memory()})
        _assert_same_env(res.env, ref.env)

    def test_kernels_hold_no_data(self, monkeypatch):
        """A cached kernel is valid for any memory contents."""
        cache = KernelCache(maxsize=4)
        monkeypatch.setattr(fuse, "kernel_cache", cache)
        prog = _square_read_program(32, seed=3)
        execute(prog, self._memory())
        pm_hit = _memory(2, 4, Scheme.ReRo, 32, 32, "read_first", 1, 99)
        pm_ref = _memory(2, 4, Scheme.ReRo, 32, 32, "read_first", 1, 99)
        res = execute(prog, pm_hit)
        ref = _interpret(prog, {"default": pm_ref})
        assert cache.hits == 1
        _assert_same_env(res.env, ref.env)
        _assert_same_state({"d": pm_hit}, {"d": pm_ref})

    def test_counters_reach_telemetry(self, monkeypatch):
        cache = KernelCache(maxsize=8)
        monkeypatch.setattr(fuse, "kernel_cache", cache)
        prog = _square_read_program(32, seed=4)
        tel = Telemetry(label="kernel-cache")
        with session(tel):
            execute(prog, self._memory())
            execute(prog, self._memory())
        c = tel.snapshot()["metrics"]["counters"]
        assert c["program.fusion.kernel_cache.misses"] == 1
        assert c["program.fusion.kernel_cache.hits"] == 1
        assert c["program.fusion.groups"] == 2
        assert c["program.fusion.steps"] >= 1
