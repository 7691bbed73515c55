"""The fused kernel's batched read pipes against the scalar oracle.

A typed command producer issues row reads with gaps in its schedule, so
the read pipe fills with non-consecutive stamps: a batched fill must stop
where the pipe's head ripens, not only where the pipe is full.
"""

import numpy as np
import pytest

from repro.core.agu import AccessRequest
from repro.core.config import PolyMemConfig
from repro.core.patterns import PatternKind
from repro.core.schemes import Scheme
from repro.maxeler import Kernel, Manager, SinkKernel, Simulator
from repro.maxeler.batch import IDLE_PLAN, BatchOp, BatchPlan, PushClaim
from repro.maxeler.stream import lane_rows
from repro.maxpolymem.kernel import READ_COMMANDS, FusedPolyMemKernel, command_block

ROWS, COLS, LANES = 16, 32, 8
ROW = PatternKind.ROW


class _Issuer(Kernel):
    """Issues one row read per scheduled cycle; ``None`` is a gap."""

    def __init__(self, name, schedule):
        super().__init__(name)
        self.schedule = list(schedule)
        self.t = 0

    def _tick(self):
        if self.t >= len(self.schedule):
            return False
        row = self.schedule[self.t]
        self.t += 1
        if row is not None:
            self.outputs["rd_cmd"].push(AccessRequest(ROW, row, 0))
        return True

    def _run_length(self):
        n = 0
        while self.t + n < len(self.schedule) and self.schedule[self.t + n] is not None:
            n += 1
        return n

    def _anchors(self, n):
        rows = np.asarray(self.schedule[self.t : self.t + n], dtype=np.int64)
        return ROW, rows, np.zeros_like(rows)

    def _issue(self, n):
        self.outputs["rd_cmd"].push_many(command_block(*self._anchors(n)))
        self.t += n

    def batch_plan(self, ctx):
        if self.t >= len(self.schedule):
            return IDLE_PLAN
        run = self._run_length()
        if run == 0:
            return None  # a gap cycle: scalar
        op = BatchOp(
            "issue",
            self._issue,
            pushes=("rd_cmd",),
            claims={"rd_cmd": PushClaim(anchors=self._anchors)},
        )
        return BatchPlan(cycles=run, ops=[op])

    @property
    def idle(self):
        return self.t >= len(self.schedule)


def _run(engine, schedule, latency):
    cfg = PolyMemConfig(
        ROWS * COLS * 8, p=2, q=4, scheme=Scheme.RoCo, read_ports=1,
        rows=ROWS, cols=COLS,
    )
    mgr = Manager("pipes", style="fused")
    issuer = mgr.add_kernel(_Issuer("issuer", schedule))
    mem = mgr.add_kernel(FusedPolyMemKernel("polymem", cfg, read_latency=latency))
    sink = mgr.add_kernel(SinkKernel("sink"))
    mem.memory.banks.fill(
        np.arange(ROWS * COLS, dtype=np.uint64).reshape(LANES, -1)
    )
    mgr.connect(issuer, "rd_cmd", mem, "rd_cmd0", 64, READ_COMMANDS)
    mgr.connect(mem, "rd_out0", sink, "in", 64, lane_rows(LANES))
    sim = Simulator(mgr, engine=engine)
    states = _States(sink, mem, mgr)
    sim.observers.append(states)
    result = sim.run()
    counters = {k.name: (k.active_cycles, k.total_cycles) for k in mgr.kernels.values()}
    batched = sum(k.batched_cycles for k in mgr.kernels.values())
    return np.array(sink.collected), result.cycles, counters, batched, states.at


class _States:
    """Observer: the design's occupancy state after every scalar cycle and
    at every chunk boundary, keyed by cycle."""

    def __init__(self, sink, mem, mgr):
        self.sink, self.mem, self.streams = sink, mem, list(mgr.streams.values())
        self.at = {}

    def _record(self, sim):
        self.at[sim.cycles] = (
            len(self.sink.collected),
            len(self.mem._pipes[0]),
            tuple(len(s) for s in self.streams),
        )

    def on_cycle(self, sim, progressed):
        self._record(sim)

    def on_chunk(self, sim, n, plans):
        self._record(sim)


@pytest.mark.parametrize(
    "schedule",
    [
        [0, None] + list(range(1, 16)) * 3,
        [0, None, None, 1, 2, None] + list(range(3, 16)) * 3,
        [None, 5] + list(range(16)) * 2 + [None] * 3 + list(range(16)),
    ],
)
@pytest.mark.parametrize("latency", [3, 6, 11])
def test_gapped_fill_matches_scalar(schedule, latency):
    s_data, s_cycles, s_counters, _, s_at = _run("scalar", schedule, latency)
    b_data, b_cycles, b_counters, batched, b_at = _run("batched", schedule, latency)
    assert np.array_equal(b_data, s_data)
    assert b_cycles == s_cycles
    assert b_counters == s_counters
    # every chunk boundary shows the state the scalar run had at that cycle
    assert {c: s_at[c] for c in b_at} == b_at
    assert batched > s_cycles // 2
