"""Net-flow chunks: phases are not cut at FIFO depth, edges still admit.

A stream with an in-chunk producer and consumer keeps its occupancy every
cycle, so the batched engine lets its ring hold a chunk in transit.  The
only per-edge condition left is the first cycle in scalar tick order: a
forward edge (producer ticks first) needs a free slot, a backward edge
(consumer ticks first) a queued element.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maxeler import (
    DelayKernel,
    Kernel,
    Manager,
    MapKernel,
    SinkKernel,
    SourceKernel,
    Simulator,
)
from repro.maxeler.batch import IDLE_PLAN, BatchOp, BatchPlan


class _ChunkLog:
    """Simulator observer recording the size of every chunk."""

    def __init__(self):
        self.chunks = []

    def on_cycle(self, sim, progressed):
        pass

    def on_chunk(self, sim, n, plans):
        self.chunks.append(n)


_TIGHT_STAGES = st.lists(
    st.one_of(
        st.tuples(st.just("map"), st.integers(1, 7), st.sampled_from([1, 2, 4])),
        st.tuples(st.just("delay"), st.integers(1, 9), st.sampled_from([1, 2, 4])),
    ),
    min_size=1,
    max_size=4,
)


def _chain(engine, n_values, stages, tail_cap):
    mgr = Manager("tight")
    prev = mgr.add_kernel(SourceKernel("src", range(n_values)))
    for i, (kind, param, cap) in enumerate(stages):
        if kind == "map":
            k = MapKernel(f"map{i}", lambda v, m=param: v * m + 1)
        else:
            k = DelayKernel(f"delay{i}", param)
        mgr.add_kernel(k)
        mgr.connect(prev, "out", k, "in", capacity=cap)
        prev = k
    sink = mgr.add_kernel(SinkKernel("sink"))
    mgr.connect(prev, "out", sink, "in", capacity=tail_cap)
    sim = Simulator(mgr, engine=engine)
    log = _ChunkLog()
    sim.observers.append(log)
    result = sim.run()
    counters = {
        k.name: (k.active_cycles, k.total_cycles) for k in mgr.kernels.values()
    }
    return sink.collected, result.cycles, counters, log.chunks


@settings(max_examples=30, deadline=None)
@given(
    n_values=st.integers(200, 600),
    stages=_TIGHT_STAGES,
    tail_cap=st.sampled_from([1, 2]),
)
def test_tight_fifo_chain_bit_identical(n_values, stages, tail_cap):
    s_data, s_cycles, s_counters, _ = _chain("scalar", n_values, stages, tail_cap)
    b_data, b_cycles, b_counters, chunks = _chain(
        "batched", n_values, stages, tail_cap
    )
    assert b_data == s_data
    assert b_cycles == s_cycles
    assert b_counters == s_counters
    # with 1-4 deep FIFOs a headroom bound could not batch at all; net
    # flow streams the steady state as chunks far longer than any FIFO
    assert max(chunks) > 64


class _Emitter(Kernel):
    """Pushes 0, 1, 2, ... one per cycle while its output has room.

    Its plan deliberately ignores back-pressure, so only the engine's
    edge checks stand between a full stream and a wrong chunk.
    """

    def __init__(self, name, count):
        super().__init__(name)
        self.left = count
        self.next = 0

    def _tick(self):
        out = self.outputs["out"]
        if self.left and out.can_push():
            out.push(self.next)
            self.next += 1
            self.left -= 1
            return True
        return False

    def _emit(self, n):
        self.outputs["out"].push_many(list(range(self.next, self.next + n)))
        self.next += n
        self.left -= n

    def batch_plan(self, ctx):
        if not self.left:
            return IDLE_PLAN
        op = BatchOp("emit", self._emit, pushes=("out",))
        return BatchPlan(cycles=self.left, ops=[op])

    @property
    def idle(self):
        return not self.left


class _Absorber(Kernel):
    """Pops one element per cycle while one is queued, *count* in all.

    Its plan deliberately ignores data availability (see :class:`_Emitter`).
    """

    def __init__(self, name, count):
        super().__init__(name)
        self.left = count
        self.collected = []

    def _tick(self):
        inp = self.inputs["in"]
        if self.left and inp.can_pop():
            self.collected.append(inp.pop())
            self.left -= 1
            return True
        return False

    def _absorb(self, n):
        self.collected.extend(self.inputs["in"].pop_many(n))
        self.left -= n

    def batch_plan(self, ctx):
        if not self.left:
            return IDLE_PLAN
        op = BatchOp("absorb", self._absorb, pops=("in",))
        return BatchPlan(cycles=self.left, ops=[op])


def _edge(engine, backward, prefill, capacity=4, count=300):
    """Emitter -> absorber on one stream pre-filled with *prefill*
    elements; ``backward`` registers the absorber (consumer) first."""
    mgr = Manager("edge")
    src, sink = _Emitter("src", count), _Absorber("sink", count + prefill)
    for k in (sink, src) if backward else (src, sink):
        mgr.add_kernel(k)
    stream = mgr.connect(src, "out", sink, "in", capacity=capacity)
    for v in range(prefill):
        stream.push(-1 - v)
    sim = Simulator(mgr, engine=engine)
    return mgr, sim, stream, sink


def _first_chunk(mgr, sim):
    return sim._plan_chunk(list(mgr.kernels.values()), None, 10_000)


def test_forward_edge_at_full_occupancy_does_not_batch():
    mgr, sim, stream, _ = _edge("batched", backward=False, prefill=4)
    assert stream.full
    # the producer ticks first and would stall on the full FIFO
    assert _first_chunk(mgr, sim) is None
    # one free slot admits the first cycle, and then every cycle after it
    mgr, sim, stream, _ = _edge("batched", backward=False, prefill=3)
    plans, order, n, transit = _first_chunk(mgr, sim)
    assert transit == [stream] and n == 300


def test_backward_edge_needs_a_queued_element():
    mgr, sim, _, _ = _edge("batched", backward=True, prefill=0)
    # the consumer ticks first and would find the FIFO empty
    assert _first_chunk(mgr, sim) is None
    mgr, sim, stream, _ = _edge("batched", backward=True, prefill=1)
    plans, order, n, transit = _first_chunk(mgr, sim)
    assert transit == [stream] and n == 300
    # a full backward edge is fine: the consumer pops before the push
    mgr, sim, stream, _ = _edge("batched", backward=True, prefill=4)
    plans, order, n, transit = _first_chunk(mgr, sim)
    assert transit == [stream] and n == 300


def test_edges_match_scalar_engine():
    for backward in (False, True):
        for prefill in range(5):
            runs = {}
            for engine in ("scalar", "batched"):
                mgr, sim, stream, sink = _edge(engine, backward, prefill)
                log = _ChunkLog()
                sim.observers.append(log)
                result = sim.run()
                runs[engine] = (sink.collected, result.cycles, log.chunks)
            assert runs["batched"][:2] == runs["scalar"][:2]
            admissible = prefill > 0 if backward else prefill < 4
            if admissible:
                # one chunk streams far past the FIFO depth
                assert max(runs["batched"][2]) > 64
