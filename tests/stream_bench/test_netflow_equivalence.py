"""Scalar vs batched on the Fig. 9 design with chunks longer than a FIFO.

The batched engine bounds a chunk by net flow: a stream with an in-chunk
producer and consumer keeps its occupancy every cycle, so its ring holds
the chunk in transit and a phase is not cut at the 64-deep FIFOs.  These
runs are long enough (up to ~400 vectors) that the compute phase must run
as chunks of more than 64 cycles, and still match the scalar engine bit
for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PolyMemConfig
from repro.core.schemes import Scheme
from repro.stream_bench import StreamHarness, all_apps, build_stream_design
from repro.telemetry import context as telemetry

#: 96 x 128 words: three bands of 32 rows = 512 lane-vectors each
ROWS, COLS = 96, 128
FIFO_DEPTH = 64


def _full_pass(app, vectors, latency, policy, engine):
    cfg = PolyMemConfig(
        ROWS * COLS * 8, p=2, q=4, scheme=Scheme.RoCo, read_ports=2,
        rows=ROWS, cols=COLS,
    )
    design = build_stream_design(
        cfg, read_latency=latency, collision_policy=policy
    )
    design.dfe.simulator.engine = engine
    harness = StreamHarness(design)
    with telemetry.session() as tel:
        harness.load_arrays(vectors)
        cycles = harness.run_app(app, vectors, scalar=2.5)
        data = harness.offload_array(app.destination, vectors)
    stats = {
        name: (s.active_cycles, s.total_cycles, s.elements_in, s.elements_out)
        for name, s in design.dfe.simulator.stats().items()
    }
    chunks = tel.metrics.histogram("sim.chunk_cycles")
    stages = {
        name: (s.calls, s.payload_bytes, s.pcie_ns, s.compute_ns)
        for name, s in harness.host.stages.items()
    }
    return data, cycles, design.dfe.simulator.cycles, stats, stages, chunks


@settings(max_examples=8, deadline=None)
@given(
    app_idx=st.integers(0, 3),
    vectors=st.integers(130, 400),
    latency=st.integers(1, 20),
    policy=st.sampled_from(["read_first", "write_first", "forbid"]),
)
def test_long_chunks_bit_identical(app_idx, vectors, latency, policy):
    app = all_apps()[app_idx]
    s = _full_pass(app, vectors, latency, policy, "scalar")
    b = _full_pass(app, vectors, latency, policy, "batched")
    assert np.array_equal(s[0].view(np.uint64), b[0].view(np.uint64))
    assert b[1] == s[1], "compute-stage cycles differ"
    assert b[2] == s[2], "total simulated cycles differ"
    assert b[3] == s[3], "kernel counters differ"
    assert b[4] == s[4], "host stage ledgers differ"
    assert s[5].count == 0
    # the phases outlast the FIFO depth: some chunk moves more elements
    # through a 64-deep stream than it can hold
    assert b[5].max > FIFO_DEPTH


def test_stages_are_not_cut_at_fifo_depth():
    """A 400-vector Load / Copy / Offload streams each stage as one long
    chunk plus short ramps, not as 63-cycle pieces."""
    *_, chunks = _full_pass(all_apps()[0], 400, 14, "read_first", "batched")
    assert chunks.max >= 400 - 1
    assert chunks.count <= 3 * 3
