"""Unit tests for dataflow streams."""

import numpy as np
import pytest

from repro.core.agu import AccessRequest
from repro.core.exceptions import SimulationError
from repro.core.patterns import PatternKind
from repro.maxeler.stream import Stream, lane_rows
from repro.maxpolymem.kernel import (
    READ_COMMANDS,
    WriteCommand,
    command_block,
    write_commands,
)


class TestStream:
    def test_fifo_order(self):
        s = Stream("s")
        for v in (1, 2, 3):
            s.push(v)
        assert [s.pop(), s.pop(), s.pop()] == [1, 2, 3]

    def test_capacity_and_backpressure(self):
        s = Stream("s", capacity=2)
        s.push(1)
        assert s.can_push()
        s.push(2)
        assert s.full and not s.can_push()
        with pytest.raises(SimulationError, match="overflow"):
            s.push(3)

    def test_underflow(self):
        s = Stream("s")
        with pytest.raises(SimulationError, match="underflow"):
            s.pop()

    def test_peek(self):
        s = Stream("s")
        s.push(42)
        assert s.peek() == 42
        assert len(s) == 1
        with pytest.raises(SimulationError):
            Stream("t").peek()

    def test_unbounded(self):
        s = Stream("s", capacity=None)
        for v in range(1000):
            s.push(v)
        assert not s.full and s.can_push()

    def test_drain(self):
        s = Stream("s")
        for v in range(5):
            s.push(v)
        assert s.drain() == [0, 1, 2, 3, 4]
        assert s.empty

    def test_counters(self):
        s = Stream("s")
        s.push(1)
        s.push(2)
        s.pop()
        s.drain()
        assert s.total_pushed == 2 and s.total_popped == 2

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Stream("s", capacity=0)


def _rows(start, count, lanes=4):
    """Lane rows whose words encode (element index, lane)."""
    idx = np.arange(start, start + count, dtype=np.uint64)[:, None]
    return idx * 100 + np.arange(lanes, dtype=np.uint64)


def _commands(start, count):
    i = np.arange(start, start + count)
    return command_block(PatternKind.ROW, i, 2 * i)


class TestTypedRing:
    """The same ring under the lane-row and command-record layouts."""

    @pytest.mark.parametrize("capacity", [5, None])
    def test_lane_rows_fifo_across_wrap_and_growth(self, capacity):
        s = Stream("lanes", capacity, lane_rows(4))
        expected = []
        nxt = 0
        # uneven bursts walk the head around the ring several times
        for push, pop in [(3, 2), (4, 4), (2, 1), (3, 4), (5, 5), (1, 1)]:
            if capacity is not None:
                push = min(push, capacity - len(s))
            s.push_many(_rows(nxt, push))
            expected.extend(range(nxt, nxt + push))
            nxt += push
            got = s.pop_many(pop)
            assert got.dtype == np.uint64 and got.shape == (pop, 4)
            assert (got[:, 0] // 100).tolist() == expected[:pop]
            del expected[:pop]
        # an unbounded ring grows past its initial 16 slots in order
        s = Stream("host", None, lane_rows(4))
        for k in range(5):
            s.push_many(_rows(10 * k, 10))
        s.pop_many(7)
        s.push(_rows(50, 1)[0])
        rest = s.drain()
        assert (rest[:, 0] // 100).tolist() == list(range(7, 51))
        assert s.empty

    def test_command_columns_fifo_across_wrap(self):
        s = Stream("cmd", 6, READ_COMMANDS)
        s.push_many(_commands(0, 4))
        first = s.pop_many(3)
        assert first["i"].tolist() == [0, 1, 2]
        s.push_many(_commands(4, 5))  # wraps: 1 + 5 queued in 6 slots
        assert len(s) == 6 and s.full
        req = s.pop()  # scalar pops decode to the element objects
        assert req == AccessRequest(PatternKind.ROW, 3, 6)
        rest = s.pop_many(5)
        assert rest["i"].tolist() == [4, 5, 6, 7, 8]
        assert rest["j"].tolist() == [8, 10, 12, 14, 16]
        assert set(rest["kind"].tolist()) == {first["kind"][0]}

    def test_write_commands_roundtrip(self):
        s = Stream("wr", 4, write_commands(4))
        values = _rows(7, 3)
        s.push_many(command_block(PatternKind.ROW, [1, 2, 3], [0, 4, 8], values))
        cmd = s.pop()
        assert isinstance(cmd, WriteCommand)
        assert cmd.request == AccessRequest(PatternKind.ROW, 1, 0)
        assert (cmd.values == values[0]).all()
        s.push(WriteCommand(AccessRequest(PatternKind.ROW, 9, 4), values[0]))
        block = s.pop_many(3)
        assert block["i"].tolist() == [2, 3, 9]
        assert (block["values"] == values[[1, 2, 0]]).all()

    def test_popped_block_survives_slot_reuse(self):
        s = Stream("lanes", 4, lane_rows(4))
        s.push_many(_rows(0, 4))
        block = s.pop_many(2)
        row = s.pop()
        snapshot = block.copy(), row.copy()
        s.push_many(_rows(90, 3))  # reuses the slots just popped
        assert (block == snapshot[0]).all() and (row == snapshot[1]).all()
        assert (s.peek_many(1) == _rows(3, 1)).all()

    def test_scalar_push_overflow_raises(self):
        s = Stream("lanes", 2, lane_rows(4))
        s.push(_rows(0, 1)[0])
        s.push(_rows(1, 1)[0])
        with pytest.raises(SimulationError, match="overflow"):
            s.push(_rows(2, 1)[0])

    def test_unbalanced_push_many_overflow_raises(self):
        s = Stream("cmd", 4, READ_COMMANDS)
        s.push_many(_commands(0, 2))
        with pytest.raises(SimulationError, match="overflow"):
            s.push_many(_commands(2, 3))
        assert len(s) == 2

    def test_rejects_mismatched_blocks(self):
        s = Stream("lanes", 8, lane_rows(4))
        with pytest.raises(SimulationError, match="rows shaped"):
            s.push_many(np.zeros((2, 3), dtype=np.uint64))
        with pytest.raises(SimulationError, match="holds uint64"):
            s.push_many(np.ones((2, 4)))

    def test_counters_exact(self):
        s = Stream("lanes", 8, lane_rows(4))
        s.push_many(_rows(0, 5))
        s.push(_rows(5, 1)[0])
        s.pop()
        s.pop_many(3)
        s.pop_many(0)
        s.push_many(_rows(6, 0))
        assert (s.total_pushed, s.total_popped) == (6, 4)
        s.drain()
        assert (s.total_pushed, s.total_popped) == (6, 6)
