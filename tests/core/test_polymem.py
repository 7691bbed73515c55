"""Unit + behavioural tests for the PolyMem facade."""

import numpy as np
import pytest

from repro.core.agu import AccessRequest
from repro.core.exceptions import ConflictError, PatternError, PortError
from repro.core.patterns import AccessPattern, PatternKind
from repro.core.schemes import Scheme

from ..conftest import make_polymem


class TestLoadDump:
    def test_roundtrip_all_schemes(self):
        for scheme in Scheme:
            pm = make_polymem(scheme)
            m = np.arange(pm.rows * pm.cols, dtype=np.uint64).reshape(
                pm.rows, pm.cols
            )
            pm.load(m)
            assert (pm.dump() == m).all(), scheme

    def test_load_shape_check(self, small_polymem):
        with pytest.raises(PatternError):
            small_polymem.load(np.zeros((3, 3)))

    def test_dump_every_port(self):
        pm = make_polymem(Scheme.ReRo, read_ports=3)
        m = np.arange(pm.rows * pm.cols, dtype=np.uint64).reshape(pm.rows, pm.cols)
        pm.load(m)
        for port in range(3):
            assert (pm.dump(port) == m).all()


class TestReads:
    def test_row_matches_matrix(self, loaded_polymem):
        pm, m = loaded_polymem
        for i in range(pm.rows):
            for j in range(0, pm.cols - pm.lanes + 1, 3):
                assert (pm.read(PatternKind.ROW, i, j) == m[i, j : j + 8]).all()

    def test_rectangle_matches_matrix(self, loaded_polymem):
        pm, m = loaded_polymem
        got = pm.read(PatternKind.RECTANGLE, 3, 7)
        assert (got == m[3:5, 7:11].ravel()).all()

    def test_main_diagonal(self, loaded_polymem):
        pm, m = loaded_polymem
        got = pm.read(PatternKind.MAIN_DIAGONAL, 2, 5)
        want = m[np.arange(2, 10), np.arange(5, 13)]
        assert (got == want).all()

    def test_anti_diagonal(self, loaded_polymem):
        pm, m = loaded_polymem
        got = pm.read(PatternKind.ANTI_DIAGONAL, 0, 10)
        want = m[np.arange(0, 8), 10 - np.arange(0, 8)]
        assert (got == want).all()

    def test_unsupported_pattern_raises_conflict(self, loaded_polymem):
        pm, _ = loaded_polymem
        with pytest.raises(ConflictError) as ei:
            pm.read(PatternKind.COLUMN, 0, 0)
        assert "does not support" in str(ei.value)
        assert ei.value.banks

    def test_misaligned_anchor_message(self):
        pm = make_polymem(Scheme.RoCo)
        with pytest.raises(ConflictError, match="constraint"):
            pm.read(PatternKind.RECTANGLE, 1, 2)

    def test_bad_port(self, loaded_polymem):
        pm, _ = loaded_polymem
        with pytest.raises(PortError):
            pm.read(PatternKind.ROW, 0, 0, port=1)


class TestWrites:
    def test_write_then_read_same_pattern(self, small_polymem):
        pm = small_polymem
        v = np.arange(50, 58, dtype=np.uint64)
        pm.write(PatternKind.ROW, 2, 4, v)
        assert (pm.read(PatternKind.ROW, 2, 4) == v).all()

    def test_write_one_pattern_read_another(self, small_polymem):
        """The multiview property: data written as rectangles is readable as
        rows — the whole point of PolyMem."""
        pm = small_polymem
        m = np.zeros((pm.rows, pm.cols), dtype=np.uint64)
        val = 1
        for i in range(0, pm.rows, 2):
            for j in range(0, pm.cols, 4):
                block = np.arange(val, val + 8, dtype=np.uint64)
                pm.write(PatternKind.RECTANGLE, i, j, block)
                m[i : i + 2, j : j + 4] = block.reshape(2, 4)
                val += 8
        for i in range(pm.rows):
            got = pm.read(PatternKind.ROW, i, 8)
            assert (got == m[i, 8:16]).all()

    def test_write_value_count_check(self, small_polymem):
        with pytest.raises(PatternError):
            small_polymem.write(PatternKind.ROW, 0, 0, np.arange(7))

    def test_write_conflict_rejected(self, small_polymem):
        with pytest.raises(ConflictError):
            small_polymem.write(PatternKind.COLUMN, 0, 0, np.arange(8))


class TestConcurrentStep:
    def test_read_write_same_cycle(self, loaded_polymem):
        pm, m = loaded_polymem
        before = pm.cycles
        out = pm.step(
            reads=[(0, AccessRequest(PatternKind.ROW, 0, 0))],
            write=(AccessRequest(PatternKind.ROW, 0, 0), np.arange(8)),
        )
        assert pm.cycles == before + 1
        # read sees pre-write data (independent ports)
        assert (out[0] == m[0, :8]).all()
        assert (pm.read(PatternKind.ROW, 0, 0) == np.arange(8)).all()

    def test_multiple_read_ports_same_cycle(self):
        pm = make_polymem(Scheme.ReRo, read_ports=2)
        m = np.arange(pm.rows * pm.cols, dtype=np.uint64).reshape(pm.rows, pm.cols)
        pm.load(m)
        out = pm.step(
            reads=[
                (0, AccessRequest(PatternKind.ROW, 0, 0)),
                (1, AccessRequest(PatternKind.ROW, 1, 0)),
            ]
        )
        assert (out[0] == m[0, :8]).all()
        assert (out[1] == m[1, :8]).all()
        assert pm.cycles == 1

    def test_same_port_twice_rejected(self, small_polymem):
        reqs = [
            (0, AccessRequest(PatternKind.ROW, 0, 0)),
            (0, AccessRequest(PatternKind.ROW, 1, 0)),
        ]
        with pytest.raises(PortError):
            small_polymem.step(reads=reqs)

    def test_stats_accounting(self, loaded_polymem):
        pm, _ = loaded_polymem
        pm.reset_stats()
        pm.read(PatternKind.ROW, 0, 0)
        pm.write(PatternKind.ROW, 0, 0, np.arange(8))
        assert pm.read_stats[0].accesses == 1
        assert pm.read_stats[0].elements == 8
        assert pm.write_stats.accesses == 1
        assert pm.cycles == 2


class TestBatchPath:
    def test_batch_equals_single_reads(self, loaded_polymem):
        pm, m = loaded_polymem
        anchors_i = np.arange(8)
        anchors_j = np.full(8, 4)
        batch = pm.read_batch(PatternKind.ROW, anchors_i, anchors_j)
        for k in range(8):
            assert (batch[k] == pm.read(PatternKind.ROW, k, 4)).all()

    def test_batch_write_equals_single(self):
        pm1 = make_polymem(Scheme.ReRo)
        pm2 = make_polymem(Scheme.ReRo)
        anchors_i = np.arange(0, 8, 2)
        anchors_j = np.zeros(4, int)
        vals = np.arange(32, dtype=np.uint64).reshape(4, 8)
        pm1.write_batch(PatternKind.RECTANGLE, anchors_i, anchors_j, vals)
        for k in range(4):
            pm2.write(PatternKind.RECTANGLE, int(anchors_i[k]), 0, vals[k])
        assert (pm1.dump() == pm2.dump()).all()

    def test_batch_conflict_detected(self, small_polymem):
        with pytest.raises(ConflictError, match="not conflict-free"):
            small_polymem.read_batch(
                PatternKind.COLUMN, np.array([0]), np.array([0])
            )

    def test_batch_conflict_check_skippable(self, loaded_polymem):
        pm, _ = loaded_polymem
        # with check=False a conflicting access silently reads garbage —
        # the caller's responsibility; it must not raise.
        pm.read_batch(PatternKind.COLUMN, np.array([0]), np.array([0]), check=False)

    def test_batch_cycle_accounting(self, loaded_polymem):
        pm, _ = loaded_polymem
        pm.reset_stats()
        pm.read_batch(PatternKind.ROW, np.arange(4), np.zeros(4, int))
        assert pm.cycles == 4
        assert pm.read_stats[0].elements == 32

    def test_batch_values_shape_check(self, small_polymem):
        with pytest.raises(PatternError):
            small_polymem.write_batch(
                PatternKind.ROW, np.array([0]), np.array([0]), np.zeros((2, 8))
            )

    def test_batch_port_check(self, loaded_polymem):
        pm, _ = loaded_polymem
        with pytest.raises(PortError):
            pm.read_batch(PatternKind.ROW, np.array([0]), np.array([0]), port=3)

    def test_overlapping_write_batch_matches_issue_order(self):
        """Overlapping rectangles: later accesses win the shared slots,
        exactly as sequential writes would leave them, on every replica."""
        pm1 = make_polymem(Scheme.ReRo, read_ports=2)
        pm2 = make_polymem(Scheme.ReRo, read_ports=2)
        anchors_i = np.array([0, 1, 1, 0, 3, 2])
        anchors_j = np.array([0, 2, 0, 0, 5, 3])
        vals = np.arange(1, 49, dtype=np.uint64).reshape(6, 8)
        pm1.write_batch(PatternKind.RECTANGLE, anchors_i, anchors_j, vals)
        for k in range(6):
            pm2.write(
                PatternKind.RECTANGLE, int(anchors_i[k]), int(anchors_j[k]), vals[k]
            )
        for port in range(2):
            assert (pm1.dump(port) == pm2.dump(port)).all(), port
        assert pm1.cycles == pm2.cycles == 6
        assert pm1.write_stats == pm2.write_stats

    def test_read_batch_on_second_port(self):
        pm = make_polymem(Scheme.RoCo, read_ports=2)
        m = np.arange(pm.rows * pm.cols, dtype=np.uint64).reshape(pm.rows, pm.cols)
        pm.load(m)
        pm.write(PatternKind.ROW, 3, 4, np.arange(8) + 10_000)
        anchors_i = np.array([3, 0, 7, 3])
        anchors_j = np.array([4, 1, 0, 2])
        batch = pm.read_batch(PatternKind.COLUMN, anchors_i, anchors_j, port=1)
        for k in range(4):
            single = pm.read(
                PatternKind.COLUMN, int(anchors_i[k]), int(anchors_j[k]), port=1
            )
            assert (batch[k] == single).all(), k
        assert pm.read_stats[1].accesses == 8 and pm.read_stats[0].accesses == 0
        assert (pm.dump(0) == pm.dump(1)).all()

    def test_strided_read_batch(self):
        pm = make_polymem(Scheme.RoCo, read_ports=2)
        m = np.arange(pm.rows * pm.cols, dtype=np.uint64).reshape(pm.rows, pm.cols)
        pm.load(m)
        pattern = AccessPattern(PatternKind.RECTANGLE, 2, 4, stride=2)
        anchors_i = np.array([0, 5, 2])
        anchors_j = np.array([0, 1, 3])
        for port in range(2):
            batch = pm.read_batch(
                PatternKind.RECTANGLE, anchors_i, anchors_j, port=port, stride=2
            )
            for k in range(3):
                i, j = int(anchors_i[k]), int(anchors_j[k])
                assert (batch[k] == m[pattern.coordinates(i, j)]).all(), (port, k)
                single = pm.read(PatternKind.RECTANGLE, i, j, port=port, stride=2)
                assert (batch[k] == single).all(), (port, k)


class TestMultiPortReplication:
    def test_bram_level_storage_scales_with_ports(self):
        pm1 = make_polymem(Scheme.ReRo, read_ports=1)
        pm4 = make_polymem(Scheme.ReRo, read_ports=4)
        assert pm4.banks.stored_bytes == 4 * pm1.banks.stored_bytes
        assert pm4.banks.capacity_bytes == pm1.banks.capacity_bytes

    def test_write_visible_on_all_ports(self):
        pm = make_polymem(Scheme.ReRo, read_ports=4)
        pm.write(PatternKind.ROW, 0, 0, np.arange(8))
        for port in range(4):
            assert (pm.read(PatternKind.ROW, 0, 0, port=port) == np.arange(8)).all()
