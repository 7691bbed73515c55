"""Unit tests for the replicated bank array."""

import numpy as np
import pytest

from repro.core.banks import BankArray
from repro.core.exceptions import AddressError, ConfigurationError, PortError


@pytest.fixture
def banks():
    return BankArray(num_banks=8, bank_depth=16, read_ports=2)


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            BankArray(0, 16)
        with pytest.raises(ConfigurationError):
            BankArray(8, 0)
        with pytest.raises(ConfigurationError):
            BankArray(8, 16, read_ports=0)

    def test_capacity_accounting(self, banks):
        assert banks.words_per_replica == 128
        assert banks.capacity_bytes == 128 * 8
        assert banks.stored_bytes == 2 * 128 * 8  # replication doubles storage


class TestReadWrite:
    def test_roundtrip(self, banks):
        b = np.arange(8)
        a = np.full(8, 3)
        v = np.arange(100, 108)
        banks.write(b, a, v)
        assert (banks.read(0, b, a) == v).all()
        assert (banks.read(1, b, a) == v).all()

    def test_write_broadcasts_to_all_replicas(self, banks):
        banks.write(np.array([0]), np.array([0]), np.array([7]))
        assert banks.replicas_consistent()

    def test_port_bounds(self, banks):
        with pytest.raises(PortError):
            banks.read(2, np.array([0]), np.array([0]))
        with pytest.raises(PortError):
            banks.read(-1, np.array([0]), np.array([0]))

    def test_address_bounds(self, banks):
        with pytest.raises(AddressError):
            banks.write(np.array([8]), np.array([0]), np.array([1]))
        with pytest.raises(AddressError):
            banks.write(np.array([0]), np.array([16]), np.array([1]))
        with pytest.raises(AddressError):
            banks.read(0, np.array([0]), np.array([-1]))

    def test_shape_mismatch(self, banks):
        with pytest.raises(AddressError):
            banks.write(np.arange(3), np.arange(4), np.arange(4))

    def test_2d_indexing(self, banks):
        b = np.tile(np.arange(8), (3, 1))
        a = np.arange(3)[:, None] * np.ones(8, int)
        v = np.arange(24).reshape(3, 8)
        banks.write(b, a, v)
        assert (banks.read(0, b, a) == v).all()

    def test_empty_access_is_noop(self, banks):
        banks.write(np.array([], int), np.array([], int), np.array([], int))
        assert (banks.snapshot() == 0).all()

    def test_dtype_cast(self, banks):
        banks.write(np.array([1]), np.array([1]), np.array([3.0]))
        assert banks.read(0, np.array([1]), np.array([1]))[0] == 3
        assert banks.read(0, np.array([1]), np.array([1])).dtype == np.uint64


class TestBulkOps:
    def test_fill_and_snapshot(self, banks):
        data = np.arange(128, dtype=np.uint64).reshape(8, 16)
        banks.fill(data)
        assert (banks.snapshot(0) == data).all()
        assert (banks.snapshot(1) == data).all()

    def test_fill_shape_check(self, banks):
        with pytest.raises(AddressError):
            banks.fill(np.zeros((8, 15)))

    def test_snapshot_is_a_copy(self, banks):
        snap = banks.snapshot()
        snap[0, 0] = 99
        assert banks.read(0, np.array([0]), np.array([0]))[0] == 0

    def test_snapshot_port_bounds(self, banks):
        with pytest.raises(PortError):
            banks.snapshot(5)

    def test_clear(self, banks):
        banks.write(np.array([1]), np.array([1]), np.array([9]))
        banks.clear()
        assert (banks.snapshot() == 0).all()

    def test_replica_consistency_after_random_ops(self, banks, rng):
        for _ in range(50):
            n = rng.integers(1, 8)
            b = rng.choice(8, n, replace=False)
            a = rng.integers(0, 16, n)
            banks.write(b, a, rng.integers(0, 1000, n))
        assert banks.replicas_consistent()


class TestFlatSlots:
    """``write_slots`` resolves duplicate slot ids to the value latest in
    flattened (C) order, whatever the memory layout of its arguments."""

    @staticmethod
    def _sequential(slots, values):
        ref = BankArray(num_banks=8, bank_depth=16, read_ports=2)
        flat_slots = np.asarray(slots).reshape(-1).tolist()
        flat_values = np.asarray(values).reshape(-1).tolist()
        for slot, value in zip(flat_slots, flat_values):
            bank, addr = divmod(slot, 16)
            ref.write(np.array([bank]), np.array([addr]), np.array([value]))
        return ref

    @pytest.mark.parametrize("view", ["reversed", "transposed", "strided"])
    def test_views_keep_last_write_wins(self, banks, view):
        rows = np.array([[3, 7, 3, 100], [7, 3, 127, 3], [100, 3, 7, 7]])
        vals = np.arange(1, 13, dtype=np.uint64).reshape(3, 4)
        if view == "reversed":
            slots, values = rows[::-1], vals[::-1]
        elif view == "transposed":
            slots, values = rows.T, vals.T
        else:
            slots, values = rows[:, ::2], vals[:, ::2]
        assert not slots.flags.c_contiguous
        banks.write_slots(slots, values)
        ref = self._sequential(slots, values)
        assert (banks.snapshot(0) == ref.snapshot(0)).all()
        assert (banks.snapshot(1) == ref.snapshot(1)).all()

    def test_read_slots_gathers_flat_ids(self, banks):
        banks.fill(np.arange(128, dtype=np.uint64).reshape(8, 16))
        slots = np.array([[5, 17], [127, 0]])
        assert (banks.read_slots(1, slots) == slots).all()
