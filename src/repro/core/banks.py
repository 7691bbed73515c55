"""Memory-bank array: the ``p x q`` grid of BRAM-backed banks (Fig. 3).

Each bank is a linear word store of ``bank_depth`` 64-bit words.  Multiple
read ports are realized by *replication* (paper §IV-C): with ``R`` read
ports, ``R`` identical bank sets exist; a write is broadcast to every
replica in the same cycle, while read port ``r`` is served exclusively by
replica ``r``.  This keeps every port single-ported at the BRAM level and
multiplies BRAM usage by ``R`` — exactly the behaviour the paper's Fig. 8
reports.

The storage itself is a single NumPy array of shape
``(replicas, p*q, bank_depth)``; bank reads/writes are fancy-indexed so a
whole parallel access (or a batch of accesses) is served without Python
loops.
"""

from __future__ import annotations

import numpy as np

from .exceptions import AddressError, ConfigurationError, PortError

__all__ = ["BankArray"]


class BankArray:
    """The replicated ``p x q`` bank grid.

    Parameters
    ----------
    num_banks:
        Number of banks per replica (= ``p * q`` lanes).
    bank_depth:
        Words per bank.
    read_ports:
        Number of independent read ports (replicas).
    dtype:
        Word type; the paper evaluates 64-bit words throughout.
    """

    def __init__(
        self,
        num_banks: int,
        bank_depth: int,
        read_ports: int = 1,
        dtype=np.uint64,
    ):
        if num_banks < 1:
            raise ConfigurationError(f"need >= 1 bank, got {num_banks}")
        if bank_depth < 1:
            raise ConfigurationError(f"need bank depth >= 1, got {bank_depth}")
        if read_ports < 1:
            raise ConfigurationError(f"need >= 1 read port, got {read_ports}")
        self.num_banks = num_banks
        self.bank_depth = bank_depth
        self.read_ports = read_ports
        self.dtype = np.dtype(dtype)
        self._data = np.zeros((read_ports, num_banks, bank_depth), dtype=self.dtype)

    # -- capacity ---------------------------------------------------------
    @property
    def words_per_replica(self) -> int:
        """Addressable words in one replica."""
        return self.num_banks * self.bank_depth

    @property
    def capacity_bytes(self) -> int:
        """User-visible capacity in bytes (replicas hold copies, not extra
        capacity)."""
        return self.words_per_replica * self.dtype.itemsize

    @property
    def stored_bytes(self) -> int:
        """Physical storage including replication (drives BRAM counts)."""
        return self.capacity_bytes * self.read_ports

    # -- access -----------------------------------------------------------
    def _check(self, banks: np.ndarray, addrs: np.ndarray) -> None:
        if banks.shape != addrs.shape:
            raise AddressError("banks/addrs shape mismatch")
        if banks.size == 0:
            return
        if banks.min() < 0 or banks.max() >= self.num_banks:
            raise AddressError(
                f"bank id out of range [0, {self.num_banks})"
            )
        if addrs.min() < 0 or addrs.max() >= self.bank_depth:
            raise AddressError(
                f"intra-bank address out of range [0, {self.bank_depth})"
            )

    def write(self, banks, addrs, values) -> None:
        """Broadcast-write *values* to (bank, addr) slots of every replica.

        All arguments are equal-shape arrays (any shape); one parallel
        access passes ``p*q``-length vectors.
        """
        banks = np.asarray(banks)
        addrs = np.asarray(addrs)
        values = np.asarray(values, dtype=self.dtype)
        self._check(banks, addrs)
        self._data[:, banks, addrs] = values

    def read(self, port: int, banks, addrs) -> np.ndarray:
        """Read (bank, addr) slots from read port *port*'s replica."""
        if not 0 <= port < self.read_ports:
            raise PortError(
                f"read port {port} out of range [0, {self.read_ports})"
            )
        banks = np.asarray(banks)
        addrs = np.asarray(addrs)
        self._check(banks, addrs)
        return self._data[port, banks, addrs]

    def read_slots(self, port: int, slots) -> np.ndarray:
        """Gather flat slot ids (``bank * bank_depth + addr``) from one
        replica.  No bounds check: callers pass plan-validated slots
        (a fitting access cannot produce an out-of-range id)."""
        return self._data[port].reshape(-1)[slots]

    def write_slots(self, slots, values) -> None:
        """Broadcast-scatter *values* to flat slot ids on every replica.

        Duplicate slot ids resolve to the value latest in flattened (C)
        order — batched callers rely on this for last-write-wins.  NumPy's
        fancy assignment walks its index array in memory order, so both
        arguments are first laid out in C order (a copy only for views
        such as reversed or transposed blocks).  No bounds check (see
        :meth:`read_slots`)."""
        slots = np.ascontiguousarray(slots)
        values = np.asarray(values, dtype=self.dtype)
        if values.shape != slots.shape:
            values = np.broadcast_to(values, slots.shape)
        values = np.ascontiguousarray(values)
        flat = self._data.reshape(self.read_ports, -1)
        for replica in range(self.read_ports):
            flat[replica][slots] = values

    def fill(self, values: np.ndarray) -> None:
        """Bulk-load every replica with *values*, shaped ``(banks, depth)``."""
        values = np.asarray(values, dtype=self.dtype)
        if values.shape != (self.num_banks, self.bank_depth):
            raise AddressError(
                f"fill expects shape {(self.num_banks, self.bank_depth)}, "
                f"got {values.shape}"
            )
        self._data[:] = values[None, :, :]

    def snapshot(self, port: int = 0) -> np.ndarray:
        """Copy of one replica's raw contents, shape ``(banks, depth)``."""
        if not 0 <= port < self.read_ports:
            raise PortError(
                f"read port {port} out of range [0, {self.read_ports})"
            )
        return self._data[port].copy()

    def replicas_consistent(self) -> bool:
        """All replicas hold identical data (invariant after any sequence of
        writes; checked by property tests)."""
        return bool((self._data == self._data[0][None]).all())

    def clear(self) -> None:
        """Zero all storage."""
        self._data.fill(0)
