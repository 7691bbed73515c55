"""Typed streams: the edges of a dataflow graph.

A :class:`Stream` is a bounded FIFO connecting exactly one producer kernel
to one consumer kernel (or the host).  Kernels interact with streams once
per tick: push at most one element, pop at most one element.  A full stream
exerts *back-pressure* — the producer must check :meth:`Stream.can_push`
and stall otherwise, exactly like a MaxJ stream with a full FIFO.

The storage is one NumPy ring per stream whose element *layout*
(:class:`Layout`) is chosen when the stream is built: lane-vector streams
hold ``(n, lanes)`` uint64 rows (:func:`lane_rows`), select streams hold
int64 words (:data:`WORDS`), command streams hold structured records
(kind/i/j columns plus a payload block for writes, see
:mod:`repro.maxpolymem.kernel`), and untyped streams — jobs, the generic
library kernels — hold object references (:data:`OBJECTS`).  The scalar
one-element API keeps its exact semantics on every layout (a layout's
``encode``/``decode`` convert between an element and its ring row), while
the batched tick engine (:mod:`repro.maxeler.simulator`) moves whole
blocks per Python call through :meth:`Stream.push_many` /
:meth:`Stream.pop_many`.  Bulk pops always return copies, never views of
ring slots, so a popped block survives the reuse of its slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np

from ..core.exceptions import SimulationError

__all__ = ["Layout", "OBJECTS", "WORDS", "lane_rows", "Stream"]

#: initial ring size for unbounded (host-side) streams
_INITIAL_RING = 16

#: "no cached front element" marker (``None`` is a valid element)
_NONE = object()


@dataclass(frozen=True, eq=False)
class Layout:
    """How a stream's ring stores its elements.

    ``dtype`` is the NumPy dtype of one element (a sub-array dtype makes
    the ring 2-D, e.g. ``(n, lanes)`` rows).  ``encode`` turns a pushed
    element into a ring row and ``decode`` a ring row back into the
    element a scalar :meth:`Stream.pop` returns; ``None`` stores/returns
    the value as is.  Bulk operations bypass both and move blocks of ring
    rows (lists for :data:`OBJECTS`).
    """

    name: str
    dtype: np.dtype
    encode: Callable[[Any], Any] | None = None
    decode: Callable[[Any], Any] | None = None


#: untyped streams: object references (jobs, generic library kernels)
OBJECTS = Layout("object", np.dtype(object))

#: one int64 word per element (MUX/DEMUX select tokens)
WORDS = Layout("word", np.dtype(np.int64), decode=int)


@lru_cache(maxsize=None)
def lane_rows(lanes: int) -> Layout:
    """Lane-vector streams: one ``(lanes,)`` uint64 row per element."""
    return Layout(
        f"lanes{lanes}", np.dtype((np.uint64, (lanes,))), decode=np.ndarray.copy
    )


class Stream:
    """A bounded single-producer single-consumer FIFO edge.

    Parameters
    ----------
    name:
        Diagnostic label (shows up in simulator error messages).
    capacity:
        Maximum queued elements; ``None`` = unbounded (host-side buffers).
    layout:
        Element storage (default :data:`OBJECTS`).
    """

    def __init__(
        self, name: str, capacity: int | None = 16, layout: Layout = OBJECTS
    ):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"stream {name!r}: capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.layout = layout
        #: ring length a stream returns to once a grown ring has drained
        self._base = capacity or _INITIAL_RING
        self._ring = np.empty(self._base, dtype=layout.dtype)
        self._objects = self._ring.dtype == object
        self._encode = layout.encode
        self._decode = layout.decode
        self._head = 0  # index of the oldest element
        self._size = 0
        #: the decoded front element after a :meth:`peek`, so the
        #: peek-then-pop idiom of the scalar tick decodes once
        self._front = _NONE
        #: set by the batched engine while a chunk moves elements through
        #: this stream with an in-chunk producer *and* consumer: the ring
        #: then holds the chunk in transit beyond ``capacity`` (per cycle
        #: the occupancy stays constant, see DESIGN.md)
        self._transit = False
        #: lifetime counters for utilization accounting
        self.total_pushed = 0
        self.total_popped = 0

    def __len__(self) -> int:
        return self._size

    @property
    def empty(self) -> bool:
        return self._size == 0

    @property
    def full(self) -> bool:
        return self.capacity is not None and self._size >= self.capacity

    def can_push(self) -> bool:
        """Producer-side back-pressure check."""
        return not self.full

    def can_pop(self) -> bool:
        """Consumer-side data-availability check."""
        return self._size > 0

    # -- ring bookkeeping --------------------------------------------------
    def _take(self, count: int) -> np.ndarray:
        """Copy of the first *count* queued ring rows, in FIFO order."""
        ring, head = self._ring, self._head
        first = len(ring) - head
        if count <= first:
            return ring[head : head + count].copy()
        return np.concatenate((ring[head:], ring[: count - first]))

    def _resize(self, length: int) -> None:
        fresh = np.empty(length, dtype=self.layout.dtype)
        fresh[: self._size] = self._take(self._size)
        self._ring = fresh
        self._head = 0

    def _grow(self, needed: int) -> None:
        """Resize the ring to hold at least *needed* elements (unbounded
        streams, and bounded ones holding a chunk in transit)."""
        self._resize(max(len(self._ring) * 2, needed, _INITIAL_RING))

    def _block(self, values, count: int) -> np.ndarray:
        """*values* as a block of ring rows, checked against the layout."""
        ring = self._ring
        if self._objects:
            if isinstance(values, np.ndarray) and values.dtype == object:
                return values
            return np.fromiter(values, dtype=object, count=count)
        if isinstance(values, np.ndarray) and values.dtype == ring.dtype:
            block = values
        elif self._encode is not None:
            block = np.array([self._encode(v) for v in values], dtype=ring.dtype)
        else:
            block = np.asarray(values)
            if not np.can_cast(block.dtype, ring.dtype, "same_kind"):
                raise SimulationError(
                    f"stream {self.name!r} holds {ring.dtype}, got {block.dtype}"
                )
        if block.shape[1:] != ring.shape[1:]:
            raise SimulationError(
                f"stream {self.name!r} holds rows shaped {ring.shape[1:]}, "
                f"got {block.shape[1:]}"
            )
        return block

    def _out(self, block: np.ndarray):
        return block.tolist() if self._objects else block

    # -- scalar API --------------------------------------------------------
    def push(self, value: Any) -> None:
        """Enqueue one element; raises on overflow (a kernel bug — hardware
        would drop data here)."""
        if self.capacity is not None and self._size >= self.capacity:
            raise SimulationError(
                f"stream {self.name!r} overflow (capacity {self.capacity})"
            )
        if self._size >= len(self._ring):
            self._grow(self._size + 1)
        if self._encode is not None:
            value = self._encode(value)
        self._ring[(self._head + self._size) % len(self._ring)] = value
        self._size += 1
        self.total_pushed += 1

    def pop(self) -> Any:
        """Dequeue one element; raises on underflow."""
        if self._size == 0:
            raise SimulationError(f"stream {self.name!r} underflow")
        ring, head = self._ring, self._head
        value = self._front
        if value is _NONE:
            value = ring[head]
            if self._decode is not None:
                value = self._decode(value)
        else:
            self._front = _NONE
        if self._objects:
            ring[head] = None  # release the reference
        self._head = (head + 1) % len(ring)
        self._size -= 1
        self.total_popped += 1
        return value

    def peek(self) -> Any:
        """Front element without consuming it."""
        if self._size == 0:
            raise SimulationError(f"stream {self.name!r} peek on empty")
        if self._front is _NONE:
            value = self._ring[self._head]
            self._front = value if self._decode is None else self._decode(value)
        return self._front

    # -- bulk API (the batched tick engine's transport) --------------------
    def push_many(self, values: Sequence[Any] | np.ndarray) -> None:
        """Enqueue a block of elements in order (bulk :meth:`push`).

        Typed layouts take an ndarray of ring rows (other sequences are
        converted element by element); the block is copied into the ring.
        """
        count = len(values)
        if count == 0:
            return
        if (
            self.capacity is not None
            and not self._transit
            and self._size + count > self.capacity
        ):
            raise SimulationError(
                f"stream {self.name!r} overflow: {count} pushes into "
                f"{self.capacity - self._size} free slots"
            )
        block = self._block(values, count)
        if self._size + count > len(self._ring):
            self._grow(self._size + count)
        ring = self._ring
        tail = (self._head + self._size) % len(ring)
        first = min(count, len(ring) - tail)
        ring[tail : tail + first] = block[:first]
        if first < count:
            ring[: count - first] = block[first:]
        self._size += count
        self.total_pushed += count

    def pop_many(self, count: int):
        """Dequeue a block of *count* elements (bulk :meth:`pop`): a copied
        ndarray of ring rows for typed layouts, a list for :data:`OBJECTS`."""
        if count > self._size:
            raise SimulationError(
                f"stream {self.name!r} underflow: {count} pops from "
                f"{self._size} queued"
            )
        block = self._take(count)
        ring, head = self._ring, self._head
        if count:
            self._front = _NONE
        if self._objects:
            first = min(count, len(ring) - head)
            ring[head : head + first] = None
            ring[: count - first] = None
        self._head = (head + count) % len(ring)
        self._size -= count
        self.total_popped += count
        if len(ring) > self._base >= self._size:
            # a burst has drained: give the grown ring back
            self._resize(self._base)
        return self._out(block)

    def peek_many(self, count: int | None = None):
        """The first *count* queued elements (default: all), not consumed."""
        count = self._size if count is None else min(count, self._size)
        return self._out(self._take(count))

    def drain(self):
        """Pop everything (host-side collection)."""
        return self.pop_many(self._size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "inf" if self.capacity is None else self.capacity
        return f"Stream({self.name!r}, {self._size}/{cap}, {self.layout.name})"
