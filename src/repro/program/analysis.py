"""Static analyses over access programs.

These run on *describe-only* programs (no write values needed): the
anchors and pattern kinds alone determine which physical bank slots an
op touches, via the compiled residue tables
(:meth:`~repro.core.polymem.PolyMem.access_slots` — one table gather per
op, no cycle cost, no conflict check).

:func:`slot_disjoint` is the batched tick engine's chunk proof,
relocated from the fused MAX-PolyMem kernel: a chunk of claimed accesses
may be fast-forwarded only when its writes never overlap each other
(fancy-indexed assignment then matches sequential issue order) and no
read touches a written slot (read-before-write ordering inside the chunk
is unobservable, so all collision policies coincide).
"""

from __future__ import annotations

import numpy as np

from ..core.polymem import PolyMem
from .ir import AccessOp, AccessProgram, ParallelRead, ParallelWrite

__all__ = ["op_slots", "slot_disjoint"]


def op_slots(op: AccessOp, memory: PolyMem) -> np.ndarray:
    """The ``(n, lanes)`` flat bank-slot ids *op* touches on *memory*.

    Heterogeneous ops gather per distinct kind (slot ids are
    order-independent, so masked assembly is exact).  Raises
    :class:`~repro.core.exceptions.AddressError` on out-of-bounds anchors,
    like the batched access paths the proof guards.
    """
    if op.uniform:
        return memory.access_slots(op.kind, op.anchors_i, op.anchors_j, op.stride)
    slots = np.empty((op.n, memory.lanes), dtype=np.int64)
    codes = np.fromiter(
        (k.value for k in op.kind), dtype=object, count=op.n
    )
    for kind in dict.fromkeys(op.kind):
        m = codes == kind.value
        slots[m] = memory.access_slots(
            kind, op.anchors_i[m], op.anchors_j[m], op.stride
        )
    return slots


def slot_disjoint(program: AccessProgram, memory) -> bool:
    """Whether the program's writes are self-disjoint and disjoint from
    every read — the condition under which whole-chunk fast-forwarding is
    bit-identical to per-cycle stepping.

    *memory* is one :class:`PolyMem` (applied to every op) or a mapping
    of memory names to PolyMems.  The test marks every write slot in one
    boolean map per memory (a repeated slot leaves fewer marks than
    writes) and probes each read op against its memory's map — linear in
    the accesses plus the memory size, no sort.
    """

    def mem_of(op: AccessOp) -> PolyMem:
        return memory if isinstance(memory, PolyMem) else memory[op.mem]

    marks: dict[int, np.ndarray] = {}  # per memory: written slots
    written: dict[int, int] = {}  # per memory: write count
    for op in program.access_ops:
        if not isinstance(op, ParallelWrite):
            continue
        mem = mem_of(op)
        key = id(mem)
        if key not in marks:
            marks[key] = np.zeros(mem.banks.words_per_replica, dtype=bool)
            written[key] = 0
        slots = op_slots(op, mem).ravel()
        marks[key][slots] = True
        written[key] += slots.size
    if any(np.count_nonzero(marks[key]) != written[key] for key in marks):
        return False  # overlapping writes: sequential semantics differ
    for op in program.access_ops:
        if not isinstance(op, ParallelRead):
            continue
        mem = mem_of(op)
        mark = marks.get(id(mem))
        if mark is not None and mark[op_slots(op, mem).ravel()].any():
            return False  # a read would observe an in-chunk write
    return True
