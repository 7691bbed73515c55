"""Compiled access plans: the anchor-invariant half of a parallel access.

In hardware (paper Fig. 3) the AGU, the module-assignment block ``M``, the
addressing function ``A`` and the shuffle routing are *fixed combinational
logic* — their structure is paid for once, at synthesis time, and every
cycle merely applies a new anchor to it.  The software model used to pay
the full derivation cost per access: a fresh AGU expansion, a MAF
evaluation over ``p*q`` coordinates, a conflict check and a
permutation-validated shuffle, per ``step()``.

:func:`compile_plan` performs that derivation once per
``(rows, cols, p, q, scheme, kind, stride)`` key and caches the result.
The insight making this exact (not approximate) is that every MAF of
:mod:`repro.core.schemes` is periodic in each coordinate with period
``P = p * q``, and the addressing function splits into an anchor *base*
plus a residue-indexed *delta*:

* ``bank(i + di[k], j + dj[k])`` depends only on ``(i mod P, j mod P)``
  — tabulated as ``bank_table[P, P, lanes]``;
* ``A(i + di, j + dj) = (i div p) * (M/q) + (j div q)
  + addr_delta[i mod p, j mod q]`` exactly (floored division), because
  ``(x + d) div m = x div m + ((x mod m) + d) div m``;
* conflict-freedom of the whole access is a property of the anchor
  residue — tabulated as ``ok[P, P]``;
* the lane→bank permutation's inverse (``lane_of_bank``) is tabulated
  alongside, so shuffle routing is a gather instead of a validated
  scatter.

Applying an anchor therefore costs a handful of vectorized mods, adds and
table gathers — for one access *or for a whole trace of them at once*.
:class:`AccessTrace` packages such a trace (multi-port reads plus a write
stream, optionally with heterogeneous pattern kinds) for
:meth:`repro.core.polymem.PolyMem.replay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..telemetry import context as _telemetry
from .exceptions import PatternError, PortError
from .patterns import PatternKind, pattern_offsets
from .schemes import Scheme, flat_module_assignment

__all__ = [
    "AccessPlan",
    "AccessTrace",
    "compile_plan",
    "compile_plan_batch",
    "plan_cache_stats",
    "DENSE_SLOT_LIMIT",
    "TraceKernel",
    "charge_trace",
    "derive_kernel",
    "run_kernel",
]

#: every plan family ever compiled in this process, in compile order.
#: Appended on cache *misses* only (the memoized body runs once per key),
#: so :func:`compile_plan_batch` can skip families already built — it is
#: a superset of the live LRU contents when eviction has occurred.
_compiled_keys: dict[tuple, None] = {}

#: plans pre-built by :func:`compile_plan_batch`, waiting to be adopted by
#: the memoized :func:`compile_plan` body (which pops them on its next
#: miss for the key).  Never more than one batch's worth of entries live.
_batch_built: dict[tuple, "AccessPlan"] = {}


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AccessPlan:
    """The anchor-invariant pieces of one ``(shape, stride)`` access family.

    Instances are immutable and shared (see :func:`compile_plan`); all
    array fields are read-only.  ``bank_table`` / ``lane_of_bank`` are
    stored as ``int16`` (lane counts are tiny) — cast before arithmetic.
    """

    rows: int
    cols: int
    p: int
    q: int
    scheme: Scheme
    kind: PatternKind
    stride: int
    #: lane-relative coordinate offsets, length ``p*q``
    di: np.ndarray = field(repr=False)
    dj: np.ndarray = field(repr=False)
    #: inclusive valid anchor ranges (empty when ``i_hi < i_lo``)
    i_lo: int = 0
    i_hi: int = 0
    j_lo: int = 0
    j_hi: int = 0
    #: MAF periodicity in each anchor coordinate (= ``p * q``)
    period: int = 0
    #: per-lane flat bank id for each anchor residue, ``(P, P, lanes)``
    bank_table: np.ndarray = field(default=None, repr=False)
    #: inverse permutation per residue: ``lane_of_bank[ri, rj, b]`` is the
    #: lane whose element lands in bank ``b`` (garbage where ``~ok``)
    lane_of_bank: np.ndarray = field(default=None, repr=False)
    #: conflict-free anchor residues, ``(P, P)`` bool
    ok: np.ndarray = field(default=None, repr=False)
    #: residue part of the in-bank address, ``(p, q, lanes)``
    addr_delta: np.ndarray = field(default=None, repr=False)
    #: fused residue table ``bank * bank_depth + addr_delta``, shaped
    #: ``(P, P, lanes)`` — flat slot ids are one gather plus the base add
    slot_delta: np.ndarray = field(default=None, repr=False)
    blocks_per_row: int = 0
    bank_depth: int = 0

    @property
    def lanes(self) -> int:
        return self.p * self.q

    # -- single-anchor application ---------------------------------------
    def fits(self, i: int, j: int) -> bool:
        """Whether the access anchored at (i, j) stays inside the space."""
        return self.i_lo <= i <= self.i_hi and self.j_lo <= j <= self.j_hi

    def conflict_free(self, i: int, j: int) -> bool:
        """O(1) conflict check from the residue table."""
        return bool(self.ok[i % self.period, j % self.period])

    def banks(self, i: int, j: int) -> np.ndarray:
        """Per-lane bank ids at anchor (i, j) (read-only table row)."""
        return self.bank_table[i % self.period, j % self.period]

    def inverse_permutation(self, i: int, j: int) -> np.ndarray:
        """``lane_of_bank`` row at anchor (i, j); only valid where
        :meth:`conflict_free` holds."""
        return self.lane_of_bank[i % self.period, j % self.period]

    def addrs(self, i: int, j: int) -> np.ndarray:
        """Per-lane in-bank addresses at anchor (i, j): base + delta."""
        base = (i // self.p) * self.blocks_per_row + (j // self.q)
        return base + self.addr_delta[i % self.p, j % self.q]

    # -- batched application ---------------------------------------------
    def fits_mask(self, anchors_i: np.ndarray, anchors_j: np.ndarray) -> np.ndarray:
        """Per-anchor in-bounds mask."""
        return (
            (anchors_i >= self.i_lo)
            & (anchors_i <= self.i_hi)
            & (anchors_j >= self.j_lo)
            & (anchors_j <= self.j_hi)
        )

    def ok_mask(self, anchors_i: np.ndarray, anchors_j: np.ndarray) -> np.ndarray:
        """Per-anchor conflict-freedom mask."""
        return self.ok[anchors_i % self.period, anchors_j % self.period]

    def banks_many(self, anchors_i: np.ndarray, anchors_j: np.ndarray) -> np.ndarray:
        """``(B, lanes)`` bank ids (int16 table gather)."""
        return self.bank_table[anchors_i % self.period, anchors_j % self.period]

    def addrs_many(self, anchors_i: np.ndarray, anchors_j: np.ndarray) -> np.ndarray:
        """``(B, lanes)`` in-bank addresses."""
        base = (anchors_i // self.p) * self.blocks_per_row + (anchors_j // self.q)
        return base[:, None] + self.addr_delta[anchors_i % self.p, anchors_j % self.q]

    def slots_many(self, anchors_i: np.ndarray, anchors_j: np.ndarray) -> np.ndarray:
        """``(B, lanes)`` flat ``bank * depth + address`` slot ids.

        One fused-table gather plus the anchor-base add — the whole-trace
        replay path lives on this."""
        base = (anchors_i // self.p) * self.blocks_per_row + (anchors_j // self.q)
        return base[:, None] + self.slot_delta[
            anchors_i % self.period, anchors_j % self.period
        ]


@lru_cache(maxsize=256)
def compile_plan(
    rows: int,
    cols: int,
    p: int,
    q: int,
    scheme: Scheme,
    kind: PatternKind,
    stride: int = 1,
) -> AccessPlan:
    """Compile (and memoize) the :class:`AccessPlan` for one access family.

    The cache is process-wide: every PolyMem instance with the same
    geometry shares the same compiled tables (they are immutable).  The
    LRU bound (256) is sized to hold every Table III family (~112) plus
    runtime extras, so a long-lived process keeps every family resident.
    """
    kind = PatternKind(kind)
    scheme = Scheme(scheme)
    _compiled_keys[(rows, cols, p, q, scheme, kind, stride)] = None
    prebuilt = _batch_built.pop((rows, cols, p, q, scheme, kind, stride), None)
    if prebuilt is not None:
        return prebuilt
    di, dj = pattern_offsets(kind, p, q, stride)
    period = p * q
    res = np.arange(period, dtype=np.int64)
    # (P, 1, L) x (1, P, L) broadcast: every MAF mixes i and j terms
    ii = res[:, None, None] + di[None, None, :]
    jj = res[None, :, None] + dj[None, None, :]
    bank_table = flat_module_assignment(scheme, ii, jj, p, q)
    bank_table = np.broadcast_to(
        bank_table, (period, period, p * q)
    ).astype(np.int16)
    sorted_b = np.sort(bank_table, axis=-1)
    ok = ~(sorted_b[..., 1:] == sorted_b[..., :-1]).any(axis=-1)
    if p * q == 1:
        ok = np.ones((period, period), dtype=bool)
    # argsort of a permutation row is its inverse; stable sort keeps the
    # result deterministic on conflicting (non-permutation) rows too
    lane_of_bank = np.argsort(bank_table, axis=-1, kind="stable").astype(np.int16)
    blocks_per_row = cols // q
    rp = np.arange(p, dtype=np.int64)
    rq = np.arange(q, dtype=np.int64)
    addr_delta = ((rp[:, None, None] + di[None, None, :]) // p) * blocks_per_row + (
        (rq[None, :, None] + dj[None, None, :]) // q
    )
    bank_depth = (rows // p) * blocks_per_row
    slot_delta = bank_table.astype(np.int64) * bank_depth + addr_delta[
        res[:, None] % p, res[None, :] % q
    ]
    return AccessPlan(
        rows=rows,
        cols=cols,
        p=p,
        q=q,
        scheme=scheme,
        kind=kind,
        stride=stride,
        di=di,
        dj=dj,
        i_lo=int(-di.min()) if di.size else 0,
        i_hi=rows - 1 - int(di.max()) if di.size else rows - 1,
        j_lo=int(-dj.min()) if dj.size else 0,
        j_hi=cols - 1 - int(dj.max()) if dj.size else cols - 1,
        period=period,
        bank_table=_readonly(np.ascontiguousarray(bank_table)),
        lane_of_bank=_readonly(np.ascontiguousarray(lane_of_bank)),
        ok=_readonly(ok),
        addr_delta=_readonly(addr_delta),
        slot_delta=_readonly(np.ascontiguousarray(slot_delta)),
        blocks_per_row=blocks_per_row,
        bank_depth=bank_depth,
    )


def _normalize_plan_key(key) -> tuple:
    rows, cols, p, q, scheme, kind, *rest = key
    stride = int(rest[0]) if rest else 1
    return (
        int(rows), int(cols), int(p), int(q),
        Scheme(scheme), PatternKind(kind), stride,
    )


def compile_plan_batch(keys) -> dict[tuple, AccessPlan]:
    """Compile a whole grid of plan families in shared broadcast passes.

    *keys* are ``(rows, cols, p, q, scheme, kind[, stride])`` tuples as
    accepted by :func:`compile_plan`.  Families not yet resident are
    grouped by their residue *core* ``(p, q, scheme, kind, stride)``: the
    bank/ok/inverse-permutation tables depend only on the core (every MAF
    is periodic with period ``P = p * q``, independent of the geometry),
    and the address tables are linear in the geometry —
    ``addr_delta = A * blocks_per_row + B`` with core-only ``A``/``B`` —
    so one residue build covers every ``(rows, cols)`` member of the core
    via two integer broadcasts, with arithmetic identical to the scalar
    body's (bit-identical tables; the core members share the read-only
    residue arrays instead of owning copies).

    Each pre-built plan is adopted by the memoized :func:`compile_plan`
    (its body pops :data:`_batch_built` on the miss), so batch-built
    families land in the same process-wide LRU with the same miss
    accounting — single-config callers are unaffected and later scalar
    lookups hit.  Returns ``{normalized key: plan}`` for every input key.
    """
    normd = [_normalize_plan_key(k) for k in keys]
    fresh = [k for k in dict.fromkeys(normd) if k not in _compiled_keys]
    by_core: dict[tuple, list[tuple]] = {}
    for k in fresh:
        rows, cols, p, q, scheme, kind, stride = k
        by_core.setdefault((p, q, scheme, kind, stride), []).append(k)
    for (p, q, scheme, kind, stride), members in by_core.items():
        di, dj = pattern_offsets(kind, p, q, stride)
        period = p * q
        res = np.arange(period, dtype=np.int64)
        ii = res[:, None, None] + di[None, None, :]
        jj = res[None, :, None] + dj[None, None, :]
        bank_table = flat_module_assignment(scheme, ii, jj, p, q)
        bank_table = np.broadcast_to(
            bank_table, (period, period, p * q)
        ).astype(np.int16)
        sorted_b = np.sort(bank_table, axis=-1)
        ok = ~(sorted_b[..., 1:] == sorted_b[..., :-1]).any(axis=-1)
        if p * q == 1:
            ok = np.ones((period, period), dtype=bool)
        lane_of_bank = np.argsort(
            bank_table, axis=-1, kind="stable"
        ).astype(np.int16)
        rp = np.arange(p, dtype=np.int64)
        rq = np.arange(q, dtype=np.int64)
        delta_a = (rp[:, None, None] + di[None, None, :]) // p
        delta_b = (rq[None, :, None] + dj[None, None, :]) // q
        bank64 = bank_table.astype(np.int64)
        res_p = res[:, None] % p
        res_q = res[None, :] % q
        bank_table = _readonly(np.ascontiguousarray(bank_table))
        lane_of_bank = _readonly(np.ascontiguousarray(lane_of_bank))
        ok = _readonly(ok)
        i_lo = int(-di.min()) if di.size else 0
        j_lo = int(-dj.min()) if dj.size else 0
        for rows, cols, *_ in members:
            blocks_per_row = cols // q
            addr_delta = delta_a * blocks_per_row + delta_b
            bank_depth = (rows // p) * blocks_per_row
            slot_delta = bank64 * bank_depth + addr_delta[res_p, res_q]
            _batch_built[(rows, cols, p, q, scheme, kind, stride)] = AccessPlan(
                rows=rows,
                cols=cols,
                p=p,
                q=q,
                scheme=scheme,
                kind=kind,
                stride=stride,
                di=di,
                dj=dj,
                i_lo=i_lo,
                i_hi=rows - 1 - int(di.max()) if di.size else rows - 1,
                j_lo=j_lo,
                j_hi=cols - 1 - int(dj.max()) if dj.size else cols - 1,
                period=period,
                bank_table=bank_table,
                lane_of_bank=lane_of_bank,
                ok=ok,
                addr_delta=_readonly(addr_delta),
                slot_delta=_readonly(np.ascontiguousarray(slot_delta)),
                blocks_per_row=blocks_per_row,
                bank_depth=bank_depth,
            )
    if fresh:
        tel = _telemetry.active()
        if tel is not None:
            tel.metrics.counter("polymem.plan_batch.families").inc(len(fresh))
            tel.metrics.counter("polymem.plan_batch.cores").inc(len(by_core))
    return {k: compile_plan(*k) for k in dict.fromkeys(normd)}


def plan_cache_stats() -> dict:
    """Process-wide plan-cache accounting as plain JSON."""
    info = compile_plan.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "maxsize": info.maxsize,
    }


def _as_anchor_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise PatternError(f"{name} anchors must be a 1-D integer array")
    return arr


class _Stream:
    """One port's access stream: per-cycle kinds + anchors (+ values)."""

    __slots__ = ("kinds", "codes", "anchors_i", "anchors_j", "stride", "values")

    def __init__(self, kind, anchors_i, anchors_j, stride=1, values=None):
        self.anchors_i = _as_anchor_array(anchors_i, "i")
        self.anchors_j = _as_anchor_array(anchors_j, "j")
        if self.anchors_i.shape != self.anchors_j.shape:
            raise PatternError("anchor arrays must be equal-length 1-D")
        n = self.anchors_i.size
        if isinstance(kind, (PatternKind, str)):
            self.kinds = (PatternKind(kind),)
            self.codes = None
        else:
            seq = [PatternKind(k) for k in kind]
            if len(seq) != n:
                raise PatternError(
                    f"per-cycle kinds: got {len(seq)} kinds for {n} anchors"
                )
            distinct = list(dict.fromkeys(seq))
            self.kinds = tuple(distinct)
            index = {k: c for c, k in enumerate(distinct)}
            self.codes = np.fromiter(
                (index[k] for k in seq), dtype=np.int64, count=n
            )
        if stride < 1:
            raise PatternError(f"stride must be >= 1, got {stride}")
        self.stride = stride
        self.values = values

    @property
    def n(self) -> int:
        return self.anchors_i.size

    def kind_at(self, t: int) -> PatternKind:
        if self.codes is None:
            return self.kinds[0]
        return self.kinds[int(self.codes[t])]

    def tables(self, plan_of) -> tuple[np.ndarray, np.ndarray]:
        """Expand this stream into ``(slots, valid)`` index tables.

        ``plan_of(kind, stride)`` supplies the compiled
        :class:`AccessPlan` for each pattern family (typically
        ``PolyMem.plan``).  ``slots`` holds flat ``bank * depth +
        address`` ids, ``(n, lanes)``; ``valid[t]`` is True when cycle
        *t*'s access is in bounds and conflict-free.  Slot rows are
        computed unconditionally (the residue tables accept any anchor,
        producing garbage ids on invalid rows), so callers must gate
        memory traffic on ``valid``.
        """
        ai, aj = self.anchors_i, self.anchors_j
        if self.codes is None:
            plan = plan_of(self.kinds[0], self.stride)
            valid = plan.fits_mask(ai, aj) & plan.ok_mask(ai, aj)
            return plan.slots_many(ai, aj), valid
        n = self.n
        slots = None
        valid = np.empty(n, dtype=bool)
        for code, kind in enumerate(self.kinds):
            m = self.codes == code
            mi, mj = ai[m], aj[m]
            plan = plan_of(kind, self.stride)
            if slots is None:
                slots = np.empty((n, plan.lanes), dtype=np.int64)
            valid[m] = plan.fits_mask(mi, mj) & plan.ok_mask(mi, mj)
            slots[m] = plan.slots_many(mi, mj)
        if slots is None:  # zero-length heterogeneous stream
            slots = np.empty((0, 0), dtype=np.int64)
        return slots, valid

    def sliced(self, stop: int) -> "_Stream":
        kind = (
            self.kinds[0]
            if self.codes is None
            else [self.kinds[int(c)] for c in self.codes[:stop]]
        )
        values = None if self.values is None else self.values[:stop]
        return _Stream(
            kind, self.anchors_i[:stop], self.anchors_j[:stop], self.stride, values
        )


class TraceKernel:
    """The derived index tables of one valid trace (:func:`derive_kernel`).

    ``reads`` maps each read port to its ``(n, lanes)`` slot table;
    ``w_slots`` is the flattened write-slot table (``None`` without a
    write stream; duplicate slots resolve last-write-wins under flat
    fancy assignment); ``forwards`` maps ports to ``(flat_result_index,
    flat_value_index)`` gather pairs implementing the collision policy's
    same-trace write visibility.  Kernels hold no data, so one kernel
    serves any memory contents and any write values.
    """

    __slots__ = ("n", "reads", "w_slots", "forwards")

    def __init__(self, n, reads, w_slots, forwards):
        self.n = n
        self.reads = reads
        self.w_slots = w_slots
        self.forwards = forwards


#: the dense last-writer table of :func:`derive_kernel` is used when the
#: memory has at most this many bank slots *and* the trace writes no slot
#: twice; beyond it (or with repeated slots) the derivation falls back to
#: the event-sort resolution
DENSE_SLOT_LIMIT = 1 << 21


def _dense_last_writer(w_slots: np.ndarray, total_slots: int):
    """The per-slot write-event table of a trace, or ``None``.

    Entry ``s`` is the flat index ``t * lanes + lane`` of the write event
    that targets slot ``s``; slots no event writes hold ``w_slots.size``
    ("written after every cycle").  ``None`` when the memory is too large
    for the table or a slot is written twice."""
    events = w_slots.size
    if not events <= total_slots <= DENSE_SLOT_LIMIT:
        return None
    last = np.full(total_slots, events, dtype=np.int32)
    last[w_slots.ravel()] = np.arange(events, dtype=np.int32)
    if int(np.count_nonzero(last != events)) != events:
        return None  # a slot is written twice: event-sort path
    return last


def derive_kernel(reads, write, pm) -> "TraceKernel | int":
    """Derive the :class:`TraceKernel` of a non-empty trace on *pm*, or
    the index of its first bad cycle.

    *reads* maps read ports (in range) to :class:`_Stream`\\ s, *write* is
    the write :class:`_Stream` or ``None``; its ``values`` may be ``None``
    when the data only arrives at run time, which leaves the lane-width
    check to the caller.  A cycle is bad when one of its accesses is out of
    range or in conflict, when the write data has the wrong lane width
    (cycle 0, where ``step()`` raises it), or when a read hits the same
    cycle's write under the ``forbid`` policy.

    A read at cycle *t* observes the latest write to its slot before *t*
    (read-before-write port semantics), or at *t* too under
    ``write_first``.  When no slot is written twice and the memory is
    small enough, a dense per-slot table of write events answers that with
    one gather and a compare (write event ``e`` happens at cycle
    ``e // lanes``).  Otherwise write events are sorted by the key
    ``slot * (n + 1) + t`` — unique, because one valid cycle's write slots
    are distinct — and each read binary-searches its predecessor.  Both
    resolutions yield the same forwarding pairs.
    """
    n = next(iter(reads.values())).n if reads else write.n
    bad = np.zeros(n, dtype=bool)
    slots = {}
    for port, stream in reads.items():
        slots[port], valid = stream.tables(pm.plan)
        bad |= ~valid
    forwards = {}
    w_slots = None
    if write is not None:
        w_slots, valid = write.tables(pm.plan)
        bad |= ~valid
        if write.values is not None and write.values.shape[1] != pm.lanes:
            bad[0] = True
        t_col = np.arange(n, dtype=np.int64)[:, None]
        # invalid cycles expand to out-of-range slot ids the dense table
        # cannot index; the event keys tolerate them
        last = None
        if not bad.any():
            last = _dense_last_writer(w_slots, pm.lanes * pm.banks.bank_depth)
        if last is None:
            kw = (w_slots * (n + 1) + t_col).ravel()
            w_order = np.argsort(kw)
            kw_sorted = kw[w_order]
        lanes = w_slots.shape[1]
        if pm.collision_policy == "forbid":
            for r_slots in slots.values():
                if last is not None:
                    seen = last[r_slots]
                    hit = (seen >= t_col * lanes) & (seen < (t_col + 1) * lanes)
                else:
                    kr = r_slots * (n + 1) + t_col
                    pos = np.searchsorted(kw_sorted, kr)
                    hit = kw_sorted[np.minimum(pos, kw_sorted.size - 1)] == kr
                bad |= hit.any(axis=1)
        if not bad.any():
            bound = t_col + 1 if pm.collision_policy == "write_first" else t_col
            for port, r_slots in slots.items():
                if last is not None:
                    seen = last[r_slots]
                    hit = (seen < bound * lanes).ravel()
                    source = seen.ravel()
                else:
                    kr = (r_slots * (n + 1) + bound).ravel()
                    pos = np.searchsorted(kw_sorted, kr) - 1
                    clipped = np.maximum(pos, 0)
                    hit = (pos >= 0) & (
                        kw_sorted[clipped] // (n + 1) == r_slots.ravel()
                    )
                    source = w_order[clipped]
                if hit.any():
                    forwards[port] = (
                        np.flatnonzero(hit), source[hit].astype(np.intp, copy=False)
                    )
            w_slots = w_slots.ravel()
    if bad.any():
        return int(np.flatnonzero(bad)[0])
    return TraceKernel(n, slots, w_slots, forwards)


def charge_trace(pm, n, ports, has_write, cycle_counter) -> None:
    """Charge *n* cycles of a trace on *ports* (plus the write port when
    *has_write*) to *pm*'s counters, exactly as *n* ``step()`` calls would;
    *cycle_counter* names the telemetry counter the cycles land in."""
    for port in ports:
        pm.read_stats[port].accesses += n
        pm.read_stats[port].elements += n * pm.lanes
    if has_write:
        pm.write_stats.accesses += n
        pm.write_stats.elements += n * pm.lanes
    pm.cycles += n
    tel = _telemetry.active()
    if tel is not None:
        m = tel.metrics
        m.counter(cycle_counter).inc(n)
        m.counter("polymem.parallel_accesses").inc(n * (len(ports) + has_write))


def run_kernel(
    pm, kernel: TraceKernel, values=None, cycle_counter="polymem.cycles.replay"
) -> dict:
    """Execute *kernel* on *pm*: gather every read port, forward same-trace
    writes, scatter the ``(n, lanes)`` write *values*, then charge the
    cycles.  Returns ``{port: (n, lanes) results}``."""
    tel = _telemetry.active()
    flat_values = None if values is None else np.asarray(values).ravel()
    results = {}
    for port, r_slots in kernel.reads.items():
        result = pm.banks.read_slots(port, r_slots)
        fwd = kernel.forwards.get(port)
        if fwd is not None:
            result.reshape(-1)[fwd[0]] = flat_values[fwd[1]]
            if tel is not None:
                tel.metrics.counter("polymem.collision.forwarded").inc(int(fwd[0].size))
        results[port] = result
    if kernel.w_slots is not None:
        pm.banks.write_slots(kernel.w_slots, flat_values)
    charge_trace(pm, kernel.n, kernel.reads, kernel.w_slots is not None, cycle_counter)
    return results


class AccessTrace:
    """A trace of parallel accesses for :meth:`PolyMem.replay`.

    One trace describes ``n`` consecutive cycles; each added stream issues
    exactly one access per cycle on its port (reads) or on the write port.
    Replay is bit-identical to issuing cycle ``t``'s accesses with one
    ``step()`` call per cycle, reads in the order the streams were added.

    >>> import numpy as np
    >>> t = AccessTrace().read("row", np.arange(4), np.zeros(4, int))
    >>> t.n
    4
    """

    def __init__(self):
        self._reads: dict[int, _Stream] = {}
        self._write: _Stream | None = None

    # -- construction ------------------------------------------------------
    def _check_length(self, stream: _Stream) -> None:
        if (self._reads or self._write is not None) and stream.n != self.n:
            raise PatternError(
                f"trace streams must share one length: trace has {self.n} "
                f"cycles, new stream has {stream.n}"
            )

    def read(self, kind, anchors_i, anchors_j, port: int = 0, stride: int = 1):
        """Add a read stream on *port*; *kind* is one shape or a per-cycle
        sequence of shapes.  Returns the trace (chainable)."""
        if port in self._reads:
            raise PortError(f"trace already has a read stream on port {port}")
        stream = _Stream(kind, anchors_i, anchors_j, stride)
        self._check_length(stream)
        self._reads[port] = stream
        return self

    def write(self, kind, anchors_i, anchors_j, values, stride: int = 1):
        """Add the write stream; *values* is the ``(n, lanes)`` data."""
        if self._write is not None:
            raise PortError("trace already has a write stream")
        values = np.asarray(values)
        stream = _Stream(kind, anchors_i, anchors_j, stride, values)
        if values.ndim != 2 or values.shape[0] != stream.n:
            raise PatternError(
                f"write values must be (n, lanes) = ({stream.n}, ...), "
                f"got shape {values.shape}"
            )
        self._check_length(stream)
        self._write = stream
        return self

    # -- introspection -----------------------------------------------------
    @property
    def n(self) -> int:
        """Trace length in cycles."""
        for stream in self._reads.values():
            return stream.n
        return self._write.n if self._write is not None else 0

    @property
    def read_ports(self) -> tuple[int, ...]:
        return tuple(self._reads)

    @property
    def has_write(self) -> bool:
        return self._write is not None

    # -- replay plumbing (used by PolyMem.replay) --------------------------
    def prefix(self, stop: int) -> "AccessTrace":
        """The first *stop* cycles as a new trace."""
        out = AccessTrace()
        for port, stream in self._reads.items():
            out._reads[port] = stream.sliced(stop)
        if self._write is not None:
            out._write = self._write.sliced(stop)
        return out

    def cycle_args(self, t: int):
        """Cycle *t* as ``step()`` arguments: ``(reads, write)``."""
        from .agu import AccessRequest

        reads = [
            (
                port,
                AccessRequest(
                    s.kind_at(t), int(s.anchors_i[t]), int(s.anchors_j[t]), s.stride
                ),
            )
            for port, s in self._reads.items()
        ]
        write = None
        if self._write is not None:
            s = self._write
            write = (
                AccessRequest(
                    s.kind_at(t), int(s.anchors_i[t]), int(s.anchors_j[t]), s.stride
                ),
                s.values[t],
            )
        return reads, write
