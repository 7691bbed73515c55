"""The fused MAX-PolyMem kernel: the whole Fig. 3 design in one kernel.

The paper built two variants of MAX-PolyMem (§III-C): a modular multi-kernel
design and a fused single-kernel design (which halves resource usage).
:class:`FusedPolyMemKernel` is the fused variant — a single dataflow kernel
that accepts one write command and one read command per port per cycle and
produces read data after a fixed pipeline latency (the paper measures 14
cycles for the synthesized STREAM design).

Stream protocol
---------------
* ``wr_cmd``  — elements are :class:`WriteCommand` (request + lane data).
* ``rd_cmd{r}`` — per read port, elements are
  :class:`~repro.core.agu.AccessRequest`.
* ``rd_out{r}`` — per read port, lane-ordered result vectors, emerging
  ``read_latency`` cycles after the command entered.

Command streams may be typed: :data:`READ_COMMANDS` and
:func:`write_commands` store a command as one structured record (kind,
i, j and stride columns, plus the lane payload for writes), and
:func:`command_block` builds a block of them for the batched engine.  A
scalar pop of a typed command stream still yields the element objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.agu import AccessRequest
from ..core.config import PolyMemConfig
from ..core.exceptions import SimulationError
from ..core.patterns import PatternKind
from ..core.polymem import PolyMem
from ..maxeler.batch import IDLE_PLAN, BatchOp, BatchPlan
from ..maxeler.kernel import Kernel
from ..maxeler.stream import Layout, Stream
from ..program import AccessProgram, slot_disjoint

__all__ = [
    "WriteCommand",
    "FusedPolyMemKernel",
    "DEFAULT_READ_LATENCY",
    "READ_COMMANDS",
    "write_commands",
    "command_block",
]

#: pipeline depth of the synthesized design, estimated by Maxeler's tools
#: for the paper's STREAM experiment (§V)
DEFAULT_READ_LATENCY = 14


def _bound(current: int | None, new: int) -> int:
    return new if current is None else min(current, new)


@dataclass(frozen=True)
class WriteCommand:
    """One parallel write: the (i, j, AccType, DataIn) signal bundle."""

    request: AccessRequest
    values: np.ndarray


# -- typed command streams ---------------------------------------------------

_KINDS = tuple(PatternKind)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_COMMAND_FIELDS = [
    ("kind", np.uint8),
    ("i", np.int64),
    ("j", np.int64),
    ("stride", np.int64),
]


def _encode_read(req: AccessRequest) -> tuple:
    return (_KIND_CODE[req.kind], req.i, req.j, req.stride)


def _decode_request(row) -> AccessRequest:
    kind, i, j, stride = row.item()
    return AccessRequest(_KINDS[kind], i, j, stride)


#: read-command streams: one (kind, i, j, stride) record per command
READ_COMMANDS = Layout(
    "read_cmd", np.dtype(_COMMAND_FIELDS), _encode_read, _decode_request
)


def _encode_write(cmd: WriteCommand) -> tuple:
    return _encode_read(cmd.request) + (cmd.values,)


def _decode_write(row) -> WriteCommand:
    # .item() yields the payload as a view of the ring slot: copy it
    kind, i, j, stride, values = row.item()
    return WriteCommand(AccessRequest(_KINDS[kind], i, j, stride), values.copy())


@lru_cache(maxsize=None)
def write_commands(lanes: int) -> Layout:
    """Write-command streams: a command record plus its ``(lanes,)``
    uint64 payload."""
    dtype = np.dtype(_COMMAND_FIELDS + [("values", np.uint64, (lanes,))])
    return Layout(f"write_cmd{lanes}", dtype, _encode_write, _decode_write)


def command_block(kind: PatternKind, ai, aj, values=None) -> np.ndarray:
    """A block of unit-stride *kind* commands anchored at ``(ai, aj)``:
    read records, or write records when *values* (``(n, lanes)``) is
    given."""
    if values is None:
        block = np.empty(len(ai), READ_COMMANDS.dtype)
    else:
        block = np.empty(len(ai), write_commands(values.shape[1]).dtype)
        block["values"] = values
    block["kind"] = _KIND_CODE[kind]
    block["i"] = ai
    block["j"] = aj
    block["stride"] = 1
    return block


def _block_access(block: np.ndarray):
    """``(kind, ai, aj)`` of a command block popped by a batched accept:
    the batched memory path runs one unit-stride kind per block."""
    kinds = block["kind"]
    if (kinds != kinds[0]).any() or (block["stride"] != 1).any():
        raise SimulationError("batched command block mixes access kinds or strides")
    return _KINDS[kinds[0]], block["i"], block["j"]


def _pipe_decode(row) -> tuple[int, np.ndarray]:
    stamp, data = row.item()
    return stamp, data.copy()


@lru_cache(maxsize=None)
def _pipe_layout(lanes: int, word: np.dtype) -> Layout:
    """A read pipeline slot: issue cycle plus the ``(lanes,)`` result."""
    dtype = np.dtype([("stamp", np.int64), ("data", word, (lanes,))])
    return Layout(f"pipe{lanes}", dtype, decode=_pipe_decode)


class FusedPolyMemKernel(Kernel):
    """Single-kernel MAX-PolyMem with pipelined reads.

    Per tick it consumes at most one ``wr_cmd`` and one ``rd_cmd{r}`` per
    read port — the paper's "one write access and one read access for each
    read port ... independently at the same time".
    """

    def __init__(
        self,
        name: str,
        config: PolyMemConfig,
        read_latency: int = DEFAULT_READ_LATENCY,
        collision_policy: str = "read_first",
    ):
        super().__init__(name)
        self.config = config
        self.memory = PolyMem(config, collision_policy=collision_policy)
        self.read_latency = read_latency
        self._now = 0
        # per-port in-flight pipelines: rings of (issue_cycle, result) rows
        pipe = _pipe_layout(config.lanes, self.memory.banks.dtype)
        self._pipes = [
            Stream(f"{name}.pipe{port}", read_latency, pipe)
            for port in range(config.read_ports)
        ]
        # batched-chunk scratch: per-port results accepted this chunk,
        # per-chunk claims, and the accesses per cycle the chunk plans
        self._accepted: dict[int, np.ndarray] = {}
        self._rd_claims: dict[int, object] = {}
        self._wr_claim = None
        self._planned_accesses = 0

    def _tick(self) -> bool:
        self._now += 1
        # an occupied read pipeline advances every cycle — that is progress,
        # or the simulator would flag the latency wait as a deadlock
        progressed = any(self._pipes)
        # 1) retire pipelined reads whose latency elapsed
        for port, pipe in enumerate(self._pipes):
            out = self.outputs.get(f"rd_out{port}")
            if (
                pipe
                and out is not None
                and pipe.peek()[0] + self.read_latency <= self._now
                and out.can_push()
            ):
                out.push(pipe.pop()[1])
                progressed = True
        # 2) accept one command per port; reads and the write share a cycle
        reads: list[tuple[int, AccessRequest]] = []
        for port in range(self.config.read_ports):
            cmd = self.inputs.get(f"rd_cmd{port}")
            if (
                cmd is not None
                and cmd.can_pop()
                and len(self._pipes[port]) < self.read_latency
            ):
                reads.append((port, cmd.peek()))
        write = None
        wr = self.inputs.get("wr_cmd")
        if wr is not None and wr.can_pop():
            write = wr.peek()
        if reads or write is not None:
            results = self.memory.step(
                reads=reads,
                write=(write.request, write.values) if write else None,
            )
            for port, _ in reads:
                self.inputs[f"rd_cmd{port}"].pop()
                self._pipes[port].push((self._now, results[port]))
            if write is not None:
                wr.pop()
            progressed = True
        return progressed

    @property
    def idle(self) -> bool:
        return all(not pipe for pipe in self._pipes)

    @property
    def cycles(self) -> int:
        """Parallel-access cycles consumed by the underlying memory."""
        return self.memory.cycles

    # -- batched execution --------------------------------------------------
    #
    # The chunked sub-activities below reproduce `_tick`'s per-cycle
    # behaviour exactly, under the uniformity conditions `batch_plan`
    # checks: every accepted command stream delivers one command per cycle
    # (claimed by the upstream plan), every streaming pipe is full with
    # consecutive stamps and an exactly-ripe head, and the chunk's reads
    # and writes touch disjoint memory slots (so read-before-write
    # ordering inside the chunk is unobservable and all collision
    # policies coincide).  Commands, results and pipes move as blocks.

    def _read_rows(self, port: int, n: int) -> np.ndarray:
        """Accept n read commands on *port* and execute them vectorized
        against the pre-chunk memory state: the ``(n, lanes)`` results."""
        kind, ai, aj = _block_access(self.inputs[f"rd_cmd{port}"].pop_many(n))
        return self.memory.read_batch(kind, ai, aj, port=port, check=True)

    def _stamped(self, first: int, data: np.ndarray) -> np.ndarray:
        """Pipe rows for *data* with consecutive stamps from *first*."""
        block = np.empty(len(data), self._pipes[0].layout.dtype)
        block["stamp"] = first + np.arange(len(data))
        block["data"] = data
        return block

    def _accept_fill(self, port: int):
        # pipe filling: n commands enter behind the queued ones, nothing
        # ripens inside the window
        def run(n: int) -> None:
            rows = self._read_rows(port, n)
            self._pipes[port].push_many(self._stamped(self._now + 1, rows))

        return run

    def _accept_steady(self, port: int):
        def run(n: int) -> None:
            self._accepted[port] = self._read_rows(port, n)

        return run

    def _retire_steady(self, port: int):
        # full pipe + accepted results have consecutive stamps: n cycles
        # retire the first n, keep the last `read_latency`
        def run(n: int) -> None:
            pipe = self._pipes[port]
            values = np.concatenate(
                (pipe.pop_many(len(pipe))["data"], self._accepted.pop(port))
            )
            self.outputs[f"rd_out{port}"].push_many(values[:n])
            first = self._now + 1 - self.read_latency
            pipe.push_many(self._stamped(first + n, values[n:]))

        return run

    def _retire_drain(self, port: int):
        def run(n: int) -> None:
            rows = self._pipes[port].pop_many(n)["data"]
            self.outputs[f"rd_out{port}"].push_many(rows)

        return run

    def _accept_write(self, n: int) -> None:
        block = self.inputs["wr_cmd"].pop_many(n)
        kind, ai, aj = _block_access(block)
        self.memory.write_batch(kind, ai, aj, block["values"], check=True)

    def _advance(self, n: int) -> None:
        """Last sub-activity of every chunk: advance local time and undo
        the per-call cycle counting of read_batch/write_batch so
        ``memory.cycles`` matches the scalar path (one `step` per cycle,
        however many ports it served)."""
        self._now += n
        extra = self._planned_accesses - 1
        if extra > 0:
            self.memory.cycles -= extra * n

    def _ripe_prefix(self, port: int) -> int:
        """Length of the pipe prefix retiring one element per cycle from
        the next tick on (consecutive stamps from an exactly-ripe head)."""
        stamps = self._pipes[port].peek_many()["stamp"]
        head = int(stamps[0])
        if head + self.read_latency != self._now + 1:
            return 0
        gaps = np.flatnonzero(stamps != head + np.arange(len(stamps)))
        return int(gaps[0]) if len(gaps) else len(stamps)

    def batch_plan(self, ctx: dict) -> BatchPlan | None:
        latency = self.read_latency
        ops: list[BatchOp] = []
        write_ops: list[BatchOp] = []
        sensitive: list[str] = []
        cycles: int | None = None
        self._rd_claims = {}
        self._wr_claim = None
        engaged = any(self._pipes)

        for port in range(self.config.read_ports):
            cmd_name = f"rd_cmd{port}"
            cmd_s = self.inputs.get(cmd_name)
            out_s = self.outputs.get(f"rd_out{port}")
            pipe = self._pipes[port]
            claim = ctx.get(cmd_s) if cmd_s is not None else None
            if claim is not None:
                if out_s is None or len(cmd_s) > 0:
                    return None  # command backlog: irregular, keep scalar
                if (
                    getattr(claim, "anchors", None) is None
                    or cmd_s.layout is not READ_COMMANDS
                ):
                    return None  # untyped producer: cannot prove the chunk
                self._rd_claims[port] = claim
                if len(pipe) < latency:
                    # filling: accept while the pipe has room and its
                    # head has not ripened
                    room = latency - len(pipe)
                    if pipe:
                        room = min(room, pipe.peek()[0] + latency - self._now - 1)
                    if room < 1:
                        return None
                    ops.append(
                        BatchOp(
                            f"accept{port}",
                            self._accept_fill(port),
                            pops=(cmd_name,),
                        )
                    )
                    cycles = _bound(cycles, room)
                elif self._ripe_prefix(port) == latency:
                    ops.append(
                        BatchOp(
                            f"accept{port}",
                            self._accept_steady(port),
                            pops=(cmd_name,),
                        )
                    )
                    ops.append(
                        BatchOp(
                            f"retire{port}",
                            self._retire_steady(port),
                            pushes=(f"rd_out{port}",),
                        )
                    )
                else:
                    return None  # partially-filled or stalled pipe
            else:
                if cmd_s is not None:
                    if len(cmd_s) > 0:
                        return None  # queued commands: scalar accepts them
                    sensitive.append(cmd_name)
                if pipe:
                    if out_s is None:
                        return None
                    prefix = self._ripe_prefix(port)
                    if prefix:
                        ops.append(
                            BatchOp(
                                f"retire{port}",
                                self._retire_drain(port),
                                pushes=(f"rd_out{port}",),
                            )
                        )
                        cycles = _bound(cycles, prefix)
                    else:
                        wait = pipe.peek()[0] + latency - self._now - 1
                        if wait < 1:
                            return None  # overdue head (stalled): scalar
                        cycles = _bound(cycles, wait)

        wr_s = self.inputs.get("wr_cmd")
        wr_claim = ctx.get(wr_s) if wr_s is not None else None
        if wr_claim is not None:
            if len(wr_s) > 0:
                return None
            if (
                getattr(wr_claim, "anchors", None) is None
                or wr_s.layout is not write_commands(self.config.lanes)
            ):
                return None
            self._wr_claim = wr_claim
            write_ops.append(
                BatchOp("accept_wr", self._accept_write, pops=("wr_cmd",))
            )
        elif wr_s is not None:
            if len(wr_s) > 0:
                return None
            sensitive.append("wr_cmd")

        if not ops and not write_ops and cycles is None:
            if engaged:
                return None
            if not sensitive:
                return IDLE_PLAN
            return BatchPlan(sensitive=tuple(sensitive))
        # reads run before the write (the intra-kernel chain), pinning the
        # read-before-write semantics the slot-disjointness proof assumes;
        # `advance` runs last to move local time once per chunk
        ops.extend(write_ops)
        self._planned_accesses = len(self._rd_claims) + len(write_ops)
        ops.append(BatchOp("advance", self._advance))
        return BatchPlan(
            cycles=cycles,
            ops=ops,
            sensitive=tuple(sensitive),
            active=True,
            validate=self._validate_chunk,
        )

    def _chunk_program(self, n: int) -> AccessProgram:
        """The chunk's claimed accesses as a describe-only program."""
        prog = AccessProgram(f"{self.name}.chunk")
        for port, claim in self._rd_claims.items():
            kind, ai, aj = claim.anchors(n)
            prog.read(kind, ai, aj, port=port)
        if self._wr_claim is not None:
            kind, ai, aj = self._wr_claim.anchors(n)
            prog.write(kind, ai, aj)
        return prog

    def _validate_chunk(self, n: int) -> bool:
        """Prove slot disjointness for the chunk's accesses.

        Lowers the chunk's claims to a describe-only
        :class:`AccessProgram` and delegates to
        :func:`repro.program.slot_disjoint` — the write slots marked in
        one boolean map, each read claim probed against it, slot ids
        straight from the compiled access plans.
        """
        if self._wr_claim is None:
            return True
        return slot_disjoint(self._chunk_program(n), self.memory)
