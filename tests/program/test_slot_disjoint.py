"""The batched engine's chunk proof: ``slot_disjoint``."""

import numpy as np

from repro.core.config import PolyMemConfig
from repro.core.patterns import PatternKind
from repro.core.polymem import PolyMem
from repro.core.schemes import Scheme
from repro.program import AccessProgram, ParallelWrite, op_slots, slot_disjoint

ROW = PatternKind.ROW
RECT = PatternKind.RECTANGLE


def _memory():
    cfg = PolyMemConfig(
        32 * 64 * 8, p=2, q=4, scheme=Scheme.RoCo, read_ports=2, rows=32, cols=64
    )
    return PolyMem(cfg)


def _reference(program, mem):
    """Set-based statement of the proof."""
    written, reads = [], set()
    for op in program.access_ops:
        slots = op_slots(op, mem).ravel().tolist()
        if isinstance(op, ParallelWrite):
            written.extend(slots)
        else:
            reads.update(slots)
    return len(set(written)) == len(written) and not reads & set(written)


def _rows(i):
    i = np.asarray(i, dtype=np.int64)
    return i, np.zeros_like(i)


class TestSlotDisjoint:
    def test_disjoint_bands(self):
        mem = _memory()
        prog = AccessProgram("p").read(ROW, *_rows(range(8)), port=0)
        prog.read(ROW, *_rows(range(8, 16)), port=1, fuse=True)
        prog.write(ROW, *_rows(range(16, 24)))
        assert slot_disjoint(prog, mem)

    def test_read_of_written_slot(self):
        mem = _memory()
        prog = AccessProgram("p").read(ROW, *_rows([0, 5, 9]))
        prog.write(ROW, *_rows([20, 9, 30]))
        assert not slot_disjoint(prog, mem)

    def test_overlapping_writes(self):
        mem = _memory()
        # two rectangles sharing their lower-right 1x2 corner
        prog = AccessProgram("p").write(RECT, np.array([0, 1]), np.array([0, 2]))
        assert not slot_disjoint(prog, mem)
        prog = AccessProgram("p").write(RECT, np.array([0, 2]), np.array([0, 0]))
        assert slot_disjoint(prog, mem)

    def test_reads_only(self):
        mem = _memory()
        prog = AccessProgram("p").read(ROW, *_rows([3, 3, 3]))
        assert slot_disjoint(prog, mem)

    def test_memories_have_separate_slots(self):
        a, b = _memory(), _memory()
        prog = AccessProgram("p").read(ROW, *_rows([4]), mem="b")
        prog.write(ROW, *_rows([4]), mem="a")
        assert slot_disjoint(prog, {"a": a, "b": b})
        # one memory under two names shares its slots
        assert not slot_disjoint(prog, {"a": a, "b": a})

    def test_matches_set_reference(self):
        mem = _memory()
        # aligned 2x4 rectangles tile the 32x64 space: 256 distinct tiles
        tiles_i, tiles_j = np.divmod(np.arange(256), 16)
        outcomes = []
        for seed in range(24):
            rng = np.random.default_rng(seed)
            w = rng.choice(256, int(rng.integers(1, 12)), replace=seed % 3 == 0)
            r = rng.choice(256, int(rng.integers(1, 12)))
            prog = AccessProgram("p").read(RECT, tiles_i[r] * 2, tiles_j[r] * 4)
            prog.write(RECT, tiles_i[w] * 2, tiles_j[w] * 4)
            want = _reference(prog, mem)
            assert slot_disjoint(prog, mem) == want, seed
            outcomes.append(want)
        assert any(outcomes) and not all(outcomes)
