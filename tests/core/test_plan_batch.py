"""Tests for compiling many access-plan families through ``compile_plan``.

Plans split into a memoized residue core (bank, conflict and
inverse-permutation tables, shared by every geometry of one
``(p, q, scheme, kind, stride)``) and per-geometry address tables.  The
split must reproduce the monolithic derivation exactly (every table,
every dtype), share the core's read-only arrays across sibling
geometries, and keep the process-wide LRU's miss accounting exact.
"""

import numpy as np
import pytest

from repro.core.conflict import is_conflict_free
from repro.core.patterns import PatternKind, pattern_offsets
from repro.core.plan import compile_plan, plan_cache_stats
from repro.core.schemes import Scheme, flat_module_assignment

# geometries obscure enough that only this module compiles them
GEOMETRIES = [(48, 96), (96, 48), (144, 96)]
GRIDS = [(2, 4), (4, 2)]
KINDS = [PatternKind.RECTANGLE, PatternKind.ROW, PatternKind.COLUMN]


def _keys():
    return [
        (rows, cols, p, q, scheme, kind, 1)
        for rows, cols in GEOMETRIES
        for p, q in GRIDS
        for scheme in Scheme
        for kind in KINDS
    ]


def _reference_tables(rows, cols, p, q, scheme, kind, stride):
    """Every array field of one family, derived in one piece from the
    MAF and the addressing function (no shared core)."""
    di, dj = pattern_offsets(kind, p, q, stride)
    period = p * q
    res = np.arange(period, dtype=np.int64)
    ii = res[:, None, None] + di[None, None, :]
    jj = res[None, :, None] + dj[None, None, :]
    bank_table = np.broadcast_to(
        flat_module_assignment(scheme, ii, jj, p, q), (period, period, p * q)
    ).astype(np.int16)
    sorted_b = np.sort(bank_table, axis=-1)
    ok = ~(sorted_b[..., 1:] == sorted_b[..., :-1]).any(axis=-1)
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
    return {
        "di": di, "dj": dj, "bank_table": bank_table,
        "lane_of_bank": lane_of_bank, "ok": ok, "addr_delta": addr_delta,
        "slot_delta": slot_delta,
    }


class TestCompilePlanBatch:
    def test_bit_identical_to_scalar(self):
        for key in _keys():
            plan = compile_plan(*key)
            rows, cols, p, q, scheme, kind, stride = key
            assert (plan.rows, plan.cols, plan.p, plan.q) == (rows, cols, p, q)
            assert (plan.scheme, plan.kind, plan.stride) == (scheme, kind, stride)
            assert plan.period == p * q
            assert plan.blocks_per_row == cols // q
            assert plan.bank_depth == (rows // p) * (cols // q)
            assert (plan.i_lo, plan.i_hi) == (
                -plan.di.min(), rows - 1 - plan.di.max()
            )
            assert (plan.j_lo, plan.j_hi) == (
                -plan.dj.min(), cols - 1 - plan.dj.max()
            )
            for f, want in _reference_tables(*key).items():
                got = getattr(plan, f)
                assert got.dtype == want.dtype, (key, f)
                assert got.shape == want.shape, (key, f)
                assert (got == want).all(), (key, f)

    def test_sibling_geometries_share_residue_tables(self):
        for p, q in GRIDS:
            for scheme in Scheme:
                for kind in KINDS:
                    plans = [
                        compile_plan(rows, cols, p, q, scheme, kind, 1)
                        for rows, cols in GEOMETRIES
                    ]
                    first = plans[0]
                    for plan in plans[1:]:
                        assert plan.bank_table is first.bank_table
                        assert plan.ok is first.ok
                        assert plan.lane_of_bank is first.lane_of_bank
                        # the address tables are the geometry's own
                        assert plan.slot_delta is not first.slot_delta

    def test_miss_accounting_counts_each_family_once(self):
        fresh = [
            (160, 96, 2, 4, scheme, kind, 1)
            for scheme in (Scheme.ReO, Scheme.RoCo)
            for kind in KINDS
        ]
        before = plan_cache_stats()["misses"]
        for key in fresh:
            compile_plan(*key)
        after_first = plan_cache_stats()["misses"]
        assert after_first - before == len(fresh)
        # re-requests are pure hits now
        for key in fresh:
            compile_plan(*key)
        assert plan_cache_stats()["misses"] == after_first

    def test_tables_are_readonly(self):
        plan = compile_plan(96, 48, 4, 2, Scheme.ReTr, PatternKind.COLUMN, 1)
        for f in ("bank_table", "lane_of_bank", "ok", "addr_delta", "slot_delta"):
            with pytest.raises(ValueError):
                getattr(plan, f)[0] = 0

    def test_conflict_semantics_match(self, rng):
        """Spot-check the behavioural surface against the scalar conflict
        analysis, not just the tables."""
        ai = rng.integers(0, 48, size=16)
        aj = rng.integers(0, 48, size=16)
        for key in _keys()[::5]:
            rows, cols, p, q, scheme, kind, stride = key
            plan = compile_plan(*key)
            ok = plan.ok_mask(ai, aj)
            for b in range(ai.size):
                i, j = int(ai[b]), int(aj[b])
                assert ok[b] == is_conflict_free(scheme, kind, i, j, p, q), (key, i, j)
            fits = plan.fits_mask(ai, aj)
            for b in range(ai.size):
                ii = int(ai[b]) + plan.di
                jj = int(aj[b]) + plan.dj
                inside = bool(
                    (ii >= 0).all() and (ii < rows).all()
                    and (jj >= 0).all() and (jj < cols).all()
                )
                assert fits[b] == inside, key
