"""One-shot reproduction report: every paper number vs this repository.

``python -m repro experiments`` regenerates the quantitative core of
EXPERIMENTS.md at runtime — Table I through Fig. 10 — and prints a
paper-vs-measured scorecard with pass/fail marks.  The benches under
``benchmarks/`` assert the same claims; this module is the human-readable
single entry point.

The scorecard routes its grid work (the Table III sweep, the §IV-A
validation cycles) through :mod:`repro.exec`, so ``--workers`` fans it out
over processes and a warm cache makes re-runs skip straight to the
answers.  The printed table is a renderer over the unified
:class:`repro.exec.Report` JSON schema (``--json`` emits it raw).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .exec import Report, ReportEntry, ResultCache, rel_error

__all__ = [
    "ExperimentRow",
    "Scorecard",
    "run_all",
    "run_scorecard",
    "scorecard_report",
    "render_report",
]


@dataclass(frozen=True)
class ExperimentRow:
    """One scorecard line."""

    experiment: str
    quantity: str
    paper: str
    measured: str
    ok: bool
    #: numeric values behind the display strings, when the quantity is a
    #: single number (lets the JSON schema carry a relative error)
    paper_value: float | None = None
    measured_value: float | None = None


def _table1_rows() -> list[ExperimentRow]:
    from .core.conflict import ConflictAnalyzer
    from .core.patterns import PatternKind
    from .core.schemes import Scheme

    expected = {
        Scheme.ReO: {PatternKind.RECTANGLE},
        Scheme.ReRo: {
            PatternKind.RECTANGLE,
            PatternKind.ROW,
            PatternKind.MAIN_DIAGONAL,
            PatternKind.ANTI_DIAGONAL,
        },
        Scheme.ReCo: {
            PatternKind.RECTANGLE,
            PatternKind.COLUMN,
            PatternKind.MAIN_DIAGONAL,
            PatternKind.ANTI_DIAGONAL,
        },
        Scheme.RoCo: {
            PatternKind.ROW,
            PatternKind.COLUMN,
            PatternKind.RECTANGLE,
        },
        Scheme.ReTr: {
            PatternKind.RECTANGLE,
            PatternKind.TRANSPOSED_RECTANGLE,
        },
    }
    table = ConflictAnalyzer(2, 4).table()
    rows = []
    for scheme, patterns in expected.items():
        got = {k for k, d in table[scheme].items() if d.label != "none"}
        ok = patterns <= got
        rows.append(
            ExperimentRow(
                "Table I",
                f"{scheme.value} patterns",
                ", ".join(sorted(p.value for p in patterns)),
                ", ".join(sorted(p.value for p in got)),
                ok,
            )
        )
    return rows


def _table4_rows() -> list[ExperimentRow]:
    from .hw.synthesis import default_model

    stats = default_model().freq_fit_stats
    return [
        ExperimentRow(
            "Table IV",
            "frequency model fit (90 cells)",
            "published MHz table",
            f"R^2={stats['r2']:.3f}, mean |err|={stats['mean_abs_pct_err']:.1f}%",
            stats["r2"] > 0.8,
            measured_value=stats["r2"],
        )
    ]


def _bandwidth_rows(result) -> list[ExperimentRow]:
    best_w = result.best(lambda p: p.bandwidth.write_gbps)
    best_r = result.best(lambda p: p.bandwidth.read_gbps)
    return [
        ExperimentRow(
            "Fig. 4",
            "peak write bandwidth",
            ">22 GB/s @ 512KB/16L ReO",
            f"{result.peak_write_gbps:.1f} GB/s @ {best_w.config.label()}",
            result.peak_write_gbps > 22 and best_w.capacity_kb == 512,
            paper_value=22.0,
            measured_value=result.peak_write_gbps,
        ),
        ExperimentRow(
            "Fig. 5",
            "peak aggregated read bandwidth",
            "~32 GB/s @ 512KB/8L/4P ReTr",
            f"{result.peak_read_gbps:.1f} GB/s @ {best_r.config.label()}",
            result.peak_read_gbps > 32
            and best_r.config.read_ports == 4
            and best_r.config.scheme.value == "ReTr",
            paper_value=32.0,
            measured_value=result.peak_read_gbps,
        ),
    ]


def _utilization_rows(result) -> list[ExperimentRow]:
    from .hw.calibration import BRAM_POINTS, LOGIC_POINTS

    rows = []
    logic = [result.lookup(p.scheme, p.capacity_kb, p.lanes, p.read_ports)
             for p in LOGIC_POINTS]
    worst_logic = max(
        abs(pt.logic_pct - ref.percent)
        for pt, ref in zip(logic, LOGIC_POINTS)
    )
    rows.append(
        ExperimentRow(
            "Fig. 6",
            "logic % on the 5 published points",
            "10.58 / 10.78 / 13.05 / 22.34 / 23.73",
            f"max |err| = {worst_logic:.2f} pp",
            worst_logic < 0.5,
            measured_value=worst_logic,
        )
    )
    luts = [p.lut_pct for p in result.points]
    rows.append(
        ExperimentRow(
            "Fig. 7",
            "LUT % range over the grid",
            "7% .. 28%",
            f"{min(luts):.1f}% .. {max(luts):.1f}%",
            min(luts) > 6 and max(luts) < 28,
        )
    )
    brams = [result.lookup(p.scheme, p.capacity_kb, p.lanes, p.read_ports)
             for p in BRAM_POINTS]
    worst_bram = max(
        abs(pt.bram_pct - ref.percent)
        for pt, ref in zip(brams, BRAM_POINTS)
    )
    rows.append(
        ExperimentRow(
            "Fig. 8",
            "BRAM % on the 4 published points",
            "16.07 / 19.31 / 29.04 / ~97",
            f"max |err| = {worst_bram:.2f} pp",
            worst_bram < 3.5,
            measured_value=worst_bram,
        )
    )
    return rows


def _stream_rows() -> list[ExperimentRow]:
    from .hw.calibration import STREAM_COPY
    from .stream_bench import COPY, StreamHarness

    harness = StreamHarness()
    full = harness.measure_analytic(COPY, harness.max_vectors, runs=1000)
    return [
        ExperimentRow(
            "Fig. 10",
            "theoretical Copy peak",
            f"{STREAM_COPY.peak_mbps:.0f} MB/s",
            f"{full.peak_mbps:.0f} MB/s",
            abs(full.peak_mbps - STREAM_COPY.peak_mbps) < 1,
            paper_value=STREAM_COPY.peak_mbps,
            measured_value=full.peak_mbps,
        ),
        ExperimentRow(
            "Fig. 10",
            "max measured Copy bandwidth",
            f"{STREAM_COPY.measured_mbps:.0f} MB/s (99.62%)",
            f"{full.mbps:.0f} MB/s ({full.efficiency * 100:.2f}%)",
            full.efficiency > 0.99
            and abs(full.mbps - STREAM_COPY.measured_mbps)
            / STREAM_COPY.measured_mbps
            < 0.01,
            paper_value=STREAM_COPY.measured_mbps,
            measured_value=full.mbps,
        ),
    ]


def _validation_rows(
    workers: int | None = None, cache: ResultCache | None = None
) -> tuple[list[ExperimentRow], object]:
    from .core.config import KB, PolyMemConfig
    from .core.schemes import Scheme
    from .exec import SweepTask, run_sweep
    from .maxpolymem.validation import validate_config

    cfgs = [
        PolyMemConfig(16 * KB, p=2, q=4, scheme=scheme, read_ports=2)
        for scheme in Scheme
    ]
    tasks = [
        SweepTask(
            "maxpolymem.validate",
            validate_config,
            cfg,
            params={"max_rows": 8, "style": "fused"},
        )
        for cfg in cfgs
    ]
    sweep = run_sweep(tasks, workers=workers, cache=cache)
    passed = sum(
        v["passed"] and not v["mismatches"] for v in sweep.values()
    )
    total = len(cfgs)
    rows = [
        ExperimentRow(
            "§IV-A",
            "unique-value validation cycle",
            "every design validates",
            f"{passed}/{total} schemes pass (2 read ports)",
            passed == total,
            paper_value=float(total),
            measured_value=float(passed),
        )
    ]
    return rows, sweep


@dataclass
class Scorecard:
    """The full scorecard: rows plus the unified JSON report."""

    rows: list[ExperimentRow]
    report: Report

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def run_scorecard(
    workers: int | None = None,
    cache: ResultCache | None = None,
    progress: Callable | None = None,
) -> Scorecard:
    """Run every experiment through :mod:`repro.exec`.

    ``workers`` fans the Table III sweep and the validation grid out over
    a process pool; ``cache`` makes warm re-runs skip every sweep point
    whose inputs did not change.
    """
    from .dse import explore

    result = explore(workers=workers, cache=cache, progress=progress)
    rows: list[ExperimentRow] = []
    rows += _table1_rows()
    rows += _table4_rows()
    rows += _bandwidth_rows(result)
    rows += _utilization_rows(result)
    rows += _stream_rows()
    val_rows, val_sweep = _validation_rows(workers=workers, cache=cache)
    rows += val_rows
    report = scorecard_report(rows)
    report.add_sweep_meta(result.sweep)
    report.add_sweep_meta(val_sweep)
    return Scorecard(rows=rows, report=report)


def run_all(
    workers: int | None = None,
    cache: ResultCache | None = None,
    progress: Callable | None = None,
) -> list[ExperimentRow]:
    """Run every experiment and return the scorecard rows."""
    return run_scorecard(workers=workers, cache=cache, progress=progress).rows


def scorecard_report(rows: list[ExperimentRow]) -> Report:
    """The rows in the unified ``repro.exec.report`` JSON schema."""
    entries = [
        ReportEntry(
            experiment=row.experiment,
            quantity=row.quantity,
            measured=row.measured,
            paper=row.paper,
            rel_err=rel_error(row.measured_value, row.paper_value),
            ok=row.ok,
            metrics={
                k: v
                for k, v in (
                    ("paper_value", row.paper_value),
                    ("measured_value", row.measured_value),
                )
                if v is not None
            },
        )
        for row in rows
    ]
    return Report(
        title="MAX-POLYMEM REPRODUCTION SCORECARD (paper vs this repository)",
        entries=entries,
    )


def render_report(rows: list[ExperimentRow]) -> str:
    """The printable scorecard (a renderer over the JSON schema)."""
    return scorecard_report(rows).render()
