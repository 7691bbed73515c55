"""Tests for the reproduction scorecard."""

from dataclasses import replace

import pytest

from repro.core.conflict import ConflictAnalyzer
from repro.core.patterns import PatternKind
from repro.core.schemes import Scheme
from repro.experiments import ExperimentRow, _table1_rows, render_report, run_all


@pytest.fixture(scope="module")
def rows():
    return run_all()


class TestScorecard:
    def test_every_check_passes(self, rows):
        failing = [r for r in rows if not r.ok]
        assert not failing, failing

    def test_covers_every_experiment(self, rows):
        experiments = {r.experiment for r in rows}
        assert {"Table I", "Table IV", "Fig. 4", "Fig. 5", "Fig. 6",
                "Fig. 7", "Fig. 8", "Fig. 10", "§IV-A"} <= experiments

    def test_report_renders(self, rows):
        text = render_report(rows)
        assert "SCORECARD" in text
        assert "PASS" in text
        assert f"{len(rows)}/{len(rows)} checks passed" in text

    def test_report_marks_failures(self):
        rows = [
            ExperimentRow("X", "q", "1", "2", False),
            ExperimentRow("X", "r", "1", "1", True),
        ]
        text = render_report(rows)
        assert "[FAIL] q" in text and "[PASS] r" in text
        assert "1/2 checks passed" in text

    def test_cli_command(self, capsys):
        from repro.cli import main

        assert main(["experiments"]) == 0
        assert "14/14" in capsys.readouterr().out or "checks passed" in str(
            capsys
        )



def _measured_table1():
    return ConflictAnalyzer(2, 4).table()


def _table1_verdicts(table):
    return {r.quantity: r.ok for r in _table1_rows(table)}


class TestTable1ExactCheck:
    """Table I rows compare the measured {pattern: condition} map exactly
    with the paper's plus the explicit allowances."""

    def test_measured_table_passes(self):
        verdicts = _table1_verdicts(_measured_table1())
        assert len(verdicts) == 5 and all(verdicts.values()), verdicts

    def test_unlisted_extra_pattern_fails(self):
        table = _measured_table1()
        col = table[Scheme.ReRo][PatternKind.COLUMN]
        assert col.label == "none"
        table[Scheme.ReRo][PatternKind.COLUMN] = replace(col, label="any")
        verdicts = _table1_verdicts(table)
        assert not verdicts["ReRo patterns"]
        assert sum(not ok for ok in verdicts.values()) == 1
        row = next(r for r in _table1_rows(table) if r.quantity == "ReRo patterns")
        assert row.measured.endswith("[off Table I: column: any]")

    def test_missing_pattern_fails(self):
        table = _measured_table1()
        rect = table[Scheme.ReTr][PatternKind.TRANSPOSED_RECTANGLE]
        table[Scheme.ReTr][PatternKind.TRANSPOSED_RECTANGLE] = replace(
            rect, label="none"
        )
        assert not _table1_verdicts(table)["ReTr patterns"]

    def test_allowance_is_exact_too(self):
        """The allowed RoCo anti-diagonal must carry its derived condition,
        and dropping it fails as a missing pattern would."""
        for label in ("any", "none"):
            table = _measured_table1()
            anti = table[Scheme.RoCo][PatternKind.ANTI_DIAGONAL]
            assert anti.label == "aligned"
            table[Scheme.RoCo][PatternKind.ANTI_DIAGONAL] = replace(anti, label=label)
            assert not _table1_verdicts(table)["RoCo patterns"], label
