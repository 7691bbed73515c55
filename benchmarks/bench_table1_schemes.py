"""Table I — the PRF access schemes and their conflict-free patterns.

Regenerates the scheme/pattern support table by exhaustive conflict
analysis on the paper's 2x4 lane grid (and the 2x8 grid of its 16-lane
designs) and checks it cell-by-cell against Table I: the measured
``{pattern: anchor domain}`` map of every scheme must equal the paper's
entries plus the derived allowances of ``repro.experiments``, the same
exact check the scorecard runs.  Then benchmarks the analyzer.
"""

import io

from _util import save_report

from repro.core.conflict import ConflictAnalyzer
from repro.core.patterns import PatternKind
from repro.core.schemes import Scheme
from repro.experiments import _table1_expected


def regenerate(p=2, q=4):
    analyzer = ConflictAnalyzer(p, q)
    table = analyzer.table()
    out = io.StringIO()
    out.write(f"TABLE I — PRF ACCESS SCHEMES (empirical, {p}x{q} lanes)\n")
    out.write(f"{'Scheme':6s} | conflict-free patterns (anchor domain)\n")
    domains = {}
    for scheme, row in table.items():
        entries = [
            f"{kind.value}[{dom.label}]"
            for kind, dom in row.items()
            if dom.label != "none"
        ]
        domains[scheme] = {
            kind: dom.label for kind, dom in row.items() if dom.label != "none"
        }
        out.write(f"{scheme.value:6s} | {', '.join(entries)}\n")
    return table, domains, out.getvalue()


def _check_exact(domains):
    """Every scheme's measured domains equal Table I plus allowances."""
    paper, allowed = _table1_expected()
    assert domains.keys() == paper.keys()
    for scheme, listed in paper.items():
        want = {**listed, **allowed.get(scheme, {})}
        assert domains[scheme] == want, f"{scheme}: {domains[scheme]} != {want}"


def test_table1_matches_paper(benchmark):
    table, domains, text = regenerate()
    save_report("table1_schemes", text)
    _check_exact(domains)
    # benchmark the exhaustive analyzer itself
    benchmark(lambda: ConflictAnalyzer(2, 4).table())


def test_table1_16_lane_grid(benchmark):
    """The 2x8 grid used by the paper's 16-lane designs has exactly the
    same pattern domains."""
    table, domains, text = regenerate(p=2, q=8)
    save_report("table1_schemes_16lane", text)
    _check_exact(domains)
    benchmark(
        lambda: ConflictAnalyzer(2, 8).domain(Scheme.ReRo, PatternKind.ROW)
    )
