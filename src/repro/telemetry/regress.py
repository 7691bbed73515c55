"""The regression policy engine: declarative gates over ledger entries.

Two halves:

* **the gate table** — :data:`GATE_TABLE` is the single declarative home
  of every CI perf gate (the thresholds used to live copy-pasted inside
  five ``benchmarks/bench_*.py --smoke`` blocks).  A bench records a
  gate with :func:`evaluate_gate`, which looks the operator/threshold up
  here and emits the uniform dict the ledger stores, so the in-process
  verdict and any later re-evaluation from the ledger are the *same
  computation on the same numbers* — bit-for-bit identical.

* **the baseline policy** — :func:`regress` evaluates the newest ledger
  entry of each bench against a baseline window (median of the previous
  *N* runs of the same gate).  A hard gate failure is ``fail``; a pass
  that is still *worse than the baseline median* by more than the noise
  threshold (in the gate's bad direction) is ``warn`` — the "your gate
  still holds but you just lost 30 %" case absolute thresholds miss.

``repro telemetry regress --baseline-window 5`` is the CLI surface; the
``regression-observatory`` CI job runs it over a cached ledger artifact.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass, field

from .ledger import Ledger, LedgerEntry

__all__ = [
    "GateSpec",
    "GATE_TABLE",
    "evaluate_gate",
    "check_gates",
    "Verdict",
    "RegressReport",
    "regress",
    "render_regress",
]

#: comparison operators a gate may declare (value OP threshold)
OPS = {
    ">=": lambda v, t: v >= t,
    "<=": lambda v, t: v <= t,
    ">": lambda v, t: v > t,
    "<": lambda v, t: v < t,
    "==": lambda v, t: v == t,
}

#: operators whose *bad* direction is down (a lower value is worse)
_HIGHER_IS_BETTER = {">=", ">"}


@dataclass(frozen=True)
class GateSpec:
    """One declared gate: ``value OP threshold`` must hold."""

    op: str
    threshold: float
    description: str


#: The CI perf-gate table — one row per historical smoke gate.  Benches
#: reference rows by name; thresholds live here and nowhere else.
GATE_TABLE: dict[str, GateSpec] = {
    "sim.batched_vs_scalar": GateSpec(
        ">=", 2.0, "batched tick engine vs scalar wall clock (STREAM Copy smoke)"
    ),
    "access.replay_vs_scalar": GateSpec(
        ">=", 2.0, "batched trace replay vs per-access scalar step()"
    ),
    "access.program_vs_scalar": GateSpec(
        ">=", 2.0, "cold-cache access-program pipeline vs scalar step()"
    ),
    "access.fused_vs_cold": GateSpec(
        ">=", 2.0, "warm fused program vs cold-cache program (4096-access stream)"
    ),
    "exec.scaling_1_to_4": GateSpec(
        ">=", 2.0, "process-pool sweep speedup 1 -> 4 workers (>= 2 CPUs)"
    ),
    "exec.no_regression_1cpu": GateSpec(
        "<=", 1.05, "4-worker wall vs 1-worker wall on a single-CPU machine"
    ),
    "exec.warm_cache_seconds": GateSpec(
        "<=", 1.0, "fully-cached Table III re-run wall seconds"
    ),
    "dse.batched_vs_scalar": GateSpec(
        ">=", 2.0, "vectorized config-space DSE vs scalar per-point sweep"
    ),
    "backend.layout_gain": GateSpec(
        ">=", 1.5, "DRAM achieved bandwidth gain from the burst-friendly layout pass"
    ),
    "telemetry.guard_share": GateSpec(
        "<=", 0.05, "disabled-telemetry guard cost as a share of workload time"
    ),
}


def evaluate_gate(
    name: str,
    value: float,
    *,
    op: str | None = None,
    threshold: float | None = None,
    detail: str = "",
) -> dict:
    """Evaluate one gate and return the uniform record the ledger stores:
    ``{name, value, op, threshold, ok, detail}``.

    Known names take their operator/threshold from :data:`GATE_TABLE`
    (explicit arguments override — conditional gates like the exec
    scaling fallback pass their branch explicitly); unknown names must
    spell out both.
    """
    spec = GATE_TABLE.get(name)
    if op is None:
        if spec is None:
            raise KeyError(
                f"gate {name!r} is not in GATE_TABLE; pass op= and threshold="
            )
        op = spec.op
    if threshold is None:
        if spec is None:
            raise KeyError(
                f"gate {name!r} is not in GATE_TABLE; pass op= and threshold="
            )
        threshold = spec.threshold
    if op not in OPS:
        raise ValueError(f"unknown gate operator {op!r} (use {sorted(OPS)})")
    return {
        "name": name,
        "value": value,
        "op": op,
        "threshold": threshold,
        "ok": bool(OPS[op](value, threshold)),
        "detail": detail or (spec.description if spec else ""),
    }


def check_gates(gates: list[dict]) -> list[str]:
    """Human failure messages for every failed gate record (empty when
    all hold)."""
    return [
        f"gate {g['name']} failed: {g['value']:.4g} {g['op']} "
        f"{g['threshold']:.4g} does not hold"
        + (f" ({g['detail']})" if g.get("detail") else "")
        for g in gates
        if not g.get("ok")
    ]


@dataclass
class Verdict:
    """One gate of one bench, judged against its baseline window."""

    bench: str
    gate: str
    value: float
    op: str
    threshold: float
    status: str  #: ``"pass"`` / ``"warn"`` / ``"fail"``
    baseline: float | None = None  #: median of the window (None: no history)
    n_baseline: int = 0
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RegressReport:
    """All verdicts of one regress evaluation."""

    verdicts: list[Verdict] = field(default_factory=list)
    baseline_window: int = 0
    noise: float = 0.0

    @property
    def failed(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == "fail"]

    @property
    def warned(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == "warn"]

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_dict(self) -> dict:
        return {
            "baseline_window": self.baseline_window,
            "noise": self.noise,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def _judge(
    entry: LedgerEntry,
    gate: dict,
    history: list[LedgerEntry],
    noise: float,
) -> Verdict:
    """One gate's verdict: re-evaluate the recorded gate (bit-for-bit the
    same computation the bench ran), then compare against the baseline
    median of the same gate over *history*."""
    name = gate["name"]
    value = gate["value"]
    op = gate["op"]
    threshold = gate["threshold"]
    ok = OPS[op](value, threshold)

    window = [
        g["value"]
        for e in history
        for g in e.gates
        if g.get("name") == name and isinstance(g.get("value"), (int, float))
    ]
    baseline = statistics.median(window) if window else None

    status = "pass" if ok else "fail"
    detail = gate.get("detail", "")
    if ok and baseline is not None and noise > 0:
        if op in _HIGHER_IS_BETTER:
            regressed = value < baseline * (1.0 - noise)
        else:
            regressed = value > baseline * (1.0 + noise)
        if regressed:
            status = "warn"
            detail = (
                f"worse than baseline median {baseline:.4g} by more than "
                f"{noise * 100:.0f}% (window of {len(window)})"
            )
    return Verdict(
        bench=entry.bench,
        gate=name,
        value=value,
        op=op,
        threshold=threshold,
        status=status,
        baseline=baseline,
        n_baseline=len(window),
        detail=detail,
    )


def regress(
    ledger: Ledger | str,
    *,
    bench: str | None = None,
    baseline_window: int = 5,
    noise: float = 0.10,
) -> RegressReport:
    """Judge the newest entry of each bench (or just *bench*) against the
    declared gates and the median of its previous *baseline_window* runs.

    The hard pass/fail half re-evaluates the gates *recorded in the
    ledger* — same value, operator and threshold the bench used — so the
    verdicts reproduce the in-process CI gates exactly.  The warn half
    needs history: with an empty window it never fires.
    """
    if not isinstance(ledger, Ledger):
        ledger = Ledger(ledger)
    report = RegressReport(baseline_window=baseline_window, noise=noise)
    names = [bench] if bench is not None else ledger.benches()
    for name in names:
        entries = ledger.entries(name)
        if not entries:
            continue
        latest = entries[-1]
        history = entries[:-1][-baseline_window:]
        for gate in latest.gates:
            if not isinstance(gate.get("value"), (int, float)):
                continue
            report.verdicts.append(_judge(latest, gate, history, noise))
    return report


def render_regress(report: RegressReport) -> str:
    """The human verdict table."""
    lines = [
        "regression observatory — gate verdicts "
        f"(baseline: median of last {report.baseline_window}, "
        f"noise {report.noise * 100:.0f}%)",
    ]
    lines.append("=" * len(lines[0]))
    if not report.verdicts:
        lines.append("(no ledger entries with gates)")
        return "\n".join(lines)
    width = max(len(f"{v.bench}:{v.gate}") for v in report.verdicts)
    for v in report.verdicts:
        base = f" baseline {v.baseline:.4g} (n={v.n_baseline})" if (
            v.baseline is not None
        ) else ""
        tail = f"  [{v.detail}]" if v.status != "pass" and v.detail else ""
        lines.append(
            f"  [{v.status.upper():4s}] {v.bench + ':' + v.gate:<{width}}  "
            f"{v.value:.4g} {v.op} {v.threshold:.4g}{base}{tail}"
        )
    lines.append(
        f"\n{sum(1 for v in report.verdicts if v.status == 'pass')} pass, "
        f"{len(report.warned)} warn, {len(report.failed)} fail"
    )
    return "\n".join(lines)
