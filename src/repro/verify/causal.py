"""Causality invariant oracle over the protocol x scheduler matrix.

The causal tracer (:mod:`repro.obs.causal`) promises that every
recorded run yields a clean happens-before structure: receipts
happen-after encodes, acks happen-after receipts, the per-flow DAG is
acyclic, every overheard decode is downstream of an encoding move —
and the critical path's edge durations telescope to *exactly* the
flow's end-to-end latency (attribution is always 100% of the measured
cost).  This module turns that promise into a sweepable oracle,
mirroring the differential oracle (:mod:`repro.verify.differential`):
every executable cell of the scenario matrix is driven with an
:class:`~repro.obs.recorder.ObsRecorder` attached — on the round
engine *and* the event engine in round-emulation mode (the ``event_*``
adversaries exist only on the event engine) — and the resulting trace
is rebuilt into its causal DAG and checked.

Ack ordering is only enforced (``strict_acks``) in cells whose
invariant list claims receipt: under adversaries that may starve the
addressee, a rhythm-based sender can legitimately advance before the
receipt lands, and the matrix documents that envelope rather than
fighting it.

CLI: ``python -m repro.verify --causal-oracle`` (pure python).
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.verify.scenarios import (
    EVENT_ADVERSARIES,
    Cell,
    build_run,
    cells_for,
    matrix_skips,
)
from repro.verify.engine import SweepReport, drive

__all__ = [
    "CausalCellResult",
    "CausalOracleReport",
    "check_cell",
    "run_causal_matrix",
]

#: Protocols whose sender advances on a framing *rhythm* rather than
#: the implicit acknowledgement of Lemma 4.1, with the reason strict
#: ack ordering is not checked for them: the addressee commits a bit
#: only once the whole unit lands, so the ack event (sender advanced)
#: legitimately precedes the receipt event (decode committed).  The
#: lattice protocols are :class:`~repro.protocols.sync_logk.SyncLogKProtocol`
#: subclasses and share its rhythm.
_LOGK_RHYTHM = (
    "the Section 3.3 sender starts the next address/digit block on "
    "the synchronous rhythm; the addressee commits the bit only at "
    "block end, so acks are not receipt-gated"
)
RHYTHM_ADVANCING: Dict[str, str] = {
    "sync_logk": _LOGK_RHYTHM,
    "lattice_square": _LOGK_RHYTHM,
    "lattice_hex": _LOGK_RHYTHM,
}

#: tolerance for the critical-path telescoping identity (floats on the
#: event engine's continuous clock).
_EPS = 1e-9


def _engines_for(cell: Cell) -> Tuple[str, ...]:
    if cell.scheduler in EVENT_ADVERSARIES:
        # Inherently event-engine cells: build_run ignores engine=.
        return ("events",)
    return ("rounds", "events")


@dataclass
class CausalCellResult:
    """Outcome of one instrumented run's causality check."""

    protocol: str
    scheduler: str
    engine: str
    seed: int
    size: int = 0
    steps: int = 0
    #: flows with at least one bit-lifecycle event in the trace.
    flows: int = 0
    #: causality violations (empty = the happens-before DAG is clean).
    violations: List[str] = field(default_factory=list)
    #: populated when the build/drive itself crashed.
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the run produced a clean causal structure."""
        return self.error is None and not self.violations

    def to_json(self) -> Dict[str, object]:
        """JSON-ready dict: run coordinates plus any violations."""
        payload: Dict[str, object] = {
            "protocol": self.protocol,
            "scheduler": self.scheduler,
            "engine": self.engine,
            "seed": self.seed,
            "size": self.size,
            "steps": self.steps,
            "flows": self.flows,
            "ok": self.ok,
        }
        if self.violations:
            payload["violations"] = list(self.violations)
        if self.error is not None:
            payload["error"] = self.error
        return payload


def check_cell(
    cell: Cell,
    seed: int,
    engine: str,
    *,
    quick: bool = False,
) -> CausalCellResult:
    """Drive one instrumented cell and check its causal structure."""
    from repro.obs.causal import build_causal, check_invariants, critical_path
    from repro.obs.recorder import ObsRecorder

    result = CausalCellResult(cell.protocol, cell.scheduler, engine, seed)
    recorder = ObsRecorder(
        meta={
            "protocol": cell.protocol,
            "scheduler": cell.scheduler,
            "seed": seed,
        }
    )
    try:
        run = build_run(cell, seed, quick=quick, engine=engine)
        recorder.attach(run.sim)
        try:
            result.size = run.size
            result.steps = drive(run)
        finally:
            recorder.detach(run.sim)
    except Exception as exc:
        result.error = (
            f"{type(exc).__name__}: {exc}\n"
            + "".join(traceback.format_exception(exc, limit=6))
        )
        return result
    trace = build_causal(recorder.to_run())
    result.flows = len(trace.flows)
    strict = (
        "receipt" in cell.invariants
        and cell.protocol not in RHYTHM_ADVANCING
    )
    result.violations.extend(check_invariants(trace, strict_acks=strict))
    # Attribution completeness: the critical path's edge durations must
    # telescope to exactly the wall span it covers — 100% of the
    # latency lands on named edges, never a remainder.
    for flow, graph in trace.flows.items():
        path = critical_path(graph)
        if not path.edges:
            continue
        span = path.nodes[-1].wall - path.nodes[0].wall
        if abs(path.total - span) > _EPS:
            result.violations.append(
                f"flow {flow[0]}->{flow[1]}: critical path attribution "
                f"({path.total!r}) does not telescope to its wall span "
                f"({span!r})"
            )
    return result


class CausalOracleReport(SweepReport[CausalCellResult]):
    """Aggregate outcome of a causal oracle sweep."""

    def format(self, verbose: bool = False) -> str:
        """Human-readable per-cell summary with violation details."""
        lines: List[str] = []
        by_cell: Dict[Tuple[str, str, str], List[CausalCellResult]] = {}
        for r in self.results:
            by_cell.setdefault((r.protocol, r.scheduler, r.engine), []).append(r)
        for (protocol, scheduler, engine), runs in sorted(by_cell.items()):
            bad = [r for r in runs if not r.ok]
            status = "ok" if not bad else f"FAIL ({len(bad)}/{len(runs)} seeds)"
            lines.append(
                f"{protocol:14s} x {scheduler:17s} [{engine:6s}] "
                f"{len(runs):4d} seeds  {status}"
            )
            for r in bad:
                for violation in r.violations:
                    lines.append(f"    seed {r.seed}: {violation}")
                if r.error is not None:
                    first = r.error.strip().splitlines()[0]
                    lines.append(f"    seed {r.seed}: {first}")
        lines.extend(self._skip_lines(verbose))
        total = len(self.results)
        bad_total = len(self.failures)
        violations = sum(len(r.violations) for r in self.results)
        lines.append("")
        lines.append(
            f"{total} instrumented runs, {violations} causality violations, "
            f"{bad_total} failures, {len(self.skipped)} cells skipped"
        )
        return "\n".join(lines)


def run_causal_matrix(
    protocols: Optional[Sequence[str]] = None,
    schedulers: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = range(5),
    *,
    quick: bool = False,
    progress: Optional[Callable[[CausalCellResult], None]] = None,
) -> CausalOracleReport:
    """Sweep the causality oracle over the scenario matrix.

    Every executable cell runs instrumented on both engines (the
    ``event_*`` adversaries on their one native engine); the recorded
    trace must rebuild into a clean happens-before DAG with telescoping
    critical-path attribution.
    """
    report = CausalOracleReport(skipped=matrix_skips(protocols, schedulers))
    for cell in cells_for(protocols, schedulers):
        for engine in _engines_for(cell):
            for seed in seeds:
                result = check_cell(cell, seed, engine, quick=quick)
                report.results.append(result)
                if progress is not None:
                    progress(result)
    return report
