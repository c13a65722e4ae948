"""The differential oracle: every engine variant gives the identical run.

The simulator ships interchangeable implementations behind one
interface, and each promises **byte-identical** runs — same robots,
same seed, same scheduler must produce the same trace (positions,
activation sets, bit events), epochs and monitor verdicts:

* the ``backend`` axis — the reference scalar
  :class:`~repro.model.simulator.Simulator` against the batch backend
  (:mod:`repro.batch`);
* the ``engine`` axis — the classic round engine against the event
  engine (:mod:`repro.events`) in round-emulation mode (scheduler
  driven, every phase lasts one unit, zero observation delay).

Both are checked by one mechanism.  A :class:`Twin` names one side of
an axis by the :func:`~repro.verify.scenarios.build_run` keywords it
sets; :func:`compare` builds one matrix cell at one seed as two twins
(every RNG draw happens before the simulator is constructed, so both
builds see the identical swarm, schedule, payload and fault plan),
drives both to completion with their invariant monitors attached, and
diffs them with :func:`repro.verify.engine.diff_runs`.  A run that
*raises* is fine only if the twin raises the same exception type and
message — the variants promise exception parity at the raise instant.

:func:`run_differential` sweeps one axis in two arms:

1. the **matrix arm** — every executable ``(protocol, adversary)``
   cell that has a twin on the axis (:data:`ORACLE_SKIPS` lists the
   ones that do not, with the reason; each is counted as a skip);
2. the **fair-async arm** — every protocol's ``synchronous`` cell
   re-run under a seeded
   :class:`~repro.model.scheduler.FairAsynchronousScheduler`, so all
   six protocols are also diffed under genuinely partial activation
   (each twin gets its own scheduler instance built from the same
   seed, hence the identical activation sequence).

CLI: ``python -m repro.verify --backend-oracle`` (skips cleanly when
numpy is absent) and ``python -m repro.verify --event-oracle``.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.model.scheduler import FairAsynchronousScheduler, Scheduler
from repro.verify.engine import SweepReport, diff_runs, drive
from repro.verify.monitors import attach
from repro.verify.scenarios import (
    EVENT_ADVERSARIES,
    Cell,
    ScenarioRun,
    build_run,
    cells_for,
    matrix_skips,
)

__all__ = [
    "AXES",
    "ORACLE_SKIPS",
    "DiffReport",
    "DiffResult",
    "Twin",
    "compare",
    "run_differential",
]


@dataclass(frozen=True)
class Twin:
    """One side of a differential axis: a label plus its build keywords."""

    label: str
    backend: str = "scalar"
    engine: str = "rounds"


#: The differential axes: the reference twin first, the variant second.
AXES: Dict[str, Tuple[Twin, Twin]] = {
    "backend": (Twin("scalar"), Twin("batch", backend="batch")),
    "engine": (Twin("rounds"), Twin("events", engine="events")),
}

_EVENT_ONLY = (
    "inherently an event-engine cell (free-running continuous-time "
    "timing or an observation-delay model); it has no twin on this axis"
)

#: Cells an axis cannot twin, keyed ``(axis, adversary)``, with the
#: reason — reported as skips, exactly like the matrix's own ``SKIPS``.
ORACLE_SKIPS: Dict[Tuple[str, str], str] = {
    ("backend", "worst_stale"): (
        "the stale-look adversary is a look policy (per-robot Look "
        "snapshots); the batch backend does not run look policies"
    ),
    **{(axis, adv): _EVENT_ONLY for axis in AXES for adv in EVENT_ADVERSARIES},
}


def _fair_async_factory(seed: int) -> Callable[[], Scheduler]:
    """A seeded fair-async scheduler factory for the second oracle arm.

    Each twin calls the factory once, so each run owns a private
    scheduler instance whose RNG starts from the identical seed — the
    activation sequences are therefore bit-identical by construction.
    """

    def factory() -> Scheduler:
        return FairAsynchronousScheduler(seed=seed * 1_009 + 11)

    return factory


@dataclass
class DiffResult:
    """Outcome of one twin-vs-twin comparison at one seed."""

    protocol: str
    scheduler: str
    seed: int
    #: ``"matrix"`` for the cell's own adversary, ``"fair_async"`` for
    #: the fair-asynchronous re-run of a synchronous cell.
    variant: str = "matrix"
    size: int = 0
    steps: int = 0
    #: human-readable divergence descriptions; empty means the runs
    #: were indistinguishable.
    problems: List[str] = field(default_factory=list)
    #: populated when a build/drive crashed *asymmetrically* (one
    #: twin raised, or both raised but differently).
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the two twins were indistinguishable."""
        return self.error is None and not self.problems

    def to_json(self) -> Dict[str, object]:
        """JSON-ready dict: comparison coordinates plus divergences."""
        payload: Dict[str, object] = {
            "protocol": self.protocol,
            "scheduler": self.scheduler,
            "variant": self.variant,
            "seed": self.seed,
            "size": self.size,
            "steps": self.steps,
            "ok": self.ok,
        }
        if self.problems:
            payload["problems"] = list(self.problems)
        if self.error is not None:
            payload["error"] = self.error
        return payload


def _build_and_drive(
    cell: Cell,
    seed: int,
    twin: Twin,
    quick: bool,
    scheduler_factory: Optional[Callable[[], Scheduler]],
) -> Tuple[Optional[ScenarioRun], int, Optional[BaseException]]:
    """Run one twin; returns (run, steps, exception)."""
    try:
        run = build_run(
            cell,
            seed,
            quick=quick,
            backend=twin.backend,
            engine=twin.engine,
            scheduler_factory=scheduler_factory,
        )
        attach(run.sim, run.monitors)
        steps = drive(run)
        return run, steps, None
    except Exception as exc:
        return None, 0, exc


def compare(
    cell: Cell,
    seed: int,
    a: Twin,
    b: Twin,
    *,
    quick: bool = False,
    scheduler_factory: Optional[Callable[[], Scheduler]] = None,
    variant: str = "matrix",
) -> DiffResult:
    """Build one cell at one seed as twins ``a`` and ``b``; diff the runs."""
    result = DiffResult(cell.protocol, cell.scheduler, seed, variant=variant)
    run_a, a_steps, a_exc = _build_and_drive(cell, seed, a, quick, scheduler_factory)
    run_b, b_steps, b_exc = _build_and_drive(cell, seed, b, quick, scheduler_factory)
    if a_exc is not None or b_exc is not None:
        # Exception parity: identical type and message is a pass —
        # the twins promise to diverge nowhere before the raise.
        if (
            a_exc is not None
            and b_exc is not None
            and type(a_exc) is type(b_exc)
            and str(a_exc) == str(b_exc)
        ):
            return result
        result.error = (
            "asymmetric failure:\n"
            f"  {a.label:6s}: {type(a_exc).__name__ if a_exc else 'ok'}: {a_exc}\n"
            f"  {b.label:6s}: {type(b_exc).__name__ if b_exc else 'ok'}: {b_exc}\n"
            + "".join(traceback.format_exception(b_exc or a_exc, limit=6))
        )
        return result
    assert run_a is not None and run_b is not None
    result.size = run_a.size
    result.steps = a_steps
    result.problems = diff_runs(run_a, a_steps, run_b, b_steps)
    return result


class DiffReport(SweepReport[DiffResult]):
    """Aggregate outcome of one differential oracle sweep."""

    def format(self, verbose: bool = False) -> str:
        """Human-readable per-cell summary with divergence details."""
        lines: List[str] = []
        by_cell: Dict[Tuple[str, str, str], List[DiffResult]] = {}
        for r in self.results:
            by_cell.setdefault((r.protocol, r.scheduler, r.variant), []).append(r)
        for (protocol, scheduler, variant), runs in sorted(by_cell.items()):
            bad = [r for r in runs if not r.ok]
            shown = scheduler if variant == "matrix" else "fair_async*"
            status = "ok" if not bad else f"FAIL ({len(bad)}/{len(runs)} seeds)"
            lines.append(
                f"{protocol:14s} x {shown:15s} {len(runs):4d} seeds  {status}"
            )
            for r in bad:
                for problem in r.problems:
                    lines.append(f"    seed {r.seed}: {problem}")
                if r.error is not None:
                    first = r.error.strip().splitlines()[0]
                    lines.append(f"    seed {r.seed}: {first}")
        lines.extend(self._skip_lines(verbose))
        total = len(self.results)
        bad_total = len(self.failures)
        lines.append("")
        lines.append(
            f"{total} comparisons, {bad_total} divergences, "
            f"{len(self.skipped)} cells skipped "
            "(* = synchronous cell re-run under the fair-async scheduler)"
        )
        return "\n".join(lines)


def run_differential(
    axis: str,
    protocols: Optional[Sequence[str]] = None,
    schedulers: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = range(5),
    *,
    quick: bool = False,
    fair_async: bool = True,
    progress: Optional[Callable[[DiffResult], None]] = None,
) -> DiffReport:
    """Sweep one axis of :data:`AXES` over the scenario matrix.

    The ``backend`` axis requires numpy (``pip install repro[batch]``)
    — check :func:`repro.batch.available` first to skip cleanly without
    it.  With ``fair_async`` (the default), every matching
    ``synchronous`` cell is additionally compared under a seeded
    fair-asynchronous scheduler, so all protocols are exercised under
    partial activation.
    """
    a, b = AXES[axis]
    report = DiffReport(skipped=matrix_skips(protocols, schedulers))

    def record(result: DiffResult) -> None:
        report.results.append(result)
        if progress is not None:
            progress(result)

    cells = cells_for(protocols, schedulers)
    for cell in cells:
        reason = ORACLE_SKIPS.get((axis, cell.scheduler))
        if reason is not None:
            report.skipped.append((cell.protocol, cell.scheduler, reason))
            continue
        for seed in seeds:
            record(compare(cell, seed, a, b, quick=quick))
    if fair_async:
        for cell in cells:
            if cell.scheduler != "synchronous":
                continue
            for seed in seeds:
                record(
                    compare(
                        cell,
                        seed,
                        a,
                        b,
                        quick=quick,
                        scheduler_factory=_fair_async_factory(seed),
                        variant="fair_async",
                    )
                )
    return report
