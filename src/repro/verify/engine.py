"""The seeded property-test engine.

For every executable cell of the matrix (:mod:`repro.verify.scenarios`)
and every seed, the engine:

1. builds the run twice — hot-path caching on and off — from the same
   seed, streams the cell's invariant monitors over both, and requires
   the two traces, received streams, final configurations, epochs and
   monitor verdicts to be **bit-identical** (:func:`diff_runs`; the
   ``transparency`` invariant, checked at engine level so it holds
   under every adversary, not just the benign benchmarks);
2. reports the cached run's monitor violations;
3. on violation, *minimizes* the reproduction: shrink the swarm while
   the cell still fails, and clip the step budget to the earliest
   streaming violation;
4. when an ``obs_dump_dir`` is given, re-runs the minimized
   reproduction with an :class:`~repro.obs.recorder.ObsRecorder`
   attached and leaves the full event trace on disk as JSONL — a
   failure report you can open with ``python -m repro.obs report``.

Everything is deterministic given the seed list, so a failure report
is a complete reproduction recipe:
``build_run(CELLS[(protocol, scheduler)], seed, size_override=size)``.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.verify.monitors import Violation, attach
from repro.verify.scenarios import (
    CELLS,
    Cell,
    ScenarioRun,
    build_run,
    cells_for,
    matrix_skips,
)

__all__ = [
    "CellResult",
    "Report",
    "SweepReport",
    "diff_runs",
    "drive",
    "run_cell",
    "run_matrix",
]

#: the result type a :class:`SweepReport` collects.
_R = TypeVar("_R")

#: extra instants run after the early-stop condition fires, so silence
#: violations just after delivery are still observed.
_COOLDOWN = 4

#: smallest swarm the size-minimizer will try (crash/displacement cells
#: need a robot that is endpoint of no flow).
_MIN_SIZE = 4


def drive(run: ScenarioRun) -> int:
    """Step a scenario to completion; returns instants executed.

    The early-stop rule is a pure function of the (deterministic) run
    state, so the caching on/off twins always stop at the same instant.
    """
    steps = 0
    while steps < run.max_steps:
        if run.fault is not None:
            run.fault.maybe_inject(run.sim)
        run.sim.step()
        steps += 1
        if steps >= run.min_steps and (not run.check_receipt or run.delivered()):
            break
    cooldown = min(_COOLDOWN, run.max_steps - steps)
    for _ in range(cooldown):
        if run.fault is not None:
            run.fault.maybe_inject(run.sim)
        run.sim.step()
        steps += 1
    for monitor in run.monitors:
        monitor.finish(run.sim)
    return steps


@dataclass
class CellResult:
    """Outcome of one (cell, seed) verification."""

    protocol: str
    scheduler: str
    seed: int
    size: int = 0
    steps: int = 0
    violations: List[Violation] = field(default_factory=list)
    #: populated when the run itself crashed (build or step raised) —
    #: always a failure, whatever the cell's invariant list.
    error: Optional[str] = None
    #: minimized reproduction (seed/size/steps), present on failure.
    minimized: Optional[Dict[str, int]] = None
    #: path of the obs trace dumped for the minimized repro, when the
    #: engine was invoked with an ``obs_dump_dir``.
    obs_dump: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.violations

    def to_json(self) -> Dict[str, object]:
        """JSON-ready dict: repro coordinates plus any violations."""
        payload: Dict[str, object] = {
            "protocol": self.protocol,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "size": self.size,
            "steps": self.steps,
            "ok": self.ok,
        }
        if self.violations:
            payload["violations"] = [
                {"invariant": v.invariant, "time": v.time, "message": v.message}
                for v in self.violations
            ]
        if self.error is not None:
            payload["error"] = self.error
        if self.minimized is not None:
            payload["minimized"] = dict(self.minimized)
        if self.obs_dump is not None:
            payload["obs_dump"] = self.obs_dump
        return payload


def _trace_fingerprint(run: ScenarioRun) -> List[Tuple[object, ...]]:
    return [
        (step.time, tuple(sorted(step.active)), tuple(step.positions))
        for step in run.sim.trace.steps
    ]


def _received_fingerprint(run: ScenarioRun) -> List[Tuple[object, ...]]:
    out: List[Tuple[object, ...]] = []
    for i in range(run.sim.count):
        for e in run.sim.protocol_of(i).received:
            out.append((i, e.time, e.src, e.dst, e.bit))
    return out


def _monitor_verdicts(run: ScenarioRun) -> List[Tuple[object, ...]]:
    """Flatten a run's monitor violations into a comparable list."""
    out: List[Tuple[object, ...]] = []
    for monitor in run.monitors:
        for v in monitor.violations:
            out.append((monitor.name, v.invariant, v.time, v.message))
    return out


def diff_runs(
    a: ScenarioRun, a_steps: int, b: ScenarioRun, b_steps: int
) -> List[str]:
    """Every way two driven twin runs differ; empty when byte-identical.

    Equality is strict: run length, retained trace steps
    ``(time, active, positions)``, per-robot received streams, final
    configurations, configuration epochs and the full monitor verdict
    lists must match exactly.  The one diff behind every equivalence
    check: caching on/off here, the engine variants in
    :mod:`repro.verify.differential`.
    """
    problems: List[str] = []
    if a_steps != b_steps:
        problems.append(f"run length diverged: {a_steps} vs {b_steps}")
    if _trace_fingerprint(a) != _trace_fingerprint(b):
        problems.append("position traces diverged")
    if _received_fingerprint(a) != _received_fingerprint(b):
        problems.append("received bit streams diverged")
    if tuple(a.sim.positions) != tuple(b.sim.positions):
        problems.append("final configurations diverged")
    if a.sim.epoch != b.sim.epoch:
        problems.append(
            f"configuration epochs diverged: {a.sim.epoch} vs {b.sim.epoch}"
        )
    if _monitor_verdicts(a) != _monitor_verdicts(b):
        problems.append("monitor verdicts diverged")
    return problems


def _check_transparency(
    cell: Cell, seed: int, quick: bool, cached: ScenarioRun, cached_steps: int
) -> List[Violation]:
    """Re-run with caching off; the runs must be indistinguishable."""
    twin = build_run(cell, seed, caching=False, quick=quick)
    attach(twin.sim, twin.monitors)
    twin_steps = drive(twin)
    return [
        Violation(
            "transparency",
            -1,
            f"caching on/off runs differ ({problem})",
        )
        for problem in diff_runs(cached, cached_steps, twin, twin_steps)
    ]


def _minimize(
    cell: Cell, seed: int, quick: bool, failing: CellResult
) -> Dict[str, int]:
    """Shrink the failing reproduction: swarm size, then step budget.

    The step budget needs no re-runs — the earliest *streaming*
    violation bounds it; end-of-run violations (receipt and friends)
    need the full run by definition.
    """
    best_size = failing.size
    for size in range(_MIN_SIZE, failing.size):
        try:
            candidate = build_run(cell, seed, quick=quick, size_override=size)
            attach(candidate.sim, candidate.monitors)
            drive(candidate)
        except Exception:
            continue
        if any(m.violations for m in candidate.monitors):
            best_size = size
            break
    streamed = [v.time for v in failing.violations if v.time >= 0]
    best_steps = (min(streamed) + 1) if streamed else failing.steps
    return {"seed": seed, "size": best_size, "steps": best_steps}


def _dump_obs(
    cell: Cell, seed: int, quick: bool, failing: CellResult, dump_dir: str
) -> Optional[str]:
    """Replay the (minimized) failing repro instrumented; dump JSONL.

    Best-effort by design: the dump must never turn a clean failure
    report into an engine crash, so any exception yields ``None``.
    """
    from repro.obs.export import dump_run
    from repro.obs.recorder import ObsRecorder

    try:
        size = failing.minimized["size"] if failing.minimized else None
        steps = failing.minimized["steps"] if failing.minimized else None
        run = build_run(
            cell,
            seed,
            quick=quick,
            size_override=size,
            max_steps_override=steps,
        )
        recorder = ObsRecorder(
            meta={
                "protocol": cell.protocol,
                "scheduler": cell.scheduler,
                "seed": seed,
                "quick": quick,
                "minimized": dict(failing.minimized) if failing.minimized else None,
                "violations": [str(v) for v in failing.violations],
            }
        )
        recorder.attach(run.sim)
        attach(run.sim, run.monitors)
        drive(run)
        recorder.detach(run.sim)
        os.makedirs(dump_dir, exist_ok=True)
        path = os.path.join(
            dump_dir, f"{cell.protocol}-{cell.scheduler}-seed{seed}.jsonl"
        )
        return dump_run(recorder.to_run(), path)
    except Exception:  # pragma: no cover - dump is best-effort
        return None


def run_cell(
    cell: Cell,
    seed: int,
    *,
    quick: bool = False,
    transparency: bool = True,
    minimize: bool = True,
    obs_dump_dir: Optional[str] = None,
) -> CellResult:
    """Verify one cell at one seed; see the module docstring."""
    result = CellResult(cell.protocol, cell.scheduler, seed)
    try:
        run = build_run(cell, seed, caching=True, quick=quick)
        result.size = run.size
        attach(run.sim, run.monitors)
        result.steps = drive(run)
        for monitor in run.monitors:
            result.violations.extend(monitor.violations)
        if transparency:
            result.violations.extend(
                _check_transparency(cell, seed, quick, run, result.steps)
            )
    except Exception:
        result.error = traceback.format_exc(limit=8)
        return result
    if result.violations and minimize and cell.protocol not in ("sync_two", "async_two"):
        try:
            result.minimized = _minimize(cell, seed, quick, result)
        except Exception:  # pragma: no cover - minimization is best-effort
            pass
    if result.violations and obs_dump_dir is not None:
        result.obs_dump = _dump_obs(cell, seed, quick, result, obs_dump_dir)
    return result


@dataclass
class SweepReport(Generic[_R]):
    """Aggregate outcome of a sweep: its results and its counted skips.

    The matrix engine and every oracle return one; each subclass only
    adds its own human-readable ``format``.
    """

    results: List[_R] = field(default_factory=list)
    skipped: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every result in the sweep passed."""
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> List[_R]:
        """The results that did not pass."""
        return [r for r in self.results if not r.ok]

    def to_json(self) -> Dict[str, object]:
        """JSON-ready dict of the whole sweep (results and skips)."""
        return {
            "ok": self.ok,
            "runs": len(self.results),
            "failures": len(self.failures),
            "skipped": [
                {"protocol": p, "scheduler": s, "reason": reason}
                for p, s, reason in self.skipped
            ],
            "results": [r.to_json() for r in self.results],
        }

    def _skip_lines(self, verbose: bool) -> List[str]:
        """The per-skip reason lines ``format`` prints when verbose."""
        if not (verbose and self.skipped):
            return []
        return [""] + [
            f"skip {protocol} x {scheduler}: {reason}"
            for protocol, scheduler, reason in self.skipped
        ]


class Report(SweepReport[CellResult]):
    """Aggregate outcome of a matrix sweep."""

    def format(self, verbose: bool = False) -> str:
        """Human-readable per-cell summary with violation details."""
        lines: List[str] = []
        by_cell: Dict[Tuple[str, str], List[CellResult]] = {}
        for r in self.results:
            by_cell.setdefault((r.protocol, r.scheduler), []).append(r)
        for (protocol, scheduler), runs in sorted(by_cell.items()):
            bad = [r for r in runs if not r.ok]
            status = "ok" if not bad else f"FAIL ({len(bad)}/{len(runs)} seeds)"
            lines.append(f"{protocol:14s} x {scheduler:15s} {len(runs):4d} seeds  {status}")
            for r in bad:
                for v in r.violations:
                    lines.append(f"    seed {r.seed}: {v}")
                if r.error is not None:
                    first = r.error.strip().splitlines()[-1]
                    lines.append(f"    seed {r.seed}: engine error: {first}")
                if r.minimized:
                    m = r.minimized
                    lines.append(
                        f"    seed {r.seed}: minimized repro: seed={m['seed']} "
                        f"size={m['size']} steps={m['steps']}"
                    )
                if r.obs_dump:
                    lines.append(
                        f"    seed {r.seed}: obs trace: {r.obs_dump} "
                        f"(open with `python -m repro.obs report`)"
                    )
        lines.extend(self._skip_lines(verbose))
        total = len(self.results)
        bad_total = len(self.failures)
        lines.append("")
        lines.append(
            f"{total} runs, {bad_total} failures, {len(self.skipped)} cells "
            f"skipped (out of envelope)"
        )
        return "\n".join(lines)


def run_matrix(
    protocols: Optional[Sequence[str]] = None,
    schedulers: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = range(10),
    *,
    quick: bool = False,
    transparency: bool = True,
    minimize: bool = True,
    obs_dump_dir: Optional[str] = None,
    progress: Optional[Callable[[CellResult], None]] = None,
) -> Report:
    """Sweep the matrix: every matching cell x every seed."""
    report = Report(skipped=matrix_skips(protocols, schedulers))
    for cell in cells_for(protocols, schedulers):
        for seed in seeds:
            result = run_cell(
                cell,
                seed,
                quick=quick,
                transparency=transparency,
                minimize=minimize,
                obs_dump_dir=obs_dump_dir,
            )
            report.results.append(result)
            if progress is not None:
                progress(result)
    return report
