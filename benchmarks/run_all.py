"""The experiment driver: regenerate every table, then gate the invariants.

Usage::

    python benchmarks/run_all.py                 # all tables, parallel
    python benchmarks/run_all.py --jobs 4        # bounded worker pool
    python benchmarks/run_all.py --sequential    # old single-process mode
    python benchmarks/run_all.py --store .campaigns/tables   # resumable
    python -m benchmarks.run_all --quick         # the invariant gate only
    python -m benchmarks.run_all --quick --obs run.jsonl   # + obs export

The table matrix is a campaign: every module in :data:`MODULES` is
submitted as ``repro.campaign`` bench cells, executed by the campaign
worker pool (``--jobs``; ``--sequential`` = inline), and read back
from the result store.  Outputs are replayed in registration order so
the document is reproducible byte-for-byte regardless of completion
order; ``--store DIR`` keeps the store (and with it, resumability)
instead of a throwaway one.

After the tables comes the invariant gate, run inline: the
sync-granular 2-instants-per-bit cost, caching transparency across
the adversarial ``repro.verify`` matrix and, with ``--obs PATH``, the
recorder transparency check.  ``--quick`` skips the tables and runs
the gate alone; it is the CI gate.  A nonzero exit means a table
failed or an invariant was violated.

This driver measures no speed: ``perfbench/run.py`` is the repo
benchmark (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import sys
import tempfile
import traceback
from typing import Callable, Dict, List, Optional

# Allow `python benchmarks/run_all.py` from the repo root.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks import (
    bench_fig1_sync_two,
    bench_fig2_routed,
    bench_fig3_symmetry,
    bench_fig4_naming,
    bench_fig5_async_two,
    bench_fig6_async_n,
    bench_c1_symbols,
    bench_c2_slice_tradeoff,
    bench_c3_silence,
    bench_c4_collision,
    bench_c5_failover,
    bench_c6_flocking,
    bench_c7_gossip,
    bench_a1_resolution,
    bench_a2_ack_threshold,
    bench_a3_energy,
    bench_a4_staleness,
    bench_a5_noise,
    bench_event_sparse,
    bench_p1_scaling,
    bench_p2_throughput,
    bench_p3_protocol_matrix,
)

MODULES = [
    bench_fig1_sync_two,
    bench_fig2_routed,
    bench_fig3_symmetry,
    bench_fig4_naming,
    bench_fig5_async_two,
    bench_fig6_async_n,
    bench_c1_symbols,
    bench_c2_slice_tradeoff,
    bench_c3_silence,
    bench_c4_collision,
    bench_c5_failover,
    bench_c6_flocking,
    bench_c7_gossip,
    bench_a1_resolution,
    bench_a2_ack_threshold,
    bench_a3_energy,
    bench_a4_staleness,
    bench_a5_noise,
    bench_event_sparse,
    bench_p1_scaling,
    bench_p2_throughput,
    bench_p3_protocol_matrix,
]


# ----------------------------------------------------------------------
# The table matrix, as a campaign
# ----------------------------------------------------------------------
_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_matrix(jobs: Optional[int], sequential: bool,
               store_dir: Optional[str] = None) -> List[Dict]:
    """Regenerate every experiment table as a campaign of bench cells.

    With ``store_dir`` the results persist (and a second run resumes
    from them); without, a throwaway store is used and deleted.  Cells
    get a single attempt — a crashed table is a *finding*, not
    flakiness to retry.
    """
    from repro.campaign.runner import run_campaign
    from repro.campaign.spec import CampaignSpec, bench_cells

    workers = 0 if sequential else (jobs or min(len(MODULES), os.cpu_count() or 2))
    spec = CampaignSpec(
        name="run-all-tables", cells=bench_cells(), timeout_s=900.0,
        max_attempts=1,
    )
    persistent = store_dir is not None
    root = store_dir or tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        outcome = run_campaign(
            spec,
            root,
            workers=workers,
            resume=persistent,
            extra_paths=[str(_REPO_ROOT), str(_REPO_ROOT / "src")],
        )
    finally:
        if not persistent:
            shutil.rmtree(root, ignore_errors=True)
    entries: List[Dict] = []
    for cell in outcome.outcomes:
        payload = cell.payload or {}
        entry: Dict = {
            "name": str(cell.cell.params["module"]),
            "ok": cell.status == "ok",
            "elapsed_s": cell.elapsed_s,
            "output": str(payload.get("output", "")),
        }
        if cell.error is not None:  # pragma: no cover - reporting path
            entry["error"] = cell.error
        entries.append(entry)
    return entries


# ----------------------------------------------------------------------
# The invariant gate
# ----------------------------------------------------------------------
def obs_probe(path: str, n: int = 8, steps: int = 24) -> Dict:
    """Record an instrumented run and prove the recorder is invisible.

    Runs the same seeded sync-granular scenario twice — bare, then with
    an :class:`~repro.obs.recorder.ObsRecorder` attached — and requires
    the two traces and delivered bit streams to be bit-identical.  The
    instrumented run is exported as ``repro-obs-v1`` JSONL at ``path``
    (the file ``python -m repro.obs report`` renders).
    """
    from repro.apps.harness import SwarmHarness, ring_positions
    from repro.obs.export import dump_run
    from repro.obs.recorder import ObsRecorder
    from repro.protocols.sync_granular import SyncGranularProtocol

    def run(recorder):
        harness = SwarmHarness(
            ring_positions(n, radius=10.0, jitter=0.06),
            protocol_factory=lambda: SyncGranularProtocol(),
            sigma=4.0,
        )
        if recorder is not None:
            recorder.attach(harness.simulator)
        harness.simulator.protocol_of(0).send_bits(n // 2, [1, 0, 1, 1])
        harness.run(steps)
        if recorder is not None:
            recorder.detach(harness.simulator)
        return harness

    bare = run(None)
    recorder = ObsRecorder(
        meta={
            "protocol": "sync_granular",
            "scheduler": "synchronous",
            "n": n,
            "steps": steps,
            "source": "benchmarks/run_all.py --obs",
        }
    )
    instrumented = run(recorder)
    transparent = (
        bare.simulator.trace.initial_positions
        == instrumented.simulator.trace.initial_positions
        and bare.simulator.trace.steps == instrumented.simulator.trace.steps
        and [
            (e.src, e.dst, e.bit)
            for e in bare.simulator.protocol_of(n // 2).received
        ]
        == [
            (e.src, e.dst, e.bit)
            for e in instrumented.simulator.protocol_of(n // 2).received
        ]
    )
    obs_run = recorder.to_run()
    dump_run(obs_run, path)
    return {
        "path": path,
        "n": n,
        "steps": steps,
        "events": len(obs_run.events),
        "transparent": transparent,
        "metrics": obs_run.metrics,
    }


def sync_invariant_holds() -> bool:
    """The paper's sync-granular cost: exactly 2 instants per bit."""
    from benchmarks.bench_p1_scaling import sync_steps_per_bit

    return all(sync_steps_per_bit(n) == 2.0 for n in (4, 8))


def adversarial_transparency_probe(seeds: int = 2) -> Dict:
    """Caching transparency under *adversarial* schedules.

    Sweeps the full ``repro.verify`` matrix — the benign synchronous
    scheduler plus the bounded-unfair, burst, crash, worst-case-stale
    and displacement adversaries — and requires every cell's caching
    on/off twin runs to stay bit-identical (plus every protocol
    invariant the cell declares).
    """
    from repro.verify import run_matrix as verify_matrix

    report = verify_matrix(seeds=range(seeds), quick=True, minimize=False)
    return {
        "seeds": seeds,
        "runs": len(report.results),
        "failures": len(report.failures),
        "ok": report.ok,
        "violations": [
            str(v) for r in report.failures for v in r.violations
        ][:10],
    }


def invariant_gate(obs_path: Optional[str] = None) -> Dict[str, bool]:
    """Run every gate check inline; map each check to its verdict.

    A check that raises is a violation: its traceback goes to stderr
    and the remaining checks still run and report.
    """

    def adversarial() -> bool:
        report = adversarial_transparency_probe()
        print(
            f"[adversarial_transparency: {report['runs']} runs, "
            f"{report['failures']} failures]"
        )
        return bool(report["ok"])

    def obs() -> bool:
        report = obs_probe(obs_path)
        print(
            f"[obs: {report['events']} events, "
            f"{len(report['metrics'])} metric series -> {report['path']}]"
        )
        return bool(report["transparent"])

    checks: Dict[str, Callable[[], bool]] = {
        "sync_granular_two_steps_per_bit": sync_invariant_holds,
        "adversarial_transparency": adversarial,
    }
    if obs_path:
        checks["obs_transparency"] = obs
    verdicts: Dict[str, bool] = {}
    for name, check in checks.items():
        try:
            verdicts[name] = bool(check())
        except Exception as exc:
            traceback.print_exc()
            print(f"[check {name}: CRASHED — {exc!r}]", file=sys.stderr)
            verdicts[name] = False
    return verdicts


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="the invariant gate only, no table matrix",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the table matrix (default: cpu count)",
    )
    parser.add_argument(
        "--sequential",
        action="store_true",
        help="run the table matrix in-process, one module at a time",
    )
    parser.add_argument(
        "--obs",
        metavar="PATH",
        default=None,
        help="record an instrumented run, write it as repro-obs-v1 "
             "JSONL, and check the recorder changed nothing",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persist the table campaign's result store under DIR "
             "(default: throwaway; re-runs resume from a kept store)",
    )
    args = parser.parse_args(argv)

    failures = 0
    if not args.quick:
        for entry in run_matrix(args.jobs, args.sequential, store_dir=args.store):
            sys.stdout.write(entry["output"])
            if entry["ok"]:
                print(f"[{entry['name']}: ok in {entry['elapsed_s']:.1f}s]")
            else:  # pragma: no cover - reporting path
                failures += 1
                print(
                    f"[{entry['name']}: FAILED — {entry['error']}]",
                    file=sys.stderr,
                )

    for name, ok in invariant_gate(args.obs).items():
        print(f"[invariant {name}: {'ok' if ok else 'VIOLATED'}]")
        if not ok:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
