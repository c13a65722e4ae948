"""``python -m repro.campaign`` — run and inspect experiment campaigns.

Examples::

    # an adversarial-verification sweep, 4 worker processes
    python -m repro.campaign run --verify --seeds 10 --workers 4 \\
        --store .campaigns/verify-sweep

    # kill it (Ctrl-C / SIGKILL / --max-cells), then pick it back up
    python -m repro.campaign run --verify --seeds 10 --workers 4 \\
        --store .campaigns/verify-sweep --resume

    # every benchmark table as a campaign (what run_all uses)
    python -m repro.campaign run --bench --store .campaigns/tables

    # inspect / compare
    python -m repro.campaign status .campaigns/verify-sweep
    python -m repro.campaign report .campaigns/verify-sweep
    python -m repro.campaign diff .campaigns/run-a .campaigns/run-b

Exit status: 0 clean; 1 failed cells or findings (or structural store
disagreement for ``diff``); 2 usage errors; 3 incomplete campaign.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.campaign.report import render_diff, render_report, render_status
from repro.campaign.runner import CellOutcome, run_campaign
from repro.campaign.spec import (
    CampaignSpec,
    bench_cells,
    load_spec,
    verify_cells,
)
from repro.campaign.store import ResultStore
from repro.errors import ReproError


def _csv(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [item.strip() for item in value.split(",") if item.strip()]


def _build_spec(args: argparse.Namespace) -> CampaignSpec:
    """Materialize the campaign the ``run`` flags describe."""
    if args.spec:
        spec = load_spec(args.spec)
    else:
        cells = []
        name_parts = []
        if args.verify:
            cells.extend(
                verify_cells(
                    protocols=_csv(args.protocols),
                    schedulers=_csv(args.schedulers),
                    seeds=args.seeds,
                    repeats=args.repeats,
                    quick=args.quick,
                )
            )
            name_parts.append("verify")
        if args.bench:
            cells.extend(bench_cells())
            name_parts.append("bench")
        if not cells:
            raise ReproError(
                "nothing to run: pass --spec FILE or one of "
                "--verify/--bench"
            )
        spec = CampaignSpec(name=args.name or "-".join(name_parts), cells=cells)
    if args.timeout is not None:
        spec.timeout_s = args.timeout
    if args.max_attempts is not None:
        spec.max_attempts = args.max_attempts
    if args.backoff is not None:
        spec.backoff_s = args.backoff
    return spec


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    store_dir = args.store or os.path.join(".campaigns", spec.name)
    if args.obs_dump:
        dump_dir = os.path.join(store_dir, "obs")
        for cell in spec.cells:
            if cell.kind == "verify":
                cell.options["obs_dump_dir"] = dump_dir
    total = len(spec.cells)
    counter = {"n": 0}

    def progress(outcome: CellOutcome) -> None:
        counter["n"] += 1
        flag = outcome.status if not outcome.payload_ok else "ok"
        print(
            f"[{counter['n']}/{total}] {flag:7s} {outcome.cell.label()} "
            f"(attempt {outcome.attempts}, {outcome.elapsed_s:.2f}s)"
        )

    outcome = run_campaign(
        spec,
        store_dir,
        workers=args.workers,
        resume=args.resume,
        max_cells=args.max_cells,
        progress=progress,
        extra_paths=[os.getcwd()],
    )
    resumed = sum(1 for o in outcome.outcomes if o.resumed)
    print(
        f"campaign {spec.name!r}: {len(outcome.outcomes)}/{total} cells done "
        f"({resumed} resumed), {len(outcome.failed)} failed, "
        f"{len(outcome.findings)} findings, {len(outcome.remaining)} "
        f"remaining, {outcome.elapsed_s:.2f}s wall -> {store_dir}"
    )
    if outcome.failed or outcome.findings:
        return 1
    if outcome.remaining:
        return 3
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    text, code = render_status(ResultStore(args.store))
    print(text)
    return code


def _cmd_report(args: argparse.Namespace) -> int:
    print(render_report(ResultStore(args.store), slowest=args.slowest))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    text, code = render_diff(
        ResultStore(args.store_a),
        ResultStore(args.store_b),
        threshold=args.threshold,
    )
    print(text)
    return code


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run and inspect sharded, resumable experiment campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run (or resume) a campaign")
    run.add_argument("--spec", metavar="FILE", help="JSON campaign spec file")
    run.add_argument("--verify", action="store_true",
                     help="add the repro.verify matrix cells")
    run.add_argument("--bench", action="store_true",
                     help="add every benchmark table cell")
    run.add_argument("--name", default=None, help="campaign name override")
    run.add_argument("--protocols", default=None,
                     help="comma-separated protocol filter (with --verify)")
    run.add_argument("--schedulers", default=None,
                     help="comma-separated scheduler filter (with --verify)")
    run.add_argument("--seeds", type=int, default=5,
                     help="seed count for --verify cells (default 5)")
    run.add_argument("--repeats", type=int, default=1,
                     help="repeats per --verify cell (default 1)")
    run.add_argument("--quick", action="store_true",
                     help="quick step budgets for --verify cells")
    run.add_argument("--store", default=None, metavar="DIR",
                     help="result store directory "
                          "(default .campaigns/<name>)")
    run.add_argument("--workers", type=int, default=0, metavar="N",
                     help="worker processes (0 = run inline)")
    run.add_argument("--resume", action="store_true",
                     help="skip cells already completed in the store")
    run.add_argument("--max-cells", type=int, default=None, metavar="K",
                     help="stop after K new results (simulated kill / smoke)")
    run.add_argument("--timeout", type=float, default=None, metavar="S",
                     help="per-cell timeout override")
    run.add_argument("--max-attempts", type=int, default=None, metavar="N",
                     help="retry budget override")
    run.add_argument("--backoff", type=float, default=None, metavar="S",
                     help="base retry backoff override")
    run.add_argument("--obs-dump", action="store_true",
                     help="dump obs traces of failing verify cells "
                          "under <store>/obs")
    run.set_defaults(func=_cmd_run)

    status = sub.add_parser("status", help="summarize a store")
    status.add_argument("store", help="result store directory")
    status.set_defaults(func=_cmd_status)

    report = sub.add_parser("report", help="full report over a store")
    report.add_argument("store", help="result store directory")
    report.add_argument("--slowest", type=int, default=10,
                        help="slowest-cell rows to show (default 10)")
    report.set_defaults(func=_cmd_report)

    diff = sub.add_parser("diff", help="compare two stores")
    diff.add_argument("store_a", help="baseline store directory")
    diff.add_argument("store_b", help="comparison store directory")
    diff.add_argument("--threshold", type=float, default=0.2,
                      help="relative numeric drift to report (default 0.2)")
    diff.set_defaults(func=_cmd_diff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
