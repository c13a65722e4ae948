"""``python -m repro.obs`` — inspect runs and their history.

Examples::

    python -m repro.obs report run.jsonl        # every view
    python -m repro.obs timeline run.jsonl      # activation timeline only
    python -m repro.obs gantt run.jsonl         # bit-transmission Gantt
    python -m repro.obs metrics run.jsonl       # metrics tables
    python -m repro.obs timeline run.jsonl --format json   # machine form
    python -m repro.obs profile run.jsonl       # wall-time per phase
    python -m repro.obs hotspots run.jsonl      # self/total-time table
    python -m repro.obs causal run.jsonl        # happens-before DAG
    python -m repro.obs causal run.jsonl --critical-path
                                                # latency attribution
    python -m repro.obs causal run.jsonl --dot  # graphviz form
    python -m repro.obs watch run.jsonl         # live per-flow latency
                                                # percentiles (tails the
                                                # file as it grows)
    python -m repro.obs top --port 7642         # live service dashboard
                                                # (requests, spans, SLOs
                                                # of a running server)
    python -m repro.obs diff a.jsonl b.jsonl    # what changed, and the
                                                # first diverging event
    python -m repro.obs diff 3 4 --history BENCH_history.jsonl
    python -m repro.obs history                 # the metrics history
    python -m repro.obs regress                 # gate on regressions
    python -m repro.obs regress --report-only   # chart, never gate
    python -m repro.obs demo demo.jsonl         # record a 2-robot
                                                # sync_two run, then
                                                # inspect it

Run files may be gzipped (``run.jsonl.gz``); the loader decides by
suffix.  Exit status: 0 on success, 1 when a run or history file is
missing or garbled (a one-line diagnostic, never a traceback), 2 on
usage errors, 3 when ``regress`` (not ``--report-only``) or ``diff
--gate`` found a difference worth failing on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.obs.causal import (
    build_causal,
    causal_to_dot,
    causal_to_json,
    render_causal,
    render_critical_path,
)
from repro.obs.diff import diff_history_entries, diff_runs, render_diff
from repro.obs.export import ObsRun, dump_run, load_run
from repro.obs.history import (
    HistoryStore,
    RegressPolicy,
    detect,
    render_regression_line,
    render_regressions,
)
from repro.obs.profiler import render_hotspots
from repro.obs.report import (
    gantt_to_json,
    metrics_to_json,
    render_gantt,
    render_metrics,
    render_profile,
    render_report,
    render_timeline,
    timeline_to_json,
)
from repro.obs.stream import watch_file

_VIEWS = {
    "report": render_report,
    "timeline": render_timeline,
    "gantt": render_gantt,
    "metrics": lambda run, width=None: render_metrics(run),
    "profile": lambda run, width=None: render_profile(run),
}

#: the machine-readable twins behind ``--format json``.
_JSON_VIEWS = {
    "timeline": timeline_to_json,
    "gantt": gantt_to_json,
    "metrics": metrics_to_json,
}

#: default location of the longitudinal metrics history.
DEFAULT_HISTORY = "BENCH_history.jsonl"


class _CliError(Exception):
    """A user-facing failure: printed as one line, exit status 1."""


def _load(path: str) -> ObsRun:
    """Load a run file, or raise a one-line :class:`_CliError`."""
    try:
        return load_run(path)
    except FileNotFoundError:
        raise _CliError(f"no such run file: {path}") from None
    except ReproError as exc:
        raise _CliError(f"{path}: {exc}") from exc
    except OSError as exc:
        # IsADirectoryError, PermissionError, BadGzipFile, ...
        raise _CliError(f"{path}: {exc}") from exc


def _history_store(path: str, must_exist: bool = True) -> HistoryStore:
    store = HistoryStore(path)
    if must_exist and not store.exists():
        raise _CliError(f"no such history file: {path}")
    return store


def _history_entries(path: str):
    try:
        return _history_store(path).entries()
    except ReproError as exc:
        raise _CliError(str(exc)) from exc
    except OSError as exc:
        raise _CliError(f"{path}: {exc}") from exc


def record_demo(path: str, steps: int = 12, payload: Optional[List[int]] = None) -> str:
    """Record the canonical 2-robot sync_two run; returns the path.

    This is the CI smoke recipe: two robots, one flow, a short
    payload, synchronous schedule — enough to exercise every event
    kind except faults.
    """
    from repro.apps.harness import SwarmHarness
    from repro.geometry.vec import Vec2
    from repro.obs.recorder import ObsRecorder
    from repro.protocols.sync_two import SyncTwoProtocol

    bits = payload if payload is not None else [1, 0, 1]
    harness = SwarmHarness(
        [Vec2(0.0, 0.0), Vec2(10.0, 0.0)],
        protocol_factory=lambda: SyncTwoProtocol(),
        identified=False,
        sigma=6.0,
    )
    recorder = ObsRecorder(
        meta={"protocol": "sync_two", "scheduler": "synchronous", "demo": True}
    )
    recorder.attach(harness.simulator)
    harness.simulator.protocol_of(0).send_bits(1, bits)
    harness.run(steps)
    recorder.detach(harness.simulator)
    return dump_run(recorder.to_run(), path)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_view(args: argparse.Namespace) -> int:
    run = _load(args.run)
    if getattr(args, "format", "ascii") == "json":
        print(json.dumps(_JSON_VIEWS[args.command](run), indent=2))
        return 0
    print(_VIEWS[args.command](run, width=args.width))
    return 0


def _cmd_causal(args: argparse.Namespace) -> int:
    trace = build_causal(_load(args.run))
    if args.json:
        print(json.dumps(causal_to_json(trace), indent=2))
    elif args.dot:
        print(causal_to_dot(trace))
    elif args.critical_path:
        print(render_critical_path(trace))
    else:
        print(render_causal(trace))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    if not os.path.exists(args.run):
        raise _CliError(f"no such run file: {args.run}")
    try:
        watch_file(
            args.run,
            interval=args.interval,
            iterations=args.iterations,
            window=args.window,
            once=args.once,
        )
    except KeyboardInterrupt:
        pass  # a tail loop's normal exit
    except OSError as exc:
        raise _CliError(f"{args.run}: {exc}") from exc
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over a running service's telemetry op."""
    import asyncio
    import time as _time

    from repro.obs.live import render_top
    from repro.serve.net import request  # lazy: serve is optional here

    frame = 0
    while True:
        try:
            reply = asyncio.run(
                request({"op": "telemetry"}, host=args.host, port=args.port)
            )
        except (ConnectionError, OSError) as exc:
            raise _CliError(
                f"no service at {args.host}:{args.port} ({exc})"
            ) from exc
        if not reply.get("ok"):
            raise _CliError(
                f"telemetry request failed: {reply.get('message', reply)}"
            )
        frame += 1
        if not args.once and frame > 1:
            print()
        print(f"-- top frame {frame} @ {args.host}:{args.port} --")
        print(render_top(reply))
        if args.once or (args.iterations and frame >= args.iterations):
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    path = record_demo(args.out, steps=args.steps)
    print(f"[recorded 2-robot sync_two run -> {path}]")
    return 0


def _cmd_hotspots(args: argparse.Namespace) -> int:
    runs = [_load(path) for path in args.runs]
    print(render_hotspots(runs, top=args.top or None))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    if args.history is not None:
        entries = {e.seq: e for e in _history_entries(args.history)}
        try:
            seq_a, seq_b = int(args.a), int(args.b)
        except ValueError:
            raise _CliError(
                "with --history, A and B are entry seq numbers "
                f"(got {args.a!r}, {args.b!r})"
            ) from None
        for seq in (seq_a, seq_b):
            if seq not in entries:
                raise _CliError(
                    f"no history entry #{seq} in {args.history} "
                    f"(have {sorted(entries)})"
                )
        diff = diff_history_entries(entries[seq_a], entries[seq_b])
        label_a, label_b = f"entry #{seq_a}", f"entry #{seq_b}"
    else:
        diff = diff_runs(_load(args.a), _load(args.b))
        label_a, label_b = args.a, args.b
    print(render_diff(diff, label_a=label_a, label_b=label_b))
    if args.gate and not diff.identical:
        return 3
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    store = _history_store(args.history)
    entries = _history_entries(args.history)
    if args.metric:
        series = store.series(args.metric)
        if not series:
            raise _CliError(
                f"no metric {args.metric!r} anywhere in {args.history}"
            )
        print(f"history of {args.metric}:")
        for seq, value in series[-args.last:] if args.last else series:
            print(f"  #{seq:<6d} {value:.6g}")
        return 0
    shown = entries[-args.last:] if args.last else entries
    print(f"history: {len(entries)} entries in {args.history}")
    for entry in shown:
        commit = (entry.git_commit or "-")[:12]
        print(
            f"  #{entry.seq:<6d} {entry.source:<9s} {entry.run_id:<18s} "
            f"commit {commit:<12s} {len(entry.metrics)} metrics"
        )
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    policy = RegressPolicy(
        window=args.window,
        min_samples=args.min_samples,
        mad_k=args.mad_k,
        rel_tolerance=args.rel_tolerance,
        abs_tolerance=args.abs_tolerance,
        metrics=tuple(args.metric) if args.metric else None,
    )
    entries = _history_entries(args.history)
    report = detect(entries, policy)
    print(render_regressions(report))
    if args.report_only or report.ok:
        return 0
    # The exit-3 path also gets a one-line, grep-able diagnostic on
    # stderr naming each offender and the band it had to stay inside.
    print(render_regression_line(report, policy), file=sys.stderr)
    return 3


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=(
            "Inspect exported observability runs (repro-obs-v1 JSONL, "
            "optionally gzipped) and the longitudinal metrics history."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("report", "render every view of a run"),
        ("timeline", "render the activation timeline"),
        ("gantt", "render the per-flow bit-transmission Gantt"),
        ("metrics", "render the metrics tables"),
        ("profile", "render the wall-time-per-phase profile"),
    ):
        view = sub.add_parser(name, help=help_text)
        view.add_argument("run", help="path to an exported run (JSONL, or .gz)")
        view.add_argument(
            "--width", type=int, default=None,
            help="maximum timeline columns (default 72; wide runs are strided)",
        )
        if name in _JSON_VIEWS:
            view.add_argument(
                "--format", choices=("ascii", "json"), default="ascii",
                help="output format (default ascii)",
            )
        view.set_defaults(func=_cmd_view)

    causal = sub.add_parser(
        "causal",
        help="happens-before DAG: flows, critical paths, latency attribution",
    )
    causal.add_argument("run", help="path to an exported run (JSONL, or .gz)")
    mode = causal.add_mutually_exclusive_group()
    mode.add_argument(
        "--critical-path", action="store_true",
        help="per-flow critical path with 100%% latency attribution",
    )
    mode.add_argument(
        "--dot", action="store_true", help="graphviz dot of every flow's DAG"
    )
    mode.add_argument(
        "--json", action="store_true", help="full machine form (repro-causal-v1)"
    )
    causal.set_defaults(func=_cmd_causal)

    watch = sub.add_parser(
        "watch",
        help="tail a growing trace, printing rolling per-flow latency "
             "percentiles",
    )
    watch.add_argument("run", help="trace being appended to (JSONL; .gz => one frame)")
    watch.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between frames (default 2)",
    )
    watch.add_argument(
        "--iterations", type=int, default=0,
        help="stop after N frames (default 0 = until interrupted)",
    )
    watch.add_argument(
        "--window", type=int, default=256,
        help="rolling latency window per flow (default 256)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="read the whole file, print one frame, exit",
    )
    watch.set_defaults(func=_cmd_watch)

    top = sub.add_parser(
        "top",
        help="live dashboard over a running service (requests, spans, SLOs)",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7642)
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between frames (default 2)",
    )
    top.add_argument(
        "--iterations", type=int, default=0,
        help="stop after N frames (default 0 = until interrupted)",
    )
    top.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )
    top.set_defaults(func=_cmd_top)

    hotspots = sub.add_parser(
        "hotspots",
        help="self/total-time hotspot tables, per protocol x scheduler",
    )
    hotspots.add_argument(
        "runs", nargs="+", help="one or more exported runs (JSONL, or .gz)"
    )
    hotspots.add_argument(
        "--top", type=int, default=10,
        help="rows per table (default 10; 0 = all)",
    )
    hotspots.set_defaults(func=_cmd_hotspots)

    diff = sub.add_parser(
        "diff", help="compare two runs (or two history entries)"
    )
    diff.add_argument("a", help="run file A (or entry seq with --history)")
    diff.add_argument("b", help="run file B (or entry seq with --history)")
    diff.add_argument(
        "--history", metavar="PATH", default=None,
        help="diff two entries of this history file instead of run files",
    )
    diff.add_argument(
        "--gate", action="store_true",
        help="exit 3 when the two sides differ at all",
    )
    diff.set_defaults(func=_cmd_diff)

    history = sub.add_parser(
        "history", help="list the metrics history (or one metric's series)"
    )
    history.add_argument(
        "--history", metavar="PATH", default=DEFAULT_HISTORY,
        help=f"history file (default {DEFAULT_HISTORY})",
    )
    history.add_argument(
        "--metric", default=None, help="show this one metric over time"
    )
    history.add_argument(
        "--last", type=int, default=0, help="only the most recent N entries"
    )
    history.set_defaults(func=_cmd_history)

    regress = sub.add_parser(
        "regress", help="judge the latest history entry against its baseline"
    )
    regress.add_argument(
        "--history", metavar="PATH", default=DEFAULT_HISTORY,
        help=f"history file (default {DEFAULT_HISTORY})",
    )
    regress.add_argument(
        "--report-only", action="store_true",
        help="always exit 0 (chart without gating)",
    )
    regress.add_argument(
        "--window", type=int, default=10, help="baseline window (entries)"
    )
    regress.add_argument(
        "--min-samples", type=int, default=3,
        help="skip metrics with fewer baseline points than this",
    )
    regress.add_argument(
        "--mad-k", type=float, default=4.0,
        help="noise band half-width, in scaled MADs",
    )
    regress.add_argument(
        "--rel-tolerance", type=float, default=0.10,
        help="minimum relative deviation to flag (0.10 = 10%%)",
    )
    regress.add_argument(
        "--abs-tolerance", type=float, default=0.0,
        help="minimum absolute deviation to flag",
    )
    regress.add_argument(
        "--metric", action="append", default=None,
        help="only check this metric (repeatable)",
    )
    regress.set_defaults(func=_cmd_regress)

    demo = sub.add_parser(
        "demo", help="record a 2-robot sync_two run and write it as JSONL"
    )
    demo.add_argument("out", help="path to write the recorded run to")
    demo.add_argument("--steps", type=int, default=12, help="instants to run")
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed the pipe (| head, a pager) — not an error.
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
