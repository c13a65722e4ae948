"""Seeded load generator for the serving layer (``bench_serve``).

Two phases, one number sheet:

* **Throughput** — open-loop arrivals: session creations fire on a
  seeded exponential schedule *regardless* of how fast the service is
  draining work (the arrival process never waits for completions, so
  the measured latencies include real queueing).  Every session is a
  scripted two-robot chat driven to completion through the in-process
  client; with arrivals far faster than service, all of them are open
  simultaneously mid-run — quick mode holds ≥ 1000 concurrent
  sessions.  Reports sessions/sec, instants/sec (step throughput) and
  p50/p99 step latency measured at the client.
* **Churn** — a deliberately tiny ``max_live`` over a persistent
  :class:`~repro.serve.store.SessionStore` forces continuous
  checkpoint → evict → restore cycling while the sessions make
  progress.  Every restore replays the event-sourced checkpoint and
  recomputes the trace CRC against the stored witness
  (:meth:`repro.serve.session.Session.restore`), so the reported
  ``crc_verified_restores`` count *is* the number of byte-identity
  proofs that ran; the phase fails loudly if no eviction happened.

The row lands in ``BENCH_history.jsonl`` via ``--history`` (run id
``bench_serve-quick``/``-full``) where ``python -m repro.obs regress``
gates it longitudinally, next to the batch and event-engine benches.
"""

from __future__ import annotations

import asyncio
import random
import tempfile
import time
from typing import Dict, List, Optional

from repro.errors import ServeError
from repro.obs.live import RequestTracer
from repro.obs.stream import percentile
from repro.serve.client import ServeClient
from repro.serve.manager import ServeConfig, SessionManager
from repro.serve.pool import make_pool
from repro.serve.store import SessionStore

__all__ = ["churn_phase", "main", "run_bench", "throughput_phase"]


async def _drive_chat(
    client: ServeClient,
    seed: int,
    latencies: List[float],
    instants_per_step: int = 16,
    close: bool = True,
) -> str:
    """One load-generator session: create, chat to completion.

    With ``close=False`` the finished session stays open (the
    throughput phase holds the whole cohort open so the service
    demonstrably sustains all of them concurrently, then closes them
    in one sweep at the end).
    """
    sid = await client.create(
        "chat",
        size=2,
        seed=seed,
        params={"script": [[0, f"ping {seed}"], [1, f"pong {seed}"]]},
    )
    status = "running"
    requests = 0
    while status == "running" and requests < 500:
        started = time.perf_counter()
        doc = await client.step(sid, instants_per_step)
        latencies.append(time.perf_counter() - started)
        status = str(doc["status"])
        requests += 1
    if close:
        await client.close(sid)
    return status


async def throughput_phase(
    sessions: int,
    workers: int = 0,
    seed: int = 0,
    arrival_rate: float = 4000.0,
) -> Dict[str, object]:
    """Open-loop arrivals at ``arrival_rate``/s, all driven to done."""
    rng = random.Random(seed)
    config = ServeConfig(
        max_live=max(2 * sessions, 2048),
        queue_high=max(4 * sessions, 4096),
        queue_low=max(sessions, 1024),
    )
    latencies: List[float] = []
    outcomes: List[str] = []
    started = time.perf_counter()
    tracer = RequestTracer()
    async with SessionManager(
        make_pool(workers), config=config, tracer=tracer
    ) as manager:
        client = ServeClient(manager)

        async def one(session_seed: int) -> None:
            outcomes.append(
                await _drive_chat(client, session_seed, latencies, close=False)
            )

        tasks = []
        for i in range(sessions):
            # Open loop: the schedule never waits for service progress.
            await asyncio.sleep(rng.expovariate(arrival_rate))
            tasks.append(asyncio.ensure_future(one(seed * 100_003 + i)))
        await asyncio.gather(*tasks)
        stats = manager.stats()
        snapshot = manager.registry.collect()
        for sid in manager.session_ids():
            await client.close(sid)
    wall_s = time.perf_counter() - started
    completed = sum(1 for status in outcomes if status == "done")
    if completed != sessions:
        raise ServeError(
            f"load generator lost sessions: {completed}/{sessions} completed "
            f"(outcomes {sorted(set(outcomes))})"
        )
    latencies.sort()
    return {
        "sessions": sessions,
        "completed": completed,
        "peak_concurrent": stats["peak_open"],
        "wall_s": wall_s,
        "sessions_per_sec": completed / wall_s if wall_s > 0 else 0.0,
        "instants_total": stats["instants"],
        "steps_per_sec": stats["instants"] / wall_s if wall_s > 0 else 0.0,
        "step_p50_ms": 1e3 * percentile(latencies, 50),
        "step_p99_ms": 1e3 * percentile(latencies, 99),
        # server-side queueing, attributed by the request tracer (the
        # rolling window covers the tail of the run)
        "queue_wait_p99_ms": 1e3 * tracer.span_percentile("queue-wait", 99),
        "rejections": stats["rejections"],
        "workers": stats["workers"],
        # SLO attainment / error-budget burn over the same run, so the
        # regress gate watches objectives, not just raw latencies
        **tracer.slo.as_metrics(),
        "metrics": snapshot,
    }


async def churn_phase(
    sessions: int = 48,
    max_live: int = 12,
    seed: int = 0,
    store_root: Optional[str] = None,
) -> Dict[str, object]:
    """Evict/restore under memory pressure; every restore proves CRC."""

    async def run(root: str) -> Dict[str, object]:
        config = ServeConfig(max_live=max_live)
        latencies: List[float] = []
        started = time.perf_counter()
        async with SessionManager(
            make_pool(0), store=SessionStore(root), config=config
        ) as manager:
            client = ServeClient(manager)
            tasks = [
                asyncio.ensure_future(
                    _drive_chat(client, seed * 7_919 + i, latencies,
                                instants_per_step=8)
                )
                for i in range(sessions)
            ]
            outcomes = await asyncio.gather(*tasks)
            stats = manager.stats()
        wall_s = time.perf_counter() - started
        if any(status != "done" for status in outcomes):
            raise ServeError(f"churn sessions did not finish: {outcomes}")
        if not stats["evictions"] or not stats["restores"]:
            raise ServeError(
                f"churn phase failed to exercise eviction: "
                f"{stats['evictions']} evictions, {stats['restores']} restores"
            )
        return {
            "churn_sessions": sessions,
            "churn_max_live": max_live,
            "churn_wall_s": wall_s,
            "evictions": stats["evictions"],
            "restores": stats["restores"],
            # Session.restore recomputes the trace CRC against the
            # checkpoint witness on every restore — each one is a
            # byte-identity proof.
            "crc_verified_restores": stats["restores"],
            "checkpoint_bytes": stats["checkpoint_bytes"],
        }

    if store_root is not None:
        return await run(store_root)
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as root:
        return await run(root)


def run_bench(
    quick: bool = False,
    sessions: Optional[int] = None,
    workers: int = 0,
    seed: int = 0,
) -> Dict[str, object]:
    """Both phases; returns the flat row the history entry is built from."""
    if sessions is None:
        sessions = 1_050 if quick else 2_000
    row: Dict[str, object] = {"mode": "quick" if quick else "full", "seed": seed}
    row.update(
        asyncio.run(throughput_phase(sessions, workers=workers, seed=seed))
    )
    row.update(asyncio.run(churn_phase(seed=seed)))
    return row


def main(argv: Optional[List[str]] = None) -> int:
    """CLI twin of :func:`run_bench`; ``--history`` appends the entry."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run: ~1050 sessions (still >= 1000 concurrent)",
    )
    parser.add_argument("--sessions", type=int, default=None,
                        help="override the session count")
    parser.add_argument("--workers", type=int, default=0,
                        help="process workers (0 = in-process host)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--history", metavar="PATH", default=None,
        help="append the bench metrics to this history file",
    )
    args = parser.parse_args(argv)

    row = run_bench(
        quick=args.quick, sessions=args.sessions,
        workers=args.workers, seed=args.seed,
    )
    print(
        f"[serve throughput: {row['completed']} sessions "
        f"(peak {row['peak_concurrent']} concurrent) in {row['wall_s']:.2f}s "
        f"-> {row['sessions_per_sec']:,.0f} sessions/s, "
        f"{row['steps_per_sec']:,.0f} instants/s, "
        f"step p50 {row['step_p50_ms']:.1f} ms / p99 {row['step_p99_ms']:.1f} ms]"
    )
    print(
        f"[serve churn: {row['churn_sessions']} sessions over "
        f"max_live={row['churn_max_live']}: {row['evictions']} evictions, "
        f"{row['restores']} CRC-verified restores in {row['churn_wall_s']:.2f}s]"
    )
    print(
        f"[serve slo: step-latency {row['slo_step_latency_attainment']:.4f}, "
        f"availability {row['slo_availability_attainment']:.4f}, "
        f"queue-wait p99 {row['queue_wait_p99_ms']:.1f} ms -> "
        f"{'OK' if row['slo_ok'] else 'VIOLATED'}]"
    )
    if row["peak_concurrent"] < min(1_000, row["sessions"]):  # type: ignore[operator]
        print("[serve: WARNING — peak concurrency below target]")

    if args.history:
        from repro.obs.history import HistoryStore, entry_from_registry
        from repro.obs.history.ingest import flatten_scalars
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        registry.absorb(
            flatten_scalars(
                {k: v for k, v in row.items() if k not in ("metrics", "mode")}
            ),
            probe="serve",
        )
        from repro.obs.history import metrics_from_snapshot

        registry.absorb(dict(metrics_from_snapshot(row["metrics"])))  # type: ignore[arg-type]
        entry = HistoryStore(args.history).append(
            entry_from_registry(
                registry,
                run_id=f"bench_serve-{row['mode']}",
                meta={"sessions": row["sessions"], "mode": row["mode"]},
            )
        )
        print(
            f"[history: entry #{entry.seq} "
            f"({len(entry.metrics)} metrics) -> {args.history}]"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
