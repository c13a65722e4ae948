"""``python -m repro.serve`` — serve, status, smoke.

* ``serve``  — run the TCP JSONL front end until interrupted.
* ``status`` — one ``stats``/``healthz``/``telemetry`` round-trip
  against a running service (``--op``).
* ``smoke``  — boot an in-process service, drive N sessions across
  all four apps with forced eviction + CRC-verified restore,
  optionally export one session's obs trace and/or scrape + validate
  the live ``/metrics`` + ``/healthz`` endpoints (the CI smoke job).
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
from typing import List, Optional

from repro.serve import (
    ServeClient,
    ServeConfig,
    SessionManager,
    SessionStore,
    install_uvloop,
    make_pool,
)

_SMOKE_APPS = ("chat", "gossip", "leader_election", "token_ring")


def _cmd_serve(args) -> int:
    from repro.serve.net import serve_forever

    if install_uvloop():
        print("[repro.serve] event loop: uvloop")
    else:
        print("[repro.serve] event loop: asyncio (uvloop not installed)")

    from repro.obs.live import RequestTracer

    async def run() -> None:
        store = SessionStore(args.store) if args.store else None
        config = ServeConfig(max_live=args.max_live)
        async with SessionManager(
            make_pool(args.workers), store=store, config=config,
            tracer=RequestTracer(),
        ) as manager:
            await serve_forever(manager, host=args.host, port=args.port)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("[repro.serve] interrupted; shut down")
    return 0


def _cmd_status(args) -> int:
    from repro.serve.net import request

    reply = asyncio.run(
        request({"op": args.op}, host=args.host, port=args.port)
    )
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0 if reply.get("ok") else 1


async def _scrape_endpoints(port: int, out_path: str) -> bool:
    """Scrape /metrics + /healthz mid-run; validate, persist, verdict."""
    from repro.errors import ObservabilityError
    from repro.obs.live import validate_exposition
    from repro.serve.net import scrape

    metrics_status, exposition = await scrape("/metrics", port=port)
    health_status, health_body = await scrape("/healthz", port=port)
    try:
        samples = validate_exposition(exposition)
    except ObservabilityError as exc:
        print(f"[smoke: scrape INVALID — {exc}]")
        return False
    requests_total = sum(
        float(line.rsplit(" ", 1)[1])
        for line in exposition.splitlines()
        if line.startswith("serve_requests_total{")
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(f"# healthz {health_status} {health_body}\n")
        handle.write(exposition)
    ok = (
        metrics_status == 200
        and health_status in (200, 503)
        and requests_total > 0
    )
    print(
        f"[smoke: scraped {samples} samples "
        f"({int(requests_total)} requests counted), healthz "
        f"{health_status} -> {out_path} {'OK' if ok else 'FAIL'}]"
    )
    return ok


async def _smoke(args) -> int:
    """N sessions over a tiny ``max_live``: every layer gets touched."""
    from repro.obs.live import RequestTracer

    async def run(root: str) -> int:
        config = ServeConfig(max_live=args.max_live)
        scrape_ok = True
        async with SessionManager(
            make_pool(args.workers), store=SessionStore(root), config=config,
            tracer=RequestTracer(),
        ) as manager:
            server = None
            if args.scrape:
                from repro.serve.net import start_server

                server = await start_server(manager)
                port = server.sockets[0].getsockname()[1]
            client = ServeClient(manager)

            async def drive(i: int) -> str:
                app = _SMOKE_APPS[i % len(_SMOKE_APPS)]
                record = args.obs is not None and i == 0
                if app == "chat":
                    sid = await client.create(
                        app, 2, seed=i,
                        params={"script": [[0, f"hi {i}"], [1, f"yo {i}"]]},
                        record=record,
                    )
                elif app == "gossip":
                    sid = await client.create(
                        app, 5, seed=i, params={"rumor": f"r{i}"}, record=record
                    )
                else:
                    sid = await client.create(app, 4, seed=i, record=record)
                doc = await client.run_to_completion(sid, instants_per_step=32)
                if record:
                    path = await client.export_obs(sid, args.obs)
                    print(f"[smoke: obs trace -> {path}]")
                summary = await client.close(sid)
                if doc["status"] != "done":
                    raise SystemExit(
                        f"smoke session {sid} ({app}) ended {doc['status']}: "
                        f"{summary}"
                    )
                return str(doc["status"])

            outcomes = await asyncio.gather(
                *(drive(i) for i in range(args.sessions))
            )
            if server is not None:
                # the service is still up: this is the live scrape the
                # CI job asserts on
                scrape_ok = await _scrape_endpoints(port, args.scrape)
                server.close()
                await server.wait_closed()
            stats = manager.stats()

        ok = (
            all(status == "done" for status in outcomes)
            and stats["evictions"] > 0
            and stats["restores"] > 0
            and scrape_ok
        )
        print(
            f"[smoke: {len(outcomes)} sessions done over "
            f"max_live={args.max_live}; {stats['evictions']} evictions, "
            f"{stats['restores']} CRC-verified restores, "
            f"{stats['instants']} instants -> {'OK' if ok else 'FAIL'}]"
        )
        return 0 if ok else 1

    if args.store:
        return await run(args.store)
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as root:
        return await run(root)


def _cmd_smoke(args) -> int:
    return asyncio.run(_smoke(args))


def main(argv: Optional[List[str]] = None) -> int:
    """Parse one subcommand and run it; returns the process exit code."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run the TCP front end")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7642)
    p_serve.add_argument("--workers", type=int, default=0)
    p_serve.add_argument("--max-live", type=int, default=1024)
    p_serve.add_argument("--store", default=None,
                         help="checkpoint store root (enables eviction)")
    p_serve.set_defaults(func=_cmd_serve)

    p_status = sub.add_parser("status", help="query a running service")
    p_status.add_argument("--host", default="127.0.0.1")
    p_status.add_argument("--port", type=int, default=7642)
    p_status.add_argument("--op", default="stats",
                          choices=("stats", "healthz", "telemetry"),
                          help="which status verb to round-trip")
    p_status.set_defaults(func=_cmd_status)

    p_smoke = sub.add_parser("smoke", help="short all-apps service exercise")
    p_smoke.add_argument("--sessions", type=int, default=50)
    p_smoke.add_argument("--workers", type=int, default=0)
    p_smoke.add_argument("--max-live", type=int, default=8)
    p_smoke.add_argument("--store", default=None)
    p_smoke.add_argument("--obs", default=None,
                         help="export session 0's obs trace to this path")
    p_smoke.add_argument(
        "--scrape", metavar="PATH", default=None,
        help="boot the TCP front end, scrape /metrics + /healthz "
             "mid-run, validate the exposition and write it here",
    )
    p_smoke.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
