"""The two serve workloads: a closed loop of clients over ``repro.serve``.

``C`` client tasks share one seeded list of sessions.  Each client takes
the next session, creates it, calls ``step(16)`` until the reply says it
is no longer running, closes it, and takes the next: a closed loop, so
a slower service receives less load.  Everything runs in this process
on the in-process pool (``make_pool(0)``); there are no sockets and no
threads beyond the interpreter's.

``serve_mix`` keeps every session live.  ``serve_churn`` caps live
sessions below the client count over a ``SessionStore``, so sessions
are checkpointed on eviction and replayed (with a CRC check) on restore.
"""

from __future__ import annotations

import asyncio
import random
import shutil
from typing import Dict, List, Optional

from perfbench.common import ROOT, Checks, Iteration, Workload, clock, span
from perfbench.trace import Tracer

__all__ = ["SERVE_CHURN", "SERVE_MIX", "expected_outcome"]

#: (app, swarm size) of the fixed-ratio mix, in session order
MIX = (("chat", 2), ("gossip", 8), ("leader_election", 4), ("token_ring", 6))


def _serve_inputs(seed: int, p: Dict[str, object]) -> Dict[str, object]:
    """Seeded session specs, cycling through the apps of the mix."""
    rng = random.Random(seed)
    sessions = []
    for k in range(int(p["sessions"])):
        # The app order and payload lengths are fixed, so every seed
        # asks for the same instants and the same evictions; the seed
        # changes content (texts, values, sources, frames) only.
        app, size = MIX[k % len(MIX)]
        params: Dict[str, object]
        if app == "chat":
            params = {"script": [[0, f"hello {rng.randrange(10**6):06d}"],
                                 [1, f"hi {rng.randrange(10**6):06d}"]]}
        elif app == "gossip":
            params = {"rumor": f"r{rng.randrange(10**4):04d}",
                      "source": rng.randrange(size)}
        elif app == "leader_election":
            values = list(range(10, 10 + size))
            rng.shuffle(values)
            params = {"values": values}
        else:
            params = {"laps": 1}
        sessions.append(
            {"app": app, "size": size, "seed": rng.randrange(1 << 30), "params": params}
        )
    return {"seed": seed, "sessions": sessions}


def expected_outcome(spec: Dict[str, object], summary: Dict[str, object]) -> Optional[str]:
    """None when a closed session's summary is the right app outcome."""
    app, size, params = spec["app"], spec["size"], spec["params"]
    if summary.get("status") != "done":
        return f"{app} ended {summary.get('status')!r}"
    if app == "chat":
        if summary.get("delivered") != [1, 1]:
            return f"chat delivered {summary.get('delivered')} of [1, 1] lines"
    elif app == "gossip":
        if summary.get("informed") != size:
            return f"gossip informed {summary.get('informed')} of {size}"
    elif app == "leader_election":
        values = params["values"]
        leader = values.index(max(values))
        if summary.get("leader") != leader or summary.get("decided_by") != [leader] * size:
            return f"election chose {summary.get('decided_by')}, expected {leader}"
    elif summary.get("hops") != size or summary.get("total_hops") != size:
        return f"token made {summary.get('hops')} of {size} hops"
    return None


def _instrument(tracer: Tracer) -> None:
    """Spans around the serve layers the in-process pool runs inline."""
    import repro.apps.harness as harness_module
    from repro.apps.harness import SwarmHarness
    from repro.channels.transport import MovementChannel
    from repro.serve.host import SessionHost
    from repro.serve.session import Session
    from repro.serve.store import SessionStore

    tracer.patch_span(SessionHost, "step_batch", "serve.host.step_batch")
    tracer.patch_span(Session, "restore", "serve.session.restore")
    tracer.patch_span(Session, "checkpoint", "serve.session.checkpoint")
    tracer.patch_span(Session, "trace_crc", "serve.session.trace_crc")
    tracer.patch_span(SessionStore, "save", "serve.store.save")
    tracer.patch_span(SessionStore, "load", "serve.store.load")
    tracer.patch_span(SwarmHarness, "__init__", "apps.harness.build")
    tracer.patch_span(harness_module, "make_simulator", "model.simulator.build")
    tracer.patch_leaf(MovementChannel, "poll", "channels.poll")

    def make_init(fn):
        def init(self, spec):
            with tracer.span("serve.session.build"):
                fn(self, spec)
            self.harness.simulator.set_phase_hook(tracer.phase_hook)

        return init

    def make_step(fn):
        def step(self, instants):
            if not tracer.inside("serve.session.restore"):
                with tracer.span("serve.session.step"):
                    ran = fn(self, instants)
                tracer.count("serve.session.useful_instants", ran)
                return ran
            # Replay is charged whole to its own layer: the engine
            # phases it re-runs are restore cost, not useful stepping.
            simulator = self.harness.simulator
            hook = simulator.set_phase_hook(None)
            try:
                with tracer.span("serve.session.replay"):
                    ran = fn(self, instants)
            finally:
                simulator.set_phase_hook(hook)
            tracer.count("serve.session.replayed_instants", ran)
            return ran

        return step

    tracer.patch(Session, "__init__", make_init)
    tracer.patch(Session, "step", make_step)


async def _episode(inputs, p, tracer: Optional[Tracer], store_dir) -> Iteration:
    from repro.obs.live import RequestTracer
    from repro.serve import (
        ServeClient, ServeConfig, Session, SessionManager, SessionStore, make_pool,
    )

    def build():
        store = SessionStore(str(store_dir)) if p["store"] else None
        return SessionManager(
            make_pool(0),
            store=store,
            config=ServeConfig(max_live=int(p["max_live"])),
            tracer=RequestTracer(ring_size=1 << 20) if tracer is not None else None,
        )

    # Extra start/stop cycles so set-up time is a median, not one sample.
    setup_samples: List[float] = []
    for _ in range(int(p["setup_repeats"])):
        t0 = clock()
        manager = build()
        manager.start()
        setup_samples.append(clock() - t0)
        await manager.stop()
        shutil.rmtree(store_dir, ignore_errors=True)

    checks = Checks()
    steps: List[float] = []
    activations = 0
    queue = list(reversed(inputs["sessions"]))
    started = clock()
    with span(tracer, "serve.manager.start"):
        manager = build()
        manager.start()
    setup_samples.append(clock() - started)
    client = ServeClient(manager)
    instants = int(p["instants_per_step"])
    cap = int(p["max_requests"])

    async def client_loop() -> None:
        nonlocal activations
        from repro.errors import ReproError

        while queue:
            spec = queue.pop()
            try:
                sid = await client.create(
                    spec["app"], spec["size"], seed=spec["seed"], params=spec["params"]
                )
                status, requests = "running", 0
                while status == "running" and requests < cap:
                    t0 = clock()
                    doc = await client.step(sid, instants)
                    steps.append(clock() - t0)
                    status, requests = doc["status"], requests + 1
                summary = await client.query(sid)
                if summary.get("evicted"):
                    # Parked sessions answer without the app outcome:
                    # replay the checkpoint (CRC-checked) to read it.
                    checkpoint = await client.checkpoint(sid)
                    summary = Session.restore(checkpoint).summary()
                await client.close(sid)
            except ReproError as exc:
                checks.expect(False, f"{spec['app']}: {type(exc).__name__}: {exc}")
                continue
            problem = expected_outcome(spec, summary)
            checks.expect(problem is None, problem or "")
            activations += int(spec["size"]) * int(summary["steps_applied"])

    run_started = clock()
    await asyncio.gather(*(client_loop() for _ in range(int(p["clients"]))))
    run_s = clock() - run_started
    stats = manager.stats()
    await manager.stop()
    wall_s = clock() - started

    checks.expect(stats["rejections"] == 0, f"{stats['rejections']} requests rejected")
    if p["store"]:
        checks.expect(stats["restores"] > 0, "no session was restored")
    else:
        checks.expect(stats["restores"] == 0, f"{stats['restores']} restores without eviction")
    layer: Dict[str, object] = {
        "serve.manager.evictions": stats["evictions"],
        "serve.manager.restores": stats["restores"],
        "serve.manager.rejections": stats["rejections"],
        "serve.store.checkpoint_bytes": stats["checkpoint_bytes"],
        "serve.client.sessions": len(inputs["sessions"]),
        "serve.client.step_requests": len(steps),
    }
    if manager.tracer is not None:
        for trace in manager.tracer.ring.traces():
            if trace.op == "step":
                for name, seconds in trace.span_seconds().items():
                    layer.setdefault(f"requests.{name}", []).append(seconds)  # type: ignore[union-attr]
    return Iteration(
        setup_s=setup_samples,
        wall_s=wall_s,
        run_s=run_s,
        activations=activations,
        steps=steps,
        checks=checks,
        layer=layer,
    )


def _serve_iterate(inputs, p, tracer: Optional[Tracer]) -> Iteration:
    store_dir = ROOT / ".perfbench" / "store"
    shutil.rmtree(store_dir, ignore_errors=True)
    if tracer is not None:
        _instrument(tracer)
    try:
        return asyncio.run(_episode(inputs, p, tracer, store_dir))
    finally:
        if tracer is not None:
            tracer.unpatch()
        shutil.rmtree(store_dir, ignore_errors=True)


_SERVE_COMMON = {"instants_per_step": 16, "max_requests": 1_000, "setup_repeats": 100}

SERVE_MIX = Workload(
    name="serve_mix",
    params={**_SERVE_COMMON, "sessions": 64, "clients": 32, "max_live": 64,
            "store": False},
    tiny={"sessions": 8, "clients": 4, "setup_repeats": 1},
    min_iterations=2,
    make_inputs=_serve_inputs,
    iterate=_serve_iterate,
)

SERVE_CHURN = Workload(
    name="serve_churn",
    params={**_SERVE_COMMON, "sessions": 64, "clients": 16, "max_live": 8,
            "store": True},
    tiny={"sessions": 8, "clients": 4, "max_live": 2, "setup_repeats": 1},
    min_iterations=1,
    make_inputs=_serve_inputs,
    iterate=_serve_iterate,
)
