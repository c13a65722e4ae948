"""Request-scoped tracing through the serving tier.

The acceptance bar from the observability plane:

* a request through :class:`ServeClient` (and through the TCP front
  end) yields a trace whose spans cover >= 95% of the latency the
  client itself observed;
* the spans telescope (queue-wait + restore + execute + dispatch + reply ==
  the trace's end-to-end seconds);
* a parked session stepped after eviction carries a ``restore`` span;
* errors land in the trace ring and burn the availability budget;
* ``serve_*`` metrics carry ``app`` (and op) labels;
* and with no tracer wired in, the serving path performs **zero**
  tracer dispatches — the obs layer's disabled-path contract extended
  to the serve tier.
"""

from __future__ import annotations

import asyncio
import time

import pytest

import repro.obs.live as live
from repro.obs.live import RequestTracer
from repro.serve.client import ServeClient
from repro.serve.manager import ServeConfig, SessionManager
from repro.serve.net import request, start_server
from repro.serve.pool import make_pool
from repro.serve.store import SessionStore

pytestmark = pytest.mark.serve

_CHAT = {"script": [[0, "ping"], [1, "pong"]]}


def test_spans_cover_client_observed_latency():
    """>= 95% of what the in-process client measures is attributed."""

    async def body():
        tracer = RequestTracer()
        async with SessionManager(make_pool(0), tracer=tracer) as manager:
            client = ServeClient(manager)
            sid = await client.create("chat", 2, seed=3, params=dict(_CHAT))
            observed = attributed = 0.0
            for _ in range(3):
                started = time.perf_counter()
                doc = await client.step(sid, 200)
                observed += time.perf_counter() - started
                trace = tracer.ring.find(doc["trace"])
                assert trace is not None
                attributed += sum(s.seconds for s in trace.spans)
                # the spans telescope to the trace's own end-to-end
                assert trace.coverage() == pytest.approx(1.0, abs=1e-6)
                names = {s.name for s in trace.spans}
                assert "queue-wait" in names and "execute" in names
            await client.close(sid)
        assert attributed / observed >= 0.95, (
            f"spans cover only {attributed / observed:.1%} of "
            f"client-observed latency"
        )

    asyncio.run(body())


def test_tcp_request_yields_covering_trace():
    """Same bar over the wire: trace id propagates, spans cover."""

    async def body():
        tracer = RequestTracer()
        manager = SessionManager(make_pool(0), tracer=tracer)
        server = await start_server(manager, port=0)
        port = server.sockets[0].getsockname()[1]
        try:
            # a long conversation, so the traced execution dwarfs the
            # untraced socket + JSON overhead the server cannot see
            script = [[i % 2, f"msg-{i}"] for i in range(40)]
            created = await request(
                {"op": "create", "app": "chat", "size": 2, "seed": 5,
                 "params": {"script": script}, "trace": "wire-create"},
                port=port,
            )
            assert created["ok"]
            sid = created["sid"]
            started = time.perf_counter()
            doc = await request(
                {"op": "step", "sid": sid, "instants": 1000,
                 "trace": "wire-step"},
                port=port,
            )
            observed = time.perf_counter() - started
            assert doc["ok"] and doc["trace"] == "wire-step"
            trace = tracer.ring.find("wire-step")
            assert trace is not None and trace.sid == sid
            attributed = sum(s.seconds for s in trace.spans)
            assert attributed / observed >= 0.95
            # the create was traced under the caller's id too
            assert tracer.ring.find("wire-create") is not None
        finally:
            server.close()
            await server.wait_closed()
            await manager.stop()

    asyncio.run(body())


def test_restore_span_on_parked_session(tmp_path):
    """Stepping an evicted session attributes its restore replay."""

    async def body():
        tracer = RequestTracer()
        config = ServeConfig(max_live=1)
        async with SessionManager(
            make_pool(0), store=SessionStore(str(tmp_path)), config=config,
            tracer=tracer,
        ) as manager:
            client = ServeClient(manager)
            first = await client.create("chat", 2, seed=1, params=dict(_CHAT))
            await client.step(first, 8)
            second = await client.create("chat", 2, seed=2, params=dict(_CHAT))
            await client.step(second, 8)  # evicts `first`
            assert manager.stats()["evicted"] == 1
            doc = await client.step(first, 8)  # forces the restore
            trace = tracer.ring.find(doc["trace"])
            assert trace is not None
            spans = trace.span_seconds()
            assert "restore" in spans and spans["restore"] > 0.0
            assert trace.coverage() == pytest.approx(1.0, abs=1e-6)

    asyncio.run(body())


def test_errors_burn_the_availability_budget():
    async def body():
        tracer = RequestTracer()
        async with SessionManager(make_pool(0), tracer=tracer) as manager:
            client = ServeClient(manager)
            with pytest.raises(Exception):
                await client.step("s-nope", 1, trace="doomed")
            trace = tracer.ring.find("doomed")
            assert trace is not None
            assert trace.error == "UnknownSessionError"
        assert tracer.slo.attainment("availability") < 1.0
        snapshot = {
            (name, labels): inst.snapshot()
            for name, labels, inst in tracer.registry.series()
        }
        key = ("serve_requests_total",
               (("app", "?"), ("op", "step"), ("outcome", "error")))
        assert snapshot[key]["value"] == 1

    asyncio.run(body())


def test_metrics_carry_op_and_app_labels():
    async def body():
        tracer = RequestTracer()
        async with SessionManager(make_pool(0), tracer=tracer) as manager:
            client = ServeClient(manager)
            chat = await client.create("chat", 2, seed=1, params=dict(_CHAT))
            gossip = await client.create("gossip", 5, seed=1,
                                         params={"rumor": "r"})
            await client.step(chat, 8)
            await client.step(gossip, 8)
            series = {
                (name, labels) for name, labels, _ in manager.registry.series()
            }
            for app in ("chat", "gossip"):
                assert ("serve_step_latency_s", (("app", app),)) in series
                assert ("serve_instants_total", (("app", app),)) in series
                assert ("serve_open_sessions", (("app", app),)) in series
                assert (
                    "serve_requests_total",
                    (("app", app), ("op", "create"), ("outcome", "ok")),
                ) in series
            await client.close(chat)
            # the chat gauge is zeroed, not dropped — no stale series
            chat_open = manager.registry.gauge("serve_open_sessions",
                                               app="chat")
            assert chat_open.value == 0
            gossip_open = manager.registry.gauge("serve_open_sessions",
                                                 app="gossip")
            assert gossip_open.value == 1

    asyncio.run(body())


def test_trace_joins_the_causal_dag_by_session_id(tmp_path):
    """The trace's sid is the recorder's session key — the DAG join."""

    async def body():
        from repro.obs.export import load_run

        tracer = RequestTracer()
        async with SessionManager(make_pool(0), tracer=tracer) as manager:
            client = ServeClient(manager)
            sid = await client.create("chat", 2, seed=7, params=dict(_CHAT),
                                      record=True)
            doc = await client.step(sid, 16)
            path = await client.export_obs(sid, str(tmp_path / "run.jsonl"))
            trace = tracer.ring.find(doc["trace"])
            assert trace is not None and trace.sid == sid
            run = load_run(path)
            assert run.meta["session"] == trace.sid

    asyncio.run(body())


def test_serving_without_tracer_is_zero_dispatch(tmp_path):
    """The disabled path performs no tracer dispatches at all."""

    async def body():
        config = ServeConfig(max_live=1)
        async with SessionManager(
            make_pool(0), store=SessionStore(str(tmp_path)), config=config
        ) as manager:
            assert manager.tracer is None
            client = ServeClient(manager)
            a = await client.create("chat", 2, seed=1, params=dict(_CHAT))
            await client.step(a, 8)
            b = await client.create("chat", 2, seed=2, params=dict(_CHAT))
            await client.step(b, 8)
            doc = await client.step(a, 8)  # eviction + restore exercised
            assert "trace" not in doc  # results carry no decoration
            await client.query(a)
            await client.close(a)
            await client.close(b)

    before = live.dispatch_count()
    asyncio.run(body())
    assert live.dispatch_count() == before

    asyncio.run(_undisturbed_flow_check(before))


async def _undisturbed_flow_check(before: int) -> None:
    """A full clean flow, still zero dispatches, results undecorated."""
    async with SessionManager(make_pool(0)) as manager:
        client = ServeClient(manager)
        sid = await client.create("chat", 2, seed=9, params=dict(_CHAT))
        doc = await client.step(sid, 8)
        assert "trace" not in doc
        health = manager.health()
        assert health["status"] == "ok" and health["slos"] == []
        frame = manager.telemetry()
        assert "requests" not in frame  # no tracer, no windows
        await client.close(sid)
    assert live.dispatch_count() == before


def test_step_reply_echoes_caller_trace_id():
    async def body():
        tracer = RequestTracer()
        async with SessionManager(make_pool(0), tracer=tracer) as manager:
            client = ServeClient(manager)
            sid = await client.create("chat", 2, seed=1, params=dict(_CHAT))
            doc = await client.step(sid, 4, trace="mine-1")
            assert doc["trace"] == "mine-1"
            # service-minted ids for callers who didn't bring one
            doc = await client.step(sid, 4)
            assert doc["trace"].startswith("r")

    asyncio.run(body())


def test_health_reports_backpressure_and_slo_violations():
    """``/healthz`` names its reasons: admission state and SLO burn."""

    async def body():
        tracer = RequestTracer()
        async with SessionManager(make_pool(0), tracer=tracer) as manager:
            assert manager.health()["status"] == "ok"
            manager._accepting = False  # what the admission gate flips
            health = manager.health()
            assert health["status"] == "degraded"
            assert any("backpressure" in r for r in health["reasons"])
            manager._accepting = True
            for _ in range(8):  # burn the availability budget
                tracer.slo.observe("step", 0.01, error=True)
            health = manager.health()
            assert health["status"] == "degraded"
            assert any(r.startswith("slo violated") for r in health["reasons"])

    asyncio.run(body())


def test_checkpoint_documents_stay_undecorated(tmp_path):
    """Tracing must not perturb the byte-identity checkpoint artifact."""

    async def body():
        tracer = RequestTracer()
        async with SessionManager(
            make_pool(0), store=SessionStore(str(tmp_path)), tracer=tracer
        ) as traced:
            client = ServeClient(traced)
            sid = await client.create("chat", 2, seed=11, params=dict(_CHAT))
            await client.step(sid, 8)
            ckpt_traced = await client.checkpoint(sid)
        async with SessionManager(
            make_pool(0), store=SessionStore(str(tmp_path / "b"))
        ) as plain:
            client = ServeClient(plain)
            sid = await client.create("chat", 2, seed=11, params=dict(_CHAT))
            await client.step(sid, 8)
            ckpt_plain = await client.checkpoint(sid)
        assert "trace" not in ckpt_traced
        assert ckpt_traced == ckpt_plain

    asyncio.run(body())
