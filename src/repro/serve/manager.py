"""The asyncio session manager: lifecycle, batching, backpressure, LRU.

One :class:`SessionManager` multiplexes thousands of concurrent swarm
sessions over a :class:`~repro.serve.pool.WorkerPool`:

* **Lifecycle** — ``create`` / ``send`` / ``step`` / ``query`` /
  ``close``, each an awaitable that resolves when the work is done.
* **Cooperative batch stepping** — step requests land in a bounded
  queue; a single ticker task drains it, coalesces requests for the
  same session, groups them by worker affinity and issues one
  ``step_batch`` command per worker per tick (concurrently across
  workers).  Thousands of outstanding step futures become a handful
  of pool round-trips.
* **Backpressure with hysteresis** — at the queue's *high* watermark
  the manager rejects new ``create``/``step`` work with
  :class:`~repro.errors.SessionRejectedError` (HTTP-429 semantics) and
  only resumes admission once the queue has drained to the *low*
  watermark, so admission cannot flap at the boundary.
* **LRU eviction through the persistence tier** — at most
  ``max_live`` sessions keep live objects in worker memory; beyond
  that, the least recently used session is checkpointed into the
  campaign-store-backed :class:`~repro.serve.store.SessionStore` and
  its live object dropped.  The next operation touching it restores by
  replay — byte-identical, checked by CRC on every restore.

Metrics land in a :class:`~repro.obs.registry.MetricsRegistry` under
``serve_*`` names (active/live sessions, queue depth, evictions,
restores, rejections, checkpoint bytes, step latency histogram).
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import ServeError, SessionRejectedError, UnknownSessionError
from repro.obs.live import RequestTrace, RequestTracer
from repro.obs.registry import MetricsRegistry
from repro.serve.log import session_logger
from repro.serve.pool import WorkerPool
from repro.serve.session import SessionSpec
from repro.serve.store import SessionStore

__all__ = ["ServeConfig", "SessionManager"]

#: step-latency histogram buckets (seconds): sub-millisecond ticks up
#: to multi-second stalls.
_LATENCY_BOUNDS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass(frozen=True)
class ServeConfig:
    """Service tuning knobs (all enforced, none advisory).

    Attributes:
        max_live: live-session ceiling across all workers; the LRU
            eviction trigger.
        queue_high: pending-step high watermark — admission stops here.
        queue_low: low watermark — admission resumes here (hysteresis;
            must be <= queue_high).
        batch_max: most step requests drained into one tick.
        default_instants: instants per step request when the caller
            does not say.
        max_open: optional hard ceiling on open (live + evicted)
            sessions; ``create`` beyond it is rejected.
    """

    max_live: int = 1024
    queue_high: int = 4096
    queue_low: int = 1024
    batch_max: int = 512
    default_instants: int = 10
    max_open: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_live < 1:
            raise ServeError(f"max_live must be >= 1, got {self.max_live}")
        if not (0 < self.queue_low <= self.queue_high):
            raise ServeError(
                f"need 0 < queue_low <= queue_high, got "
                f"{self.queue_low}/{self.queue_high}"
            )
        if self.batch_max < 1:
            raise ServeError(f"batch_max must be >= 1, got {self.batch_max}")


@dataclass
class _SessionEntry:
    """Manager-side view of one open session."""

    sid: str
    spec: SessionSpec
    live: bool
    status: str = "running"
    steps_applied: int = 0
    pending: int = 0  # queued step requests not yet resolved


class _StepRequest:
    __slots__ = ("sid", "instants", "future", "enqueued_at",
                 "trace", "drained_at", "restore_s", "resolved_at")

    def __init__(
        self,
        sid: str,
        instants: int,
        future: asyncio.Future,
        trace: Optional[RequestTrace] = None,
    ) -> None:
        self.sid = sid
        self.instants = instants
        self.future = future
        self.enqueued_at = time.perf_counter()
        #: request trace opened at enqueue (None when tracing is off)
        self.trace = trace
        #: when the ticker popped this request off the queue
        self.drained_at: Optional[float] = None
        #: this request's share of the tick's restore time (seconds)
        self.restore_s = 0.0
        #: when a tick resolved the future (the trace's spans end here)
        self.resolved_at: Optional[float] = None


class SessionManager:
    """The multiplexer.  One per service process.

    Must be constructed (and used) inside a running event loop; call
    :meth:`start` before submitting work and :meth:`stop` when done —
    or use it as an async context manager.
    """

    def __init__(
        self,
        pool: WorkerPool,
        store: Optional[SessionStore] = None,
        config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[RequestTracer] = None,
    ) -> None:
        self.pool = pool
        self.store = store
        self.config = config or ServeConfig()
        #: request-scoped tracing plane; ``None`` keeps the manager on
        #: the zero-dispatch path (every hook below is gated on it).
        self.tracer = tracer
        if registry is not None:
            self.registry = registry
        elif tracer is not None:
            self.registry = tracer.registry
        else:
            self.registry = MetricsRegistry()
        #: LRU order: least recently touched first.
        self._sessions: "OrderedDict[str, _SessionEntry]" = OrderedDict()
        self._queue: Deque[_StepRequest] = deque()
        self._accepting = True
        self._counter = 0
        self._ticker: Optional[asyncio.Task] = None
        self._wakeup = asyncio.Event()
        self._stopped = False
        self._peak_open = 0
        # -- metrics ---------------------------------------------------
        self._g_open = self.registry.gauge("serve_open_sessions")
        self._g_live = self.registry.gauge("serve_live_sessions")
        self._g_queue = self.registry.gauge("serve_queue_depth")
        self._g_peak = self.registry.gauge("serve_peak_open_sessions")
        self._c_created = self.registry.counter("serve_sessions_created")
        self._c_closed = self.registry.counter("serve_sessions_closed")
        self._c_steps = self.registry.counter("serve_instants_total")
        self._c_evictions = self.registry.counter("serve_evictions")
        self._c_restores = self.registry.counter("serve_restores")
        self._c_rejected = self.registry.counter("serve_rejections")
        self._c_ckpt_bytes = self.registry.counter("serve_checkpoint_bytes")
        self._h_latency = self.registry.histogram(
            "serve_step_latency_s", buckets=_LATENCY_BOUNDS
        )
        self._log = session_logger("manager")

    # -- lifecycle of the manager itself -------------------------------
    async def __aenter__(self) -> "SessionManager":
        self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def start(self) -> None:
        """Launch the batch ticker (idempotent)."""
        if self._ticker is None or self._ticker.done():
            self._stopped = False
            self._ticker = asyncio.get_running_loop().create_task(
                self._tick_loop(), name="serve-ticker"
            )

    async def stop(self) -> None:
        """Drain nothing, fail pending work, stop the ticker."""
        self._stopped = True
        self._wakeup.set()
        if self._ticker is not None:
            await self._ticker
            self._ticker = None
        while self._queue:
            request = self._queue.popleft()
            if not request.future.done():
                request.future.set_exception(
                    ServeError("service stopped with steps pending")
                )
        self._g_queue.set(0)
        self.pool.close()

    # -- admission ------------------------------------------------------
    def _admission_gate(self, what: str) -> None:
        depth = len(self._queue)
        if self._accepting and depth >= self.config.queue_high:
            self._accepting = False
        elif not self._accepting and depth <= self.config.queue_low:
            self._accepting = True
        if not self._accepting:
            self._c_rejected.inc()
            self._log.warning(
                "%s rejected: %d steps pending (high watermark %d)",
                what, depth, self.config.queue_high,
            )
            raise SessionRejectedError(
                f"{what} rejected: {depth} steps pending (high watermark "
                f"{self.config.queue_high}; retry after the queue drains "
                f"below {self.config.queue_low})"
            )

    def _entry(self, sid: str) -> _SessionEntry:
        try:
            return self._sessions[sid]
        except KeyError:
            raise UnknownSessionError(f"no open session {sid!r}") from None

    def _touch(self, sid: str) -> None:
        self._sessions.move_to_end(sid)

    def _app_of(self, sid: Optional[str]) -> Optional[str]:
        entry = self._sessions.get(sid) if sid else None
        return entry.spec.app if entry is not None else None

    async def _traced(self, op, app, sid, trace, run):
        """Run one non-step operation under a request trace.

        Non-step verbs are a single awaited round-trip, so one
        ``dispatch`` span covering the whole request is exact (100%
        coverage by construction).  With no tracer this is a bare
        ``await`` — nothing is constructed, nothing dispatched.
        """
        if self.tracer is None:
            return await run()
        opened = self.tracer.start(op, app=app, sid=sid, trace_id=trace)
        error: Optional[str] = None
        try:
            result = await run()
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            ended = time.perf_counter()
            opened.add_span("dispatch", opened.started, ended)
            self.tracer.finish(opened, error=error, ended=ended)
        # checkpoint documents are byte-identity artifacts (restore
        # re-proves their CRC) — never decorate those.
        if isinstance(result, dict) and op != "checkpoint":
            result["trace"] = opened.trace_id
        return result

    # -- public API -----------------------------------------------------
    async def create(
        self,
        spec: SessionSpec,
        sid: Optional[str] = None,
        record: bool = False,
        trace: Optional[str] = None,
    ) -> str:
        """Open a session; returns its id."""
        return await self._traced(
            "create", spec.app, sid, trace,
            lambda: self._create(spec, sid, record),
        )

    async def _create(
        self,
        spec: SessionSpec,
        sid: Optional[str] = None,
        record: bool = False,
    ) -> str:
        self._admission_gate("create")
        if self.config.max_open is not None and len(
            self._sessions
        ) >= self.config.max_open:
            self._c_rejected.inc()
            raise SessionRejectedError(
                f"create rejected: {len(self._sessions)} sessions open "
                f"(ceiling {self.config.max_open})"
            )
        if sid is None:
            self._counter += 1
            sid = f"s{self._counter:08d}"
        if sid in self._sessions:
            raise ServeError(f"session id {sid!r} is already open")
        doc = await self.pool.call_for(
            sid, ("create", sid, spec.to_json(), None, record)
        )
        entry = _SessionEntry(sid, spec, live=True, status=str(doc["status"]))
        self._sessions[sid] = entry
        self._c_created.inc()
        self.registry.counter("serve_sessions_created", app=spec.app).inc()
        self._peak_open = max(self._peak_open, len(self._sessions))
        self._update_gauges()
        await self._evict_over_limit()
        return sid

    async def send(
        self, sid: str, src: int, dst: int, payload: bytes,
        trace: Optional[str] = None,
    ) -> Dict:
        """Inject one message into a session (restoring it if parked)."""
        return await self._traced(
            "send", self._app_of(sid), sid, trace,
            lambda: self._send(sid, src, dst, payload),
        )

    async def _send(self, sid: str, src: int, dst: int, payload: bytes) -> Dict:
        entry = self._entry(sid)
        await self._ensure_live(entry)
        self._touch(sid)
        doc = await self.pool.call_for(sid, ("send", sid, src, dst, payload.hex()))
        entry.status = str(doc["status"])
        return doc  # type: ignore[return-value]

    async def step(
        self, sid: str, instants: Optional[int] = None,
        trace: Optional[str] = None,
    ) -> Dict:
        """Queue a step request; resolves after its batch tick ran."""
        self.start()  # idempotent: the ticker must be running to resolve
        opened: Optional[RequestTrace] = None
        if self.tracer is not None:
            opened = self.tracer.start(
                "step", app=self._app_of(sid), sid=sid, trace_id=trace
            )
        try:
            self._admission_gate("step")
            entry = self._entry(sid)
        except Exception as exc:
            if opened is not None:
                ended = time.perf_counter()
                opened.add_span("dispatch", opened.started, ended)
                self.tracer.finish(
                    opened, error=type(exc).__name__, ended=ended
                )
            raise
        k = self.config.default_instants if instants is None else int(instants)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        request = _StepRequest(sid, k, future, trace=opened)
        self._queue.append(request)
        entry.pending += 1
        self._g_queue.set(len(self._queue))
        self._wakeup.set()
        if opened is None:
            return await future
        error: Optional[str] = None
        try:
            return await future
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._finish_step_trace(request, error)

    def _finish_step_trace(self, request: _StepRequest, error: Optional[str]) -> None:
        """Close a step trace where its caller resumes.

        :meth:`_resolve` attributes the trace up to the moment it
        resolves the future.  The hop from there until the awaiting
        coroutine runs again is the ``reply`` span.  A request failed
        outside a tick (the service stopped) or cancelled before its
        tick gets one ``dispatch`` span for the whole request.
        """
        trace = request.trace
        resumed = time.perf_counter()
        if request.resolved_at is not None:
            trace.add_span("reply", request.resolved_at, resumed)
        else:
            trace.add_span("dispatch", trace.started, resumed)
        self.tracer.finish(trace, error=error, ended=resumed)

    async def query(self, sid: str, trace: Optional[str] = None) -> Dict:
        """Status + app summary.  Parked sessions answer from their
        checkpoint without being restored (a query is not a touch)."""
        return await self._traced(
            "query", self._app_of(sid), sid, trace, lambda: self._query(sid)
        )

    async def _query(self, sid: str) -> Dict:
        entry = self._entry(sid)
        if not entry.live:
            assert self.store is not None
            checkpoint = self.store.load(entry.sid)
            return {
                "app": entry.spec.app,
                "size": entry.spec.size,
                "spec_hash": entry.spec.spec_hash(),
                "status": str(checkpoint["status"]),
                "steps_applied": int(checkpoint["steps_applied"]),  # type: ignore[arg-type]
                "evicted": True,
            }
        self._touch(sid)
        return await self.pool.call_for(sid, ("query", sid))  # type: ignore[return-value]

    async def checkpoint(self, sid: str, trace: Optional[str] = None) -> Dict:
        """The session's current checkpoint document (live or parked)."""
        return await self._traced(
            "checkpoint", self._app_of(sid), sid, trace,
            lambda: self._checkpoint(sid),
        )

    async def _checkpoint(self, sid: str) -> Dict:
        entry = self._entry(sid)
        if not entry.live:
            assert self.store is not None
            return self.store.load(sid)
        self._touch(sid)
        return await self.pool.call_for(sid, ("checkpoint", sid))  # type: ignore[return-value]

    async def close(self, sid: str, trace: Optional[str] = None) -> Dict:
        """Tear a session down; returns its final summary."""
        return await self._traced(
            "close", self._app_of(sid), sid, trace, lambda: self._close(sid)
        )

    async def _close(self, sid: str) -> Dict:
        entry = self._entry(sid)
        if entry.pending:
            raise ServeError(
                f"session {sid!r} has {entry.pending} steps pending; "
                f"await them before closing"
            )
        if entry.live:
            summary = await self.pool.call_for(sid, ("close", sid))
        else:
            assert self.store is not None
            checkpoint = self.store.load(sid)
            summary = {
                "app": entry.spec.app,
                "status": checkpoint["status"],
                "steps_applied": checkpoint["steps_applied"],
                "evicted": True,
            }
        if self.store is not None:
            self.store.discard(sid)
        del self._sessions[sid]
        self._c_closed.inc()
        self.registry.counter("serve_sessions_closed", app=entry.spec.app).inc()
        self._update_gauges()
        return summary  # type: ignore[return-value]

    async def export_obs(self, sid: str, path: str) -> str:
        """Dump a recorded session's obs trace next to the service."""
        entry = self._entry(sid)
        await self._ensure_live(entry)
        return str(await self.pool.call_for(sid, ("export_obs", sid, path)))

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` verdict: admission state + SLO attainment.

        ``ok`` while the service accepts work and (when a tracer is
        wired) every SLO is attained; otherwise ``degraded`` with the
        reasons named.
        """
        reasons: List[str] = []
        if not self._accepting:
            reasons.append("backpressure: admission closed")
        slos: List[Dict[str, object]] = []
        if self.tracer is not None:
            slos = self.tracer.slo.status()
            reasons.extend(
                f"slo violated: {row['objective']}"
                for row in slos
                if not row["ok"]
            )
        return {
            "status": "degraded" if reasons else "ok",
            "accepting": self._accepting,
            "reasons": reasons,
            "slos": slos,
        }

    def telemetry(self) -> Dict[str, object]:
        """The live-dashboard payload (stats + health + tracer windows)."""
        frame: Dict[str, object] = {
            "stats": self.stats(),
            "health": self.health(),
        }
        if self.tracer is not None:
            frame.update(self.tracer.telemetry())
        return frame

    def session_ids(self) -> List[str]:
        """Every open session id, LRU order (least recent first)."""
        return list(self._sessions)

    def stats(self) -> Dict[str, object]:
        """A service-level snapshot (the ``status`` CLI's payload)."""
        live = sum(1 for e in self._sessions.values() if e.live)
        return {
            "open": len(self._sessions),
            "live": live,
            "evicted": len(self._sessions) - live,
            "queue_depth": len(self._queue),
            "accepting": self._accepting,
            "peak_open": self._peak_open,
            "created": self._c_created.value,
            "closed": self._c_closed.value,
            "instants": self._c_steps.value,
            "evictions": self._c_evictions.value,
            "restores": self._c_restores.value,
            "rejections": self._c_rejected.value,
            "checkpoint_bytes": self._c_ckpt_bytes.value,
            "workers": self.pool.size,
        }

    # -- eviction / restore ---------------------------------------------
    async def _ensure_live(self, entry: _SessionEntry) -> None:
        if entry.live:
            return
        if self.store is None:  # pragma: no cover - guarded at evict
            raise ServeError("session parked without a store")
        checkpoint = self.store.load(entry.sid)
        await self.pool.call_for(
            entry.sid,
            ("create", entry.sid, entry.spec.to_json(), checkpoint, False),
        )
        entry.live = True
        entry.status = str(checkpoint["status"])
        self._c_restores.inc()
        self._update_gauges()
        await self._evict_over_limit(skip={entry.sid})

    async def _evict_over_limit(self, skip: Optional[set] = None) -> None:
        """Evict LRU live sessions until under ``max_live``."""
        if self.store is None:
            return
        skip = skip or set()
        live = [e for e in self._sessions.values() if e.live]
        excess = len(live) - self.config.max_live
        if excess <= 0:
            return
        for entry in list(self._sessions.values()):  # LRU first
            if excess <= 0:
                break
            if not entry.live or entry.sid in skip or entry.pending:
                continue
            if entry.status == "failed":
                continue  # failed sessions cannot checkpoint; keep live
            checkpoint = await self.pool.call_for(
                entry.sid, ("evict", entry.sid)
            )
            self.store.save(entry.sid, checkpoint)  # type: ignore[arg-type]
            size = self.store.checkpoint_bytes(entry.sid)
            if size:
                self._c_ckpt_bytes.inc(size)
            entry.live = False
            self._c_evictions.inc()
            excess -= 1
        self._update_gauges()

    # -- the batch ticker ------------------------------------------------
    async def _tick_loop(self) -> None:
        while not self._stopped:
            if not self._queue:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            await self._tick()

    async def _tick(self) -> None:
        """Drain one batch of step requests and run it on the pool."""
        batch: List[_StepRequest] = []
        while self._queue and len(batch) < self.config.batch_max:
            batch.append(self._queue.popleft())
        self._g_queue.set(len(self._queue))
        if self.tracer is not None:
            drained_at = time.perf_counter()
            for request in batch:
                request.drained_at = drained_at

        # Coalesce per session (requests keep their own futures), group
        # by worker affinity, restore parked sessions first.
        per_sid: "OrderedDict[str, List[_StepRequest]]" = OrderedDict()
        for request in batch:
            per_sid.setdefault(request.sid, []).append(request)

        by_worker: Dict[int, List[Tuple[str, int]]] = {}
        for sid, requests in per_sid.items():
            entry = self._sessions.get(sid)
            if entry is None:
                self._resolve(
                    requests, None, UnknownSessionError(f"no open session {sid!r}")
                )
                continue
            try:
                restore_t0 = time.perf_counter()
                was_live = entry.live
                await self._ensure_live(entry)
                if self.tracer is not None and not was_live:
                    # attribute the restore across the coalesced
                    # requests by their instants share, so the sid's
                    # spans still telescope
                    restore_s = time.perf_counter() - restore_t0
                    total = sum(r.instants for r in requests) or 1
                    for request in requests:
                        request.restore_s = restore_s * request.instants / total
            except Exception as exc:
                self._resolve(requests, None, exc)
                continue
            self._touch(sid)
            instants = sum(r.instants for r in requests)
            by_worker.setdefault(self.pool.worker_of(sid), []).append(
                (sid, instants)
            )

        async def run_worker(worker: int, requests: List[Tuple[str, int]]):
            return await self.pool.call(worker, ("step_batch", requests))

        workers = sorted(by_worker)
        results = await asyncio.gather(
            *(run_worker(w, by_worker[w]) for w in workers),
            return_exceptions=True,
        )

        for worker, outcome in zip(workers, results):
            ticked = by_worker[worker]
            if isinstance(outcome, BaseException):
                for sid, _ in ticked:
                    self._resolve(per_sid[sid], None, outcome)
                continue
            for (sid, _), doc in zip(ticked, outcome):  # type: ignore[arg-type]
                error = doc.get("error") if isinstance(doc, dict) else None
                if error:
                    self._resolve(per_sid[sid], None, self._error_from(error))
                else:
                    self._resolve(per_sid[sid], doc, None)

    def _error_from(self, envelope: Dict[str, object]) -> Exception:
        from repro import errors as _errors

        cls = getattr(_errors, str(envelope.get("type")), None)
        if not (isinstance(cls, type) and issubclass(cls, _errors.ReproError)):
            cls = ServeError
        return cls(str(envelope.get("message")))

    def _resolve(
        self,
        requests: List[_StepRequest],
        doc: Optional[Dict[str, object]],
        exc: Optional[BaseException],
    ) -> None:
        """Resolve one session's coalesced requests for this tick."""
        now = time.perf_counter()
        entry = self._sessions.get(requests[0].sid) if requests else None
        app = entry.spec.app if entry is not None else None
        if doc is not None and entry is not None:
            entry.status = str(doc["status"])
            entry.steps_applied = int(doc["steps_applied"])  # type: ignore[arg-type]
            ran = int(doc.get("ran", 0))  # type: ignore[arg-type]
            self._c_steps.inc(ran)
            self.registry.counter("serve_instants_total", app=app).inc(ran)
        if exc is not None and requests:
            session_logger("manager", sid=requests[0].sid, app=app).warning(
                "step batch failed for %d request(s): %s: %s",
                len(requests), type(exc).__name__, exc,
            )
        exec_s = float(doc.get("exec_s", 0.0)) if doc is not None else 0.0  # type: ignore[arg-type]
        total_instants = sum(r.instants for r in requests) or 1
        for request in requests:
            if entry is not None:
                entry.pending -= 1
            seconds = now - request.enqueued_at
            self._h_latency.observe(seconds)
            if app is not None:
                self.registry.histogram(
                    "serve_step_latency_s", buckets=_LATENCY_BOUNDS, app=app
                ).observe(seconds)
            if request.future.done():
                continue  # the caller is gone; step() closed its trace
            trace = request.trace
            if trace is not None:
                drained = request.drained_at
                if drained is None:
                    drained = now
                # spans telescope: queue-wait + restore + execute +
                # dispatch (+ reply, added in step()) == end-to-end, the
                # causal-DAG attribution discipline applied to the
                # serving tier
                trace.add_span("queue-wait", trace.started, drained)
                cursor = drained
                if request.restore_s > 0.0:
                    trace.add_span("restore", cursor, cursor + request.restore_s)
                    cursor += request.restore_s
                share = exec_s * request.instants / total_instants
                if share > 0.0:
                    trace.add_span("execute", cursor, min(cursor + share, now))
                    cursor = min(cursor + share, now)
                trace.add_span("dispatch", cursor, now)
                request.resolved_at = now
            if exc is not None:
                request.future.set_exception(exc)
            else:
                payload = dict(doc)  # type: ignore[arg-type]
                if trace is not None:
                    payload["trace"] = trace.trace_id
                request.future.set_result(payload)

    def _update_gauges(self) -> None:
        live = sum(1 for e in self._sessions.values() if e.live)
        self._g_open.set(len(self._sessions))
        self._g_live.set(live)
        self._g_peak.set(self._peak_open)
        # per-app views of the same gauges (labels zeroed when the last
        # session of an app closes, so stale series never lie)
        open_by_app: Dict[str, int] = {}
        live_by_app: Dict[str, int] = {}
        for entry in self._sessions.values():
            open_by_app[entry.spec.app] = open_by_app.get(entry.spec.app, 0) + 1
            if entry.live:
                live_by_app[entry.spec.app] = (
                    live_by_app.get(entry.spec.app, 0) + 1
                )
        seen = set(open_by_app)
        for name, labels, _ in self.registry.series():
            if name in ("serve_open_sessions", "serve_live_sessions"):
                app = dict(labels).get("app")
                if app:
                    seen.add(app)
        for app in seen:
            self.registry.gauge("serve_open_sessions", app=app).set(
                open_by_app.get(app, 0)
            )
            self.registry.gauge("serve_live_sessions", app=app).set(
                live_by_app.get(app, 0)
            )
