"""Event-sourced swarm sessions — the serving layer's unit of state.

A *session* is one long-lived swarm application (chat, gossip, leader
election, token ring) wrapped so a service can step it incrementally,
inject traffic mid-flight, checkpoint it, evict it from memory, and
restore it **byte-identically** later.

The full state of a session is, deliberately, not the live object
graph but three small values::

    (SessionSpec, input log, steps_applied)

The :class:`~repro.apps.harness.SwarmHarness` a session drives is
fully deterministic given its spec (every RNG is seeded from
``spec.seed``), and all app-internal traffic (the chat script, the
election announcements, token forwarding) is a pure function of the
replayed state — only *external* sends arriving through the service
API are logged, stamped with the instant boundary they were applied
at.  A checkpoint is therefore a tiny JSON document, and restore is
replay: rebuild the harness from the spec, re-apply the inputs at
their recorded boundaries, re-step the recorded number of instants.
Determinism guarantees the restored trace is byte-for-byte the
original — and every restore *proves* it by recomputing the trace CRC
and comparing it to the checkpointed one.

Stepping is **cadence-invariant**: ``step(k)`` runs ``k`` per-instant
micro-steps (simulator step → channel polls → the app's per-instant
logic), so how a client chunks its step requests — and how the service
coalesces them into batch ticks — cannot influence the trajectory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.harness import SwarmHarness, ring_positions
from repro.errors import ServeError
from repro.geometry.vec import Vec2
from repro.model.trace import trace_crc
from repro.protocols.sync_granular import SyncGranularProtocol
from repro.protocols.sync_two import SyncTwoProtocol

__all__ = [
    "APPS",
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "Session",
    "SessionSpec",
]

#: schema tag of one checkpoint document.
CHECKPOINT_SCHEMA = "repro-serve-session"
CHECKPOINT_VERSION = 1


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SessionSpec:
    """The deterministic identity of one session.

    Attributes:
        app: application key (see :data:`APPS`).
        size: swarm size (chat is pinned to 2).
        seed: master seed — frames and any other randomness derive
            from it, so equal specs build byte-identical harnesses.
        params: app-specific parameters (chat script, rumor text,
            lap count, ...); must be JSON-serializable.
    """

    app: str
    size: int
    seed: int
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.app not in APPS:
            raise ServeError(
                f"unknown app {self.app!r} (choose from {sorted(APPS)})"
            )
        APPS[self.app].validate(self)

    def to_json(self) -> Dict[str, object]:
        """The canonical on-disk form of this spec."""
        return {
            "app": self.app,
            "size": self.size,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "SessionSpec":
        """Parse a spec document (inverse of :meth:`to_json`)."""
        try:
            return cls(
                app=str(doc["app"]),
                size=int(doc["size"]),  # type: ignore[arg-type]
                seed=int(doc["seed"]),  # type: ignore[arg-type]
                params=dict(doc.get("params") or {}),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"malformed session spec {doc!r}: {exc}") from exc

    def spec_hash(self) -> str:
        """Stable content hash (the campaign spec idiom)."""
        doc = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# App drivers
# ----------------------------------------------------------------------
#
# A driver turns a spec into a running harness and owns the app's
# per-instant logic.  Everything a driver does must be a deterministic
# function of (spec, replayed inputs) — drivers keep their scratch in
# ``session.app_state`` which is *not* checkpointed; replay rebuilds it.

class _Driver:
    """Base driver: no per-instant logic, never done."""

    #: instants a session may consume before it is declared stalled.
    max_steps_default = 6_000

    def validate(self, spec: SessionSpec) -> None:
        if spec.size < 2:
            raise ServeError(f"{spec.app} needs >= 2 robots, got {spec.size}")

    def build(self, spec: SessionSpec) -> SwarmHarness:
        raise NotImplementedError

    def setup(self, session: "Session") -> None:
        """Queue the app's own initial traffic (not logged as input)."""

    def on_instant(self, session: "Session") -> None:
        """Per-instant app logic, run after the channel polls."""

    def on_external_send(
        self, session: "Session", src: int, dst: int, payload: bytes
    ) -> None:
        """Bookkeeping for traffic arriving through the service API."""

    def done(self, session: "Session") -> bool:
        return False

    def summary(self, session: "Session") -> Dict[str, object]:
        return {}


class _ChatDriver(_Driver):
    """Two robots run a scripted conversation (plus live sends)."""

    def validate(self, spec: SessionSpec) -> None:
        if spec.size != 2:
            raise ServeError(f"chat is a two-robot app, got size {spec.size}")
        script = spec.params.get("script", [])
        for line in script:  # type: ignore[union-attr]
            speaker = line[0]
            if speaker not in (0, 1):
                raise ServeError(f"chat speaker must be 0 or 1, got {speaker}")

    def build(self, spec: SessionSpec) -> SwarmHarness:
        separation = float(spec.params.get("separation", 10.0))  # type: ignore[arg-type]
        return SwarmHarness(
            [Vec2(0.0, 0.0), Vec2(separation, 0.0)],
            protocol_factory=lambda: SyncTwoProtocol(),
            identified=False,
            sigma=separation,
            frame_seed=spec.seed,
        )

    def setup(self, session: "Session") -> None:
        session.app_state["expected"] = [0, 0]
        for speaker, text in session.spec.params.get("script", []):  # type: ignore[union-attr]
            session.queue_app_send(speaker, 1 - speaker, str(text).encode("utf-8"))
            session.app_state["expected"][1 - speaker] += 1

    def on_external_send(
        self, session: "Session", src: int, dst: int, payload: bytes
    ) -> None:
        session.app_state["expected"][dst] += 1

    def done(self, session: "Session") -> bool:
        expected = session.app_state["expected"]
        return all(
            len(session.harness.channel(i).inbox) >= expected[i] for i in (0, 1)
        )

    def summary(self, session: "Session") -> Dict[str, object]:
        return {
            "delivered": [
                len(session.harness.channel(i).inbox) for i in (0, 1)
            ],
            "expected": list(session.app_state["expected"]),
        }


class _GossipDriver(_Driver):
    """One rumor spreads to the whole swarm by overhearing."""

    def build(self, spec: SessionSpec) -> SwarmHarness:
        return SwarmHarness(
            ring_positions(spec.size, radius=10.0, jitter=0.06),
            protocol_factory=lambda: SyncGranularProtocol(),
            sigma=4.0,
            frame_seed=spec.seed,
        )

    def _payload(self, session: "Session") -> bytes:
        return str(session.spec.params.get("rumor", "r")).encode("utf-8")

    def setup(self, session: "Session") -> None:
        source = int(session.spec.params.get("source", 0))  # type: ignore[arg-type]
        session.app_state["source"] = source
        session.queue_app_send(
            source, (source + 1) % session.spec.size, self._payload(session)
        )

    def done(self, session: "Session") -> bool:
        payload = self._payload(session)
        source = session.app_state["source"]
        for observer in range(session.spec.size):
            if observer == source:
                continue
            if not any(
                m.payload == payload
                for m in session.harness.monitors[observer].log
            ):
                return False
        return True

    def summary(self, session: "Session") -> Dict[str, object]:
        payload = self._payload(session)
        informed = sum(
            1
            for observer in range(session.spec.size)
            if observer == session.app_state["source"]
            or any(
                m.payload == payload
                for m in session.harness.monitors[observer].log
            )
        )
        return {"informed": informed, "size": session.spec.size}


class _LeaderElectionDriver(_Driver):
    """Everyone announces a value; everyone elects the maximum."""

    def build(self, spec: SessionSpec) -> SwarmHarness:
        return SwarmHarness(
            ring_positions(spec.size, radius=10.0, jitter=0.05),
            protocol_factory=lambda: SyncGranularProtocol(naming="identified"),
            identified=True,
            frame_seed=spec.seed,
        )

    def setup(self, session: "Session") -> None:
        n = session.spec.size
        values = session.spec.params.get("values") or list(range(n))
        if len(values) != n:  # type: ignore[arg-type]
            raise ServeError(
                f"need one value per robot: {len(values)} values, {n} robots"  # type: ignore[arg-type]
            )
        session.app_state["values"] = list(values)  # type: ignore[arg-type]
        for i in range(n):
            for j in range(n):
                if i != j:
                    session.queue_app_send(
                        i, j, f"VAL {values[i]}".encode("utf-8")  # type: ignore[index]
                    )

    def _announcements(self, session: "Session", robot: int) -> List[int]:
        out: List[int] = []
        for message in session.harness.channel(robot).inbox:
            text = message.text()
            if text.startswith("VAL "):
                out.append(int(text[4:]))
        return out

    def done(self, session: "Session") -> bool:
        n = session.spec.size
        return all(
            len(self._announcements(session, i)) >= n - 1 for i in range(n)
        )

    def summary(self, session: "Session") -> Dict[str, object]:
        values = session.app_state["values"]
        decided: List[Optional[int]] = []
        for i in range(session.spec.size):
            heard = [values[i], *self._announcements(session, i)]
            decided.append(values.index(max(heard)) if heard else None)
        leader = decided[0] if len(set(decided)) == 1 else None
        return {"leader": leader, "decided_by": decided}


class _TokenRingDriver(_Driver):
    """A hop-counted token circulates in tracking-index order."""

    def validate(self, spec: SessionSpec) -> None:
        super().validate(spec)
        if int(spec.params.get("laps", 1)) < 1:  # type: ignore[arg-type]
            raise ServeError(f"laps must be >= 1, got {spec.params.get('laps')}")

    def build(self, spec: SessionSpec) -> SwarmHarness:
        return SwarmHarness(
            ring_positions(spec.size, radius=8.0, jitter=0.04),
            protocol_factory=lambda: SyncGranularProtocol(naming="identified"),
            identified=True,
            frame_seed=spec.seed,
        )

    def setup(self, session: "Session") -> None:
        n = session.spec.size
        laps = int(session.spec.params.get("laps", 1))  # type: ignore[arg-type]
        session.app_state.update(
            hops=[0], consumed=[0] * n, total_hops=laps * n
        )
        session.queue_app_send(0, 1 % n, b"TOK 1")

    def on_instant(self, session: "Session") -> None:
        state = session.app_state
        hops: List[int] = state["hops"]
        consumed: List[int] = state["consumed"]
        n = session.spec.size
        progressed = True
        while progressed and len(hops) < state["total_hops"]:
            progressed = False
            for i in range(n):
                inbox = session.harness.channel(i).inbox
                while consumed[i] < len(inbox):
                    message = inbox[consumed[i]]
                    consumed[i] += 1
                    text = message.text()
                    if not text.startswith("TOK "):
                        continue  # external traffic rides along untouched
                    hop = int(text[4:])
                    if hop != len(hops):
                        raise ServeError(
                            f"token hop {hop} arrived out of order at robot "
                            f"{i} (expected {len(hops)})"
                        )
                    hops.append(i)
                    progressed = True
                    if len(hops) < state["total_hops"]:
                        session.queue_app_send(
                            i, (i + 1) % n, f"TOK {hop + 1}".encode("utf-8")
                        )

    def done(self, session: "Session") -> bool:
        return len(session.app_state["hops"]) >= session.app_state["total_hops"]

    def summary(self, session: "Session") -> Dict[str, object]:
        return {
            "hops": len(session.app_state["hops"]),
            "total_hops": session.app_state["total_hops"],
        }


#: The servable applications.
APPS: Dict[str, _Driver] = {
    "chat": _ChatDriver(),
    "gossip": _GossipDriver(),
    "leader_election": _LeaderElectionDriver(),
    "token_ring": _TokenRingDriver(),
}


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------

class Session:
    """One live (in-memory) session: a harness plus its event source.

    Not thread-safe by design — a session is owned by exactly one
    worker, and the service serializes access per worker.
    """

    def __init__(self, spec: SessionSpec) -> None:
        self.spec = spec
        self.driver = APPS[spec.app]
        self.harness = self.driver.build(spec)
        self.steps_applied = 0
        self.status = "running"  # running | done | stalled | failed
        self.error: Optional[str] = None
        self.inputs: List[Dict[str, object]] = []
        self.app_state: Dict[str, object] = {}
        self.max_steps = int(
            spec.params.get("max_steps", self.driver.max_steps_default)  # type: ignore[arg-type]
        )
        self.driver.setup(self)
        if self.driver.done(self):
            self.status = "done"

    # -- traffic -------------------------------------------------------
    def queue_app_send(self, src: int, dst: int, payload: bytes) -> None:
        """App-internal traffic: deterministic from state, never logged."""
        self.harness.channel(src).send(dst, payload)

    def apply_send(self, src: int, dst: int, payload: bytes) -> None:
        """External traffic from the service API: logged for replay."""
        self._require_steppable("send to")
        n = self.spec.size
        if not (0 <= src < n and 0 <= dst < n and src != dst):
            raise ServeError(
                f"invalid flow {src}->{dst} for a {n}-robot session"
            )
        self.inputs.append(
            {
                "at": self.steps_applied,
                "src": src,
                "dst": dst,
                "data": payload.hex(),
            }
        )
        self.harness.channel(src).send(dst, payload)
        self.driver.on_external_send(self, src, dst, payload)
        if self.status == "done":
            # New expected traffic can re-open a finished conversation.
            if not self.driver.done(self):
                self.status = "running"

    # -- stepping ------------------------------------------------------
    def _micro_step(self) -> None:
        """One instant: simulate, poll every channel, run app logic."""
        self.harness.simulator.step()
        for channel in self.harness.channels:
            channel.poll()
        self.driver.on_instant(self)
        self.steps_applied += 1

    def step(self, instants: int) -> int:
        """Advance up to ``instants`` micro-steps; returns how many ran.

        Stops early when the app completes or the session hits its
        ``max_steps`` stall bound.  A failing instant (an app-logic or
        protocol exception) marks the session ``failed`` and re-raises
        wrapped — deterministically, so a replayed twin fails the same
        way at the same instant.
        """
        if instants < 0:
            raise ServeError(f"instants must be >= 0, got {instants}")
        self._require_steppable("step")
        ran = 0
        try:
            while ran < instants and self.status == "running":
                self._micro_step()
                ran += 1
                if self.driver.done(self):
                    self.status = "done"
                elif self.steps_applied >= self.max_steps:
                    self.status = "stalled"
        except Exception as exc:
            self.status = "failed"
            self.error = f"{type(exc).__name__}: {exc}"
            raise ServeError(
                f"session failed at instant {self.steps_applied}: {self.error}"
            ) from exc
        return ran

    def _require_steppable(self, verb: str) -> None:
        if self.status == "failed":
            raise ServeError(f"cannot {verb} a failed session ({self.error})")

    # -- introspection -------------------------------------------------
    def status_doc(self) -> Dict[str, object]:
        """The service-facing status snapshot."""
        doc: Dict[str, object] = {
            "app": self.spec.app,
            "size": self.spec.size,
            "spec_hash": self.spec.spec_hash(),
            "status": self.status,
            "steps_applied": self.steps_applied,
            "inputs": len(self.inputs),
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc

    def summary(self) -> Dict[str, object]:
        """Status plus the app's own outcome view."""
        return {**self.status_doc(), **self.driver.summary(self)}

    def trace_crc(self) -> str:
        """The session's run fingerprint (:func:`repro.model.trace.trace_crc`).

        Two sessions with equal CRCs took the same trajectory and
        decoded the same traffic.
        """
        return trace_crc(self.harness.simulator)

    # -- checkpoint / restore ------------------------------------------
    def checkpoint(self) -> Dict[str, object]:
        """The session's full durable state, as a small JSON document.

        Event-sourced: spec + input log + instant count.  The trace
        CRC rides along as the byte-identity witness every restore is
        checked against.
        """
        if self.status == "failed":
            raise ServeError(
                f"cannot checkpoint a failed session ({self.error})"
            )
        return {
            "schema": CHECKPOINT_SCHEMA,
            "version": CHECKPOINT_VERSION,
            "spec": self.spec.to_json(),
            "spec_hash": self.spec.spec_hash(),
            "steps_applied": self.steps_applied,
            "status": self.status,
            "inputs": [dict(entry) for entry in self.inputs],
            "trace_crc": self.trace_crc(),
        }

    @classmethod
    def restore(cls, doc: Dict[str, object]) -> "Session":
        """Replay a checkpoint into a live session (byte-identical).

        Raises:
            ServeError: on a malformed document, one without a trace
                CRC, or when the replayed trace CRC does not match the
                checkpointed one — which would mean determinism was
                broken somewhere, the one thing this layer must never
                paper over.
        """
        if doc.get("schema") != CHECKPOINT_SCHEMA:
            raise ServeError(
                f"not a session checkpoint (schema={doc.get('schema')!r})"
            )
        if doc.get("version") != CHECKPOINT_VERSION:
            raise ServeError(
                f"unsupported checkpoint version {doc.get('version')!r}"
            )
        # The CRC is the restore's byte-identity witness: without one
        # the replay cannot be verified, so it is refused before it runs.
        expected_crc = str(doc.get("trace_crc") or "")
        if not expected_crc:
            raise ServeError("checkpoint has no trace_crc; restore cannot be verified")
        spec = SessionSpec.from_json(doc["spec"])  # type: ignore[arg-type]
        session = cls(spec)
        target = int(doc["steps_applied"])  # type: ignore[arg-type]
        inputs = [dict(entry) for entry in doc.get("inputs", [])]  # type: ignore[union-attr]
        by_boundary: Dict[int, List[Dict[str, object]]] = {}
        for entry in inputs:
            by_boundary.setdefault(int(entry["at"]), []).append(entry)  # type: ignore[arg-type]

        def replay_inputs(boundary: int) -> None:
            for entry in by_boundary.get(boundary, ()):
                session.apply_send(
                    int(entry["src"]),  # type: ignore[arg-type]
                    int(entry["dst"]),  # type: ignore[arg-type]
                    bytes.fromhex(str(entry["data"])),
                )

        while session.steps_applied < target:
            replay_inputs(session.steps_applied)
            before = session.steps_applied
            session.step(1)
            if session.steps_applied == before:  # pragma: no cover - guard
                raise ServeError(
                    f"replay stalled at instant {before}/{target} "
                    f"(status {session.status})"
                )
        replay_inputs(target)

        got_crc = session.trace_crc()
        if got_crc != expected_crc:
            raise ServeError(
                f"restore diverged from checkpoint: trace CRC {got_crc} "
                f"!= {expected_crc} (determinism violation)"
            )
        expected_status = str(doc.get("status", session.status))
        if session.status != expected_status:
            raise ServeError(
                f"restore diverged from checkpoint: status {session.status} "
                f"!= {expected_status}"
            )
        return session
