"""Checkpoint → evict → restore byte-identity, across all four apps.

The serving layer's core promise: parking a session on disk and
replaying it later puts the swarm in *exactly* the state it left —
same trace, same received bits (one CRC covers both) — even with
external traffic interleaved before and after the checkpoint, and the
restored session's future is byte-identical to an uninterrupted twin's.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import ServeError
from repro.serve.manager import ServeConfig, SessionManager
from repro.serve.pool import make_pool
from repro.serve.session import APPS, Session, SessionSpec
from repro.serve.store import SessionStore

from tests.serve.test_session import drive, spec_for

pytestmark = pytest.mark.serve


@pytest.mark.parametrize("app", sorted(APPS))
def test_restore_matches_uninterrupted_control(app):
    """Mid-flight checkpoint + restore == never having checkpointed."""
    control = Session(spec_for(app))
    probed = Session(spec_for(app))
    for session in (control, probed):
        session.step(20)
        session.apply_send(0, 1, b"external poke")
        session.step(7)

    # Park and replay the probed twin; the control keeps its objects.
    checkpoint = probed.checkpoint()
    doc = json.loads(json.dumps(checkpoint))  # full serialization trip
    restored = Session.restore(doc)
    assert restored.trace_crc() == control.trace_crc()
    assert restored.steps_applied == control.steps_applied

    # The futures stay identical too: more traffic, more steps.
    for session in (control, restored):
        session.apply_send(1, 0, b"after restore")
        drive(session)
    assert restored.status == control.status
    assert restored.trace_crc() == control.trace_crc()
    assert restored.summary() == control.summary()


def test_restore_rejects_tampered_checkpoint():
    session = Session(spec_for("chat"))
    session.step(16)
    doc = session.checkpoint()
    doc["trace_crc"] = "deadbeef"
    with pytest.raises(ServeError, match="diverged from checkpoint"):
        Session.restore(doc)


@pytest.mark.parametrize("crc", [None, ""])
def test_restore_rejects_checkpoint_without_trace_crc(crc):
    session = Session(spec_for("chat"))
    session.step(16)
    doc = session.checkpoint()
    if crc is None:
        del doc["trace_crc"]
    else:
        doc["trace_crc"] = crc
    with pytest.raises(ServeError, match="no trace_crc"):
        Session.restore(doc)


def test_restore_rejects_wrong_schema_and_version():
    doc = Session(spec_for("chat")).checkpoint()
    with pytest.raises(ServeError, match="unsupported checkpoint version"):
        Session.restore({**doc, "version": 99})
    with pytest.raises(ServeError, match="not a session checkpoint"):
        Session.restore({**doc, "schema": "pickle"})


@pytest.mark.parametrize("app", sorted(APPS))
def test_evict_restore_through_service(app, tmp_path):
    """The full service path: LRU eviction to disk, restore on touch."""

    async def run() -> None:
        config = ServeConfig(max_live=1)
        store = SessionStore(str(tmp_path / "store"))
        async with SessionManager(make_pool(0), store=store,
                                  config=config) as manager:
            spec = spec_for(app)
            victim = await manager.create(spec)
            await manager.step(victim, 12)
            # A second session forces the victim out (max_live=1).
            other = await manager.create(spec_for("chat", seed=9))
            assert store.has(victim)
            assert (await manager.query(victim))["evicted"] is True
            assert (await manager.query(victim))["steps_applied"] == 12

            # Touching the victim restores it — Session.restore replays
            # the checkpoint and verifies the trace CRC; a silent
            # determinism break would raise here, not pass.
            doc = await manager.step(victim, 40)
            assert doc["status"] in ("running", "done")
            assert doc["steps_applied"] >= 12
            assert manager.stats()["restores"] == 1
            assert manager.stats()["evictions"] >= 1
            await manager.close(victim)
            await manager.close(other)

    asyncio.run(run())


def test_checkpoint_document_is_small_and_json_safe():
    session = Session(spec_for("leader_election"))
    session.step(64)
    session.apply_send(0, 1, b"\x00\xff binary ok")
    blob = json.dumps(session.checkpoint())
    assert len(blob) < 4_096  # event-sourced: spec + inputs, not state
    assert json.loads(blob)["steps_applied"] == 64
