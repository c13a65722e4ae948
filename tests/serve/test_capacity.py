"""Capacity: over a thousand sessions live at once, and eviction churn.

The capacity check holds a cohort of 1,050 two-robot chat sessions
open together through :class:`ServeClient` — none is closed until all
are done — so the service must carry every one of them concurrently
without rejecting a request.  The churn check runs a cohort several
times larger than ``max_live`` over a :class:`SessionStore`: sessions
are checkpointed, evicted and restored while they make progress, and
every restore re-checks the trace CRC against its checkpoint (a
mismatch raises, so finishing ``done`` is the proof).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.client import ServeClient
from repro.serve.manager import ServeConfig, SessionManager
from repro.serve.pool import make_pool
from repro.serve.store import SessionStore

pytestmark = pytest.mark.serve


async def _chat(client: ServeClient, seed: int, instants_per_step: int,
                close: bool = True) -> str:
    """One scripted two-robot chat, stepped until it leaves ``running``."""
    sid = await client.create(
        "chat", 2, seed=seed,
        params={"script": [[0, f"ping {seed}"], [1, f"pong {seed}"]]},
    )
    doc = await client.run_to_completion(sid, instants_per_step=instants_per_step)
    if close:
        await client.close(sid)
    return str(doc["status"])


def _churn(sessions: int, max_live: int, root: str):
    """Run ``sessions`` chats over ``max_live`` slots; (outcomes, stats)."""

    async def body():
        async with SessionManager(
            make_pool(0), store=SessionStore(root),
            config=ServeConfig(max_live=max_live),
        ) as manager:
            client = ServeClient(manager)
            outcomes = await asyncio.gather(
                *(_chat(client, 7_919 + i, instants_per_step=8)
                  for i in range(sessions))
            )
            return outcomes, manager.stats()

    return asyncio.run(body())


def test_churn_forces_evictions_and_restores(tmp_path):
    outcomes, stats = _churn(sessions=10, max_live=3, root=str(tmp_path))
    assert outcomes == ["done"] * 10
    assert stats["evictions"] > 0
    assert stats["restores"] > 0
    assert stats["checkpoint_bytes"] > 0


@pytest.mark.slow
def test_1050_sessions_live_at_once(tmp_path):
    sessions = 1_050

    async def body():
        async with SessionManager(
            make_pool(0), config=ServeConfig(max_live=2_048)
        ) as manager:
            client = ServeClient(manager)
            outcomes = await asyncio.gather(
                *(_chat(client, i, instants_per_step=16, close=False)
                  for i in range(sessions))
            )
            stats = manager.stats()
            for sid in manager.session_ids():
                await client.close(sid)
            return outcomes, stats

    outcomes, stats = asyncio.run(body())
    assert outcomes == ["done"] * sessions
    assert stats["peak_open"] >= 1_000
    assert stats["rejections"] == 0

    outcomes, stats = _churn(sessions=48, max_live=12, root=str(tmp_path))
    assert outcomes == ["done"] * 48
    assert stats["evictions"] >= 1
    assert stats["restores"] >= 1
