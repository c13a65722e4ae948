"""Swarm-as-a-service: the long-running session-serving layer.

``repro.serve`` multiplexes thousands of concurrent swarm sessions —
chat, gossip, leader election, token ring over
:class:`~repro.apps.harness.SwarmHarness` — behind one asyncio event
loop and a (optionally multi-process) worker pool:

* :mod:`repro.serve.session` — event-sourced sessions with
  CRC-witnessed checkpoint/restore,
* :mod:`repro.serve.manager` — lifecycle, cooperative batch stepping,
  watermark backpressure, LRU eviction through the campaign store,
* :mod:`repro.serve.client` / :mod:`repro.serve.net` — the in-process
  and TCP JSONL front ends (identical verb set); the TCP port also
  answers ``GET /metrics`` (Prometheus text) and ``GET /healthz``.

The service's speed is measured by the repo benchmark
(``perfbench/run.py``, workloads ``serve_mix`` and ``serve_churn``).

Wire a :class:`~repro.obs.live.RequestTracer` into the manager
(``SessionManager(..., tracer=RequestTracer())``) and every request
gets a trace with telescoping queue-wait/restore/execute/dispatch/reply
spans, rolling percentiles per op x app, and SLO attainment — all off
(zero dispatches) when no tracer is given.  ``python -m repro.obs
top`` renders a live dashboard from the ``telemetry`` verb.

``pip install repro[serve]`` additionally pulls in `uvloop`__; without
it the service runs unchanged on the stdlib event loop —
:func:`install_uvloop` reports which one you got.

__ https://github.com/MagicStack/uvloop
"""

from __future__ import annotations

from repro.serve.client import ServeClient
from repro.serve.manager import ServeConfig, SessionManager
from repro.serve.pool import InlinePool, ProcessPool, make_pool
from repro.serve.session import APPS, Session, SessionSpec
from repro.serve.store import SessionStore

__all__ = [
    "APPS",
    "InlinePool",
    "ProcessPool",
    "ServeClient",
    "ServeConfig",
    "Session",
    "SessionManager",
    "SessionSpec",
    "SessionStore",
    "UVLOOP_AVAILABLE",
    "install_uvloop",
    "make_pool",
]

try:  # the [serve] extra; never required
    import uvloop as _uvloop  # type: ignore[import-not-found]

    UVLOOP_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised where uvloop exists
    _uvloop = None
    UVLOOP_AVAILABLE = False


def install_uvloop() -> bool:
    """Use uvloop's event-loop policy when available; never a hard dep.

    Returns True when uvloop is now driving ``asyncio``; False means
    the stdlib loop is in charge and everything still works — the
    service treats uvloop purely as an accelerator.
    """
    if _uvloop is None:
        return False
    _uvloop.install()
    return True
