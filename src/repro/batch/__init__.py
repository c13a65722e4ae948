"""``repro.batch`` — the vectorized struct-of-arrays simulation backend.

The scalar engine (:class:`repro.model.simulator.Simulator`) drives one
Python object per robot per instant, which caps practical swarm sizes
around a few hundred robots.  This package stores positions, local
frames, activation bookkeeping and protocol bit-state as flat NumPy
arrays and executes whole Look-Compute-Move rounds as array operations:

* :mod:`repro.batch.arrays` — the SoA swarm container and the
  vectorized frame transforms (bit-for-bit mirrors of
  :class:`~repro.geometry.frames.Frame` / :class:`~repro.geometry.vec.
  Vec2` arithmetic);
* :mod:`repro.batch.neighbors` — batched pairwise-distance and
  nearest-neighbour passes (the vectorized replacement for per-robot
  ``SpatialHashGrid`` queries);
* :mod:`repro.batch.sec` — Welzl-free smallest enclosing circle via
  vectorized candidate enumeration, with a scalar fallback for
  degenerate inputs;
* :mod:`repro.batch.granular` — batched granular radii and slice
  classification;
* :mod:`repro.batch.geometry` — the epoch-invalidated geometry facade
  (the :class:`~repro.perf.cache.CachedGeometry` contract, array-backed);
* :mod:`repro.batch.kernel` — the vectorized granular protocol and
  :func:`~repro.batch.kernel.kernel_eligible`, the envelope of swarms
  it can host;
* :mod:`repro.batch.engine` — :class:`~repro.batch.engine.
  BatchSimulator`, the kernel behind the scalar simulator's surface.

``numpy`` is an *optional* dependency (the ``[batch]`` extra).  Every
entry point degrades gracefully: :func:`available` probes without
raising, :func:`require_numpy` raises a clear ``ImportError``, and
:func:`make_simulator` falls back to the scalar engine when numpy is
absent or the swarm is outside the kernel's envelope (or, with
``strict=True``, refuses loudly); :func:`supports` says which engine
it will pick.

Correctness is enforced by the scalar-vs-batch axis of the
differential oracle (:mod:`repro.verify.differential`): same seed,
byte-identical traces, received bit streams and monitor verdicts on
every matrix cell the kernel can host.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

__all__ = [
    "available",
    "require_numpy",
    "make_simulator",
    "supports",
    "BACKENDS",
    "ENGINES",
    "NUMPY_HINT",
]

#: The selectable backend names (the ``backend=`` vocabulary).
BACKENDS = ("scalar", "batch")

#: The selectable engine names (the ``engine=`` vocabulary):
#: ``"rounds"`` steps every instant, ``"events"`` pops
#: ``(time, phase, robot)`` events off a heap (:mod:`repro.events`).
ENGINES = ("rounds", "events")

#: The one sentence every numpy-gated entry point repeats.
NUMPY_HINT = (
    "the batch backend needs numpy; install the optional extra with "
    "`pip install repro-deaf-dumb-chatting[batch]` (or `pip install numpy`), "
    "or select backend='scalar'"
)

_NUMPY = None
_PROBED = False


def _probe():
    """Import numpy once; cache the module (or the failure)."""
    global _NUMPY, _PROBED
    if not _PROBED:
        _PROBED = True
        try:
            import numpy
        except ImportError:
            _NUMPY = None
        else:
            _NUMPY = numpy
    return _NUMPY


def available() -> bool:
    """Whether the batch backend can run here (numpy importable).

    Benches and tests use this to *skip cleanly* instead of crashing;
    the default CI test job runs numpy-free to prove the fallback.
    """
    return _probe() is not None


def require_numpy():
    """Return the numpy module or raise a clear ``ImportError``."""
    numpy = _probe()
    if numpy is None:
        raise ImportError(NUMPY_HINT)
    return numpy


def supports(robots: Sequence) -> bool:
    """Whether ``make_simulator(robots, backend="batch")`` runs the batch engine.

    True when numpy is importable and the swarm is in the granular
    kernel's envelope (:func:`repro.batch.kernel.kernel_eligible`);
    every other swarm runs on the scalar engine.  Model variants —
    look policies (``look=``), ``visibility_radius`` and the lattice
    worlds — are scalar engine options with no batch port.
    """
    if not available():
        return False
    from repro.batch.kernel import kernel_eligible

    return kernel_eligible(robots)


def make_simulator(
    robots: Sequence,
    scheduler=None,
    *,
    backend: str = "scalar",
    engine: str = "rounds",
    caching: bool = True,
    trace_policy=None,
    strict: bool = False,
    timing=None,
    delay=None,
    registry=None,
):
    """Build a simulator for ``robots`` behind a selectable backend.

    Args:
        backend: ``"scalar"`` (the classic per-object engine) or
            ``"batch"`` (the vectorized SoA engine).
        engine: ``"rounds"`` (instant-stepped, the default) or
            ``"events"`` (the event-queue engine of
            :mod:`repro.events`; scalar-only).  With the default
            round-emulation timing the two engines are byte-identical
            (``python -m repro.verify --event-oracle``).
        strict: with ``backend="batch"``, raise instead of degrading
            to scalar when numpy is missing (``ImportError``) or the
            swarm is outside the kernel's envelope (``ValueError``).
        timing / delay / registry: event-engine knobs (a
            :class:`~repro.events.timing.TimingModel`, a
            :class:`~repro.events.delay.DelayModel`, a
            :class:`~repro.obs.registry.MetricsRegistry`); only valid
            with ``engine="events"``.

    The two backends are trace-equivalent — same robots, same
    scheduler, same seed produce byte-identical traces, received bit
    streams and final configurations (enforced on the kernel's swarms
    by ``python -m repro.verify --backend-oracle``; every other swarm
    runs on the scalar engine under either name).
    """
    from repro.model.simulator import Simulator

    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r} (choose from {BACKENDS})")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (choose from {ENGINES})")
    if engine == "events":
        if backend != "scalar":
            raise ValueError(
                "the event engine runs on the scalar backend only; "
                "use backend='scalar' (or engine='rounds' with backend='batch')"
            )
        from repro.events.engine import EventSimulator

        return EventSimulator(
            robots,
            scheduler,
            timing=timing,
            delay=delay,
            registry=registry,
            caching=caching,
            trace_policy=trace_policy,
        )
    if timing is not None or delay is not None or registry is not None:
        raise ValueError(
            "timing/delay/registry are event-engine knobs; pass engine='events'"
        )
    if backend == "batch":
        if not supports(robots):
            if strict:
                from repro.batch.kernel import KERNEL_ENVELOPE

                require_numpy()
                raise ValueError(
                    "the batch backend cannot host this swarm: it runs "
                    f"{KERNEL_ENVELOPE}; use backend='scalar'"
                )
            return Simulator(
                robots, scheduler, caching=caching, trace_policy=trace_policy
            )
        from repro.batch.engine import BatchSimulator

        return BatchSimulator._of_eligible(
            robots, scheduler, caching=caching, trace_policy=trace_policy
        )
    return Simulator(robots, scheduler, caching=caching, trace_policy=trace_policy)
