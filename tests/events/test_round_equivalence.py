"""Round-emulation equivalence: every protocol, both scheduler arms.

The tentpole claim — the event engine in round-emulation mode is
*byte-identical* to the round engine — exercised per protocol through
the ``engine`` axis of the :mod:`repro.verify.differential` oracle:
identical traces, bit streams, final configurations, epochs and
monitor verdicts, under both full synchrony and a seeded
fair-asynchronous scheduler (genuinely partial activation).  The full seed fan runs in CI via
``python -m repro.verify --event-oracle``; this is the per-protocol
pytest surface.

The same promise covers every model variant the engines share through
the observation seam: :class:`~repro.model.looks.StaleLook` (lag
bounds 1, 2, 4, undilated and with matched dilation),
:class:`~repro.model.looks.SensingNoise` with the robust decoder, and
``visibility_radius`` with flooded multi-hop routing.  Those runs are
diffed with :func:`repro.verify.engine.diff_runs` under exception
parity: when one engine raises, the other must raise the same error,
and the runs up to the raise must still be identical.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.channels.transport import MovementChannel
from repro.errors import ReproError
from repro.geometry.vec import Vec2
from repro.model.looks import SensingNoise, StaleLook
from repro.model.robot import Robot
from repro.model.scheduler import FairAsynchronousScheduler
from repro.verify.differential import AXES, compare
from repro.verify.engine import diff_runs
from repro.verify.monitors import (
    CollisionFreedomMonitor,
    StalenessContractMonitor,
    attach,
)
from repro.verify.scenarios import CELLS, PROTOCOLS
from repro.visibility.flooding import FloodRouter
from repro.visibility.protocol import LocalGranularProtocol
from tests.model.test_looks import BITS, make_sim, ring

pytestmark = [pytest.mark.events, pytest.mark.verify]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_synchronous_cells_are_byte_identical(protocol):
    cell = CELLS[(protocol, "synchronous")]
    result = compare(cell, 5, *AXES["engine"], quick=True)
    assert result.ok, (result.problems, result.error)
    assert result.steps > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fair_async_partial_activation_is_byte_identical(protocol):
    cell = CELLS[(protocol, "synchronous")]
    result = compare(
        cell,
        8,
        *AXES["engine"],
        quick=True,
        scheduler_factory=lambda: FairAsynchronousScheduler(seed=97),
        variant="fair_async",
    )
    assert result.ok, (result.problems, result.error)


# ----------------------------------------------------------------------
# Look policies and limited visibility: rounds vs events
# ----------------------------------------------------------------------

def _policy_twin(engine: str, robots, drive, **kwargs):
    """Drive one engine with monitors attached; returns (run, error).

    A raise is captured, not propagated, so the caller can demand
    exception parity *and* diff the runs up to the raise.
    """
    sim = make_sim(engine, robots, **kwargs)
    run = SimpleNamespace(
        sim=sim, monitors=[CollisionFreedomMonitor(), StalenessContractMonitor()]
    )
    attach(sim, run.monitors)
    try:
        drive(sim)
    except ReproError as exc:
        return run, exc
    for monitor in run.monitors:
        monitor.finish(sim)
    return run, None


def _assert_engines_agree(make_robots, drive, make_look=lambda: None, **kwargs):
    """Each engine gets fresh robots and its own look policy instance."""
    rounds, r_exc = _policy_twin(
        "rounds", make_robots(), drive, look=make_look(), **kwargs
    )
    events, e_exc = _policy_twin(
        "events", make_robots(), drive, look=make_look(), **kwargs
    )
    assert (type(r_exc), str(r_exc)) == (type(e_exc), str(e_exc))
    assert diff_runs(rounds, rounds.sim.time, events, events.sim.time) == []
    return rounds


def _transfer(steps: int):
    def drive(sim):
        sim.protocol_of(0).send_bits(2, BITS)
        sim.run(steps)

    return drive


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("dilated", [False, True], ids=["dilation1", "matched"])
@pytest.mark.parametrize("delay", [1, 2, 4])
def test_stale_look_runs_identically_on_both_engines(delay, dilated, seed):
    dilation = delay + 1 if dilated else 1
    _assert_engines_agree(
        lambda: ring(dilation),
        _transfer(2 * dilation * len(BITS) + 2 * delay + 10),
        make_look=lambda: StaleLook(delay, seed=seed),
    )


@pytest.mark.parametrize("seed", range(5))
def test_sensing_noise_runs_identically_on_both_engines(seed):
    rounds = _assert_engines_agree(
        lambda: ring(robust=True),
        _transfer(2 * len(BITS) + 4),
        make_look=lambda: SensingNoise(0.05, seed=seed),
    )
    assert [e.bit for e in rounds.sim.protocol_of(2).received] == BITS


@pytest.mark.parametrize("seed", range(5))
def test_limited_visibility_floods_identically_on_both_engines(seed):
    rng = random.Random(seed)
    positions = [
        Vec2(10.0 * i + rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        for i in range(4)
    ]

    def make_robots():
        return [
            Robot(position=p, protocol=LocalGranularProtocol(), sigma=4.0, observable_id=i)
            for i, p in enumerate(positions)
        ]

    def drive(sim):
        routers = [
            FloodRouter(MovementChannel(sim.protocol_of(i))) for i in range(sim.count)
        ]
        routers[0].send(3, f"hop{seed}")
        while not routers[3].inbox and sim.time < 4000:
            sim.step()
            for router in routers:
                router.pump(sim.time)
        assert routers[3].inbox

    _assert_engines_agree(make_robots, drive, visibility_radius=12.0)
