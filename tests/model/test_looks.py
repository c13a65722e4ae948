"""Look policies and limited visibility on both scalar engines.

Two promises of the one observation seam
(``Simulator._config_for_observation``):

* **golden runs** — stale looks, sawtooth stale looks, sensing noise
  and a limited-visibility flood reproduce CRCs recorded from the
  simulator subclasses these policies replaced, on the round engine
  *and* on the event engine in round emulation, so the runs are the
  same trajectories as before, not only the same as each other;
* **one visibility test** — both engines decide visibility with the
  same squared-distance comparison, including exactly at the radius.

The corpus lives in ``tests/verify/seeds.json`` under
``look_policy_corpus``; each CRC is :func:`repro.model.trace.trace_crc`
(retained trace steps, then every received bit).
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import List, Tuple

import pytest

from repro.apps.harness import ring_positions
from repro.channels.transport import MovementChannel
from repro.errors import ModelError
from repro.events.delay import ConstantDelay
from repro.events.engine import EventSimulator
from repro.events.timing import TimingModel
from repro.geometry.vec import Vec2
from repro.model.looks import SensingNoise, StaleLook
from repro.model.robot import Robot
from repro.model.simulator import Simulator
from repro.model.trace import trace_crc
from repro.protocols.sync_granular import SyncGranularProtocol
from repro.verify.adversaries import SawtoothStaleLook
from repro.visibility.flooding import FloodRouter
from repro.visibility.protocol import LocalGranularProtocol

_CORPUS_PATH = pathlib.Path(__file__).parent.parent / "verify" / "seeds.json"
CORPUS_KEY = "look_policy_corpus"
ENGINES = ("rounds", "events")
BITS = [1, 0, 1, 0, 1]


def _entries():
    with open(_CORPUS_PATH) as handle:
        return json.load(handle)[CORPUS_KEY]


def make_sim(engine: str, robots, **kwargs) -> Simulator:
    """One scalar engine: rounds, or events in round emulation."""
    if engine == "events":
        return EventSimulator(robots, timing=TimingModel.round_emulation(), **kwargs)
    return Simulator(robots, **kwargs)


def ring(dilation: int = 1, robust: bool = False) -> List[Robot]:
    kwargs = {"off_home_fraction": 0.25, "tolerate_ambiguity": True} if robust else {}
    return [
        Robot(
            position=p,
            protocol=SyncGranularProtocol(dilation=dilation, **kwargs),
            sigma=4.0,
            observable_id=i,
        )
        for i, p in enumerate(ring_positions(5, radius=10.0, jitter=0.06))
    ]


def golden_run(entry, engine: str) -> Tuple[Simulator, int]:
    """Rebuild one corpus run on one engine; returns (sim, steps)."""
    if entry["run"] == "visibility":
        robots = [
            Robot(
                position=Vec2(10.0 * i, 0.0),
                protocol=LocalGranularProtocol(),
                sigma=4.0,
                observable_id=i,
            )
            for i in range(5)
        ]
        sim = make_sim(engine, robots, visibility_radius=entry["radius"])
        routers = [FloodRouter(MovementChannel(r.protocol)) for r in robots]
        routers[0].send(4, "across the line")
        while not routers[4].inbox and sim.time < 4000:
            sim.step()
            for router in routers:
                router.pump(sim.time)
        return sim, sim.time
    if entry["run"] == "noise":
        robots = ring(robust=True)
        look = SensingNoise(entry["std"], seed=entry["seed"])
    elif entry["run"] == "stale":
        robots = ring(dilation=entry["dilation"])
        look = StaleLook(entry["max_delay"], seed=entry["seed"])
    else:
        robots = ring(dilation=entry["dilation"])
        look = SawtoothStaleLook(entry["max_delay"])
    sim = make_sim(engine, robots, look=look)
    robots[0].protocol.send_bits(2, BITS)
    sim.run(entry["steps"])
    return sim, entry["steps"]


class TestGoldenCorpus:
    def test_corpus_covers_every_variant(self):
        kinds = {e["run"] for e in _entries()}
        assert kinds == {"stale", "sawtooth", "noise", "visibility"}
        assert {e["max_delay"] for e in _entries() if e["run"] == "stale"} == {1, 2}

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "entry",
        _entries(),
        ids=lambda e: f"{e['run']}-{e.get('max_delay', e.get('std', e.get('radius')))}"
        f"-s{e['seed']}",
    )
    def test_policy_reproduces_recorded_run(self, entry, engine):
        sim, steps = golden_run(entry, engine)
        assert steps == entry["steps"]
        assert trace_crc(sim) == entry["crc"]


class TestVisibilityBoundary:
    """Regression: the two engines once disagreed exactly at the radius."""

    def _pair(self, engine: str) -> Simulator:
        robots = [
            Robot(position=p, protocol=LocalGranularProtocol(), sigma=0.01, observable_id=i)
            for i, p in enumerate((Vec2(0.0, 0.0), Vec2(0.1, 0.1)))
        ]
        return make_sim(engine, robots, visibility_radius=math.hypot(0.1, 0.1))

    def test_engines_see_the_same_sets_at_the_radius(self):
        rounds, events = self._pair("rounds"), self._pair("events")
        for i in range(2):
            assert rounds._visible_from(i) == events._visible_from(i)
            assert rounds._compute_visible_from(i) == events._compute_visible_from(i)
        # Squared distances compared: 0.1² + 0.1² rounds above hypot(0.1, 0.1)².
        assert rounds._visible_from(0) == frozenset({0})

    def test_engines_bind_the_same_initial_knowledge(self):
        rounds, events = self._pair("rounds"), self._pair("events")
        for i in range(2):
            assert tuple(rounds.protocol_of(i).info.initial_positions) == tuple(
                events.protocol_of(i).info.initial_positions
            )


class TestPolicyContract:
    def test_a_policy_serves_one_simulator(self):
        look = StaleLook(1)
        Simulator(ring(), look=look)
        with pytest.raises(ModelError, match="one look policy per run"):
            Simulator(ring(), look=look)

    def test_look_policy_and_delay_model_are_exclusive(self):
        with pytest.raises(ModelError, match="look policy"):
            EventSimulator(ring(), look=SensingNoise(0.1), delay=ConstantDelay(1.0))
