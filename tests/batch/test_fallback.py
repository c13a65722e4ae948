"""The numpy-free degradation paths of :mod:`repro.batch`.

These tests simulate a numpy-free interpreter by poisoning the probe
cache, so they run (and matter) everywhere — including environments
where numpy *is* installed.  The contract: ``available()`` answers
False without raising, ``make_simulator`` silently degrades to the
scalar engine, and ``strict=True`` refuses with the one canonical
hint message.
"""

from __future__ import annotations

import pytest

import repro.batch
from repro.geometry.vec import Vec2
from repro.model.robot import Robot
from repro.model.simulator import Simulator
from repro.protocols.sync_granular import SyncGranularProtocol
from tests.batch.conftest import requires_numpy


def _swarm():
    from repro.geometry.frames import make_frames

    positions = [Vec2(0.0, 0.0), Vec2(8.0, 0.0), Vec2(3.0, 7.0)]
    frames = make_frames(3, "sense_of_direction", seed=0)
    return [
        Robot(
            position=p,
            protocol=SyncGranularProtocol(),
            frame=frames[i],
            sigma=2.0,
            observable_id=i,
        )
        for i, p in enumerate(positions)
    ]


@pytest.fixture
def no_numpy(monkeypatch):
    """Make ``repro.batch`` believe numpy is not importable."""
    monkeypatch.setattr(repro.batch, "_NUMPY", None)
    monkeypatch.setattr(repro.batch, "_PROBED", True)


def test_available_probe_answers_false(no_numpy):
    assert repro.batch.available() is False
    assert repro.batch.supports(_swarm()) is False


def test_require_numpy_raises_with_hint(no_numpy):
    with pytest.raises(ImportError, match="batch backend needs numpy"):
        repro.batch.require_numpy()


def test_make_simulator_degrades_to_scalar(no_numpy):
    sim = repro.batch.make_simulator(_swarm(), backend="batch")
    assert type(sim) is Simulator
    sim.run(3)  # the degraded simulator is fully functional


def test_make_simulator_strict_refuses(no_numpy):
    with pytest.raises(ImportError, match="batch backend needs numpy"):
        repro.batch.make_simulator(_swarm(), backend="batch", strict=True)


def test_backend_oracle_cli_skips_cleanly(no_numpy, capsys):
    from repro.verify.__main__ import main

    assert main(["--backend-oracle", "--quick", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "backend oracle skipped" in out


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        repro.batch.make_simulator(_swarm(), backend="simd")


def test_scalar_backend_never_touches_numpy(no_numpy):
    sim = repro.batch.make_simulator(_swarm(), backend="scalar")
    assert type(sim) is Simulator


@requires_numpy
def test_make_simulator_batch_selects_batch_engine():
    from repro.batch.engine import BatchSimulator

    assert repro.batch.supports(_swarm()) is True
    sim = repro.batch.make_simulator(_swarm(), backend="batch")
    assert type(sim) is BatchSimulator
    assert sim.mode == "kernel"


@requires_numpy
def test_make_simulator_strict_rejects_unsupported_swarm():
    with pytest.raises(ValueError, match="cannot host this swarm"):
        repro.batch.make_simulator([], backend="batch", strict=True)


@requires_numpy
@pytest.mark.parametrize("in_envelope", [True, False])
def test_make_simulator_runs_one_eligibility_pass(monkeypatch, in_envelope):
    import repro.batch.engine as engine
    import repro.batch.kernel as kernel

    calls = []

    def counting(robots):
        calls.append(len(robots))
        return real(robots)

    real = kernel.kernel_eligible
    monkeypatch.setattr(kernel, "kernel_eligible", counting)
    monkeypatch.setattr(engine, "kernel_eligible", counting)
    robots = _swarm()
    if not in_envelope:
        robots[0].protocol = SyncGranularProtocol(dilation=2)
    sim = repro.batch.make_simulator(robots, backend="batch")
    assert type(sim) is (engine.BatchSimulator if in_envelope else Simulator)
    assert calls == [3]
