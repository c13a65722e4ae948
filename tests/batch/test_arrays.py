"""``SwarmArrays`` columns against the scalar robot and frame values."""

from __future__ import annotations

import random
import struct

import pytest

from repro.geometry.frames import make_frames
from repro.geometry.vec import Vec2
from repro.model.robot import Robot
from repro.protocols.sync_granular import SyncGranularProtocol
from tests.batch.conftest import requires_numpy

pytestmark = requires_numpy


def _bits(value):
    return struct.pack("<d", value)


@pytest.mark.parametrize(
    "regime", ["identical", "sense_of_direction", "chirality", "adversarial"]
)
def test_columns_bit_identical_to_frames(regime):
    from repro.batch.arrays import SwarmArrays

    rng = random.Random(4)
    count = 200
    frames = make_frames(count, regime, seed=8)
    robots = [
        Robot(
            position=Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50)),
            protocol=SyncGranularProtocol(),
            frame=frames[i],
            sigma=rng.uniform(0.5, 3.0),
        )
        for i in range(count)
    ]
    if regime == "adversarial":
        assert {f.handedness for f in frames} == {1, -1}
    arrays = SwarmArrays(robots)
    columns = {
        "px": lambda r: r.position.x,
        "py": lambda r: r.position.y,
        "xaxx": lambda r: r.frame.x_axis.x,
        "xaxy": lambda r: r.frame.x_axis.y,
        "yaxx": lambda r: r.frame.y_axis.x,
        "yaxy": lambda r: r.frame.y_axis.y,
        "scale": lambda r: r.frame.scale,
        "sigma": lambda r: r.sigma,
    }
    for name, scalar in columns.items():
        column = getattr(arrays, name)
        assert [_bits(float(v)) for v in column] == [_bits(scalar(r)) for r in robots], name
    assert arrays.ax.tobytes() == arrays.px.tobytes()
    assert arrays.ay.tobytes() == arrays.py.tobytes()


def _robots(points):
    return [Robot(position=p, protocol=SyncGranularProtocol()) for p in points]


def test_positions_tuple_reuses_unmoved_vec2s():
    from repro.batch.arrays import SwarmArrays

    points = [Vec2(float(i), 0.5 * i) for i in range(6)]
    points[2] = Vec2(0.0, 7.0)
    arrays = SwarmArrays(_robots(points))
    first = arrays.positions_tuple()
    assert all(a is b for a, b in zip(first, points))
    assert arrays.positions_tuple() is first
    arrays.px[4] += 1.0
    arrays.px[2] = -0.0  # equal to 0.0, but a different bit pattern
    second = arrays.positions_tuple()
    assert [i for i in range(6) if second[i] is not first[i]] == [2, 4]
    assert repr(second[2]) == repr(Vec2(-0.0, 7.0))
    assert second[4] == Vec2(5.0, 2.0)


def test_positions_tuple_holds_floats_for_int_coordinates():
    from repro.batch.arrays import SwarmArrays

    arrays = SwarmArrays(_robots([Vec2(0, 0), Vec2(3, 0), Vec2(0, 4)]))
    for p in arrays.positions_tuple():
        assert type(p.x) is float and type(p.y) is float
