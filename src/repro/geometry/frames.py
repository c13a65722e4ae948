"""Local robot coordinate systems.

Each robot in the SSM model "has its own local x-y Cartesian coordinate
system with its own unit measure".  A :class:`Frame` captures the three
degrees of freedom the paper manipulates:

* a **rotation** — where the local +x axis points in the world;
* a **unit scale** — the robot's private unit of length;
* a **handedness** — whether the local +y axis is +90° (right-handed)
  or -90° (left-handed) from the local +x axis.

"Chirality" in the paper means all robots share the same handedness;
"sense of direction" means they additionally agree on the orientation
of their y axes (and hence, given chirality, on their x axes).  The
:func:`make_frames` factory generates frame families for each
capability regime so tests can check exactly which assumptions each
protocol needs.

The frame's *origin* is not stored: a robot's origin is its current
position, which changes as it moves, so transform methods take the
origin as an argument.

The point transforms are defined once, on a precomputed
:data:`Basis` (:func:`frame_basis`, :func:`basis_to_local`,
:func:`basis_to_world`): the :class:`Frame` methods call them, and the
engines call them with a basis computed once per robot instead of one
trig evaluation per transform.  Both routes produce the same floats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Literal, Sequence, Tuple

from repro.geometry.vec import Vec2

__all__ = [
    "Basis",
    "Frame",
    "FrameRegime",
    "basis_to_local",
    "basis_to_world",
    "frame_basis",
    "frame_bases",
    "make_frames",
]

FrameRegime = Literal["identical", "sense_of_direction", "chirality", "adversarial"]

#: A frame's orientation as the world components of its local axes:
#: ``(x.x, x.y, y.x, y.y)`` for the local +x axis ``x`` and +y axis ``y``.
Basis = Tuple[float, float, float, float]


def frame_basis(rotation: float, handedness: int) -> Basis:
    """The local axes of a frame, from one cos/sin pair.

    The floats are exactly those of :attr:`Frame.x_axis` (the unit
    vector at ``rotation``) and :attr:`Frame.y_axis` (its +90°
    perpendicular, negated in a left-handed frame).
    """
    c = math.cos(rotation)
    s = math.sin(rotation)
    if handedness == 1:
        return (c, s, -s, c)
    return (c, s, s, -c)


def frame_bases(frames: Iterable["Frame"]) -> List[Basis]:
    """One basis per frame, evaluated once per distinct orientation.

    Under a shared sense of direction every frame gets the same basis
    object.  The key carries the sign of ``rotation`` because ``0.0``
    and ``-0.0`` compare equal but have sines of opposite sign.
    """
    memo: Dict[Tuple[float, float, int], Basis] = {}
    out: List[Basis] = []
    for frame in frames:
        rotation = frame.rotation
        key = (rotation, math.copysign(1.0, rotation), frame.handedness)
        basis = memo.get(key)
        if basis is None:
            basis = memo[key] = frame_basis(rotation, frame.handedness)
        out.append(basis)
    return out


def basis_to_local(basis: Basis, scale: float, world_point: Vec2, origin: Vec2) -> Vec2:
    """:meth:`Frame.to_local` on a precomputed basis."""
    cx, cy, yx, yy = basis
    dx = world_point.x - origin.x
    dy = world_point.y - origin.y
    return Vec2((dx * cx + dy * cy) / scale, (dx * yx + dy * yy) / scale)


def basis_to_world(basis: Basis, scale: float, local_point: Vec2, origin: Vec2) -> Vec2:
    """:meth:`Frame.to_world` on a precomputed basis."""
    cx, cy, yx, yy = basis
    lx = local_point.x * scale
    ly = local_point.y * scale
    return Vec2(origin.x + cx * lx + yx * ly, origin.y + cy * lx + yy * ly)


@dataclass(frozen=True, slots=True)
class Frame:
    """An origin-free local coordinate system.

    Attributes:
        rotation: angle (radians, CCW) of the local +x axis in world
            coordinates.
        scale: length of one local unit in world units; must be > 0.
        handedness: ``+1`` for a right-handed frame (local +y is +90°
            CCW from local +x, like the world frame), ``-1`` for a
            left-handed one.
    """

    rotation: float = 0.0
    scale: float = 1.0
    handedness: int = 1

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise ValueError(f"frame scale must be positive, got {self.scale}")
        if self.handedness not in (1, -1):
            raise ValueError(f"handedness must be +1 or -1, got {self.handedness}")

    # ------------------------------------------------------------------
    # Basis vectors (world coordinates)
    # ------------------------------------------------------------------
    @property
    def x_axis(self) -> Vec2:
        """World direction of the local +x axis (unit length)."""
        return Vec2.unit(self.rotation)

    @property
    def y_axis(self) -> Vec2:
        """World direction of the local +y axis (unit length)."""
        _, _, yx, yy = frame_basis(self.rotation, self.handedness)
        return Vec2(yx, yy)

    # ------------------------------------------------------------------
    # Point transforms
    # ------------------------------------------------------------------
    def to_local(self, world_point: Vec2, origin: Vec2) -> Vec2:
        """Express a world point in this frame centred at ``origin``."""
        return basis_to_local(
            frame_basis(self.rotation, self.handedness), self.scale, world_point, origin
        )

    def to_world(self, local_point: Vec2, origin: Vec2) -> Vec2:
        """Map a local point (frame centred at ``origin``) to the world."""
        return basis_to_world(
            frame_basis(self.rotation, self.handedness), self.scale, local_point, origin
        )

    # ------------------------------------------------------------------
    # Direction transforms (scale-free origin-free)
    # ------------------------------------------------------------------
    def direction_to_local(self, world_direction: Vec2) -> Vec2:
        """Rotate/reflect a world direction into local coordinates.

        Length is preserved (no unit-scale division): directions are
        used for decoding *which way* a robot moved, where only the
        angle matters.
        """
        return Vec2(
            world_direction.dot(self.x_axis),
            world_direction.dot(self.y_axis),
        )

    def direction_to_world(self, local_direction: Vec2) -> Vec2:
        """Rotate/reflect a local direction into world coordinates."""
        return (
            self.x_axis * local_direction.x + self.y_axis * local_direction.y
        )

    # ------------------------------------------------------------------
    # Capability queries
    # ------------------------------------------------------------------
    def shares_handedness_with(self, other: "Frame") -> bool:
        """Chirality test: do the two frames agree on handedness?"""
        return self.handedness == other.handedness

    def shares_y_direction_with(self, other: "Frame", eps: float = 1e-12) -> bool:
        """Sense-of-direction test: do the +y axes point the same way?"""
        return self.y_axis.dot(other.y_axis) > 1.0 - eps


def make_frames(
    count: int,
    regime: FrameRegime,
    seed: int = 0,
    scale_range: Sequence[float] = (0.5, 2.0),
) -> List[Frame]:
    """Generate ``count`` local frames under a capability regime.

    Regimes:

    * ``"identical"`` — every robot uses the world frame (useful as a
      control in tests).
    * ``"sense_of_direction"`` — shared y-axis orientation and shared
      handedness, but private unit scales.  This is the Section 3.2 /
      3.3 assumption.
    * ``"chirality"`` — shared handedness only: private rotations and
      scales.  This is the Section 3.4 / 4.2 assumption.
    * ``"adversarial"`` — private rotations, scales *and* handedness;
      no protocol in the paper works here, and tests verify that.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    lo, hi = scale_range
    if not (0.0 < lo <= hi):
        raise ValueError(f"invalid scale range {scale_range!r}")
    rng = random.Random(seed)
    frames: List[Frame] = []
    for _ in range(count):
        scale = rng.uniform(lo, hi)
        if regime == "identical":
            frames.append(Frame())
        elif regime == "sense_of_direction":
            frames.append(Frame(rotation=0.0, scale=scale, handedness=1))
        elif regime == "chirality":
            frames.append(
                Frame(rotation=rng.uniform(0.0, 2.0 * math.pi), scale=scale, handedness=1)
            )
        elif regime == "adversarial":
            frames.append(
                Frame(
                    rotation=rng.uniform(0.0, 2.0 * math.pi),
                    scale=scale,
                    handedness=rng.choice((1, -1)),
                )
            )
        else:  # pragma: no cover - guarded by Literal type
            raise ValueError(f"unknown frame regime {regime!r}")
    return frames
