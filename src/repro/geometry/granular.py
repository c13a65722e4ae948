"""Granulars — the sliced communication discs of Sections 3.2-3.4, 4.2.

The *granular* ``g_r`` of robot ``r`` is the largest disc centred on
``r`` and enclosed in ``r``'s Voronoi cell; its radius is half the
distance to ``r``'s nearest neighbour.  The disc is sliced by ``m``
diameters (``2m`` slices, adjacent diameters ``pi/m`` apart).  Diameter
0 is aligned on an agreed reference direction — the common North when
the robots have sense of direction (Section 3.2), or the robot's own
horizon line ``H_r`` when they only share chirality (Section 3.4) — and
the remaining diameters are numbered "in the natural order following
the clockwise direction".

Because all robots share handedness, they agree on the clockwise sweep
and hence on the labelling; the :class:`Granular` below therefore takes
the sweep direction as an explicit parameter instead of hard-coding
screen-clockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.errors import AmbiguousDirectionError
from repro.geometry.predicates import DEFAULT_EPS, normalize_angle_positive
from repro.geometry.vec import Vec2
from repro.geometry.voronoi import nearest_neighbor_distance

__all__ = ["Granular", "granular_radius"]


def granular_radius(site: Vec2, others: Sequence[Vec2]) -> float:
    """Radius of the granular of a robot at ``site``.

    Half the nearest-neighbour distance: the largest disc centred on
    the site that fits inside its Voronoi cell (every bisector is at
    exactly half the distance to the corresponding neighbour).
    """
    return nearest_neighbor_distance(site, others) / 2.0


@dataclass(frozen=True)
class Granular:
    """A sliced granular disc.

    Attributes:
        center: the robot position the disc is centred on.
        radius: disc radius (> 0).
        num_diameters: ``m`` — number of labelled diameters
            (``2m`` slices).  Section 3.2 uses ``m = n`` (one diameter
            per robot id); Section 4.2 uses ``m = n + 1`` (the extra
            diameter is the idle slice ``kappa``).
        zero_direction: unit vector of the *positive end* of diameter
            0 (the common North, or the outward horizon direction).
        sweep: ``-1`` for a mathematically-clockwise labelling sweep
            (the convention when local frames are right-handed), ``+1``
            for counter-clockwise.  All robots sharing chirality derive
            the same value.
    """

    center: Vec2
    radius: float
    num_diameters: int
    zero_direction: Vec2
    sweep: int = -1
    #: ``zero_direction.angle()``, computed once for :meth:`classify`.
    _zero_angle: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError(f"granular radius must be > 0, got {self.radius}")
        if self.num_diameters < 1:
            raise ValueError(
                f"granular needs at least one diameter, got {self.num_diameters}"
            )
        if self.sweep not in (1, -1):
            raise ValueError(f"sweep must be +1 or -1, got {self.sweep}")
        norm = self.zero_direction.norm()
        if norm == 0.0:
            raise ValueError("zero_direction must be nonzero")
        if not math.isclose(norm, 1.0, abs_tol=1e-12):
            object.__setattr__(self, "zero_direction", self.zero_direction / norm)
        object.__setattr__(self, "_zero_angle", self.zero_direction.angle())

    # ------------------------------------------------------------------
    # Geometry of the labelled diameters
    # ------------------------------------------------------------------
    @property
    def slice_angle(self) -> float:
        """Angle between adjacent diameters: ``pi / m``."""
        return math.pi / self.num_diameters

    def diameter_direction(self, label: int, positive: bool = True) -> Vec2:
        """Unit vector of one end of a labelled diameter.

        The *positive* end of diameter ``label`` is ``zero_direction``
        rotated by ``label * pi/m`` in the sweep direction; in the
        paper's Section 3.2 wording, that is the
        "Northern/Eastern/North-Eastern" end, used to signal bit 0.
        The negative (Southern/Western) end signals bit 1.
        """
        self._check_label(label)
        direction = self.zero_direction.rotated(self.sweep * label * self.slice_angle)
        return direction if positive else -direction

    def target_point(self, label: int, positive: bool, distance: float) -> Vec2:
        """The point at ``distance`` from the centre along a diameter end.

        Raises:
            ValueError: when the distance would leave the open disc
                (the protocols must stay strictly inside the granular
                to preserve collision avoidance).
        """
        if not (0.0 < distance < self.radius):
            raise ValueError(
                f"distance must be in (0, {self.radius}), got {distance}"
            )
        return self.center + self.diameter_direction(label, positive) * distance

    def contains(self, point: Vec2, eps: float = DEFAULT_EPS) -> bool:
        """Whether the point lies in the closed granular disc."""
        return self.center.distance_to(point) <= self.radius + eps

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def classify(
        self,
        point: Vec2,
        angle_tolerance: float | None = None,
        eps: float = DEFAULT_EPS,
    ) -> Tuple[int, bool]:
        """Decode a displaced position into ``(label, positive_end)``.

        Observers decode a robot's movement by mapping its off-centre
        position back to the granular diameter it travelled along.

        Args:
            point: the observed position, distinct from the centre.
            angle_tolerance: maximum angular deviation from the exact
                diameter direction; defaults to a quarter of the
                half-slice angle, which rejects positions that fall
                ambiguously between diameters.
            eps: minimum radial displacement considered a movement.

        Raises:
            AmbiguousDirectionError: when the point is at the centre or
                not aligned with any diameter within tolerance.
        """
        offset = point - self.center
        if offset.norm() <= eps:
            raise AmbiguousDirectionError("point coincides with the granular centre")
        slice_angle = self.slice_angle
        if angle_tolerance is None:
            angle_tolerance = slice_angle / 4.0

        # Sweep angle from the zero direction, measured in the sweep
        # direction, in [0, 2*pi).
        raw = offset.angle() - self._zero_angle
        swept = normalize_angle_positive(self.sweep * raw)

        nearest = round(swept / slice_angle)
        index = nearest % (2 * self.num_diameters)
        deviation = abs(swept - nearest * slice_angle)
        if deviation > angle_tolerance:
            raise AmbiguousDirectionError(
                f"direction deviates {deviation:.4f} rad from the nearest "
                f"diameter (tolerance {angle_tolerance:.4f})"
            )
        if index < self.num_diameters:
            return index, True
        return index - self.num_diameters, False

    def _check_label(self, label: int) -> None:
        if not (0 <= label < self.num_diameters):
            raise ValueError(
                f"diameter label must be in [0, {self.num_diameters}), got {label}"
            )
