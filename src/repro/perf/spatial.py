"""A uniform spatial-hash grid for fixed-radius neighbour queries.

Rejection-sampling a well-separated point set with an all-pairs
distance check is O(n²) and dominates benchmark setup at large n; a
grid with cell size >= the separation radius answers "is anything
within r of p?" by inspecting at most a constant number of cells, so
the same sampling loop becomes O(n) expected.  The accept/reject
decisions are *identical* to the brute-force check (the grid is exact,
not approximate), so point sets generated through the grid are
bit-identical to the historical ones for the same RNG seed.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.geometry.vec import Vec2

__all__ = ["SpatialHashGrid"]


class SpatialHashGrid:
    """An unbounded 2-D grid of point buckets.

    Args:
        cell_size: bucket edge length (world units); queries with
            ``radius <= cell_size`` inspect only the 3x3 neighbourhood.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0.0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell = cell_size
        self._buckets: Dict[Tuple[int, int], List[Vec2]] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _key(self, point: Vec2) -> Tuple[int, int]:
        return (math.floor(point.x / self._cell), math.floor(point.y / self._cell))

    def insert(self, point: Vec2) -> None:
        """Add a point to the index."""
        self._buckets.setdefault(self._key(point), []).append(point)
        self._count += 1

    def neighbors_within(self, point: Vec2, radius: float) -> Iterator[Vec2]:
        """Every indexed point with ``distance_sq_to(point) <= radius**2``.

        Squared, so at exactly ``radius`` rounding decides: ``(0.1,
        0.1)`` is outside ``hypot(0.1, 0.1)`` of the origin.
        """
        if radius < 0.0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        reach = max(1, math.ceil(radius / self._cell))
        cx, cy = self._key(point)
        radius_sq = radius * radius
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                bucket = self._buckets.get((cx + dx, cy + dy))
                if not bucket:
                    continue
                for q in bucket:
                    if point.distance_sq_to(q) <= radius_sq:
                        yield q

    def has_neighbor_within(self, point: Vec2, radius: float) -> bool:
        """True when some indexed point lies within ``radius``."""
        for _ in self.neighbors_within(point, radius):
            return True
        return False

    def extend(self, points: Iterable[Vec2]) -> None:
        """Bulk-insert points."""
        for p in points:
            self.insert(p)
