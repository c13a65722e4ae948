"""The struct-of-arrays swarm container and vectorized frame math.

One :class:`SwarmArrays` holds the whole swarm as flat float64 arrays:
positions, anchors (the immutable frame origins), the local-frame basis
vectors and unit scales, the per-robot movement bounds and the
per-robot position epochs.  All hot-loop math operates on columns.

Bit-parity contract
-------------------

The vectorized transforms mirror the scalar :class:`~repro.geometry.
frames.Frame` / :class:`~repro.geometry.vec.Vec2` arithmetic *operation
for operation*: NumPy's elementwise ``+ - * /`` on float64 are the same
IEEE-754 double operations CPython performs, so identical operand order
yields identical bit patterns.  The only library function that may
differ is ``hypot`` (NumPy routes to the C library, CPython ships its
own correctly-rounded implementation) — it is therefore used **only
inside branch predicates whose operands sit far from the decision
boundary**, never to produce an output coordinate.  Output coordinates
that depend on a ``hypot`` value (the clamp's shortened move) are
recomputed with scalar :class:`Vec2` math by the engine.
"""

from __future__ import annotations

from typing import Sequence

from repro.batch import require_numpy
from repro.geometry.vec import Vec2

__all__ = ["SwarmArrays"]


class SwarmArrays:
    """Flat-array (SoA) mirror of a robot swarm.

    Attributes:
        n: number of robots.
        px, py: current world positions (mutated by the engine).
        ax, ay: anchors — initial positions, the stationary local-frame
            origins (immutable).
        xaxx, xaxy: world components of each robot's local +x axis.
        yaxx, yaxy: world components of each robot's local +y axis.
        scale: local unit lengths in world units.
        sigma: per-activation movement bounds (world units).
        pos_epoch: the configuration epoch at which each robot last
            moved (the ``repro.perf`` invalidation vocabulary).
        reallocations: buffer growth counter (recorded into the obs
            MetricsRegistry by the engine as ``batch_array_reallocs``).
    """

    __slots__ = (
        "np", "n", "px", "py", "ax", "ay",
        "xaxx", "xaxy", "yaxx", "yaxy", "scale", "sigma",
        "pos_epoch", "reallocations",
    )

    def __init__(self, robots: Sequence) -> None:
        np = require_numpy()
        self.np = np
        n = len(robots)
        self.n = n
        f64 = np.float64
        positions = [robot.position for robot in robots]
        frames = [robot.frame for robot in robots]
        # Each x_axis is a fresh Vec2: drop it at once, so n of them
        # never live together (that would cost an extra full GC pass).
        xaxx, xaxy = [], []
        for frame in frames:
            x_axis = frame.x_axis
            xaxx.append(x_axis.x)
            xaxy.append(x_axis.y)
        self.px = np.array([p.x for p in positions], dtype=f64)
        self.py = np.array([p.y for p in positions], dtype=f64)
        self.xaxx = np.array(xaxx, dtype=f64)
        self.xaxy = np.array(xaxy, dtype=f64)
        # Frame.y_axis: x_axis.perp_ccw() = (-x.y, x.x), negated when
        # left-handed.  Negation is exact, signed zeros included.
        right = np.array([frame.handedness == 1 for frame in frames], dtype=bool)
        self.yaxx = np.where(right, -self.xaxy, self.xaxy)
        self.yaxy = np.where(right, self.xaxx, -self.xaxx)
        self.scale = np.array([frame.scale for frame in frames], dtype=f64)
        self.sigma = np.array([robot.sigma for robot in robots], dtype=f64)
        self.ax = self.px.copy()
        self.ay = self.py.copy()
        self.pos_epoch = np.zeros(n, dtype=np.int64)
        self.reallocations = 0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def position(self, i: int) -> Vec2:
        """Robot ``i``'s current position as a scalar :class:`Vec2`."""
        return Vec2(float(self.px[i]), float(self.py[i]))

    def anchor(self, i: int) -> Vec2:
        """Robot ``i``'s anchor (initial position) as a :class:`Vec2`."""
        return Vec2(float(self.ax[i]), float(self.ay[i]))

    def positions_tuple(self):
        """All positions as a tuple of :class:`Vec2` (trace material)."""
        px, py = self.px, self.py
        return tuple(Vec2(float(px[i]), float(py[i])) for i in range(self.n))

    # ------------------------------------------------------------------
    # Vectorized transforms (exact scalar mirrors; see module docstring)
    # ------------------------------------------------------------------
    def to_local_columns(self, idx, wx, wy):
        """``Frame.to_local`` for robots ``idx`` observing points ``(wx, wy)``.

        Mirrors ``Vec2(delta.dot(x_axis) / scale, delta.dot(y_axis) /
        scale)`` with ``delta = world - anchor``: same products, same
        sums, same division, in the same order.
        """
        dx = wx - self.ax[idx]
        dy = wy - self.ay[idx]
        lx = (dx * self.xaxx[idx] + dy * self.xaxy[idx]) / self.scale[idx]
        ly = (dx * self.yaxx[idx] + dy * self.yaxy[idx]) / self.scale[idx]
        return lx, ly

    def to_world_columns(self, idx, lx, ly):
        """``Frame.to_world`` for robots ``idx`` and local points ``(lx, ly)``.

        Mirrors ``origin + x_axis * (lp.x * scale) + y_axis * (lp.y *
        scale)`` — Vec2 addition is left-associative, so the order is
        ``(anchor + x_term) + y_term`` per component.
        """
        tx = lx * self.scale[idx]
        ty = ly * self.scale[idx]
        wx = (self.ax[idx] + self.xaxx[idx] * tx) + self.yaxx[idx] * ty
        wy = (self.ay[idx] + self.xaxy[idx] * tx) + self.yaxy[idx] * ty
        return wx, wy

    def stay_targets(self, idx):
        """The world destination of active robots that *stay put*.

        A silent robot returns ``observation.self_position`` (its own
        current position in its local frame); the engine then maps it
        back to the world and clamps.  The local->world round trip is
        not an exact identity in floats — a robot can drift by an ulp
        and bump the configuration epoch exactly like the scalar
        engine's does.  This computes the full mirrored round trip:
        ``clamped_toward(to_world(to_local(p)))``.

        The clamp branch (``dist <= sigma or dist == 0``) uses
        ``np.hypot``; for stay targets the distance is at most a few
        ulps while sigma is a protocol-scale length, so the (at most
        1-ulp) library difference cannot flip the branch.  Robots whose
        move could sit near the sigma boundary are never routed here —
        the engine computes movers with scalar Vec2 math.
        """
        np = self.np
        lx, ly = self.to_local_columns(idx, self.px[idx], self.py[idx])
        wx, wy = self.to_world_columns(idx, lx, ly)
        ddx = wx - self.px[idx]
        ddy = wy - self.py[idx]
        dist = np.hypot(ddx, ddy)
        sigma = self.sigma[idx]
        clamp = dist > sigma
        if clamp.any():
            # Ulp-drift exceeding sigma means sigma is degenerate
            # (pathologically tiny); reproduce the scalar shortened
            # move exactly via Vec2 math for those few robots.
            wx = wx.copy()
            wy = wy.copy()
            for k in np.nonzero(clamp)[0]:
                i = int(idx[k])
                moved = self.position(i).clamped_toward(
                    Vec2(float(wx[k]), float(wy[k])), float(self.sigma[i])
                )
                wx[k] = moved.x
                wy[k] = moved.y
        return wx, wy
