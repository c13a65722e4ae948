"""Synchronous one-to-one communication for ``n >= 2`` robots.

This is the granular-routing scheme shared by Sections 3.2-3.4:

1. *Preprocessing* (at ``t_0``): every robot computes the Voronoi
   diagram of the configuration and its **granular** — the largest
   disc centred on itself enclosed in its cell.  Robots only ever move
   inside their own granular, which guarantees collision avoidance.
2. The granular is sliced by ``n`` labelled diameters (``2n`` slices).
   To send a bit to the robot labelled ``j``, a robot steps out along
   the diameter labelled ``j`` — on its Northern/Eastern half for a
   "0", Southern/Western for a "1" — and comes back to the centre.

The three paper variants differ only in how diameters are labelled and
oriented, which is the pluggable *naming mode*:

* ``"identified"`` (§3.2): observable IDs label the diameters and the
  common North (shared y axis) orients diameter 0.
* ``"sod"`` (§3.3): anonymous robots with sense of direction derive
  common labels from the shared-axes lexicographic order.
* ``"sec"`` (§3.4): anonymous robots with chirality only; each sender
  uses its *relative* SEC naming and aligns diameter 0 on its own
  horizon line, and every observer re-derives the sender's labelling
  to resolve the addressee.

Like the two-robot protocol, the scheme is silent: idle robots do not
move.  And because every robot decodes every movement, all messages
are overheard by everyone — the redundancy the paper points out.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

from repro.errors import AmbiguousDirectionError, ProtocolError
from repro.geometry.granular import Granular, granular_radius
from repro.geometry.vec import Vec2
from repro.model.observation import Observation
from repro.model.protocol import BindingInfo, BitEvent, Protocol
from repro.protocols._naming_support import NamingMode, build_addressing

__all__ = ["SyncGranularProtocol", "NamingMode"]

_OFF_HOME_EPS_FACTOR = 1e-6

#: What an unbound protocol holds in place of each per-run mapping:
#: one shared read-only empty, so construction allocates nothing the
#: cyclic GC would traverse.  ``_on_bind`` builds the real ones.
_UNBOUND: Mapping = MappingProxyType({})


def _validate_config(
    naming: NamingMode,
    excursion_fraction: float,
    max_directions: int | None,
    dilation: int,
    off_home_fraction: float,
    tolerate_ambiguity: bool,
) -> Tuple:
    """Check the constructor arguments; return them as the config tuple."""
    if naming not in ("identified", "sod", "sec"):
        raise ProtocolError(f"unknown naming mode {naming!r}")
    if not (0.0 < excursion_fraction < 1.0):
        raise ProtocolError(
            f"excursion_fraction must be in (0, 1), got {excursion_fraction}"
        )
    if max_directions is not None and max_directions < 2:
        raise ProtocolError(
            f"max_directions must be >= 2, got {max_directions}"
        )
    if dilation < 1:
        raise ProtocolError(f"dilation must be >= 1, got {dilation}")
    if not (0.0 < off_home_fraction < 1.0):
        raise ProtocolError(
            f"off_home_fraction must be in (0, 1), got {off_home_fraction}"
        )
    if off_home_fraction >= excursion_fraction:
        raise ProtocolError(
            "off_home_fraction must stay below excursion_fraction or "
            "genuine excursions would read as idle"
        )
    return (
        naming,
        excursion_fraction,
        max_directions,
        dilation,
        off_home_fraction,
        tolerate_ambiguity,
    )


#: :func:`_validate_config` run once per distinct argument set: equal,
#: equally typed sets get the same tuple back, so a swarm built with
#: one configuration shares one config object.
_shared_config = functools.lru_cache(maxsize=64, typed=True)(_validate_config)


class SyncGranularProtocol(Protocol):
    """Granular-routed synchronous protocol (Sections 3.2-3.4).

    Args:
        naming: which labelling regime the system supports (see module
            docstring).
        excursion_fraction: excursion length as a fraction of the
            robot's granular radius; must stay strictly inside the
            granular.  The actual step is additionally capped by the
            robot's ``sigma``.
        max_directions: angular-resolution bound of Section 5: when
            set, binding refuses swarms whose ``2n`` slices exceed it
            (use :class:`repro.protocols.sync_logk.SyncLogKProtocol`
            instead).
        dilation: instants each signal position is held for.  With the
            default 1 this is exactly the paper's protocol.  Dilation
            ``d+1`` makes transmissions robust to boundedly-stale
            (CORDA-style, :class:`~repro.model.looks.StaleLook`)
            observations with lag at most ``d``: a monotone look
            sequence that lags by at most ``d`` cannot jump over a
            phase of ``d+1`` instants, so no observer can skip an
            excursion or a return.
        off_home_fraction: decode threshold — a robot observed within
            this fraction of its granular radius from its home counts
            as idle.  The tiny default assumes exact sensing (the
            paper's model); raise it (e.g. to 0.25) under sensor noise
            (:class:`~repro.model.looks.SensingNoise`) so jitter does
            not read as signal.
        tolerate_ambiguity: noisy-sensing mode — skip sightings that
            fall between diameters instead of raising, leaving the
            decoder armed for the next look.
    """

    #: Sections 3.2-3.4 share the silence property: idle robots
    #: rest at their granular centre and do not move.
    idle_silent = True

    def __init__(
        self,
        naming: NamingMode = "identified",
        excursion_fraction: float = 0.45,
        max_directions: int | None = None,
        dilation: int = 1,
        off_home_fraction: float = _OFF_HOME_EPS_FACTOR,
        tolerate_ambiguity: bool = False,
    ) -> None:
        super().__init__()
        args = (
            naming,
            excursion_fraction,
            max_directions,
            dilation,
            off_home_fraction,
            tolerate_ambiguity,
        )
        try:
            self._config = _shared_config(*args)
        except TypeError:
            # An unhashable argument skips the cache, not the checks.
            self._config = _validate_config(*args)
        self._naming: NamingMode = naming
        self._excursion_fraction = excursion_fraction
        self._max_directions = max_directions
        self._dilation = dilation
        self._off_home_fraction = off_home_fraction
        self._tolerate_ambiguity = tolerate_ambiguity
        self._hold_remaining = 0
        self._hold_target: Vec2 | None = None
        # Per-run state is built by _on_bind; until then each slot holds
        # a shared immutable empty.
        self._homes: List[Vec2] | Tuple[()] = ()
        self._granulars: Mapping[int, Granular] = _UNBOUND
        # _labels[s] maps tracking index -> diameter label as used by
        # sender s; _inverse[s] is the reverse mapping.
        self._labels: Mapping[int, Dict[int, int]] = _UNBOUND
        self._inverse: Mapping[int, Dict[int, int]] = _UNBOUND
        self._step_out: float = 0.0
        self._outbound = True
        self._peer_was_home: Mapping[int, bool] = _UNBOUND

    # ------------------------------------------------------------------
    # Preprocessing (the two steps of Section 3.2, executed at t0)
    # ------------------------------------------------------------------
    def _on_bind(self, info: BindingInfo) -> None:
        n = info.count
        if n < 2:
            raise ProtocolError("granular routing needs at least 2 robots")
        if self._max_directions is not None and 2 * n > self._max_directions:
            # The Section 5 scenario: bounded angular resolution makes
            # the 2n-slice scheme unusable — the robot honestly refuses
            # rather than mis-route.  SyncLogKProtocol is the fix.
            raise ProtocolError(
                f"cannot distinguish {2 * n} slice directions with a "
                f"resolution of {self._max_directions}; use SyncLogKProtocol"
            )
        positions = list(info.initial_positions)
        self._homes = positions

        self._labels, zero_directions = build_addressing(
            self._naming, positions, info.observable_ids
        )
        self._inverse = {
            s: {label: index for index, label in mapping.items()}
            for s, mapping in self._labels.items()
        }

        granulars: Dict[int, Granular] = {}
        for j in range(n):
            others = [p for i, p in enumerate(positions) if i != j]
            radius = granular_radius(positions[j], others)
            granulars[j] = Granular(
                center=positions[j],
                radius=radius,
                num_diameters=n,
                zero_direction=zero_directions[j],
                sweep=-1,
            )
        self._granulars = granulars
        self._step_out = min(
            self._excursion_fraction * granulars[info.index].radius,
            info.sigma,
        )
        self._peer_was_home = {j: True for j in range(n) if j != info.index}

    # ------------------------------------------------------------------
    # Decoding — every robot decodes every movement
    # ------------------------------------------------------------------
    def _decode(self, observation: Observation) -> List[BitEvent]:
        # This loop runs n - 1 times per activation, so every lookup
        # that does not depend on the peer is hoisted out of it.
        events: List[BitEvent] = []
        me = self.info.index
        get = observation.get
        was_home = self._peer_was_home
        off_home_fraction = self._off_home_fraction
        hypot = math.hypot
        for j, granular in self._granulars.items():  # ascending j
            if j == me:
                continue
            position = get(j)
            if position is None:
                raise KeyError(f"robot {j} is not visible in this snapshot")
            center = granular.center
            # == position.distance_to(center), without the call
            offset = hypot(position.x - center.x, position.y - center.y)
            if offset <= off_home_fraction * granular.radius:
                was_home[j] = True
                continue
            if was_home[j]:
                try:
                    label, positive = granular.classify(position)
                except AmbiguousDirectionError:
                    if self._tolerate_ambiguity:
                        # Noisy-sensing mode: an unclassifiable sighting
                        # is skipped without disarming, so the genuine
                        # excursion is still decoded at the next look.
                        continue
                    raise
                dst = self._inverse[j].get(label)
                if dst is None:  # pragma: no cover - labels are dense
                    raise ProtocolError(f"diameter {label} of robot {j} is unassigned")
                events.append(
                    BitEvent(
                        time=observation.time,
                        src=j,
                        dst=dst,
                        bit=0 if positive else 1,
                    )
                )
            was_home[j] = False
        return events

    # ------------------------------------------------------------------
    # Movement rule
    # ------------------------------------------------------------------
    def _compute(self, observation: Observation) -> Vec2:
        me = self.info.index
        home = self._homes[me]
        if self._hold_remaining > 0:
            # Phase dilation (staleness tolerance, see class docstring):
            # hold the current signal position for extra instants so
            # that boundedly-stale observers cannot skip a whole phase.
            self._hold_remaining -= 1
            assert self._hold_target is not None
            return self._hold_target
        if not self._outbound:
            self._outbound = True
            return self._held(home)
        queued = self._next_outgoing()
        if queued is None:
            return observation.self_position  # silent
        dst, bit = queued
        label = self._labels[me][dst]
        self._outbound = False
        return self._held(
            self._granulars[me].target_point(
                label, positive=(bit == 0), distance=self._step_out
            )
        )

    def _held(self, target: Vec2) -> Vec2:
        """Register a signal position to be held for the dilation span."""
        self._hold_remaining = self._dilation - 1
        self._hold_target = target
        return target

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and benchmarks
    # ------------------------------------------------------------------
    def labels_used_by(self, sender: int) -> Dict[int, int]:
        """The tracking-index -> diameter-label map of a sender."""
        if sender not in self._labels:
            raise ProtocolError(f"unknown sender {sender}")
        return dict(self._labels[sender])

    def granular_of(self, index: int) -> Granular:
        """The granular of any robot, as this robot computed it."""
        if index not in self._granulars:
            raise ProtocolError(f"unknown robot {index}")
        return self._granulars[index]
