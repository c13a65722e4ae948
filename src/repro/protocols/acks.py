"""Implicit acknowledgements (Section 4, Lemma 4.1).

The asynchronous protocols hinge on one observation:

    **Lemma 4.1.**  Let r and r' be two robots.  Assume that r always
    moves in the same direction each time it becomes active.  If r
    observes that the position of r' has changed twice, then r' must
    have observed that the position of r has changed at least once.

So "keep moving the same way until you have seen the other robot move
twice" is an acknowledgement: the peer has certainly seen (at least
one of) your moves.  The :class:`ChangeWatcher` implements the
counting side — per-peer counters of observed position changes,
resettable at the start of each protocol leg.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import ProtocolError
from repro.geometry.vec import Vec2
from repro.model.observation import Observation

__all__ = ["ChangeWatcher"]


class ChangeWatcher:
    """Counts observed position changes of peer robots.

    A "change" is the event of observing a peer at a position different
    from the position it occupied at the observer's *previous*
    activation — exactly how the paper's proofs count ("r notes that
    the position of r' has changed twice").  Comparisons are exact:
    the model grants infinite precision, and every protocol movement is
    large enough to be representable.

    Counters are reset at the start of each protocol leg; the last
    *seen* positions are deliberately kept across resets, because a
    change is always relative to the previous sighting, not to the leg
    boundary.

    Under noisy sensing (:class:`~repro.model.looks.SensingNoise`)
    exact comparison would count jitter as movement; ``min_change``
    debounces the detector — only displacements beyond it count, and
    the reference position is only advanced when a change registers
    (so noise cannot "walk" the baseline).

    Args:
        count: number of robots.
        self_index: the observer (not watched).
        min_change: minimum displacement (local units) that counts as
            a change; 0 is the paper's exact model.
    """

    def __init__(self, count: int, self_index: int, min_change: float = 0.0) -> None:
        if count < 1:
            raise ProtocolError(f"watcher needs at least one robot, got {count}")
        if not (0 <= self_index < count):
            raise ProtocolError(f"self index {self_index} out of range")
        if min_change < 0.0:
            raise ProtocolError(f"min_change must be >= 0, got {min_change}")
        self._count = count
        self._self_index = self_index
        self._min_change = min_change
        self._last_seen: Dict[int, Optional[Vec2]] = {
            i: None for i in range(count) if i != self_index
        }
        self._changes: Dict[int, int] = {i: 0 for i in self._last_seen}

    @property
    def peers(self) -> List[int]:
        """The watched robot indices (everyone but the observer)."""
        return sorted(self._last_seen)

    def observe(self, observation: Observation) -> List[int]:
        """Ingest one activation snapshot; returns peers that changed."""
        if observation.self_index != self._self_index:
            raise ProtocolError("observation belongs to a different robot")
        changed: List[int] = []
        for index in self._last_seen:
            position = observation.position_of(index)
            previous = self._last_seen[index]
            if previous is None:
                self._last_seen[index] = position
                continue
            if self._min_change == 0.0:
                moved = position != previous
            else:
                moved = position.distance_to(previous) > self._min_change
            if moved:
                self._changes[index] += 1
                changed.append(index)
                self._last_seen[index] = position
            elif self._min_change == 0.0:
                self._last_seen[index] = position
            # Debounced mode: keep the old baseline on a non-change so
            # sub-threshold jitter cannot accumulate into one.
        return changed

    def reset(self, peers: Optional[Iterable[int]] = None) -> None:
        """Zero the change counters (all peers, or a subset).

        Last-seen positions are preserved — see the class docstring.
        """
        targets = self._last_seen.keys() if peers is None else list(peers)
        for index in targets:
            if index not in self._changes:
                raise ProtocolError(f"robot {index} is not a watched peer")
            self._changes[index] = 0

    def changes_of(self, peer: int) -> int:
        """Changes of one peer observed since the last reset."""
        if peer not in self._changes:
            raise ProtocolError(f"robot {peer} is not a watched peer")
        return self._changes[peer]

    def changed_at_least(self, peer: int, times: int) -> bool:
        """Whether ``peer`` changed at least ``times`` since the reset."""
        return self.changes_of(peer) >= times

    def all_changed_at_least(self, times: int) -> bool:
        """Whether *every* peer changed at least ``times`` (Section 4.2:
        "until it observes that the position of every robot changed
        twice")."""
        return all(c >= times for c in self._changes.values())

    def last_seen(self, peer: int) -> Optional[Vec2]:
        """The peer position recorded at the observer's last activation."""
        if peer not in self._last_seen:
            raise ProtocolError(f"robot {peer} is not a watched peer")
        return self._last_seen[peer]
