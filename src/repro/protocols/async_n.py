"""Any number of asynchronous robots (Section 4.2 — Protocol Asyncn).

The synchronous granular scheme is combined with the implicit
acknowledgements of Section 4.1.  Assumptions, per the paper: the
robots know ``P(t_0)`` (or are all awake at ``t_0``), and share
chirality; IDs or sense of direction are optional extras (the naming
mode covers all three regimes).

Every robot's granular is sliced in ``n + 1`` diameters instead of
``n``: the extra diameter, aligned on the robot's horizon line ``H_r``
(its common North under ``identified``/``sod`` naming), is the idle
slice **kappa**.  Our diameter convention: diameter 0 is kappa and the
robot labelled ``l`` gets diameter ``l + 1``.

Behaviour of a robot ``r`` (quoting the paper's two cases):

1. *Sending a bit to r'*: return to the centre if away from it, then
   move out along the diameter labelled ``r'`` — positive (North/East)
   half for "0", negative for "1" — continuing *in the same direction*
   each activation **until the position of every robot has been
   observed to change twice** (everyone has then seen the excursion,
   by Lemma 4.1 applied pairwise).  Come back to the centre, then walk
   kappa in one direction until everyone changed twice again, which
   separates this bit from the next.
2. *Idle*: oscillate on kappa — keep moving one way until everyone
   changed twice, then reverse — always avoiding the border of the
   granular.  An active robot therefore always moves (Remark 4.3),
   which keeps every other robot's acknowledgement counters alive.

Step lengths within a leg vanish as ``1/(i+1)^2`` (bounded-total
series; see the note in :mod:`repro.protocols.async_two` about the
paper's "divide by x > 1" and floating point), scaled so that no leg
can leave its band: excursions stay strictly inside the granular and
kappa oscillation stays inside a band around the centre.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import AmbiguousDirectionError, ProtocolError
from repro.geometry.granular import Granular, granular_radius
from repro.geometry.vec import Vec2
from repro.model.observation import Observation
from repro.model.protocol import BindingInfo, BitEvent, Protocol
from repro.protocols._naming_support import NamingMode, build_addressing
from repro.protocols.acks import ChangeWatcher

__all__ = ["AsyncNProtocol"]

_KAPPA = 0  # diameter index of the idle slice
_AT_CENTER_EPS_FACTOR = 1e-7
_EXCURSION_BAND_FACTOR = 0.85  # excursion band as a fraction of the radius
_KAPPA_BAND_FACTOR = 0.4  # kappa oscillation band as a fraction of the radius
_SERIES_SAFETY = 0.6  # first step = safety * room; series total < 1.645 * first


class AsyncNProtocol(Protocol):
    """Protocol Asyncn of Section 4.2.

    Args:
        naming: label regime (``"sec"`` is the paper's weakest —
            anonymous robots with chirality only).
        ack_threshold: observed changes per peer that complete a leg
            (the paper's Lemma 4.1 value is 2).
        off_center_fraction: decode margin — a robot within this
            fraction of its granular radius from its centre counts as
            at the centre.  The tiny default assumes exact sensing;
            raise it under sensor noise
            (:class:`~repro.model.looks.SensingNoise`).
        change_fraction: acknowledgement debounce — only peer
            displacements beyond this fraction of the observer's own
            granular radius count as "the position changed".  0 is the
            paper's exact model.
        tolerate_ambiguity: noisy-sensing mode — skip sightings that
            fall between diameters instead of raising.
    """

    #: Remark 4.3 again: idle robots oscillate on kappa so every
    #: observer's change counters keep advancing — never silent.
    idle_silent = False

    def __init__(
        self,
        naming: NamingMode = "sec",
        ack_threshold: int = 2,
        off_center_fraction: float = _AT_CENTER_EPS_FACTOR,
        change_fraction: float = 0.0,
        tolerate_ambiguity: bool = False,
    ) -> None:
        super().__init__()
        if ack_threshold < 1:
            raise ProtocolError(f"ack_threshold must be >= 1, got {ack_threshold}")
        if not (0.0 < off_center_fraction < _KAPPA_BAND_FACTOR):
            raise ProtocolError(
                "off_center_fraction must be positive and below the kappa band "
                f"({_KAPPA_BAND_FACTOR}) or idle legs would read as at-centre"
            )
        if change_fraction < 0.0 or change_fraction >= _KAPPA_BAND_FACTOR:
            raise ProtocolError(
                "change_fraction must be in [0, kappa band) or genuine "
                "movements would be debounced away"
            )
        self._naming: NamingMode = naming
        self._ack = ack_threshold
        self._off_center_fraction = off_center_fraction
        self._change_fraction = change_fraction
        self._tolerate_ambiguity = tolerate_ambiguity

        self._homes: List[Vec2] = []
        self._granulars: Dict[int, Granular] = {}
        self._labels: Dict[int, Dict[int, int]] = {}
        self._inverse: Dict[int, Dict[int, int]] = {}
        self._watcher: Optional[ChangeWatcher] = None
        self._sigma = 0.0

        # Sender state machine.
        self._phase = "kappa"  # kappa | return | excursion
        self._leg_step = 0
        self._leg_first_step = 0.0
        self._kappa_sign = 1.0
        self._separator_done = True  # a fresh system needs no separator
        self._excursion: Optional[Tuple[int, bool]] = None  # (diameter, positive)

        # Receiver state: per sender, whether the last sighting was an
        # idle marker (centre or kappa), and nothing else is needed.
        self._armed: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    # Binding / preprocessing
    # ------------------------------------------------------------------
    def _on_bind(self, info: BindingInfo) -> None:
        n = info.count
        if n < 2:
            raise ProtocolError("Asyncn needs at least 2 robots")
        positions = list(info.initial_positions)
        self._homes = positions
        self._labels, zero_directions = build_addressing(
            self._naming, positions, info.observable_ids
        )
        self._inverse = {
            s: {label: index for index, label in mapping.items()}
            for s, mapping in self._labels.items()
        }
        for j in range(n):
            others = [p for i, p in enumerate(positions) if i != j]
            self._granulars[j] = Granular(
                center=positions[j],
                radius=granular_radius(positions[j], others),
                num_diameters=n + 1,
                zero_direction=zero_directions[j],
                sweep=-1,
            )
        self._watcher = ChangeWatcher(
            n,
            info.index,
            min_change=self._change_fraction * self._radius(),
        )
        self._sigma = info.sigma
        self._armed = {j: True for j in range(n) if j != info.index}
        self._start_kappa_leg(reverse=False, reset=False)

    def _radius(self) -> float:
        return self._granulars[self.info.index].radius

    def _diameter_for(self, dst: int) -> int:
        return self._labels[self.info.index][dst] + 1

    # ------------------------------------------------------------------
    # Leg management
    # ------------------------------------------------------------------
    def _start_kappa_leg(self, reverse: bool, reset: bool = True) -> None:
        assert self._watcher is not None
        self._phase = "kappa"
        self._leg_step = 0
        if reverse:
            self._kappa_sign = -self._kappa_sign
        if reset:
            self._watcher.reset()

    def _start_excursion(self, dst: int, bit: int) -> None:
        assert self._watcher is not None
        self._phase = "excursion"
        self._leg_step = 0
        self._excursion = (self._diameter_for(dst), bit == 0)
        self._leg_first_step = _SERIES_SAFETY * _EXCURSION_BAND_FACTOR * self._radius()
        self._watcher.reset()

    def _series_step(self, first: float) -> float:
        """The vanishing per-leg step: ``first / (i+1)^2``, sigma-capped.

        Always strictly positive (Remark 4.3: active robots move).
        """
        step = first / float((self._leg_step + 1) ** 2)
        self._leg_step += 1
        return min(max(step, 1e-12 * self._radius()), self._sigma)

    # ------------------------------------------------------------------
    # Decoding — observe everyone, attribute excursions
    # ------------------------------------------------------------------
    def _decode(self, observation: Observation) -> List[BitEvent]:
        assert self._watcher is not None
        self._watcher.observe(observation)
        events: List[BitEvent] = []
        me = self.info.index
        for j in range(self.info.count):
            if j == me:
                continue
            granular = self._granulars[j]
            position = observation.position_of(j)
            offset = position.distance_to(granular.center)
            if offset <= self._off_center_fraction * granular.radius:
                self._armed[j] = True  # idle marker: at the centre
                continue
            try:
                diameter, positive = granular.classify(position)
            except AmbiguousDirectionError:
                if self._tolerate_ambiguity:
                    continue  # noisy sighting: skip without disarming
                raise
            if diameter == _KAPPA:
                self._armed[j] = True  # idle marker: on kappa
                continue
            if self._armed[j]:
                dst = self._inverse[j].get(diameter - 1)
                if dst is None:  # pragma: no cover - labels are dense
                    raise ProtocolError(
                        f"diameter {diameter} of robot {j} is unassigned"
                    )
                events.append(
                    BitEvent(
                        time=observation.time,
                        src=j,
                        dst=dst,
                        bit=0 if positive else 1,
                    )
                )
            self._armed[j] = False
        return events

    # ------------------------------------------------------------------
    # Movement rule
    # ------------------------------------------------------------------
    def _compute(self, observation: Observation) -> Vec2:
        assert self._watcher is not None
        pos = observation.self_position
        home = self._homes[self.info.index]
        granular = self._granulars[self.info.index]
        everyone_acked = self._watcher.all_changed_at_least(self._ack)

        if self._phase == "excursion":
            assert self._excursion is not None
            diameter, positive = self._excursion
            if everyone_acked:
                # Everyone saw the bit; come back to the centre.
                self._phase = "return"
                self._excursion = None
                self._separator_done = False
                return home
            direction = granular.diameter_direction(diameter, positive)
            return pos + direction * self._series_step(self._leg_first_step)

        if self._phase == "return":
            if pos.distance_to(home) > _AT_CENTER_EPS_FACTOR * granular.radius:
                return home  # sigma-clamped by the engine; multi-step
            # Arrived.  A mandatory kappa separator follows an
            # excursion; otherwise start sending or go idle.
            if self._separator_done and self._pending_for_send():
                dst, bit = self._next_outgoing()
                self._start_excursion(dst, bit)
                diameter, positive = self._excursion
                direction = granular.diameter_direction(diameter, positive)
                return pos + direction * self._series_step(self._leg_first_step)
            self._start_kappa_leg(reverse=False)
            return pos + self._kappa_direction() * self._kappa_step(pos)

        # phase == "kappa"
        if everyone_acked and not self._separator_done:
            # The post-bit separator leg just completed.
            self._separator_done = True
        if self._separator_done and self._pending_for_send():
            # Idle oscillation legs may be abandoned for a new bit; a
            # pending separator leg may not (the guard above).
            if pos.distance_to(home) <= _AT_CENTER_EPS_FACTOR * granular.radius:
                dst, bit = self._next_outgoing()
                self._start_excursion(dst, bit)
                assert self._excursion is not None
                diameter, positive = self._excursion
                direction = granular.diameter_direction(diameter, positive)
                return pos + direction * self._series_step(self._leg_first_step)
            self._phase = "return"
            return home
        if everyone_acked:
            self._start_kappa_leg(reverse=True)
        return pos + self._kappa_direction() * self._kappa_step(pos)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _pending_for_send(self) -> bool:
        return self._peek_outgoing() is not None

    def _kappa_direction(self) -> Vec2:
        granular = self._granulars[self.info.index]
        base = granular.diameter_direction(_KAPPA, positive=True)
        return base * self._kappa_sign

    def _kappa_step(self, pos: Vec2) -> float:
        """A vanishing kappa step that respects the oscillation band."""
        granular = self._granulars[self.info.index]
        band = _KAPPA_BAND_FACTOR * granular.radius
        along = self._kappa_direction().dot(pos - self._homes[self.info.index])
        room = band - along
        first = _SERIES_SAFETY * max(room, 0.0)
        return self._series_step(first)
