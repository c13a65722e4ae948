"""The vectorized granular-protocol kernel.

The scalar pipeline runs one ``SyncGranularProtocol`` instance per
robot, and each activation decodes *every* peer — O(n^2) Python work
per instant, O(n^3) once binding (per-robot Voronoi/naming
preprocessing) is counted.  For swarms of 10k-100k robots this kernel
replaces the per-robot objects with whole-swarm array state:

* **activation bookkeeping** (activation counts, outbound flags,
  dilation holds, queued-bit flags) as flat arrays;
* **decode** as an off-home scan in the *world* frame: a robot is off
  its home iff its distance from its anchor exceeds
  ``off_home_fraction * granular_radius`` — the scalar engine tests the
  same ratio in each observer's local frame, and the two agree because
  the comparison is scale-invariant and both sides sit far from the
  threshold (homes are within float-drift of the anchor, excursions at
  ``excursion_fraction``-scale distances, the threshold in between);
* **per-sender arming** as boolean columns: ``armed[j][o]`` mirrors
  observer ``o``'s ``_peer_was_home[j]`` flag, updated with whole
  activation sets at once;
* **movement** split into a vectorized *stay* pass for silent robots
  (the exact ``to_world(to_local(p))`` round trip of the scalar
  engine, mirrored operation-for-operation) and a scalar pass for the
  few *engaged* robots (queued bits, returns, dilation holds), which
  runs the genuine :class:`~repro.geometry.granular.Granular` /
  :class:`~repro.geometry.frames.Frame` arithmetic.

Byte parity
-----------

Kernel-driven excursions land exactly on a labelled diameter, so every
armed observer decodes the same ``(dst, bit)`` the sender encoded — no
classification needed.  Whenever a robot is off home for any *other*
reason (a :meth:`displace` fault, or a movement clamped short of its
target), the kernel drops to per-observer scalar classification with
the observer's own local-frame granular, reproducing the scalar
decoder's ambiguity tolerance decisions bit-for-bit.

The one intentional divergence: when a decode raises (an intolerant
``AmbiguousDirectionError``), the exception and its instant match the
scalar engine, but the *partial* protocol state left behind mid-step is
unspecified — the scalar engine interleaves observer loops differently
and its mid-exception state is equally unusable.

Scale limits
------------

``received`` logs are always maintained (one event per delivered bit).
``overheard`` logs record one event per (event, observer) pair — an
inherently O(n)-per-bit cost — and are therefore only maintained up to
``overheard_limit`` robots; above that the view's ``overheard``
accessor raises instead of silently returning wrong data.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.batch import require_numpy
from repro.batch.neighbors import exact_min_hypot, nearest_neighbor_sq
from repro.errors import AmbiguousDirectionError, ProtocolError
from repro.geometry.granular import Granular
from repro.geometry.vec import Vec2
from repro.model.protocol import BindingInfo, BitEvent
from repro.protocols.sync_granular import SyncGranularProtocol

__all__ = [
    "KERNEL_ENVELOPE",
    "GranularKernel",
    "KernelProtocolView",
    "kernel_eligible",
]

#: beyond this swarm size the per-observer overheard logs are disabled
DEFAULT_OVERHEARD_LIMIT = 4096

_NORTH = Vec2(0.0, 1.0)

#: The swarms :func:`kernel_eligible` accepts, in one phrase for the
#: refusals and skips that cite it.
KERNEL_ENVELOPE = (
    "swarms of two or more robots that all run the plain "
    "SyncGranularProtocol, not a subclass, with one shared configuration "
    "and right-handed frames that are rotation-free unless naming='sec'"
)


def kernel_eligible(robots: Sequence) -> bool:
    """Whether the vectorized kernel can replace these protocols.

    Requires the plain :class:`SyncGranularProtocol` (no subclass) with
    one shared configuration, right-handed frames, and either rotation-
    free frames (the sense-of-direction regimes the ``identified`` and
    ``sod`` namings assume) or the rotation-invariant ``sec`` naming
    (:data:`KERNEL_ENVELOPE`).  :class:`~repro.batch.engine.
    BatchSimulator` refuses every other swarm, and
    :func:`repro.batch.make_simulator` runs it on the scalar engine.
    """
    if len(robots) < 2:
        return False
    first = robots[0].protocol
    if type(first) is not SyncGranularProtocol:
        return False
    config = first._config
    for robot in robots:
        protocol = robot.protocol
        if type(protocol) is not SyncGranularProtocol:
            return False
        # Equal argument sets usually share one config object, so the
        # identity test settles almost every robot.
        other = protocol._config
        if other is not config and other != config:
            return False
        if robot.frame.handedness != 1:
            return False
        if config[0] != "sec" and robot.frame.rotation != 0.0:
            return False
    return True


class _SenderView:
    """A sender's own-frame protocol constants (lazily built, cached)."""

    __slots__ = ("granular", "step_out", "labels", "inverse", "home")

    def __init__(self, granular, step_out, labels, inverse, home):
        self.granular = granular
        self.step_out = step_out
        self.labels = labels
        self.inverse = inverse
        self.home = home


class GranularKernel:
    """Array-state execution of one ``SyncGranularProtocol`` swarm."""

    def __init__(
        self,
        robots: Sequence,
        arrays,
        stats,
        overheard_limit: int = DEFAULT_OVERHEARD_LIMIT,
    ) -> None:
        np = require_numpy()
        self._np = np
        self._robots = robots
        self._arrays = arrays
        n = arrays.n
        self._n = n
        template = robots[0].protocol
        (
            self._naming,
            self._excursion_fraction,
            self._max_directions,
            self._dilation,
            self._off_home_fraction,
            self._tolerate,
        ) = template._config

        ids = [r.observable_id for r in robots]
        self._identified = all(v is not None for v in ids)
        self._observable_ids: Optional[Tuple[int, ...]] = (
            tuple(ids) if self._identified else None
        )

        registry = stats.registry
        self._c_neighbor = registry.counter("batch_neighbor_passes")
        self._c_realloc = registry.counter("batch_array_reallocs")

        # Per-robot protocol state, SoA.
        self._outbound = np.ones(n, dtype=bool)
        self._hold_remaining = np.zeros(n, dtype=np.int64)
        self._has_queue = np.zeros(n, dtype=bool)
        self._activations = np.zeros(n, dtype=np.int64)
        self._is_active = np.zeros(n, dtype=bool)

        # Sparse per-robot state (touched only by engaged/tracked robots).
        self._queues: Dict[int, Deque[Tuple[int, int]]] = {}
        self._hold_local: Dict[int, Vec2] = {}
        self._sender_views: Dict[int, _SenderView] = {}
        self._armed: Dict[int, object] = {}
        self._excursions: Dict[int, Tuple[int, int]] = {}
        self._displaced: Set[int] = set()
        self._received: Dict[int, List[BitEvent]] = {}
        self._overheard: Dict[int, List[BitEvent]] = {}
        self._overheard_enabled = n <= overheard_limit

        # Lazily built per-observer caches (anchor-local columns and
        # tuples, per-(observer, subject) granulars) for the scalar
        # parity paths.
        self._local_columns: Dict[int, Tuple[object, object]] = {}
        self._local_tuples: Dict[int, Tuple[Vec2, ...]] = {}
        self._observer_granulars: Dict[Tuple[int, int], Granular] = {}
        self._observer_inverses: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._common_inverse: Optional[Dict[int, int]] = None
        self._common_labels: Optional[Dict[int, int]] = None
        self._views: Dict[int, "KernelProtocolView"] = {}

        self._validate_bind()

        # World-frame granular radii (half nearest-anchor distances):
        # the off-home thresholds of the decode scan.
        dist_sq, _ = nearest_neighbor_sq(arrays.ax, arrays.ay)
        self._c_neighbor.inc()
        radius_w = np.sqrt(dist_sq) / 2.0
        thr = self._off_home_fraction * radius_w
        self._thr_sq = thr * thr

    # ------------------------------------------------------------------
    # Construction-time validation (parity with the scalar bind chain)
    # ------------------------------------------------------------------
    def _validate_bind(self) -> None:
        n = self._n
        for robot in self._robots:
            if robot.protocol._info is not None:
                raise ProtocolError(
                    "protocol instance already bound; every robot needs "
                    "its own instance"
                )
        if n < 2:
            raise ProtocolError("granular routing needs at least 2 robots")
        if self._max_directions is not None and 2 * n > self._max_directions:
            raise ProtocolError(
                f"cannot distinguish {2 * n} slice directions with a "
                f"resolution of {self._max_directions}; use SyncLogKProtocol"
            )
        if self._naming == "identified":
            if self._observable_ids is None:
                raise ProtocolError(
                    "naming='identified' requires an identified system "
                    "(every robot needs an observable_id)"
                )
            from repro.naming.identified import identified_labels

            self._common_labels = identified_labels(self._observable_ids)
        elif self._naming == "sod":
            # Robot 0's bind computes the common order first; evaluate
            # it on robot 0's exact local view so near-tie rejections
            # surface with the scalar's error.
            from repro.naming.sod import sod_labels

            self._common_labels = sod_labels(self._local_tuple(0))
        else:  # sec
            self._validate_sec_centre()

    def _validate_sec_centre(self) -> None:
        """No robot may sit at the SEC centre (horizon undefined).

        The scalar bind evaluates this per subject in each robot's
        local frame with an absolute 1e-9 tolerance; the kernel checks
        the same tolerance in robot 0's units, which is exact for every
        non-pathological configuration (robots are either clearly off
        the centre or exactly on it).
        """
        np = self._np
        from repro.batch.sec import batch_sec
        from repro.errors import NamingError

        arrays = self._arrays
        circle, _ = batch_sec(arrays.ax, arrays.ay)
        scale0 = float(arrays.scale[0])
        off = (
            np.hypot(arrays.ax - circle.center.x, arrays.ay - circle.center.y)
            / scale0
        )
        bad = np.nonzero(off <= 1e-9)[0]
        if len(bad):
            s = int(bad[0])
            raise NamingError(
                f"subject robot {s} is at the SEC centre: horizon line undefined"
            )

    # ------------------------------------------------------------------
    # Per-observer parity caches
    # ------------------------------------------------------------------
    def _anchor_local_columns(self, o: int):
        """All anchors in observer ``o``'s frame (mirrored transform)."""
        cached = self._local_columns.get(o)
        if cached is None:
            a = self._arrays
            dx = a.ax - a.ax[o]
            dy = a.ay - a.ay[o]
            lx = (dx * a.xaxx[o] + dy * a.xaxy[o]) / a.scale[o]
            ly = (dx * a.yaxx[o] + dy * a.yaxy[o]) / a.scale[o]
            cached = (lx, ly)
            self._local_columns[o] = cached
            self._c_realloc.inc()
        return cached

    def _local_tuple(self, o: int) -> Tuple[Vec2, ...]:
        cached = self._local_tuples.get(o)
        if cached is None:
            lx, ly = self._anchor_local_columns(o)
            cached = tuple(
                Vec2(float(x), float(y)) for x, y in zip(lx, ly)
            )
            self._local_tuples[o] = cached
        return cached

    def _zero_direction(self, o: int, subject: int) -> Vec2:
        if self._naming in ("identified", "sod"):
            return _NORTH
        from repro.naming.sec_naming import horizon_direction

        return horizon_direction(self._local_tuple(o), subject)

    def _local_radius(self, o: int, subject: int) -> float:
        """``granular_radius`` of ``subject`` in ``o``'s local frame.

        Bit-identical to the scalar ``min(math.hypot(...)) / 2.0``
        chain via :func:`exact_min_hypot`.
        """
        np = self._np
        lx, ly = self._anchor_local_columns(o)
        keep = np.arange(self._n) != subject
        return exact_min_hypot(lx[keep] - lx[subject], ly[keep] - ly[subject]) / 2.0

    def observer_granular(self, o: int, subject: int) -> Granular:
        """Observer ``o``'s granular for ``subject`` (scalar-exact)."""
        key = (o, subject)
        cached = self._observer_granulars.get(key)
        if cached is None:
            lx, ly = self._anchor_local_columns(o)
            cached = Granular(
                center=Vec2(float(lx[subject]), float(ly[subject])),
                radius=self._local_radius(o, subject),
                num_diameters=self._n,
                zero_direction=self._zero_direction(o, subject),
                sweep=-1,
            )
            self._observer_granulars[key] = cached
        return cached

    def _observer_inverse(self, o: int, j: int) -> Dict[int, int]:
        """Label -> index map of sender ``j`` as observer ``o`` derives it.

        The parity-critical detail of the ``sec`` naming: each observer
        reconstructs the sender's labelling *in its own frame*, so the
        classification path must resolve labels with the observer-side
        map, exactly like the scalar ``self._inverse[j]``.
        """
        if self._naming != "sec":
            inverse = self._common_inverse
            if inverse is None:
                assert self._common_labels is not None
                inverse = self._common_inverse = {
                    label: index for index, label in self._common_labels.items()
                }
            return inverse
        key = (o, j)
        cached = self._observer_inverses.get(key)
        if cached is None:
            from repro.naming.sec_naming import relative_labels

            labels = relative_labels(self._local_tuple(o), j)
            cached = {label: index for index, label in labels.items()}
            self._observer_inverses[key] = cached
        return cached

    def sender_view(self, s: int) -> _SenderView:
        """Sender ``s``'s own-frame granular, labels and step length (cached)."""
        view = self._sender_views.get(s)
        if view is None:
            robot = self._robots[s]
            granular = self.observer_granular(s, s)
            if self._naming == "sec":
                from repro.naming.sec_naming import relative_labels

                labels = relative_labels(self._local_tuple(s), s)
            else:
                assert self._common_labels is not None
                labels = dict(self._common_labels)
            inverse = {label: index for index, label in labels.items()}
            sigma_local = robot.sigma / robot.frame.scale
            step_out = min(
                self._excursion_fraction * granular.radius, sigma_local
            )
            view = _SenderView(
                granular=granular,
                step_out=step_out,
                labels=labels,
                inverse=inverse,
                home=granular.center,
            )
            self._sender_views[s] = view
        return view

    # ------------------------------------------------------------------
    # Queue surface (the protocol views call into these)
    # ------------------------------------------------------------------
    def send_bit(self, index: int, dst: int, bit: int) -> None:
        """Queue one bit from robot ``index`` (scalar-parity validation)."""
        if bit not in (0, 1):
            raise ProtocolError(f"bit must be 0 or 1, got {bit!r}")
        if not (0 <= dst < self._n):
            raise ProtocolError(f"destination index {dst} out of range")
        if dst == index:
            raise ProtocolError("a robot cannot address a movement-bit to itself")
        queue = self._queues.get(index)
        if queue is None:
            queue = self._queues[index] = deque()
        queue.append((dst, bit))
        self._has_queue[index] = True

    def pending_bits(self, index: int) -> int:
        """Queued bits of robot ``index`` not yet transmitted."""
        queue = self._queues.get(index)
        return len(queue) if queue is not None else 0

    def received_of(self, index: int) -> Tuple[BitEvent, ...]:
        """Bits addressed to robot ``index``, in decoding order."""
        return tuple(self._received.get(index, ()))

    def overheard_of(self, index: int) -> Tuple[BitEvent, ...]:
        """Every bit robot ``index`` decoded (raises above the size limit)."""
        if not self._overheard_enabled:
            raise ProtocolError(
                f"overheard logs are disabled for batch swarms larger than "
                f"the overheard limit (n={self._n}); use the scalar backend "
                f"or raise overheard_limit"
            )
        return tuple(self._overheard.get(index, ()))

    def activations_of(self, index: int) -> int:
        """How many times robot ``index`` has been activated."""
        return int(self._activations[index])

    def view(self, index: int) -> "KernelProtocolView":
        """The protocol-shaped view of robot ``index`` (cached)."""
        view = self._views.get(index)
        if view is None:
            view = self._views[index] = KernelProtocolView(self, index)
        return view

    def binding_info(self, index: int) -> BindingInfo:
        """The :class:`BindingInfo` robot ``index`` would have been bound with."""
        robot = self._robots[index]
        return BindingInfo(
            index=index,
            count=self._n,
            sigma=robot.sigma / robot.frame.scale,
            initial_positions=self._local_tuple(index),
            observable_ids=self._observable_ids,
            visibility_radius=None,
        )

    def notify_displaced(self, index: int) -> None:
        """A :meth:`displace` fault moved this robot out-of-band."""
        self._excursions.pop(index, None)
        self._displaced.add(index)

    # ------------------------------------------------------------------
    # The decode phase (observers, before any movement of the instant)
    # ------------------------------------------------------------------
    def decode(self, time: int, active_arr) -> None:
        """The observation phase of one instant, for all active robots.

        Scans every *tracked* robot (armed, excursed or displaced) once
        in the world frame and updates per-sender arming columns with
        whole activation sets; per-observer scalar classification runs
        only for unexplained off-home positions.
        """
        np = self._np
        a = self._arrays
        self._activations[active_arr] += 1
        tracked = set(self._armed)
        tracked.update(self._excursions)
        tracked.update(self._displaced)
        if not tracked:
            return
        is_active = self._is_active
        is_active[active_arr] = True
        try:
            for j in sorted(tracked):
                dx = float(a.px[j]) - float(a.ax[j])
                dy = float(a.py[j]) - float(a.ay[j])
                off = dx * dx + dy * dy > self._thr_sq[j]
                armed = self._armed.get(j)
                if not off:
                    # At home: every active observer re-arms for j.
                    if armed is not None:
                        armed[active_arr] = True
                    self._displaced.discard(j)
                    continue
                if armed is None:
                    armed = self._armed[j] = np.ones(self._n, dtype=bool)
                    self._c_realloc.inc()
                newly = active_arr[armed[active_arr]]
                newly = newly[newly != j]
                excursion = self._excursions.get(j)
                if excursion is not None:
                    if len(newly):
                        dst, bit = excursion
                        event = BitEvent(time=time, src=j, dst=dst, bit=bit)
                        if self._overheard_enabled:
                            for o in newly.tolist():
                                self._observer_log(o).append(event)
                        if dst != j and is_active[dst] and armed[dst]:
                            self._received.setdefault(dst, []).append(event)
                    armed[active_arr] = False
                else:
                    # Unexplained off-home position (displacement or a
                    # clamped-short move): per-observer scalar decode.
                    self._decode_unexplained(time, j, newly, armed, active_arr)
        finally:
            is_active[active_arr] = False

    def _decode_unexplained(self, time, j, newly, armed, active_arr) -> None:
        position_j = self._arrays.position(j)
        skipped: List[int] = []
        for o in newly.tolist():
            robot = self._robots[o]
            local = robot.frame.to_local(position_j, self._arrays.anchor(o))
            granular = self.observer_granular(o, j)
            try:
                label, positive = granular.classify(local)
            except AmbiguousDirectionError:
                if self._tolerate:
                    # Skipped without disarming — the scalar decoder
                    # leaves the observer armed for the next look.
                    skipped.append(o)
                    continue
                raise
            dst = self._observer_inverse(o, j).get(label)
            if dst is None:  # pragma: no cover - labels are dense
                raise ProtocolError(f"diameter {label} of robot {j} is unassigned")
            event = BitEvent(time=time, src=j, dst=dst, bit=0 if positive else 1)
            if self._overheard_enabled:
                self._observer_log(o).append(event)
            if dst == o:
                self._received.setdefault(o, []).append(event)
        armed[active_arr] = False
        if skipped:
            # Re-arm the tolerated-ambiguity observers: the scalar
            # decoder's `continue` leaves their flag untouched.
            armed[self._np.asarray(skipped, dtype="int64")] = True

    def _observer_log(self, o: int) -> List[BitEvent]:
        log = self._overheard.get(o)
        if log is None:
            log = self._overheard[o] = []
        return log

    # ------------------------------------------------------------------
    # The movement phase
    # ------------------------------------------------------------------
    def compute_moves(self, active_arr):
        """Destinations of all active robots.

        Returns ``(silent_idx, wx, wy, engaged_moves)`` — the
        vectorized stay targets of the silent majority, plus a list of
        ``(index, Vec2)`` scalar-computed moves for the engaged few.
        """
        a = self._arrays
        engaged_mask = (
            (self._hold_remaining[active_arr] > 0)
            | ~self._outbound[active_arr]
            | self._has_queue[active_arr]
        )
        silent_idx = active_arr[~engaged_mask]
        engaged_idx = active_arr[engaged_mask]
        wx, wy = a.stay_targets(silent_idx)

        engaged_moves: List[Tuple[int, Vec2]] = []
        for j in engaged_idx.tolist():
            engaged_moves.append((j, self._engaged_move(j)))
        return silent_idx, wx, wy, engaged_moves

    def _engaged_move(self, j: int) -> Vec2:
        a = self._arrays
        robot = self._robots[j]
        view = self.sender_view(j)
        popped: Optional[Tuple[int, int]] = None
        if self._hold_remaining[j] > 0:
            self._hold_remaining[j] -= 1
            local = self._hold_local[j]
        elif not self._outbound[j]:
            self._outbound[j] = True
            local = self._held(j, view.home)
        else:
            queue = self._queues[j]
            popped = queue.popleft()
            if not queue:
                self._has_queue[j] = False
            dst, bit = popped
            label = view.labels[dst]
            self._outbound[j] = False
            local = self._held(
                j,
                view.granular.target_point(
                    label, positive=(bit == 0), distance=view.step_out
                ),
            )
        anchor = a.anchor(j)
        world = robot.frame.to_world(local, anchor)
        current = a.position(j)
        clamped = current.clamped_toward(world, robot.sigma)

        # Excursion tracking: only position *changes* alter what the
        # observers will see next instant.
        if clamped != current:
            if clamped == anchor:
                self._excursions.pop(j, None)
                self._displaced.discard(j)
            elif popped is not None and clamped == world:
                self._excursions[j] = popped
                self._displaced.discard(j)
            else:
                # A clamped-short or otherwise unexplainable landing:
                # observers must classify it, exactly like a fault.
                self._excursions.pop(j, None)
                self._displaced.add(j)
        return clamped

    def _held(self, j: int, local: Vec2) -> Vec2:
        self._hold_remaining[j] = self._dilation - 1
        self._hold_local[j] = local
        return local


class KernelProtocolView:
    """The protocol-shaped surface of one robot inside the kernel.

    Duck-types the :class:`~repro.model.protocol.Protocol` API that
    channels, monitors, applications and tests consume: bit queues,
    received/overheard logs, activation counts, binding info and the
    granular introspection helpers.  ``on_activate`` is deliberately
    absent — the kernel executes activations itself.
    """

    idle_silent = True

    __slots__ = ("_kernel", "_index", "_info")

    def __init__(self, kernel: GranularKernel, index: int) -> None:
        self._kernel = kernel
        self._index = index
        self._info: Optional[BindingInfo] = None

    @property
    def info(self) -> BindingInfo:
        if self._info is None:
            self._info = self._kernel.binding_info(self._index)
        return self._info

    def send_bit(self, dst: int, bit: int) -> None:
        """Queue one bit for the robot with tracking index ``dst``."""
        self._kernel.send_bit(self._index, dst, bit)

    def send_bits(self, dst: int, bits) -> None:
        """Queue a bit sequence for ``dst`` (in order)."""
        for bit in bits:
            self.send_bit(dst, bit)

    @property
    def pending_bits(self) -> int:
        return self._kernel.pending_bits(self._index)

    @property
    def received(self) -> Tuple[BitEvent, ...]:
        return self._kernel.received_of(self._index)

    @property
    def overheard(self) -> Tuple[BitEvent, ...]:
        return self._kernel.overheard_of(self._index)

    @property
    def activations(self) -> int:
        return self._kernel.activations_of(self._index)

    def labels_used_by(self, sender: int) -> Dict[int, int]:
        """The tracking-index -> diameter-label map of a sender."""
        if not (0 <= sender < self._kernel._n):
            raise ProtocolError(f"unknown sender {sender}")
        return dict(self._kernel.sender_view(sender).labels)

    def granular_of(self, index: int) -> Granular:
        """The granular of any robot, as this robot computes it."""
        if not (0 <= index < self._kernel._n):
            raise ProtocolError(f"unknown robot {index}")
        return self._kernel.observer_granular(self._index, index)
