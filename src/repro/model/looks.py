"""Look policies: what an activation's Look phase returns.

The SSM default is the instantaneous configuration ``P(t_j)``.  The
Section 5 variants below change only that answer, so each is a
:class:`LookPolicy` passed as ``look=`` to either scalar engine
(:class:`~repro.model.simulator.Simulator`,
:class:`~repro.events.engine.EventSimulator`); both consult it through
the one seam ``Simulator._config_for_observation``, so every policy
runs on both engines.  Limited visibility restricts *who* is seen, not
*where*: it is the engines' ``visibility_radius`` keyword.

* :class:`StaleLook` — "relaxing synchrony among the robots to achieve
  solutions into a fully asynchronous model (e.g., CORDA)";
* :class:`SensingNoise` — "robots could be prone to make computation
  errors due to round off".
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Sequence

from repro.errors import ModelError
from repro.geometry.vec import Vec2

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.simulator import Simulator

__all__ = ["LookPolicy", "SensingNoise", "StaleLook"]


class LookPolicy:
    """What an activation's Look phase returns, in place of ``P(t_j)``.

    A policy keeps per-robot state for one run, so it serves exactly
    one simulator.
    """

    _bound = False

    def bind(self, sim: "Simulator") -> None:
        """Attach to ``sim``; called once, by its constructor.

        Subclasses size their per-robot state here and raise
        :class:`~repro.errors.ModelError` for a simulator they cannot
        serve.
        """
        if self._bound:
            raise ModelError(
                f"{type(self).__name__} already serves a simulator; "
                "build one look policy per run"
            )
        self._bound = True

    def config(self, sim: "Simulator", index: int) -> Sequence[Vec2]:
        """The configuration robot ``index`` observes at ``sim.time``.

        Called at every Look, also when the observation cache then
        reuses the result, so bookkeeping and RNG draws never depend
        on ``caching``.  Return ``sim._positions`` itself (not a copy)
        for the live configuration: the observation cache keys its
        fast path on that identity.
        """
        raise NotImplementedError


class StaleLook(LookPolicy):
    """Boundedly stale Looks: SSM interpolated toward CORDA.

    In CORDA the Look, Compute and Move phases of an activation are
    decoupled: a robot may *move* on a snapshot it *looked* at
    earlier.  Here an activation at instant ``t`` computes on the
    configuration of an instant in ``[t - max_delay, t]``; per robot
    the look time is non-decreasing (a robot never un-sees) and the
    actual lag of each activation is drawn uniformly.  ``max_delay=0``
    is exactly SSM.

    A robot's *own* position is stale too — exactly CORDA's pathology:
    a robot that "stays where it is" moves to where it *was*.  Idle
    robots that have not moved recently are unaffected, so silence is
    preserved for truly idle robots.

    What ``benchmarks/bench_a4_staleness.py`` finds: the paper's
    synchronous protocols break at any lag bound ``d >= 1``, because a
    look sequence can *skip* a configuration and so miss a whole
    one-instant excursion or return; phase dilation ``d + 1`` (the
    ``dilation`` knob of
    :class:`~repro.protocols.sync_granular.SyncGranularProtocol`,
    which states why it works) restores delivery at a ``(d+1)``-fold
    latency cost.

    Args:
        max_delay: maximum Look staleness in instants (>= 0).
        seed: RNG seed for the per-activation lags.
    """

    def __init__(self, max_delay: int, seed: int = 0) -> None:
        if max_delay < 0:
            raise ModelError(f"max_delay must be >= 0, got {max_delay}")
        self._max_delay = max_delay
        self._rng = random.Random(seed)
        self._look_times: List[int] = []

    @property
    def max_delay(self) -> int:
        """The staleness bound, in instants."""
        return self._max_delay

    def look_time_of(self, index: int) -> int:
        """The instant whose configuration the robot last looked at."""
        return self._look_times[index]

    def bind(self, sim: "Simulator") -> None:
        super().bind(sim)
        # Stale looks read configurations up to max_delay instants
        # back, so the trace must retain at least that much history.
        policy = sim.trace.policy
        if self._max_delay > 0 and (
            policy.stride > 1
            or (policy.capacity is not None and policy.capacity < self._max_delay)
        ):
            raise ModelError(
                "stale looks need the last max_delay configurations: "
                f"policy {policy!r} cannot serve max_delay={self._max_delay}"
            )
        self._look_times = [0] * sim.count

    def _draw_lag(self, index: int, now: int) -> int:
        """The Look lag of this activation, in ``[0, max_delay]``.

        The base policy draws uniformly.  Adversarial variants (the
        verification subsystem's worst-case stale selection,
        :class:`repro.verify.adversaries.SawtoothStaleLook`) override
        this single hook; everything else — monotonicity, the
        staleness bound, trace retrieval — stays in one place.
        """
        return self._rng.randint(0, self._max_delay)

    def config(self, sim: "Simulator", index: int) -> Sequence[Vec2]:
        if self._max_delay == 0:
            return sim._positions
        now = sim.time
        lag = self._draw_lag(index, now)
        if not (0 <= lag <= self._max_delay):
            raise ModelError(
                f"lag policy produced {lag}, outside [0, {self._max_delay}]"
            )
        look = max(self._look_times[index], now - lag)
        self._look_times[index] = look
        if look >= now:
            return sim._positions
        return sim.trace.positions_at(look)


class SensingNoise(LookPolicy):
    """Gaussian position-sensing noise.

    Every observed position of *another* robot is perturbed by
    independent zero-mean Gaussian noise, freshly drawn per
    observation; a robot knows its own position exactly (odometry).
    Movements themselves are exact: this models imprecise *sensing*,
    not imprecise actuation.  Where :mod:`repro.discrete` models the
    discrete version of round-off (finitely many recognisable
    directions), this is the continuous one.

    Decoders see perturbed excursions; whether they survive depends on
    their guard bands.  A robot observed "off home" by less than its
    decoder's threshold stays classified as idle, and an excursion
    whose perceived direction drifts past the slice tolerance raises
    ``AmbiguousDirectionError`` — ``benchmarks/bench_a5_noise.py``
    maps the delivery-rate cliff of both failure modes as noise grows
    relative to the excursion length.

    Args:
        std: standard deviation of the per-axis position error (world
            units); 0 reduces to the base engine.
        seed: RNG seed; runs are reproducible.
    """

    def __init__(self, std: float, seed: int = 0) -> None:
        if std < 0.0:
            raise ModelError(f"noise std must be >= 0, got {std}")
        self._std = std
        self._rng = random.Random(seed)

    @property
    def std(self) -> float:
        """The sensing-noise standard deviation (world units)."""
        return self._std

    def config(self, sim: "Simulator", index: int) -> Sequence[Vec2]:
        live = sim._positions
        if self._std == 0.0:
            return live
        noisy: List[Vec2] = []
        for i, position in enumerate(live):
            if i == index:
                # The observer's own position is spared: odometry is exact.
                noisy.append(position)
            else:
                noisy.append(
                    Vec2(
                        position.x + self._rng.gauss(0.0, self._std),
                        position.y + self._rng.gauss(0.0, self._std),
                    )
                )
        return noisy
