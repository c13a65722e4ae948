"""``repro.events`` — the event-driven continuous-time LCM engine.

The round engine steps every robot at every instant; this package
replaces instants with a priority queue of ``(time, phase, robot)``
events, giving the paper's asynchronous interleaving model a genuinely
continuous-time substrate:

* :mod:`repro.events.distributions` — seeded phase-duration and
  activation-gap distributions (deterministic, uniform, exponential,
  heavy-tailed Pareto);
* :mod:`repro.events.timing` — the per-robot
  :class:`~repro.events.timing.TimingModel` (round emulation vs
  free-running, fairness-clamped gaps);
* :mod:`repro.events.delay` — pluggable
  :class:`~repro.events.delay.DelayModel` observation delays
  (``delay_fcn(sender, receiver, time)``) that decide when a moved-bit
  configuration becomes visible to each observer;
* :mod:`repro.events.engine` —
  :class:`~repro.events.engine.EventSimulator`, a drop-in
  :class:`~repro.model.simulator.Simulator` subclass.

Select it through the common factory
(``repro.batch.make_simulator(..., engine="events")``) or the
:class:`~repro.apps.harness.SwarmHarness` ``engine`` knob.  The
round-emulation configuration is proved byte-identical to the round
engine by ``python -m repro.verify --event-oracle`` (the ``engine``
axis of :mod:`repro.verify.differential`); see ``docs/EVENTS.md``.
"""

from repro.events.delay import (
    ConstantDelay,
    DelayModel,
    JitterDelay,
    TargetedSpikeDelay,
    ZeroDelay,
)
from repro.events.distributions import (
    Deterministic,
    Distribution,
    Exponential,
    Pareto,
    Uniform,
)
from repro.events.engine import PHASES, EventSimulator
from repro.events.timing import TimingModel

__all__ = [
    "EventSimulator",
    "PHASES",
    "TimingModel",
    "Distribution",
    "Deterministic",
    "Uniform",
    "Exponential",
    "Pareto",
    "DelayModel",
    "ZeroDelay",
    "ConstantDelay",
    "JitterDelay",
    "TargetedSpikeDelay",
]
