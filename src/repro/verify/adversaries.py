"""Non-scheduler adversaries: worst-case stale looks.

The CORDA-style look policy (:class:`repro.model.looks.StaleLook`)
draws each activation's Look lag uniformly.  The *adversarial* lag
choice is not the maximal lag — a constant lag is just a delayed but
gap-free replay of the history — it is the **sawtooth**: alternate
between the maximal lag and no lag at all, which makes consecutive
looks jump forward by up to ``max_delay + 1`` instants and therefore
*skip* whole configurations.  Skipped configurations are exactly what
breaks undilated decoders (see ``dilation`` in
:class:`repro.protocols.sync_granular.SyncGranularProtocol`), so this
is the worst case the dilation guarantee is stated against.
"""

from __future__ import annotations

from typing import List

from repro.model.looks import StaleLook

__all__ = ["SawtoothStaleLook"]


class SawtoothStaleLook(StaleLook):
    """Stale looks with the adversarial sawtooth lag policy.

    Per robot, activations alternate between the maximal legal lag
    (``max_delay``) and a perfectly fresh look (lag 0), maximizing
    the forward jumps of the (monotone) look sequence.  Deterministic:
    no randomness is involved, so paired caching-on/off runs are
    trivially identical.  Both scalar engines issue a round's looks
    in ``sorted(active)`` order, so the sawtooth phases advance in
    lockstep on the round engine and on the event engine in round
    emulation.
    """

    def bind(self, sim) -> None:
        super().bind(sim)
        self._sawtooth_phase: List[int] = [0] * sim.count

    def _draw_lag(self, index: int, now: int) -> int:
        phase = self._sawtooth_phase[index]
        self._sawtooth_phase[index] = 1 - phase
        return self._max_delay if phase == 0 else 0
