"""Service-level objectives: declarative targets, attainment, burn.

An :class:`SLO` states what "good" means for one slice of serving
traffic — *latency* objectives ("99% of ``step`` requests finish
within 250 ms") and *availability* objectives ("99.9% of all requests
succeed").  An :class:`SLOTracker` folds per-request outcomes (op,
latency, error flag) into one rolling window per objective and
answers, at any instant:

* **attainment** — the fraction of windowed requests that were good;
* **error budget** — ``1 - target``, the fraction allowed to be bad;
* **burn** — ``bad_fraction / error_budget``: 1.0 means the budget is
  exactly spent, above 1.0 the objective is violated.

Everything is windowed (bounded deques), deterministic (no clock
reads — latencies arrive as measured values) and JSON-first, so the
``telemetry`` verb can report attainment and the ``/healthz``
endpoint can gate on :meth:`SLOTracker.all_ok`.

Objectives are declarative data: :func:`slos_from_json` /
:meth:`SLO.to_json` round-trip a config document, and
:func:`default_serve_slos` is the serving tier's stock pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

__all__ = [
    "SLO",
    "SLOTracker",
    "default_serve_slos",
    "slos_from_json",
]


@dataclass(frozen=True)
class SLO:
    """One declarative objective over a slice of request traffic.

    Attributes:
        name: unique objective name (metric label, report row).
        op: which request op the objective watches; ``"*"`` means all.
        target: required good fraction in ``(0, 1)`` — e.g. ``0.99``.
        latency_s: when set, a request is *good* iff it succeeded and
            finished within this many seconds (a latency objective);
            when ``None``, good simply means "no error" (an
            availability objective).
        window: rolling window size, in requests.
    """

    name: str
    op: str = "*"
    target: float = 0.99
    latency_s: Optional[float] = None
    window: int = 512

    def __post_init__(self) -> None:
        if not self.name:
            raise ObservabilityError("an SLO needs a non-empty name")
        if not (0.0 < self.target < 1.0):
            raise ObservabilityError(
                f"SLO target must be in (0, 1), got {self.target!r}"
            )
        if self.latency_s is not None and self.latency_s <= 0:
            raise ObservabilityError(
                f"SLO latency bound must be positive, got {self.latency_s!r}"
            )
        if self.window < 1:
            raise ObservabilityError(f"SLO window must be >= 1, got {self.window}")

    @property
    def error_budget(self) -> float:
        """The allowed bad fraction: ``1 - target``."""
        return 1.0 - self.target

    def objective(self) -> str:
        """The human form, e.g. ``99% of step <= 250ms``."""
        percent = f"{100.0 * self.target:g}%"
        scope = "all ops" if self.op == "*" else self.op
        if self.latency_s is None:
            return f"{percent} of {scope} succeed"
        return f"{percent} of {scope} <= {1e3 * self.latency_s:g}ms"

    def watches(self, op: str) -> bool:
        """Whether a request of ``op`` counts against this objective."""
        return self.op == "*" or self.op == op

    def is_good(self, seconds: float, error: bool) -> bool:
        """Judge one request outcome against the objective."""
        if error:
            return False
        return self.latency_s is None or seconds <= self.latency_s

    def to_json(self) -> Dict[str, object]:
        """The declarative config form (inverse of :func:`slos_from_json`)."""
        doc: Dict[str, object] = {
            "name": self.name,
            "op": self.op,
            "target": self.target,
            "window": self.window,
        }
        if self.latency_s is not None:
            doc["latency_s"] = self.latency_s
        return doc


def slos_from_json(docs: Iterable[Mapping[str, object]]) -> Tuple[SLO, ...]:
    """Parse a declarative SLO config (a list of objective documents)."""
    out: List[SLO] = []
    for doc in docs:
        if not isinstance(doc, Mapping):
            raise ObservabilityError(f"SLO config entry is not an object: {doc!r}")
        try:
            latency = doc.get("latency_s")
            out.append(
                SLO(
                    name=str(doc["name"]),
                    op=str(doc.get("op", "*")),
                    target=float(doc.get("target", 0.99)),  # type: ignore[arg-type]
                    latency_s=None if latency is None else float(latency),  # type: ignore[arg-type]
                    window=int(doc.get("window", 512)),  # type: ignore[arg-type]
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(f"malformed SLO config {doc!r}: {exc}") from exc
    names = [slo.name for slo in out]
    if len(set(names)) != len(names):
        raise ObservabilityError(f"duplicate SLO names in config: {names}")
    return tuple(out)


def default_serve_slos() -> Tuple[SLO, ...]:
    """The serving tier's stock objectives.

    ``step-latency`` watches the hot verb (95% of steps within 250 ms
    — generous for CI boxes, tight enough to notice a stall) and
    ``availability`` watches every verb for errors.
    """
    return (
        SLO("step-latency", op="step", target=0.95, latency_s=0.25),
        SLO("availability", op="*", target=0.999),
    )


class SLOTracker:
    """Rolling attainment and error-budget burn, one window per SLO."""

    def __init__(self, slos: Sequence[SLO] = ()) -> None:
        self.slos: Tuple[SLO, ...] = tuple(slos)
        #: per objective: deque of good/bad verdicts, newest last
        self._verdicts: Dict[str, Deque[bool]] = {
            slo.name: deque(maxlen=slo.window) for slo in self.slos
        }

    def observe(self, op: str, seconds: float, error: bool = False) -> None:
        """Fold one finished request into every objective watching it."""
        for slo in self.slos:
            if slo.watches(op):
                self._verdicts[slo.name].append(slo.is_good(seconds, error))

    def attainment(self, name: str) -> float:
        """Good fraction of the named objective's window (1.0 if empty)."""
        window = self._verdicts[name]
        if not window:
            return 1.0
        return sum(window) / len(window)

    def burn(self, name: str) -> float:
        """Error-budget burn: bad fraction over the allowed fraction."""
        slo = next(s for s in self.slos if s.name == name)
        return (1.0 - self.attainment(name)) / slo.error_budget

    def status(self) -> List[Dict[str, object]]:
        """One JSON row per objective: attainment, budget, burn, verdict.

        An empty window is vacuously ok (attainment 1.0) — a service
        that has served nothing has violated nothing.
        """
        rows: List[Dict[str, object]] = []
        for slo in self.slos:
            window = self._verdicts[slo.name]
            attainment = self.attainment(slo.name)
            rows.append(
                {
                    "name": slo.name,
                    "objective": slo.objective(),
                    "op": slo.op,
                    "window": len(window),
                    "good": sum(window),
                    "attainment": attainment,
                    "target": slo.target,
                    "error_budget": slo.error_budget,
                    "burn": (1.0 - attainment) / slo.error_budget,
                    "ok": attainment >= slo.target,
                }
            )
        return rows

    def all_ok(self) -> bool:
        """Every objective currently attained (the ``/healthz`` verdict)."""
        return all(row["ok"] for row in self.status())
