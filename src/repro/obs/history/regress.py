"""Statistically gated regression detection over the metrics history.

The detector judges the *latest* history entry against a rolling
baseline built from the entries before it:

* **Baseline** — per-metric median plus MAD (median absolute
  deviation) over a configurable window.  Median/MAD rather than
  mean/stddev so one historical outlier cannot poison the baseline.
* **Direction of goodness** — ``cached_s`` going *up* is a
  regression, ``speedup`` going *down* is; metrics with no known
  direction regress in either direction.  The classification is by
  name convention (see :func:`direction_of`) and can be overridden.
* **Gates** — a finding requires all three: the deviation clears the
  MAD noise band (``mad_k`` scaled MADs; a zero-MAD baseline means
  any movement clears it), the relative threshold, and the absolute
  threshold.  A metric with fewer than ``min_samples`` baseline
  points is skipped, never flagged — new metrics get a grace period.

``python -m repro.obs regress`` wraps this: report-only mode always
exits 0 so CI can chart without gating, gating mode exits 3 naming
every offending metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.history.store import HistoryEntry

__all__ = [
    "RegressPolicy",
    "Finding",
    "RegressReport",
    "direction_of",
    "median",
    "mad",
    "baseline",
    "detect",
    "render_regressions",
    "render_regression_line",
]

#: MAD -> sigma-equivalent scale for normally distributed noise.
_MAD_SCALE = 1.4826

#: name fragments whose presence means "lower is better".
_LOWER_TOKENS = (
    "seconds", "elapsed", "latency", "misses", "failures", "failed",
    "violations", "retries", "timeouts", "staleness",
)
#: name fragments whose presence means "higher is better".
_HIGHER_TOKENS = (
    "speedup", "per_sec", "hit_rate", "reuse", "throughput", "ok",
    "delivered", "hits",
)


def direction_of(name: str) -> str:
    """``"lower"``, ``"higher"``, or ``"either"`` — which way is good.

    Works on bare and labeled names (``cached_s{probe=...}``); the
    label block is ignored for classification.
    """
    base = name.split("{", 1)[0].lower()
    last = base.rsplit(".", 1)[-1]
    if last.endswith("_s") or last == "s" or last in ("sum", "mean"):
        return "lower"
    for token in _HIGHER_TOKENS:
        if token in base:
            return "higher"
    for token in _LOWER_TOKENS:
        if token in base:
            return "lower"
    return "either"


def median(values: Sequence[float]) -> float:
    """The sample median (mean of the middle two for even counts)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty sample")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float], center: Optional[float] = None) -> float:
    """Median absolute deviation around ``center`` (default: median)."""
    if center is None:
        center = median(values)
    return median([abs(v - center) for v in values])


def baseline(values: Sequence[float]) -> Tuple[float, float]:
    """``(median, mad)`` of a baseline window."""
    med = median(values)
    return med, mad(values, med)


@dataclass(frozen=True)
class RegressPolicy:
    """What counts as a regression.

    Attributes:
        window: baseline entries considered (most recent first); must
            be positive.
        min_samples: baseline points below which a metric is skipped.
        mad_k: noise band half-width in scaled MADs.
        rel_tolerance: minimum relative deviation (0.10 = 10%).
        abs_tolerance: minimum absolute deviation.
        metrics: restrict checking to these exact names (None = all).
        directions: per-metric direction overrides
            (``{"name": "lower"|"higher"|"either"}``).
    """

    window: int = 10
    min_samples: int = 3
    mad_k: float = 4.0
    rel_tolerance: float = 0.10
    abs_tolerance: float = 0.0
    metrics: Optional[Tuple[str, ...]] = None
    directions: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # An empty baseline skips every metric, which would read as "no
        # regressions" with the gate in fact off.
        if self.window <= 0:
            raise ObservabilityError(f"window must be positive, got {self.window}")

    def direction(self, name: str) -> str:
        """The effective direction of goodness for ``name``."""
        return self.directions.get(name, direction_of(name))


@dataclass(frozen=True)
class Finding:
    """One metric that regressed past every gate."""

    metric: str
    value: float
    baseline_median: float
    baseline_mad: float
    samples: int
    direction: str

    @property
    def delta(self) -> float:
        """Signed deviation from the baseline median."""
        return self.value - self.baseline_median

    @property
    def rel_delta(self) -> float:
        """Relative deviation (inf on a zero baseline)."""
        if self.baseline_median == 0:
            return float("inf")
        return self.delta / abs(self.baseline_median)

    def __str__(self) -> str:
        arrow = "+" if self.delta >= 0 else ""
        rel = (
            f"{arrow}{self.rel_delta:.1%}"
            if self.baseline_median
            else "from zero"
        )
        return (
            f"{self.metric}: {self.value:.6g} vs baseline median "
            f"{self.baseline_median:.6g} ({rel}, n={self.samples}, "
            f"{self.direction} is better)"
        )


@dataclass
class RegressReport:
    """The verdict over one candidate entry."""

    candidate: Optional[HistoryEntry]
    baseline_seqs: List[int]
    findings: List[Finding]
    checked: int = 0
    skipped: int = 0

    @property
    def ok(self) -> bool:
        """True when no metric regressed."""
        return not self.findings


def _check_metric(
    name: str,
    history: Sequence[float],
    value: float,
    policy: RegressPolicy,
) -> Optional[Finding]:
    med, raw_mad = baseline(history)
    direction = policy.direction(name)
    delta = value - med
    if direction == "lower":
        badness = delta
    elif direction == "higher":
        badness = -delta
    else:
        badness = abs(delta)
    if badness <= 0:
        return None
    noise_band = policy.mad_k * _MAD_SCALE * raw_mad
    if badness <= noise_band:
        return None
    rel = badness / abs(med) if med else float("inf")
    if rel <= policy.rel_tolerance or badness <= policy.abs_tolerance:
        return None
    return Finding(
        metric=name,
        value=value,
        baseline_median=med,
        baseline_mad=raw_mad,
        samples=len(history),
        direction=direction,
    )


def detect(
    entries: Sequence[HistoryEntry],
    policy: Optional[RegressPolicy] = None,
) -> RegressReport:
    """Judge the last entry of ``entries`` against the ones before it."""
    policy = policy or RegressPolicy()
    if not entries:
        return RegressReport(candidate=None, baseline_seqs=[], findings=[])
    candidate = entries[-1]
    window = entries[max(0, len(entries) - 1 - policy.window):-1]
    report = RegressReport(
        candidate=candidate,
        baseline_seqs=[e.seq or 0 for e in window],
        findings=[],
    )
    for name in sorted(candidate.metrics):
        if policy.metrics is not None and name not in policy.metrics:
            continue
        history = [
            float(e.metrics[name]) for e in window if name in e.metrics
        ]
        if len(history) < policy.min_samples:
            report.skipped += 1
            continue
        report.checked += 1
        finding = _check_metric(
            name, history, float(candidate.metrics[name]), policy
        )
        if finding is not None:
            report.findings.append(finding)
    # Worst offenders first; name breaks ties deterministically.
    report.findings.sort(key=lambda f: (-abs(f.rel_delta), f.metric))
    return report


def render_regressions(report: RegressReport) -> str:
    """The ASCII verdict ``python -m repro.obs regress`` prints."""
    if report.candidate is None:
        return "regressions: (empty history — nothing to judge)"
    head = (
        f"regression check: entry #{report.candidate.seq} "
        f"({report.candidate.run_id}"
        + (
            f", commit {str(report.candidate.git_commit)[:12]}"
            if report.candidate.git_commit
            else ""
        )
        + f") vs baseline of {len(report.baseline_seqs)} entries"
    )
    lines = [
        head,
        f"  metrics checked: {report.checked}, "
        f"skipped (insufficient history): {report.skipped}",
    ]
    if report.ok:
        lines.append("  no regressions")
    else:
        lines.append(f"  REGRESSIONS ({len(report.findings)}):")
        for finding in report.findings:
            lines.append(f"    - {finding}")
    return "\n".join(lines)


def render_regression_line(
    report: RegressReport, policy: Optional[RegressPolicy] = None
) -> str:
    """One grep-able line naming every offender with its accepted band.

    This is what the CLI prints to stderr alongside exit status 3, so a
    CI log scraper (or a human skimming red builds) sees the verdict
    without parsing the full chart: each offending metric, the value it
    landed on, and the median +/- k*MAD band it had to stay inside.
    """
    if report.ok or report.candidate is None:
        return "regress: ok"
    policy = policy or RegressPolicy()
    parts = []
    for finding in report.findings:
        band = policy.mad_k * _MAD_SCALE * finding.baseline_mad
        lo = finding.baseline_median - band
        hi = finding.baseline_median + band
        parts.append(
            f"{finding.metric}={finding.value:.6g} "
            f"(median {finding.baseline_median:.6g}, "
            f"band [{lo:.6g}, {hi:.6g}])"
        )
    return (
        f"regress: {len(report.findings)} metric(s) out of bounds: "
        + "; ".join(parts)
    )
