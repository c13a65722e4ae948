"""ASCII views over a recorded run — what ``python -m repro.obs`` prints.

Four views, composable into one report:

* :func:`render_timeline` — the activation timeline: one row per
  robot, one column per instant (``#`` active, ``.`` idle, ``D`` the
  instant a displacement fault hit the robot).
* :func:`render_gantt` — the per-flow bit-transmission Gantt: one row
  per transmitted bit, from encode-start (``E``) through the encoding
  movement (``m``) to receipt (``R``), with the ack tick (``a``).
* :func:`render_metrics` — the metrics registry tables.
* :func:`render_profile` — the wall-time-per-simulator-phase profile
  of an instrumented run.

Everything is plain monospaced text, deterministic for a given run
file, and bounded in width (wide runs are downsampled column-wise, and
say so — no silent truncation).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.events import BIT_ACK, BIT_MOVED, DISPLACEMENT, MONITOR, STEP
from repro.obs.export import ObsRun
from repro.obs.profiler import phase_hotspots
from repro.obs.spans import bit_spans

__all__ = [
    "render_timeline",
    "render_gantt",
    "render_metrics",
    "render_profile",
    "render_report",
    "timeline_to_json",
    "gantt_to_json",
    "metrics_to_json",
]

_DEFAULT_WIDTH = 72


def _axis(t_max: int, width: int) -> List[int]:
    """The column instants, strided down until they fit in ``width``."""
    stride = 1
    while (t_max + stride) // stride > width:
        stride *= 2
    return list(range(0, t_max + 1, stride))


def render_timeline(run: ObsRun, width: Optional[int] = None) -> str:
    """The activation timeline (see module docstring)."""
    width = width or _DEFAULT_WIDTH
    steps = run.of_kind(STEP)
    if not steps:
        return "activation timeline: (no steps recorded)"
    t_max = steps[-1].time
    active_at: Dict[int, set] = {
        s.time: set(s.get("active", ()))  # type: ignore[arg-type]
        for s in steps
    }
    displaced_at: Dict[int, set] = {}
    for event in run.of_kind(DISPLACEMENT):
        displaced_at.setdefault(event.time, set()).add(int(event.get("robot", -1)))
    columns = _axis(t_max, width)
    stride = columns[1] - columns[0] if len(columns) > 1 else 1
    count = run.count or 1 + max(
        (max(a) for a in active_at.values() if a), default=0
    )
    lines = [
        "activation timeline "
        f"(t=0..{t_max}"
        + (f", every {stride}th instant" if stride > 1 else "")
        + "; '#' active, '.' idle, 'D' displaced)"
    ]
    tick_line = "      " + "".join(
        "|" if (t // stride) % 10 == 0 else " " for t in columns
    )
    lines.append(tick_line)
    for robot in range(count):
        cells = []
        for t in columns:
            if robot in displaced_at.get(t, ()):
                cells.append("D")
            elif robot in active_at.get(t, ()):
                cells.append("#")
            elif t in active_at:
                cells.append(".")
            else:
                cells.append(" ")
        lines.append(f"  r{robot:<3d} " + "".join(cells))
    lines.append(
        "      t=0"
        + " " * max(0, len(columns) - 8)
        + f"t={columns[-1]}"
    )
    return "\n".join(lines)


def render_gantt(run: ObsRun, width: Optional[int] = None) -> str:
    """The per-robot bit-transmission Gantt view."""
    width = width or _DEFAULT_WIDTH
    spans = bit_spans(run.events)
    if not spans:
        return "bit lifecycle: (no bit traffic recorded)"
    steps = run.of_kind(STEP)
    t_max = steps[-1].time if steps else int(
        max((s.end or s.start) for s in spans)
    )
    columns = _axis(t_max, width)
    stride = columns[1] - columns[0] if len(columns) > 1 else 1

    # Index the point events so the bars carry their milestones.
    moved: Dict[Tuple[int, int], List[int]] = {}
    acks: Dict[Tuple[int, int, int], int] = {}
    for event in run.events:
        if event.kind == BIT_MOVED:
            flow = (int(event.get("src", -1)), int(event.get("dst", -1)))
            moved.setdefault(flow, []).append(event.time)
        elif event.kind == BIT_ACK:
            key = (
                int(event.get("src", -1)),
                int(event.get("dst", -1)),
                int(event.get("seq", -1)),
            )
            acks[key] = event.time

    lines = [
        "bit lifecycle (E encode-started, m encoding move, R receipt, "
        "a ack; '-' in flight)"
    ]
    for span in spans:
        src = int(span.attrs["src"])
        dst = int(span.attrs["dst"])
        seq = int(span.attrs["seq"])
        start = int(span.start)
        end = None if span.end is None else int(span.end)
        ack_t = acks.get((src, dst, seq))
        cells = []
        for t in columns:
            hi = t + stride - 1  # the instants this column covers
            if end is not None and t <= end <= hi:
                cells.append("R")
            elif t <= start <= hi:
                cells.append("E")
            elif ack_t is not None and t <= ack_t <= hi:
                cells.append("a")
            elif any(
                t <= mt <= hi and start <= mt <= (end if end is not None else t_max)
                for mt in moved.get((src, dst), ())
            ):
                cells.append("m")
            elif start < t and (end is None or t < end):
                cells.append("-")
            else:
                cells.append(" ")
        status = "" if span.attrs.get("delivered") else "  (never delivered)"
        label = f"  r{src}->r{dst} bit{seq}={span.attrs.get('bit')}"
        lines.append(f"{label:<20s}" + "".join(cells) + status)
    monitor_events = run.of_kind(MONITOR)
    if monitor_events:
        lines.append("")
        lines.append("monitor firings:")
        for event in monitor_events:
            when = f"t={event.time}" if event.time >= 0 else "end"
            lines.append(
                f"  [{event.get('invariant')} @ {when}] {event.get('message')}"
            )
    return "\n".join(lines)


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_metrics(run: ObsRun) -> str:
    """The metrics registry tables."""
    if not run.metrics:
        return "metrics: (none recorded)"
    lines = ["metrics:"]
    name_width = max(len(str(entry.get("name", ""))) for entry in run.metrics)
    for entry in run.metrics:
        name = str(entry.get("name", "?"))
        labels = entry.get("labels") or {}
        label_text = (
            "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
            if labels
            else ""
        )
        kind = entry.get("type")
        if kind == "histogram":
            count = entry.get("count", 0)
            total = entry.get("sum", 0.0)
            mean = (total / count) if count else 0.0  # type: ignore[operator]
            value = (
                f"count={count} sum={_format_value(total)} "
                f"mean={_format_value(mean)}"
            )
        else:
            value = _format_value(entry.get("value", 0))
        lines.append(f"  {name:<{name_width}s} {label_text:<28s} {value}")
    return "\n".join(lines)


def render_profile(run: ObsRun) -> str:
    """Wall time per simulator phase, from the injected clock."""
    stats = {stat.name: stat for stat in phase_hotspots(run.events)}
    if not stats:
        return "hot-path profile: (run was not recorded with phase timing)"
    order = ("schedule", "compute", "move", "record")
    names = [n for n in order if n in stats] + sorted(
        n for n in stats if n not in order
    )
    grand = sum(stats[name].self_seconds for name in names) or 1.0
    width = max(len(name) for name in names + ["total"])
    lines = ["hot-path profile (wall time per simulator phase):"]
    for name in names:
        stat = stats[name]
        share = stat.self_seconds / grand
        bar = "#" * int(round(share * 30))
        lines.append(
            f"  {name:<{width}s} {stat.self_seconds:>12.6f}s  {share:>6.1%}  "
            f"mean {stat.mean_seconds:.3e}s  {bar}"
        )
    lines.append(f"  {'total':<{width}s} {grand:>12.6f}s")
    return "\n".join(lines)


def timeline_to_json(run: ObsRun) -> Dict[str, object]:
    """The activation timeline as a JSON-ready dict (``--format json``).

    One entry per recorded instant with the active set, plus the
    displacement faults — the same facts the ASCII view draws, with no
    column downsampling.
    """
    steps = run.of_kind(STEP)
    return {
        "view": "timeline",
        "robots": run.count,
        "instants": [
            {"t": s.time, "active": sorted(s.get("active", ()))}  # type: ignore[arg-type]
            for s in steps
        ],
        "displacements": [
            {"t": e.time, "robot": int(e.get("robot", -1))}
            for e in run.of_kind(DISPLACEMENT)
        ],
    }


def gantt_to_json(run: ObsRun) -> Dict[str, object]:
    """The bit-lifecycle view as a JSON-ready dict (``--format json``)."""
    moved: Dict[Tuple[int, int], List[int]] = {}
    acks: Dict[Tuple[int, int, int], int] = {}
    for event in run.events:
        if event.kind == BIT_MOVED:
            flow = (int(event.get("src", -1)), int(event.get("dst", -1)))
            moved.setdefault(flow, []).append(event.time)
        elif event.kind == BIT_ACK:
            key = (
                int(event.get("src", -1)),
                int(event.get("dst", -1)),
                int(event.get("seq", -1)),
            )
            acks[key] = event.time
    bits: List[Dict[str, object]] = []
    for span in bit_spans(run.events):
        src = int(span.attrs["src"])
        dst = int(span.attrs["dst"])
        seq = int(span.attrs["seq"])
        start = int(span.start)
        end = None if span.end is None else int(span.end)
        bits.append(
            {
                "src": src,
                "dst": dst,
                "seq": seq,
                "bit": span.attrs.get("bit"),
                "start": start,
                "end": end,
                "delivered": bool(span.attrs.get("delivered")),
                "moves": [
                    t
                    for t in moved.get((src, dst), ())
                    if start <= t and (end is None or t <= end)
                ],
                "ack": acks.get((src, dst, seq)),
            }
        )
    return {
        "view": "gantt",
        "bits": bits,
        "monitors": [
            {
                "t": e.time,
                "invariant": e.get("invariant"),
                "message": e.get("message"),
            }
            for e in run.of_kind(MONITOR)
        ],
    }


def metrics_to_json(run: ObsRun) -> Dict[str, object]:
    """The metrics registry snapshot as a JSON-ready dict."""
    return {"view": "metrics", "metrics": [dict(m) for m in run.metrics]}


def _render_header(run: ObsRun) -> str:
    meta = dict(run.meta)
    meta.pop("initial", None)
    pairs = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
    return f"obs run: {pairs}\n  events={len(run.events)} instants={run.total_instants}"


def render_report(run: ObsRun, width: Optional[int] = None) -> str:
    """All views, in reading order."""
    sections = [
        _render_header(run),
        render_timeline(run, width=width),
        render_gantt(run, width=width),
        render_metrics(run),
        render_profile(run),
    ]
    return "\n\n".join(sections) + "\n"
