"""Shared pieces of the workloads: checks, iteration results, paths."""

from __future__ import annotations

import contextlib
import pathlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from perfbench.trace import Span, Tracer

__all__ = [
    "ROOT",
    "Checks",
    "Iteration",
    "Workload",
    "clock",
    "require_program",
    "span",
]

#: the checkout the benchmark runs in (the parent of this package)
ROOT = pathlib.Path(__file__).resolve().parent.parent

clock = time.perf_counter


def require_program() -> None:
    """Make ``src/repro`` importable, or fail before measuring anything."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def span(tracer: Optional[Tracer], name: str):
    """A span when tracing, nothing otherwise."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Checks:
    """Output checks of one iteration: each is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        """Count one checked outcome; remember what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class Iteration:
    """What one iteration of a workload measured and checked.

    ``wall_s`` runs from the start of set-up to the final checked
    result; ``run_s`` is the part after set-up.  ``steps`` holds one
    latency per user-visible step call.  ``layer`` carries per-layer
    counts read from the program's own statistics; a list value is a
    sample (one entry per request) rather than a count.
    """

    setup_s: List[float]
    wall_s: float
    run_s: float
    activations: int
    steps: List[float]
    checks: Checks
    layer: Dict[str, object] = field(default_factory=dict)
    root: Optional[Span] = None


@dataclass(frozen=True)
class Workload:
    """One named workload: its inputs and its iteration.

    ``make_inputs(seed, params)`` is pure: equal seeds give equal
    inputs.  ``iterate(inputs, params, tracer)`` builds the program
    from those inputs, runs it, checks it and returns an
    :class:`Iteration`.
    """

    name: str
    params: Dict[str, object]
    tiny: Dict[str, object]
    min_iterations: int
    make_inputs: Callable[[int, Dict[str, object]], Dict[str, object]]
    iterate: Callable[[Dict[str, object], Dict[str, object], Optional[Tracer]], Iteration]
