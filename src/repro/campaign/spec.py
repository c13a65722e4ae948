"""Declarative campaign specs and their deterministic cell expansion.

A *campaign* is a declarative description of a parameter sweep —
verification cells over the protocol x adversary matrix, or benchmark
tables — expanded into a flat, deterministic list
of :class:`CellSpec` work items.  Every cell carries a **stable
content hash** (:meth:`CellSpec.cell_id`): the SHA-256 of its
canonical ``(kind, params)`` JSON.  The hash is the key of the result
store, which is what makes campaigns resumable — a cell that already
has a result under its hash is simply skipped.

Identity vs. policy
-------------------

Only ``kind`` and ``params`` enter the hash.  Execution *policy* —
per-cell timeout, retry budget, obs-dump directories — deliberately
does not: retuning a timeout or re-running with trace dumps enabled
must not invalidate the results already in the store.

Spec files
----------

:func:`load_spec` reads a JSON document of the form::

    {
      "name": "nightly-sweep",
      "defaults": {"timeout_s": 120, "max_attempts": 3, "backoff_s": 0.25},
      "cells": [
        {"generate": "verify", "protocols": ["sync_granular"],
         "seeds": 10, "quick": false},
        {"generate": "bench"},
        {"kind": "verify",
         "params": {"protocol": "sync_two", "scheduler": "synchronous",
                    "seed": 7, "repeat": 0, "quick": false}}
      ]
    }

``generate`` entries expand deterministically (matrix order x seed
order x repeat order); explicit entries pass through verbatim.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import CampaignError

__all__ = [
    "SPEC_SCHEMA",
    "SPEC_VERSION",
    "CellSpec",
    "CampaignSpec",
    "canonical_json",
    "verify_cells",
    "bench_cells",
    "parse_spec",
    "load_spec",
]

#: schema tag of a campaign spec / store document.
SPEC_SCHEMA = "repro-campaign"
#: bump when a consumer-visible key changes shape.
SPEC_VERSION = 1

#: the experiment driver, whose ``MODULES`` list is the table matrix.
_RUN_ALL_MODULE = "benchmarks.run_all"


def canonical_json(value: object) -> str:
    """The canonical (sorted, compact) JSON encoding used for hashing."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass
class CellSpec:
    """One unit of campaign work: a cell kind plus its parameters.

    Attributes:
        kind: executor key (see :mod:`repro.campaign.cells`) —
            ``verify``, ``bench``, or ``selftest``.
        params: JSON-able parameters that *identify* the cell; two
            cells with equal canonical params are the same cell.
        timeout_s: per-cell wall-clock budget; ``None`` inherits the
            campaign default.
        max_attempts: retry budget; ``None`` inherits the default.
        options: execution policy that must NOT affect identity
            (e.g. ``obs_dump_dir``); excluded from the hash.
    """

    kind: str
    params: Dict[str, object]
    timeout_s: Optional[float] = None
    max_attempts: Optional[int] = None
    options: Dict[str, object] = field(default_factory=dict)

    def cell_id(self) -> str:
        """Stable content hash of ``(kind, params)`` (16 hex chars)."""
        doc = canonical_json({"kind": self.kind, "params": self.params})
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]

    def label(self) -> str:
        """A short human label for progress lines and reports."""
        parts = [self.kind]
        for key in ("protocol", "scheduler", "module", "cell", "behavior",
                    "seed", "repeat"):
            if key in self.params:
                parts.append(f"{key}={self.params[key]}")
        return " ".join(parts)

    def to_json(self) -> Dict[str, object]:
        """JSON form (spec files and the store's ``campaign.json``)."""
        doc: Dict[str, object] = {
            "kind": self.kind,
            "params": dict(self.params),
        }
        if self.timeout_s is not None:
            doc["timeout_s"] = self.timeout_s
        if self.max_attempts is not None:
            doc["max_attempts"] = self.max_attempts
        if self.options:
            doc["options"] = dict(self.options)
        return doc


@dataclass
class CampaignSpec:
    """A named campaign: cells plus campaign-wide execution defaults."""

    name: str
    cells: List[CellSpec] = field(default_factory=list)
    timeout_s: float = 120.0
    max_attempts: int = 3
    backoff_s: float = 0.25

    def __post_init__(self) -> None:
        seen: Dict[str, CellSpec] = {}
        for cell in self.cells:
            cid = cell.cell_id()
            if cid in seen:
                raise CampaignError(
                    f"duplicate cell in campaign {self.name!r}: "
                    f"{cell.label()} collides with {seen[cid].label()} "
                    f"(hash {cid}); use a 'repeat' param to distinguish "
                    f"intentional repeats"
                )
            seen[cid] = cell

    def cell_timeout(self, cell: CellSpec) -> float:
        """The effective timeout for ``cell`` (cell override or default)."""
        return cell.timeout_s if cell.timeout_s is not None else self.timeout_s

    def cell_attempts(self, cell: CellSpec) -> int:
        """The effective retry budget for ``cell``."""
        return (
            cell.max_attempts
            if cell.max_attempts is not None
            else self.max_attempts
        )

    def spec_hash(self) -> str:
        """Identity of the campaign: name plus the ordered cell hashes.

        Execution defaults are policy, not identity — retuning
        timeouts must not orphan an existing store.
        """
        doc = canonical_json(
            {"name": self.name, "cells": [c.cell_id() for c in self.cells]}
        )
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]

    def to_json(self) -> Dict[str, object]:
        """JSON form of the whole spec (round-trips via :func:`parse_spec`)."""
        return {
            "schema": SPEC_SCHEMA,
            "version": SPEC_VERSION,
            "name": self.name,
            "defaults": {
                "timeout_s": self.timeout_s,
                "max_attempts": self.max_attempts,
                "backoff_s": self.backoff_s,
            },
            "cells": [cell.to_json() for cell in self.cells],
        }


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

def _seed_list(seeds: Union[int, Sequence[int]]) -> List[int]:
    if isinstance(seeds, int):
        return list(range(seeds))
    return [int(s) for s in seeds]


def verify_cells(
    protocols: Optional[Sequence[str]] = None,
    schedulers: Optional[Sequence[str]] = None,
    seeds: Union[int, Sequence[int]] = 5,
    repeats: int = 1,
    quick: bool = False,
    minimize: bool = True,
) -> List[CellSpec]:
    """Expand the ``repro.verify`` matrix into campaign cells.

    One cell per executable ``(protocol, scheduler)`` pair x seed x
    repeat, in matrix order — out-of-envelope pairs are excluded the
    same way ``repro.verify`` skips them.  ``seeds`` is either a count
    (``5`` -> seeds 0..4) or an explicit list.
    """
    from repro.verify.scenarios import cells_for

    out: List[CellSpec] = []
    for cell in cells_for(protocols, schedulers):
        for seed in _seed_list(seeds):
            for repeat in range(repeats):
                out.append(
                    CellSpec(
                        kind="verify",
                        params={
                            "protocol": cell.protocol,
                            "scheduler": cell.scheduler,
                            "seed": seed,
                            "repeat": repeat,
                            "quick": quick,
                            "minimize": minimize,
                        },
                    )
                )
    return out


def _module_cells(module_name: str) -> List[CellSpec]:
    """The cells a single benchmark module exposes via ``cells()``."""
    import importlib

    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise CampaignError(
            f"cannot import benchmark module {module_name!r} — run from "
            f"the repository root so the 'benchmarks' package is "
            f"importable ({exc})"
        ) from exc
    if not hasattr(module, "cells") or not hasattr(module, "run_cell"):
        raise CampaignError(
            f"{module_name} does not expose the cells()/run_cell() pair"
        )
    return [
        CellSpec(kind="bench", params={"module": module_name, "cell": name})
        for name in module.cells()
    ]


def bench_cells(modules: Optional[Sequence[str]] = None) -> List[CellSpec]:
    """Campaign cells for benchmark table modules.

    With no argument, expands every module registered in
    ``benchmarks.run_all.MODULES`` (the full experiment matrix).
    """
    if modules is None:
        import importlib

        run_all = importlib.import_module(_RUN_ALL_MODULE)
        modules = [m.__name__ for m in run_all.MODULES]
    out: List[CellSpec] = []
    for name in modules:
        out.extend(_module_cells(name))
    return out


# ----------------------------------------------------------------------
# Spec file parsing
# ----------------------------------------------------------------------

_GENERATORS = {"verify", "bench"}


def _expand_entry(entry: Dict[str, object]) -> List[CellSpec]:
    if "generate" in entry:
        kind = entry["generate"]
        if kind == "verify":
            return verify_cells(
                protocols=entry.get("protocols"),
                schedulers=entry.get("schedulers"),
                seeds=entry.get("seeds", 5),
                repeats=int(entry.get("repeats", 1)),
                quick=bool(entry.get("quick", False)),
                minimize=bool(entry.get("minimize", True)),
            )
        if kind == "bench":
            return bench_cells(entry.get("modules"))
        raise CampaignError(
            f"unknown generator {kind!r} (choose from {sorted(_GENERATORS)})"
        )
    if "kind" not in entry or "params" not in entry:
        raise CampaignError(
            f"a cell entry needs 'kind' and 'params' (or 'generate'): {entry!r}"
        )
    timeout = entry.get("timeout_s")
    attempts = entry.get("max_attempts")
    return [
        CellSpec(
            kind=str(entry["kind"]),
            params=dict(entry["params"]),  # type: ignore[arg-type]
            timeout_s=float(timeout) if timeout is not None else None,
            max_attempts=int(attempts) if attempts is not None else None,
            options=dict(entry.get("options", {})),  # type: ignore[arg-type]
        )
    ]


def parse_spec(doc: Dict[str, object]) -> CampaignSpec:
    """Build a :class:`CampaignSpec` from a parsed spec document."""
    if not isinstance(doc, dict):
        raise CampaignError(f"a campaign spec must be a JSON object, got {type(doc).__name__}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise CampaignError("a campaign spec needs a non-empty 'name'")
    defaults = doc.get("defaults", {})
    if not isinstance(defaults, dict):
        raise CampaignError("'defaults' must be an object")
    entries = doc.get("cells", [])
    if not isinstance(entries, list) or not entries:
        raise CampaignError("'cells' must be a non-empty list")
    cells: List[CellSpec] = []
    for entry in entries:
        cells.extend(_expand_entry(entry))  # type: ignore[arg-type]
    return CampaignSpec(
        name=name,
        cells=cells,
        timeout_s=float(defaults.get("timeout_s", 120.0)),
        max_attempts=int(defaults.get("max_attempts", 3)),
        backoff_s=float(defaults.get("backoff_s", 0.25)),
    )


def load_spec(path: str) -> CampaignSpec:
    """Read and expand a JSON campaign spec file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise CampaignError(f"cannot read spec {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CampaignError(f"spec {path!r} is not valid JSON: {exc}") from exc
    return parse_spec(doc)
