"""``repro.campaign`` — sharded, resumable experiment campaigns.

The job-execution layer of the reproduction: a *campaign* is a
declarative spec (protocols, schedulers, seeds, repeats, per-cell
timeout) expanded into a deterministic set of content-hashed cells,
executed by a fault-tolerant multi-process worker pool, with every
result landing in a persistent, content-addressed store.  A killed
campaign re-run with ``--resume`` continues exactly where it stopped.

The pieces:

* :mod:`repro.campaign.spec` — specs, generators, the stable cell hash;
* :mod:`repro.campaign.cells` — the executors (verify matrix cells,
  benchmark ``cells()``/``run_cell()`` modules, runner self-tests);
* :mod:`repro.campaign.store` — the result store (atomic per-cell JSON,
  JSONL journal, derived SQLite index);
* :mod:`repro.campaign.runner` — the worker pool: per-cell SIGALRM
  timeouts, bounded retry with backoff, crash isolation, resume;
* :mod:`repro.campaign.report` — status / report / diff rendering;
* ``python -m repro.campaign`` — the CLI (``run``, ``status``,
  ``report``, ``diff``).

See ``docs/CAMPAIGNS.md`` for the spec format, the store layout, and
the resume/retry semantics.
"""

from repro.campaign.runner import CampaignOutcome, CellOutcome, run_campaign
from repro.campaign.spec import (
    CampaignSpec,
    CellSpec,
    bench_cells,
    load_spec,
    parse_spec,
    verify_cells,
)
from repro.campaign.store import CellRecord, ResultStore

__all__ = [
    "CampaignOutcome",
    "CampaignSpec",
    "CellOutcome",
    "CellRecord",
    "CellSpec",
    "ResultStore",
    "bench_cells",
    "load_spec",
    "parse_spec",
    "run_campaign",
    "verify_cells",
]
