"""Adversarial-scheduler verification for the movement protocols.

The paper proves its protocols against *every* legal SSM schedule; the
test suite, by construction, only ever runs a handful of benign ones.
This package closes that gap with a seeded property-test harness:

* a zoo of adversarial schedulers and observation adversaries
  (:mod:`repro.verify.schedulers`, :mod:`repro.verify.adversaries`)
  plus displacement fault plans (:mod:`repro.faults.transient`);
* protocol-agnostic invariant monitors over the live trace stream
  (:mod:`repro.verify.monitors`);
* a protocol x adversary matrix with per-cell envelopes
  (:mod:`repro.verify.scenarios`) and the seeded engine that sweeps
  it, checks caching transparency, and minimizes failing reproductions
  (:mod:`repro.verify.engine`);
* intentionally-buggy mutants that prove the monitors actually fire
  (:mod:`repro.verify.mutants`).

The oracles, each a sweep over the same matrix:

* **caching transparency** — every engine run is re-run with hot-path
  caching off and diffed (:func:`repro.verify.engine.diff_runs`);
* **differential** — each cell built as two twins on one axis,
  ``backend`` (scalar vs batch) or ``engine`` (rounds vs events), and
  diffed the same way (:mod:`repro.verify.differential`);
* **causality** — each cell run instrumented on both engines, its
  happens-before DAG rebuilt and checked (:mod:`repro.verify.causal`).

Command line::

    python -m repro.verify --seeds 50 --protocol all
    python -m repro.verify --backend-oracle --quick
    python -m repro.verify --event-oracle --quick
    python -m repro.verify --causal-oracle --quick
    python -m repro.verify --self-test
    python -m repro.verify --list
"""

from repro.verify.adversaries import SawtoothStaleLookSimulator
from repro.verify.engine import CellResult, Report, drive, run_cell, run_matrix
from repro.verify.monitors import (
    CollisionFreedomMonitor,
    InvariantMonitor,
    NoForgedBitsMonitor,
    ReceiptMonitor,
    SchedulerContractMonitor,
    SilenceMonitor,
    StalenessContractMonitor,
    TwoInstantsPerBitMonitor,
    Violation,
    attach,
)
from repro.verify.mutants import MUTANTS, MutantResult, run_mutant, run_self_test
from repro.verify.scenarios import (
    CELLS,
    PROTOCOLS,
    SCHEDULERS,
    SKIPS,
    Cell,
    ScenarioRun,
    build_run,
    cells_for,
)
from repro.verify.schedulers import (
    BoundedUnfairScheduler,
    BurstScheduler,
    CrashScheduler,
)

__all__ = [
    # engine
    "CellResult",
    "Report",
    "drive",
    "run_cell",
    "run_matrix",
    # matrix
    "CELLS",
    "PROTOCOLS",
    "SCHEDULERS",
    "SKIPS",
    "Cell",
    "ScenarioRun",
    "build_run",
    "cells_for",
    # monitors
    "InvariantMonitor",
    "Violation",
    "attach",
    "CollisionFreedomMonitor",
    "SilenceMonitor",
    "ReceiptMonitor",
    "NoForgedBitsMonitor",
    "TwoInstantsPerBitMonitor",
    "SchedulerContractMonitor",
    "StalenessContractMonitor",
    # adversaries
    "BoundedUnfairScheduler",
    "BurstScheduler",
    "CrashScheduler",
    "SawtoothStaleLookSimulator",
    # mutants
    "MUTANTS",
    "MutantResult",
    "run_mutant",
    "run_self_test",
]
