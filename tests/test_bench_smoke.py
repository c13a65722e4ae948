"""CI smoke target: ``python -m benchmarks.run_all --quick``.

Runs the invariant gate in a subprocess exactly as CI would and
asserts its verdict lines: the sync-granular protocol still costs 2
instants per bit and the hot-path caches are semantically transparent
(identical traces and bit streams) across the adversarial verify
matrix.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys


def test_quick_smoke_passes_and_reports_invariants():
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "benchmarks.run_all", "--quick"],
        cwd=repo_root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "[invariant sync_granular_two_steps_per_bit: ok]" in result.stdout
    assert "[invariant adversarial_transparency: ok]" in result.stdout
    # --quick is the gate alone: no table is regenerated
    assert ": ok in" not in result.stdout


def test_engine_parametrized_cells_run_both_engines():
    """table_cells param grids: engine= sweeps like backend= sweeps.

    The sparse benchmark registers one cell per engine; both must be
    executable through the campaign cells()/run_cell() protocol and
    produce duty-matched rows (small n keeps this a smoke test).
    """
    from benchmarks import bench_event_sparse

    names = bench_event_sparse.cells()
    assert "sparse[engine=events]" in names
    assert "sparse[engine=rounds]" in names

    events_row = bench_event_sparse.duty_matched_cell(engine="events", n=300)
    rounds_row = bench_event_sparse.duty_matched_cell(engine="rounds", n=100)
    assert events_row["engine"] == "events"
    assert rounds_row["engine"] == "rounds"
    for row in (events_row, rounds_row):
        assert row["activations"] > 0
        assert 0.001 < row["duty"] < 0.06
