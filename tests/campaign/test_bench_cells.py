"""Benchmark modules as campaign cells: the cells()/run_cell() pair.

Every ``bench_*.py`` module registered in ``run_all.MODULES`` must
expose the import-based ``cells()``/``run_cell(name)`` protocol from
``benchmarks.support.table_cells`` — the campaign engine never
``exec``s a benchmark script.
"""

from __future__ import annotations

import pytest

import benchmarks.run_all as run_all
from benchmarks.support import table_cells
from repro.campaign.cells import execute_cell
from repro.errors import CampaignError


class TestModuleProtocol:
    def test_every_registered_module_exposes_the_pair(self):
        for module in run_all.MODULES:
            assert callable(getattr(module, "cells", None)), module.__name__
            assert callable(getattr(module, "run_cell", None)), module.__name__
            # Every module regenerates its table; parametrized modules
            # expose additional name[key=value] cells alongside it.
            assert "table" in module.cells(), module.__name__

    def test_table_cell_regenerates_the_experiment(self):
        """One cheap end-to-end table: Figure 1 through the executor."""
        payload = execute_cell(
            "bench",
            {"module": "benchmarks.bench_fig1_sync_two", "cell": "table"},
        )
        assert payload["ok"] is True
        assert "Figure 1" in payload["output"]

    def test_unknown_module_is_a_spec_error(self):
        with pytest.raises(CampaignError, match="cannot import"):
            execute_cell(
                "bench", {"module": "benchmarks.bench_nope", "cell": "table"}
            )

    def test_unknown_cell_is_a_spec_error(self):
        with pytest.raises(CampaignError, match="has no cell"):
            execute_cell(
                "bench",
                {"module": "benchmarks.bench_fig1_sync_two", "cell": "nope"},
            )


class TestTableCellsFactory:
    def test_named_cells_and_main(self):
        calls = []

        def fake_main():
            calls.append("main")
            print("a table")

        cells, run_cell = table_cells(
            ("extra", lambda: {"n": 3}), main=fake_main
        )
        assert cells() == ["extra", "table"]
        assert run_cell("extra") == {"n": 3}
        payload = run_cell("table")
        assert calls == ["main"]
        assert payload == {"ok": True, "output": "a table\n"}

    def test_non_dict_payloads_are_wrapped(self):
        _, run_cell = table_cells(("scalar", lambda: 42))
        assert run_cell("scalar") == {"value": 42}

    def test_unknown_cell_raises(self):
        cells, run_cell = table_cells(main=lambda: None)
        with pytest.raises(KeyError):
            run_cell("nope")

    def test_table_name_is_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            table_cells(("table", lambda: {}), main=lambda: None)

    def test_param_grid_expands_to_labeled_cells(self):
        def run(engine="rounds", n=0):
            return {"engine": engine, "n": n}

        cells, run_cell = table_cells(
            ("sweep", run, {"engine": ("events", "rounds"), "n": (4, 8)}),
        )
        assert cells() == [
            "sweep[engine=events,n=4]",
            "sweep[engine=events,n=8]",
            "sweep[engine=rounds,n=4]",
            "sweep[engine=rounds,n=8]",
        ]
        assert run_cell("sweep[engine=events,n=8]") == {
            "engine": "events", "n": 8,
        }

    def test_param_grid_rejects_empty_and_duplicate(self):
        with pytest.raises(ValueError, match="empty parameter grid"):
            table_cells(("sweep", lambda: {}, {}))
        with pytest.raises(ValueError, match="duplicate cell name"):
            table_cells(
                ("a", lambda: {}),
                ("a", lambda: {}),
            )

