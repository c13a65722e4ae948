"""Campaign specs: deterministic expansion and stable cell hashes."""

from __future__ import annotations

import json

import pytest

from repro.campaign.spec import (
    CampaignSpec,
    CellSpec,
    bench_cells,
    load_spec,
    parse_spec,
    verify_cells,
)
from repro.errors import CampaignError


class TestCellHash:
    def test_hash_ignores_param_insertion_order(self):
        a = CellSpec(kind="selftest", params={"behavior": "ok", "value": 3})
        b = CellSpec(kind="selftest", params={"value": 3, "behavior": "ok"})
        assert a.cell_id() == b.cell_id()

    def test_hash_ignores_execution_policy(self):
        """Identity is (kind, params); timeouts/options are policy."""
        a = CellSpec(kind="selftest", params={"behavior": "ok"})
        b = CellSpec(
            kind="selftest",
            params={"behavior": "ok"},
            timeout_s=1.0,
            max_attempts=7,
            options={"obs_dump_dir": "/tmp/x"},
        )
        assert a.cell_id() == b.cell_id()

    def test_distinct_params_hash_differently(self):
        a = CellSpec(kind="selftest", params={"behavior": "ok", "value": 1})
        b = CellSpec(kind="selftest", params={"behavior": "ok", "value": 2})
        assert a.cell_id() != b.cell_id()

    def test_hash_is_stable_across_processes(self):
        """sha256 of canonical JSON — not Python's salted hash()."""
        cell = CellSpec(kind="selftest", params={"behavior": "ok"})
        assert cell.cell_id() == cell.cell_id()
        assert len(cell.cell_id()) == 16
        int(cell.cell_id(), 16)  # hex


class TestCampaignSpec:
    def test_duplicate_cells_rejected(self):
        cells = [
            CellSpec(kind="selftest", params={"behavior": "ok"}),
            CellSpec(kind="selftest", params={"behavior": "ok"}),
        ]
        with pytest.raises(CampaignError, match="duplicate cell"):
            CampaignSpec(name="dup", cells=cells)

    def test_spec_hash_ignores_defaults(self):
        cells = lambda: [CellSpec(kind="selftest", params={"behavior": "ok"})]
        a = CampaignSpec(name="x", cells=cells(), timeout_s=1.0)
        b = CampaignSpec(name="x", cells=cells(), timeout_s=99.0, max_attempts=9)
        assert a.spec_hash() == b.spec_hash()

    def test_spec_hash_tracks_name_and_cells(self):
        cells = lambda v: [
            CellSpec(kind="selftest", params={"behavior": "ok", "value": v})
        ]
        base = CampaignSpec(name="x", cells=cells(1))
        assert base.spec_hash() != CampaignSpec(name="y", cells=cells(1)).spec_hash()
        assert base.spec_hash() != CampaignSpec(name="x", cells=cells(2)).spec_hash()

    def test_per_cell_overrides_beat_defaults(self):
        spec = CampaignSpec(
            name="x",
            cells=[
                CellSpec(kind="selftest", params={"v": 1}, timeout_s=5.0,
                         max_attempts=1),
                CellSpec(kind="selftest", params={"v": 2}),
            ],
            timeout_s=60.0,
            max_attempts=4,
        )
        assert spec.cell_timeout(spec.cells[0]) == 5.0
        assert spec.cell_attempts(spec.cells[0]) == 1
        assert spec.cell_timeout(spec.cells[1]) == 60.0
        assert spec.cell_attempts(spec.cells[1]) == 4


class TestGenerators:
    def test_verify_cells_expand_deterministically(self):
        a = verify_cells(protocols=["sync_two"], seeds=3, quick=True)
        b = verify_cells(protocols=["sync_two"], seeds=3, quick=True)
        assert [c.cell_id() for c in a] == [c.cell_id() for c in b]
        assert len(a) > 0
        assert all(c.kind == "verify" for c in a)
        seeds = {c.params["seed"] for c in a}
        assert seeds == {0, 1, 2}

    def test_verify_cells_skip_out_of_envelope_pairs(self):
        from repro.verify.scenarios import SKIPS

        expanded = {
            (c.params["protocol"], c.params["scheduler"])
            for c in verify_cells(seeds=1)
        }
        assert not expanded & set(SKIPS)

    def test_repeats_are_distinct_cells(self):
        cells = verify_cells(protocols=["sync_two"],
                             schedulers=["synchronous"], seeds=1, repeats=3)
        assert len({c.cell_id() for c in cells}) == len(cells) == 3

    def test_bench_cells_cover_every_module(self):
        import benchmarks.run_all as run_all

        modules = {c.params["module"] for c in bench_cells()}
        assert modules == {m.__name__ for m in run_all.MODULES}


class TestSpecFiles:
    def test_load_spec_round_trips(self, tmp_path):
        doc = {
            "name": "from-file",
            "defaults": {"timeout_s": 9.0, "max_attempts": 2, "backoff_s": 0.1},
            "cells": [
                {"kind": "selftest", "params": {"behavior": "ok", "value": 5},
                 "timeout_s": 1.5},
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = load_spec(str(path))
        assert spec.name == "from-file"
        assert spec.timeout_s == 9.0
        assert spec.max_attempts == 2
        assert spec.cells[0].timeout_s == 1.5
        # to_json() -> parse_spec() preserves identity
        assert parse_spec(spec.to_json()).spec_hash() == spec.spec_hash()

    def test_generate_entries_expand(self, tmp_path):
        doc = {
            "name": "gen",
            "cells": [
                {"generate": "verify", "protocols": ["sync_two"],
                 "schedulers": ["synchronous"], "seeds": 2, "quick": True},
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = load_spec(str(path))
        assert len(spec.cells) == 2
        assert all(c.kind == "verify" for c in spec.cells)

    def test_unknown_generator_rejected(self):
        with pytest.raises(CampaignError, match="unknown generator"):
            parse_spec({"name": "x", "cells": [{"generate": "nonsense"}]})

    def test_retired_probes_generator_is_rejected(self):
        """``generate: probes`` is refused; the error names the generators."""
        with pytest.raises(
            CampaignError, match=r"unknown generator 'probes'.*\['bench', 'verify'\]"
        ):
            parse_spec({"name": "x", "cells": [{"generate": "probes"}]})

    def test_malformed_entries_rejected(self):
        with pytest.raises(CampaignError, match="needs 'kind' and 'params'"):
            parse_spec({"name": "x", "cells": [{"kind": "selftest"}]})
        with pytest.raises(CampaignError, match="non-empty 'name'"):
            parse_spec({"cells": [{"kind": "a", "params": {}}]})
        with pytest.raises(CampaignError, match="non-empty list"):
            parse_spec({"name": "x", "cells": []})

    def test_unreadable_spec_is_a_campaign_error(self, tmp_path):
        with pytest.raises(CampaignError, match="cannot read spec"):
            load_spec(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(CampaignError, match="not valid JSON"):
            load_spec(str(bad))
