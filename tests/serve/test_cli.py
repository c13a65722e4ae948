"""The ``python -m repro.serve`` entry point."""

from __future__ import annotations

import pytest

from repro.serve.__main__ import main as serve_main

pytestmark = pytest.mark.serve


def test_serve_cli_smoke(tmp_path, capsys):
    obs_path = tmp_path / "trace.jsonl"
    code = serve_main([
        "smoke", "--sessions", "8", "--max-live", "2",
        "--store", str(tmp_path / "store"), "--obs", str(obs_path),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "8 sessions done" in out and "OK" in out
    assert obs_path.exists() and obs_path.stat().st_size > 0
