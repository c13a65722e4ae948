"""The differential oracle: twin builds, exception parity, skips, CLI."""

from __future__ import annotations

import pytest

import repro.batch
import repro.verify.differential as differential
from repro.errors import ModelError
from repro.verify.__main__ import main
from repro.verify.differential import (
    AXES,
    KERNEL_PROTOCOLS,
    ORACLE_SKIPS,
    compare,
    run_differential,
)
from repro.verify.scenarios import CELLS, PROTOCOLS, build_run, cells_for

pytestmark = pytest.mark.verify

requires_numpy = pytest.mark.skipif(
    not repro.batch.available(),
    reason="batch backend needs numpy (install the [batch] extra)",
)

ROUNDS, EVENTS = AXES["engine"]


def _raising_build(monkeypatch, should_raise):
    """Make ``build_run`` raise ``ModelError('boom')`` for chosen twins."""
    original = differential.build_run

    def build(cell, seed, **kwargs):
        if should_raise(kwargs["engine"]):
            raise ModelError("boom")
        return original(cell, seed, **kwargs)

    monkeypatch.setattr(differential, "build_run", build)


def test_one_sided_raise_is_an_asymmetric_failure(monkeypatch):
    _raising_build(monkeypatch, lambda engine: engine == "events")
    cell = CELLS[("sync_two", "synchronous")]
    result = compare(cell, 0, ROUNDS, EVENTS, quick=True)
    assert not result.ok
    assert result.error.startswith("asymmetric failure:")
    assert "rounds: ok" in result.error
    assert "events: ModelError: boom" in result.error


def test_identical_raises_on_both_twins_pass(monkeypatch):
    _raising_build(monkeypatch, lambda engine: True)
    cell = CELLS[("sync_two", "synchronous")]
    result = compare(cell, 0, ROUNDS, EVENTS, quick=True)
    assert result.ok, result.error
    assert result.steps == 0


def test_untwinnable_cells_are_counted_skips_with_reasons():
    report = run_differential(
        "engine", ["async_n"], ["event_heavy_tail"], seeds=range(1), quick=True
    )
    assert report.results == []
    assert report.skipped == [
        ("async_n", "event_heavy_tail", ORACLE_SKIPS[("engine", "event_heavy_tail")])
    ]
    report = run_differential(
        "backend", ["async_n"], ["worst_stale"], seeds=range(1), quick=True
    )
    assert report.results == []
    assert [reason for _, _, reason in report.skipped] == [
        ORACLE_SKIPS[("backend", "worst_stale")]
    ]


def test_oracle_flags_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--backend-oracle", "--event-oracle", "--quick"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_list_prints_every_oracle_skip_with_its_reason(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "differential oracle skips" in out
    for (axis, adversary), reason in ORACLE_SKIPS.items():
        assert any(
            axis in line and adversary in line and reason in line
            for line in out.splitlines()
        ), (axis, adversary)


@requires_numpy
def test_backend_axis_compares_or_skips_every_cell_once():
    report = run_differential("backend", seeds=range(1), quick=True)
    assert report.ok
    compared = [
        (r.protocol, r.scheduler) for r in report.results if r.variant == "matrix"
    ]
    skipped = [(p, s) for p, s, _ in report.skipped if (p, s) in CELLS]
    assert sorted(compared + skipped) == sorted(
        (c.protocol, c.scheduler) for c in cells_for()
    )
    assert {p for p, _ in compared} == set(KERNEL_PROTOCOLS)
    fair_async = [
        (r.protocol, r.scheduler) for r in report.results if r.variant == "fair_async"
    ]
    assert fair_async == [(p, "synchronous") for p in KERNEL_PROTOCOLS]


@requires_numpy
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_backend_skips_are_exactly_the_kernel_refusals(protocol):
    cell = CELLS[(protocol, "synchronous")]
    if protocol in KERNEL_PROTOCOLS:
        assert build_run(cell, 0, quick=True, backend="batch").sim.mode == "kernel"
    else:
        with pytest.raises(ModelError, match="batch kernel cannot host this swarm"):
            build_run(cell, 0, quick=True, backend="batch")
