"""Round-emulation equivalence: every protocol, both scheduler arms.

The tentpole claim — the event engine in round-emulation mode is
*byte-identical* to the round engine — exercised per protocol through
the ``engine`` axis of the :mod:`repro.verify.differential` oracle:
identical traces, bit streams, final configurations, epochs and
monitor verdicts, under both full synchrony and a seeded
fair-asynchronous scheduler (genuinely partial activation).  The full seed fan runs in CI via
``python -m repro.verify --event-oracle``; this is the per-protocol
pytest surface.
"""

from __future__ import annotations

import pytest

from repro.model.scheduler import FairAsynchronousScheduler
from repro.verify.differential import AXES, compare
from repro.verify.scenarios import CELLS, PROTOCOLS

pytestmark = [pytest.mark.events, pytest.mark.verify]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_synchronous_cells_are_byte_identical(protocol):
    cell = CELLS[(protocol, "synchronous")]
    result = compare(cell, 5, *AXES["engine"], quick=True)
    assert result.ok, (result.problems, result.error)
    assert result.steps > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fair_async_partial_activation_is_byte_identical(protocol):
    cell = CELLS[(protocol, "synchronous")]
    result = compare(
        cell,
        8,
        *AXES["engine"],
        quick=True,
        scheduler_factory=lambda: FairAsynchronousScheduler(seed=97),
        variant="fair_async",
    )
    assert result.ok, (result.problems, result.error)
