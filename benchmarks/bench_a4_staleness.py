"""Ablation A4 — partial synchrony: staleness vs phase dilation (§5).

The CORDA open problem made quantitative: delivery rate of the
synchronous granular protocol under boundedly-stale Look phases, for
the paper's 1-instant phases (dilation 1) versus phases dilated to
``max_delay + 1`` instants.

Shape claims: dilation 1 collapses as soon as staleness appears;
matched dilation stays at 100% at a proportional latency cost.
"""

from __future__ import annotations

from repro.apps.harness import ring_positions
from repro.geometry.vec import Vec2
from repro.model.looks import StaleLook
from repro.model.robot import Robot
from repro.model.simulator import Simulator
from repro.protocols.sync_granular import SyncGranularProtocol

# Support running as a standalone script (python benchmarks/bench_x.py).
if __package__ in (None, ""):
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.support import print_table, table_cells

DELAYS = (0, 1, 2, 4)
SEEDS = range(15)
BITS = [1, 0, 1, 0, 1]


def delivery_rate(delay: int, dilation: int) -> float:
    ok = 0
    for seed in SEEDS:
        positions = ring_positions(5, radius=10.0, jitter=0.06)
        robots = [
            Robot(
                position=p,
                protocol=SyncGranularProtocol(dilation=dilation),
                sigma=4.0,
                observable_id=i,
            )
            for i, p in enumerate(positions)
        ]
        sim = Simulator(robots, look=StaleLook(delay, seed=seed))
        robots[0].protocol.send_bits(2, BITS)
        sim.run(2 * dilation * len(BITS) + 2 * delay + 10)
        if [e.bit for e in robots[2].protocol.received] == BITS:
            ok += 1
    return ok / len(list(SEEDS))


def sweep():
    rows = []
    for delay in DELAYS:
        base = delivery_rate(delay, dilation=1)
        matched = delivery_rate(delay, dilation=delay + 1)
        rows.append((delay, base, matched, 2 * (delay + 1)))
    return rows


def test_a4_shape(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for delay, base, matched, _ in rows:
        if delay == 0:
            assert base == 1.0
        else:
            assert base < 0.2  # the open problem, measured
        assert matched == 1.0  # the dilation repair


def main() -> None:
    print_table(
        "A4 / §5 — delivery rate under CORDA-style stale looks (15 seeds, 5 bits)",
        ["max look lag d", "dilation 1 (paper)", "dilation d+1", "steps/bit @ d+1"],
        sweep(),
    )


# The campaign engine's import-based entry points (no exec).
cells, run_cell = table_cells(main=main)


if __name__ == "__main__":
    main()
