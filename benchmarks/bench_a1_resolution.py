"""Ablation A1 — bounded direction resolution and discrete worlds (§5).

The paper's discrete-plane discussion: robots "are not able to identify
all of possible 2n directions [...] and are limited to recognize only a
certain number of directions", which is what the log_k addressing
fixes.  Three columns:

* the ``2n``-slice scheme under a resolution of ``D`` directions —
  binds only while ``2n <= D``;
* the ``2k+1``-slice scheme at the same resolution — works for every
  ``n`` (slice count independent of the swarm);
* the same scheme on an actual square lattice (8 realisable
  directions), the physical realisation of the resolution bound.
"""

from __future__ import annotations

from repro.apps.harness import SwarmHarness, ring_positions
from repro.discrete.lattice import SquareLattice
from repro.discrete.lattice_protocol import LatticeLogKProtocol
from repro.errors import ProtocolError
from repro.geometry.vec import Vec2
from repro.model.robot import Robot
from repro.model.simulator import Simulator
from repro.protocols.sync_granular import SyncGranularProtocol
from repro.protocols.sync_logk import SyncLogKProtocol

# Support running as a standalone script (python benchmarks/bench_x.py).
if __package__ in (None, ""):
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.support import print_table, table_cells

RESOLUTION = 8  # distinguishable directions (a square lattice's worth)
SIZES = (3, 4, 6, 9, 12)


def try_full_slicing(n: int) -> str:
    try:
        h = SwarmHarness(
            ring_positions(n, radius=10.0, jitter=0.06),
            protocol_factory=lambda: SyncGranularProtocol(max_directions=RESOLUTION),
            sigma=4.0,
        )
    except ProtocolError:
        return "unusable (2n > D)"
    h.simulator.protocol_of(0).send_bits(n - 1, [1, 0])
    h.run(8)
    got = [e.bit for e in h.simulator.protocol_of(n - 1).received]
    return f"ok, {h.simulator.time} steps" if got == [1, 0] else "garbled"


def try_logk(n: int) -> str:
    h = SwarmHarness(
        ring_positions(n, radius=10.0, jitter=0.06),
        protocol_factory=lambda: SyncLogKProtocol(k=3, max_directions=RESOLUTION),
        sigma=4.0,
    )
    h.simulator.protocol_of(0).send_bits(n - 1, [1, 0])

    def done(hh):
        return len(hh.simulator.protocol_of(n - 1).received) >= 2

    assert h.pump(done, max_steps=200)
    return f"ok, {h.simulator.time} steps"


def try_lattice(n: int) -> str:
    lattice = SquareLattice(pitch=1.0)
    side = 12.0
    positions = [
        Vec2(side * (i % 4), side * (i // 4)) for i in range(n)
    ]
    robots = [
        Robot(
            position=p,
            protocol=LatticeLogKProtocol(k=3, lattice=lattice),
            sigma=6.0,
            observable_id=i,
        )
        for i, p in enumerate(positions)
    ]
    sim = Simulator(robots, world=lattice)
    robots[0].protocol.send_bits(n - 1, [1, 0])
    for _ in range(200):
        sim.step()
        if len(robots[n - 1].protocol.received) >= 2:
            break
    got = [e.bit for e in robots[n - 1].protocol.received]
    return f"ok, {sim.time} steps" if got == [1, 0] else "garbled"


def sweep():
    return [(n, try_full_slicing(n), try_logk(n), try_lattice(n)) for n in SIZES]


def test_a1_shape(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for n, full, logk, lattice in rows:
        if 2 * n <= RESOLUTION:
            assert full.startswith("ok")
        else:
            assert full.startswith("unusable")
        assert logk.startswith("ok")
        assert lattice.startswith("ok")


def main() -> None:
    print_table(
        f"A1 / §5 — communication at a resolution of {RESOLUTION} directions",
        ["n", f"2n slices @D={RESOLUTION}", "2k+1 slices (k=3)", "square lattice (k=3)"],
        sweep(),
    )


# The campaign engine's import-based entry points (no exec).
cells, run_cell = table_cells(main=main)


if __name__ == "__main__":
    main()
