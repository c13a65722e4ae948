"""Ablation A5 — sensing noise vs decoding guard bands (§5 round-off).

The continuous counterpart of the §5 round-off discussion: every
observed position carries Gaussian error.  Two decoder configurations:

* **exact** — the paper's model (infinitesimal off-home threshold):
  any noise at all floods the decoder with phantom off-home sightings;
* **robust** — off-home threshold at 25% of the granular radius plus
  skip-on-ambiguity: tolerates noise up to a few percent of the
  excursion length, then degrades.

Shape claims: exact decoding has a cliff at zero; robust decoding is
perfect through sigma = 0.1 (about 4% of the excursion) and dead by
sigma = 1.2.
"""

from __future__ import annotations

from repro.apps.harness import ring_positions
from repro.errors import ReproError
from repro.model.looks import SensingNoise
from repro.model.robot import Robot
from repro.model.simulator import Simulator
from repro.protocols.sync_granular import SyncGranularProtocol

# Support running as a standalone script (python benchmarks/bench_x.py).
if __package__ in (None, ""):
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.support import print_table, scatter, table_cells

NOISE_LEVELS = (0.0, 0.02, 0.1, 0.3, 1.2)
SEEDS = range(20)
BITS = [1, 0, 1, 0, 1]


def scattered_delivery_rate(n: int, noise: float, seeds=range(5)) -> float:
    """Robust-decode delivery over a large scattered swarm.

    Placement uses the grid-accelerated ``scatter`` (the old O(n²)
    rejection sampler made these swarm sizes impractical to even set
    up), with a separation wide enough that every granular comfortably
    exceeds the decoders' noise guard bands.
    """
    ok = 0
    for seed in seeds:
        positions = scatter(n, seed=seed, min_distance=6.0, extent=40.0)
        robots = [
            Robot(
                position=p,
                protocol=SyncGranularProtocol(
                    off_home_fraction=0.25, tolerate_ambiguity=True
                ),
                sigma=4.0,
                observable_id=i,
            )
            for i, p in enumerate(positions)
        ]
        sim = Simulator(robots, look=SensingNoise(noise, seed=seed))
        robots[0].protocol.send_bits(2, BITS)
        try:
            sim.run(2 * len(BITS) + 4)
            if [e.bit for e in robots[2].protocol.received] == BITS:
                ok += 1
        except ReproError:
            pass
    return ok / len(list(seeds))


def sweep_scattered():
    return [
        (n, scattered_delivery_rate(n, 0.0), scattered_delivery_rate(n, 0.05))
        for n in (8, 24)
    ]


def delivery_rate(noise: float, robust: bool) -> float:
    ok = 0
    for seed in SEEDS:
        positions = ring_positions(5, radius=10.0, jitter=0.06)
        kwargs = (
            {"off_home_fraction": 0.25, "tolerate_ambiguity": True} if robust else {}
        )
        robots = [
            Robot(
                position=p,
                protocol=SyncGranularProtocol(**kwargs),
                sigma=4.0,
                observable_id=i,
            )
            for i, p in enumerate(positions)
        ]
        sim = Simulator(robots, look=SensingNoise(noise, seed=seed))
        robots[0].protocol.send_bits(2, BITS)
        try:
            sim.run(2 * len(BITS) + 4)
            if [e.bit for e in robots[2].protocol.received] == BITS:
                ok += 1
        except ReproError:
            pass  # decoding blew up: a failed delivery
    return ok / len(list(SEEDS))


def async_delivery_rate(noise: float, robust: bool) -> float:
    """Noise tolerance of the asynchronous pair protocol."""
    from repro.geometry.vec import Vec2
    from repro.model.scheduler import FairAsynchronousScheduler
    from repro.protocols.async_two import AsyncTwoProtocol

    ok = 0
    for seed in SEEDS:
        kwargs = (
            {"on_line_fraction": 0.05, "change_fraction": 0.02} if robust else {}
        )
        robots = [
            Robot(position=p, protocol=AsyncTwoProtocol(**kwargs), sigma=10.0)
            for p in (Vec2(0.0, 0.0), Vec2(10.0, 0.0))
        ]
        sim = Simulator(
            robots,
            FairAsynchronousScheduler(fairness_bound=4, seed=seed),
            look=SensingNoise(noise, seed=seed),
        )
        robots[0].protocol.send_bits(1, BITS)
        try:
            for _ in range(20_000):
                sim.step()
                received = [e.bit for e in robots[1].protocol.received]
                # The log only grows: once it stops being a prefix of
                # BITS, this delivery has already failed.
                if len(received) >= len(BITS) or received != BITS[: len(received)]:
                    break
            if received == BITS:
                ok += 1
        except ReproError:
            pass
    return ok / len(list(SEEDS))


def sweep():
    return [
        (noise, delivery_rate(noise, robust=False), delivery_rate(noise, robust=True))
        for noise in NOISE_LEVELS
    ]


def sweep_async():
    return [
        (noise, async_delivery_rate(noise, False), async_delivery_rate(noise, True))
        for noise in (0.0, 0.02, 0.1)
    ]


def test_a5_shape(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    by_noise = {noise: (exact, robust) for noise, exact, robust in rows}
    assert by_noise[0.0] == (1.0, 1.0)
    # Exact decoding: a cliff at any noise.
    assert by_noise[0.02][0] == 0.0
    # Robust decoding: perfect through moderate noise, dead at extreme.
    assert by_noise[0.1][1] == 1.0
    assert by_noise[1.2][1] <= 0.1


def test_a5_async_shape(benchmark):
    rows = benchmark.pedantic(sweep_async, rounds=1, iterations=1)
    by_noise = {noise: (exact, robust) for noise, exact, robust in rows}
    assert by_noise[0.0][0] == 1.0
    assert by_noise[0.02][0] == 0.0  # exact acks drown in jitter
    assert by_noise[0.02][1] == 1.0  # debounced acks + on-line margin hold


def main() -> None:
    print_table(
        "A5 / §5 round-off — delivery rate vs sensing noise (20 seeds, 5 bits)",
        ["noise sigma", "exact decode (paper)", "robust decode (0.25R + skip)"],
        sweep(),
    )
    print_table(
        "A5 / §5 round-off — asynchronous pair (debounced acks + 0.05D margin)",
        ["noise sigma", "exact (paper)", "robust"],
        sweep_async(),
    )
    print_table(
        "A5 — robust decode on scattered swarms (grid-placed, 5 seeds)",
        ["n", "noise 0.0", "noise 0.05"],
        sweep_scattered(),
    )


# The campaign engine's import-based entry points (no exec).
cells, run_cell = table_cells(main=main)


if __name__ == "__main__":
    main()
