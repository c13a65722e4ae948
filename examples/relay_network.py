"""A relay network of robots with limited visibility (§5 open problem).

Five robots form a line; each only sees its immediate neighbours
(visibility radius 12, spacing 10).  Robot 0 sends a message to robot
4: the flooding router relays it hop by hop, every hop being an
ordinary movement-signal transmission between mutually visible robots.

Run::

    python examples/relay_network.py
"""

from __future__ import annotations

from repro import (
    FloodRouter,
    LocalGranularProtocol,
    MovementChannel,
    Robot,
    Simulator,
    Vec2,
    visibility_is_connected,
)
from repro.visibility.graph import shortest_route

SPACING = 10.0
RADIUS = 12.0
COUNT = 5


def main() -> None:
    positions = [Vec2(SPACING * i, 0.0) for i in range(COUNT)]
    print(f"{COUNT} robots in a line, spacing {SPACING}, visibility {RADIUS}")
    print(f"visibility graph connected: {visibility_is_connected(positions, RADIUS)}")
    print(f"fewest-hops route 0 -> 4: {shortest_route(positions, RADIUS, 0, 4)}")

    robots = [
        Robot(
            position=p,
            protocol=LocalGranularProtocol(),
            sigma=4.0,
            observable_id=i,
        )
        for i, p in enumerate(positions)
    ]
    simulator = Simulator(robots, visibility_radius=RADIUS)
    channels = [MovementChannel(r.protocol) for r in robots]
    routers = [FloodRouter(c) for c in channels]

    message = "relayed across the dark"
    copies = routers[0].send(4, message)
    print(f"\nrobot 0 -> robot 4: {message!r} "
          f"(destination invisible; {copies} initial copies flooded)")

    for _ in range(6000):
        simulator.step()
        for router in routers:
            router.pump(simulator.time)
        if routers[4].inbox:
            break

    delivered = routers[4].inbox[0]
    print(f"robot 4 received {delivered.payload.decode()!r} "
          f"from robot {delivered.origin} at instant {delivered.delivered_at}")
    hops = 16 - delivered.hops_remaining + 1
    print(f"hops taken: {hops}")
    print("relay work per robot:", [router.forwarded for router in routers])


if __name__ == "__main__":
    main()
