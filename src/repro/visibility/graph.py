"""Visibility graphs over robot configurations.

Robots ``i`` and ``j`` are mutually visible when their squared distance
is at most the squared visibility radius — the same comparison the
engines' ``visibility_radius`` makes, so the planner and a run agree
even exactly at the radius.  The resulting graph decides which pairs
can exchange movement signals directly and which need relaying.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import networkx as nx

from repro.errors import ModelError
from repro.geometry.vec import Vec2

__all__ = [
    "visibility_graph",
    "visibility_neighbors",
    "visibility_is_connected",
    "shortest_route",
]


def visibility_graph(positions: Sequence[Vec2], radius: float) -> nx.Graph:
    """The undirected visibility graph of a configuration.

    Nodes are tracking indices; an edge joins every pair at distance
    at most ``radius``.
    """
    if radius <= 0.0:
        raise ModelError(f"visibility radius must be positive, got {radius}")
    graph = nx.Graph()
    graph.add_nodes_from(range(len(positions)))
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if positions[i].distance_sq_to(positions[j]) <= radius * radius:
                graph.add_edge(i, j)
    return graph


def visibility_neighbors(positions: Sequence[Vec2], radius: float) -> Dict[int, Set[int]]:
    """Per-robot neighbour sets under the visibility radius."""
    graph = visibility_graph(positions, radius)
    return {i: set(graph.neighbors(i)) for i in graph.nodes}


def visibility_is_connected(positions: Sequence[Vec2], radius: float) -> bool:
    """Whether every robot can (transitively) reach every other.

    Connectivity is the natural necessary condition for one-to-one
    communication under limited visibility: a robot in an unreachable
    component can never learn anything about the others.
    """
    graph = visibility_graph(positions, radius)
    if graph.number_of_nodes() == 0:
        raise ModelError("connectivity of an empty swarm is undefined")
    return nx.is_connected(graph)


def shortest_route(
    positions: Sequence[Vec2], radius: float, src: int, dst: int
) -> Optional[List[int]]:
    """A fewest-hops relay route from ``src`` to ``dst``, or None.

    Used by analysis and tests; the runtime router floods instead of
    source-routing (robots only know their own neighbourhoods).
    """
    graph = visibility_graph(positions, radius)
    try:
        return nx.shortest_path(graph, src, dst)
    except nx.NetworkXNoPath:
        return None
