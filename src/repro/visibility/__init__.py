"""Limited visibility — the Section 5 open problem, constructively.

    "Another issue would be the visibility capability of the robots.
    For instance, the following question could be investigated: 'Can
    one-to-one communication be achieved by a team of robots with
    limited visibility?'"

This subpackage answers the question positively for *connected*
visibility graphs of identified robots with sense of direction:

* either scalar engine's ``visibility_radius`` keyword
  (:class:`~repro.model.simulator.Simulator`,
  :class:`~repro.events.engine.EventSimulator`) restricts every
  observation (and the bound ``P(t_0)`` knowledge) to robots within a
  visibility radius, evaluated on the initial configuration — granular
  movements stay within bands much smaller than any sensible radius,
  so a static graph loses nothing and keeps "who can decode whom"
  well-defined;
* :class:`~repro.visibility.protocol.LocalGranularProtocol` is a
  granular movement protocol that needs only local information — its
  granular radius is derived from *visible* neighbours plus the
  visibility bound itself, which keeps it collision-safe even against
  invisible robots;
* :class:`~repro.visibility.flooding.FloodRouter` turns one-hop
  movement messages into end-to-end delivery by constrained flooding
  with duplicate suppression — communication reaches any robot of a
  connected visibility graph.
"""

from repro.visibility.graph import (
    shortest_route,
    visibility_graph,
    visibility_is_connected,
    visibility_neighbors,
)
from repro.visibility.protocol import LocalGranularProtocol
from repro.visibility.flooding import FloodRouter, RoutedMessage

__all__ = [
    "visibility_graph",
    "visibility_neighbors",
    "visibility_is_connected",
    "shortest_route",
    "LocalGranularProtocol",
    "FloodRouter",
    "RoutedMessage",
]
