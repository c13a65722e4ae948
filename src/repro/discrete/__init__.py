"""Discrete worlds — the Section 5 finite-movement discussion.

    "One can assume infinite decimal precision with the 'reasonable'
    assumption of finite movements [...] or even step over a grid.
    This would be the case by assuming that the plane is either a grid
    or a hexagonal pavement.  [...] robots could be prone to make
    computation errors due to round off, and, therefore, face a
    situation where robots are not able to identify all of possible 2n
    directions [...] and are limited to recognize only a certain
    number of directions."

This subpackage realises that world:

* :class:`~repro.discrete.lattice.SquareLattice` /
  :class:`~repro.discrete.lattice.HexLattice` — the grid and the
  hexagonal pavement, with their 8 / 6 realisable movement directions;
* ``Simulator(robots, world=lattice)`` (and the same keyword on
  :class:`~repro.events.engine.EventSimulator`) — either engine with
  lattice starts enforced and destinations snapped onto the lattice;
* :class:`~repro.discrete.lattice_protocol.LatticeLogKProtocol` — the
  Section 5 few-slice protocol with its diameters aligned on lattice
  directions and excursion lengths that land exactly on lattice
  points; the demonstration that the log_k addressing is precisely
  what makes communication possible when only a handful of directions
  are distinguishable (the full ``2n``-slice scheme refuses to bind —
  see ``max_directions`` on
  :class:`repro.protocols.sync_granular.SyncGranularProtocol`).
"""

from repro.discrete.lattice import HexLattice, Lattice, SquareLattice
from repro.discrete.lattice_protocol import LatticeLogKProtocol

__all__ = [
    "Lattice",
    "SquareLattice",
    "HexLattice",
    "LatticeLogKProtocol",
]
