"""The grid nearest-neighbour pass against brute force.

``nearest_neighbor_sq(..., brute_limit=1)`` forces the grid path on
any input; it must return the same distances (bit for bit) and the
same neighbour indices as ``_brute`` over all points, including the
tie rule (lowest index wins).  The residue guard pins how much of a
jittered grid (the ``swarm_n100k`` benchmark recipe) falls through to
brute force: none of it.
"""

from __future__ import annotations

import math
import random

import pytest

import repro.batch
from tests.batch.conftest import requires_numpy

pytestmark = requires_numpy


def _np():
    return repro.batch.require_numpy()


def _columns(points):
    np = _np()
    px = np.array([p[0] for p in points], dtype=np.float64)
    py = np.array([p[1] for p in points], dtype=np.float64)
    return px, py


def _jittered_grid(n, seed=1):
    """``n`` points on a 10-unit grid, jittered by up to 2 units."""
    rng = random.Random(seed)
    side = int(math.ceil(math.sqrt(n)))
    points = []
    for i in range(n):
        row, col = divmod(i, side)
        points.append(
            (col * 10.0 + rng.uniform(-2.0, 2.0), row * 10.0 + rng.uniform(-2.0, 2.0))
        )
    return points


def _lattice(cols, rows):
    return [(c * 10.0, r * 10.0) for r in range(rows) for c in range(cols)]


def _cluster():
    from repro.batch.neighbors import _CELL_CAP

    rng = random.Random(5)
    spread = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(2000)]
    dense = [(500 + rng.uniform(0, 0.5), 500 + rng.uniform(0, 0.5))
             for _ in range(_CELL_CAP + 36)]
    points = spread + dense
    rng.shuffle(points)
    return points


def _collinear(slope):
    rng = random.Random(9)
    xs = sorted(rng.uniform(0, 5000) for _ in range(1500))
    return [(x, slope * x) for x in xs[::2]] + [(x, slope * x) for x in xs[1::2]]


def _partial_duplicates():
    rng = random.Random(11)
    points = [(rng.uniform(0, 300), rng.uniform(0, 300)) for _ in range(1200)]
    points += [points[rng.randrange(len(points))] for _ in range(300)]
    rng.shuffle(points)
    return points


CASES = {
    # 10-unit spacing just above the cell size: four-way ties that
    # only the second ring can certify.
    "lattice": lambda: _lattice(40, 40),
    # A wide lattice has cells wider than the spacing: four-way ties
    # across cells of the 3x3 window.
    "wide_lattice": lambda: _lattice(60, 20),
    "jittered_grid": lambda: _jittered_grid(5_000),
    "overfull_cluster": _cluster,
    "collinear_horizontal": lambda: _collinear(0.0),
    "collinear_diagonal": lambda: _collinear(1.0),
    "partial_duplicates": _partial_duplicates,
    "coincident": lambda: [(3.25, -7.5)] * 50,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_grid_matches_brute(case):
    from repro.batch.neighbors import _brute, nearest_neighbor_sq

    np = _np()
    px, py = _columns(CASES[case]())
    n = len(px)
    dist_sq, neighbor = nearest_neighbor_sq(px, py, brute_limit=1)
    expected_sq, expected = _brute(np, px, py, np.arange(n), px, py)
    assert dist_sq.tobytes() == expected_sq.tobytes()
    assert neighbor.tolist() == expected.tolist()


def _count_brute_rows(monkeypatch):
    from repro.batch import neighbors

    rows = []
    brute = neighbors._brute

    def counting(np, qx, *args, **kwargs):
        rows.append(len(qx))
        return brute(np, qx, *args, **kwargs)

    monkeypatch.setattr(neighbors, "_brute", counting)
    return rows


@pytest.mark.parametrize("points", [
    pytest.param(lambda: _jittered_grid(20_000), id="jittered_grid_20k"),
    pytest.param(CASES["lattice"], id="lattice"),
])
def test_no_residue_on_grids(monkeypatch, points):
    from repro.batch.neighbors import nearest_neighbor_sq

    rows = _count_brute_rows(monkeypatch)
    nearest_neighbor_sq(*_columns(points()), brute_limit=1)
    assert sum(rows) == 0


def test_overfull_cell_takes_brute_path(monkeypatch):
    from repro.batch.neighbors import _CELL_CAP, nearest_neighbor_sq

    rows = _count_brute_rows(monkeypatch)
    nearest_neighbor_sq(*_columns(_cluster()), brute_limit=1)
    assert sum(rows) > _CELL_CAP
