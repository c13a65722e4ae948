"""Batched pairwise-distance / nearest-neighbour passes.

This replaces the per-robot ``SpatialHashGrid`` queries of the scalar
perf layer with whole-swarm array passes:

* small swarms (``n <= brute_limit``) use a chunked brute-force
  distance matrix — simple, exact, cache-friendly;
* large swarms use grid binning: points are bucketed into square
  cells of roughly one point each, and candidates are gathered one
  Chebyshev ring of cells at a time, with one padded fancy-index per
  cell offset.  Every point searches ring 0 and ring 1 (its 3x3
  window); the points that window cannot certify search ring 2 (the
  5x5 block); whatever is still uncertified falls back to chunked
  brute force for just that residue.

The ring bounds: a point inside cell ``(i, j)`` is at distance
>= ``r * cell`` from every point outside the ``(2r+1) x (2r+1)`` block
of cells around it.  So a best candidate at distance strictly below
``cell`` (after the 3x3 window) or ``2 * cell`` (after the 5x5 block)
is the true nearest, and no point outside the block can tie it.  A
point next to an overfull cell (more than ``_CELL_CAP`` members,
whose candidates are skipped) is never certified.

The tie rule: among equidistant neighbours the lowest index wins, as
in ``_brute``'s ``argmin``.  Within one cell the candidates come in
index order, and across cells an equal distance replaces the best only
with a lower index, so both paths return the same index arrays as well
as the same distances.

``exact_min_hypot`` exists for bit-parity with the scalar engine:
``numpy.hypot`` and ``math.hypot`` may differ in the last ulp, so the
batch kernel computes candidate distances with numpy, then re-evaluates
the near-minimal candidates with ``math.hypot`` — the returned minimum
is bit-identical to ``min(math.hypot(...) for ...)`` over all pairs.
"""

from __future__ import annotations

import math

from repro.batch import require_numpy

__all__ = ["nearest_neighbor_sq", "nearest_neighbor_radii", "exact_min_hypot"]

#: swarms up to this size use the chunked distance matrix
BRUTE_LIMIT = 4096

#: relative slack when collecting near-minimal candidates for exact
#: re-evaluation; vastly wider than the <= 1 ulp numpy/math divergence
_EXACT_SLACK = 1e-12


def nearest_neighbor_sq(px, py, brute_limit: int = BRUTE_LIMIT):
    """Per-point squared distance to the closest *other* point.

    Args:
        px, py: float64 coordinate columns of ``n >= 2`` points.
            Duplicate points yield a squared distance of 0.

    Returns:
        ``(dist_sq, neighbor)`` — float64 and int64 arrays of length
        ``n``; ``neighbor[i]`` is the index of a closest other point.
    """
    np = require_numpy()
    n = len(px)
    if n < 2:
        raise ValueError("nearest_neighbor_sq needs at least two points")
    if n <= brute_limit:
        return _brute(np, px, py, np.arange(n), px, py)
    return _grid(np, px, py)


def nearest_neighbor_radii(px, py):
    """Half the nearest-neighbour distance of every point.

    The world-frame granular radii of the whole swarm in one pass
    (the batch analogue of :func:`repro.geometry.granular.
    granular_radius` looped over all robots).  Exact to float sqrt
    rounding — callers that need bit-parity with the scalar
    ``math.hypot`` chain use :func:`exact_min_hypot` on the winning
    candidates instead.
    """
    np = require_numpy()
    dist_sq, _ = nearest_neighbor_sq(px, py)
    return np.sqrt(dist_sq) / 2.0


def exact_min_hypot(dx, dy):
    """``min(math.hypot(dx[i], dy[i]))`` — bit-identical to the scalar min.

    Finds the minimum with vectorized ``np.hypot`` (within 1 ulp of
    the true per-element values), then re-evaluates every candidate
    within a tiny relative slack of that minimum with ``math.hypot``.
    The true scalar minimum is necessarily among those candidates.
    """
    np = require_numpy()
    if len(dx) == 0:
        raise ValueError("exact_min_hypot needs at least one element")
    approx = np.hypot(dx, dy)
    lo = float(approx.min())
    if lo == 0.0:
        return 0.0
    near = np.nonzero(approx <= lo * (1.0 + _EXACT_SLACK))[0]
    return min(math.hypot(float(dx[k]), float(dy[k])) for k in near)


# ----------------------------------------------------------------------
# Chunked brute force
# ----------------------------------------------------------------------

def _brute(np, qx, qy, qidx, px, py, budget: int = 4_000_000):
    """Nearest other point of each query against the full point set.

    ``qidx`` gives the global index of each query point so self-matches
    can be masked.  ``budget`` bounds the size of the per-chunk distance
    matrix (entries, ~8 bytes each).
    """
    n = len(px)
    m = len(qx)
    best = np.empty(m, dtype=np.float64)
    bestj = np.empty(m, dtype=np.int64)
    rows = max(1, budget // max(n, 1))
    for start in range(0, m, rows):
        end = min(start + rows, m)
        dx = qx[start:end, None] - px[None, :]
        dy = qy[start:end, None] - py[None, :]
        d2 = dx * dx + dy * dy
        d2[np.arange(end - start), qidx[start:end]] = np.inf
        best[start:end] = d2.min(axis=1)
        bestj[start:end] = d2.argmin(axis=1)
    return best, bestj


# ----------------------------------------------------------------------
# Grid binning
# ----------------------------------------------------------------------

#: cap on candidates gathered per neighbour cell; denser cells push
#: their *queriers* onto the brute-force residue instead of widening
#: the padded gather
_CELL_CAP = 64

#: relative margin under the ring bound: a distance within rounding
#: of ``r * cell`` is not certified, whatever the float error of the
#: cell assignment and of the squared distances
_RING_SLACK = 1e-9


def _ring(r: int):
    """The cell offsets at Chebyshev distance exactly ``r``."""
    return [
        (ox, oy)
        for ox in range(-r, r + 1)
        for oy in range(-r, r + 1)
        if max(abs(ox), abs(oy)) == r
    ]


class _Cells:
    """Points bucketed into a ``side x side`` grid of square cells.

    ``order`` lists the point indices sorted by cell key (stable, so
    each cell's members are in index order); cell ``k`` holds
    ``order[first[k]:first[k] + count[k]]``.
    """

    def __init__(self, np, px, py, min_x, min_y, side, cell):
        self.np = np
        self.px = px
        self.py = py
        self.side = side
        self.ix = np.clip((px - min_x) // cell, 0, side - 1).astype(np.int64)
        self.iy = np.clip((py - min_y) // cell, 0, side - 1).astype(np.int64)
        key = self.ix * side + self.iy
        self.order = np.argsort(key, kind="stable")
        self.count = np.bincount(key, minlength=side * side)
        self.first = np.cumsum(self.count) - self.count

    def search(self, q, offsets, best, bestj):
        """Fold the cells at ``offsets`` around each querier into its best.

        ``q`` holds the queriers' point indices; ``best`` and ``bestj``
        (squared distance and index of the best candidate so far) are
        indexed like ``q`` and updated in place under the tie rule.
        Returns the mask of queriers that met an overfull cell, whose
        candidates were skipped.  ``q`` must not be empty.
        """
        np, px, py, side = self.np, self.px, self.py, self.side
        qx = px[q]
        qy = py[q]
        cx = self.ix[q]
        cy = self.iy[q]
        rows = np.arange(len(q))
        overfull = np.zeros(len(q), dtype=bool)
        for ox, oy in offsets:
            nx = cx + ox
            ny = cy + oy
            valid = (nx >= 0) & (nx < side) & (ny >= 0) & (ny < side)
            nkey = np.where(valid, nx * side + ny, 0)
            count = np.where(valid, self.count[nkey], 0)
            over = count > _CELL_CAP
            overfull |= over
            count[over] = 0
            cap = int(count.max())
            if cap == 0:
                continue
            lanes = np.arange(cap, dtype=np.int64)
            take = lanes[None, :] < count[:, None]
            slots = np.where(take, self.first[nkey][:, None] + lanes[None, :], 0)
            cand = self.order[slots]
            cdx = px[cand] - qx[:, None]
            cdy = py[cand] - qy[:, None]
            d2 = cdx * cdx + cdy * cdy
            d2[~take] = np.inf
            d2[cand == q[:, None]] = np.inf
            lane = d2.argmin(axis=1)
            val = d2[rows, lane]
            j = cand[rows, lane]
            upd = (val < best) | ((val == best) & (j < bestj))
            best[upd] = val[upd]
            bestj[upd] = j[upd]
        return overfull


def _grid(np, px, py):
    n = len(px)
    min_x = float(px.min())
    min_y = float(py.min())
    span = max(float(px.max()) - min_x, float(py.max()) - min_y)
    if span <= 0.0:
        # All points coincide: everyone's nearest neighbour is at 0,
        # and the lowest other index is 0 (1 for point 0 itself).
        nbr = np.zeros(n, dtype=np.int64)
        nbr[0] = 1
        return np.zeros(n, dtype=np.float64), nbr
    side = max(1, int(math.sqrt(n)))
    cell = span / side
    cells = _Cells(np, px, py, min_x, min_y, side, cell)

    # Rings 0 and 1 (the 3x3 window) for everyone.
    everyone = np.arange(n, dtype=np.int64)
    best = np.full(n, np.inf, dtype=np.float64)
    bestj = np.full(n, -1, dtype=np.int64)
    overfull = cells.search(everyone, _ring(0) + _ring(1), best, bestj)
    bound = cell * cell * (1.0 - _RING_SLACK)
    residue = [np.nonzero(overfull)[0]]

    # Ring 2 (the 5x5 block) for what the window left uncertified.
    q = np.nonzero(~overfull & ~(best < bound))[0]
    if len(q):
        qbest = best[q]
        qbestj = bestj[q]
        over = cells.search(q, _ring(2), qbest, qbestj)
        best[q] = qbest
        bestj[q] = qbestj
        residue.append(q[over | ~(qbest < 4.0 * bound)])

    # Brute force for the rest: sparse outskirts and overfull clusters.
    ridx = np.concatenate(residue)
    if len(ridx):
        best[ridx], bestj[ridx] = _brute(np, px[ridx], py[ridx], ridx, px, py)
    return best, bestj
