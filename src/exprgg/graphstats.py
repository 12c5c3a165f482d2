"""Degree statistics, y-grid edge counts and the edge list of the radius-y
graph on a point cloud, plus the ratios and edge-density gap that the
strong-law bounds use.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .model import DegreeSummary, PointCloud, _check_dim, _check_nonnegative, _pow_or_inf
from .spatial import (
    _ranges,
    _same_cell_runs,
    build_grid_index,
    iter_candidate_pairs,
    sorted_window_ends,
)
from .theory import pair_connect_prob


def _last_axis_windows(cloud: PointCloud, y: float):
    """(order, starts, ends): the vertices sorted on the last axis and each rank
    r's window [starts[r], ends[r]) within y on it, r included; ends ascends and
    |fl(a - b)| = |fl(b - a)|, so starts[r] counts the windows that end at or
    before r. At d = 1 ``order`` is None: no other axis needs gathering by
    rank, so the coordinate is sorted by value, about four times faster at
    n = 1e4 than an argsort and a gather. None when no sorted gap is within
    y: the graph is empty."""
    # Windows end only where the coordinate changes, so equal coordinates get
    # equal windows in any order: hence the default sort, not a slower stable one.
    if cloud.d == 1:
        order, xs = None, np.sort(cloud.points[:, 0])
    else:
        order = np.argsort(cloud.points[:, -1])
        xs = cloud.points[order, -1]
    ends = sorted_window_ends(xs, y)
    if ends is None:
        return None
    del xs  # n floats fewer while starts is counted
    starts = np.cumsum(np.bincount(ends, minlength=cloud.n + 1)[:cloud.n])
    return order, starts, ends


def _column_grid(cloud: PointCloud, y: float, order: np.ndarray, axes: int):
    """(index, cols) at d >= 2: a grid of columns, fit to radius y, on the
    first k = min(d - 1, max(1, floor(log_9 n))) axes of the points in
    last-axis rank order, and the first ``axes`` axes gathered in its column
    order.

    The pair walk visits (3^k + 1) / 2 cell offsets in Python, so 9^k <= n
    bounds it by about sqrt(n) steps; further axes would mostly split cells
    that already hold about one point. Every gathered axis is filtered by
    exact distance, indexed or not, so k changes the work and not the answer.
    """
    k = 1
    while k < cloud.d - 1 and 9 ** (k + 1) <= cloud.n:
        k += 1
    ranked = cloud.points[order, :axes]
    index = build_grid_index(ranked[:, :k], y)
    cols = ranked[index._members].T.copy()  # gathered once, in column order
    return index, cols


def _pair_distances(cols: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Each pair's largest |fl(a - b)| over the rows of ``cols``, as in the oracle."""
    dist = None
    for col in cols:  # row by row: a 2-d gather is about twice as slow
        diff = col[left]  # a fresh copy, so in-place work is safe
        diff -= col[right]
        np.abs(diff, out=diff)
        dist = diff if dist is None else np.maximum(dist, diff, out=dist)
    return dist


def _check_graph_size(n: int) -> None:
    if n < 2:
        raise ValueError(f"degree statistics need n >= 2 points, got {n}")


def degree_summary(cloud: PointCloud, y: float) -> DegreeSummary:
    """Degrees, edge count and degree extremes of the graph G_n(y) on ``cloud``.

    Two vertices are adjacent iff their l-inf distance is <= y (inclusive).
    When every gap between neighbours sorted on the last axis exceeds y the
    graph is empty. Otherwise each vertex gets its exact window of last-axis
    neighbours, which at d = 1 is its degree, at any y up to inf, with no
    pair enumerated. At d >= 2 a y that covers every axis's extent returns
    the complete graph before the column engine enumerates its pairs; else
    degrees are tallied from the candidate pairs inside the windows in the
    same or adjacent columns of a grid on the first of the other axes
    (``_column_grid``), in vectorized chunks; memory stays O(n) plus one
    bounded chunk. A column whose extent on every other axis is within y
    joins each pair of its members inside a window, so its own pairs are
    counted from their runs and only the others are enumerated. y = 0 takes
    the same paths as any other y.

    Degrees are counted in the order of the last-axis ranks and stay there:
    the edge count and the extremes need no vertex order. The summary maps
    them to vertex order only if its ``degrees`` is read, with a fresh
    argsort of the last axis: at d >= 2 that is the engine's own order, since
    argsort gives the same answer for the same input.
    """
    n = cloud.n
    _check_graph_size(n)
    _check_nonnegative(y, "y")
    key = cloud.points[:, -1]
    # One reduction per axis column: reducing the (n, d) array over axis 0
    # is about 15x slower at d = 2.
    if cloud.d > 1 and all(col.max() - col.min() <= y for col in cloud.points.T):
        # Complete graph: subtraction is monotone in each operand, so every
        # pair's computed distance is at most the computed span.
        return DegreeSummary._in_rank_order(np.full(n, n - 1, dtype=np.int64), key)
    windows = _last_axis_windows(cloud, y)
    if windows is None:
        return DegreeSummary._in_rank_order(np.zeros(n, dtype=np.int64), key)
    order, starts, ends = windows
    if cloud.d == 1:
        ends -= starts
        ends -= 1  # the window less the vertex itself
        # Equal coordinates get equal windows, so any sorting permutation
        # maps these ranks to their vertices.
        return DegreeSummary._in_rank_order(ends, key)
    # The windows hold the last axis to <= y. A cell whose extent is within
    # y on every other axis joins every same-cell pair inside a window:
    # subtraction is monotone, so no pair's computed distance exceeds the
    # computed extent. Its pairs are counted from their runs, not enumerated.
    index, cols = _column_grid(cloud, y, order, cloud.d - 1)
    firsts = index._starts[:-1]
    counted = np.ones(index.n_cells, dtype=bool)
    for col in cols:
        counted &= np.maximum.reduceat(col, firsts) - np.minimum.reduceat(col, firsts) <= y
    left, stop = _same_cell_runs(index, ends, counted)
    # A position gets +1 from every run it lies in: +1 where a run starts and
    # -1 where it stops, summed up to it...
    inside = np.bincount(left + 1, minlength=n + 1)
    inside -= np.bincount(stop, minlength=n + 1)
    tally = np.cumsum(inside[:n])
    stop -= left
    stop -= 1
    tally[left] += stop  # ...and the length of its own run
    del left, stop, inside
    # The other pairs are enumerated. A chunk's left positions ascend, so
    # they are tallied per run of equal ones; its right positions lie after
    # its first left, so their tally spans only from there.
    for left, right in iter_candidate_pairs(index, starts, ends, counted=counted):
        hit = _pair_distances(cols, left, right) <= y
        first = np.flatnonzero(np.concatenate(([True], left[1:] != left[:-1])))
        tally[left[first]] += np.add.reduceat(hit, first, dtype=np.int64)
        lo = int(left[0])
        # Weights, not right[hit]: a mask that keeps about half of a chunk
        # compresses several times slower than bincount weighs it.
        counts = np.bincount(right - lo, weights=hit).astype(np.int64)
        tally[lo:lo + len(counts)] += counts
    ranked = np.empty_like(tally)
    ranked[index._members] = tally  # members are the ranks in column order
    return DegreeSummary._in_rank_order(ranked, key)


def _edge_counts_multi(cloud: PointCloud, y_values: np.ndarray) -> np.ndarray:
    """Edge counts of G_n(y) for every y in an ascending grid, boundary-inclusive.

    At d = 1 the coordinates are sorted once and each y costs one
    sorted-window pass; no pair is enumerated. At d >= 2 one pass of the
    column engine at the largest y serves the whole grid: each pair's l-inf
    distance is binned at the first y at or above it, so a cumulative sum
    counts at each y exactly the pairs within it.
    """
    ys = np.asarray(y_values, dtype=np.float64)
    if cloud.d == 1:
        xs = np.sort(cloud.points[:, 0])
        starts = cloud.n * (cloud.n + 1) // 2  # the forward windows start at 1..n
        edges = np.zeros(len(ys), dtype=np.int64)
        for k, y in enumerate(ys):
            ends = sorted_window_ends(xs, y)
            if ends is not None:
                edges[k] = ends.sum() - starts
            del ends  # before the next search allocates its own: 0.4 MB of peak
        return edges
    windows = _last_axis_windows(cloud, ys[-1])
    if windows is None:
        return np.zeros(len(ys), dtype=np.int64)
    bins = np.zeros(len(ys) + 1, dtype=np.int64)
    order, starts, ends = windows
    index, cols = _column_grid(cloud, ys[-1], order, cloud.d)
    for left, right in iter_candidate_pairs(index, starts, ends):
        dist = _pair_distances(cols, left, right)
        bins += np.bincount(np.searchsorted(ys, dist, "left"), minlength=len(ys) + 1)
    return np.cumsum(bins[:-1])


def edge_list(cloud: PointCloud, y: float) -> np.ndarray:
    """The edges of G_n(y) on ``cloud`` in the form of ``brute_force_edges``:
    the rows (i, j), i < j, of an (m, 2) int64 array in row-major order, shape
    (0, 2) when there is none. At d >= 2 the column engine enumerates every
    candidate pair, same-column pairs included, and keeps those within y."""
    _check_nonnegative(y, "y")
    n = cloud.n
    windows = _last_axis_windows(cloud, y)
    if windows is None:
        return np.zeros((0, 2), dtype=np.int64)
    order, starts, ends = windows
    found = [(np.zeros(0, dtype=np.int64),) * 2]  # pairs of last-axis ranks
    if cloud.d == 1:
        # Rank r's forward window is [r + 1, ends[r]). Equal coordinates get
        # equal windows, so any sorting permutation maps ranks to vertices.
        after = np.arange(1, n + 1)
        lens = ends - after
        found.append((np.repeat(after - 1, lens), _ranges(after, lens)))
        order = np.argsort(cloud.points[:, 0])
    else:
        # The windows hold the last axis to y, as in the degree pass.
        index, cols = _column_grid(cloud, y, order, cloud.d - 1)
        for left, right in iter_candidate_pairs(index, starts, ends):
            hit = _pair_distances(cols, left, right) <= y
            found.append((index._members[left[hit]], index._members[right[hit]]))
    i, j = (order[np.concatenate(side)] for side in zip(*found))
    codes = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    return np.column_stack(np.divmod(codes, n))


def edge_density_gap(summary: DegreeSummary, y: float, lam: float, d: int) -> float:
    """| epsilon_n / C(n,2) - p(y) |, the edge-density deviation from its mean."""
    n = summary.n
    _check_graph_size(n)
    density = summary.epsilon_n / (n * (n - 1) / 2)
    return abs(density - pair_connect_prob(y, lam, d))


def degree_ratios(summary: DegreeSummary, y: float, d: int) -> Tuple[float, float]:
    """(min_degree, max_degree) scaled by n * y^d, the ratios the strong-law
    bounds constrain."""
    _check_graph_size(summary.n)
    _check_nonnegative(y, "y")
    _check_dim(d)
    if y == 0.0:
        raise ValueError("degree ratios are undefined at y = 0")
    denom = summary.n * _pow_or_inf(y, d)
    if not math.isfinite(denom):
        raise ValueError(f"n * y^d overflows for y={y}, d={d}")
    return summary.min_degree / denom, summary.max_degree / denom
