"""Degree statistics, the edge count, y-grid edge counts and the edge list
of the radius-y graph on a point cloud, plus the ratios and edge-density gap
that the strong-law bounds use.

At d >= 2 one column engine (``_column_walk``) serves two reductions: the
degree pass tallies its counted runs and hit masks per vertex, and the edge
count, which is all that the edge-density gap reads, sums them. The y-grid
and the edge list run the same windows, grid and pair enumerator.
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
    starts = np.bincount(ends, minlength=cloud.n + 1)[:cloud.n]
    np.cumsum(starts, out=starts)  # in place: n ints fewer at the peak
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


def _column_walk(cloud: PointCloud, y: float):
    """The column engine at d >= 2, one setup for every reduction of it: the
    degree pass tallies what it gives and the edge count sums it.

    An int when every vertex has one degree: n - 1 when y covers every axis's
    extent, before any pair is enumerated, and 0 when every gap between
    neighbours sorted on the last axis exceeds y. Else ``(index, left, stop,
    chunks)``: the grid of ``_column_grid``; the counted runs, each member
    position ``left`` of a column whose extent on every other axis is within
    y and one past the last later member of its column inside its window,
    ``stop``, so that it is joined to every position of [left + 1, stop);
    and a generator of each chunk of the other candidate pairs as (left,
    right, hit), ``hit`` marking the pairs within y. Positions index
    ``index._members``, the last-axis ranks in column order.
    """
    # One reduction per axis column: reducing the (n, d) array over axis 0
    # is about 15x slower at d = 2.
    if all(col.max() - col.min() <= y for col in cloud.points.T):
        # Complete graph: subtraction is monotone in each operand, so every
        # pair's computed distance is at most the computed span.
        return cloud.n - 1
    windows = _last_axis_windows(cloud, y)
    if windows is None:
        return 0
    order, starts, ends = windows
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
    chunks = ((i, j, _pair_distances(cols, i, j) <= y)
              for i, j in iter_candidate_pairs(index, starts, ends, counted=counted))
    return index, left, stop, chunks


def degree_summary(cloud: PointCloud, y: float) -> DegreeSummary:
    """Degrees, edge count and degree extremes of the graph G_n(y) on ``cloud``.

    Two vertices are adjacent iff their l-inf distance is <= y (inclusive).
    When every gap between neighbours sorted on the last axis exceeds y the
    graph is empty. Otherwise each vertex gets its exact window of last-axis
    neighbours, which at d = 1 is its degree, at any y up to inf, with no
    pair enumerated. At d >= 2 the degrees are tallied from the column
    engine (``_column_walk``): a y that covers every axis's extent returns
    the complete graph before any pair is enumerated; else the candidate
    pairs inside the windows in the same or adjacent columns of a grid on the
    first of the other axes (``_column_grid``) are enumerated in vectorized
    chunks; memory stays O(n) plus one bounded chunk. A column whose extent
    on every other axis is within y joins each pair of its members inside a
    window, so its own pairs are counted from their runs and only the others
    are enumerated. y = 0 takes the same paths as any other y.

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
    if cloud.d == 1:
        windows = _last_axis_windows(cloud, y)
        if windows is None:
            return DegreeSummary._in_rank_order(np.zeros(n, dtype=np.int64), key)
        _, starts, ends = windows
        ends -= starts
        ends -= 1  # the window less the vertex itself
        # Equal coordinates get equal windows, so any sorting permutation
        # maps these ranks to their vertices.
        return DegreeSummary._in_rank_order(ends, key)
    walk = _column_walk(cloud, y)
    if isinstance(walk, int):
        return DegreeSummary._in_rank_order(np.full(n, walk, dtype=np.int64), key)
    index, left, stop, chunks = walk
    del walk  # the runs go before the chunks are enumerated
    # A position gets +1 from every run it lies in: +1 where a run starts and
    # -1 where it stops, summed up to it...
    inside = np.bincount(left + 1, minlength=n + 1)
    inside -= np.bincount(stop, minlength=n + 1)
    tally = np.cumsum(inside[:n])
    stop -= left
    stop -= 1
    tally[left] += stop  # ...and the length of its own run
    del left, stop, inside
    # A chunk's left positions ascend, so they are tallied per run of equal
    # ones; its right positions lie after its first left, so their tally
    # spans only from there.
    for left, right, hit in chunks:
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


def _sorted_edge_count(xs: np.ndarray, y: float) -> int:
    """The edges within y among the ascending coordinates ``xs``: the forward
    windows [i + 1, ends[i]) summed, whose starts sum to n(n + 1)/2."""
    ends = sorted_window_ends(xs, y)
    n = len(xs)
    return 0 if ends is None else int(ends.sum()) - n * (n + 1) // 2


def _edge_count(cloud: PointCloud, y: float) -> int:
    """epsilon_n of G_n(y) on ``cloud``, the edge count of ``degree_summary``
    without its degrees. At d = 1 it is summed from the sorted windows,
    which need no window starts; at d >= 2 from the column engine's counted
    runs and hit masks, with no tally."""
    n = cloud.n
    _check_graph_size(n)
    _check_nonnegative(y, "y")
    if cloud.d == 1:
        return _sorted_edge_count(np.sort(cloud.points[:, 0]), y)
    walk = _column_walk(cloud, y)
    if isinstance(walk, int):
        return n * walk // 2
    _, left, stop, chunks = walk
    edges = int(stop.sum()) - int(left.sum()) - len(left)  # the runs' lengths
    del walk, left, stop
    for _, _, hit in chunks:
        edges += int(np.count_nonzero(hit))
    return edges


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
        return np.array([_sorted_edge_count(xs, y) for y in ys], dtype=np.int64)
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
    (0, 2) when there is none. At d = 1 each rank's forward window expands
    to its edges; at d >= 2 the column engine enumerates every candidate
    pair, same-column pairs included, and keeps those within y."""
    _check_nonnegative(y, "y")
    n = cloud.n
    if cloud.d == 1:
        # Equal coordinates get equal windows, so any sorting permutation
        # maps the ranks to their vertices; no window starts are needed.
        order = np.argsort(cloud.points[:, 0])
        ends = sorted_window_ends(cloud.points[order, 0], y)
        if ends is None:
            return np.zeros((0, 2), dtype=np.int64)
        after = np.arange(1, n + 1)  # rank r's forward window is [r + 1, ends[r])
        lens = ends - after
        i, j = np.repeat(after - 1, lens), _ranges(after, lens)
    else:
        windows = _last_axis_windows(cloud, y)
        if windows is None:
            return np.zeros((0, 2), dtype=np.int64)
        order, starts, ends = windows
        # The windows hold the last axis to y, as in the degree pass.
        index, cols = _column_grid(cloud, y, order, cloud.d - 1)
        found = [(np.zeros(0, dtype=np.int64),) * 2]  # pairs of last-axis ranks
        for left, right in iter_candidate_pairs(index, starts, ends):
            hit = _pair_distances(cols, left, right) <= y
            found.append((index._members[left[hit]], index._members[right[hit]]))
        i, j = (np.concatenate(side) for side in zip(*found))
    i, j = order[i], order[j]
    codes = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    return np.column_stack(np.divmod(codes, n))


def _density_gap(edges, n: int, p):
    """| edges / C(n,2) - p |, elementwise over arrays of edge counts and p."""
    return abs(edges / (n * (n - 1) / 2) - p)


def edge_density_gap(summary: DegreeSummary, y: float, lam: float, d: int) -> float:
    """| epsilon_n / C(n,2) - p(y) |, the edge-density deviation from its mean."""
    _check_graph_size(summary.n)
    return _density_gap(summary.epsilon_n, summary.n, pair_connect_prob(y, lam, d))


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
