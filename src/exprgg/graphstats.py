"""Degree statistics and y-grid edge counts of the radius-y graph on a point
cloud, plus the ratios and edge-density gap that the strong-law bounds use.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .model import DegreeSummary, PointCloud, RggConfig, _check_nonnegative
from .spatial import build_grid_index, iter_candidate_pairs, sorted_window_ends
from .theory import pair_connect_prob


def _last_axis_windows(cloud: PointCloud, y: float):
    """(order, starts, ends): the vertices sorted on the last axis and each rank
    r's window [starts[r], ends[r]) within y on it, r included; ends ascends and
    |fl(a - b)| = |fl(b - a)|, so starts[r] counts the windows that end at or
    before r. None when no sorted gap is within y: the graph is empty."""
    # Windows end only where the coordinate changes, so equal coordinates get
    # equal windows in any order: hence the default sort, not a slower stable one.
    order = np.argsort(cloud.points[:, -1])
    xs = cloud.points[order, -1]
    if not np.any(xs[1:] - xs[:-1] <= y):
        return None
    ends = sorted_window_ends(xs, y)
    del xs  # n floats fewer while starts is counted
    starts = np.cumsum(np.bincount(ends, minlength=cloud.n + 1)[:cloud.n])
    return order, starts, ends


def _column_pairs(cloud: PointCloud, y: float, span: float, windows, axes: int):
    """(members, cols, pairs) at d >= 2, from a grid of columns on the first
    d - 1 axes over the sorted ranks: the ranks in column order, the first
    ``axes`` axes gathered in that order, and ``iter_candidate_pairs`` inside
    ``windows``. Any cell width >= y finds every pair within y; a positive one
    keeps y = 0 here even when 2^-52 of ``span``, the indexed extent, underflows."""
    order, starts, ends = windows
    ranked = cloud.points[order, :axes]
    ranked.setflags(write=False)  # so PointCloud takes it without a copy
    index = build_grid_index(
        PointCloud(cloud.d - 1, ranked[:, :cloud.d - 1], cloud.seed, cloud.lam),
        max(y, span * 2**-52, math.ulp(0.0)))
    cols = ranked[index._members].T.copy()  # gathered once, in column order
    return index._members, cols, iter_candidate_pairs(index, starts, ends)


def _pair_distances(cols: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Each pair's largest |fl(a - b)| over the rows of ``cols``, as in the oracle."""
    dist = None
    for col in cols:  # row by row: a 2-d gather is about twice as slow
        diff = col[left]  # a fresh copy, so in-place work is safe
        diff -= col[right]
        np.abs(diff, out=diff)
        dist = diff if dist is None else np.maximum(dist, diff, out=dist)
    return dist


def degree_summary(cloud: PointCloud, y: float) -> DegreeSummary:
    """Degrees, edge count and degree extremes of the graph G_n(y) on ``cloud``.

    Two vertices are adjacent iff their l-inf distance is <= y (inclusive).
    Two exact returns count nothing: when y covers the cloud's extent on
    every axis the graph is complete, and when every gap between neighbours
    sorted on the last axis exceeds y it is empty. Otherwise each vertex gets
    its exact window of last-axis neighbours, which at d = 1 is its degree,
    with no pair enumerated. At d >= 2 degrees are tallied from the candidate
    pairs inside the windows in the same or adjacent columns of a grid on the
    other axes, in vectorized chunks; memory stays O(n) plus one bounded
    chunk. y = 0 takes the same paths as any other y.
    """
    n = cloud.n
    if n < 2:
        raise ValueError(f"degree statistics need n >= 2 points, got {n}")
    _check_nonnegative(y, "y")
    # One reduction per axis column: reducing the (n, d) array over axis 0
    # is about 15x slower at d = 2.
    span = np.array([col.max() - col.min() for col in cloud.points.T])
    if np.all(span <= y):
        # Complete graph: subtraction is monotone in each operand, so every
        # pair's computed distance is at most the computed span.
        return DegreeSummary.from_degrees(np.full(n, n - 1, dtype=np.int64))
    windows = _last_axis_windows(cloud, y)
    if windows is None:
        return DegreeSummary.from_degrees(np.zeros(n, dtype=np.int64))
    order, starts, ends = windows
    if cloud.d == 1:
        ends -= starts
        ends -= 1  # the window less the vertex itself
        members, tally = slice(None), ends  # positions are the ranks
    else:
        # The windows hold the last axis to <= y. A chunk's positions lie at
        # or after its first left, so its tally spans only from there.
        members, cols, pairs = _column_pairs(cloud, y, span[:-1].max(), windows, cloud.d - 1)
        tally = np.zeros(n, dtype=np.int64)
        for left, right in pairs:
            hit = _pair_distances(cols, left, right) <= y
            lo = int(left[0])
            for side in (left[hit], right[hit]):
                counts = np.bincount(side - lo)
                tally[lo:lo + len(counts)] += counts
    deg = np.empty(n, dtype=np.int64)
    deg[order[members]] = tally
    return DegreeSummary.from_degrees(deg)


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
        return np.array([sorted_window_ends(xs, y).sum() - starts for y in ys])
    windows = _last_axis_windows(cloud, ys[-1])
    if windows is None:
        return np.zeros(len(ys), dtype=np.int64)
    span = max(col.max() - col.min() for col in cloud.points.T[:-1])
    bins = np.zeros(len(ys) + 1, dtype=np.int64)
    _, cols, pairs = _column_pairs(cloud, ys[-1], span, windows, cloud.d)
    for left, right in pairs:
        dist = _pair_distances(cols, left, right)
        bins += np.bincount(np.searchsorted(ys, dist, "left"), minlength=len(ys) + 1)
    return np.cumsum(bins[:-1])


def edge_density_gap(summary: DegreeSummary, config: RggConfig) -> float:
    """| epsilon_n / C(n,2) - p(y) |, the edge-density deviation from its mean."""
    if summary.n != config.n:
        raise ValueError(f"summary has n={summary.n} but config has n={config.n}")
    n = config.n
    density = summary.epsilon_n / (n * (n - 1) / 2)
    return abs(density - pair_connect_prob(config.y, config.lam, config.d))


def degree_ratios(summary: DegreeSummary, config: RggConfig) -> Tuple[float, float]:
    """(min_degree, max_degree) scaled by n * y^d, the ratios the strong-law
    bounds constrain."""
    if summary.n != config.n:
        raise ValueError(f"summary has n={summary.n} but config has n={config.n}")
    if config.y == 0.0:
        raise ValueError("degree ratios are undefined at y = 0")
    denom = config.n * config.y**config.d
    if not math.isfinite(denom):
        raise ValueError(f"n * y^d overflows for y={config.y}, d={config.d}")
    return summary.min_degree / denom, summary.max_degree / denom
