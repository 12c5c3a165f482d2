"""Degree statistics of the radius-y graph on a point cloud, plus the
normalized ratios and edge-density gap that the strong-law bounds speak about.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .model import DegreeSummary, PointCloud, RggConfig, _check_nonnegative
from .spatial import build_grid_index, iter_candidate_pairs, sorted_window_ends
from .theory import pair_connect_prob


def degree_summary(cloud: PointCloud, y: float) -> DegreeSummary:
    """Degrees, edge count and degree extremes of the graph G_n(y) on ``cloud``.

    Two vertices are adjacent iff their l-inf distance is <= y (inclusive).
    Two exact returns count nothing: when y covers the cloud's extent on
    every axis the graph is complete, and when every gap between neighbours
    sorted on the last axis exceeds y it is empty. Otherwise the last axis is
    swept in sorted order, which gives each vertex its exact window of
    last-axis neighbours. At d = 1 the windows are the degrees, and no pair is
    enumerated. At d >= 2 a grid on the first d - 1 axes splits the vertices
    into columns, and degrees are accumulated from candidate pairs that lie
    in each other's window in the same or adjacent columns, in vectorized
    chunks; memory stays O(n) plus one bounded chunk. y = 0 takes the same
    paths as any other y.
    """
    n = cloud.n
    if n < 2:
        raise ValueError(f"degree statistics need n >= 2 points, got {n}")
    _check_nonnegative(y, "y")
    # One reduction per axis column: reducing the (n, d) array over axis 0
    # is about 15x slower at d = 2.
    axes = cloud.points.T
    span = np.array([col.max() - col.min() for col in axes])
    if np.all(span <= y):
        # Complete graph: subtraction is monotone in each operand, so every
        # pair's computed distance is at most the computed span.
        return DegreeSummary.from_degrees(np.full(n, n - 1, dtype=np.int64))
    # Windows end only where the last coordinate changes, so equal
    # coordinates get equal windows whatever their order; hence the default
    # sort, which is several times faster than a stable one.
    order = np.argsort(axes[-1])
    xs = axes[-1][order]
    if not np.any(xs[1:] - xs[:-1] <= y):
        # Empty graph: no window passes its first gap (see
        # sorted_window_ends), so no vertex has a neighbour.
        return DegreeSummary.from_degrees(np.zeros(n, dtype=np.int64))
    # Sorted rank r's last-axis window is [starts[r], ends[r]), r included:
    # ends is nondecreasing and |fl(a - b)| = |fl(b - a)|, so the earlier
    # ranks whose window reaches past r are exactly those from starts[r] on,
    # and starts[r] counts the windows that end at or before r.
    ends = sorted_window_ends(xs, y)
    del xs  # n floats fewer at the column engine's peak
    starts = np.cumsum(np.bincount(ends, minlength=n + 1)[:n])
    if cloud.d == 1:
        # The window less the vertex itself.
        ends -= starts
        ends -= 1
        deg = np.empty(n, dtype=np.int64)
        deg[order] = ends
        return DegreeSummary.from_degrees(deg)
    # At d >= 2 the columns are indexed by rank; PointCloud takes a
    # read-only projection without a copy. Any cell width >= y finds every
    # edge; a positive one keeps y = 0 (only coincident points adjacent) on
    # this same path, even when the span is so small that a 2^-52 share of
    # it underflows to 0.
    projected = cloud.points[order, :-1]
    projected.setflags(write=False)
    index = build_grid_index(
        PointCloud(cloud.d - 1, projected, cloud.seed, cloud.lam),
        max(y, span[:-1].max() * 2**-52, math.ulp(0.0)),
    )
    # Candidates come as member positions in column order, so the first
    # d - 1 coordinates are gathered once into column-ordered axis arrays;
    # the windows already hold the last axis to <= y. Each chunk's positions
    # lie at or after its first left, so its tally spans only from there.
    cols = projected[index._members].T.copy()
    tally = np.zeros(n, dtype=np.int64)
    for left, right in iter_candidate_pairs(index, starts, ends):
        hit = np.ones(len(left), dtype=bool)
        for col in cols:
            diff = col[left]  # a fresh copy, so in-place work is safe
            diff -= col[right]
            hit &= np.abs(diff, out=diff) <= y
        lo = int(left[0])
        for side in (left[hit], right[hit]):
            counts = np.bincount(side - lo)
            tally[lo:lo + len(counts)] += counts
    deg = np.empty(n, dtype=np.int64)
    deg[order[index._members]] = tally
    return DegreeSummary.from_degrees(deg)


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
