"""Degree statistics of the radius-y graph on a point cloud, plus the
normalized ratios and edge-density gap that the strong-law bounds speak about.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .model import DegreeSummary, PointCloud, RggConfig
from .spatial import build_grid_index, iter_candidate_pairs, sorted_window_ends
from .theory import pair_connect_prob


def degree_summary(cloud: PointCloud, y: float) -> DegreeSummary:
    """Degrees, edge count and degree extremes of the graph G_n(y) on ``cloud``.

    Two vertices are adjacent iff their l-inf distance is <= y (inclusive).
    Two exact returns count nothing: when y covers the cloud's extent on
    every axis the graph is complete, and at d = 1, when every gap between
    sorted neighbours exceeds y, it is empty. Otherwise, at d = 1 one
    sorted-window sweep counts every degree without enumerating a pair. At
    d >= 2 degrees are accumulated from grid candidate pairs in vectorized
    chunks, in cell order; memory stays O(n) plus one bounded chunk. y = 0
    takes the same paths as any other y.
    """
    n = cloud.n
    if n < 2:
        raise ValueError(f"degree statistics need n >= 2 points, got {n}")
    if not y >= 0.0:  # also refuses nan
        raise ValueError(f"y must be >= 0, got {y}")
    span = cloud.points.max(axis=0) - cloud.points.min(axis=0)
    if np.all(span <= y):
        # Complete graph: subtraction is monotone in each operand, so every
        # pair's computed distance is at most the computed span.
        return DegreeSummary.from_degrees(np.full(n, n - 1, dtype=np.int64))
    deg = np.zeros(n, dtype=np.int64)
    if cloud.d == 1:
        # Sorted position i is adjacent to the positions after it up to
        # ends[i] (forward, ends[i] - i - 1 of them) and to every earlier
        # position whose window reaches past i (backward, i minus the windows
        # ending at or before i); the i terms cancel.
        # Windows end only where the coordinate changes, so equal coordinates
        # get equal degrees whatever their order; hence the default sort,
        # which is several times faster than a stable one.
        order = np.argsort(cloud.points[:, 0])
        xs = cloud.points[order, 0]
        if not np.any(xs[1:] - xs[:-1] <= y):
            # Empty graph: no window passes its first gap (see
            # sorted_window_ends), so no vertex has a neighbour.
            return DegreeSummary.from_degrees(deg)
        ends = sorted_window_ends(xs, y)
        ends -= np.cumsum(np.bincount(ends, minlength=n + 1)[:n])
        ends -= 1
        deg[order] = ends
    else:
        # Candidates come as member positions in cell order. The coordinates
        # are gathered once into cell-ordered axis columns; max over axes
        # <= y is the same test as <= y on every axis. Each chunk's positions
        # lie at or after its first left, so its tally spans only from there.
        # Any cell width >= y finds every edge; a positive one keeps y = 0
        # (only coincident points adjacent) on this same path, even when the
        # span is so small that a 2^-52 share of it underflows to 0.
        index = build_grid_index(cloud, max(y, span.max() * 2**-52, math.ulp(0.0)))
        cols = cloud.points[index._members].T.copy()
        tally = np.zeros(n, dtype=np.int64)
        for left, right in iter_candidate_pairs(index):
            hit = np.ones(len(left), dtype=bool)
            for col in cols:
                diff = col[left]  # a fresh copy, so in-place work is safe
                diff -= col[right]
                hit &= np.abs(diff, out=diff) <= y
            lo = int(left[0])
            for ends in (left[hit], right[hit]):
                counts = np.bincount(ends - lo)
                tally[lo:lo + len(counts)] += counts
        deg[index._members] = tally
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
