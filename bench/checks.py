"""Untimed correctness checks that run once per benchmark invocation.

``tie_gate`` runs the program's grid path against its brute-force oracle on
dyadic lattices, where exact ``distance == y`` ties are common; continuous
random clouds almost never produce them.

``spot_check`` recomputes the first row of a benchmark table without the
program: the cloud comes from the SplitMix64 stream as the README specifies
it, and neighbours are counted by a sorted sweep along the first axis. It
catches wrong output at seeds that have no recorded reference digest.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def tie_gate(seed: int) -> List[str]:
    """Mismatches between ``degree_summary`` and ``brute_force_edges`` on
    lattice clouds (coordinates k/8) with y on the lattice, d = 1, 2, 3."""
    from exprgg.graphstats import degree_summary
    from exprgg.model import PointCloud
    from exprgg.spatial import brute_force_edges

    rng = np.random.default_rng(seed)
    problems = []
    for d, n in ((1, 150), (2, 300), (3, 300)):
        cloud = PointCloud(d=d, points=rng.integers(0, 24, size=(n, d)) / 8.0, seed=0, lam=1.0)
        for y in (0.0, 0.125, 0.25, 0.375, 1.0):
            expected = np.zeros(n, dtype=np.int64)
            for a, b in brute_force_edges(cloud, y):
                expected[a] += 1
                expected[b] += 1
            try:
                got = degree_summary(cloud, y).degrees
            except Exception as exc:  # a crash is a gate failure, not a benchmark crash
                problems.append(f"tie gate d={d} n={n} y={y}: {type(exc).__name__}: {exc}")
                continue
            if not np.array_equal(got, expected):
                bad = int(np.count_nonzero(got != expected))
                problems.append(f"tie gate d={d} n={n} y={y}: {bad} degrees differ from the oracle")
    return problems


def _mix64(z):
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def replication_seed(base_seed: int, index: int) -> int:
    word = np.array([(base_seed + (index + 1) * GOLDEN) & _MASK], dtype=np.uint64)
    return int(_mix64(word)[0])


def exponential_cloud(n: int, d: int, lam: float, seed: int) -> np.ndarray:
    idx = np.arange(1, n * d + 1, dtype=np.uint64)
    words = _mix64(np.uint64(seed) + idx * np.uint64(GOLDEN))
    u = ((words >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    return (-np.log(u) / lam).reshape(n, d)


def _window_ends(xs: np.ndarray, y: float) -> np.ndarray:
    """For sorted xs, one past the last j with xs[j] - xs[i] <= y, evaluated
    exactly as the oracle's subtraction rounds (a searchsorted on xs + y can
    be off by a few where the sum rounds)."""
    n = len(xs)
    idx = np.arange(n)
    ends = np.searchsorted(xs, xs + y, side="right")
    while True:
        grow = (ends < n) & (xs[np.minimum(ends, n - 1)] - xs <= y)
        shrink = (ends > idx + 1) & (xs[ends - 1] - xs > y)
        if not grow.any() and not shrink.any():
            return ends
        ends = ends + grow - shrink


def degrees(points: np.ndarray, y: float) -> np.ndarray:
    """Degrees of the l-inf radius-y graph (boundary inclusive), by a sweep
    along axis 0 and an exact test of the other axes on the window pairs."""
    n, d = points.shape
    order = np.argsort(points[:, 0], kind="stable")
    pts = points[order]
    ends = _window_ends(pts[:, 0], y)
    deg = np.zeros(n, dtype=np.int64)
    if d == 1:
        # Forward neighbours from the window; backward ones from a difference
        # array: every j in (i, ends[i]) gains i as a neighbour.
        deg += ends - np.arange(n) - 1
        diff = np.ones(n + 1, dtype=np.int64)
        diff[0] = 0
        diff -= np.bincount(ends, minlength=n + 1)
        deg += np.cumsum(diff)[:n]
    else:
        widths = ends - np.arange(n) - 1
        step = max(1, (1 << 22) // max(int(widths.max(initial=1)), 1))
        for lo in range(0, n, step):
            rows = np.arange(lo, min(lo + step, n))
            left = np.repeat(rows, widths[rows])
            starts = np.cumsum(widths[rows]) - widths[rows]
            right = left + 1 + (np.arange(len(left)) - np.repeat(starts, widths[rows]))
            hit = (np.abs(pts[left, 1:] - pts[right, 1:]) <= y).all(axis=1)
            deg += np.bincount(left[hit], minlength=n) + np.bincount(right[hit], minlength=n)
    out = np.empty(n, dtype=np.int64)
    out[order] = deg
    return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)


def spot_check(row: Dict[str, str], base_seed: int, y_grid=None) -> List[str]:
    """Problems with table row 0 of an experiment, recomputed independently."""
    kind, n, d, lam = row["experiment"], int(row["n"]), int(row["d"]), float(row["lambda"])
    seed = replication_seed(base_seed, 0)
    problems = []
    if int(row["seed"]) != seed:
        return [f"row 0 seed {row['seed']} != derived {seed}"]
    points = exponential_cloud(n, d, lam, seed)
    pairs = n * (n - 1) / 2

    def p_y(y: float) -> float:
        return (-math.expm1(-lam * y)) ** d

    if kind == "uniform-slln":
        xs = np.sort(points[:, 0])
        gap = max(
            abs(int((_window_ends(xs, y) - np.arange(n) - 1).sum()) / pairs - p_y(y))
            for y in y_grid
        )
        if not _close(gap, float(row["gap"])):
            problems.append(f"uniform-slln gap {row['gap']} != recomputed {gap!r}")
        return problems
    y = float(row["y_n"])
    if row["family"] == "log":
        expected_y = (float(row["param1"]) * math.log(n) / n) ** (1.0 / d) / lam
    else:
        expected_y = (float(row["param1"]) * float(n) ** -float(row["param2"])) ** (1.0 / d)
    if not _close(y, expected_y):
        problems.append(f"{kind} y_n {y!r} != formula {expected_y!r}")
    deg = degrees(points, y)
    edges = int(deg.sum()) // 2
    expected = {"epsilon_n": edges, "min_degree": int(deg.min()), "max_degree": int(deg.max()),
                "has_edge": "true" if edges else "false"}
    for column, value in expected.items():
        if row[column] != "" and row[column] != str(value):
            problems.append(f"{kind} {column} {row[column]} != recomputed {value}")
    if row["gap"] != "" and not _close(float(row["gap"]), abs(edges / pairs - p_y(y))):
        problems.append(f"{kind} gap {row['gap']} != recomputed")
    return problems
