"""Shared test oracles, deliberately independent of the library code paths
they check: exact rational binomial tails, a scalar-loop Chebyshev distance,
and a plain Kolmogorov-Smirnov statistic; plus the tie-heavy and overflow
clouds that the brute-force comparisons take as extra inputs, and a spy on
the degree pass's pair enumerator."""

import functools
import math
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from exprgg import PointCloud, graphstats


@functools.lru_cache(maxsize=None)
def binomial_pmf_exact(n: int, p: float) -> Tuple[Fraction, ...]:
    """Exact Bin(n, p) pmf over k = 0..n, with p taken as its exact binary value.

    Memoized, since the tail helpers ask for the same pmf once per k; a
    tuple, so a cached value cannot be mutated by a caller.
    """
    pf = Fraction(p)
    qf = 1 - pf
    pmf = [qf**n]
    for k in range(1, n + 1):
        pmf.append(pmf[-1] * (n - k + 1) * pf / (k * qf))
    return tuple(pmf)


def binomial_lower_tail_exact(n: int, p: float, k: int) -> Fraction:
    """P[Bin(n, p) <= k], exact."""
    return sum(binomial_pmf_exact(n, p)[: k + 1], Fraction(0))


def binomial_upper_tail_exact(n: int, p: float, k: int) -> Fraction:
    """P[Bin(n, p) >= k], exact."""
    return sum(binomial_pmf_exact(n, p)[k:], Fraction(0))


def scalar_linf(p, q) -> float:
    """Chebyshev distance by an explicit per-axis loop."""
    best = 0.0
    for a, b in zip(p, q):
        diff = a - b if a >= b else b - a
        if diff > best:
            best = diff
    return best


def scalar_edges(points: np.ndarray, y: float) -> set:
    """Edge set by doubly-nested scalar loops, no numpy reductions."""
    n = len(points)
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            if scalar_linf(points[i], points[j]) <= y:
                out.add((i, j))
    return out


def ks_statistic_exponential(samples: np.ndarray, lam: float) -> float:
    """Two-sided KS distance between the empirical CDF and the Exp(lam) CDF."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(xs)
    cdf = 1.0 - np.exp(-lam * xs)
    upper = np.max(np.abs(cdf - np.arange(1, n + 1) / n))
    lower = np.max(np.abs(cdf - np.arange(0, n) / n))
    return float(max(upper, lower))


def make_cloud(points, lam: float = 1.0, seed: int = 0) -> PointCloud:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    return PointCloud(d=pts.shape[1], points=pts, seed=seed, lam=lam)


def tie_and_overflow_clouds() -> List[Tuple[PointCloud, Tuple[float, ...]]]:
    """(cloud, ascending y values) inputs on which a fast path is most likely
    to disagree with the brute-force oracle.

    - Dyadic lattices (coordinates k/8) with y on the lattice, d = 1, 2, 3:
      exact ``distance == y`` ties are common, where continuous random clouds
      almost never produce them.
    - A d = 3 cloud of near-coincident pairs at y = 1e-9: at that cell size
      the per-axis cell spans multiply past int64, so the grid must widen its
      cells to keep every cell key distinct.
    - d = 1 clouds where fl(x_i + y) and fl(x_j - x_i) round to different
      sides of a neighbour, so the sorted sweep's first ``searchsorted``
      window is wrong and must be repaired: a decimal lattice (k/10) at
      decimal y, and a continuous cloud at y equal to realised gaps
      |x_i - x_j|.
    - Three coincident points at (7, 7) and (7, 7, 7), at y = 0 and the
      smallest subnormal: the columns' extent is 0, so their width is the
      subnormal floor, and 7 divided by it overflows unless the grid widens
      before it divides.
    """
    rng = np.random.default_rng(2024)
    out = [
        (make_cloud(rng.integers(0, 24, size=(n, d)) / 8.0), (0.125, 0.25, 0.375, 1.0))
        for d, n in ((1, 150), (2, 300), (3, 300))
    ]
    base = 1.0 + rng.exponential(size=(150, 3))
    steps = rng.choice([-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9], size=base.shape)
    out.append((make_cloud(np.concatenate((base, base + steps))), (1e-9,)))
    out.append((make_cloud(rng.integers(0, 30, size=150) / 10.0), (0.1, 0.3, 0.6, 0.7)))
    xs = np.concatenate((rng.exponential(size=150), 1e3 + rng.exponential(size=150)))
    lo, hi = np.sort(xs[rng.integers(0, len(xs), size=(4000, 2))], axis=1).T
    lo, hi = lo[lo < hi], hi[lo < hi]
    gaps = hi - lo
    below = np.nextafter(gaps, 0.0)
    # y = gap where x_lo + y rounds below x_hi (the window must grow to take
    # x_hi), y one ulp below a gap where x_lo + y still reaches x_hi (it must
    # shrink to drop it), and one gap across the two magnitudes.
    ys = np.concatenate((
        gaps[lo + gaps < hi][:2], below[lo + below >= hi][:2], gaps[gaps > 1.0][:1],
    ))
    out.append((make_cloud(xs), tuple(float(y) for y in np.unique(ys))))
    out += [(make_cloud([[7.0] * d] * 3), (0.0, math.ulp(0.0))) for d in (2, 3)]
    return out


def gap_boundary_clouds() -> List[Tuple[PointCloud, Tuple[float, ...]]]:
    """d = 1 (cloud, ascending y values) at the edges of the sweep's test on
    the gap between sorted neighbours. Each y grid starts below every gap.

    - A dyadic lattice (coordinates k/8, in shuffled order) whose smallest
      gap is 1/8: at y = 1/8 exactly its two closest pairs are edges, one ulp
      below it every point is isolated.
    - An all-isolated cloud, every gap above 1, at y > 0.
    - One close pair among isolated points, also at y = 0.
    """
    rng = np.random.default_rng(77)
    eighth = 0.125
    lattice = rng.permutation([0, 3, 4, 9, 11, 16, 17, 30]) / 8.0
    isolated = rng.permutation(np.cumsum(1.0 + rng.random(200)))
    return [
        (make_cloud(lattice), (float(np.nextafter(eighth, 0.0)), eighth, 2 * eighth, 1.0)),
        (make_cloud(isolated), (0.5, 1.0)),
        (make_cloud([5.0, 0.0, 10.0, 3.0, 3.0 + 2.0**-20, 7.0]), (0.0, 2.0**-20, 1.0)),
    ]


def few_value_cloud(
    d: int = 1, n: int = 20000
) -> Tuple[PointCloud, Tuple[float, ...], List[np.ndarray]]:
    """n points on the 5^d lattice of 5 distinct decimal values per axis, y
    values below, at and above the value spacings, and the degrees at each y
    in closed form.

    Brute force is too slow at this size. Every point on a lattice site has
    the same degree: the points on the sites within y of it on every axis,
    less itself. At d = 1 each value's run holds about n / 5 equal
    coordinates, which a sweep must step over as a whole; at d >= 2 the
    coincident points make candidate pairs that span several chunks.
    """
    values = np.array([0.3, 0.4, 1.8, 2.0, 2.1])
    label = np.random.default_rng(5).integers(0, len(values), size=(n, d))
    site = np.ravel_multi_index(tuple(label.T), (len(values),) * d)
    counts = np.bincount(site, minlength=len(values) ** d)
    spacings = np.abs(values[:, None] - values[None, :])
    gaps = np.unique(spacings[spacings > 0])
    ys = np.unique(np.concatenate((
        [0.0, 0.05, 0.1, 0.2, 1.5], gaps, np.nextafter(gaps, 0.0), np.nextafter(gaps, 3.0),
    )))
    degrees = [
        (functools.reduce(np.kron, [spacings <= y] * d) @ counts - 1)[site] for y in ys
    ]
    return make_cloud(values[label]), tuple(float(y) for y in ys), degrees


def spy_on_candidate_pairs(monkeypatch) -> List[dict]:
    """Wrap ``graphstats.iter_candidate_pairs`` where the degree pass, the
    y-grid and the edge list look it up, as the benchmark tracer does. Each
    call appends a record of its arguments (``index``, ``starts``, ``ends``,
    ``counted``) and of the pairs it yielded: how many, and how many of them
    join two members of one cell.
    """
    calls: List[dict] = []
    enumerate_pairs = graphstats.iter_candidate_pairs

    def spy(index, starts, ends, *args, **kwargs):
        call = {"index": index, "starts": starts, "ends": ends,
                "counted": kwargs.get("counted"), "pairs": 0, "same_cell": 0}
        calls.append(call)
        for left, right in enumerate_pairs(index, starts, ends, *args, **kwargs):
            cells = np.searchsorted(index._starts, np.stack((left, right)), side="right")
            call["pairs"] += len(left)
            call["same_cell"] += int(np.count_nonzero(cells[0] == cells[1]))
            yield left, right

    monkeypatch.setattr(graphstats, "iter_candidate_pairs", spy)
    return calls
