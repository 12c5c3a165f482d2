import numpy as np
import pytest

from conftest import (
    few_value_cloud,
    gap_boundary_clouds,
    make_cloud,
    scalar_edges,
    tie_and_overflow_clouds,
)
from exprgg import (
    RggConfig,
    brute_force_edges,
    degree_ratios,
    degree_summary,
    edge_density_gap,
    pair_connect_prob,
    sample_exponential_cloud,
)
from exprgg.model import DegreeSummary
from exprgg.sampling import derive_replication_seed, uniform_stream


def summary_from_edges(n, edges):
    ends = np.asarray(edges, dtype=np.int64).ravel()
    return DegreeSummary.from_degrees(np.bincount(ends, minlength=n))


def test_hand_checkable_line():
    # distances 0.5, 0.7, 1.2: the boundary-inclusive rule at y = 0.7 gives
    # degrees (1, 2, 1); the literal y = 0.6 keeps only the closest pair
    cloud = make_cloud([0.0, 0.5, 1.2])
    summ = degree_summary(cloud, 0.7)
    assert list(summ.degrees) == [1, 2, 1]
    assert (summ.epsilon_n, summ.min_degree, summ.max_degree) == (2, 1, 2)
    summ6 = degree_summary(cloud, 0.6)
    assert list(summ6.degrees) == [1, 1, 0]
    assert summ6.epsilon_n == 1


def test_zero_radius_distinct_points():
    summ = degree_summary(make_cloud([0.0, 0.5, 1.2]), 0.0)
    assert list(summ.degrees) == [0, 0, 0]
    assert summ.epsilon_n == 0


def test_zero_radius_coincident_points():
    summ = degree_summary(make_cloud([[1.0], [1.0], [2.0]]), 0.0)
    assert list(summ.degrees) == [1, 1, 0]
    # d = 2 with a subnormal span: the grid's cell width must stay positive
    summ = degree_summary(make_cloud([[0.0, 0.0], [1e-310, 0.0], [1e-310, 0.0]]), 0.0)
    assert list(summ.degrees) == [0, 1, 1]


def test_needs_two_points():
    with pytest.raises(ValueError):
        degree_summary(make_cloud([0.0]), 1.0)


def test_rejects_negative_or_nan_y():
    for points in ([0.0, 0.5, 1.2], [[0.0, 1.0], [0.5, 0.2]]):
        for y in (-0.5, float("nan")):
            with pytest.raises(ValueError, match="y must be >= 0"):
                degree_summary(make_cloud(points), y)


def test_matches_brute_force_on_random_clouds():
    for case in range(60):
        case_seed = derive_replication_seed(7, case)
        u = uniform_stream(case_seed, 4)
        n = 2 + int(u[0] * 398)
        d = 1 + int(u[1] * 3) % 3
        lam = 0.5 + 1.5 * u[2]
        y = float(u[3]) * 1.5 / lam
        cloud = sample_exponential_cloud(n, d, lam, derive_replication_seed(case_seed, 0))
        expected = summary_from_edges(n, brute_force_edges(cloud, y))
        assert degree_summary(cloud, y) == expected
    for cloud, ys in tie_and_overflow_clouds():
        # Also at the cloud's exact l-inf diameter (a complete graph, which
        # degree_summary answers without an index), one ulp below it, and at
        # y = 0, where only coincident points are adjacent.
        diameter = float(np.ptp(cloud.points, axis=0).max())
        for y in (*ys, diameter, float(np.nextafter(diameter, 0.0)), 0.0):
            expected = summary_from_edges(cloud.n, brute_force_edges(cloud, y))
            assert degree_summary(cloud, y) == expected, (cloud.d, y)
    # At the gap test's boundaries (a gap of exactly y, one ulp below it,
    # every point isolated, one close pair): the scalar oracle agrees, and
    # where no gap is within y every degree is zero.
    for cloud, ys in gap_boundary_clouds():
        gaps = np.diff(np.sort(cloud.points[:, 0]))
        for y in ys:
            expected = summary_from_edges(cloud.n, sorted(scalar_edges(cloud.points, y)))
            assert degree_summary(cloud, y) == expected, y
            assert (expected.max_degree == 0) == bool(np.all(gaps > y)), y
    # y = inf joins every pair; brute force over 2e8 pairs is too slow, and
    # the complete graph is the answer it would give.
    n = 20000
    summ = degree_summary(sample_exponential_cloud(n, 1, 1.0, 1), np.inf)
    assert summ == DegreeSummary.from_degrees(np.full(n, n - 1))
    # As many points on 5 values, below, at and above each spacing: degrees
    # in closed form. At d = 2, 2,000 points on the 5 x 5 lattice make at
    # least three chunks of candidates at every y the grid counts; near the
    # lattice's span almost every pair is a candidate, which rules out 20,000
    # points there.
    for cloud, ys, degrees in (few_value_cloud(), few_value_cloud(d=2, n=2000)):
        for y, expected in zip(ys, degrees):
            assert degree_summary(cloud, y) == DegreeSummary.from_degrees(expected), (cloud.d, y)


def test_handshake_and_bound_chain():
    for seed in range(20):
        cloud = sample_exponential_cloud(300, 2, 1.0, seed)
        summ = degree_summary(cloud, 0.3)
        n = summ.n
        assert int(summ.degrees.sum()) == 2 * summ.epsilon_n
        assert summ.min_degree <= 2 * summ.epsilon_n / n <= summ.max_degree


def test_degrees_monotone_in_y():
    cloud = sample_exponential_cloud(500, 2, 1.0, seed=21)
    small = degree_summary(cloud, 0.2)
    large = degree_summary(cloud, 0.35)
    assert np.all(small.degrees <= large.degrees)
    assert small.min_degree <= large.min_degree
    assert small.max_degree <= large.max_degree


def test_edge_density_gap_trivial_cases():
    cloud = make_cloud([0.0, 0.5, 1.2])
    summ = degree_summary(cloud, 0.7)
    n = 3
    y = 0.7
    p = pair_connect_prob(y, 1.0, 1)
    cfg = RggConfig(n=n, d=1, lam=1.0, y=y, seed=0)
    assert edge_density_gap(summ, cfg) == abs(summ.epsilon_n / 3 - p)
    # epsilon = 0 with y > 0 leaves exactly p(y)
    empty = degree_summary(make_cloud([0.0, 5.0, 11.0]), 0.5)
    cfg2 = RggConfig(n=3, d=1, lam=1.0, y=0.5, seed=0)
    assert edge_density_gap(empty, cfg2) == pair_connect_prob(0.5, 1.0, 1)


def test_degree_ratio_examples():
    # min degree equal to n*y^d forces a ratio of exactly 1
    summ = DegreeSummary.from_degrees([2, 2, 2, 2])
    cfg = RggConfig(n=4, d=1, lam=1.0, y=0.5, seed=0)
    min_ratio, max_ratio = degree_ratios(summ, cfg)
    assert min_ratio == 1.0 and max_ratio == 1.0
    # complete graph: max ratio is (n-1)/(n*y^d)
    cloud = make_cloud([0.0, 0.1, 0.2, 0.3])
    summ_full = degree_summary(cloud, 10.0)
    cfg_full = RggConfig(n=4, d=1, lam=1.0, y=10.0, seed=0)
    _, max_ratio = degree_ratios(summ_full, cfg_full)
    assert max_ratio == 3 / (4 * 10.0)


def test_degree_ratio_rejects_y_zero():
    summ = DegreeSummary.from_degrees([0, 0])
    with pytest.raises(ValueError):
        degree_ratios(summ, RggConfig(n=2, d=1, lam=1.0, y=0.0, seed=0))


def test_max_ratio_dominates_mean_degree_ratio():
    # 2*epsilon <= n*max_degree, so max_ratio >= 2*epsilon/(n^2 y^d)
    for case in range(100):
        case_seed = derive_replication_seed(13, case)
        u = uniform_stream(case_seed, 3)
        n = 5 + int(u[0] * 200)
        d = 1 + int(u[1] * 3) % 3
        y = 0.05 + float(u[2])
        cloud = sample_exponential_cloud(n, d, 1.0, derive_replication_seed(case_seed, 0))
        summ = degree_summary(cloud, y)
        cfg = RggConfig(n=n, d=d, lam=1.0, y=y, seed=0)
        min_ratio, max_ratio = degree_ratios(summ, cfg)
        assert min_ratio <= max_ratio
        assert max_ratio >= 2 * summ.epsilon_n / (n**2 * y**d) - 1e-12
