import copy
import json
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from conftest import (
    few_value_cloud,
    gap_boundary_clouds,
    make_cloud,
    scalar_edges,
    spy_on_candidate_pairs,
    tie_and_overflow_clouds,
)
from exprgg import (
    brute_force_edges,
    degree_ratios,
    degree_summary,
    edge_density_gap,
    edge_list,
    pair_connect_prob,
    sample_exponential_cloud,
)
from exprgg.experiments import from_jsonable, to_jsonable
from exprgg.model import DegreeSummary
from exprgg.sampling import derive_replication_seed, uniform_stream
from exprgg.spatial import build_grid_index


def summary_from_edges(n, edges):
    ends = np.asarray(edges, dtype=np.int64).ravel()
    return DegreeSummary(np.bincount(ends, minlength=n))


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
            for engine in (degree_summary, edge_list):
                with pytest.raises(ValueError, match="y must be >= 0"):
                    engine(make_cloud(points), y)


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
    assert summ == DegreeSummary(np.full(n, n - 1))
    # As many points on 5 values, below, at and above each spacing: degrees
    # in closed form. At d = 2, 2,000 points on the 5 x 5 lattice make at
    # least three chunks of candidates at every y the grid counts; near the
    # lattice's span almost every pair is a candidate, which rules out 20,000
    # points there.
    for cloud, ys, degrees in (few_value_cloud(), few_value_cloud(d=2, n=2000)):
        for y, expected in zip(ys, degrees):
            assert degree_summary(cloud, y) == DegreeSummary(expected), (cloud.d, y)


@pytest.mark.parametrize("d", [1, 2])
def test_complete_graph_exit_runs_at_d_two_and_up_only(monkeypatch, d):
    # At d = 1 the sorted sweep answers a y that covers the cloud's span, inf
    # included: every window reaches n. At d >= 2 the exit returns first, so
    # the column engine never enumerates the pairs across its cell boundaries.
    from exprgg import graphstats

    sweeps, sweep = [], graphstats.sorted_window_ends
    monkeypatch.setattr(graphstats, "sorted_window_ends",
                        lambda xs, y: sweeps.append(y) or sweep(xs, y))
    cloud = sample_exponential_cloud(300, d, 1.0, 5)
    span = float(np.ptp(cloud.points, axis=0).max())
    for y in (math.inf, span):
        assert degree_summary(cloud, y) == DegreeSummary(np.full(300, 299)), y
    assert sweeps == ([math.inf, span] if d == 1 else [])


def test_column_engine_matches_brute_force_at_its_edges():
    # At d >= 2 the last axis is swept in sorted windows and the other axes
    # are split into columns of width y. Each cloud is checked at y = 0 too.
    rng = np.random.default_rng(31)
    eighth = 0.125
    cases, empty = [], []
    for d in (2, 3, 4):
        # The 1/8 lattice at y on it: many pairs lie exactly y apart on the
        # last axis (a tie at a window end) and on a column axis, where the
        # points sit on the column boundaries.
        lattice = rng.integers(0, 24, size=(300, d)) / 8.0
        gaps = np.abs(lattice[:, None, :] - lattice[None, :, :])
        ys = (eighth, 2 * eighth, 3 * eighth)
        assert all(np.any(gaps[..., -1] == y) and np.any(gaps[..., 0] == y) for y in ys)
        cases.append((make_cloud(lattice), ys))
        # Every point in one column: the first d - 1 axes span less than y.
        column = np.column_stack((0.2 * rng.random((200, d - 1)), rng.integers(0, 40, 200) / 8))
        cases.append((make_cloud(column), (0.25, 0.5)))
        # Empty graphs: every last-axis gap exceeds y, and (through the
        # columns) every last-axis gap is within y but the first axis
        # separates every pair.
        spread = rng.permutation(np.cumsum(1.0 + rng.random(100)))
        stairs = np.arange(100.0)
        empty += [
            (make_cloud(np.column_stack([spread] * d)), 0.5),
            (make_cloud(np.column_stack([2.0 * stairs] * (d - 1) + [0.01 * stairs])), 1.0),
        ]
    # Near-coincident pairs at y = 1e-9, where the columns widen to keep
    # their cell keys within int64 (the d = 3 cloud of tie_and_overflow_clouds
    # is checked above).
    base = 1.0 + rng.exponential(size=(100, 4))
    steps = rng.choice([-2e-9, -1e-9, 0.0, 1e-9, 2e-9], size=base.shape)
    points = np.concatenate((base, base + steps))
    assert build_grid_index(points[:, :-1], 1e-9).cell_size > 1e-9
    cases.append((make_cloud(points), (1e-9,)))
    cases += [(cloud, (y,)) for cloud, y in empty]
    for cloud, ys in cases:
        for y in (0.0, *ys):
            expected = summary_from_edges(cloud.n, brute_force_edges(cloud, y))
            assert degree_summary(cloud, y) == expected, (cloud.d, y)
    for cloud, y in empty:
        assert degree_summary(cloud, y).max_degree == 0, (cloud.d, y)


def test_counted_cells_match_brute_force(monkeypatch):
    # A column whose extent on every indexed axis is within y has its own
    # pairs counted from their runs; any other column enumerates them. The
    # spy sees the mask the degree pass passes and the pairs it gets back.
    calls = spy_on_candidate_pairs(monkeypatch)

    def run(cloud, y):
        calls.clear()
        want = np.bincount(brute_force_edges(cloud, y).ravel(), minlength=cloud.n)
        assert np.array_equal(degree_summary(cloud, y).degrees, want), (cloud.d, y)
        (call,) = calls
        index, counted = call["index"], call["counted"]
        # The column grid indexes the first d - 1 axes in last-axis rank order.
        ranked = cloud.points[np.argsort(cloud.points[:, -1]), :-1]
        members = ranked[index._members]
        firsts = index._starts[:-1]
        extent = (np.maximum.reduceat(members, firsts, axis=0)
                  - np.minimum.reduceat(members, firsts, axis=0)).max(axis=1)
        assert np.array_equal(counted, extent <= y), (cloud.d, y)
        paired = np.diff(index._starts) > 1  # cells with a same-cell pair
        return call, counted[paired], extent[counted]

    # Every cell qualifies: the grid's width is y, so no same-cell pair is
    # enumerated.
    for d, y in ((2, 0.08), (3, 0.2)):
        call, qualified, _ = run(sample_exponential_cloud(1500, d, 1.0, seed=3), y)
        assert qualified.size and qualified.all() and call["pairs"] > 0, d
        assert call["same_cell"] == 0, d
    # No cell qualifies: near-coincident pairs whose columns widen past y to
    # keep their keys within int64, at y = 1e-9 and at y = 0.
    rng = np.random.default_rng(31)
    base = 1.0 + rng.exponential(size=(100, 4))
    steps = rng.choice([-2e-9, -1e-9, 0.0, 1e-9, 2e-9], size=base.shape)
    widened = make_cloud(np.concatenate((base, base + steps)))
    for y in (1e-9, 0.0):
        call, qualified, _ = run(widened, y)
        assert call["index"].cell_size > 1e-9 and qualified.size and not qualified.any(), y
        assert call["same_cell"] > 0, y
    # Some cells qualify and some do not: one far point widens the columns
    # past y, so the 1/8-lattice block near the origin shares columns wider
    # than y, while the columns near 1000, 1500 and 2000 span exactly 1/8,
    # a tie at y = 1/8.
    for d in (2, 3):
        rng = np.random.default_rng(40 + d)
        block = rng.integers(0, 24, size=(200, d)) / 8.0
        at = rng.choice([1000.0, 1500.0, 2000.0], size=(90, 1))
        columns = np.column_stack(
            (at + rng.integers(0, 2, size=(90, d - 1)) / 8.0, rng.integers(0, 24, 90) / 8.0)
        )
        far = np.full((1, d), 2.0 ** (108 // d))
        cloud = make_cloud(np.concatenate((block, columns, far)))
        for y in (0.125, 0.25):
            call, qualified, extents = run(cloud, y)
            assert qualified.any() and not qualified.all(), (d, y)
            assert call["same_cell"] > 0, (d, y)
            assert y != 0.125 or np.any(extents == y), d
        run(cloud, 0.0)


def test_d1_degrees_in_vertex_order_under_heavy_ties():
    # The d = 1 engine counts in sorted-value order and maps its ranks back
    # with a fresh argsort, which may order a run of equal coordinates
    # differently: every vertex of the run must still get the run's degree.
    # At d >= 2 degrees differ within a run of equal last coordinates, so the
    # fresh argsort must repeat the engine's own order exactly.
    cloud = sample_exponential_cloud(600, 1, 1.0, 8)
    snapped = make_cloud(np.floor(4 * cloud.points) / 4)
    equal = make_cloud(np.full(50, 1.25))
    equal_but_one = make_cloud(np.append(np.full(50, 1.25), 3.0))
    cases = [(snapped, (0.0, 0.25, 0.5, 0.6)), (cloud, (0.0, 0.01, 0.05)),
             (equal, (0.0, 1.0)), (equal_but_one, (0.0, 1.0))]
    for d in (2, 3):
        points = sample_exponential_cloud(600, d, 1.0, 8).points.copy()
        points[:, -1] = np.floor(4 * points[:, -1]) / 4  # only the last axis ties
        cases.append((make_cloud(points), (0.0, 0.05, 0.25, 0.3, 0.6)))
    for c, ys in cases:
        for y in ys:
            want = np.bincount(brute_force_edges(c, y).ravel(), minlength=c.n)
            assert np.array_equal(degree_summary(c, y).degrees, want), (c.d, c.n, y)


def engine_and_oracle_summaries():
    """(engine summary, eager summary of the oracle's degrees) at d = 1 and 2."""
    out = []
    for d, y in ((1, 0.02), (2, 0.1)):
        cloud = sample_exponential_cloud(300, d, 1.0, 11)
        eager = summary_from_edges(300, brute_force_edges(cloud, y))
        out.append((degree_summary(cloud, y), eager))
    return out


def exact_return_summaries():
    """(engine summary, eager summary of the oracle's degrees) at d = 1 and 2
    for the engine's two exact returns: the empty graph at y = 0 and the
    complete graph at y = inf."""
    out = []
    for d in (1, 2):
        cloud = sample_exponential_cloud(300, d, 1.0, 11)
        for y, degree in ((0.0, 0), (math.inf, 299)):
            want = DegreeSummary(np.full(300, degree))
            assert want == summary_from_edges(300, brute_force_edges(cloud, y))
            out.append((degree_summary(cloud, y), want))
    return out


def test_engine_summary_matches_the_oracle_and_its_json():
    for got, want in engine_and_oracle_summaries():
        assert got.max_degree > 1
    for got, want in engine_and_oracle_summaries() + exact_return_summaries():
        assert got == want and want == got
        text = json.dumps(to_jsonable(got))
        assert text == json.dumps(to_jsonable(want))
        assert from_jsonable(json.loads(text)) == got


def test_engine_summary_builds_vertex_order_only_when_read():
    for got, want in engine_and_oracle_summaries() + exact_return_summaries():
        fields = (got.n, got.epsilon_n, got.min_degree, got.max_degree)
        assert fields == (want.n, want.epsilon_n, want.min_degree, want.max_degree)
        assert "degrees" not in vars(got)
        first = got.degrees
        assert "degrees" in vars(got) and got.degrees is first
        assert not first.flags.writeable
        # Once built, the summary holds only the per-vertex array.
        assert "_rank_key" not in vars(got) and got._ranked is first


def test_engine_summary_pickles_and_copies_as_its_degrees():
    for got, want in engine_and_oracle_summaries() + exact_return_summaries():
        for copy_of in (lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy):
            again = copy_of(got)
            assert again == want and again.max_degree == want.max_degree
            assert vars(again).keys() == vars(want).keys()


def test_racing_first_reads_of_degrees_return_one_array():
    # More threads than cores and a short switch interval, so that first
    # reads of fresh summaries interleave.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cloud, y in ((sample_exponential_cloud(300, 1, 1.0, 11), 0.02),
                         (sample_exponential_cloud(300, 2, 1.0, 11), 0.1)):
            want = np.bincount(brute_force_edges(cloud, y).ravel(), minlength=cloud.n)
            for _ in range(20):
                summ = degree_summary(cloud, y)
                start = threading.Barrier(8, timeout=10)
                got = [None] * 8

                def read(k):
                    start.wait()
                    got[k] = summ.degrees

                threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert all(a is got[0] for a in got)
                assert np.array_equal(got[0], want)
    finally:
        sys.setswitchinterval(interval)


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
    y = 0.7
    p = pair_connect_prob(y, 1.0, 1)
    assert edge_density_gap(summ, y, 1.0, 1) == abs(summ.epsilon_n / 3 - p)
    # epsilon = 0 with y > 0 leaves exactly p(y)
    empty = degree_summary(make_cloud([0.0, 5.0, 11.0]), 0.5)
    assert edge_density_gap(empty, 0.5, 1.0, 1) == pair_connect_prob(0.5, 1.0, 1)
    # y = 0 is a valid edge distance: no pair connects and p(0) = 0
    assert edge_density_gap(DegreeSummary([0, 0]), 0.0, 0.5, 1) == 0.0


def test_degree_ratio_examples():
    # min degree equal to n*y^d forces a ratio of exactly 1
    summ = DegreeSummary([2, 2, 2, 2])
    min_ratio, max_ratio = degree_ratios(summ, 0.5, 1)
    assert min_ratio == 1.0 and max_ratio == 1.0
    # complete graph: max ratio is (n-1)/(n*y^d)
    cloud = make_cloud([0.0, 0.1, 0.2, 0.3])
    summ_full = degree_summary(cloud, 10.0)
    _, max_ratio = degree_ratios(summ_full, 10.0, 1)
    assert max_ratio == 3 / (4 * 10.0)


def test_degree_ratio_rejects_y_zero():
    summ = DegreeSummary([0, 0])
    with pytest.raises(ValueError):
        degree_ratios(summ, 0.0, 1)


@pytest.mark.parametrize("y", [1e154, 1e200])  # n * y^d overflows; y^d too at 1e200
def test_degree_ratio_refuses_an_overflowing_scale(y):
    with pytest.raises(ValueError) as refused:
        degree_ratios(DegreeSummary([1, 1, 0]), y, 2)
    assert str(refused.value) == f"n * y^d overflows for y={y}, d=2"


@pytest.mark.parametrize(
    "degrees, y, lam, d",
    [
        ([0], 0.5, 1.0, 1),  # n < 2
        ([0, 0], -0.1, 1.0, 1),
        ([0, 0], math.nan, 1.0, 1),
        ([0, 0], 0.5, 1.0, 0),
        ([0, 0], 0.5, 1.0, 2.0),  # d not an integer
        ([0, 0], 0.5, 1.0, True),
    ],
)
def test_ratio_and_gap_refuse_bad_inputs(degrees, y, lam, d):
    summ = DegreeSummary(degrees)
    with pytest.raises(ValueError):
        degree_ratios(summ, y, d)
    with pytest.raises(ValueError):
        edge_density_gap(summ, y, lam, d)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
def test_gap_refuses_bad_rate(lam):
    with pytest.raises(ValueError):
        edge_density_gap(DegreeSummary([1, 1]), 0.5, lam, 1)


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
        min_ratio, max_ratio = degree_ratios(summ, y, d)
        assert min_ratio <= max_ratio
        assert max_ratio >= 2 * summ.epsilon_n / (n**2 * y**d) - 1e-12
