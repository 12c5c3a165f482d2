import math
import time

import numpy as np
import pytest

from conftest import (
    gap_boundary_clouds,
    make_cloud,
    scalar_edges,
    spy_on_candidate_pairs,
    tie_and_overflow_clouds,
)
from exprgg import (
    brute_force_edges,
    degree_summary,
    edge_list,
    sample_exponential_cloud,
)
from exprgg.graphstats import _edge_counts_multi
from exprgg.sampling import derive_replication_seed, uniform_stream
from exprgg.spatial import (
    _CANDIDATE_CHUNK,
    _fit_cells,
    build_grid_index,
    iter_candidate_pairs,
    sorted_window_ends,
)


def cell_layout(index, cloud):
    """The member ids of each group of ``index`` over ``cloud``, keyed by cell
    coordinates, after asserting that all members of a group share one
    floor(points / cell_size) cell and that no two groups share a cell, so
    two cells merged under one key fail."""
    layout = {}
    for g in range(index.n_cells):
        ids = index.members(g)
        cells = np.floor(cloud.points[ids] / index.cell_size).astype(np.int64)
        assert np.all(cells == cells[0])
        cell = tuple(cells[0].tolist())
        assert cell not in layout
        layout[cell] = ids.tolist()
    return layout


def vertex_keys(cloud, radius):
    """Each vertex's cell key, computed from ``_fit_cells`` as the index does."""
    shifted, _, radix = _fit_cells(cloud.points, radius)
    keys = shifted[:, 0]
    for k in range(1, cloud.d):
        keys = keys * radix[k] + shifted[:, k]
    return keys


def with_constant_last_axis(cloud):
    """``cloud`` with one more axis, 0 everywhere: every pair lies in every
    last-axis window, so the column grid of the edge list covers exactly the
    axes of ``cloud``."""
    return make_cloud(np.column_stack((cloud.points, np.zeros(cloud.n))))


def test_grid_single_point_at_origin():
    cloud = make_cloud([[0.0, 0.0]])
    assert cell_layout(build_grid_index(cloud.points, 1.0), cloud) == {(0, 0): [0]}


def test_grid_two_cells():
    cloud = make_cloud([0.5, 1.5])
    assert cell_layout(build_grid_index(cloud.points, 1.0), cloud) == {(0,): [0], (1,): [1]}


def test_grid_refuses_a_negative_radius_and_fits_zero():
    points = make_cloud([0.0, 0.0, 3.0]).points
    for radius in (-1.0, math.nan):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            build_grid_index(points, radius)
    # Radius 0 gets the width floor, 2^-52 of the extent: the grid still has cells.
    index = build_grid_index(points, 0.0)
    assert index.cell_size == 3.0 * 2.0**-52
    assert cell_layout(index, make_cloud(points)) == {(0,): [0, 1], (2**52,): [2]}


def test_grid_partitions_all_vertices():
    cloud = sample_exponential_cloud(10**4, 2, 1.0, seed=5)
    index = build_grid_index(cloud.points, 0.25)
    assert index.cell_size == 0.25
    # and every vertex sits in the cell its coordinates dictate
    seen = sum(cell_layout(index, cloud).values(), [])
    assert sorted(seen) == list(range(10**4))


def test_neighbors_boundary_inclusive():
    cloud = make_cloud([[0.0, 0.0], [0.25, 0.25]])
    assert edge_list(cloud, 0.25).tolist() == [[0, 1]]
    assert edge_list(cloud, np.nextafter(0.25, 0.0)).shape == (0, 2)


def test_neighbors_empty_at_y_zero():
    for points in ([0.0, 0.5, 1.25], [[0.0, 1.0], [0.5, 1.0], [1.25, 1.0]]):
        edges = edge_list(make_cloud(points), 0.0)
        assert edges.shape == (0, 2) and edges.dtype == np.int64


def test_neighbors_never_returns_self():
    # Coincident points are adjacent to each other, at y = 0 too, and never
    # to themselves.
    for points in ([[0.0], [0.0], [0.0]], [[0.0, 2.0], [0.0, 2.0], [0.0, 2.0]]):
        for y in (0.0, 0.5):
            assert edge_list(make_cloud(points), y).tolist() == [[0, 1], [0, 2], [1, 2]]


def test_neighbors_found_at_a_lexicographically_negative_offset():
    # On the column grid over the first two axes, cell (0, 1) lies at offset
    # (-1, +1) from cell (1, 0), an offset whose key delta is negative; the
    # pair walk visits only offset 0 and the positive ones, and finds the
    # pair from the other side, at (+1, -1).
    cloud = make_cloud([[1.5, 0.5, 0.0], [0.5, 1.5, 0.0], [5.0, 5.0, 0.0]])
    assert edge_list(cloud, 1.0).tolist() == [[0, 1]]
    assert edge_list(cloud, 0.5).shape == (0, 2)


def test_brute_force_hand_example():
    # distances 0.5, 0.7, 1.2: at y = 0.6 only the first pair connects; at
    # y = 0.7 the boundary-inclusive rule admits the second as well
    cloud = make_cloud([0.0, 0.5, 1.2])
    assert brute_force_edges(cloud, 0.6).tolist() == [[0, 1]]
    assert brute_force_edges(cloud, 0.7).tolist() == [[0, 1], [1, 2]]
    none = brute_force_edges(make_cloud([0.0, 2.0]), 1.0)
    assert none.shape == (0, 2) and none.dtype == np.int64
    with pytest.raises(ValueError, match="y must be >= 0, got nan"):
        brute_force_edges(cloud, math.nan)


def test_grid_matches_brute_force_on_random_clouds():
    # The edge list of the column engine against the oracle, row for row.
    cases = []
    for case in range(100):
        case_seed = derive_replication_seed(99, case)
        u = uniform_stream(case_seed, 4)
        n = 2 + int(u[0] * 398)
        d = 1 + int(u[1] * 5) % 5  # up to 3^5 = 243 offsets
        lam = 0.5 + 1.5 * u[2]
        y = float(u[3]) * 1.5 / lam
        cloud = sample_exponential_cloud(n, d, lam, derive_replication_seed(case_seed, 0))
        # Also at y = the oracle's distance between vertices 0 and 1, a tie.
        realised = float(np.abs(cloud.points[0] - cloud.points[1]).max())
        cases += [(cloud, y), (cloud, realised)]
    cases += [(cloud, y) for cloud, ys in tie_and_overflow_clouds() for y in (0.0, *ys)]
    # Many axes, each cloud with edges at y = 1: 60 points index one of them
    # and filter the others by distance.
    many_axes = [sample_exponential_cloud(60, d, 1.0, seed=d) for d in (6, 7, 8, 12, 13)]
    assert all(len(brute_force_edges(cloud, 1.0)) for cloud in many_axes)
    cases += [(cloud, 1.0) for cloud in many_axes]
    mismatches = []
    for case, (cloud, y) in enumerate(cases):
        got = edge_list(cloud, y)
        if got.dtype != np.int64 or not np.array_equal(got, brute_force_edges(cloud, y)):
            mismatches.append(case)
    assert mismatches == []


def test_multi_axis_column_grids_match_brute_force(monkeypatch):
    # The column grid indexes k = min(d - 1, max(1, floor(log_9 n))) axes,
    # so n = 9^k - 1 and n = 9^k sit on either side of a step in k, and it
    # filters every other axis by distance alone. The edge list, the degrees
    # and the y-grid counts must all match the oracle.
    rng = np.random.default_rng(26)
    shapes = [(9**k, d) for k in (2, 3, 4) for d in (k + 1, k + 3)]
    shapes += [(9**3, d) for d in (14, 20, 40)]
    clouds = []
    for n, d in shapes:
        y = -math.log(1.0 - (6.0 / (n - 1)) ** (1.0 / d))  # mean degree about 6
        clouds.append((rng.exponential(size=(n, d)), (y / 4, y / 2, y)))
    # A 1/8 lattice, where many pairs lie exactly y apart.
    clouds.append((rng.integers(0, 24, size=(9**3, 5)) / 8.0, (0.25, 0.5, 1.0)))
    calls = spy_on_candidate_pairs(monkeypatch)
    for points, ys in clouds:
        everything = brute_force_edges(make_cloud(points), ys[-1])
        for n in (len(points) - 1, len(points)):
            # The first n points: their edges are the oracle's rows that
            # leave out the later points, so one scan serves both n.
            cloud, d = make_cloud(points[:n]), points.shape[1]
            expected = everything[everything[:, 1] < n]
            assert len(expected), (n, d)
            i, j = expected.T
            dist = np.abs(cloud.points[i] - cloud.points[j]).max(axis=1)
            counts = [np.count_nonzero(dist <= y) for y in ys]
            assert np.array_equal(_edge_counts_multi(cloud, np.array(ys)), counts), (n, d)
            assert np.array_equal(edge_list(cloud, ys[-1]), expected), (n, d)
            calls.clear()
            degrees = degree_summary(cloud, ys[-1]).degrees
            assert np.array_equal(degrees, np.bincount(expected.ravel(), minlength=n)), (n, d)
            (call,) = calls
            k = min(d - 1, max(m for m in range(1, 8) if 9**m <= n))  # every n here is >= 9
            assert len(call["index"]._offset_keys) == (3**k + 1) // 2, (n, d)


def test_candidate_pairs_cover_adjacent_cells_once_in_bounded_chunks():
    # The columns of degree_summary: vertex id = rank on the last axis, a
    # grid on the other axes, and each rank's last-axis window [starts,
    # ends) found here by a scan of the oracle's own subtraction.
    rng = np.random.default_rng(11)
    cases = [
        (cloud, y) for cloud, ys in tie_and_overflow_clouds() if cloud.d >= 2 for y in (0.0, *ys)
    ]
    cases += [
        (make_cloud(rng.exponential(size=(400, d))), y) for d in (2, 3, 4) for y in (0.1, 0.4)
    ]
    # A lone point in the first column has no same-cell run; the next
    # column's first run is longer than 7, so a chunk could start with only
    # empty runs.
    cases.append((make_cloud([[0.0, 0.0]] + [[2.5, 0.5]] * 9), 1.0))
    for cloud, y in cases:
        order = np.argsort(cloud.points[:, -1])
        xs = cloud.points[order, -1]
        in_window = np.abs(xs[:, None] - xs[None, :]) <= y  # one run per row
        starts = in_window.argmax(axis=1)
        ends = len(xs) - in_window[:, ::-1].argmax(axis=1)
        indexed = cloud.points[order, :-1]
        index = build_grid_index(indexed, y)
        ranks = index._members
        cells = np.floor(indexed[ranks] / index.cell_size)
        near = np.abs(cells[:, None, :] - cells[None, :, :]).max(axis=2) <= 1
        near &= in_window[np.ix_(ranks, ranks)]
        expected = set(zip(*np.nonzero(np.triu(near, 1))))
        largest = int(np.diff(index._starts).max())
        for chunk in (1, 7, _CANDIDATE_CHUNK):
            pairs = []
            for left, right in iter_candidate_pairs(index, starts, ends, chunk):
                assert 0 < len(left) <= max(chunk, largest)
                assert np.all(np.diff(left) >= 0) and np.all(left < right)
                pairs += zip(left.tolist(), right.tolist())
            assert len(pairs) == len(set(pairs)), (cloud.d, y, chunk)
            assert set(pairs) == expected, (cloud.d, y, chunk)


def test_sorted_window_ends_matches_a_per_point_scan():
    def scan(xs, y):
        return np.array([np.flatnonzero(xs - x <= y).max() + 1 for x in xs])

    # Coordinates the sweep's callers never pass (negative, mixed magnitude)
    # make fl(x_i + y) miss several distinct values at once: from -2^53 at
    # y = 2^53, fl(x + 2^53) rounds to 2^53 for every x in [0.1, 1], while
    # -2^53 + 2^53 = 0 starts the window before all of them.
    cases = [(np.array([-2.0**53, *(k / 10 for k in range(1, 11))]), 2.0**53)]
    # Negative and mixed-sign coordinates at a gap of exactly y, one ulp
    # below it, and a y that isolates every point.
    signed = np.array([-2.0, -1.75, -0.5, -0.25, 0.0, 0.25, 1.5])
    cases += [(signed, y) for y in (0.125, float(np.nextafter(0.25, 0.0)), 0.25, 1.25)]
    cases += [(np.array([-10.0, -7.0, -4.0, -1.0]), 2.0)]
    for cloud, ys in tie_and_overflow_clouds() + gap_boundary_clouds():
        if cloud.d == 1:
            xs = np.sort(cloud.points[:, 0])
            cases += [(xs, y) for y in ys]
    assert any(np.all(np.diff(xs) > y) for xs, y in cases)  # some return None
    for xs, y in cases:
        want = scan(xs, y)
        got = sorted_window_ends(xs, y)
        # None stands for every window empty, and only for that.
        empty = np.array_equal(want, np.arange(1, len(xs) + 1))
        assert (got is None) == empty, y
        assert empty or np.array_equal(got, want), y


def test_sorted_window_ends_jumps_runs_of_equal_coordinates():
    # One window must grow (0.2 + fl(0.9 - 0.2) < 0.9) or shrink
    # (0.1 + (0.1 - ulp) >= 0.2, but 0.2 - 0.1 > 0.1 - ulp) across a run of a
    # million equal coordinates. Whole-run jumps take a few milliseconds;
    # stepping one position at a time would take a million passes, tens of
    # seconds, which the generous time limit catches.
    run = 10**6
    start = time.perf_counter()
    grow = sorted_window_ends(np.r_[0.2, np.full(run, 0.9)], 0.9 - 0.2)
    shrink = sorted_window_ends(np.r_[0.1, np.full(run, 0.2)], np.nextafter(0.1, 0.0))
    elapsed = time.perf_counter() - start
    assert grow[0] == run + 1 and shrink[0] == 1
    assert np.all(grow[1:] == run + 1) and np.all(shrink[1:] == run + 1)
    assert elapsed < 5.0


def test_grid_widens_cells_whose_keys_would_overflow(monkeypatch):
    # At cell_size 1 the key radix product of these cells exceeds 2^63, and
    # cells (1, 1) and (2^32 + 1, 1) would share a key modulo 2^64. 77 more
    # points, 3 apart on a line inside those bounds and far from the first
    # four, join nothing: n = 81 = 9^2, so the column grid indexes both axes.
    far = [[1.0 + 3.0 * k, 2.0**31] for k in range(77)]
    cloud = make_cloud([[1.0, 1.0], [1.0 + 2.0**32, 1.0], [1.0, 2.0**32 - 2], [1.5, 1.5]] + far)
    index = build_grid_index(cloud.points, 1.0)
    assert index.cell_size > 1.0
    assert sorted(sum(cell_layout(index, cloud).values(), [])) == list(range(81))
    # The edge list builds that widened grid as its column grid.
    calls = spy_on_candidate_pairs(monkeypatch)
    wide = with_constant_last_axis(cloud)
    assert edge_list(wide, 1.0).tolist() == brute_force_edges(wide, 1.0).tolist() == [[0, 3]]
    assert [call["index"].cell_size for call in calls] == [index.cell_size]


def test_grid_order_is_a_stable_argsort_of_the_cell_keys():
    # One sort of key * n + id must group the vertices exactly as a stable
    # argsort of the keys would, ties included, also on the widened grid.
    for cloud, ys in tie_and_overflow_clouds():
        for y in (0.0, *ys):
            index = build_grid_index(cloud.points, y)
            keys = vertex_keys(cloud, y)
            order = np.argsort(keys, kind="stable")
            cell_keys, firsts = np.unique(keys[order], return_index=True)
            assert np.array_equal(index._members, order), (cloud.d, y)
            assert np.array_equal(index._cell_keys, cell_keys), (cloud.d, y)
            assert np.array_equal(index._starts, np.append(firsts, cloud.n)), (cloud.d, y)
            assert np.array_equal(index._member_keys, keys[order] * cloud.n + order)


def test_grid_widens_cells_whose_keys_times_n_would_overflow(monkeypatch):
    # At cell_size 1 the radix product, (2^30 + 3)(2^29 + 3), fits int64, but
    # times the 81 points it does not, so two sort keys key * n + id could
    # collide. Two axes, so that each span stays far below 2^52 cells and the
    # column grid of the edge list widens by this rule alone; n = 81 = 9^2, so
    # that grid indexes both.
    points = [[0.0, 0.0], [2.0**30, 2.0**29]] + [[0.5 * k, 0.5 * k] for k in range(79)]
    cloud = make_cloud(points)
    index = build_grid_index(cloud.points, 1.0)
    radix = (2**30 + 3) * (2**29 + 3)
    assert radix.bit_length() <= 63 and (radix * 81).bit_length() > 63
    assert index.cell_size > 1.0
    assert (int(index._cell_keys.max()) + 2) * cloud.n < 2**63
    assert sorted(sum(cell_layout(index, cloud).values(), [])) == list(range(81))
    keys = vertex_keys(cloud, 1.0)
    assert np.array_equal(index._members, np.argsort(keys, kind="stable"))
    # The edge list builds that widened grid as its column grid.
    calls = spy_on_candidate_pairs(monkeypatch)
    wide = with_constant_last_axis(cloud)
    expected = brute_force_edges(wide, 1.0)
    assert len(expected) and np.array_equal(edge_list(wide, 1.0), expected)
    assert [call["index"].cell_size for call in calls] == [index.cell_size]


def test_cell_bounds_come_from_the_coordinate_bounds():
    # _fit_cells takes each axis's cell range from its lowest and highest
    # coordinate alone; the cells of every point must then lie in that range,
    # shifted so the lowest is 1, with a one-cell margin in the radix.
    cases = [
        (sample_exponential_cloud(2000, d, 1.0, seed=d), y) for d in (1, 2, 3) for y in (0.0, 0.1)
    ]
    cases += [(cloud, y) for cloud, ys in tie_and_overflow_clouds() for y in (0.0, *ys)]
    # Far from the origin at radius 1: a cell coordinate would pass 2^62, so
    # the width must grow for the coordinate limit.
    far = make_cloud(2.0**70 + np.arange(50) * 2.0**18)
    cases.append((far, 1.0))
    for cloud, y in cases:
        shifted, cell_size, radix = _fit_cells(cloud.points, y)
        offset = np.floor(cloud.points / cell_size).astype(np.int64) - shifted
        assert np.all(offset == offset[0]), (cloud.d, y)
        assert np.all(shifted.min(axis=0) == 1), (cloud.d, y)
        assert np.array_equal(shifted.max(axis=0) + 2, radix), (cloud.d, y)
        assert math.prod(radix) * cloud.n < 2**63, (cloud.d, y)
    assert _fit_cells(far.points, 1.0)[1] > 1.0


def test_grid_far_from_the_origin_starts_below_the_coordinate_limit():
    # Lattices at 2^70, indexed at radius 1: the largest coordinate is 2^70
    # radii, so the width starts at 2^-61 of it and every cell coordinate is
    # below 2^62. The lattice step is ulp(2^70) = 2^18, so at y = 1 only
    # coincident points are adjacent, and at y = 2^18 lattice neighbours too.
    rng = np.random.default_rng(7)
    for d in (2, 3):
        cloud = make_cloud(2.0**70 + rng.integers(0, 4, size=(200, d)) * 2.0**18)
        index = build_grid_index(cloud.points, 1.0)
        assert index.cell_size >= 2.0**70 / 2.0**61
        assert np.floor(cloud.points / index.cell_size).max() < 2.0**62
        assert sorted(sum(cell_layout(index, cloud).values(), [])) == list(range(200))
        for y in (1.0, 2.0**18):
            expected = brute_force_edges(cloud, y)
            assert len(expected), (d, y)
            assert np.array_equal(edge_list(cloud, y), expected), (d, y)
            degrees = np.bincount(expected.ravel(), minlength=cloud.n)
            assert np.array_equal(degree_summary(cloud, y).degrees, degrees), (d, y)


def test_degree_pass_enumerates_no_same_cell_pair(monkeypatch):
    # The edge-d2 workload's size: n = 20,000 at d = 2, c = 2. Every column is
    # as wide as y, so every same-column pair is counted, and the degree pass
    # enumerates only adjacent-column pairs, about two-thirds of all candidates.
    n = 20000
    y = math.sqrt(2 * math.log(n) / n)
    calls = spy_on_candidate_pairs(monkeypatch)
    degree_summary(sample_exponential_cloud(n, 2, 1.0, seed=42), y)
    (call,) = calls
    assert call["counted"].all() and call["same_cell"] == 0
    unmasked = iter_candidate_pairs(call["index"], call["starts"], call["ends"])
    everything = sum(len(left) for left, _ in unmasked)
    assert 0.6 < call["pairs"] / everything < 0.72, (call["pairs"], everything)


def test_brute_force_matches_scalar_loops():
    cloud = sample_exponential_cloud(60, 2, 1.0, seed=3)
    y = 0.4
    edges = brute_force_edges(cloud, y)
    assert edges.dtype == np.int64
    # row-major: sorted by i, then j
    assert edges.tolist() == sorted(map(list, scalar_edges(cloud.points, y)))
