import math
import time

import numpy as np
import pytest

from conftest import (
    gap_boundary_clouds,
    make_cloud,
    scalar_edges,
    tie_and_overflow_clouds,
)
from exprgg import (
    brute_force_edges,
    build_grid_index,
    neighbors_within,
    sample_exponential_cloud,
    spatial,
)
from exprgg.sampling import derive_replication_seed, uniform_stream
from exprgg.spatial import (
    _CANDIDATE_CHUNK,
    _neighbor_ids,
    iter_candidate_pairs,
    sorted_window_ends,
)


def cell_layout(index):
    """The member ids of each group of ``index``, keyed by cell coordinates,
    after asserting that all members of a group share one
    floor(points / cell_size) cell and that no two groups share a cell, so
    two cells merged under one key fail."""
    layout = {}
    for g in range(index.n_cells):
        ids = index.members(g)
        cells = np.floor(index.cloud.points[ids] / index.cell_size).astype(np.int64)
        assert np.all(cells == cells[0])
        cell = tuple(cells[0].tolist())
        assert cell not in layout
        layout[cell] = ids.tolist()
    return layout


def test_grid_single_point_at_origin():
    index = build_grid_index(make_cloud([[0.0, 0.0]]), 1.0)
    assert cell_layout(index) == {(0, 0): [0]}


def test_grid_two_cells():
    index = build_grid_index(make_cloud([0.5, 1.5]), 1.0)
    assert cell_layout(index) == {(0,): [0], (1,): [1]}


def test_grid_rejects_nonpositive_cell():
    with pytest.raises(ValueError):
        build_grid_index(make_cloud([0.0]), 0.0)


def test_grid_partitions_all_vertices():
    cloud = sample_exponential_cloud(10**4, 2, 1.0, seed=5)
    index = build_grid_index(cloud, 0.25)
    assert index.cell_size == 0.25
    # and every vertex sits in the cell its coordinates dictate
    seen = sum(cell_layout(index).values(), [])
    assert sorted(seen) == list(range(10**4))


def test_neighbors_boundary_inclusive():
    cloud = make_cloud([[0.0, 0.0], [0.25, 0.25]])
    index = build_grid_index(cloud, 0.25)
    assert neighbors_within(index, 0, 0.25) == {1}
    assert neighbors_within(index, 1, 0.25) == {0}


def test_neighbors_empty_at_y_zero():
    cloud = make_cloud([0.0, 0.5, 1.25])
    index = build_grid_index(cloud, 1.0)
    for i in range(3):
        assert neighbors_within(index, i, 0.0) == set()


def test_neighbors_never_returns_self():
    cloud = make_cloud([[0.0], [0.0], [0.0]])  # coincident points
    index = build_grid_index(cloud, 1.0)
    for i in range(3):
        hits = neighbors_within(index, i, 0.5)
        assert i not in hits
        assert hits == {0, 1, 2} - {i}


def test_neighbors_found_at_a_lexicographically_negative_offset():
    # Cell (0, 1) lies at offset (-1, +1) from cell (1, 0), an offset whose
    # key delta is negative; a query looks it up like any other.
    index = build_grid_index(make_cloud([[1.5, 0.5], [0.5, 1.5], [5.0, 5.0]]), 1.0)
    assert neighbors_within(index, 0, 1.0) == {1}
    assert neighbors_within(index, 1, 1.0) == {0}
    assert neighbors_within(index, 0, 0.5) == set()


def test_point_query_walks_no_cells(monkeypatch):
    # A query looks its neighbour keys up directly; the offset walk serves
    # pair enumeration only.
    def no_walk(index):
        raise AssertionError("a point query walked the cell offsets")

    monkeypatch.setattr(spatial, "_blocks", no_walk)
    for d in (3, 12):
        cloud = sample_exponential_cloud(60, d, 1.0, seed=d)
        index = build_grid_index(cloud, 1.0)
        ids = [_neighbor_ids(index, i, 1.0).tolist() for i in range(cloud.n)]
        got = [[i, j] for i in range(cloud.n) for j in ids[i] if i < j]
        assert got == brute_force_edges(cloud, 1.0).tolist(), d


def test_neighbors_rejects_bad_queries():
    cloud = make_cloud([0.0, 1.0])
    index = build_grid_index(cloud, 0.5)
    with pytest.raises(IndexError):
        neighbors_within(index, 5, 0.1)
    for bad in (True, False, 1.0, np.float64(2.0), "1"):
        with pytest.raises(ValueError, match="vertex id must be an integer"):
            neighbors_within(index, bad, 0.1)
    assert neighbors_within(index, np.int64(1), 0.5) == set()
    with pytest.raises(ValueError):
        neighbors_within(index, 0, 0.75)  # y > cell_size
    with pytest.raises(ValueError, match="y must be >= 0, got nan"):
        neighbors_within(index, 0, math.nan)


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
    cases += [(cloud, y) for cloud, ys in tie_and_overflow_clouds() for y in ys]
    # Many axes, each cloud with edges at y = 1, up to the 12-axis cap, where
    # a query looks up 3^12 neighbour keys and finds nearly all unoccupied.
    many_axes = [sample_exponential_cloud(60, d, 1.0, seed=d) for d in (6, 7, 8, 12)]
    assert all(len(brute_force_edges(cloud, 1.0)) for cloud in many_axes)
    cases += [(cloud, 1.0) for cloud in many_axes]
    mismatches = []
    for case, (cloud, y) in enumerate(cases):
        # Directed edges i * n + j, so a query that misses a neighbour its
        # partner's query finds fails.
        n, edges = cloud.n, brute_force_edges(cloud, y)
        expected = np.sort(np.concatenate((edges @ [n, 1], edges @ [1, n])))
        index = build_grid_index(cloud, y)
        got = []
        for i in range(n):
            ids = _neighbor_ids(index, i, y)
            assert ids.dtype == np.int64 and np.all(np.diff(ids) > 0), (case, i)
            assert ids.tolist() == sorted(neighbors_within(index, i, y)), (case, i)
            got.append(i * n + ids)
        if not np.array_equal(np.concatenate(got), expected):
            mismatches.append(case)
    assert mismatches == []


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
        index = build_grid_index(make_cloud(cloud.points[order, :-1]), max(y, 2.0**-40))
        ranks = index._members
        cells = np.floor(index.cloud.points[ranks] / index.cell_size)
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
    for xs, y in cases:
        assert np.array_equal(sorted_window_ends(xs, y), scan(xs, y)), y


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


def test_grid_widens_cells_whose_keys_would_overflow():
    # At cell_size 1 the key radix product of these cells exceeds 2^63, and
    # cells (1, 1) and (2^32 + 1, 1) would share a key modulo 2^64.
    cloud = make_cloud([[1.0, 1.0], [1.0 + 2.0**32, 1.0], [1.0, 2.0**32 - 2], [1.5, 1.5]])
    index = build_grid_index(cloud, 1.0)
    assert index.cell_size >= 1.0
    assert sorted(sum(cell_layout(index).values(), [])) == [0, 1, 2, 3]
    assert neighbors_within(index, 0, 1.0) == {3}
    assert neighbors_within(index, 1, 1.0) == set()


def test_brute_force_matches_scalar_loops():
    cloud = sample_exponential_cloud(60, 2, 1.0, seed=3)
    y = 0.4
    edges = brute_force_edges(cloud, y)
    assert edges.dtype == np.int64
    # row-major: sorted by i, then j
    assert edges.tolist() == sorted(map(list, scalar_edges(cloud.points, y)))
