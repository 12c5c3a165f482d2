"""l-infinity geometry: a uniform-grid fixed-radius index, the sorted-window
sweep, and the brute-force pairwise scan that serves as the correctness
oracle of both.

The grid is the fixed-radius cell method of Bentley, Stanat & Williams
(IPL 6(6), 1977). With cell_size >= the query radius, a radius-y query only
has to scan the 3^d cells around a point. For every d, each cell has one
int64 key, so one sorted key array and one ``searchsorted`` serve every cell
lookup. The index stores only its cells and the key delta of each of the
3^d offsets. Pair enumeration walks the occupied cells one offset at a time;
a single-point query looks up its own cell and its 3^d - 1 neighbour cells at
once, and walks nothing.

Along one axis a radius-y neighbourhood is a window of the sorted
coordinates, so ``sorted_window_ends`` finds every window without
enumerating a pair, and searches only the windows whose first gap is within
y. At d = 1 the windows are the degrees. At d >= 2 the degree and y-grid
edge counts sort on the last axis and build the grid on the other d - 1
axes only, so its cells are columns. Candidate pairs are then member
positions in column order, each paired only with the members of its own and
adjacent columns inside its last-axis window, expanded from contiguous runs
in vectorized chunks; the Python-level work is O(3^(d-1)) steps plus one
per chunk, not O(n) or O(pairs).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Set, Tuple

import numpy as np

from .model import PointCloud, _check_int, _check_nonnegative

_PAIR_CHUNK = 1 << 20  # distance-matrix entries per brute-force row block
_CANDIDATE_CHUNK = 1 << 15  # candidate pairs per chunk
_MAX_AXES = 12  # a walk visits 3^k cell offsets in Python; 3^12 takes seconds
_COORD_LIMIT = 2.0**62  # cell coordinates stay below this, so they fit int64


def _fit_cells(points: np.ndarray, cell_size: float) -> Tuple[np.ndarray, float, List[int]]:
    """Cell coordinates of ``points`` shifted so the lowest occupied cell is 1
    on every axis, the cell width used, and the per-axis key radix (occupied
    span plus a one-cell margin on each side, so +-1 neighbours have keys).

    The width is ``cell_size`` unless that grid's keys would overflow int64,
    where two cells could share a key. Then the width grows until the exact
    radix product fits. Any width >= the query radius yields a superset of
    the candidate pairs, and callers filter by distance, so coarsening never
    changes a result.
    """
    d = points.shape[1]
    while True:
        scaled = np.floor(points / cell_size)
        if float(scaled.max()) < _COORD_LIMIT:
            coords = scaled.astype(np.int64)
            lo = coords.min(axis=0) - 1
            radix = [int(h) - int(l) + 2 for l, h in zip(lo, coords.max(axis=0))]
            excess = math.prod(radix).bit_length() - 63
            if excess <= 0:
                return coords - lo, cell_size, radix
            cell_size *= 2.0 ** max(1.0, excess / d)
        else:
            cell_size = max(2.0 * cell_size, float(points.max()) / (_COORD_LIMIT / 4))


class GridIndex:
    """Uniform grid over a point cloud; cell (c1..cd) holds the vertices whose
    point lies in [c_k*cell_size, (c_k+1)*cell_size) along every axis.

    A cell's key is a mixed radix over its coordinates, axis 0 most
    significant, so keys sort like coordinate tuples. ``cell_size`` is the
    requested width unless the keys would overflow int64; then it is the
    coarser width actually used (see ``_fit_cells``).

    It stores its cells and the key delta of each neighbour offset.
    """

    def __init__(self, cloud: PointCloud, cell_size: float):
        if not cell_size > 0.0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        if cloud.d > _MAX_AXES:
            raise ValueError(f"the grid index supports at most {_MAX_AXES} axes, got {cloud.d}")
        self.cloud = cloud
        shifted, self.cell_size, radix = _fit_cells(cloud.points, float(cell_size))
        keys = shifted[:, 0]
        for k in range(1, cloud.d):
            keys = keys * radix[k] + shifted[:, k]
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        )
        self._members = order  # vertex ids grouped by cell
        self._starts = np.concatenate((boundaries, [len(order)]))
        self._cell_keys = sorted_keys[boundaries]  # ascending
        self._vertex_keys = keys
        offsets = np.zeros(1, dtype=np.int64)
        for k in range(cloud.d):
            # Axis 0 outermost: every radix is >= 3, so the deltas ascend, offset
            # 0 is the middle one, and the lexicographically positive follow it.
            offsets = (offsets[:, None] + np.array([-1, 0, 1]) * math.prod(radix[k + 1:])).ravel()
        self._offset_keys = offsets

    @property
    def n_cells(self) -> int:
        return len(self._cell_keys)

    def members(self, group: int) -> np.ndarray:
        return self._members[self._starts[group]:self._starts[group + 1]]

    def _groups_of(self, keys):
        """Group ids of cell keys, -1 where the cell is unoccupied."""
        pos = np.minimum(np.searchsorted(self._cell_keys, keys), self.n_cells - 1)
        return np.where(self._cell_keys[pos] == keys, pos, -1)


def build_grid_index(cloud: PointCloud, cell_size: float) -> GridIndex:
    """Index ``cloud`` with the given cell size (O(n log n) construction)."""
    return GridIndex(cloud, cell_size)


def _blocks(index: GridIndex) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Matched groups (delta, A, B) at offset 0, then at each lexicographically
    positive offset in {-1, 0, 1}^d that has any: occupied cell B[j] lies at
    key delta ``delta`` from cell A[j], so every unordered pair of same or
    adjacent occupied cells appears once. Yielded per offset: the pair chunks
    restart at each, which keeps their left positions ascending, and packing
    all offsets into full chunks raised peak memory by half on d = 2 clouds."""
    deltas = index._offset_keys
    groups = np.arange(index.n_cells, dtype=np.int64)
    for delta in deltas[len(deltas) // 2:]:
        neighbor = index._groups_of(index._cell_keys + delta)
        present = neighbor >= 0
        if present.any():  # the method: np.any's dispatch costs a fifth of the walk
            yield int(delta), groups[present], neighbor[present]


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + l) over the pairs (s, l)."""
    # In place: a chunk of candidate pairs then holds one chunk-sized
    # temporary less, about 1 MB of peak RSS on a d = 2 cloud of 2e4 points.
    out = np.repeat(starts - np.cumsum(lens) + lens, lens)
    out += np.arange(len(out), dtype=np.int64)
    return out


def _run_pairs(
    left: np.ndarray, run_start: np.ndarray, run_len: np.ndarray, chunk: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every pair (left[k], run_start[k] + j) with 0 <= j < run_len[k], in k
    order, yielded in chunks of whole runs: at most ``chunk`` pairs, or one
    run when that run alone is longer. Every run_len must be positive, so no
    chunk is empty."""
    cum = np.cumsum(run_len)
    first = done = 0  # the first run of the next chunk, and the pairs before it
    while first < len(cum):
        stop = max(int(np.searchsorted(cum, done + chunk, side="right")), first + 1)
        lens = run_len[first:stop]
        yield np.repeat(left[first:stop], lens), _ranges(run_start[first:stop], lens)
        first, done = stop, int(cum[stop - 1])


def iter_candidate_pairs(
    index: GridIndex, starts: np.ndarray, ends: np.ndarray, chunk: int = _CANDIDATE_CHUNK
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every unordered pair of member positions (indices into
    ``index._members``) whose cells are the same or adjacent and whose
    members lie in each other's window, exactly once, as chunked (left,
    right) position arrays.

    The indexed vertex ids are ranks on one further axis, and rank r's window
    on it is ``[starts[r], ends[r])``, r included; both bounds are
    nondecreasing in r, so s lies in r's window exactly when r lies in s's.
    The stable sort leaves each cell's members in ascending rank, so (cell,
    rank) is one ascending key over the positions, and each window bound is
    one ``searchsorted`` on it with needles that are already ascending.

    Within a chunk, left ascends and every right exceeds its left, so a
    chunk's positions all lie at or after its first left. A chunk holds at
    most ``max(chunk, largest cell)`` pairs and never mixes the blocks of two
    offsets: offset 0 pairs each position with the later members of its own
    cell below its window end, and every other offset pairs each position
    with the members of the cell at that offset inside its window, whose key,
    and so whose positions, are larger.

    This is a superset of the pairs at l-inf distance <= cell_size on the
    indexed axes; callers filter by actual distance.
    """
    ranks = index._members
    n = len(ranks)
    bounds = index._starts
    counts = np.diff(bounds)
    keyed = np.repeat(np.arange(index.n_cells, dtype=np.int64) * n, counts) + ranks
    for delta, groups_a, groups_b in _blocks(index):
        reps = counts[groups_a]
        left = _ranges(bounds[groups_a], reps)
        cell_base = np.repeat(groups_b * n, reps)
        # Offset 0 is the same cell: a position pairs with the members after it.
        lo = left + 1 if delta == 0 else np.searchsorted(keyed, cell_base + starts[ranks[left]])
        lens = np.searchsorted(keyed, cell_base + ends[ranks[left]]) - lo
        has = lens > 0
        block = (left[has], lo[has], lens[has])
        del reps, left, cell_base, lo, lens, has  # a suspended generator keeps its locals
        yield from _run_pairs(*block, chunk)
        del block


# No caller in the package: kept only because the benchmark tracer patches it.
def iter_matched_blocks(index: GridIndex) -> Iterator[Tuple[np.ndarray, np.ndarray, bool]]:
    """Member-id blocks (A, B, same_cell) covering every same-or-adjacent cell
    pair once: (A, A, True) per cell, (A, B, False) per adjacent cell pair."""
    for delta, groups_a, groups_b in _blocks(index):
        for g, h in zip(groups_a, groups_b):
            yield index.members(g), index.members(h), delta == 0


def neighbors_within(index: GridIndex, i: int, y: float) -> Set[int]:
    """Vertex ids j != i with ||X_i - X_j||_inf <= y (boundary inclusive).

    Requires y <= cell_size so i's cell and its 3^d - 1 neighbour cells hold them all.
    """
    return set(_neighbor_ids(index, i, y).tolist())


def _neighbor_ids(index: GridIndex, i: int, y: float) -> np.ndarray:
    """``neighbors_within`` as an ascending int64 array."""
    n = index.cloud.n
    i = _check_int(i, "vertex id")
    if not 0 <= i < n:
        raise IndexError(f"vertex id {i} out of range for n={n}")
    _check_nonnegative(y, "y")
    if y > index.cell_size:
        raise ValueError(
            f"y={y} exceeds cell_size={index.cell_size}; rebuild the index"
        )
    groups = index._groups_of(index._vertex_keys[i] + index._offset_keys)
    cand = np.concatenate([index.members(g) for g in groups[groups >= 0]])
    near = np.abs(index.cloud.points[cand] - index.cloud.points[i]) <= y
    # Rows of a contiguous (d, k) copy reduce several times faster than (k, d).
    hits = cand[np.logical_and.reduce(np.ascontiguousarray(near.T))]
    return np.sort(hits[hits != i])


def sorted_window_ends(xs: np.ndarray, y: float) -> np.ndarray:
    """For ascending ``xs`` and finite y >= 0, ``ends[i]`` is one past the
    last j with fl(xs[j] - xs[i]) <= y, so i's forward window is
    [i + 1, ends[i]).

    This is the d = 1 sort-sweep of Bentley, Stanat & Williams: no pair is
    enumerated. The subtraction is monotone in j, so a window reaches past
    i + 1 only if fl(xs[i + 1] - xs[i]) <= y; every other window is empty,
    and only the windows that pass this gap test are searched, which at
    sparse y is almost none. ``searchsorted`` on ``xs + y`` can land off by
    a run where fl(xs[i] + y) and the oracle's fl(xs[j] - xs[i]) round
    differently, so each searched window is repaired against the subtraction
    itself until nothing moves. By monotonicity a window only ever grows or
    only ever shrinks, and each step jumps a whole run of equal coordinates:
    the step count is bounded by the distinct values in the rounding band,
    not by their multiplicity.
    """
    n = len(xs)
    ends = np.arange(1, n + 1)
    todo = np.flatnonzero(xs[1:] - xs[:-1] <= y)
    base = xs[todo]  # kept aligned with todo, so it is gathered once
    e = np.searchsorted(xs, base + y, side="right")
    while todo.size:
        ends[todo] = e
        after = xs[np.minimum(e, n - 1)]  # first point outside the window
        last = xs[e - 1]  # last point inside it; e > i always
        grow = (e < n) & (after - base <= y)
        moved = grow | (last - base > y)
        todo, base, grow, after, last = (a[moved] for a in (todo, base, grow, after, last))
        e = np.where(
            grow,
            np.searchsorted(xs, after, side="right"),
            np.searchsorted(xs, last, side="left"),
        )
    return ends


def brute_force_edges(cloud: PointCloud, y: float) -> np.ndarray:
    """All unordered pairs at l-inf distance <= y by an O(n^2) scan, as the
    rows (i, j), i < j, of an (m, 2) int64 array in row-major order; shape
    (0, 2) when there is none. The oracle of every engine, never a default path.
    """
    _check_nonnegative(y, "y")
    n, pts = cloud.n, cloud.points
    ids = np.arange(n)
    blocks = []
    row_chunk = max(1, _PAIR_CHUNK // n)
    for lo in range(0, n, row_chunk):
        hi = min(lo + row_chunk, n)
        hit = ids[lo:hi, None] < ids
        for k in range(cloud.d):  # per axis: a max over axis 2 is several times slower
            hit &= np.abs(pts[lo:hi, k, None] - pts[None, :, k]) <= y
        ii, jj = np.nonzero(hit)
        blocks.append(np.column_stack((ii + lo, jj)))
    return np.concatenate(blocks).astype(np.int64, copy=False)
