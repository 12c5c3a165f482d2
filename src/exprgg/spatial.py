"""l-infinity geometry: a uniform-grid fixed-radius index, the sorted-window
sweep, and the brute-force pairwise scan that serves as the correctness
oracle of both.

The grid is the fixed-radius cell method of Bentley, Stanat & Williams
(IPL 6(6), 1977), over an (n, k) coordinate array. ``_fit_cells`` picks its
cell width >= the radius y, so every pair within y lies in the same or
adjacent cells. Each cell has one int64 key, so one sorted key array and one
``searchsorted`` serve every cell lookup. The index groups its vertices with
one ``np.sort`` of the int64 ``key * n + id``, which orders them as a stable
sort of the keys would, and stores its cells, that sorted array and the key
deltas of offset 0 and of the lexicographically positive offsets. Pair
enumeration walks the occupied cells one offset at a time.

Along one axis a radius-y neighbourhood is a window of the sorted
coordinates, so ``sorted_window_ends`` finds every window without
enumerating a pair, a fixed-size block of ranks at a time, and searches only
the windows whose first gap is within y. At d = 1 the windows are the
degrees and expand to the edges. At d >= 2 the degrees, the y-grid edge
counts and the edge list sort on the last axis and build the grid on the
first k = min(d - 1, max(1, floor(log_9 n))) of the other d - 1 axes, so
its cells are columns; every axis it leaves out is still filtered by exact
distance. Candidate pairs are then member positions
in column order, each paired only with the members of its own and adjacent
columns inside its last-axis window, expanded from contiguous runs in
vectorized chunks; the Python-level work is O(3^k) = O(sqrt(n)) steps plus
one per chunk, not O(n) or O(pairs). The degree pass counts the
same-column pairs of a column whose extent is within y on every other axis
from their runs (``_same_cell_runs``) and enumerates only the rest.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .model import PointCloud, _check_nonnegative

_PAIR_CHUNK = 1 << 20  # distance-matrix entries per brute-force row block
_CANDIDATE_CHUNK = 1 << 15  # candidate pairs per chunk
_SWEEP_CHUNK = 1 << 14  # sorted ranks per block of the window sweep
_COORD_LIMIT = 2.0**62  # cell coordinates stay below this, so they fit int64


def _fit_cells(points: np.ndarray, radius: float) -> Tuple[np.ndarray, float, List[int]]:
    """Cell coordinates of ``points`` shifted so the lowest occupied cell is 1
    on every axis, the cell width used, and the per-axis key radix (occupied
    span plus a one-cell margin on each side, so +-1 neighbours have keys).

    The width is ``radius``, floored at 2^-52 of the widest axis's extent, at
    the smallest subnormal so that radius 0 gets cells, and at 2^-61 of the
    largest coordinate so that every cell coordinate is below 2^62, then
    grown until every ``key * n + id`` fits int64 (else two vertices could
    share a sort key). Division rounds monotonically, so each axis's extreme
    cells are those of its extreme coordinates: the loop needs only those,
    and the points are divided once. Any width >= the radius yields a
    superset of the candidate pairs, which callers filter by distance.
    """
    n, k = points.shape
    lo = [float(col.min()) for col in points.T]  # per column: faster than over axis 0
    hi = [float(col.max()) for col in points.T]
    width = max(float(radius), max(h - l for l, h in zip(lo, hi)) * 2**-52, math.ulp(0.0),
                max(hi) / (_COORD_LIMIT / 2))
    while True:
        first = [math.floor(l / width) - 1 for l in lo]
        radix = [math.floor(h / width) - f + 2 for f, h in zip(first, hi)]
        excess = (math.prod(radix) * n).bit_length() - 63
        if excess <= 0:
            break
        width *= 2.0 ** max(1.0, excess / k)
    shifted = np.floor(points / width).astype(np.int64)
    shifted -= first
    return shifted, width, radix


class GridIndex:
    """Uniform grid over an (n, k) array of nonnegative finite coordinates;
    cell (c1..ck) holds the rows whose point lies in [c_j*cell_size,
    (c_j+1)*cell_size) along every axis j.

    A cell's key is a mixed radix over its coordinates, axis 0 most
    significant, so keys sort like coordinate tuples. ``cell_size`` is the
    width ``_fit_cells`` picks for ``radius``.

    It stores its cells, its members' ``key * n + id`` in ascending order
    and the key deltas of offset 0 and of each lexicographically positive
    neighbour offset, the ones the pair walk visits.
    """

    def __init__(self, points: np.ndarray, radius: float):
        _check_nonnegative(radius, "radius")
        n, k = points.shape
        shifted, self.cell_size, radix = _fit_cells(points, radius)
        keys = shifted[:, 0]
        for j in range(1, k):
            keys = keys * radix[j] + shifted[:, j]
        # One sort of key * n + id orders the vertices by cell and, within a
        # cell, by id: the order of a stable argsort of the keys, several
        # times faster than that argsort and its gather.
        self._member_keys = np.sort(keys * n + np.arange(n))
        sorted_keys, self._members = np.divmod(self._member_keys, n)  # ids grouped by cell
        boundaries = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        )
        self._starts = np.concatenate((boundaries, [n]))
        self._cell_keys = sorted_keys[boundaries]  # ascending
        offsets = np.zeros(1, dtype=np.int64)
        for j in range(k):
            # Axis 0 outermost: every radix is >= 3, so the deltas ascend, offset
            # 0 is the middle one, and the lexicographically positive follow it.
            offsets = (offsets[:, None] + np.array([-1, 0, 1]) * math.prod(radix[j + 1:])).ravel()
        self._offset_keys = offsets[len(offsets) // 2:].copy()  # not a view of them all

    @property
    def n_cells(self) -> int:
        return len(self._cell_keys)

    def members(self, group: int) -> np.ndarray:
        return self._members[self._starts[group]:self._starts[group + 1]]

    def _groups_of(self, keys):
        """Group ids of cell keys, -1 where the cell is unoccupied."""
        pos = np.minimum(np.searchsorted(self._cell_keys, keys), self.n_cells - 1)
        return np.where(self._cell_keys[pos] == keys, pos, -1)


def build_grid_index(points: np.ndarray, radius: float) -> GridIndex:
    """Index the rows of ``points`` for pairs within ``radius`` (O(n log n))."""
    return GridIndex(points, radius)


def _blocks(index: GridIndex) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Matched groups (delta, A, B) at offset 0, then at each lexicographically
    positive offset in {-1, 0, 1}^d that has any: occupied cell B[j] lies at
    key delta ``delta`` from cell A[j], so every unordered pair of same or
    adjacent occupied cells appears once. Yielded per offset: the pair chunks
    restart at each, which keeps their left positions ascending, and packing
    all offsets into full chunks raised peak memory by half on d = 2 clouds."""
    groups = np.arange(index.n_cells, dtype=np.int64)
    for delta in index._offset_keys:
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


def _window_search(
    index: GridIndex, left: np.ndarray, delta: int, bound: np.ndarray
) -> np.ndarray:
    """For each member position in ``left``, the first position in the cell
    at key delta ``delta`` from its own whose rank is >= ``bound`` at its own
    rank: one ``searchsorted`` on the index's ascending ``key * n + rank``."""
    ranks = index._members[left]
    needle = bound[ranks]
    needle -= ranks
    needle += index._member_keys[left]  # its own key * n + rank
    if delta:
        needle += delta * len(index._members)
    return np.searchsorted(index._member_keys, needle)


def _same_cell_runs(
    index: GridIndex, ends: np.ndarray, cells: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(left, stop) over the members of the cells that the mask ``cells``
    selects: each one's position, and one past the last later member of its
    own cell inside its window, so that its same-cell run is [left + 1, stop)."""
    bounds = index._starts
    left = _ranges(bounds[:-1][cells], np.diff(bounds)[cells])
    return left, _window_search(index, left, 0, ends)


def iter_candidate_pairs(
    index: GridIndex,
    starts: np.ndarray,
    ends: np.ndarray,
    chunk: int = _CANDIDATE_CHUNK,
    counted: Optional[np.ndarray] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every unordered pair of member positions (indices into
    ``index._members``) whose cells are the same or adjacent and whose
    members lie in each other's window, exactly once, as chunked (left,
    right) position arrays. A mask ``counted`` over the cells leaves out the
    same-cell pairs of the cells it selects, which the caller counts from
    ``_same_cell_runs`` instead.

    The indexed vertex ids are ranks on one further axis, and rank r's window
    on it is ``[starts[r], ends[r])``, r included; both bounds are
    nondecreasing in r, so s lies in r's window exactly when r lies in s's.
    The index sorts ``key * n + rank``, so each cell's members are in
    ascending rank, that sorted array is one ascending key over the
    positions, and each window bound is one ``searchsorted`` on it.

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
    bounds = index._starts
    counts = np.diff(bounds)
    enumerated = np.ones(index.n_cells, dtype=bool) if counted is None else ~counted
    for delta, groups, _ in _blocks(index):
        if delta == 0:  # a position pairs with the later members of its cell
            left, stop = _same_cell_runs(index, ends, enumerated)
            lo = left + 1
        else:
            left = _ranges(bounds[groups], counts[groups])
            lo = _window_search(index, left, delta, starts)
            stop = _window_search(index, left, delta, ends)
        lens = stop - lo
        has = lens > 0
        block = (left[has], lo[has], lens[has])
        del left, lo, stop, lens, has  # a suspended generator keeps its locals
        yield from _run_pairs(*block, chunk)
        del block


# No caller in the package: kept only because the benchmark tracer patches it.
def iter_matched_blocks(index: GridIndex) -> Iterator[Tuple[np.ndarray, np.ndarray, bool]]:
    """Member-id blocks (A, B, same_cell) covering every same-or-adjacent cell
    pair once: (A, A, True) per cell, (A, B, False) per adjacent cell pair."""
    for delta, groups_a, groups_b in _blocks(index):
        for g, h in zip(groups_a, groups_b):
            yield index.members(g), index.members(h), delta == 0


def sorted_window_ends(xs: np.ndarray, y: float) -> Optional[np.ndarray]:
    """For ascending ``xs`` and y >= 0, inf included, ``ends[i]`` is one past the
    last j with fl(xs[j] - xs[i]) <= y, so i's forward window is
    [i + 1, ends[i]); None when every forward window is empty.

    This is the d = 1 sort-sweep of Bentley, Stanat & Williams: no pair is
    enumerated. The subtraction is monotone in j, so a window reaches past
    i + 1 only if fl(xs[i + 1] - xs[i]) <= y; every other window is empty,
    and only the windows that pass this gap test are searched, which at
    sparse y is almost none. When none passes, the graph is empty, and the
    gap pass is all the work. ``searchsorted`` on ``xs + y`` can land off by
    a run where fl(xs[i] + y) and the oracle's fl(xs[j] - xs[i]) round
    differently, so each searched window is repaired against the subtraction
    itself until nothing moves. By monotonicity a window only ever grows or
    only ever shrinks, and each step jumps a whole run of equal coordinates:
    the step count is bounded by the distinct values in the rounding band,
    not by their multiplicity.

    The ranks are swept in blocks of ``_SWEEP_CHUNK``, so ``ends`` is the
    only n-sized array it allocates. A block's needles fl(xs[i] + y) ascend,
    and each lands at or after i + 1, so all of them are searched in the
    slice of ``xs`` from the block's first rank up to where its last needle
    lands: the same ends as a search over all of ``xs``, in fewer steps.
    """
    n = len(xs)
    ends = None
    for lo in range(0, n - 1, _SWEEP_CHUNK):
        hi = min(lo + _SWEEP_CHUNK, n - 1)  # the ranks [lo, hi) that have a next gap
        todo = np.flatnonzero(xs[lo + 1:hi + 1] - xs[lo:hi] <= y)
        if not todo.size:
            continue
        todo += lo
        if ends is None:
            ends = np.arange(1, n + 1)
        base = xs[todo]  # kept aligned with todo, so it is gathered once
        top = np.searchsorted(xs, base[-1] + y, side="right")
        e = np.searchsorted(xs[lo:top], base + y, side="right")
        e += lo
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
