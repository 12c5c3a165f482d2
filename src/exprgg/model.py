"""Domain types shared by every module: point clouds, degree summaries,
edge-distance families and theoretical degree bounds; and the one text writer and reader.

All types are immutable after construction. Each stores only its inputs,
derives what it can from them and validates the rest eagerly, so an
instance in hand is always well formed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import IO, Union

import numpy as np

U64_MAX = 2**64 - 1
TextFile = Union[str, os.PathLike, IO[str]]  # a path, or an open text stream


def fmt17(x: float) -> str:
    """Render a float with 17 significant digits (enough to round-trip IEEE doubles)."""
    return format(float(x), ".17g")


def write_text(destination: TextFile, text: str, what: str) -> None:
    """Write ``text`` to a text stream as it is, or to a path as UTF-8 with "\\n" line ends."""
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {destination}: {exc}") from exc


def read_text(source: TextFile, what: str) -> str:
    """The whole text of a text stream, or of a path read as UTF-8; a path that cannot
    be opened or decoded is named in the OSError or ValueError."""
    if hasattr(source, "read"):
        return source.read()
    try:
        with open(source, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {what} from {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {what} from {source}: {exc}") from exc


def _check_int(value: int, what: str) -> int:
    """``value`` as a Python int; refuses bools and every non-integer, floats
    with integral values too."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _number(value: float, what: str) -> Union[int, float]:
    """A checked parameter as a Python number: an integer type gives an int,
    anything else a float, so a numpy scalar never reaches the JSON codec.
    Refuses bools, which would otherwise pass as the numbers 1 and 0."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return int(value) if isinstance(value, (int, np.integer)) else float(value)


def _check_seed(seed: int, what: str = "seed") -> int:
    value = _check_int(seed, what)
    if not 0 <= value <= U64_MAX:
        raise ValueError(f"{what} must fit in an unsigned 64-bit word, got {seed}")
    return value


def _check_rate(lam: float) -> Union[int, float]:
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lam must be a positive finite rate, got {lam}")
    return _number(lam, "lam")


def _check_dim(d: int) -> int:
    value = _check_int(d, "d")
    if value < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return value


def _pow_or_inf(x: float, d: int) -> float:
    """x**d as a float, correctly rounded for an int x, or inf where it overflows."""
    try:
        return float(x**d)
    except OverflowError:
        return math.inf


def _check_nonnegative(value: float, name: str) -> None:
    """Refuses negative values and nan; inf passes."""
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True, eq=False)
class PointCloud:
    """n points in d dimensions with nonnegative finite coordinates.

    ``points`` is an (n, d) float64 array, one point per row; the array is
    frozen (non-writeable) on construction. ``seed`` and ``lam`` record the
    provenance of the cloud (generator seed, exponential rate per axis).
    """

    d: int
    points: np.ndarray
    seed: int
    lam: float

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("a point cloud needs at least one point")
        object.__setattr__(self, "d", _check_dim(self.d))
        if pts.shape[1] != self.d:
            raise ValueError(
                f"dimension mismatch: d={self.d} but points have {pts.shape[1]} coordinates"
            )
        lo, hi = pts.min(), pts.max()  # nan propagates to both
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("every coordinate must be finite")
        if lo < 0.0:
            raise ValueError("every coordinate must be >= 0")
        object.__setattr__(self, "lam", _check_rate(self.lam))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        if pts is self.points and pts.flags.writeable:
            pts = pts.copy()  # never freeze an array the caller still owns
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return (
            self.d == other.d
            and self.seed == other.seed
            and self.lam == other.lam
            and np.array_equal(self.points, other.points)
        )


@dataclass(frozen=True, eq=False)
class DegreeSummary:
    """Per-vertex degrees of one graph; the edge count and the degree extremes
    are derived from them on construction. ``degrees`` is a frozen int64 array;
    a writeable caller array is copied first.

    Invariants enforced: a nonempty 1-d sequence, 0 <= degree <= n - 1, and an
    even degree sum, which the handshake identity sum(degrees) == 2 * epsilon_n
    requires.

    The degree engine lists degrees in the order of its sorted ranks, and
    builds its summaries with ``_in_rank_order``. No check and no derived
    field depends on vertex order, so all of them come from the rank-order
    degrees, and the per-vertex ``degrees`` array is built only when it is
    first read, through a fresh argsort of the cloud's last axis. Until then
    the summary keeps a view of that column, and so the cloud's points; from
    then on it holds only the per-vertex array, as one built from ``degrees`` does.
    Threads that race on that first read each build an equal array, and
    every one of them returns the array stored first. A summary pickles and
    copies as ``DegreeSummary(degrees)``.
    """

    degrees: np.ndarray
    epsilon_n: int = field(init=False)
    min_degree: int = field(init=False)
    max_degree: int = field(init=False)

    def __post_init__(self) -> None:
        deg = np.asarray(self.degrees, dtype=np.int64)
        if deg is self.degrees and deg.flags.writeable:
            deg = deg.copy()  # never freeze an array the caller still owns
        self._derive(deg)
        object.__setattr__(self, "degrees", deg)

    @classmethod
    def _in_rank_order(cls, ranked: np.ndarray, key: np.ndarray) -> "DegreeSummary":
        """The summary of int64 degrees listed by rank: ``ranked[r]`` is the
        degree of vertex ``np.argsort(key)[r]``. ``ranked`` is frozen in place,
        and the argsort runs on the first read of ``degrees``."""
        summary = cls.__new__(cls)
        summary._derive(ranked)
        object.__setattr__(summary, "_rank_key", key)
        return summary

    def _derive(self, deg: np.ndarray) -> None:
        """Checks the degree multiset ``deg``, freezes it and derives the fields."""
        if deg.ndim != 1 or deg.shape[0] < 1:
            raise ValueError("degrees must be a nonempty 1-d integer sequence")
        lo, hi, total = int(deg.min()), int(deg.max()), int(deg.sum())
        if lo < 0 or hi > deg.shape[0] - 1:
            raise ValueError("every degree must lie in [0, n-1]")
        if total % 2:
            raise ValueError(f"handshake violation: sum(degrees)={total} is odd")
        deg.setflags(write=False)
        object.__setattr__(self, "_ranked", deg)
        object.__setattr__(self, "epsilon_n", total // 2)
        object.__setattr__(self, "min_degree", lo)
        object.__setattr__(self, "max_degree", hi)

    def __getattr__(self, name: str):
        # Called only for an attribute that is not set: ``degrees`` of a
        # summary built in rank order, until its first read.
        if name != "degrees":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        state = vars(self)
        key = state.get("_rank_key")
        if key is not None:  # else a racing first read has stored it
            deg = np.empty_like(self._ranked)
            deg[np.argsort(key)] = self._ranked
            deg.setflags(write=False)
            # setdefault is atomic, so racing first reads all return one
            # array; the key and the rank-order array go once it is stored.
            deg = state.setdefault("degrees", deg)
            state.pop("_rank_key", None)
            state["_ranked"] = deg
        return state["degrees"]

    def __reduce__(self):
        return type(self), (self.degrees,)

    @property
    def n(self) -> int:
        return self._ranked.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DegreeSummary):
            return NotImplemented
        return np.array_equal(self.degrees, other.degrees)


@dataclass(frozen=True)
class LogRegime:
    """Edge distances y_n = (c * log n / n)^(1/d) / lam, the connectivity scaling.

    By construction n * y_n^d / log n == c / lam^d for every n >= 2. ``c`` may
    be math.inf, which marks the super-connectivity limit used by the
    theoretical bounds; finite sampling with c = inf yields a complete graph.
    """

    c: float
    lam: float
    d: int

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise ValueError(f"c must be positive (or inf), got {self.c}")
        object.__setattr__(self, "lam", _check_rate(self.lam))
        object.__setattr__(self, "d", _check_dim(self.d))
        object.__setattr__(self, "c", float(_number(self.c, "c")))


@dataclass(frozen=True)
class PowerFamily:
    """Edge distances y_n = (alpha * n^(-beta))^(1/d), strictly decreasing in n."""

    alpha: float
    beta: float
    lam: float
    d: int

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        object.__setattr__(self, "lam", _check_rate(self.lam))
        object.__setattr__(self, "d", _check_dim(self.d))
        object.__setattr__(self, "alpha", _number(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _number(self.beta, "beta"))


EdgeDistanceFamily = Union[LogRegime, PowerFamily]


@dataclass(frozen=True)
class TheoryBounds:
    """The four strong-law constants for min/max degree ratios at a given (c, lam, d).

    ``a_min`` is the root in [0, 1) scaling the min-degree liminf bound and
    ``a_max`` the root in [1, inf) scaling the max-degree limsup bound; both
    solve a*log(a) - a + 1 = 1/(lam^d * c). When lam^d * c <= 1 the equation
    has no root below 1 and ``a_min`` degenerates to 0 (the liminf bound is
    then vacuous); a root is never below 1e-15, so ``a_min_has_root`` is
    derived as ``a_min > 0``.
    """

    lambda_pow_d: float
    a_min: float
    a_max: float
    a_min_has_root: bool = field(init=False)

    def __post_init__(self) -> None:
        if not self.lambda_pow_d > 0.0:
            raise ValueError(f"lambda_pow_d must be positive, got {self.lambda_pow_d}")
        if not 0.0 <= self.a_min <= 1.0:
            raise ValueError(f"a_min must lie in [0, 1], got {self.a_min}")
        if not self.a_max >= 1.0:
            raise ValueError(f"a_max must lie in [1, inf), got {self.a_max}")
        object.__setattr__(self, "a_min_has_root", bool(self.a_min > 0.0))

    @property
    def min_liminf_bound(self) -> float:
        return self.a_min * self.lambda_pow_d

    @property
    def min_limsup_bound(self) -> float:
        return self.lambda_pow_d

    @property
    def max_liminf_bound(self) -> float:
        return self.lambda_pow_d

    @property
    def max_limsup_bound(self) -> float:
        return self.a_max * self.lambda_pow_d


# TheoryBounds' fields and bounds, in the order that ``theory bounds`` prints them.
BOUND_NAMES = (
    "lambda_pow_d", "a_min", "a_min_has_root", "a_max",
    "min_liminf_bound", "min_limsup_bound", "max_liminf_bound", "max_limsup_bound",
)
