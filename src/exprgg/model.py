"""Domain types shared by every module: point clouds, graph configs,
degree summaries, edge-distance families and theoretical degree bounds.

All types are immutable after construction and validate their invariants
eagerly, so an instance in hand is always well formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

U64_MAX = 2**64 - 1


def fmt17(x: float) -> str:
    """Render a float with 17 significant digits (enough to round-trip IEEE doubles)."""
    return format(float(x), ".17g")


def _check_seed(seed: int, what: str = "seed") -> None:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"{what} must be an integer, got {seed!r}")
    if not 0 <= int(seed) <= U64_MAX:
        raise ValueError(f"{what} must fit in an unsigned 64-bit word, got {seed}")


def _check_rate(lam: float) -> None:
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lam must be a positive finite rate, got {lam}")


def _check_dim(d: int) -> None:
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")


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
        if self.d < 1 or pts.shape[1] != self.d:
            raise ValueError(
                f"dimension mismatch: d={self.d} but points have {pts.shape[1]} coordinates"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("every coordinate must be finite")
        if np.any(pts < 0.0):
            raise ValueError("every coordinate must be >= 0")
        _check_rate(self.lam)
        _check_seed(self.seed)
        if pts is self.points and pts.flags.writeable:
            pts = pts.copy()  # never freeze an array the caller still owns
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "seed", int(self.seed))

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


@dataclass(frozen=True)
class RggConfig:
    """One graph instance: n points in d dimensions, rate lam, edge distance y."""

    n: int
    d: int
    lam: float
    y: float
    seed: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"a graph needs n >= 2 vertices, got {self.n}")
        _check_dim(self.d)
        _check_rate(self.lam)
        _check_nonnegative(self.y, "edge distance y")
        _check_seed(self.seed)
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True, eq=False)
class DegreeSummary:
    """Per-vertex degrees of one graph plus the derived edge count and extremes.

    Invariants enforced: the handshake identity sum(degrees) == 2 * epsilon_n,
    min/max consistency, 0 <= degree <= n - 1, and 2 * epsilon_n <= n * max_degree.
    """

    degrees: np.ndarray
    epsilon_n: int
    min_degree: int
    max_degree: int

    def __post_init__(self) -> None:
        deg = np.asarray(self.degrees, dtype=np.int64)
        if deg.ndim != 1 or deg.shape[0] < 1:
            raise ValueError("degrees must be a nonempty 1-d integer sequence")
        n = deg.shape[0]
        if np.any(deg < 0) or np.any(deg > n - 1):
            raise ValueError("every degree must lie in [0, n-1]")
        total = int(deg.sum())
        if total != 2 * self.epsilon_n:
            raise ValueError(
                f"handshake violation: sum(degrees)={total} != 2*epsilon_n={2 * self.epsilon_n}"
            )
        if self.min_degree != int(deg.min()) or self.max_degree != int(deg.max()):
            raise ValueError("min_degree/max_degree do not match the degree sequence")
        if 2 * self.epsilon_n > n * self.max_degree:
            raise ValueError("edge count violates 2*epsilon_n <= n*max_degree")
        deg.setflags(write=False)
        object.__setattr__(self, "degrees", deg)

    @classmethod
    def from_degrees(cls, degrees: np.ndarray) -> "DegreeSummary":
        deg = np.asarray(degrees, dtype=np.int64)
        total = int(deg.sum())
        assert total % 2 == 0, "degree sum must be even"
        return cls(
            degrees=deg,
            epsilon_n=total // 2,
            min_degree=int(deg.min()),
            max_degree=int(deg.max()),
        )

    @property
    def n(self) -> int:
        return self.degrees.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DegreeSummary):
            return NotImplemented
        return (
            self.epsilon_n == other.epsilon_n
            and self.min_degree == other.min_degree
            and self.max_degree == other.max_degree
            and np.array_equal(self.degrees, other.degrees)
        )


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
        _check_rate(self.lam)
        _check_dim(self.d)
        object.__setattr__(self, "c", float(self.c))


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
        _check_rate(self.lam)
        _check_dim(self.d)


EdgeDistanceFamily = Union[LogRegime, PowerFamily]


@dataclass(frozen=True)
class TheoryBounds:
    """The four strong-law constants for min/max degree ratios at a given (c, lam, d).

    ``a_min`` is the root in [0, 1) scaling the min-degree liminf bound and
    ``a_max`` the root in [1, inf) scaling the max-degree limsup bound; both
    solve a*log(a) - a + 1 = 1/(lam^d * c). When lam^d * c <= 1 the equation
    has no root below 1 and ``a_min`` degenerates to 0 with
    ``a_min_has_root`` False (the liminf bound is then vacuous).
    """

    lambda_pow_d: float
    a_min: float
    a_max: float
    a_min_has_root: bool = True

    def __post_init__(self) -> None:
        if not self.lambda_pow_d > 0.0:
            raise ValueError(f"lambda_pow_d must be positive, got {self.lambda_pow_d}")
        if not 0.0 <= self.a_min <= 1.0:
            raise ValueError(f"a_min must lie in [0, 1], got {self.a_min}")
        if not self.a_max >= 1.0:
            raise ValueError(f"a_max must lie in [1, inf), got {self.a_max}")
        if not self.a_min_has_root and self.a_min != 0.0:
            raise ValueError("a_min must be 0 when flagged as having no root")

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
