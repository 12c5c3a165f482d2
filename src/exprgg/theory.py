"""Closed-form quantities for exponential random geometric graphs: the pair
connection probability, binomial tail bounds and their rate function, the
edge-distance sequences, the containment radius, the degree strong-law root
equation, and the edge-count series dichotomy.
"""

from __future__ import annotations

import math
from typing import Tuple

from .model import (
    EdgeDistanceFamily, LogRegime, PowerFamily, TheoryBounds,
    _check_dim, _check_nonnegative, _check_rate,
)

ROOT_RESIDUAL_TOL = 1e-12

CONVERGES = "converges"
DIVERGES = "diverges"


def pair_connect_prob(y: float, lam: float, d: int) -> float:
    """P[two i.i.d. exponential points are within l-inf distance y] = (1 - e^(-lam*y))^d.

    For small y this behaves like (lam*y)^d, the volume of an l-inf ball of
    radius y under the density at the origin.
    """
    _check_nonnegative(y, "y")
    _check_rate(lam)
    _check_dim(d)
    return (-math.expm1(-lam * y)) ** d


def h_function(t: float) -> float:
    """Rate function H(t) = (1/t) log t + 1/t - 1 on (0, inf), with H(inf) = -1.

    H(1) = 0 and H < 0 elsewhere; H increases on (0, 1) and decreases on
    (1, inf). exp(n*p*H(n*p/k)) is the Chernoff bound on binomial tails.
    """
    if math.isinf(t) and t > 0:
        return -1.0
    if not t > 0.0:
        raise ValueError(f"t must be positive or +inf, got {t}")
    return (math.log(t) + 1.0) / t - 1.0


def _chernoff(n: int, p: float, k: float) -> float:
    np_ = n * p
    if k == 0.0:
        return math.exp(-np_)  # limit of (np/k)^k e^(k-np) as k -> 0+
    return math.exp(k * math.log(np_ / k) + k - np_)


def _check_chernoff_args(n: int, p: float) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")


def chernoff_upper_tail(n: int, p: float, k: float) -> float:
    """Bound on P[Bin(n, p) >= k] for k >= n*p: (np/k)^k * e^(k - np).

    Equivalently exp(n*p*H(n*p/k)). Raises for k outside the validity range.
    """
    _check_chernoff_args(n, p)
    if not n * p <= k < math.inf:
        raise ValueError(f"upper-tail bound needs finite k >= n*p = {n * p}, got k={k}")
    return _chernoff(n, p, k)


def chernoff_lower_tail(n: int, p: float, k: float) -> float:
    """Bound on P[Bin(n, p) <= k] for 0 <= k <= n*p, same formula as the upper tail.

    k = 0 is handled as the limit value e^(-n*p), i.e. exp(n*p*H(inf)).
    """
    _check_chernoff_args(n, p)
    if not 0.0 <= k <= n * p:
        raise ValueError(f"lower-tail bound needs 0 <= k <= n*p = {n * p}, got k={k}")
    return _chernoff(n, p, k)


def edge_distance(family: EdgeDistanceFamily, n) -> float:
    """The edge distance y_n prescribed by ``family`` at n (n >= 2).

    LogRegime: (c * log n / n)^(1/d) / lam, so n*y_n^d / log n = c / lam^d.
    PowerFamily: (alpha * n^(-beta))^(1/d).
    """
    if not n >= 2:
        raise ValueError(f"edge-distance families need n >= 2, got {n}")
    if isinstance(family, LogRegime):
        if math.isinf(family.c):
            return math.inf
        return (family.c * math.log(n) / n) ** (1.0 / family.d) / family.lam
    if isinstance(family, PowerFamily):
        return (family.alpha * float(n) ** -family.beta) ** (1.0 / family.d)
    raise TypeError(f"unknown edge-distance family {family!r}")


def containment_radius(n, lam: float, d: int, epsilon: float = 0.0) -> float:
    """Box radius (1 + epsilon) * log n / lam. epsilon = 0 is the bare radius,
    the almost-sure growth rate of the cloud's largest coordinate; for every
    epsilon > 0 the whole cloud lies inside the box for all large n, almost
    surely.

    Each of the n*d coordinates exceeds R with probability e^(-lam*R), so the
    union bound gives P(escape) <= n * d * e^(-lam*R) = d * n^-epsilon. The
    radius does not depend on d.
    """
    if not n >= 2:
        raise ValueError(f"n must be >= 2, got {n}")
    _check_rate(lam)
    _check_dim(d)
    _check_nonnegative(epsilon, "epsilon")
    return (1.0 + epsilon) * math.log(n) / lam


def _root_equation(a: float) -> float:
    """f(a) = a*log(a) - a + 1; f(0+) = 1, f(1) = 0, decreasing on (0,1) and
    increasing on (1, inf)."""
    if a == 0.0:
        return 1.0
    return a * math.log(a) - a + 1.0


def _bisect(f, lo: float, hi: float, target: float, increasing: bool) -> float:
    """Bisection for f(a) = target on a bracket where f is strictly monotone."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        val = f(mid)
        if val == target:
            return mid
        if (val < target) == increasing:
            lo = mid
        else:
            hi = mid
    flo, fhi = abs(f(lo) - target), abs(f(hi) - target)
    return lo if flo <= fhi else hi


def a_min(c: float, lam: float, d: int) -> Tuple[float, bool]:
    """The root in (0, 1) of a*log(a) - a + 1 = 1/(lam^d * c), scaling the
    min-degree liminf bound.

    Returns (root, True) when lam^d * c > 1; otherwise the equation has no
    root below 1 and (0.0, False) is returned, a degenerate-but-usable bound.
    c = inf gives (1.0, True).
    """
    _check_root_args(c, lam, d)
    if math.isinf(c):
        return 1.0, True
    r = 1.0 / (lam**d * c)
    if r >= 1.0:
        return 0.0, False
    lo = 1e-15
    if r >= _root_equation(lo):
        return lo, True  # root is below the bracket floor; residual < 4e-14
    root = _bisect(_root_equation, lo, 1.0, r, increasing=False)
    return root, True


def a_max(c: float, lam: float, d: int) -> float:
    """The root in [1, inf) of a*log(a) - a + 1 = 1/(lam^d * c), scaling the
    max-degree limsup bound. c = inf gives 1.0."""
    _check_root_args(c, lam, d)
    if math.isinf(c):
        return 1.0
    r = 1.0 / (lam**d * c)
    hi = 2.0
    while _root_equation(hi) < r:
        hi *= 2.0
    return _bisect(_root_equation, 1.0, hi, r, increasing=True)


def _check_root_args(c: float, lam: float, d: int) -> None:
    if not c > 0.0:
        raise ValueError(f"c must be positive (or inf), got {c}")
    _check_rate(lam)
    _check_dim(d)


def theory_bounds(c: float, lam: float, d: int) -> TheoryBounds:
    """Assemble lam^d and both roots into the four degree-law bounds.

    The equation depends on (c, lam, d) only through lam^d * c, so scaling
    lam and rescaling c accordingly leaves the roots unchanged.
    """
    lo_root, has_root = a_min(c, lam, d)
    hi_root = a_max(c, lam, d)
    lam_d = lam**d
    if not math.isinf(c):
        r = 1.0 / (lam_d * c)
        if has_root and abs(_root_equation(lo_root) - r) > ROOT_RESIDUAL_TOL:
            raise ArithmeticError("a_min residual exceeds tolerance")
        if abs(_root_equation(hi_root) - r) > ROOT_RESIDUAL_TOL:
            raise ArithmeticError("a_max residual exceeds tolerance")
    return TheoryBounds(
        lambda_pow_d=lam_d, a_min=lo_root, a_max=hi_root, a_min_has_root=has_root
    )


def series_classifier(family: EdgeDistanceFamily) -> str:
    """Whether S = sum over n of n * y_n^d converges or diverges.

    The dichotomy: S < inf forbids edges eventually, S = inf forces them
    infinitely often. PowerFamily terms are alpha * n^(1-beta), a p-series
    converging iff beta > 2; LogRegime terms are (c/lam^d) * log n, divergent.
    """
    if isinstance(family, LogRegime):
        return DIVERGES
    if isinstance(family, PowerFamily):
        return CONVERGES if family.beta > 2.0 else DIVERGES
    raise TypeError(f"unknown edge-distance family {family!r}")
