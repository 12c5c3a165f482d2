"""Deterministic, seedable generation of exponential point clouds.

The uniform source is a counter-based SplitMix64 stream, fixed for the
lifetime of this package so that every published number is reproducible
bit for bit (the exact algorithm is spelled out in the README):

    word(seed, i) = mix64((seed + (i + 1) * GOLDEN) mod 2^64),  i = 0, 1, ...
    u_i           = ((word >> 11) + 1) * 2^-53          in (0, 1]

where mix64 is the SplitMix64 finalizer and GOLDEN = 0x9E3779B97F4A7C15.
Coordinates are exponential by inverse CDF, x = -ln(u) / lam, so forcing a
particular uniform draw forces the corresponding coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Union

import numpy as np

from .model import U64_MAX, PointCloud, _check_dim, _check_rate, _check_seed, fmt17

GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_MASK = U64_MAX

CLOUD_HEADER_PREFIX = "# exprgg-cloud v1"


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective mixing of one 64-bit word."""
    z &= _MASK
    z ^= z >> 30
    z = (z * _MIX_A) & _MASK
    z ^= z >> 27
    z = (z * _MIX_B) & _MASK
    z ^= z >> 31
    return z


def derive_replication_seed(base_seed: int, index: int) -> int:
    """Derive the seed for replication ``index`` from ``base_seed``.

    mix64((base_seed + (index + 1) * GOLDEN) mod 2^64). GOLDEN is odd and
    mix64 is a bijection, so distinct indices (up to 2^64 of them) always
    map to distinct seeds for a fixed base seed.
    """
    _check_seed(base_seed, "base_seed")
    if index < 0:
        raise ValueError(f"replication index must be >= 0, got {index}")
    return mix64(base_seed + (index + 1) * GOLDEN)


@dataclass(frozen=True)
class SeedDerivation:
    """A (base_seed, replication_index) pair and the seed it derives."""

    base_seed: int
    replication_index: int

    def __post_init__(self) -> None:
        _check_seed(self.base_seed, "base_seed")
        if self.replication_index < 0:
            raise ValueError("replication_index must be >= 0")

    @property
    def derived(self) -> int:
        return derive_replication_seed(self.base_seed, self.replication_index)


def uniform_stream(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Words ``offset .. offset+count-1`` of the uniform stream, in (0, 1]."""
    _check_seed(seed)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    # In place, with one shift buffer: no temporary per mixing step.
    z = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z *= np.uint64(GOLDEN)
    z += np.uint64(seed)
    t = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(_MIX_A)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_MIX_B)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    z >>= np.uint64(11)
    z += np.uint64(1)
    return z * 2.0**-53


def exponential_inverse_cdf(u, lam: float):
    """Map uniform draws in (0, 1] to Exp(lam) variates, x = -ln(u)/lam."""
    _check_rate(lam)
    u_arr = np.asarray(u, dtype=np.float64)
    if np.any(u_arr <= 0.0) or np.any(u_arr > 1.0):
        raise ValueError("uniform draws must lie in (0, 1]")
    x = -np.log(u_arr) / lam
    return float(x) if np.isscalar(u) else x


def sample_exponential_cloud(n: int, d: int, lam: float, seed: int) -> PointCloud:
    """Sample n points whose d coordinates are i.i.d. Exp(lam).

    Point i consumes uniform words i*d .. i*d+d-1 of the seed's stream, so
    the same (n, d, lam, seed) always yields a bit-identical cloud.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_dim(d)
    _check_rate(lam)
    u = uniform_stream(seed, n * d)
    np.log(u, out=u)
    np.negative(u, out=u)
    with np.errstate(over="ignore"):  # a subnormal lam overflows; PointCloud refuses inf
        u /= lam
    return PointCloud(d=d, points=u.reshape(n, d), seed=int(seed), lam=lam)


def write_cloud(cloud: PointCloud, destination: Union[str, IO[str]]) -> None:
    """Write a cloud in the one-point-per-line dump format (see README)."""
    header = (
        f"{CLOUD_HEADER_PREFIX} n={cloud.n} d={cloud.d} "
        f"lambda={fmt17(cloud.lam)} seed={cloud.seed}\n"
    )
    lines = [header]
    for row in cloud.points:
        lines.append(" ".join(fmt17(v) for v in row) + "\n")
    text = "".join(lines)
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)


def read_cloud(source: Union[str, IO[str], Iterable[str]]) -> PointCloud:
    """Parse a cloud dump written by :func:`write_cloud`."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    elif isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in source]
    if not lines or not lines[0].startswith(CLOUD_HEADER_PREFIX):
        raise ValueError("not a cloud dump: missing 'exprgg-cloud v1' header")
    fields = dict(
        item.split("=", 1) for item in lines[0][len(CLOUD_HEADER_PREFIX):].split()
    )
    n, d = int(fields["n"]), int(fields["d"])
    lam, seed = float(fields["lambda"]), int(fields["seed"])
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise ValueError(f"cloud dump announces n={n} but has {len(body)} point lines")
    pts = np.array([[float(v) for v in ln.split()] for ln in body], dtype=np.float64)
    if pts.shape != (n, d):
        raise ValueError(f"cloud dump announces d={d} but rows disagree")
    return PointCloud(d=d, points=pts, seed=seed, lam=lam)
