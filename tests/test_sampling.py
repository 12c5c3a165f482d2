import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ks_statistic_exponential
from exprgg import (
    SeedDerivation,
    derive_replication_seed,
    exponential_inverse_cdf,
    read_cloud,
    sample_exponential_cloud,
    uniform_stream,
    write_cloud,
)
from exprgg.sampling import GOLDEN, mix64

# The stream is pinned forever: these are the first SplitMix64 outputs for the
# all-zero seed, matching the widely published reference vectors.
KNOWN_WORDS = {
    (0, 0): 16294208416658607535,
    (0, 1): 7960286522194355700,
    (42, 7): 14769051326987775908,
    (2**64 - 1, 123456): 13507230719041782330,
}


def test_derivation_golden_values():
    for (base, idx), expected in KNOWN_WORDS.items():
        assert derive_replication_seed(base, idx) == expected


def test_derivation_is_deterministic_and_distinct():
    s = 987654321
    assert derive_replication_seed(s, 0) == derive_replication_seed(s, 0)
    assert derive_replication_seed(s, 0) != derive_replication_seed(s, 1)


def test_seed_derivation_dataclass():
    sd = SeedDerivation(base_seed=42, replication_index=7)
    assert sd.derived == derive_replication_seed(42, 7)
    with pytest.raises(ValueError):
        SeedDerivation(base_seed=-1, replication_index=0)
    with pytest.raises(ValueError):
        SeedDerivation(base_seed=0, replication_index=-2)


def _derive_vectorized(base: int, count: int) -> np.ndarray:
    """Independent numpy re-implementation of the derivation, for the scan."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(base) + idx * np.uint64(GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def test_collision_scan_one_million_indices():
    for base in (0, 42, 2**63 + 11):
        words = _derive_vectorized(base, 10**6 + 1)
        assert len(np.unique(words)) == 10**6 + 1
        # vectorized path agrees with the scalar definition on spot checks
        for idx in (0, 1, 999999):
            assert int(words[idx]) == derive_replication_seed(base, idx)


def test_forced_uniform_draw_gives_log_two():
    assert exponential_inverse_cdf(0.5, 1.0) == pytest.approx(math.log(2), abs=0)
    assert exponential_inverse_cdf(1.0, 3.0) == 0.0
    with pytest.raises(ValueError):
        exponential_inverse_cdf(0.0, 1.0)
    with pytest.raises(ValueError):
        exponential_inverse_cdf(1.1, 1.0)
    with pytest.raises(ValueError, match="positive finite rate"):
        exponential_inverse_cdf(0.5, math.inf)


def test_uniform_stream_range_and_offset():
    u = uniform_stream(7, 10**5)
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    # offset slices the same stream
    assert list(uniform_stream(7, 5, offset=3)) == list(uniform_stream(7, 8)[3:])


def test_cloud_determinism():
    a = sample_exponential_cloud(100, 3, 2.0, seed=7)
    b = sample_exponential_cloud(100, 3, 2.0, seed=7)
    assert a == b
    c = sample_exponential_cloud(100, 3, 2.0, seed=8)
    assert not np.array_equal(a.points, c.points)


def test_cloud_rejects_bad_args():
    with pytest.raises(ValueError):
        sample_exponential_cloud(0, 1, 1.0, 0)
    with pytest.raises(ValueError):
        sample_exponential_cloud(1, 0, 1.0, 0)
    with pytest.raises(ValueError):
        sample_exponential_cloud(1, 1, 0.0, 0)
    with pytest.raises(ValueError, match="positive finite rate"):
        sample_exponential_cloud(1, 1, math.inf, 0)


def test_sample_mean_matches_clt_band():
    # Exp(2) has mean 0.5 and sd 0.5; a 3-sigma band at n = 1e5 is +/- 0.004743.
    cloud = sample_exponential_cloud(10**5, 1, 2.0, seed=42)
    assert abs(cloud.points.mean() - 0.5) <= 3 * 0.5 / math.sqrt(10**5)


def test_ks_against_exponential_cdf_nine_of_ten_seeds():
    threshold = 1.63 / math.sqrt(10**5)
    passes = 0
    for seed in range(10):
        cloud = sample_exponential_cloud(10**5, 1, 1.0, seed)
        passes += ks_statistic_exponential(cloud.points[:, 0], 1.0) < threshold
    assert passes >= 9


def test_axes_are_uncorrelated():
    cloud = sample_exponential_cloud(10**5, 3, 1.0, seed=11)
    pts = cloud.points
    for i in range(3):
        for j in range(i + 1, 3):
            r = np.corrcoef(pts[:, i], pts[:, j])[0, 1]
            assert abs(r) < 0.02


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200)
def test_mix_is_stable_under_rerun(base, idx):
    assert derive_replication_seed(base, idx) == derive_replication_seed(base, idx)


def test_mix64_is_bijective_on_samples():
    # injective on a large random sample => consistent with bijectivity
    rng = np.random.RandomState(3)
    inputs = {int(x) for x in rng.randint(0, 2**63, size=10000)}
    outputs = {mix64(x) for x in inputs}
    assert len(outputs) == len(inputs)


def test_cloud_dump_round_trip(tmp_path):
    cloud = sample_exponential_cloud(17, 3, 0.75, seed=12345)
    path = tmp_path / "cloud.txt"
    write_cloud(cloud, str(path))
    text = path.read_text()
    assert text.startswith("# exprgg-cloud v1 n=17 d=3 lambda=0.75 seed=12345\n")
    assert read_cloud(str(path)) == cloud
    # also via file objects
    buf = io.StringIO()
    write_cloud(cloud, buf)
    assert read_cloud(io.StringIO(buf.getvalue())) == cloud


def test_cloud_dump_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a header\n0.5\n")
    with pytest.raises(ValueError):
        read_cloud(str(path))
