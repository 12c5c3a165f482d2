import math

import numpy as np
import pytest

from exprgg import (
    DegreeSummary,
    LogRegime,
    PointCloud,
    PowerFamily,
    RggConfig,
    TheoryBounds,
    from_jsonable,
    to_jsonable,
)
from exprgg.experiments import ExperimentSpec


def test_point_cloud_valid():
    cloud = PointCloud(d=2, points=[[0.0, 1.0], [2.5, 0.0]], seed=7, lam=1.5)
    assert cloud.n == 2
    assert not cloud.points.flags.writeable


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d=2, points=[[0.0, 1.0], [2.5]], seed=0, lam=1.0),  # ragged
        dict(d=3, points=[[0.0, 1.0]], seed=0, lam=1.0),  # d mismatch
        dict(d=1, points=[[-0.1]], seed=0, lam=1.0),  # negative coordinate
        dict(d=1, points=[[math.inf]], seed=0, lam=1.0),  # non-finite
        dict(d=1, points=np.empty((0, 1)), seed=0, lam=1.0),  # n = 0
        dict(d=1, points=[[1.0]], seed=0, lam=0.0),  # lam <= 0
        dict(d=1, points=[[1.0]], seed=0, lam=math.inf),  # lam not finite
        dict(d=1, points=[[1.0]], seed=0, lam=math.nan),
        dict(d=1, points=[[1.0]], seed=-1, lam=1.0),  # bad seed
        dict(d=1, points=[[1.0]], seed=2**64, lam=1.0),  # seed overflow
    ],
)
def test_point_cloud_rejects(kwargs):
    with pytest.raises(ValueError):
        PointCloud(**kwargs)


def test_point_cloud_does_not_freeze_callers_array():
    arr = np.array([[1.0], [2.0]])
    PointCloud(d=1, points=arr, seed=0, lam=1.0)
    arr[0, 0] = 5.0  # still writeable


def test_rgg_config_validation():
    RggConfig(n=2, d=1, lam=0.5, y=0.0, seed=1)
    for bad in [
        dict(n=1, d=1, lam=1.0, y=0.1, seed=0),
        dict(n=2, d=0, lam=1.0, y=0.1, seed=0),
        dict(n=2, d=1, lam=-1.0, y=0.1, seed=0),
        dict(n=2, d=1, lam=1.0, y=-0.1, seed=0),
        dict(n=2, d=1, lam=math.inf, y=0.1, seed=0),
        dict(n=2, d=1, lam=1.0, y=math.nan, seed=0),
    ]:
        with pytest.raises(ValueError):
            RggConfig(**bad)


def test_degree_summary_invariants():
    summ = DegreeSummary.from_degrees([1, 2, 1])
    assert summ.epsilon_n == 2
    assert summ.min_degree == 1
    assert summ.max_degree == 2
    assert 2 * summ.epsilon_n <= summ.n * summ.max_degree


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(degrees=[1, 2, 1], epsilon_n=3, min_degree=1, max_degree=2),  # handshake
        dict(degrees=[1, 2, 1], epsilon_n=2, min_degree=0, max_degree=2),  # wrong min
        dict(degrees=[1, 2, 1], epsilon_n=2, min_degree=1, max_degree=3),  # wrong max
        dict(degrees=[3, 1, 0], epsilon_n=2, min_degree=0, max_degree=3),  # deg > n-1
        dict(degrees=[-1, 1, 0], epsilon_n=0, min_degree=-1, max_degree=1),  # negative
    ],
)
def test_degree_summary_rejects(kwargs):
    with pytest.raises(ValueError):
        DegreeSummary(**{k: np.asarray(v) if k == "degrees" else v for k, v in kwargs.items()})


def test_log_regime_identity():
    fam = LogRegime(c=3.0, lam=2.0, d=2)
    from exprgg import edge_distance

    for n in (10, 10**3, 10**6):
        y = edge_distance(fam, n)
        assert n * y**fam.d / math.log(n) == pytest.approx(fam.c / fam.lam**fam.d, rel=1e-13)


def test_power_family_decreasing():
    fam = PowerFamily(alpha=2.0, beta=1.5, lam=1.0, d=2)
    from exprgg import edge_distance

    ys = [edge_distance(fam, n) for n in (2, 5, 10, 100, 10**4)]
    assert all(a > b for a, b in zip(ys, ys[1:]))
    assert all(y > 0 for y in ys)


def test_family_rejects():
    with pytest.raises(ValueError):
        LogRegime(c=0.0, lam=1.0, d=1)
    with pytest.raises(ValueError):
        PowerFamily(alpha=0.0, beta=1.0, lam=1.0, d=1)  # would give y_n = 0
    with pytest.raises(ValueError):
        PowerFamily(alpha=1.0, beta=0.0, lam=1.0, d=1)


def test_theory_bounds_fields():
    tb = TheoryBounds(lambda_pow_d=4.0, a_min=0.5, a_max=1.5)
    assert tb.min_liminf_bound == 2.0
    assert tb.min_limsup_bound == 4.0
    assert tb.max_liminf_bound == 4.0
    assert tb.max_limsup_bound == 6.0
    with pytest.raises(ValueError):
        TheoryBounds(lambda_pow_d=1.0, a_min=1.2, a_max=1.5)
    with pytest.raises(ValueError):
        TheoryBounds(lambda_pow_d=1.0, a_min=0.9, a_max=0.5)
    with pytest.raises(ValueError):
        TheoryBounds(lambda_pow_d=1.0, a_min=0.3, a_max=1.5, a_min_has_root=False)


@pytest.mark.parametrize(
    "obj",
    [
        PointCloud(d=2, points=[[0.0, 1.25], [2.5, 1e-17]], seed=9, lam=0.75),
        RggConfig(n=5, d=3, lam=2.0, y=0.125, seed=2**63),
        DegreeSummary.from_degrees([2, 2, 1, 1]),
        LogRegime(c=4.0, lam=1.0, d=1),
        LogRegime(c=math.inf, lam=2.0, d=3),
        PowerFamily(alpha=1.0, beta=3.0, lam=1.0, d=2),
        TheoryBounds(lambda_pow_d=1.0, a_min=0.0, a_max=math.e, a_min_has_root=False),
        ExperimentSpec(
            kind="degree-law",
            n_list=(100, 200),
            d=1,
            lam=1.0,
            replications=3,
            base_seed=42,
            family=LogRegime(c=4.0, lam=1.0, d=1),
        ),
        RggConfig(n=5, d=1, lam=1.0, y=math.inf, seed=3),
        ExperimentSpec(
            kind="uniform-slln", n_list=(50,), d=2, lam=0.5, replications=1,
            base_seed=1, y_grid=(0.1, 0.5, 1.0),
        ),
        ExperimentSpec(
            kind="containment", n_list=(50, 80), d=2, lam=1.0, replications=2,
            base_seed=2, epsilon=0.5,
        ),
        ExperimentSpec(
            kind="threshold", n_list=(100,), d=1, lam=1.0, replications=4,
            base_seed=3, family=PowerFamily(alpha=1.0, beta=3.0, lam=1.0, d=1),
        ),
        ExperimentSpec(
            kind="edge-slln", n_list=(60,), d=1, lam=1, replications=1,
            base_seed=4, family=LogRegime(c=2.0, lam=1, d=1),
        ),
    ],
)
def test_json_round_trip_exact(obj):
    import json

    data = to_jsonable(obj)
    if type(getattr(obj, "lam", None)) is int:
        # a spec file's integer lambda is written back as it was read
        assert type(data["lambda"]) is int and type(data["family"]["lambda"]) is int
    dumped = json.dumps(data, allow_nan=False)
    assert from_jsonable(json.loads(dumped)) == obj
