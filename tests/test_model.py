import json
import math

import numpy as np
import pytest

from exprgg import (
    DegreeSummary,
    LogRegime,
    PointCloud,
    PowerFamily,
    TheoryBounds,
    from_jsonable,
    sample_exponential_cloud,
    theory_bounds,
    to_jsonable,
)
from exprgg.experiments import ExperimentSpec


def test_point_cloud_valid():
    cloud = PointCloud(d=2, points=[[0.0, 1.0], [2.5, 0.0]], seed=7, lam=1.5)
    assert cloud.n == 2
    assert not cloud.points.flags.writeable


_POINT_CLOUD_REFUSALS = [
    (dict(d=2, points=[[0.0, 1.0], [2.5]], seed=0, lam=1.0), None),  # ragged
    (dict(d=3, points=[[0.0, 1.0]], seed=0, lam=1.0), "dimension mismatch"),
    (dict(d=1, points=[0.0, 1.0, 2.0], seed=0, lam=1.0),
     "^points must be a 2-d array, got shape \\(3,\\)$"),
    (dict(d=1, points=[[-0.1]], seed=0, lam=1.0), "must be >= 0"),  # negative coordinate
    (dict(d=1, points=[[math.inf]], seed=0, lam=1.0), "must be finite"),
    (dict(d=1, points=np.empty((0, 1)), seed=0, lam=1.0), "at least one point"),  # n = 0
    (dict(d=1, points=[[1.0]], seed=0, lam=0.0), "positive finite rate"),  # lam <= 0
    (dict(d=1, points=[[1.0]], seed=0, lam=math.inf), "positive finite rate"),
    (dict(d=1, points=[[1.0]], seed=0, lam=math.nan), "positive finite rate"),
    (dict(d=1, points=[[1.0]], seed=-1, lam=1.0), "seed must fit"),  # bad seed
    (dict(d=1, points=[[1.0]], seed=2**64, lam=1.0), "seed must fit"),  # seed overflow
    (dict(d=2.0, points=[[0.0, 1.0]], seed=0, lam=1.0), "d must be an integer"),
    (dict(d=True, points=[[0.0]], seed=0, lam=1.0), "d must be an integer"),
    (dict(d=1, points=[[1.0], [math.nan]], seed=0, lam=1.0), "must be finite"),
    (dict(d=1, points=[[-math.inf], [1.0]], seed=0, lam=1.0), "must be finite"),
    # A negative and an infinite coordinate: the finiteness check comes first.
    (dict(d=2, points=[[-1.0, 2.0], [0.5, math.inf]], seed=0, lam=1.0), "must be finite"),
]


@pytest.mark.parametrize(
    "kwargs, match", _POINT_CLOUD_REFUSALS,
    ids=[f"kwargs{i}" for i in range(len(_POINT_CLOUD_REFUSALS))],
)
def test_point_cloud_rejects(kwargs, match):
    with pytest.raises(ValueError, match=match):
        PointCloud(**kwargs)


def test_point_cloud_does_not_freeze_callers_array():
    arr = np.array([[1.0], [2.0]])
    PointCloud(d=1, points=arr, seed=0, lam=1.0)
    arr[0, 0] = 5.0  # still writeable


def test_degree_summary_invariants():
    summ = DegreeSummary([1, 2, 1])
    assert summ.epsilon_n == 2
    assert summ.min_degree == 1
    assert summ.max_degree == 2
    assert 2 * summ.epsilon_n <= summ.n * summ.max_degree
    arr = np.array([1, 1])
    DegreeSummary(arr)
    arr[0] = 0  # the caller's array stays writeable


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(degrees=[3, 1, 0]),  # deg > n-1
        dict(degrees=[-1, 1, 0]),  # negative
        dict(degrees=[1, 1, 1]),  # odd degree sum
        dict(degrees=[]),  # empty
        dict(degrees=[[1, 1], [1, 1]]),  # 2-d
    ],
)
def test_degree_summary_rejects(kwargs):
    with pytest.raises(ValueError):
        DegreeSummary(np.asarray(kwargs["degrees"]))


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
    with pytest.raises(ValueError, match="^lambda_pow_d must be positive, got 0.0$"):
        TheoryBounds(lambda_pow_d=0.0, a_min=0.5, a_max=2.0)
    assert tb.a_min_has_root
    assert not TheoryBounds(lambda_pow_d=1.0, a_min=0.0, a_max=1.5).a_min_has_root


@pytest.mark.parametrize(
    "obj",
    [
        PointCloud(d=2, points=[[0.0, 1.25], [2.5, 1e-17]], seed=9, lam=0.75),
        DegreeSummary([2, 2, 1, 1]),
        LogRegime(c=4.0, lam=1.0, d=1),
        LogRegime(c=math.inf, lam=2.0, d=3),
        PowerFamily(alpha=1.0, beta=3.0, lam=1.0, d=2),
        TheoryBounds(lambda_pow_d=1.0, a_min=0.0, a_max=math.e),
        ExperimentSpec(
            kind="degree-law",
            n_list=(100, 200),
            d=1,
            lam=1.0,
            replications=3,
            base_seed=42,
            family=LogRegime(c=4.0, lam=1.0, d=1),
        ),
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
    data = to_jsonable(obj)
    if type(getattr(obj, "lam", None)) is int:
        # a spec file's integer lambda is written back as it was read
        assert type(data["lambda"]) is int and type(data["family"]["lambda"]) is int
    dumped = json.dumps(data, allow_nan=False)
    assert from_jsonable(json.loads(dumped)) == obj


# The JSON form of each type with derived fields, as written before those
# fields were derived: the derived values sit in declaration order.
@pytest.mark.parametrize(
    "obj, golden",
    [
        (DegreeSummary([2, 2, 1, 1]),
         '{"type": "DegreeSummary", "degrees": [2, 2, 1, 1], "epsilon_n": 3, '
         '"min_degree": 1, "max_degree": 2}'),
        (theory_bounds(4.0, 1.0, 1),
         '{"type": "TheoryBounds", "lambda_pow_d": 1.0, "a_min": 0.38240356960216004, '
         '"a_max": 1.7862731298795125, "a_min_has_root": true}'),
        (theory_bounds(1.0, 1.0, 1),
         '{"type": "TheoryBounds", "lambda_pow_d": 1.0, "a_min": 0.0, '
         '"a_max": 2.7182818284590455, "a_min_has_root": false}'),
    ],
    ids=["degree-summary", "bounds-root", "bounds-no-root"],
)
def test_json_form_of_derived_fields(obj, golden):
    assert json.dumps(to_jsonable(obj)) == golden
    data = json.loads(golden)
    assert from_jsonable(data) == obj
    # The derived keys may be left out ...
    inputs = {k: v for k, v in data.items()
              if k not in ("epsilon_n", "min_degree", "max_degree", "a_min_has_root")}
    assert from_jsonable(inputs) == obj


@pytest.mark.parametrize(
    "data, field",
    [
        ({"type": "DegreeSummary", "degrees": [2, 2, 1, 1], "epsilon_n": 4}, "epsilon_n"),
        ({"type": "DegreeSummary", "degrees": [2, 2, 1, 1], "max_degree": 3}, "max_degree"),
        ({"type": "TheoryBounds", "lambda_pow_d": 1.0, "a_min": 0.0, "a_max": 2.5,
          "a_min_has_root": True}, "a_min_has_root"),
    ],
    ids=["epsilon-n", "max-degree", "a-min-has-root"],
)
def test_json_refuses_inconsistent_derived_field(data, field):
    # ... but a supplied one must agree with the inputs.
    with pytest.raises(ValueError, match=f"field '{field}'"):
        from_jsonable(data)


@pytest.mark.parametrize(
    "obj",
    [
        sample_exponential_cloud(10, np.int64(2), np.float32(1.5), np.uint64(3)),
        LogRegime(c=np.float64(4.0), lam=np.float32(1.5), d=np.int64(2)),
        PowerFamily(alpha=np.float32(1.5), beta=np.int64(3), lam=np.float64(1.5),
                    d=np.int32(2)),
        ExperimentSpec(
            kind="containment", n_list=np.array([50, 60]), d=np.int64(2),
            lam=np.float32(1.5), replications=np.int64(1), base_seed=np.uint64(2),
            epsilon=np.float32(0.5),
        ),
    ],
    ids=["PointCloud", "LogRegime", "PowerFamily", "ExperimentSpec"],
)
def test_numpy_integer_fields_are_stored_as_int(obj):
    # Every numeric field, built from numpy scalars, holds a Python number.
    for name, value in vars(obj).items():
        for v in value if name == "n_list" else (value,):
            if isinstance(v, (int, float, np.number)):
                assert type(v) in (int, float), (name, type(v))
    assert type(obj.d) is int and type(obj.lam) is float
    data = json.loads(json.dumps(to_jsonable(obj)))
    assert data["d"] == 2 and data["lambda"] == 1.5
    assert from_jsonable(data) == obj
