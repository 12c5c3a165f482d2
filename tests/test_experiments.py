import io
import json
import math

import numpy as np
import pytest

import exprgg
from exprgg import (
    LogRegime,
    PowerFamily,
    brute_force_edges,
    emit,
    parse_table,
    run_degree_law,
    run_experiment,
    sample_exponential_cloud,
    theory_bounds,
)
from exprgg.experiments import (
    CSV_COLUMNS,
    DEFAULT_Y_GRID,
    ExperimentSpec,
    build_manifest,
    render_table,
    spec_from_json_file,
    write_manifest,
)
from conftest import few_value_cloud, gap_boundary_clouds, make_cloud, tie_and_overflow_clouds
from exprgg.sampling import derive_replication_seed
from exprgg.spatial import _CANDIDATE_CHUNK


def small_spec(kind="degree-law", **overrides):
    base = dict(
        kind=kind,
        n_list=(50, 120),
        d=1,
        lam=1.0,
        replications=3,
        base_seed=42,
        family=LogRegime(c=4.0, lam=1.0, d=1),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(n_list=(120, 50))  # not increasing
    with pytest.raises(ValueError):
        small_spec(n_list=())
    with pytest.raises(ValueError):
        small_spec(replications=0)
    with pytest.raises(ValueError):
        small_spec(family=PowerFamily(alpha=1.0, beta=2.0, lam=1.0, d=1))  # needs log
    with pytest.raises(ValueError):
        small_spec(family=LogRegime(c=4.0, lam=2.0, d=1))  # lam mismatch
    with pytest.raises(ValueError):
        small_spec(kind="containment")  # family not allowed, epsilon missing
    with pytest.raises(ValueError):
        ExperimentSpec(
            kind="uniform-slln", n_list=(50,), d=1, lam=1.0, replications=1,
            base_seed=0, y_grid=(0.5, 0.2),
        )
    with pytest.raises(ValueError):
        ExperimentSpec(
            kind="uniform-slln", n_list=(50,), d=1, lam=1.0, replications=1,
            base_seed=0, y_grid=(0.5, 1.2),
        )
    with pytest.raises(ValueError):
        ExperimentSpec(
            kind="containment", n_list=(50,), d=1, lam=1.0, replications=1,
            base_seed=0, epsilon=-0.5,
        )
    with pytest.raises(ValueError):
        small_spec(kind="unknown-kind")


def test_threshold_rejects_vanishing_edge_distance():
    # a family that would force y_n = 0 cannot even be constructed
    with pytest.raises(ValueError):
        PowerFamily(alpha=0.0, beta=1.0, lam=1.0, d=1)


def test_rows_are_ordered_and_deterministic():
    spec = small_spec()
    first = run_degree_law(spec)
    second = run_degree_law(spec)
    assert [(r.n, r.replication) for r in first.rows] == [
        (n, rep) for n in spec.n_list for rep in range(spec.replications)
    ]
    assert first.rows == second.rows
    # seeds follow the global replication counter
    assert [r.seed for r in first.rows] == [
        derive_replication_seed(42, i) for i in range(len(first.rows))
    ]


def test_thread_count_does_not_change_results():
    uniform = ExperimentSpec(
        kind="uniform-slln", n_list=(80, 300), d=2, lam=1.0, replications=8,
        base_seed=42, y_grid=DEFAULT_Y_GRID,
    )
    for spec in (small_spec(n_list=(80, 160), replications=8), uniform):
        serial = run_experiment(spec, threads=1)
        threaded = run_experiment(spec, threads=8)
        assert render_table(serial.rows, "csv") == render_table(threaded.rows, "csv")
        assert serial.summaries == threaded.summaries


def test_degree_law_rows_carry_matching_bounds():
    spec = small_spec()
    res = run_degree_law(spec)
    tb = theory_bounds(4.0, 1.0, 1)
    for row in res.rows:
        assert row.min_ratio <= row.max_ratio
    for summary in res.summaries:
        assert summary["min_limsup_envelope"] == 2.0
        assert summary["max_limsup_bound"] == tb.max_limsup_bound


def test_edge_slln_matches_brute_force_on_small_n():
    spec = small_spec(kind="edge-slln", n_list=(40, 90), replications=2)
    res = run_experiment(spec)
    for row in res.rows:
        cloud = sample_exponential_cloud(row.n, row.d, row.lam, row.seed)
        assert row.epsilon_n == len(brute_force_edges(cloud, row.y_n))
        assert row.gap == abs(
            row.epsilon_n / (row.n * (row.n - 1) / 2) - row.p_y
        )
        assert row.min_ratio is None and row.contained is None


def test_uniform_sup_dominates_every_grid_point():
    grid = (0.1, 0.3, 0.5)
    spec = ExperimentSpec(
        kind="uniform-slln", n_list=(200,), d=1, lam=1.0, replications=2,
        base_seed=7, y_grid=grid,
    )
    res = run_experiment(spec)
    from exprgg.graphstats import _edge_counts_multi
    from exprgg.theory import pair_connect_prob

    for row in res.rows:
        cloud = sample_exponential_cloud(row.n, 1, 1.0, row.seed)
        counts = _edge_counts_multi(cloud, np.asarray(grid))
        pairs = row.n * (row.n - 1) / 2
        gaps = [
            abs(c / pairs - pair_connect_prob(y, 1.0, 1))
            for c, y in zip(counts, grid)
        ]
        assert row.gap == max(gaps)
        assert all(row.gap >= g for g in gaps)
        assert list(counts) == [len(brute_force_edges(cloud, y)) for y in grid]
    for cloud, ys in tie_and_overflow_clouds() + gap_boundary_clouds() + y_grid_edge_clouds():
        counts = _edge_counts_multi(cloud, np.asarray(ys))
        assert list(counts) == [len(brute_force_edges(cloud, y)) for y in ys], cloud.d
    for cloud, ys, degrees in (few_value_cloud(), few_value_cloud(d=2, n=2000)):
        counts = _edge_counts_multi(cloud, np.asarray(ys))
        assert list(counts) == [int(deg.sum()) // 2 for deg in degrees], cloud.d


def y_grid_edge_clouds():
    """(cloud, ascending y values) at the edges of the d >= 2 y-grid histogram,
    which bins each pair's distance at the first y at or above it."""
    rng = np.random.default_rng(12)
    lattice2 = rng.integers(0, 24, size=(300, 2)) / 8.0
    lattice4 = rng.integers(0, 8, size=(300, 4)) / 8.0
    box = rng.random((80, 3))
    spread = rng.permutation(np.cumsum(1.0 + rng.random(60)))
    stairs = np.arange(60.0)
    dense = rng.integers(0, 16, size=(500, 2)) / 8.0
    cases = [
        # y = 0 in the grid: coincident lattice points tie there.
        (make_cloud(lattice2), (0.0, 0.125, 0.25, 0.375)),
        # Complete at the last y (the box spans less than 1 on every axis),
        # not at the first.
        (make_cloud(box), (0.05, 0.5, 1.0)),
        # Empty at the last y: no last-axis gap within it, and gaps within it
        # on the last axis with the first axis separating every pair.
        (make_cloud(np.column_stack([spread] * 2)), (0.0, 0.5)),
        (make_cloud(np.column_stack((2.0 * stairs, 0.01 * stairs))), (0.5, 1.0)),
        # d = 4 on the 1/8 lattice, ties on every axis.
        (make_cloud(lattice4), (0.0, 0.125, 0.25, 0.5)),
        # Candidate pairs over several chunks, with ties at each y.
        (make_cloud(dense), (0.0, 0.125, 0.5, 1.0, 2.0)),
    ]
    box_cloud = cases[1][0]
    assert len(brute_force_edges(box_cloud, 0.05)) < len(brute_force_edges(box_cloud, 1.0))
    assert len(brute_force_edges(box_cloud, 1.0)) == 80 * 79 // 2
    assert all(len(brute_force_edges(cloud, ys[-1])) == 0 for cloud, ys in cases[2:4])
    assert len(brute_force_edges(cases[-1][0], 2.0)) > 3 * _CANDIDATE_CHUNK
    return cases


def test_uniform_sup_gap_shrinks_with_n():
    spec = ExperimentSpec(
        kind="uniform-slln", n_list=(10**3, 10**4), d=1, lam=1.0,
        replications=5, base_seed=42, y_grid=DEFAULT_Y_GRID,
    )
    res = run_experiment(spec)
    sups = [s["mean_sup_gap"] for s in res.summaries]
    assert sups[1] < sups[0]


def test_containment_flags_forced_escape():
    spec = ExperimentSpec(
        kind="containment", n_list=(100,), d=2, lam=1.0, replications=4,
        base_seed=3, epsilon=0.5,
    )
    res = run_experiment(spec)
    from exprgg.theory import containment_radius

    radius = containment_radius(100, 1.0, 2, 0.5)
    for row in res.rows:
        cloud = sample_exponential_cloud(100, 2, 1.0, row.seed)
        assert row.contained == bool(cloud.points.max() <= radius)
    assert any(not row.contained for row in res.rows)


def test_containment_nested_in_epsilon_on_identical_seeds():
    kwargs = dict(kind="containment", n_list=(500,), d=2, lam=1.0,
                  replications=50, base_seed=11)
    tight = run_experiment(ExperimentSpec(epsilon=0.5, **kwargs))
    loose = run_experiment(ExperimentSpec(epsilon=1.0, **kwargs))
    for a, b in zip(tight.rows, loose.rows):
        assert a.seed == b.seed
        if a.contained:
            assert b.contained  # the smaller box is inside the larger one
    freq = lambda res: res.summaries[0]["containment_frequency"]
    assert freq(loose) >= freq(tight)


def test_threshold_rows_and_manifest_oracle():
    fam = PowerFamily(alpha=1.0, beta=3.0, lam=1.0, d=1)
    spec = ExperimentSpec(
        kind="threshold", n_list=(200,), d=1, lam=1.0, replications=5,
        base_seed=17, family=fam,
    )
    res = run_experiment(spec)
    assert res.theory["series"] == "converges"
    assert "200" in res.theory["first_moment_expected_edges"]
    for row in res.rows:
        assert row.has_edge == (row.epsilon_n >= 1)


def test_rows_satisfy_degree_invariants_where_populated():
    spec = small_spec(n_list=(60, 140), replications=3)
    for row in run_degree_law(spec).rows:
        assert 0 <= row.min_degree <= row.max_degree <= row.n - 1
        assert 2 * row.epsilon_n <= row.n * row.max_degree
        assert row.epsilon_n >= 0


def test_rows_blank_fields_by_kind():
    uniform = ExperimentSpec(
        kind="uniform-slln", n_list=(100,), d=1, lam=1.0, replications=2,
        base_seed=5, y_grid=(0.2, 0.6),
    )
    for row in run_experiment(uniform).rows:
        assert row.gap is not None
        assert row.y_n is None and row.epsilon_n is None and row.min_ratio is None
    contain = ExperimentSpec(
        kind="containment", n_list=(100,), d=1, lam=1.0, replications=2,
        base_seed=5, epsilon=0.5,
    )
    for row in run_experiment(contain).rows:
        assert row.contained is not None
        assert row.has_edge is None and row.gap is None and row.y_n is None


def test_emit_csv_shape(tmp_path):
    spec = small_spec(n_list=(50,), replications=1)
    res = run_degree_law(spec)
    out = tmp_path / "table.csv"
    emit(res.rows, "csv", str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header + one row
    assert lines[0] == ",".join(CSV_COLUMNS)
    # blank cells for fields that are not meaningful on degree-law rows
    cells = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert cells["gap"] == "" and cells["contained"] == "" and cells["has_edge"] == ""
    assert cells["param2"] == ""
    assert cells["experiment"] == "degree-law"


def test_emit_rejects_empty_table(tmp_path):
    with pytest.raises(ValueError):
        emit([], "csv", str(tmp_path / "x.csv"))


def test_emit_round_trip_and_cross_format_equality():
    spec = small_spec(kind="edge-slln", n_list=(60, 90), replications=2)
    rows = run_experiment(spec).rows
    csv_buf, json_buf = io.StringIO(), io.StringIO()
    emit(rows, "csv", csv_buf)
    emit(rows, "json", json_buf)
    assert parse_table(csv_buf.getvalue(), "csv") == rows
    assert parse_table(json_buf.getvalue(), "json") == rows
    # identical numeric content across formats
    assert parse_table(csv_buf.getvalue(), "csv") == parse_table(json_buf.getvalue(), "json")
    # json is strict json
    json.loads(json_buf.getvalue())


def test_manifest_round_trip(tmp_path):
    spec = small_spec(n_list=(50,), replications=2)
    res = run_degree_law(spec)
    out = tmp_path / "rows.csv"
    emit(res.rows, "csv", str(out))
    manifest_path = write_manifest(res, str(out), "csv")
    data = json.loads(open(manifest_path).read())
    assert data["artifact"]["name"] == "exprgg"
    assert data["artifact"]["version"] == exprgg.__version__
    assert data["output"]["rows"] == 2
    assert spec_from_json_file(manifest_path) == spec
    # manifest carries the degree-law bounds including the doubled-rate envelope
    assert data["theory"]["min_limsup_envelope"] == 2.0


def test_spec_json_handles_infinite_c(tmp_path):
    from exprgg import to_jsonable

    # edge-slln, since degree-law refuses c = inf (its ratios divide by y^d)
    spec = small_spec(
        "edge-slln", n_list=(10,), replications=1,
        family=LogRegime(c=math.inf, lam=1.0, d=1),
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(to_jsonable(spec), allow_nan=False))  # strict JSON
    assert spec_from_json_file(str(path)) == spec


def test_manifest_floats_stay_strict_json():
    spec = small_spec(n_list=(50,), replications=1)
    res = run_degree_law(spec)
    manifest = build_manifest(res, "rows.csv", "csv")
    json.dumps(manifest, allow_nan=False)  # must not raise
