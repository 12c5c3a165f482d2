"""Self-test of the benchmark at tiny sizes (about ten seconds).

    python3 bench/selftest.py

Checks the self-time arithmetic on a synthetic span tree, the tracer on a
real generator, the independent recount against the program, and that a
tiny run of each end-to-end and traced mode emits every metric that
BENCHMARK.json declares, with its unit.
"""

import json
import os
import sys

import run
import tracing

sys.path.insert(0, run.SRC)


def test_self_times_add_up_on_synthetic_tree():
    spans = [
        ("cli.main", 0, 100, -1, 0),
        ("experiments.run_experiment", 5, 90, 0, 0),
        ("sampling.sample_exponential_cloud", 10, 20, 1, 50),
        ("graphstats.degree_summary", 20, 80, 1, 7),
        ("spatial.build_grid_index", 21, 30, 3, 4),
        ("spatial.iter_candidate_pairs", 30, 40, 3, 6),
        ("spatial.iter_candidate_pairs", 50, 60, 3, 8),
        ("experiments.emit", 90, 95, 0, 2),
        ("experiments.write_manifest", 95, 98, 0, 0),
    ]
    assert tracing.check_tree(spans) == []
    assert tracing.self_times_ns(spans) == [7, 15, 10, 31, 9, 10, 10, 5, 3]
    m = tracing.layer_metrics(spans)
    assert m["graphstats.self_s"] == 31e-9 and m["experiments.self_s"] == 15e-9
    assert m["trace.untraced_s"] == 7e-9 and m["trace.wall_s"] == 100e-9
    assert m["spatial.candidate_pairs"] == 14 and m["graphstats.hit_ratio"] == 0.5
    assert m["experiments.rows"] == 2
    assert abs(tracing.remainder_gap_s(m)) < 1e-15

    overlapping = spans[:6] + [("spatial.iter_candidate_pairs", 35, 60, 3, 8)] + spans[7:]
    assert any("overlaps" in p for p in tracing.check_tree(overlapping))
    outside = spans[:2] + [("sampling.sample_exponential_cloud", 1, 20, 1, 50)] + spans[3:]
    assert any("outside" in p for p in tracing.check_tree(outside))
    unreported = ([("cli.main", 0, 10_000, -1, 0)] + spans[1:]
                  + [("spatial.unknown", 100, 9_000, 0, 0)])
    assert any("untraced remainder" in p for p in tracing.analyse(unreported)[1])


def test_generator_spans_cover_each_next_only():
    tracer = tracing.Tracer()
    gen = tracer.wrap_generator(lambda: iter([[1, 2], [3]]), "g", len)
    outer = tracer.wrap(lambda: [item for item in gen()], "outer")
    assert outer() == [[1, 2], [3]]
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, 0), ("g", 0, 2), ("g", 0, 1), ("g", 0, 0)]
    assert tracing.check_tree(tracer.spans) == []


def test_independent_recount_matches_program():
    import checks
    from exprgg.graphstats import degree_summary
    from exprgg.model import PointCloud

    for d in (1, 2, 3):
        points = checks.exponential_cloud(400, d, 1.0, 11)
        cloud = PointCloud(d=d, points=points, seed=11, lam=1.0)
        for y in (0.02, 0.3):
            assert (checks.degrees(points, y) == degree_summary(cloud, y).degrees).all()
    assert checks.tie_gate(5) == []


def test_tiny_runs_emit_every_declared_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    tiny = {
        "degree-law": run.Workload(("degree-law", "--d", "1", "--lambda", "1", "--c", "4",
                                    "--n", "2000"), 2, "tiny"),
        "uniform-slln": run.Workload(("uniform-slln", "--d", "1", "--lambda", "1",
                                      "--n", "300"), 1, "tiny"),
    }
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        for name, workload in tiny.items():
            attempted, failed, metrics = run.measure(name, workload, 3, 0.0, trace, None)
            assert failed == 0 and attempted >= run.MIN_RUNS + 2
            assert set(metrics) == {m["name"] for m in declared[key]}
            for m in declared[key]:
                value, unit = metrics[m["name"]]
                assert unit == m["unit"] and isinstance(value, (int, float))


if __name__ == "__main__":
    for test in [v for k, v in sorted(globals().items()) if k.startswith("test_")]:
        test()
        print(f"ok {test.__name__}")
