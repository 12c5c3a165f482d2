import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from exprgg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theory_h_prints_zero(capsys):
    code, out, _ = run_cli(capsys, "theory", "h", "--t", "1")
    assert code == 0
    assert out == "0\n"


def test_theory_h_infinity(capsys):
    code, out, _ = run_cli(capsys, "theory", "h", "--t", "inf")
    assert code == 0
    assert out == "-1\n"


def test_theory_a_max_analytic(capsys):
    code, out, _ = run_cli(capsys, "theory", "a-max", "--c", "1", "--lambda", "1", "--d", "1")
    assert code == 0
    value = float(out.strip())
    assert abs(value - math.e) <= 5e-16  # one ulp off the analytic root at most


def test_theory_a_min_no_root_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "theory", "a-min", "--c", "1", "--lambda", "1", "--d", "1")
    assert code == 0
    assert out == "0\n"
    assert "no root" in err


def test_theory_bounds_labeled_lines(capsys):
    code, out, _ = run_cli(capsys, "theory", "bounds", "--c", "4", "--lambda", "1", "--d", "1")
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["lambda_pow_d"] == "1"
    assert float(lines["a_max"]) == pytest.approx(1.7862731299, abs=1e-9)
    assert lines["a_min_has_root"] == "true"


# Every theory quantity, its stdout and its stderr, byte for byte.
THEORY_GOLDEN = [
    (["p", "--y", "0.6931471805599453", "--lambda", "1", "--d", "2"], "0.25\n", ""),
    (["h", "--t", "2.5"], "-0.23348370725033796\n", ""),
    (["chernoff-upper", "--n", "10", "--p", "0.1", "--k", "2"],
     "0.67957045711476138\n", ""),
    (["chernoff-lower", "--n", "100", "--p", "0.3", "--k", "0.5"],
     "1.1950564192608801e-12\n", ""),
    (["a-min", "--c", "4", "--lambda", "1", "--d", "1"], "0.38240356960216004\n", ""),
    (["a-min", "--c", "1", "--lambda", "1", "--d", "1"], "0\n",
     "note: no root below 1 (lambda^d * c <= 1); bound degenerates to 0\n"),
    (["a-max", "--c", "1", "--lambda", "1", "--d", "1"], "2.7182818284590455\n", ""),
    (["bounds", "--c", "4", "--lambda", "1.5", "--d", "2"],
     "lambda_pow_d=2.25\na_min=0.56730922888983593\na_min_has_root=true\n"
     "a_max=1.5071435634375574\nmin_liminf_bound=1.2764457650021308\n"
     "min_limsup_bound=2.25\nmax_liminf_bound=2.25\nmax_limsup_bound=3.3910730177345041\n",
     ""),
    (["bounds", "--c", "0.5", "--lambda", "1", "--d", "1"],
     "lambda_pow_d=1\na_min=0\na_min_has_root=false\na_max=3.5911214766686221\n"
     "min_liminf_bound=0\nmin_limsup_bound=1\nmax_liminf_bound=1\n"
     "max_limsup_bound=3.5911214766686221\n", ""),
    (["radius", "--n", "10000", "--lambda", "2", "--d", "3", "--epsilon", "0.5"],
     "6.9077552789821377\n", ""),
    (["radius", "--n", "100", "--lambda", "1", "--d", "1"], "4.6051701859880918\n", ""),
]


@pytest.mark.parametrize("argv, out, err", THEORY_GOLDEN,
                         ids=[" ".join(case[0][:3]) for case in THEORY_GOLDEN])
def test_theory_golden_output(capsys, argv, out, err):
    assert run_cli(capsys, "theory", *argv) == (0, out, err)


# uniform-slln tables, byte for byte: each row's gap is the sup over the
# y-grid, so a count off by one at the y that attains it moves the gap.
UNIFORM_HEADER = (
    "experiment,n,d,lambda,family,param1,param2,replication,seed,y_n,epsilon_n,"
    "min_degree,max_degree,min_ratio,max_ratio,p_y,gap,contained,has_edge\n"
)
UNIFORM_GOLDEN = [
    (["--d", "2"],
     "uniform-slln,300,2,1,,,,0,7191089600892374487,,,,,,,,0.02448157012076474,,\n"
     "uniform-slln,300,2,1,,,,1,309689372594955804,,,,,,,,0.012065923001741197,,\n"
     "uniform-slln,1200,2,1,,,,0,16616101746815609346,,,,,,,,0.019864140676880637,,\n"
     "uniform-slln,1200,2,1,,,,1,10753165928301472203,,,,,,,,0.0077966771796577627,,\n"),
    (["--d", "3"],
     "uniform-slln,300,3,1,,,,0,7191089600892374487,,,,,,,,0.0061186274157721127,,\n"
     "uniform-slln,300,3,1,,,,1,309689372594955804,,,,,,,,0.0033719851409136081,,\n"
     "uniform-slln,1200,3,1,,,,0,16616101746815609346,,,,,,,,0.011945206229092814,,\n"
     "uniform-slln,1200,3,1,,,,1,10753165928301472203,,,,,,,,0.0032907719783282774,,\n"),
    (["--d", "2", "--y-grid", "0,0.05,0.5,1"],
     "uniform-slln,300,2,1,,,,0,7191089600892374487,,,,,,,,0.02448157012076474,,\n"
     "uniform-slln,300,2,1,,,,1,309689372594955804,,,,,,,,0.010033480046459375,,\n"
     "uniform-slln,1200,2,1,,,,0,16616101746815609346,,,,,,,,0.019864140676880637,,\n"
     "uniform-slln,1200,2,1,,,,1,10753165928301472203,,,,,,,,0.0073017003277750236,,\n"),
]


@pytest.mark.parametrize("argv, rows", UNIFORM_GOLDEN, ids=["d2", "d3", "d2-grid-from-0"])
def test_uniform_slln_golden_table(tmp_path, capsys, argv, rows):
    out = tmp_path / "u.csv"
    code, _, _ = run_cli(capsys, "experiment", "uniform-slln", *argv, "--lambda", "1",
                         "--n", "300,1200", "--reps", "2", "--seed", "7", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (UNIFORM_HEADER + rows).encode()


def test_theory_chernoff(capsys):
    code, out, _ = run_cli(
        capsys, "theory", "chernoff-upper", "--n", "10", "--p", "0.1", "--k", "2"
    )
    assert code == 0
    assert float(out) == pytest.approx(0.25 * math.e, rel=1e-15)
    code, _, err = run_cli(
        capsys, "theory", "chernoff-upper", "--n", "10", "--p", "0.5", "--k", "2"
    )
    assert code == 1  # out of validity range
    assert "error" in err


def test_theory_radius(capsys):
    code, out, _ = run_cli(
        capsys, "theory", "radius", "--n", "100", "--lambda", "2", "--d", "2",
        "--epsilon", "0.5",
    )
    assert code == 0
    assert float(out) == pytest.approx(1.5 * math.log(100) / 2, rel=1e-15)


def test_unknown_flag_exits_one(capsys):
    code, _, err = run_cli(capsys, "theory", "h", "--t", "1", "--bogus")
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_command_exits_one(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_sample_writes_dump(tmp_path, capsys):
    out_path = tmp_path / "cloud.txt"
    code, out, _ = run_cli(
        capsys, "sample", "--n", "5", "--d", "2", "--lambda", "1.5",
        "--seed", "9", "--out", str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("# exprgg-cloud v1 n=5 d=2 lambda=1.5 seed=9\n")
    assert len(text.splitlines()) == 6
    # stdout mode produces the same bytes
    code, out, _ = run_cli(capsys, "sample", "--n", "5", "--d", "2", "--lambda", "1.5", "--seed", "9")
    assert out == text


def test_sample_rejects_bad_args(capsys):
    code, _, err = run_cli(capsys, "sample", "--n", "0", "--d", "1", "--lambda", "1", "--seed", "1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["theory", "p", "--y", "nan", "--lambda", "1", "--d", "1"],
        ["theory", "p", "--y", "0", "--lambda", "inf", "--d", "1"],
        ["theory", "radius", "--n", "10", "--lambda", "1", "--d", "1", "--epsilon", "nan"],
        ["theory", "radius", "--n", "10", "--lambda", "inf", "--d", "1"],
        ["theory", "a-max", "--c", "1", "--lambda", "inf", "--d", "1"],
        ["theory", "chernoff-upper", "--n", "10", "--p", "0.5", "--k", "nan"],
        ["theory", "chernoff-upper", "--n", "10", "--p", "0.5", "--k", "inf"],
        ["sample", "--n", "3", "--d", "1", "--lambda", "1e-320", "--seed", "1"],
        ["experiment", "containment", "--d", "1", "--lambda", "1", "--n", "100", "--reps", "2",
         "--seed", "1", "--epsilon", "nan", "--out", "OUT"],
        # Finite lambda whose radius, lambda^d or lambda^d * c over- or underflows
        ["theory", "radius", "--n", "10", "--lambda", "1e-320", "--d", "1"],
        ["theory", "a-min", "--c", "1", "--lambda", "1e-200", "--d", "2"],
        ["theory", "bounds", "--c", "1", "--lambda", "1e200", "--d", "2"],
        ["experiment", "containment", "--d", "1", "--lambda", "1", "--n", "100", "--reps", "2",
         "--seed", "1", "--epsilon", "inf", "--out", "OUT"],
        ["experiment", "degree-law", "--d", "1", "--lambda", "1e-10", "--c", "1e-300",
         "--n", "100", "--reps", "2", "--seed", "1", "--out", "OUT"],
    ],
    ids=["p-nan-y", "p-inf-lambda", "radius-nan-epsilon", "radius-inf-lambda",
         "a-max-inf-lambda", "chernoff-nan-k", "chernoff-inf-k", "sample-subnormal-lambda",
         "containment-nan-epsilon", "radius-subnormal-lambda", "a-min-underflowing-lambda-d",
         "bounds-overflowing-lambda-d", "containment-inf-epsilon", "degree-law-subnormal-product"],
)
def test_nan_and_inf_parameters_exit_one(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, *[str(out) if a == "OUT" else a for a in argv])
    assert code == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("exprgg: error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, axes",
    [
        (["graph", "--d", "14", "--y", "0.5"], 13),
        (["graph", "--d", "40", "--y", "0.5"], 39),
        (["experiment", "uniform-slln", "--d", "14", "--reps", "1", "--out", "OUT"], 13),
    ],
    ids=["graph-d14", "graph-d40", "uniform-slln-d14"],
)
def test_grid_over_twelve_axes_refused_before_its_offset_walk(tmp_path, capsys, argv, axes):
    # The index walks the 3^k offsets of its k axes; degree counts and the
    # uniform-slln y-grid index the first d - 1 axes. Refused at once, not
    # after minutes or ages.
    argv = [str(tmp_path / "x.csv") if a == "OUT" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--n", "50", "--lambda", "1", "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == f"exprgg: error: the grid index supports at most 12 axes, got {axes}\n"
    assert list(tmp_path.iterdir()) == []


def test_graph_csv_and_json(capsys):
    args = ["graph", "--n", "50", "--d", "2", "--lambda", "1", "--y", "0.3", "--seed", "4"]
    code, out_csv, _ = run_cli(capsys, *args)
    assert code == 0
    header, row = out_csv.strip().splitlines()
    assert header == "n,d,lambda,y,seed,epsilon_n,min_degree,max_degree"
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    data = json.loads(out_json)
    cells = dict(zip(header.split(","), row.split(",")))
    assert data["epsilon_n"] == int(cells["epsilon_n"])
    assert len(data["degrees"]) == 50
    assert sum(data["degrees"]) == 2 * data["epsilon_n"]
    # y = inf: a complete graph, and the JSON stays strict (y as a string)
    args[args.index("0.3")] = "inf"
    code, out_csv, _ = run_cli(capsys, *args)
    assert code == 0
    cells = dict(zip(header.split(","), out_csv.strip().splitlines()[1].split(",")))
    assert cells["y"] == "inf" and cells["min_degree"] == cells["max_degree"] == "49"
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    data = json.loads(out_json)
    assert data["y"] == "inf" and data["degrees"] == [49] * 50


def test_identical_argv_identical_stdout(capsys):
    args = ["graph", "--n", "80", "--d", "1", "--lambda", "2", "--y", "0.1", "--seed", "5"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_small_sweep(capsys):
    code, out, err = run_cli(capsys, "verify", "--cases", "25", "--max-n", "120", "--seed", "1")
    assert code == 0
    assert out == "verify: 25 cases, 25 matched\n"


def test_verify_names_the_engine_that_disagreed(capsys, monkeypatch):
    from exprgg import cli
    from exprgg.model import DegreeSummary

    # The complete graph, which none of these cases' graphs is.
    monkeypatch.setattr(
        cli, "degree_summary",
        lambda cloud, y: DegreeSummary.from_degrees(np.full(cloud.n, cloud.n - 1)),
    )
    code, out, err = run_cli(capsys, "verify", "--cases", "3", "--max-n", "50", "--seed", "1")
    assert code == 3
    assert out == "verify: 3 cases, 0 matched\n"
    assert err.count("in degrees\n") == 3 and "neighbors" not in err
    monkeypatch.undo()
    # One edge too many at each y, on the sampled and the lattice clouds and
    # at the realised distance alike.
    real = cli._edge_counts_multi
    monkeypatch.setattr(cli, "_edge_counts_multi", lambda cloud, ys: real(cloud, ys) + 1)
    code, out, err = run_cli(capsys, "verify", "--cases", "3", "--max-n", "50", "--seed", "1")
    assert code == 3
    assert out == "verify: 3 cases, 0 matched\n"
    lines = err.splitlines()
    assert len(lines) == 3
    assert all(", 1/4 lattice) in edge-counts; " in line for line in lines)
    assert all(line.endswith(", realised distance) in edge-counts") for line in lines)
    assert all(line.count(" in edge-counts") == 3 for line in lines)
    assert "neighbors" not in err and "degrees" not in err


SPEC_FLAGS = ["--d", "1", "--lambda", "1", "--n", "100", "--reps", "1", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["degree-law", *SPEC_FLAGS, "--c", "4", "--epsilon", "0.5"],
         "degree-law does not take epsilon"),
        (["degree-law", *SPEC_FLAGS, "--c", "4", "--y-grid", "0.1,0.2"],
         "degree-law does not take a y_grid"),
        (["containment", *SPEC_FLAGS, "--epsilon", "0.5", "--c", "4"],
         "containment does not take an edge-distance family"),
        (["uniform-slln", *SPEC_FLAGS, "--epsilon", "3"],
         "uniform-slln does not take epsilon"),
        (["threshold", *SPEC_FLAGS, "--alpha", "1"], "give both --alpha and --beta"),
        (["degree-law", "--spec", "SPEC", "--n", "999", "--reps", "5"],
         "--spec replaces the spec flags; drop --n, --reps"),
        (["degree-law", "--spec", "SPEC", "--c", "4"],
         "--spec replaces the spec flags; drop --c"),
    ],
    ids=["epsilon-to-degree-law", "y-grid-to-degree-law", "c-to-containment",
         "epsilon-to-uniform-slln", "alpha-without-beta", "spec-with-n-reps", "spec-with-c"],
)
def test_experiment_refuses_flags_it_would_drop(tmp_path, capsys, argv, message):
    spec = tmp_path / "m.csv"
    assert run_cli(capsys, "experiment", "degree-law", "--c", "4", *SPEC_FLAGS,
                   "--out", str(spec))[0] == 0
    argv = [str(spec) + ".manifest.json" if a == "SPEC" else a for a in argv]
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, "experiment", *argv, "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err == f"exprgg: error: {message}\n"
    assert not out.exists() and not (tmp_path / "x.csv.manifest.json").exists()


def test_experiment_writes_table_and_manifest(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, stdout, stderr = run_cli(
        capsys, "experiment", "edge-slln", "--d", "1", "--lambda", "1",
        "--c", "2", "--n", "100,200", "--reps", "2", "--seed", "42",
        "--out", str(out),
    )
    assert code == 0
    assert out.exists()
    manifest = tmp_path / "rows.csv.manifest.json"
    assert manifest.exists()
    assert "n=100" in stderr and "n=200" in stderr  # line-per-n log
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    data = json.loads(manifest.read_text())
    assert data["spec"]["kind"] == "edge-slln"
    assert data["output"]["format"] == "csv"


def test_experiment_rerun_from_manifest_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.csv"
    run_cli(
        capsys, "experiment", "threshold", "--d", "1", "--lambda", "1",
        "--alpha", "1", "--beta", "3", "--n", "150", "--reps", "4",
        "--seed", "7", "--out", str(first),
    )
    second = tmp_path / "b.csv"
    code, _, _ = run_cli(
        capsys, "experiment", "threshold", "--spec",
        str(tmp_path / "a.csv.manifest.json"), "--out", str(second),
    )
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_experiment_threads_flag_is_inert(tmp_path, capsys):
    argv = [
        "experiment", "degree-law", "--d", "1", "--lambda", "1", "--c", "4",
        "--n", "100,200", "--reps", "6", "--seed", "42", "--format", "json",
    ]
    one = tmp_path / "one.json"
    eight = tmp_path / "eight.json"
    assert run_cli(capsys, *argv, "--out", str(one), "--threads", "1")[0] == 0
    assert run_cli(capsys, *argv, "--out", str(eight), "--threads", "8")[0] == 0
    assert one.read_bytes() == eight.read_bytes()


def test_experiment_env_var_threads(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EXPRGG_THREADS", "4")
    out = tmp_path / "env.csv"
    code, _, _ = run_cli(
        capsys, "experiment", "containment", "--d", "2", "--lambda", "1",
        "--n", "100", "--reps", "3", "--seed", "1", "--epsilon", "0.5",
        "--out", str(out),
    )
    assert code == 0
    assert out.exists()


def test_experiment_missing_family_exits_one(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "experiment", "degree-law", "--d", "1", "--lambda", "1",
        "--n", "100", "--reps", "1", "--seed", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "--c" in err


def test_experiment_degree_law_refuses_infinite_c(tmp_path, capsys, monkeypatch):
    from exprgg import experiments

    def no_sampling(*args):
        raise AssertionError("sampled before validation")

    monkeypatch.setattr(experiments, "sample_exponential_cloud", no_sampling)
    argv = ["--d", "1", "--lambda", "1", "--c", "inf", "--n", "50", "--reps", "1",
            "--seed", "1"]
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "experiment", "degree-law", *argv, "--out", str(out))
    assert code == 1
    assert "Traceback" not in err and "finite c" in err
    assert not out.exists()
    # edge-slln takes c = inf: a complete graph, its edge density exactly 1
    monkeypatch.undo()
    code, _, _ = run_cli(capsys, "experiment", "edge-slln", *argv, "--out", str(out))
    assert code == 0 and out.exists()


def test_experiment_degree_law_refuses_overflowing_finite_c(tmp_path, capsys, monkeypatch):
    # c * log n overflows to inf, so y_n and n * y_n^d do too, though c is finite
    from exprgg import experiments

    def no_sampling(*args):
        raise AssertionError("sampled before validation")

    monkeypatch.setattr(experiments, "sample_exponential_cloud", no_sampling)
    argv = ["--d", "1", "--lambda", "1", "--c", "1e308", "--n", "50", "--reps", "1",
            "--seed", "1"]
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "experiment", "degree-law", *argv, "--out", str(out))
    assert code == 1
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "n * y_n^d = inf" in err
    assert not out.exists()
    # edge-slln needs no degree ratio: y_n = inf is its complete graph
    monkeypatch.undo()
    code, _, _ = run_cli(capsys, "experiment", "edge-slln", *argv, "--out", str(out))
    assert code == 0 and out.exists()


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"type": "ExperimentSpec", "n_list": [100], "d": 1, "lambda": 1.0,
          "replications": 1, "base_seed": 1}, "missing field 'kind'"),
        ({"spec": 3}, "got int"),
        ([{"type": "ExperimentSpec"}], "got list"),
        ({"type": "ExperimentSpec", "kind": "degree-law", "n_list": [100], "d": 1,
          "lambda": 1.0, "replications": 1, "base_seed": 1,
          "family": {"type": "LogRegime", "lambda": 1.0, "d": 1}}, "missing field 'c'"),
        ({"type": "ExperimentSpec", "kind": "degree-law", "n_list": [100], "d": 1,
          "lambda": 1.0, "replications": 1, "base_seed": 1,
          "family": {"type": "Regime", "c": 4, "lambda": 1.0, "d": 1}},
         "cannot decode object of type 'Regime'"),
    ],
    ids=["no-kind", "spec-not-object", "top-level-list", "family-no-c", "family-unknown-type"],
)
def test_experiment_malformed_spec_exits_one(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(
        capsys, "experiment", "degree-law", "--spec", str(path),
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "Traceback" not in err
    assert message in err


def test_experiment_unwritable_path_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "experiment", "edge-slln", "--d", "1", "--lambda", "1",
        "--c", "2", "--n", "60", "--reps", "1", "--seed", "1",
        "--out", "/nonexistent-dir/rows.csv",
    )
    assert code == 2
    assert "nonexistent-dir" in err


def test_module_entry_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "exprgg", "theory", "h", "--t", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0\n"
