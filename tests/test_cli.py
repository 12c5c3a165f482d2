import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from exprgg import (
    ExperimentSpec, LogRegime, PowerFamily, a_max, brute_force_edges, sample_exponential_cloud,
)
from exprgg.cli import main
from exprgg.experiments import _csv_cell


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


# (c, lambda, d) = (1e-6, 1, 1), (4, 0.5, 16) and (4, 0.01, 3) give r = 1/(lambda^d c)
# of 1e6, 16384 and 2.5e5, where a converged root's residual exceeds an absolute 1e-12.
@pytest.mark.parametrize("c, lam, d", [
    (c, lam, d) for c in ("1e-6", "4", "1e3") for lam in ("0.01", "0.5", "1")
    for d in ("1", "3", "16")
])
def test_theory_bounds_prints_the_roots_of_a_min_and_a_max(capsys, c, lam, d):
    flags = ("--c", c, "--lambda", lam, "--d", d)
    code, out, err = run_cli(capsys, "theory", "bounds", *flags)
    assert code == 0, err
    lines = dict(line.split("=", 1) for line in out.splitlines())
    for quantity in ("a-min", "a-max"):
        code, root, _ = run_cli(capsys, "theory", quantity, *flags)
        assert code == 0
        assert lines[quantity.replace("-", "_")] == root.strip()


@pytest.mark.parametrize("d", ["1", "2"])
def test_theory_bounds_lines_are_the_degree_law_theory_block(tmp_path, capsys, d):
    flags = ("--c", "4", "--lambda", "1.5", "--d", d)
    code, out, _ = run_cli(capsys, "theory", "bounds", *flags)
    assert code == 0
    table = tmp_path / "x.csv"
    code, _, _ = run_cli(capsys, "experiment", "degree-law", *flags, "--n", "100",
                         "--reps", "1", "--seed", "1", "--out", str(table))
    assert code == 0
    theory = json.loads((tmp_path / "x.csv.manifest.json").read_text())["theory"]
    assert theory.pop("min_limsup_envelope") == 3.0 ** int(d)
    assert out == "".join(f"{name}={_csv_cell(value)}\n" for name, value in theory.items())


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
    # 13 upper offsets in the 3-axis column grid: blocks well past offsets 0 and +1.
    (["--d", "4"],
     "uniform-slln,300,4,1,,,,0,7191089600892374487,,,,,,,,0.0016580921207855551,,\n"
     "uniform-slln,300,4,1,,,,1,309689372594955804,,,,,,,,0.0033041402055594415,,\n"
     "uniform-slln,1200,4,1,,,,0,16616101746815609346,,,,,,,,0.0027541553082605919,,\n"
     "uniform-slln,1200,4,1,,,,1,10753165928301472203,,,,,,,,0.0042679167761505155,,\n"),
]


@pytest.mark.parametrize("argv, rows", UNIFORM_GOLDEN, ids=["d2", "d3", "d2-grid-from-0", "d4"])
def test_uniform_slln_golden_table(tmp_path, capsys, argv, rows):
    out = tmp_path / "u.csv"
    code, _, _ = run_cli(capsys, "experiment", "uniform-slln", *argv, "--lambda", "1",
                         "--n", "300,1200", "--reps", "2", "--seed", "7", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (UNIFORM_HEADER + rows).encode()


# SHA-256 of the table and the manifest of one small run of every other kind,
# at d = 1 and 2, run with --reps 2 --seed 7 --out t.csv from an empty
# directory: the manifest records --out, so it is relative.
KIND_GOLDEN = {
    "degree-law-d1": (
        "degree-law --d 1 --lambda 1 --c 4 --n 300,1200",
        "5227b195eba1303ce59945425e33f17db0aaf19d775ee58ebb717f28fa9ace39",
        "7153c0ec8b6675d94e74c7e45231f0d6f34a4149faf720cb0f3ab4329ed01e57"),
    "degree-law-d2": (
        "degree-law --d 2 --lambda 1 --c 4 --n 300,1200",
        "1b1fe7db5ffc23932837293ebc1e295f2104ea824d58249fcded7a6571ebf6d2",
        "f689feefacc9216bccd44370c86b25ccd5144e1492cbce3282798b01c3b4bc60"),
    "edge-slln-d1": (
        "edge-slln --d 1 --lambda 1 --c 2 --n 300,1200",
        "4720e3ae05a534a3ad790058478c10a6a5698f5c1f63b77a903f932d16628a27",
        "db61347f3b847b83a780481a1318846c1d27e93918361d0af40ab7ca8a4376b8"),
    "edge-slln-d2": (
        "edge-slln --d 2 --lambda 1 --c 2 --n 300,1200",
        "757cbafe28175566091caf4b96fb70a8f0b51b22a84dd8355c7ead38c4e94a51",
        "97ea9e2cb60843d3e2ce7633a812c3396f55cb25ba33e7fc72e3049a52782ccb"),
    "threshold-c-d1": (
        "threshold --d 1 --lambda 1 --c 1 --n 300,1200",
        "6b10ec29a296da13ccf292bda0ac8157d1bd937660f9f774085dd041f455468c",
        "292635c3394fb8cf9843408d85bb57d87b3a6be149d2197e7ba2c9774f92993a"),
    "threshold-c-d2": (
        "threshold --d 2 --lambda 1 --c 1 --n 300,1200",
        "be221b3d8f5a00af0045b4d44f3e5d5a3ea48e9f943faa7e36a2e8f9cae26963",
        "dae2ab45da4a8b61dab9c650d381620e87e452513582996c4eacc4f28bdc075a"),
    "threshold-power-d1": (
        "threshold --d 1 --lambda 1 --alpha 1 --beta 1.5 --n 300,1200",
        "72e823277ff711110c2e3140cb0d8ff8c8741f9a839e38ab901bb1f863079df7",
        "57f02a6c8d7840a194f653c720baa70ba615cf9d37bdc4a715c8033823dc610f"),
    "threshold-power-d2": (
        "threshold --d 2 --lambda 1 --alpha 1 --beta 1.5 --n 300,1200",
        "c96c94e885ab62fa0fb08fa9777adf7a36b5c6a33cca066e862ca1c16ce042cd",
        "dc91c5256625189ffea73eb5b954671e159ccfe57bc865c0d29add80eee10757"),
    "containment-d1": (
        "containment --d 1 --lambda 1 --epsilon 0.5 --n 300,1200",
        "b4f954e1c2327244291a6512577ffe11139f10dbf707dc882463a8d2bf3910cc",
        "c6c4ea7e09c915e1f1e1e8b5aafeb0a357a7a2e89154151f393e3e4d4f84978b"),
    "containment-d2": (
        "containment --d 2 --lambda 1 --epsilon 0.5 --n 300,1200",
        "9bc93e95a77d62688b2210e1a7898075f4b141bbfbe377ebcc09f2dcf6d5d159",
        "19d74d0ff281def95a638c231df3c6cf80fbe15469391a23bc82006f1a8bca0c"),
}


@pytest.mark.parametrize("argv, table, manifest", KIND_GOLDEN.values(), ids=KIND_GOLDEN)
def test_kind_golden_bytes(tmp_path, monkeypatch, capsys, argv, table, manifest):
    assert_kind_golden(tmp_path, monkeypatch, capsys, argv, table, manifest)


def assert_kind_golden(tmp_path, monkeypatch, capsys, argv, table, manifest):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "experiment", *argv.split(), "--reps", "2", "--seed", "7",
                         "--out", "t.csv")
    assert code == 0
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert (digest("t.csv"), digest("t.csv.manifest.json")) == (table, manifest)


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


def test_sample_unwritable_out_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "missing" / "c.txt"
    code, stdout, err = run_cli(
        capsys, "sample", "--n", "3", "--d", "1", "--lambda", "1", "--seed", "1",
        "--out", str(out),
    )
    assert code == 2 and stdout == ""
    assert err.startswith(f"exprgg: I/O error: cannot write cloud to {out}: ")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


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
    "argv",
    [
        ["graph", "--d", "14", "--y", "0.5"],
        ["graph", "--d", "40", "--y", "0.5"],
        ["experiment", "uniform-slln", "--d", "14", "--reps", "1", "--out", "OUT"],
    ],
    ids=["graph-d14", "graph-d40", "uniform-slln-d14"],
)
def test_grid_runs_at_any_d_within_a_second(tmp_path, capsys, argv):
    # The column grid indexes at most floor(log_9 n) axes, so its offset walk
    # takes O(sqrt(n)) steps at any d; 50 points index one axis.
    argv = [str(tmp_path / "x.csv") if a == "OUT" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--n", "50", "--lambda", "1", "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    assert out.startswith("n,d,") or (tmp_path / "x.csv").is_file()


def test_graph_json_degrees_at_d40_match_brute_force(capsys):
    # 39 axes gathered, one indexed: every axis left out of the grid is still
    # filtered by exact distance. y = 3 gives edges; y = 0.5 gives none.
    cloud = sample_exponential_cloud(50, 40, 1.0, 1)
    for y in ("0.5", "3"):
        code, out, _ = run_cli(capsys, "graph", "--n", "50", "--d", "40", "--lambda", "1",
                               "--y", y, "--seed", "1", "--format", "json")
        want = np.bincount(brute_force_edges(cloud, float(y)).ravel(), minlength=50)
        assert code == 0 and json.loads(out)["degrees"] == want.tolist(), y
        assert want.any() == (y == "3"), y


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


# SHA-256 of `graph --format json` stdout, whose "degrees" list is in vertex
# order, at d = 1 (max degree 11) and d = 2 (max degree 7).
GRAPH_JSON_GOLDEN = {
    "d1": ("--d 1 --lambda 1 --y 0.01",
           "ee0b8e34bdfa7340f64091e06804ee6d041fa8b5b7b7a678403655fe8530a637"),
    "d2": ("--d 2 --lambda 1 --y 0.05",
           "50122598284cbe73421e287bd0a157f1b2ca97a9d8128d40fc73033adfed95f2"),
}


@pytest.mark.parametrize("argv, digest", GRAPH_JSON_GOLDEN.values(), ids=GRAPH_JSON_GOLDEN)
def test_graph_json_golden_bytes(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "graph", "--n", "400", *argv.split(), "--seed", "3",
                           "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        lambda cloud, y: DegreeSummary(np.full(cloud.n, cloud.n - 1)),
    )
    code, out, err = run_cli(capsys, "verify", "--cases", "3", "--max-n", "50", "--seed", "1")
    assert code == 3
    assert out == "verify: 3 cases, 0 matched\n"
    assert err.count("in degrees\n") == 3 and "edges" not in err
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
    assert "edges" not in err and "degrees" not in err
    monkeypatch.undo()
    # One spurious row added to each edge list, empty or not.
    real_edges = cli.edge_list
    monkeypatch.setattr(cli, "edge_list",
                        lambda cloud, y: np.concatenate([real_edges(cloud, y), [[0, 0]]]))
    code, out, err = run_cli(capsys, "verify", "--cases", "3", "--max-n", "50", "--seed", "1")
    assert code == 3
    assert out == "verify: 3 cases, 0 matched\n"
    lines = err.splitlines()
    assert len(lines) == 3
    assert all(", 1/4 lattice) in edges; " in line for line in lines)
    assert all(line.endswith(", realised distance) in edges") for line in lines)
    assert all(line.count(" in edges") == 3 for line in lines)
    assert "degrees" not in err and "edge-counts" not in err


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
    # One line per n: its wall time and replication rate.
    progress = stderr.splitlines()
    assert len(progress) == 2, stderr
    for n, line in zip((100, 200), progress):
        assert re.fullmatch(rf"\[edge-slln\] n={n}: 2 replication\(s\) done in "
                            r"\d+\.\d{3} s \(\d+\.\d reps/s\)", line), line
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    data = json.loads(manifest.read_text())
    assert data["spec"]["kind"] == "edge-slln"
    assert data["output"]["format"] == "csv"


@pytest.mark.parametrize("argv", [argv for argv, _, _ in KIND_GOLDEN.values()], ids=KIND_GOLDEN)
def test_experiment_rerun_from_manifest_is_byte_identical(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "experiment", *argv.split(), "--reps", "2", "--seed", "7",
                         "--out", "a.csv")
    assert code == 0
    code, _, _ = run_cli(capsys, "experiment", argv.split()[0], "--spec", "a.csv.manifest.json",
                         "--out", "b.csv")
    assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    first, second = ((tmp_path / f"{out}.manifest.json").read_text() for out in ("a.csv", "b.csv"))
    assert first.count('"path": "a.csv"') == 1
    assert second == first.replace('"path": "a.csv"', '"path": "b.csv"')


def test_experiment_threads_flag_is_inert(tmp_path, capsys):
    cases = [
        ("degree-law --d 1 --lambda 1 --c 4 --n 100,200 --reps 6 --seed 42 --format json", "8"),
        # Arrays of n = 20000 floats, each replication's freed memory kept for the next.
        ("edge-slln --d 2 --lambda 1 --c 2 --n 20000 --reps 4 --seed 42", "2"),
    ]
    for case, (argv, threads) in enumerate(cases):
        one = tmp_path / f"one{case}.out"
        many = tmp_path / f"many{case}.out"
        assert run_cli(capsys, "experiment", *argv.split(), "--out", str(one),
                       "--threads", "1")[0] == 0
        assert run_cli(capsys, "experiment", *argv.split(), "--out", str(many),
                       "--threads", threads)[0] == 0
        assert one.read_bytes() == many.read_bytes()


CONTAINMENT_ARGV = ("experiment containment --d 2 --lambda 1 --n 100 --reps 3 --seed 1 "
                    "--epsilon 0.5").split()


def test_experiment_negative_threads_exits_one(tmp_path, capsys):
    out = tmp_path / "neg.csv"
    code, _, err = run_cli(capsys, *CONTAINMENT_ARGV, "--out", str(out), "--threads", "-1")
    assert (code, err) == (1, "exprgg: error: threads must be >= 0, got -1\n")
    assert not out.exists()


def test_experiment_ignores_the_threads_environment_variable(tmp_path, capsys, monkeypatch):
    # Only --threads sets the worker count, and the output never depends on it.
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *CONTAINMENT_ARGV, "--out", "a.csv", "--threads", "1")[0] == 0
    monkeypatch.setenv("EXPRGG_THREADS", "abc")
    assert run_cli(capsys, *CONTAINMENT_ARGV, "--out", "b.csv")[0] == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    first, second = ((tmp_path / f"{out}.manifest.json").read_text() for out in ("a.csv", "b.csv"))
    assert second == first.replace('"path": "a.csv"', '"path": "b.csv"')


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_experiment_reuses_freed_pages(tmp_path):
    # Each degree-d1 replication frees O(n) numpy temporaries that the next one
    # allocates again. With glibc's default thresholds they go back to the
    # kernel and the run takes over 11,000 minor faults; kept, about 1,700.
    script = (
        "import resource, sys\n"
        "from exprgg import cli\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "code = cli.main(sys.argv[1:])\n"
        "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "print(code, faults, file=sys.stderr)\n"
    )
    argv = ("experiment degree-law --d 1 --lambda 1 --c 4 --n 100000 --reps 6 --seed 42 "
            "--threads 1").split()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv, "--out", str(tmp_path / "t.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, faults = map(int, proc.stderr.splitlines()[-1].split())
    assert code == 0
    assert faults < 4000


def _no_libc(name):
    raise OSError("no C library")


def _windows_cdll(name):
    raise TypeError("argument of type 'NoneType' is not iterable")


@pytest.mark.parametrize("cdll", [_no_libc, _windows_cdll, lambda name: object()],
                         ids=["no-libc", "windows", "no-mallopt"])
def test_main_runs_without_mallopt(tmp_path, monkeypatch, capsys, cdll):
    import ctypes

    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: calls.append(name) or cdll(name))
    assert_kind_golden(tmp_path, monkeypatch, capsys, *KIND_GOLDEN["degree-law-d1"])
    assert calls == [None]


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


@pytest.mark.parametrize("d, lam", [("2", "1e154"), ("1", "1.7e308")],
                         ids=["pow-overflows", "doubled-rate-overflows"])
def test_experiment_degree_law_refuses_overflowing_envelope(tmp_path, capsys, monkeypatch, d, lam):
    # lambda^d is finite, so the roots exist, but the envelope (2 lambda)^d is not
    from exprgg import experiments

    def no_sampling(*args):
        raise AssertionError("sampled before validation")

    monkeypatch.setattr(experiments, "sample_exponential_cloud", no_sampling)
    code, stdout, err = run_cli(
        capsys, "experiment", "degree-law", "--d", d, "--lambda", lam, "--c", "1",
        "--n", "100", "--reps", "1", "--seed", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1 and stdout == ""
    assert err == (f"exprgg: error: (2 lambda)^d must be finite, got lambda={float(lam)}, "
                   f"d={d}\n")
    assert list(tmp_path.iterdir()) == []


def test_experiment_containment_refuses_infinite_epsilon_before_sampling(
        tmp_path, capsys, monkeypatch):
    from exprgg import experiments

    def no_sampling(*args):
        raise AssertionError("sampled before validation")

    monkeypatch.setattr(experiments, "sample_exponential_cloud", no_sampling)
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(
        capsys, "experiment", "containment", "--d", "1", "--lambda", "1", "--epsilon", "inf",
        "--n", "50", "--reps", "1", "--seed", "1", "--out", str(out),
    )
    assert code == 1 and stdout == ""
    assert err == ("exprgg: error: the containment radius (1 + epsilon) log n / lam must be "
                   "finite and positive, got inf from lam=1.0, epsilon=inf, n=50\n")
    assert list(tmp_path.iterdir()) == []


def test_experiment_degree_law_runs_where_the_root_residual_grows(tmp_path, capsys):
    # lambda^d * c = 4 / 2^16, so a_max = 2413.26 solves f(a) = 16384, and its
    # converged residual exceeds an absolute 1e-12 but not 1e-12 * 16384.
    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys, "experiment", "degree-law", "--d", "16", "--lambda", "0.5", "--c", "4",
        "--n", "200", "--reps", "1", "--seed", "1", "--out", str(out),
    )
    assert code == 0, err
    assert out.read_text().splitlines()[1].startswith("degree-law,200,16,0.5,log,4,,0,")
    theory = json.loads((tmp_path / "x.csv.manifest.json").read_text())["theory"]
    assert theory["a_max"] == a_max(4.0, 0.5, 16)


_DEGREE_LAW_SPEC = {"type": "ExperimentSpec", "kind": "degree-law", "n_list": [100], "d": 1,
                    "lambda": 1, "replications": 1, "base_seed": 1,
                    "family": {"type": "LogRegime", "c": 4, "lambda": 1, "d": 1}}
_UNIFORM_SPEC = {"type": "ExperimentSpec", "kind": "uniform-slln", "n_list": [100], "d": 2,
                 "lambda": 1, "replications": 1, "base_seed": 1, "y_grid": [0.5]}


def test_spec_with_an_int_lambda_whose_power_overflows_exits_one(tmp_path, capsys):
    # An int lambda's exact lambda^d never overflows, but the float arithmetic
    # of the roots would; the refusal names lambda as the spec gives it.
    family = {**_DEGREE_LAW_SPEC["family"], "lambda": 10, "d": 400}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**_DEGREE_LAW_SPEC, "lambda": 10, "d": 400, "family": family}))
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, "experiment", "degree-law", "--spec", str(path),
                                "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == "exprgg: error: lam^d must be finite and positive, got lam=10, d=400\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


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
        ({**_DEGREE_LAW_SPEC, "n_list": [100.7]},
         "every n in n_list must be an integer, got 100.7"),
        ({**_DEGREE_LAW_SPEC, "n_list": "123"}, "n_list must be a list of integers"),
        ({**_DEGREE_LAW_SPEC, "replications": True}, "replications must be an integer, got True"),
        ({**_DEGREE_LAW_SPEC, "replications": 1.5}, "replications must be an integer, got 1.5"),
        ({**_DEGREE_LAW_SPEC, "d": 2.0, "family": {**_DEGREE_LAW_SPEC["family"], "d": 2}},
         "d must be an integer, got 2.0"),
        ({**_UNIFORM_SPEC, "y_grid": "0.5"}, "y_grid must be a list of numbers, got '0.5'"),
        ({**_DEGREE_LAW_SPEC, "base_seed": "abc"}, "base_seed must be an integer, got 'abc'"),
        ({**_DEGREE_LAW_SPEC, "lambda": "abc"}, "field 'lambda' must be a number, got 'abc'"),
    ],
    ids=["no-kind", "spec-not-object", "top-level-list", "family-no-c", "family-unknown-type",
         "n-list-float", "n-list-string", "reps-bool", "reps-float", "d-float",
         "y-grid-string", "seed-string", "lambda-string"],
)
def test_experiment_malformed_spec_exits_one(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    kind = spec.get("kind", "degree-law") if isinstance(spec, dict) else "degree-law"
    code, _, err = run_cli(
        capsys, "experiment", kind, "--spec", str(path),
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert message in line
    assert not (tmp_path / "x.csv").exists()


_THRESHOLD_SPEC = {"type": "ExperimentSpec", "kind": "threshold", "n_list": [100], "d": 1,
                   "lambda": 1, "replications": 1, "base_seed": 1,
                   "family": {"type": "PowerFamily", "alpha": 1, "beta": 3, "lambda": 1, "d": 1}}
_CONTAINMENT_SPEC = {"type": "ExperimentSpec", "kind": "containment", "n_list": [100], "d": 1,
                     "lambda": 1, "replications": 1, "base_seed": 1, "epsilon": 0.5}


# Each real-valued field: a spec that holds it, its keys there, and a constructor taking it.
@pytest.mark.parametrize("spec, keys, build", [
    (_UNIFORM_SPEC, ("lambda",),
     lambda v: ExperimentSpec("uniform-slln", (100,), 2, v, 1, 1, y_grid=(0.5,))),
    (_DEGREE_LAW_SPEC, ("family", "lambda"), lambda v: LogRegime(c=4.0, lam=v, d=1)),
    (_DEGREE_LAW_SPEC, ("family", "c"), lambda v: LogRegime(c=v, lam=1.0, d=1)),
    (_THRESHOLD_SPEC, ("family", "alpha"),
     lambda v: PowerFamily(alpha=v, beta=3.0, lam=1.0, d=1)),
    (_THRESHOLD_SPEC, ("family", "beta"),
     lambda v: PowerFamily(alpha=1.0, beta=v, lam=1.0, d=1)),
    (_CONTAINMENT_SPEC, ("epsilon",),
     lambda v: ExperimentSpec("containment", (100,), 1, 1.0, 1, 1, epsilon=v)),
], ids=["lambda", "family-lambda", "c", "alpha", "beta", "epsilon"])
def test_real_spec_fields_refuse_booleans(tmp_path, capsys, spec, keys, build):
    field = "lam" if keys[-1] == "lambda" else keys[-1]
    data = json.loads(json.dumps(spec))
    json_value = data
    for key in keys[:-1]:
        json_value = json_value[key]
    json_value[keys[-1]] = True
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, "experiment", spec["kind"], "--spec", str(path),
                                "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == f"exprgg: error: {field} must be a number, got True\n"
    assert not out.exists()
    for value in (True, np.bool_(True)):
        with pytest.raises(ValueError, match=f"^{field} must be a number, got "):
            build(value)
    for value in (False, np.bool_(False)):  # refused by the range check or as a bool
        with pytest.raises(ValueError, match=f"^{field} must be "):
            build(value)


_DEGREE_LAW_ARGV = ["experiment", "degree-law", "--d", "1", "--lambda", "1", "--c", "4",
                    "--seed", "1", "--out", "x.csv"]


@pytest.mark.parametrize("files, argv, code, line", [
    ({}, ["verify", "--cases", "0", "--max-n", "5", "--seed", "1"], 1,
     "exprgg: error: verify needs --cases >= 1 and --max-n >= 2"),
    ({}, [*_DEGREE_LAW_ARGV, "--n", "10"], 1,
     "exprgg: error: missing required flags: --reps (or use --spec)"),
    ({}, [*_DEGREE_LAW_ARGV, "--n", "10", "--reps", "1", "--alpha", "1"], 1,
     "exprgg: error: give either --c or --alpha/--beta, not both"),
    ({}, [*_DEGREE_LAW_ARGV, "--n", "1", "--reps", "1"], 1,
     "exprgg: error: every n must be >= 2"),
    ({}, "experiment degree-law --d 2 --lambda 1e-10 --c 1e300 --n 10 --reps 1 --seed 1 "
     "--out x.csv".split(), 1,
     "exprgg: error: degree-law needs a finite c with y_n and n * y_n^d finite and positive: "
     "at n = 10, c = 1e+300 gives y_n = 4.798525912188081e+159, n * y_n^d = inf"),
    ({"s.json": json.dumps(_CONTAINMENT_SPEC).encode()},
     ["experiment", "degree-law", "--spec", "s.json", "--out", "x.csv"], 1,
     "exprgg: error: spec file is for 'containment' but the command line says 'degree-law'"),
    ({"s.json": json.dumps(_DEGREE_LAW_SPEC["family"]).encode()},
     ["experiment", "degree-law", "--spec", "s.json", "--out", "x.csv"], 1,
     "exprgg: error: s.json does not contain an experiment spec"),
    ({"bad.json": b"\xff{}"}, ["experiment", "degree-law", "--spec", "bad.json", "--out", "x.csv"],
     1, "exprgg: error: cannot read spec from bad.json: 'utf-8' codec can't decode byte 0xff "
     "in position 0: invalid start byte"),
    ({"s.json": b'{"kind": '}, ["experiment", "degree-law", "--spec", "s.json", "--out", "x.csv"],
     1, "exprgg: error: cannot read spec from s.json: Expecting value: line 1 column 10 (char 9)"),
    ({}, ["experiment", "degree-law", "--spec", "s.json", "--out", "x.csv"], 2,
     "exprgg: I/O error: cannot read spec from s.json: [Errno 2] No such file or directory: "
     "'s.json'"),
], ids=["verify-no-cases", "missing-reps", "c-and-alpha", "n-one", "overflowing-scale",
        "spec-for-another-kind", "spec-holds-a-family", "spec-not-utf8", "spec-not-json",
        "spec-missing"])
def test_refusal_lines(tmp_path, monkeypatch, capsys, files, argv, code, line):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert run_cli(capsys, *argv) == (code, "", line + "\n")
    assert not (tmp_path / "x.csv").exists()


def test_experiment_unwritable_path_exits_two(capsys, monkeypatch):
    from exprgg import experiments

    def no_sampling(*args):
        raise AssertionError("sampled before the output directory was checked")

    monkeypatch.setattr(experiments, "sample_exponential_cloud", no_sampling)
    code, _, err = run_cli(
        capsys, "experiment", "edge-slln", "--d", "1", "--lambda", "1",
        "--c", "2", "--n", "60", "--reps", "1", "--seed", "1",
        "--out", "/nonexistent-dir/rows.csv",
    )
    assert code == 2
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert "nonexistent-dir" in line


def test_experiment_out_directory_refused_before_any_replication(tmp_path, capsys, monkeypatch):
    from exprgg import experiments

    def no_sampling(*args):
        raise AssertionError("sampled before --out was checked")

    monkeypatch.setattr(experiments, "sample_exponential_cloud", no_sampling)
    code, _, err = run_cli(
        capsys, "experiment", "edge-slln", "--d", "1", "--lambda", "1",
        "--c", "1", "--n", "10", "--reps", "2", "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 2
    assert err == f"exprgg: I/O error: cannot write table to {tmp_path}: it is a directory\n"
    assert list(tmp_path.iterdir()) == []


def test_experiment_manifest_directory_refused_before_any_replication(
        tmp_path, capsys, monkeypatch):
    from exprgg import experiments

    def no_sampling(*args):
        raise AssertionError("sampled before the manifest path was checked")

    monkeypatch.setattr(experiments, "sample_exponential_cloud", no_sampling)
    monkeypatch.chdir(tmp_path)
    os.mkdir("t.csv.manifest.json")
    code, out, err = run_cli(
        capsys, "experiment", "edge-slln", "--d", "1", "--lambda", "1",
        "--c", "1", "--n", "10", "--reps", "2", "--seed", "1", "--out", "t.csv",
    )
    assert code == 2 and out == ""
    assert err == ("exprgg: I/O error: cannot write manifest to t.csv.manifest.json: "
                   "it is a directory\n")
    assert os.listdir(tmp_path) == ["t.csv.manifest.json"]
    assert os.listdir(tmp_path / "t.csv.manifest.json") == []


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("argv", [
    "sample --n 5 --d 1 --lambda 1 --out c.txt",
    "graph --n 5 --d 2 --lambda 1 --y 0.5",
    "verify --cases 2 --max-n 20",
    "experiment edge-slln --d 1 --lambda 1 --c 1 --n 10 --reps 2 --out t.csv",
], ids=["sample", "graph", "verify", "experiment"])
def test_out_of_range_seed_refused_in_one_line(argv, seed, tmp_path, capsys, monkeypatch):
    from exprgg import experiments

    def no_sampling(*args):
        raise AssertionError("sampled before the seed was checked")

    monkeypatch.setattr(experiments, "sample_exponential_cloud", no_sampling)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv.split(), "--seed", seed)
    assert code == 1 and out == ""
    assert re.fullmatch(
        f"exprgg: error: (base_)?seed must fit in an unsigned 64-bit word, got {seed}\n", err)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("y", ["nan", "-1"])
def test_graph_bad_y_refused_before_sampling(y, capsys, monkeypatch):
    from exprgg import cli

    def no_sampling(*args):
        raise AssertionError("sampled before y was checked")

    monkeypatch.setattr(cli, "sample_exponential_cloud", no_sampling)
    code, out, err = run_cli(capsys, "graph", "--n", "5", "--d", "2", "--lambda", "1",
                             "--y", y, "--seed", "1")
    assert code == 1 and out == ""
    assert err == f"exprgg: error: y must be >= 0, got {float(y)}\n"


def test_module_entry_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "exprgg", "theory", "h", "--t", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0\n"
