"""Seeded end-to-end benchmark of the exprgg CLI.

    python3 bench/run.py --workload degree-d1 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 42 --seconds 20 --trace 0

Each workload is one ``exprgg experiment`` command, run as a closed loop with
one client: runs go back to back, each in a fresh interpreter with
``--threads 1``, until ``--seconds`` have passed (at least three runs). The
seed is the experiment's ``--seed`` (default 42). Every run's table and
manifest must hash the same as the first run's and, where ``reference.json``
has the seed (the default and 0-15, recorded by ``record_reference.py``), the
same as the recorded digests; a run also fails on a non-zero exit or a wrong
row count. Once per invocation and untimed, a lattice tie gate and an
independent recount of the first table row check the results themselves.

``--trace 0`` reports the end-to-end metrics (medians over runs);
``--trace 1`` alternates untraced and traced runs and reports per-layer
medians from the traced ones plus the tracing overhead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")

TABLE = "table.csv"  # relative: the manifest embeds --out, so it must not vary
DEFAULT_SEED = 42
MIN_RUNS = 3
SETUP_PROBES = 12  # set-up is short and noisy, so it gets extra samples
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    argv: Tuple[str, ...]
    reps: int
    why: str

    def cli_argv(self, seed: int) -> List[str]:
        return ["experiment", *self.argv, "--reps", str(self.reps), "--seed", str(seed),
                "--threads", "1", "--out", TABLE]


WORKLOADS: Dict[str, Workload] = {
    "degree-d1": Workload(
        ("degree-law", "--d", "1", "--lambda", "1", "--c", "4", "--n", "100000"), 6,
        "d=1 grid path dominated by candidate-pair enumeration; the sweep engine targets it"),
    "edge-d2": Workload(
        ("edge-slln", "--d", "2", "--lambda", "1", "--c", "2", "--n", "20000"), 16,
        "d=2 grid path: dict cell lookup, per-axis max filter and degree accumulation"),
    "threshold-sparse": Workload(
        ("threshold", "--d", "1", "--lambda", "1", "--alpha", "1", "--beta", "3",
         "--n", "10000"), 800,
        "almost no edges: fixed per-replication cost of sampling, index build, cell walk, rows"),
    "uniform-dense": Workload(
        ("uniform-slln", "--d", "1", "--lambda", "1", "--n", "10000"), 4,
        "one index serves a 20-point y-grid through the memory-heavy matched-block path"),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "reps_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "sampling.busy_s": "s", "sampling.points": "count",
    "spatial.index_busy_s": "s", "spatial.cells": "count",
    "spatial.pairs_busy_s": "s", "spatial.candidate_pairs": "count",
    "spatial.blocks_busy_s": "s", "spatial.block_entries": "count",
    "graphstats.busy_s": "s", "graphstats.self_s": "s", "graphstats.edges": "count",
    "graphstats.hit_ratio": "ratio",
    "experiments.self_s": "s", "experiments.emit_s": "s", "experiments.manifest_s": "s",
    "experiments.rows": "count",
    "trace.untraced_s": "s", "trace.overhead_ratio": "ratio",
}


@dataclass
class Run:
    ok: bool
    problem: str
    result: dict
    digests: Tuple[str, str]
    first_row: Optional[dict]


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def spawn_child(workdir: str, traced: bool, cli_argv: List[str]) -> Tuple[Optional[dict], str]:
    """Run child.py in ``workdir`` and wait for it; (its result, or None, and a
    note: the stderr tail or why there is no result)."""
    cmd = [sys.executable, CHILD, str(time.monotonic_ns()), "1" if traced else "0", "--",
           *cli_argv]
    try:
        proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S}s"
    path = os.path.join(workdir, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        return None, f"child exited {proc.returncode}: {proc.stderr[-500:]}"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh), proc.stderr[-500:]


def setup_probe() -> Tuple[Optional[float], str]:
    """Set-up seconds of a child that only imports the CLI and exits."""
    workdir = tempfile.mkdtemp(prefix=".bench-run-", dir=ROOT)
    try:
        result, note = spawn_child(workdir, False, [])
        return (result["setup_s"] if result else None), note
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_child(workload: Workload, seed: int, traced: bool) -> Run:
    """One CLI run in a fresh process and a fresh temp dir under the checkout."""
    workdir = tempfile.mkdtemp(prefix=".bench-run-", dir=ROOT)
    try:
        result, note = spawn_child(workdir, traced, workload.cli_argv(seed))
        if result is None:
            return Run(False, note, {}, ("", ""), None)
        if result["exit_code"] != 0:
            return Run(False, f"exprgg exited {result['exit_code']}: {note}",
                       result, ("", ""), None)
        table = os.path.join(workdir, TABLE)
        manifest = table + ".manifest.json"
        with open(table, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(manifest, encoding="utf-8") as fh:
            manifest_rows = json.load(fh)["output"]["rows"]
        digests = (sha256(table), sha256(manifest))
        if len(rows) != workload.reps or manifest_rows != workload.reps:
            return Run(False, f"{len(rows)} table rows, manifest says {manifest_rows}, "
                              f"expected {workload.reps}", result, digests, None)
        return Run(True, "", result, digests, rows[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_digests(reference: dict, name: str, seed: int) -> Optional[Tuple[str, str]]:
    entry = reference["workloads"][name]
    if entry["argv"] != list(WORKLOADS[name].argv) or entry["reps"] != WORKLOADS[name].reps:
        raise SystemExit(f"bench: reference.json does not match workload {name}; re-record it")
    digests = entry["seeds"].get(str(seed))
    return (digests["table_sha256"], digests["manifest_sha256"]) if digests else None


def environment() -> dict:
    try:
        # The ceiling keeps git from reporting an enclosing repository's commit
        # when the checkout itself is not a repository.
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(name: str, workload: Workload, seed: int, seconds: float, traced: bool,
            expected: Optional[Tuple[str, str]]) -> Tuple[int, int, Dict[str, tuple]]:
    """Run one workload; returns (attempted, failed, {metric: (value, unit)}).

    ``expected`` is the (table, manifest) sha256 pair every run must give.
    """
    attempted, failed = 0, 0

    def fail(problem: str) -> None:
        nonlocal failed
        failed += 1
        print(f"FAIL {name} seed={seed}: {problem}", file=sys.stderr)

    attempted += 1
    for problem in checks.tie_gate(seed):
        fail(problem)

    start = time.monotonic()
    setups: List[float] = []
    for _ in range(0 if traced else SETUP_PROBES):
        attempted += 1
        setup, note = setup_probe()
        if setup is None:
            fail(f"set-up probe: {note}")
        else:
            setups.append(setup)

    plain: List[dict] = []
    layers: List[Dict[str, float]] = []
    traced_walls: List[float] = []
    round_s: List[float] = []
    first: Optional[Run] = None
    while len(round_s) < MIN_RUNS or time.monotonic() - start + median(round_s) <= seconds:
        t0 = time.monotonic()
        for trace_this in ((False, True) if traced else (False,)):
            attempted += 1
            run = run_child(workload, seed, trace_this)
            first = first or (run if run.ok else None)
            if run.ok and run.digests != first.digests:
                run.ok = False
                run.problem = f"output digests {run.digests} != first run {first.digests}"
            if run.ok and expected is not None and run.digests != expected:
                run.ok = False
                run.problem = f"output digests {run.digests} != reference {expected}"
            if not run.ok:
                fail(run.problem)
                continue
            if not trace_this:
                plain.append(run.result)
                continue
            metrics, problems = tracing.analyse([tuple(s) for s in run.result["spans"]])
            if problems:
                fail("; ".join(problems[:3]))
                continue
            layers.append(metrics)
            traced_walls.append(run.result["wall_s"])
        round_s.append(time.monotonic() - t0)

    attempted += 1
    if first is None:
        fail("no successful run to spot-check")
    else:
        grid = None
        if workload.argv[0] == "uniform-slln":
            from exprgg.experiments import DEFAULT_Y_GRID as grid
        for problem in checks.spot_check(first.first_row, seed, grid):
            fail(problem)

    if traced:
        metrics = {key: (median([m[key] for m in layers]), unit)
                   for key, unit in PER_LAYER_UNITS.items() if key != "trace.overhead_ratio"}
        plain_wall = median([r["wall_s"] for r in plain])
        overhead = median(traced_walls) / plain_wall - 1.0 if plain_wall else 0.0
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
    else:
        metrics = {
            "setup_s": median(setups + [r["setup_s"] for r in plain]),
            "wall_s": median([r["wall_s"] for r in plain]),
            "reps_per_s": median([workload.reps / r["wall_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
        metrics = {key: (value, END_TO_END_UNITS[key]) for key, value in metrics.items()}
    return attempted, failed, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "exprgg", "cli.py")):
        print(f"bench: no exprgg sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit word")
    sys.path.insert(0, SRC)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    attempted, failed, metrics = 0, 0, {}
    reference = load_reference()
    for name in names:
        expected = reference_digests(reference, name, args.seed)
        a, f, m = measure(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                          expected)
        attempted, failed = attempted + a, failed + f
        for key, (value, unit) in m.items():
            print(f"{name:18s} {key:26s} {value:14.6f} {unit}")
            metrics[key if len(names) == 1 else f"{name}/{key}"] = {"value": value, "unit": unit}
        print(f"{name:18s} {'fail_ratio':26s} {f / a:14.6f} ratio  ({f} of {a} attempted)")
    env["loadavg_after"] = os.getloadavg()
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
