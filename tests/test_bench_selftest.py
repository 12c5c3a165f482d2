"""The benchmark's own self-test, run as a user would run it, and a traced
d = 2 workload.

It fails when a refactor renames a binding the benchmark tracer patches, or
when the program's first result row no longer matches the benchmark's
independent recount.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "selftest.py"], cwd=BENCH, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_bench_traces_the_column_grid():
    # The self-test traces d = 1 runs only; edge-d2 builds the column grid
    # through the wrapped graphstats.build_grid_index.
    proc = subprocess.run(
        [sys.executable, "run.py", "--workload", "edge-d2", "--seconds", "0", "--trace", "1"],
        cwd=BENCH, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["metrics"]["spatial.cells"]["value"] > 0, result
