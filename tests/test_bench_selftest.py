"""The benchmark's own self-test, run as a user would run it.

It fails when a refactor renames a binding the benchmark tracer patches, or
when the program's first result row no longer matches the benchmark's
independent recount.
"""

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
