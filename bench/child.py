"""One exprgg CLI run in a fresh interpreter, as a user would start it.

Usage: python3 child.py SPAWN_NS TRACE -- CLI_ARGV...

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it started this
process, so set-up time covers interpreter start, numpy and package import.
TRACE is 0 or 1. The result goes to ``result.json`` in the working
directory: set-up and wall seconds, the CLI's exit code, peak RSS and, when
traced, the span list. With no CLI_ARGV the child only measures set-up.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from exprgg import cli  # noqa: E402

_READY_NS = time.monotonic_ns()


def main() -> int:
    spawn_ns, traced = int(sys.argv[1]), sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    result = {"setup_s": (_READY_NS - spawn_ns) / 1e9}
    if argv:
        result.update(run(argv, traced))
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def peak_rss_mb() -> float:
    """This process's peak resident set, in MiB (Linux VmHWM).

    Not ``ru_maxrss``: that survives exec, so a child would report at least
    the RSS its parent had when it forked.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kib / 1024.0


def run(argv, traced: bool) -> dict:
    main_fn = cli.main
    if traced:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
        main_fn = tracer.wrap(cli.main, "cli.main")
    start = time.perf_counter_ns()
    code = main_fn(argv)
    result = {
        "wall_s": (time.perf_counter_ns() - start) / 1e9,
        "exit_code": code,
        "peak_rss_mb": peak_rss_mb(),
    }
    if traced:
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    sys.exit(main())
