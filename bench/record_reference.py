"""Record the table and manifest digests that bench/run.py checks against.

    python3 bench/record_reference.py 0 1 2 42

Runs every workload once per given seed, through the same child process as
the benchmark, and rewrites reference.json. Run it only on a commit whose
output bytes are known good; a change that alters the bytes on purpose
re-records them and says so in the changelog.
"""

import json
import sys

from run import REFERENCE, SRC, WORKLOADS, run_child


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]]
    sys.path.insert(0, SRC)
    reference = {"workloads": {}}
    for name, workload in WORKLOADS.items():
        entry = {"argv": list(workload.argv), "reps": workload.reps, "seeds": {}}
        for seed in seeds:
            run = run_child(workload, seed, traced=False)
            if not run.ok:
                print(f"{name} seed={seed}: {run.problem}", file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = {"table_sha256": run.digests[0],
                                         "manifest_sha256": run.digests[1]}
            print(f"{name} seed={seed} {run.digests[0][:12]} {run.result['wall_s']:.3f}s",
                  flush=True)
        reference["workloads"][name] = entry
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
