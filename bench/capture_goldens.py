"""Rewrite the digests in goldens.json from the current elapsednet sources.

    python3 bench/capture_goldens.py

Runs every workload once at the default seed for the `tiny` and `bench`
sizes, in this process and untimed, and stores what the checks compare
against.  The tolerances (`rtol`) and their reasons are edited by hand and
kept as they are.  Capture only on a commit whose outputs are the reference.
"""

import json
import os
import shutil
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import workloads  # noqa: E402


def main() -> int:
    with open(workloads.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        digests[name] = {}
        for size in ("tiny", "bench"):
            directory = tempfile.mkdtemp(dir=os.path.dirname(BENCH_DIR), prefix=".bench_golden")
            try:
                spec = workload.prepare(workloads.DEFAULT_SEED, size, directory)
                out = os.path.join(directory, "out")
                ctx = workload.setup(spec)
                workload.execute(spec, ctx, out)
                digests[name][size] = workload.digest(spec, ctx, out)
            finally:
                shutil.rmtree(directory)
            print(f"captured {name} {size}")
    goldens["digests"] = digests
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
