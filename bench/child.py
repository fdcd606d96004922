"""Run one workload sample in this fresh process: set up, execute, check.

Usage: python3 child.py SPEC_JSON RESULT_JSON

SPEC_JSON holds the prepared workload spec plus `out` (a directory for the
program's outputs), `trace` (wrap every layer, not just the solver entry),
`setup_only` (stop after set-up and the reference computation) and
`inject_nan` (corrupt one output value before the check, to test that the
check catches it).  RESULT_JSON receives the timings (with those of a
reference computation around the workload), the computed work, the check's
findings and, when tracing, the spans.
"""

import time

T0 = time.perf_counter()  # set-up starts here: numpy and elapsednet imports count

import json
import os
import resource
import sys
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)


def reference_s() -> float:
    """Time one fixed computation that uses no elapsednet code.

    The machine this benchmark was written on runs the same code up to 1.5x
    slower for stretches of seconds to minutes.  Timed right before and right
    after the workload, this computation shows the machine's speed at that
    moment, and `wall_per_ref` divides it out.  Its mix follows the
    workloads: array arithmetic on L2-sized arrays, many small numpy calls
    and an interpreter loop.  The large arrays are allocated before the
    clock starts, so that the time does not depend on the state of the
    process's heap.  Changing this rescales `wall_per_ref` and `setup_s`.
    """
    import numpy as np

    a = np.sin(np.arange(64_000.0)).reshape(1000, 64) ** 2
    b, v = a[1:] + 0.5, a[0]
    mid, prod, col = np.empty_like(b), np.empty_like(b), np.empty(64)
    start = time.perf_counter()
    for _ in range(180):
        np.add(a[1:], a[:-1], out=mid)
        mid *= 0.5
        np.sum(np.multiply(b, mid, out=prod), axis=0, out=col)
        np.subtract(a[1:-1], a[:-2], out=prod[:-1])
        prod[:-1] *= 0.3
    for _ in range(12_000):
        float(np.abs(np.clip((v - 0.5) / 0.1, 0.0, 1.0) - v).max())
    acc = 0
    for i in range(450_000):
        acc += i % 7
    return time.perf_counter() - start


def in_fork(fn) -> float:
    """Return fn() computed in a forked copy of this process.

    What fn allocates then stays out of this process's ru_maxrss, which
    `peak_rss_mb` reads after the workload.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            os.write(write_fd, repr(fn()).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"forked computation exited with status {status}")
    return float(data)


def output_size(directory: str) -> tuple[int, int]:
    files = size = 0
    for root, _, names in os.walk(directory):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(root, name))
    return files, size


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"ok": False, "traced": bool(spec["trace"])}
    tracer = None
    try:
        import workloads
        from tracer import Tracer, busy_time

        workload = workloads.WORKLOADS[spec["workload"]]
        tracer = Tracer(spec["run_id"])
        tracer.install(None if spec["trace"] else {workload.solver})
        ctx = workload.setup(spec)
        result["setup_s"] = time.perf_counter() - T0
        result["ref_before_s"] = in_fork(reference_s)
        if spec["setup_only"]:
            result["ok"], result["problems"] = True, []
            return 0

        out = spec["out"]
        start = time.perf_counter()
        workload.execute(spec, ctx, out)
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["ref_s"] = 0.5 * (result["ref_before_s"] + reference_s())
        tracer.uninstall()

        result["solver_s"] = busy_time(tracer.spans, {workload.solver})
        if workload.solver == workloads.THROUGHPUT_SOLVER:
            result["cell_updates"] = workload.cell_updates(spec, ctx)
        if spec["trace"]:
            files, size = output_size(out)
            tracer.counters["output.files"] = files
            tracer.counters["output.bytes"] = size
            result["trace"] = tracer.dump()

        if spec["inject_nan"]:
            workload.inject_nan(spec, ctx, out)
        result["problems"] = workload.check(spec, ctx, out)
        result["ok"] = not result["problems"]
    except Exception:
        result["problems"] = [traceback.format_exc()]
    finally:
        if tracer is not None:
            tracer.uninstall()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
