"""elapsednet benchmark: one workload, measured for a fixed time.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; elapsednet is imported from its
`src/`.  The benchmark is a closed loop with one client: it runs the
workload once per fresh child process (child.py), one child at a time,
until `--seconds` have passed (at least MIN_SAMPLES times), each child with
BLAS/OpenMP threads capped at 1 and its outputs in a scratch directory
under `.bench_tmp/` that is removed afterwards.  Every sample's result is
checked; a sample fails when the child raises or dies, or when its check
finds a non-finite value, a broken invariant or, at the default seed, a
deviation from goldens.json.  With `--trace 0`, set-up-only children then
run until MIN_SETUP_SAMPLES set-up times are in hand.

With `--trace 0` the end-to-end metrics come from untraced samples, each
the median over the samples:

    wall_per_ref        wall_s over ref_s of the same child
    setup_s             numpy and elapsednet import, config load and
                        build_experiment in the fresh child, over the time
                        of child.reference_s right after it, times
                        REF_NOMINAL_S: seconds at the machine speed at which
                        the reference takes that long
    peak_rss_mb         the child's ru_maxrss after the workload
and printed only, since they drift with the machine's speed:
    wall_s              time of the workload call(s); for the CLI workloads
                        it includes the CLI's own config load and
                        build_experiment, set-up repeated by every CLI call
    cell_updates_per_s  cell updates / solver call time, on the workloads
                        whose solver is workloads.THROUGHPUT_SOLVER
    ref_s               time of child.reference_s around the workload
    setup_raw_s         set-up time in seconds, not rescaled

With `--trace 1` samples alternate between traced and untraced; the
per-layer metrics (tracer.LAYER_UNITS) are medians over the traced ones and
`trace.overhead_s` is the traced minus the untraced median wall_s.

The last line of standard output is one JSON object with `correct`,
`attempted` (every child, set-up-only ones included), `failed` and
`metrics`; the lines before it print every metric with its unit and sample
count, and `fail_ratio`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
MIN_SAMPLES = 3
MIN_SETUP_SAMPLES = 15
# setup_s is rescaled to this reference time (child.reference_s), the
# median on the machine the benchmark was written on
REF_NOMINAL_S = 0.2
DEADLINE_S = 170.0  # the whole benchmark process ends well inside 180 s
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "ELAPSEDNET_NUM_THREADS")
WORKLOAD_NAMES = ("full-lagged", "full-iterate", "slow-smooth", "oracle-ref")
# the end-to-end metrics of BENCHMARK.json, then those printed only: raw
# times drift with the machine's speed too much to bound (see child.reference_s)
END_TO_END_UNITS = {"wall_per_ref": "1", "setup_s": "s", "peak_rss_mb": "MB"}
PRINTED_UNITS = {"wall_s": "s", "cell_updates_per_s": "1/s", "ref_s": "s", "setup_raw_s": "s"}


def run_sample(spec: dict, directory: str, run_id: int, trace: bool,
               inject_nan: bool = False, timeout: float = 150.0,
               setup_only: bool = False) -> dict:
    """Run one child on `spec`; return its result, or a failed one if it died."""
    os.makedirs(directory)
    spec = dict(spec, out=os.path.join(directory, "out"), run_id=run_id,
                trace=trace, inject_nan=inject_nan, setup_only=setup_only)
    spec_path = os.path.join(directory, "spec.json")
    result_path = os.path.join(directory, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, **{name: "1" for name in THREAD_CAPS})
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), spec_path, result_path],
            env=env, cwd=directory, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=timeout, check=False,
        )
        if proc.returncode != 0 or not os.path.exists(result_path):
            tail = proc.stdout.decode(errors="replace")[-2000:]
            return {"ok": False, "traced": trace,
                    "problems": [f"child exited with {proc.returncode}: {tail}"]}
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": trace, "problems": [f"child timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def has_setup(sample: dict) -> bool:
    """An untraced child that timed its set-up and the reference after it."""
    return "ref_before_s" in sample and not sample["traced"]


def median_of(samples: list[dict], key) -> tuple[float, int, float, float]:
    values = [key(s) for s in samples]
    return statistics.median(values), len(values), min(values), max(values)


def end_to_end(samples: list[dict]) -> dict[str, tuple]:
    timed = [s for s in samples if "wall_s" in s and not s["traced"]]
    if not timed:
        return {}
    setups = [s for s in samples if has_setup(s)]
    metrics = {
        "wall_per_ref": median_of(timed, lambda s: s["wall_s"] / s["ref_s"]),
        "setup_s": median_of(setups, lambda s: s["setup_s"] / s["ref_before_s"] * REF_NOMINAL_S),
        "peak_rss_mb": median_of(timed, lambda s: s["peak_rss_mb"]),
        "wall_s": median_of(timed, lambda s: s["wall_s"]),
        "ref_s": median_of(timed, lambda s: s["ref_s"]),
        "setup_raw_s": median_of(setups, lambda s: s["setup_s"]),
    }
    if "cell_updates" in timed[0]:
        metrics["cell_updates_per_s"] = median_of(
            timed, lambda s: s["cell_updates"] / s["solver_s"])
    return metrics


def per_layer(samples: list[dict]) -> tuple[dict[str, tuple], list[str]]:
    from tracer import layer_metrics

    traced = [s for s in samples if "trace" in s]
    if not traced:
        return {}, []
    rows = [layer_metrics(s["trace"]) for s in traced]
    out = {name: median_of(rows, lambda r: r[name]) for name in rows[0]}
    untraced = [s for s in samples if "wall_s" in s and not s["traced"]]
    if untraced:
        traced_wall = statistics.median(s["wall_s"] for s in traced)
        untraced_wall = statistics.median(s["wall_s"] for s in untraced)
        out["trace.overhead_s"] = (traced_wall - untraced_wall, len(traced) + len(untraced),
                                   traced_wall, untraced_wall)
    return out, traced[0]["trace"]["missing"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="elapsednet benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="bench", choices=("tiny", "bench", "roadmap"),
                        help="problem size: bench is the measured one")
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "elapsednet", "__init__.py")):
        print(f"error: no elapsednet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads
    from tracer import COMPUTED, LAYER_UNITS

    run_dir = os.path.join(TMP_ROOT, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    samples: list[dict] = []
    try:
        spec = workloads.WORKLOADS[args.workload].prepare(args.seed, args.size, run_dir)
        started = time.perf_counter()
        while len(samples) < MIN_SAMPLES or time.perf_counter() - started < args.seconds:
            remaining = DEADLINE_S - (time.perf_counter() - began)
            if remaining < 5.0:
                break
            traced = bool(args.trace) and len(samples) % 2 == 0
            samples.append(run_sample(spec, os.path.join(run_dir, f"sample-{len(samples)}"),
                                      len(samples), traced, timeout=remaining))
        while not args.trace and sum(map(has_setup, samples)) < MIN_SETUP_SAMPLES:
            remaining = DEADLINE_S - (time.perf_counter() - began)
            if remaining < 5.0:
                break
            samples.append(run_sample(spec, os.path.join(run_dir, f"sample-{len(samples)}"),
                                      len(samples), False, timeout=remaining, setup_only=True))
            if not samples[-1]["ok"]:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(TMP_ROOT) and not os.listdir(TMP_ROOT):
            os.rmdir(TMP_ROOT)

    failed = [s for s in samples if not s["ok"]]
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  samples {len(samples)}  "
          f"(closed loop, one client, one single-threaded child per sample)")
    for i, s in enumerate(samples):
        if not s["ok"]:
            print(f"failed sample {i}: " + "; ".join(p.strip() for p in s["problems"]))

    if args.trace:
        metrics, missing = per_layer(samples)
        units, printed = LAYER_UNITS, LAYER_UNITS
        for name in missing:
            print(f"not traced: {name}; its metrics read 0")
    else:
        metrics, units = end_to_end(samples), END_TO_END_UNITS
        printed = {**END_TO_END_UNITS, **PRINTED_UNITS}
    print(f"{'metric':40s} {'median':>14s} {'unit':>6s} {'n':>3s} {'min':>12s} {'max':>12s}")
    for name, (value, n, lo, hi) in metrics.items():
        note = "  (computed from array sizes)" if name in COMPUTED else ""
        print(f"{name:40s} {value:14.6g} {printed[name]:>6s} {n:3d} {lo:12.6g} {hi:12.6g}{note}")
    if "trace.overhead_s" in metrics:
        print("(for trace.overhead_s, min/max columns hold the traced/untraced median wall_s)")
    attempted = len(samples)
    print(f"{'fail_ratio':40s} {len(failed) / max(attempted, 1):14.6g} {'1':>6s} {attempted:3d}")

    print(json.dumps({
        "correct": not failed and set(units) <= set(metrics),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    # on SIGTERM unwind normally, so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
