"""Byte-identity check of the CLI (stdlib only).

    python tools/compare_commands.py run <checkout> <dir>      # the command list, into dir
    python tools/compare_commands.py compare <dir_a> <dir_b>   # exit 1 if anything differs

`run` executes each command from the checkout's root with its `src` on PYTHONPATH, into
<dir>/<name>/out with stdout, stderr and exit code beside (<dir> and the checkout's path
replaced by tokens).  `compare` lists each differing file; for a CSV or .dat file it gives
the largest relative deviation of its numbers, and the largest absolute deviation over the
file's largest finite |value|; each is nan if a number is not finite on one side.  For any
other file (summary.txt, MANIFEST, stdout, ...) it prints the differing lines of both sides,
the first directory's marked '-' and the second's '+'."""

import difflib
import os
import re
import subprocess
import sys
from math import inf
from pathlib import Path

SMOOTH = "--config bench/configs/g10i1v_smooth.cfg"
COMMANDS = {  # name: arguments
    "run_g1i1c": "run --preset g1i1c", "run_g35i5c": "run --preset g35i5c",
    "run_g20i5v": "run --preset g20i5v", "run_g15i1c": "run --preset g15i1c --t-end 5",
    "run_g1i1v_iterate": "run --preset g1i1v --picard iterate --t-end 2",
    "limit_Lg10i1v": "limit --preset Lg10i1v", "limit_smooth": f"limit {SMOOTH} --t-end 0.0625",
    "stationary_smooth": f"stationary {SMOOTH}", "stationary_g1i1v": "stationary --preset g1i1v",
    "stationary_g15i1c": "stationary --preset g15i1c", "doeblin_g1i1c": "doeblin --preset g1i1c",
    "large_input_g1i1c": "large-input --preset g1i1c --t-end 1",
    "epsilon_study_g1i1c": "epsilon-study --preset g1i1c --t-end 0.5",
}
ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "PYTHONDONTWRITEBYTECODE")}


def run(checkout: Path, root: Path) -> None:
    env = {**os.environ, **ENV, "PYTHONPATH": str(checkout / "src")}
    for name, args in COMMANDS.items():
        (root / name).mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-m", "elapsednet.cli", *args.split(), "--out",
                               str(root / name / "out")], cwd=checkout, env=env,
                              capture_output=True, text=True)
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr),
                             ("exit_code", f"{proc.returncode}\n")):
            text = text.replace(str(root), "<OUT>").replace(str(checkout), "<CHECKOUT>")
            (root / name / stream).write_text(text)
        print(f"{name}: exit {proc.returncode}")


def _number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def max_rel_deviation(a: str, b: str) -> str:
    ta, tb = re.split(r"[\s,]+", a.strip()), re.split(r"[\s,]+", b.strip())
    if len(ta) != len(tb):
        return f"{len(ta)} vs {len(tb)} fields"
    largest = max((abs(v) for v in map(_number, ta + tb) if v is not None and abs(v) < inf),
                  default=0.0)
    worst = worst_abs = 0.0
    for x, y in ((x, y) for x, y in zip(ta, tb) if x != y):
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            return f"text field {x!r} vs {y!r}"
        diff = abs(fx - fy)
        dev = diff / (max(abs(fx), abs(fy)) or 1.0)
        worst = max(worst, dev) if dev == dev else dev  # a nan, once met, stays
        worst_abs = max(worst_abs, diff) if dev == dev else dev
    return (f"max relative deviation {worst:.3g}, "
            f"{worst_abs / (largest or 1.0):.3g} of the largest |value| {largest:.3g}")


def differing_lines(a: str, b: str) -> str:
    lines = [line for line in difflib.ndiff(a.splitlines(), b.splitlines())
             if line[:2] in ("- ", "+ ")]
    return f"{len(lines)} lines" + "".join(f"\n    {line}" for line in lines)


def compare(a: Path, b: Path) -> int:
    files_a, files_b = ({p.relative_to(d) for p in d.rglob("*") if p.is_file()} for d in (a, b))
    for rel in sorted(files_a ^ files_b):
        print(f"only in {a if rel in files_a else b}: {rel}")
    differ = [rel for rel in sorted(files_a & files_b)
              if (a / rel).read_bytes() != (b / rel).read_bytes()]
    for rel in differ:
        text_a, text_b = (a / rel).read_text(), (b / rel).read_text()
        detail = (max_rel_deviation(text_a, text_b) if rel.suffix in (".csv", ".dat")
                  else differing_lines(text_a, text_b))
        print(f"differs: {rel}: {detail}")
    print(f"{len(files_a & files_b) - len(differ)} identical, {len(differ)} differ, "
          f"{len(files_a ^ files_b)} unmatched")
    return 1 if differ or files_a ^ files_b else 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("run", "compare"):
        sys.exit(__doc__)
    first, second = Path(sys.argv[2]).resolve(), Path(sys.argv[3]).resolve()
    sys.exit(run(first, second) if sys.argv[1] == "run" else compare(first, second))
