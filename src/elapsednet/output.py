"""CSV, summary, MANIFEST and gnuplot emission for experiment runs.

Floats are written with 17 significant digits so values round-trip exactly;
repeated runs of the same configuration produce byte-identical files (no
timestamps, no machine state).  Every emitted file is listed in MANIFEST
together with the grid metadata; on solver failure the partial outputs are
flushed and the MANIFEST is marked incomplete.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .renewal import RunRecord


def fmt(value: float) -> str:
    return f"{value:.17g}"


def format_values(values) -> list[str]:
    """Each value of an array, in C order, as `fmt` writes it: one %-format per array."""
    flat = np.asarray(values, dtype=float).ravel().tolist()
    return ("%.17g\n" * len(flat) % tuple(flat)).split("\n")[:-1]


def join_rows(rows, sep: str = ",") -> str:
    """One line per row of strings, its strings joined by `sep`."""
    return "".join([sep.join(row) + "\n" for row in rows])


def format_rows(table, sep: str = ",") -> str:
    """Rows of a 2-D table as lines of `sep`-joined values, each value as `fmt` writes it."""
    table = np.asarray(table, dtype=float)
    cells, n = format_values(table), table.shape[-1]
    return join_rows([cells[i * n : (i + 1) * n] for i in range(len(table))], sep)


def grid_lines(outer, inner, cells, sep: str) -> list[str]:
    """Per outer string b the text of the lines (outer_b, inner_j, cells[b nj + j]),
    `sep`-joined, j running fastest."""
    nj = len(inner)
    return [join_rows(zip([o] * nj, inner, cells[b * nj : (b + 1) * nj]), sep)
            for b, o in enumerate(outer)]


def gnuplot_blocks(outer, inner, cells) -> str:
    """`grid_lines` with a blank line after each block (a lone newline for no blocks)."""
    return "".join([block + "\n" for block in grid_lines(outer, inner, cells, " ")]) or "\n"


def kernel_csv(x, w) -> str:
    """'x,y,w' and the rows (x_i, x_j, w_ij) of formatted nodes and kernel values."""
    return "x,y,w\n" + "".join(grid_lines(x, x, w, ","))


@dataclass
class OutputSink:
    directory: str
    metadata: dict[str, str] = field(default_factory=dict)
    files: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        os.makedirs(self.directory, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def write_text(self, name: str, text: str) -> None:
        with open(self.path(name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        self.files.append(name)

    def write_csv(self, name: str, header: list[str], table) -> None:
        self.write_text(name, ",".join(header) + "\n" + format_rows(table))

    def write_manifest(self, status: str = "complete", error: str | None = None) -> None:
        lines = ["# elapsednet output manifest", f"status = {status}"]
        if error:
            lines.append(f"error = {error}")
        for key in sorted(self.metadata):
            lines.append(f"{key} = {self.metadata[key]}")
        for name in self.files:
            lines.append(f"file = {name}")
        text = "\n".join(lines) + "\n"
        with open(self.path("MANIFEST"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def write_record(sink: OutputSink, record: RunRecord) -> None:
    """Emit the standard per-run files for a RunRecord.  Each number is formatted once;
    files that show the same numbers (N.csv and N_heatmap.dat, say) share its string."""
    x, t = format_values(record.space.nodes), format_values(record.times)
    nx, header = len(x), join_rows([["t", *x]])
    N, S, mass = map(format_values, (record.N_series, record.S_series, record.mass_series))
    for name, cells in (("N", N), ("S", S), ("mass", mass)):
        sink.write_text(f"{name}.csv", header + join_rows(
            [tb, *cells[b * nx : (b + 1) * nx]] for b, tb in enumerate(t)))
    dev = format_values(record.w_dev_series)
    sink.write_text("kernel_stats.csv", "t,w_mean,w_sup_deviation\n"
                    + join_rows(zip(t, format_values(record.w_mean_series), dev)))
    for ts in sorted(record.w_snapshots):  # w ends as the last snapshot's strings
        w = format_values(record.w_snapshots[ts])
        sink.write_text(f"w_snapshot_t{fmt(ts)}.csv", kernel_csv(x, w))

    _write_map(sink, "N_heatmap", gnuplot_blocks(t, x, N), "tx", "activity N(t, x)")
    _write_map(sink, "S_heatmap", gnuplot_blocks(t, x, S), "tx", "stimulation S(t, x)")
    sink.write_text("w_deviation.dat", join_rows(zip(t, dev), " "))
    sink.write_text("w_deviation.gp", "set xlabel 't'\nset ylabel '||w - <w>||_inf'\n"
                    "set logscale y\nplot 'w_deviation.dat' using 1:2 with lines notitle\n")
    if record.w_snapshots:
        _write_map(sink, "kernel_final", gnuplot_blocks(x, x, w), "xy",
                   f"connectivity w(x, y) at t = {fmt(max(record.w_snapshots))}")


def _write_map(sink: OutputSink, stem: str, data: str, axes: str, title: str) -> None:
    """`stem`.dat and the gnuplot script that draws it as a pm3d map."""
    sink.write_text(f"{stem}.dat", data)
    sink.write_text(f"{stem}.gp", f"set view map\nset xlabel '{axes[0]}'\nset ylabel '{axes[1]}'\n"
                    f"set title '{title}'\nsplot '{stem}.dat' using 1:2:3 with pm3d notitle\n")
