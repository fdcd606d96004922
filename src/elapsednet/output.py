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


def format_rows(table, sep: str = ",") -> str:
    """Rows of a 2-D table as lines of `sep`-joined values, each value as `fmt` writes it."""
    table = np.asarray(table, dtype=float)
    line = sep.join(["%.17g"] * table.shape[-1]) + "\n"
    return "".join([line % tuple(row.tolist()) for row in table])


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


def kernel_table(x_nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows (x_i, x_j, w_ij), j running fastest."""
    nx = len(x_nodes)
    return np.column_stack((np.repeat(x_nodes, nx), np.tile(x_nodes, nx), w.ravel()))


def write_record(sink: OutputSink, record: RunRecord) -> None:
    """Emit the standard per-run files for a RunRecord."""
    x_nodes, times = record.space.nodes, record.times
    header = ["t"] + [fmt(x) for x in x_nodes]
    sink.write_csv("N.csv", header, np.column_stack((times, record.N_series)))
    sink.write_csv("S.csv", header, np.column_stack((times, record.S_series)))
    sink.write_csv("mass.csv", header, np.column_stack((times, record.mass_series)))
    sink.write_csv("kernel_stats.csv", ["t", "w_mean", "w_sup_deviation"],
                   np.column_stack((times, record.w_mean_series, record.w_dev_series)))
    for t in sorted(record.w_snapshots):
        sink.write_csv(f"w_snapshot_t{fmt(t)}.csv", ["x", "y", "w"],
                       kernel_table(x_nodes, record.w_snapshots[t]))

    _write_heatmap(sink, "N_heatmap", times, x_nodes, record.N_series, "activity N(t, x)")
    _write_heatmap(sink, "S_heatmap", times, x_nodes, record.S_series, "stimulation S(t, x)")
    _write_deviation_trace(sink, record)
    if record.w_snapshots:
        t_last = max(record.w_snapshots)
        _write_kernel_panel(sink, x_nodes, record.w_snapshots[t_last], t_last)


def format_blocks(outer, inner, table) -> str:
    """Lines 'outer_b inner_j table_bj', a blank line after each block b (a
    lone newline for no blocks); one %-format per block."""
    table = np.asarray(table, dtype=float)
    nb, nj = table.shape
    block = "%.17g %.17g %.17g\n" * nj + "\n"
    lines = np.stack(np.broadcast_arrays(np.asarray(outer, dtype=float)[:, None], inner, table),
                     axis=-1).reshape(nb, 3 * nj)
    return "".join([block % tuple(row.tolist()) for row in lines]) or "\n"


def _write_heatmap(sink: OutputSink, stem: str, times, x_nodes, table, title: str) -> None:
    sink.write_text(f"{stem}.dat", format_blocks(times, x_nodes, table))
    sink.write_text(
        f"{stem}.gp",
        "set view map\n"
        "set xlabel 't'\n"
        "set ylabel 'x'\n"
        f"set title '{title}'\n"
        f"splot '{stem}.dat' using 1:2:3 with pm3d notitle\n",
    )


def _write_deviation_trace(sink: OutputSink, record: RunRecord) -> None:
    sink.write_text("w_deviation.dat",
                    format_rows(np.column_stack((record.times, record.w_dev_series)), sep=" "))
    sink.write_text(
        "w_deviation.gp",
        "set xlabel 't'\n"
        "set ylabel '||w - <w>||_inf'\n"
        "set logscale y\n"
        "plot 'w_deviation.dat' using 1:2 with lines notitle\n",
    )


def _write_kernel_panel(sink: OutputSink, x_nodes, w: np.ndarray, t: float) -> None:
    sink.write_text("kernel_final.dat", format_blocks(x_nodes, x_nodes, w))
    sink.write_text(
        "kernel_final.gp",
        "set view map\n"
        "set xlabel 'x'\n"
        "set ylabel 'y'\n"
        f"set title 'connectivity w(x, y) at t = {fmt(t)}'\n"
        "splot 'kernel_final.dat' using 1:2:3 with pm3d notitle\n",
    )
