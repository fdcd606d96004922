"""The output writer formats each number once and writes the same text as the
per-value `f"{v:.17g}"` joins it replaced, in every file of a record."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elapsednet.grids import SpatialGrid
from elapsednet.output import (OutputSink, format_rows, format_values, gnuplot_blocks,
                               kernel_csv, write_record)
from elapsednet.renewal import RunRecord

SPECIAL = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e300, -1e300,
           float("inf"), float("-inf"), float("nan")]
VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**20, 10**20),
    st.sampled_from(SPECIAL),
)


def tables(min_rows=0, min_cols=0):
    return st.integers(min_cols, 6).flatmap(lambda ncols: st.lists(
        st.lists(VALUES, min_size=ncols, max_size=ncols), min_size=min_rows, max_size=8))


def per_value_rows(rows, sep):
    return "".join(sep.join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def per_value_blocks(outer, inner, table):
    lines = []
    for a, row in zip(outer, table):
        for b, v in zip(inner, row):
            lines.append(f"{a:.17g} {b:.17g} {v:.17g}")
        lines.append("")
    return "\n".join(lines) + "\n"


@settings(deadline=None)
@given(rows=tables(), sep=st.sampled_from([",", " "]))
@example(rows=[], sep=",")
@example(rows=[SPECIAL], sep=",")
def test_rows_match_per_value_formatting(rows, sep):
    assert format_values(np.array(rows, dtype=float)) == [f"{v:.17g}" for row in rows
                                                          for v in row]
    assert format_rows(rows, sep) == per_value_rows(rows, sep)


@settings(deadline=None)
@given(data=st.data())
def test_blocks_match_per_value_formatting(data):
    table = data.draw(tables(min_cols=1))
    nb, nj = len(table), len(table[0]) if table else data.draw(st.integers(1, 6))
    outer = data.draw(st.lists(VALUES, min_size=nb, max_size=nb))
    inner = data.draw(st.lists(VALUES, min_size=nj, max_size=nj))
    grid = np.array(table, dtype=float).reshape(nb, nj)
    text = gnuplot_blocks(format_values(outer), format_values(inner), format_values(grid))
    assert text == per_value_blocks(outer, inner, table)


def test_csv_file_matches_per_value_formatting(tmp_path):
    x = np.array([0.125, 0.375, 0.625])
    w = np.array([[1.0, -0.0, 5e-324], [np.inf, np.nan, 1e300], [3.0, 1 / 3, -1e-310]])
    sink = OutputSink(str(tmp_path))
    sink.write_text("w.csv", kernel_csv(format_values(x), format_values(w)))
    rows = [[a, b, w[i, j]] for i, a in enumerate(x) for j, b in enumerate(x)]
    assert (tmp_path / "w.csv").read_text() == "x,y,w\n" + per_value_rows(rows, ",")
    sink.write_csv("empty.csv", ["t", "N"], np.empty((0, 2)))
    assert (tmp_path / "empty.csv").read_text() == "t,N\n"


def special_record(n_snapshots: int) -> RunRecord:
    """Three x nodes and nine rows; every series and snapshot holds SPECIAL values, the
    times those that increase (a NaN last passes the check)."""
    times = np.array([-np.inf, -1e300, -2.2250738585072014e-308, -0.0, 5e-324, 1e-310, 1e300,
                      np.inf, np.nan])
    special = lambda shape, shift: np.roll(np.resize(SPECIAL, shape), shift)
    series = [special((9, 3), shift) for shift in (0, 3, 7)]
    snapshots = {t: special((3, 3), shift) for t, shift in zip((0.1, 1 / 3), (2, 5))}
    return RunRecord(times, *series, special(9, 1), special(9, 4),
                     dict(list(snapshots.items())[:n_snapshots]), SpatialGrid(nx=3))


@pytest.mark.parametrize("n_snapshots", [2, 0])
def test_record_files_match_per_value_formatting(tmp_path, n_snapshots):
    """Each file of a record against per-value joins, so the strings that N.csv and
    N_heatmap.dat, kernel_stats.csv and w_deviation.dat, and the last snapshot and
    kernel_final.dat share are pinned in both files of each pair."""
    record = special_record(n_snapshots)
    sink = OutputSink(str(tmp_path))
    write_record(sink, record)
    x, t = record.space.nodes, record.times
    header = ",".join(["t", *(f"{v:.17g}" for v in x)]) + "\n"
    expected = {f"{name}.csv": header + per_value_rows(
        [[tb, *row] for tb, row in zip(t, getattr(record, f"{name}_series"))], ",")
        for name in ("N", "S", "mass")}
    expected["kernel_stats.csv"] = "t,w_mean,w_sup_deviation\n" + per_value_rows(
        zip(t, record.w_mean_series, record.w_dev_series), ",")
    for ts, w in record.w_snapshots.items():
        expected[f"w_snapshot_t{ts:.17g}.csv"] = "x,y,w\n" + per_value_rows(
            [[a, b, w[i, j]] for i, a in enumerate(x) for j, b in enumerate(x)], ",")
    expected["N_heatmap.dat"] = per_value_blocks(t, x, record.N_series)
    expected["S_heatmap.dat"] = per_value_blocks(t, x, record.S_series)
    expected["w_deviation.dat"] = per_value_rows(zip(t, record.w_dev_series), " ")
    scripts = {"N_heatmap.gp", "S_heatmap.gp", "w_deviation.gp"}
    if record.w_snapshots:
        t_last = max(record.w_snapshots)
        expected["kernel_final.dat"] = per_value_blocks(x, x, record.w_snapshots[t_last])
        scripts.add("kernel_final.gp")
        assert f"at t = {t_last:.17g}'" in (tmp_path / "kernel_final.gp").read_text()
    assert sorted(sink.files) == sorted([*expected, *scripts])
    for name, text in expected.items():
        assert (tmp_path / name).read_text() == text, name
