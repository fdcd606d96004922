"""The row formatters of the output writer write the same text as the
per-value `f"{v:.17g}"` joins they replaced."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elapsednet.output import OutputSink, format_blocks, format_rows, kernel_table

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
    assert format_rows(rows, sep) == per_value_rows(rows, sep)


@settings(deadline=None)
@given(data=st.data())
def test_blocks_match_per_value_formatting(data):
    table = data.draw(tables(min_cols=1))
    nb, nj = len(table), len(table[0]) if table else data.draw(st.integers(1, 6))
    outer = data.draw(st.lists(VALUES, min_size=nb, max_size=nb))
    inner = data.draw(st.lists(VALUES, min_size=nj, max_size=nj))
    grid = np.array(table, dtype=float).reshape(nb, nj)
    assert format_blocks(outer, inner, grid) == per_value_blocks(outer, inner, table)


def test_csv_file_matches_per_value_formatting(tmp_path):
    x = np.array([0.125, 0.375, 0.625])
    w = np.array([[1.0, -0.0, 5e-324], [np.inf, np.nan, 1e300], [3.0, 1 / 3, -1e-310]])
    sink = OutputSink(str(tmp_path))
    sink.write_csv("w.csv", ["x", "y", "w"], kernel_table(x, w))
    rows = [[a, b, w[i, j]] for i, a in enumerate(x) for j, b in enumerate(x)]
    assert (tmp_path / "w.csv").read_text() == "x,y,w\n" + per_value_rows(rows, ",")
    sink.write_csv("empty.csv", ["t", "N"], np.empty((0, 2)))
    assert (tmp_path / "empty.csv").read_text() == "t,N\n"
