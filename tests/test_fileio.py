import numpy as np
import pytest

from lmmlasso.fileio import fmt17, write_csv


def test_fmt17_renders_bools_integers_and_floats():
    assert [fmt17(x) for x in (True, np.True_, np.int64(3), 7, 0.1)] == [
        "True", "1", "3", "7", "0.10000000000000001"]


def test_write_csv_streams_rows_and_quotes_cells(tmp_path):
    target = tmp_path / "out.csv"
    write_csv(target, ["id", "x"], (["a, b", 0.1 * k] for k in range(3)))
    assert target.read_text() == ('id,x\n"a, b",0\n"a, b",0.10000000000000001\n'
                                  '"a, b",0.20000000000000001\n')


def test_write_csv_failing_midway_leaves_target_untouched(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old contents\n")

    def rows():
        yield ["a", 1]
        yield ["b", 2]
        raise RuntimeError("input broke")

    with pytest.raises(RuntimeError, match="input broke"):
        write_csv(target, ["id", "x"], rows())
    assert target.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
