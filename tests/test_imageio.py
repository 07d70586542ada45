import numpy as np

from netsar.imageio import read_table, write_table


def test_table_round_trip_writes_numpy_floats_as_plain_floats(tmp_path):
    path = tmp_path / "t.csv"
    values = [np.float64(0.1), np.float32(0.25), 1e-300, np.int64(3), "bs00"]
    write_table(path, ["a", "b", "c", "d", "e"], [values])
    header, rows = read_table(path)
    assert header == ["a", "b", "c", "d", "e"]
    assert rows == [["0.1", "0.25", "1e-300", "3", "bs00"]]
    assert [float(v) for v in rows[0][:3]] == [0.1, 0.25, 1e-300]
