import tracemalloc

import numpy as np
import pytest

from netsar.imageio import read_pgm, read_table, write_pgm, write_table


def test_table_round_trip_writes_numpy_floats_as_plain_floats(tmp_path):
    path = tmp_path / "t.csv"
    values = [np.float64(0.1), np.float32(0.25), 1e-300, np.int64(3), "bs00"]
    write_table(path, ["a", "b", "c", "d", "e"], [values])
    header, rows = read_table(path)
    assert header == ["a", "b", "c", "d", "e"]
    assert rows == [["0.1", "0.25", "1e-300", "3", "bs00"]]
    assert [float(v) for v in rows[0][:3]] == [0.1, 0.25, 1e-300]


def _reference_pgm_pixels(field):
    field = np.asarray(field, dtype=float)
    peak = field.max()
    scaled = np.zeros_like(field) if peak <= 0 else field / peak * 255.0
    return np.flipud(scaled.T).astype(np.uint8)


@pytest.mark.parametrize(
    "field",
    [
        # not a multiple of the row block on either axis
        np.random.default_rng(3).random((130, 65)),
        np.random.default_rng(4).random((65, 130)),
        np.array([[0.7]]),
        np.zeros((70, 3)),
        # a large dynamic range, with exact multiples of the peak / 255
        np.concatenate([np.geomspace(1e-300, 1e300, 129), np.arange(256.0) / 255.0]).reshape(
            5, 77
        ),
    ],
    ids=["130x65", "65x130", "1x1", "all-zero", "dynamic-range"],
)
def test_write_pgm_bytes_equal_the_full_size_expression(tmp_path, field):
    path = tmp_path / "f.pgm"
    write_pgm(field, path)
    img = _reference_pgm_pixels(field)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    assert path.read_bytes() == header + img.tobytes()
    assert read_pgm(path).shape == field.shape


def test_write_pgm_holds_no_full_size_float_copy(tmp_path):
    field = np.random.default_rng(5).random((1600, 1600))  # 20 MB of float64
    tracemalloc.start()
    try:
        write_pgm(field, tmp_path / "f.pgm")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 2.6 MB uint8 image and two row blocks of floats, not a 20 MB float copy
    assert peak < 5e6
