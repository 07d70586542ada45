"""Small file-format helpers: binary PGM images and CSV tables."""

from __future__ import annotations

import csv

import numpy as np


def write_pgm(field: np.ndarray, path) -> None:
    """Write a nonnegative real field as a binary PGM (P5), peak -> 255.

    ``field`` is indexed [ix, iy]; rows of the image run over y from top
    (largest y) to bottom so the output reads like a map.
    """
    field = np.asarray(field, dtype=float)
    peak = field.max()
    scaled = np.zeros_like(field) if peak <= 0 else field / peak * 255.0
    img = np.flipud(scaled.T).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM written by :func:`write_pgm` back to [ix, iy] order."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError("not a binary PGM file")
        dims = fh.readline().split()
        width, height = int(dims[0]), int(dims[1])
        maxval = int(fh.readline())
        if maxval != 255:
            raise ValueError("only maxval 255 supported")
        data = np.frombuffer(fh.read(width * height), dtype=np.uint8)
    img = data.reshape(height, width)
    return np.flipud(img).T.astype(float)


def write_table(path, header: list[str], rows) -> None:
    """RFC-4180-style CSV with a header row; floats, numpy's too, via repr(float)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV table, every field as text; an empty file
    reads as no header and no rows."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [row for row in reader]
    return header, rows
