"""Small file-format helpers: binary PGM images and CSV tables."""

from __future__ import annotations

import csv

import numpy as np


def write_pgm(field: np.ndarray, path) -> None:
    """Write a nonnegative real field as a binary PGM (P5), peak -> 255.

    ``field`` is indexed [ix, iy]; rows of the image run over y from top
    (largest y) to bottom so the output reads like a map. Pixels are
    scaled ``field / peak * 255.0`` and truncated, a block of field rows
    at a time, so no full-size float copy of the field is made. A block
    with no nonzero value is skipped: its pixels are already 0.
    """
    field = np.asarray(field, dtype=float)
    peak = field.max()
    img = np.zeros(field.shape[::-1], dtype=np.uint8)
    if peak > 0:
        view = img[::-1].T  # view[ix, iy] is the pixel of field[ix, iy]
        for start in range(0, field.shape[0], 64):
            block = slice(start, start + 64)
            if field[block].any():
                view[block] = field[block] / peak * 255.0
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img)


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
