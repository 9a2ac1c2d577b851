"""Reads back the 8-bit PGM rasters that fiocalc writes, for the tests."""

import numpy as np


def read_pgm(path) -> np.ndarray:
    """The levels of a binary (P5) PGM with one comment line, as a uint8
    array of shape (rows, cols)."""
    with open(path, "rb") as fh:
        magic, _comment, size, maxval = (fh.readline() for _ in range(4))
        data = fh.read()
    assert magic == b"P5\n" and maxval == b"255\n"
    cols, rows = map(int, size.split())
    return np.frombuffer(data, dtype=np.uint8).reshape(rows, cols)
