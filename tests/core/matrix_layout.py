"""How tests read ``VectorizedEngine._matrix``, whatever its storage order.

The engine stores its bit matrix word-major (``[word, row]``) so that a
scan reads only the words a request touches.  Tests reason about images,
so every test that looks inside the matrix goes through these readers,
and a change of layout changes this module alone.
"""

import numpy as np


def image_major(engine) -> np.ndarray:
    """The matrix as ``[row, word]``: one line of words per image row
    (a view, not a copy)."""
    return engine._matrix.T


def row_words(engine, row: int) -> np.ndarray:
    """Row ``row``'s words, little-endian, as one contiguous array."""
    return np.ascontiguousarray(image_major(engine)[row])


def row_mask(engine, row: int) -> int:
    """Row ``row`` as a big-int mask, comparable with ``image.mask``."""
    return int.from_bytes(row_words(engine, row).tobytes(), "little")


def live_bits(engine) -> np.ndarray:
    """One line of bits per live row (ascending row), bit ``p`` =
    package index ``p``."""
    top = engine._top
    words = np.ascontiguousarray(image_major(engine)[:top][engine._live[:top]])
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
