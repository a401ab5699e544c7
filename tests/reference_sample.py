"""Frozen reference for the differential sampler tests:
`sample_random_matrix` as it was before it wrote the matrix text
directly. It draws the entries row-major, column-ascending, collects
each row as its n flags and packs them into the row's int with
`row_mask`, so the text is made only when something formats the
matrix. It is kept only so the sampler in `superselect.construct` can
be checked against it. Do not use it outside the tests.
"""

from __future__ import annotations

import random

from superselect import BitMatrix, InputError
from superselect.core import row_mask


def sample_random_matrix(m: int, n: int, p: int, seed: int) -> BitMatrix:
    """m x n matrix with i.i.d. entries, zero with probability (p-1)/p."""
    if m < 1 or n < 1 or p < 1:
        raise InputError("m, n, p must be positive")
    x = (p - 1) / p
    draw = random.Random(seed).random
    return BitMatrix(n, [row_mask([draw() >= x for _ in range(n)])
                         for _ in range(m)])
