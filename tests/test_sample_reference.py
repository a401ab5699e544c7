"""Differential tests of `sample_random_matrix`, which writes the matrix
text as it draws, against the frozen row-packing sampler in
`reference_sample.py`: over a sweep of (m, n, p, seed), with m = 1,
n = 1 and p = 1 among them, both give the same text, the same rows and
the same column view, whichever view is read first."""

from __future__ import annotations

import itertools

import pytest

import reference_sample
from superselect import format_matrix, sample_random_matrix


@pytest.mark.parametrize("m", (1, 2, 9, 65))
def test_sample_matches_frozen_sampler(m):
    for n, p, seed in itertools.product((1, 2, 8, 63, 64, 65), (1, 2, 3, 7), (0, 1, 2010)):
        want = reference_sample.sample_random_matrix(m, n, p, seed)
        text = format_matrix(want)
        # Each view read first on its own sample, then the text.
        got = sample_random_matrix(m, n, p, seed)
        assert got.rows == want.rows and got.cols == want.cols, (n, p, seed)
        assert format_matrix(got) == text, (n, p, seed)
        got = sample_random_matrix(m, n, p, seed)
        assert got.cols == want.cols and got.rows == want.rows, (n, p, seed)
        assert format_matrix(sample_random_matrix(m, n, p, seed)) == text, (n, p, seed)
        assert got == want and hash(got) == hash(want)

