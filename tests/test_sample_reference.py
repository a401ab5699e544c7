"""Differential tests of `sample_random_matrix`, which writes the matrix
text as it draws, against the frozen row-packing sampler in
`reference_sample.py`: over a sweep of (m, n, p, seed), with m = 1,
n = 1 and p = 1 among them, both give the same text, the same rows and
the same column view, whichever view is read first. A hypothesis
differential draws (m, n, p, seed) freely, and named cases pin the
edges of the byte threshold: p = 1 (all ones), p = 2, p = 2**54 (where
(p-1)/p rounds to 1.0, so all zeros), a 1 x 1 matrix, and seeds whose
first draw's top byte ties the threshold, so only the exact comparison
of both words decides that entry."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def same_as_frozen(m, n, p, seed):
    got = sample_random_matrix(m, n, p, seed)
    want = reference_sample.sample_random_matrix(m, n, p, seed)
    assert format_matrix(got) == format_matrix(want), (m, n, p, seed)
    assert got.rows == want.rows and got.cols == want.cols, (m, n, p, seed)
    return got


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 70),
       p=st.one_of(st.integers(1, 20), st.integers(1, 2**64)),
       seed=st.integers(-2**70, 2**70))
def test_sample_matches_frozen_sampler_anywhere(m, n, p, seed):
    same_as_frozen(m, n, p, seed)


@pytest.mark.parametrize("seed", (0, 1, 2010))
def test_sample_edges(seed):
    assert same_as_frozen(7, 9, 1, seed).rows == (2**9 - 1,) * 7
    half = same_as_frozen(30, 64, 2, seed)
    assert 0 < sum(bin(row).count("1") for row in half.rows) < 30 * 64
    # (2**54 - 1) / 2**54 rounds to 1.0, and random() < 1.0 always.
    assert same_as_frozen(7, 9, 2**54, seed).rows == (0,) * 7
    for p in (1, 2, 3, 2**54):
        same_as_frozen(1, 1, p, seed)


@pytest.mark.parametrize("seed, bit", ((544, 0), (2219, 1)))
def test_sample_tie_on_top_byte(seed, bit):
    # The first word's top byte equals that of ceil(2/3 * 2**53), so the
    # byte alone cannot decide entry (0, 0): one seed's draw falls below
    # 2/3 and the other's does not.
    assert random.Random(seed).getrandbits(32) >> 24 == int(2 / 3 * 256)
    M = same_as_frozen(4, 5, 3, seed)
    assert M.rows[0] & 1 == bit
