"""Differential tests of the column-view verification kernel and of
`is_list_disjunct` against the frozen row-scan verifiers in
`reference_verify.py`: the l-set enumeration and the per-S row-scan
counting form that `is_list_disjunct` replaced."""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_verify import (
    list_disjunct_counts,
    list_disjunct_holds,
    selector_holds,
    superselector_holds,
)
from superselect import (
    BitMatrix,
    SuperSelectorSpec,
    construct_derandomized,
    derand_threshold,
    is_list_disjunct,
    is_selector,
    is_superselector,
    sample_random_matrix,
)
from test_fill_reference import CORPUS_DIGESTS

# The benchmark's certify specs, sampled at threshold size. Seeds 0-3
# give both passing and failing samples on each.
CERTIFY_SPECS = (
    SuperSelectorSpec(40, 3, (1, 2, 3)),
    SuperSelectorSpec(64, 3, (1, 2, 2)),
    SuperSelectorSpec(24, 4, (1, 2, 2, 3)),
)
SEEDS = range(4)


def _same_selector_answers(M):
    # Every 1 <= k <= p <= n, against the row scan.
    for p in range(1, M.n + 1):
        for k in range(1, p + 1):
            assert is_selector(M, p, k) == selector_holds(M, p, k), (p, k)


def _same_list_disjunct_answers(M):
    for d in range(1, M.n):
        for l in range(1, M.n - d + 1):
            assert is_list_disjunct(M, d, l) == list_disjunct_holds(M, d, l), (d, l)


EDGE_MATRICES = {
    "one-row": BitMatrix(5, [0b10110]),
    "one-column": BitMatrix(1, [1, 0, 1]),
    "zero-rows": BitMatrix.zeros(4, 6),
    "identity": BitMatrix.identity(7),
    "identity-plus-zero-rows": BitMatrix(6, [0, *(1 << c for c in range(6)), 0]),
    "all-ones": BitMatrix(5, [0b11111] * 3),
    "full-width-10": BitMatrix(10, [(1 << c) | (1 << ((c + 3) % 10)) for c in range(10)]
                               + [0b1111100000, 0b0000011111]),
}


@pytest.mark.parametrize("M", EDGE_MATRICES.values(), ids=EDGE_MATRICES.keys())
def test_edge_matrices_match_row_scan(M):
    _same_selector_answers(M)
    if M.n >= 2:
        _same_list_disjunct_answers(M)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_drawn_matrices_match_row_scan(n, data):
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16))
    M = BitMatrix(n, rows)
    _same_selector_answers(M)
    if n >= 2:
        _same_list_disjunct_answers(M)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), data=st.data())
def test_drawn_matrices_match_counting_row_scan(n, data):
    # Every (d, l) with d + l <= n, against the per-S row scan.
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16))
    M = BitMatrix(n, rows)
    for d in range(1, n):
        for l in range(1, n - d + 1):
            assert is_list_disjunct(M, d, l) == list_disjunct_counts(M, d, l), (d, l)


def test_random_pool_matches_row_scan_on_both_outcomes():
    # Seeded pool with varied density, so both answers occur often.
    rng = random.Random(2010)
    answers = {True: 0, False: 0}
    for _ in range(300):
        n, m = rng.randint(2, 9), rng.randint(1, 12)
        density = rng.uniform(0.05, 0.6)
        M = BitMatrix(n, [sum((rng.random() < density) << c for c in range(n))
                          for _ in range(m)])
        p = rng.randint(1, n)
        k = rng.randint(1, p)
        got = is_selector(M, p, k)
        assert got == selector_holds(M, p, k), (M.rows, p, k)
        answers[got] += 1
        d = rng.randint(1, n - 1)
        l = rng.randint(1, n - d)
        got = is_list_disjunct(M, d, l)
        assert got == list_disjunct_holds(M, d, l), (M.rows, d, l)
        answers[got] += 1
    assert min(answers.values()) >= 100, answers


@pytest.mark.parametrize("spec", list(CORPUS_DIGESTS), ids=str)
def test_corpus_matrices_match_row_scan(spec):
    M = construct_derandomized(spec)
    assert is_superselector(M, spec) and superselector_holds(M, spec)
    for j in range(1, spec.p + 1):
        for k in range(1, j + 1):
            assert is_selector(M, j, k) == selector_holds(M, j, k), (j, k)


@lru_cache(maxsize=None)
def _certify_sample(spec, seed):
    return sample_random_matrix(derand_threshold(spec), spec.n, spec.p, seed)


def _duplicate_last_column(M):
    # Column n-2 becomes a copy of column n-1.
    hi, lo = M.n - 1, M.n - 2
    return BitMatrix(M.n, [(row & ~(1 << lo)) | (((row >> hi) & 1) << lo)
                           for row in M.rows])


@pytest.mark.parametrize("spec", CERTIFY_SPECS, ids=str)
def test_certify_samples_match_row_scan(spec):
    answers = set()
    for seed in SEEDS:
        M = _certify_sample(spec, seed)
        got = is_superselector(M, spec)
        assert got == superselector_holds(M, spec), seed
        answers.add(got)
    assert answers == {True, False}


@pytest.mark.parametrize("spec", CERTIFY_SPECS, ids=str)
def test_certify_samples_with_duplicated_column_fail(spec):
    for seed in SEEDS:
        bad = _duplicate_last_column(_certify_sample(spec, seed))
        assert not is_superselector(bad, spec)
        assert not superselector_holds(bad, spec)
        assert not is_selector(bad, 2, 1) and not selector_holds(bad, 2, 1)
