"""Differential tests of the pair-bitset verification kernel and of
`is_list_disjunct` against the frozen verifiers in `reference_verify.py`:
the row scans, the depth-first column-view walk the pair kernel
replaced, and the per-S row-scan counting form that `is_list_disjunct`
replaced. `is_superselector` skips the implied levels from level 3 on,
so its verdicts on specs with such levels are checked against the row
scan of every level. The levels j >= 3 with k in {1, 3, j-1} are
settled by counting covered columns; they are also checked against the
kernel's own isolated-column walk, `_PairKernel._walk`. Level 2 is read
off the column view at v_2 = 1 and whenever a column repeats; drawn
matrices with a planted repeated, nested or all-zero column check it
against the row scan."""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_verify import (
    column_view_holds,
    list_disjunct_counts,
    list_disjunct_holds,
    pair_masks_by_sums,
    selector_holds,
    superselector_holds,
)
from superselect import (
    BitMatrix,
    SuperSelectorSpec,
    construct_derandomized,
    derand_threshold,
    is_list_disjunct,
    is_superselector,
    sample_random_matrix,
    selector_spec,
)
from superselect import core
from superselect.core import _filled_v, _pair_masks, _PairKernel
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
            assert (is_superselector(M, selector_spec(p, k, M.n))
                    == selector_holds(M, p, k)), (p, k)


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


@st.composite
def repetitive_matrices(draw):
    # Rows drawn from a seeded pool of up to 40 rows plus the zero row,
    # so repeated and zero rows are common, m reaches 140 and the
    # distinct rows fill several table chunks; half the matrices have
    # a drawn set of zero columns.
    n = draw(st.integers(1, 10))
    size = draw(st.integers(1, 40))
    m = draw(st.integers(1, 140))
    density = draw(st.floats(0.05, 0.7))
    zero_cols = draw(st.integers(0, (1 << n) - 1)) if draw(st.booleans()) else 0
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [0] + [sum((rng.random() < density) << c for c in range(n))
                  for _ in range(size)]
    return BitMatrix(n, [rng.choice(pool) & ~zero_cols for _ in range(m)])


@settings(max_examples=60, deadline=None)
@given(M=repetitive_matrices())
def test_pair_kernel_matches_column_walk_and_row_scan(M):
    # Every 1 <= k <= j <= n, against the old walk and the row scan.
    for j in range(1, M.n + 1):
        for k in range(1, j + 1):
            want = column_view_holds(M.cols, j, k)
            assert is_superselector(M, selector_spec(j, k, M.n)) == want, (j, k)
            assert selector_holds(M, j, k) == want, (j, k)


def test_many_chunk_matrices_match_column_walk():
    # Seeded matrices with 20 to 100 distinct rows (5 to 25 chunks of
    # the pair tables), repeated rows and both outcomes at most levels.
    rng = random.Random(9)
    answers = {True: 0, False: 0}
    for _ in range(24):
        n = rng.randint(6, 10)
        density = rng.uniform(0.1, 0.5)
        pool = [sum((rng.random() < density) << c for c in range(n))
                for _ in range(rng.randint(20, 100))]
        M = BitMatrix(n, [rng.choice(pool) for _ in range(rng.randint(60, 140))])
        for j in range(1, n + 1):
            for k in range(1, j + 1):
                got = is_superselector(M, selector_spec(j, k, M.n))
                assert got == column_view_holds(M.cols, j, k), (M.rows, j, k)
                answers[got] += 1
    assert min(answers.values()) >= 100, answers


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
        got = is_superselector(M, selector_spec(p, k, M.n))
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
            assert (is_superselector(M, selector_spec(j, k, M.n))
                    == selector_holds(M, j, k)), (j, k)


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
        assert not is_superselector(bad, selector_spec(2, 1, bad.n))
        assert not selector_holds(bad, 2, 1)


def _same_as_column_walk(M, p):
    for j in range(1, p + 1):
        for k in range(1, j + 1):
            assert (is_superselector(M, selector_spec(j, k, M.n))
                    == column_view_holds(M.cols, j, k)), (j, k)


@pytest.mark.parametrize("spec", CERTIFY_SPECS, ids=str)
def test_certify_samples_match_column_walk(spec):
    for seed in SEEDS:
        M = _certify_sample(spec, seed)
        _same_as_column_walk(M, spec.p)
        _same_as_column_walk(_duplicate_last_column(M), spec.p)


@pytest.mark.slow
def test_at_scale_sample_matches_column_walk():
    # One threshold-size sample where level 3 has C(128, 3) sets.
    spec = SuperSelectorSpec(128, 3, (1, 2, 2))
    M = _certify_sample(spec, 0)
    assert is_superselector(M, spec)
    _same_as_column_walk(M, spec.p)


# Specs with implied levels >= 3, which `is_superselector` does not walk.
# The kept levels are (2, 4), (6,), (2, 6) and (2, 4) besides level 1.
IMPLIED_SPECS = (
    SuperSelectorSpec(24, 4, (1, 2, 2, 3)),
    SuperSelectorSpec(12, 6, (1, 1, 2, 4, 5, 6)),
    SuperSelectorSpec(10, 6, (1, 2, 2, 2, 2, 4)),
    SuperSelectorSpec(8, 4, (1, 2, 3, 4)),
)


def _implied_inputs(spec):
    # Threshold-size samples, the same cut to half their rows, and the
    # certify corruption of each.
    for seed in range(6):
        M = _certify_sample(spec, seed)
        yield M
        yield BitMatrix(M.n, M.rows[:M.m // 2])
        yield _duplicate_last_column(M)


@pytest.mark.parametrize("spec", IMPLIED_SPECS, ids=str)
def test_implied_level_specs_match_every_level_row_scan(spec):
    kept = _filled_v(spec.v)
    assert any(spec.v[j - 1] and not kept[j - 1] for j in range(3, spec.p + 1))
    answers = set()
    for M in _implied_inputs(spec):
        got = is_superselector(M, spec)
        assert got == superselector_holds(M, spec), (M.m, M.rows)
        answers.add(got)
    assert answers == {True, False}


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 8), data=st.data())
def test_drawn_specs_match_every_level_row_scan(n, data):
    # Any v over any p >= 3, so implied levels of every kind occur.
    p = data.draw(st.integers(3, n))
    v = tuple(data.draw(st.integers(0, i)) for i in range(1, p + 1))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=24))
    M, spec = BitMatrix(n, rows), SuperSelectorSpec(n, p, v)
    assert is_superselector(M, spec) == superselector_holds(M, spec), v


def test_only_kept_levels_from_three_on_are_walked(monkeypatch):
    walked = []
    holds = _PairKernel.holds
    monkeypatch.setattr(_PairKernel, "holds",
                        lambda self, j, k: walked.append(j) or holds(self, j, k))
    # v_2 = 1 is settled from the column view, so only level 6 is walked.
    spec = SuperSelectorSpec(12, 6, (1, 1, 2, 4, 5, 6))
    assert is_superselector(BitMatrix.identity(12), spec)
    assert walked == [6]


def test_pair_masks_match_their_sums():
    for n in range(2, 71):
        assert _pair_masks(n) == pair_masks_by_sums(n), n


def test_duplicate_column_reject_builds_no_tables(monkeypatch):
    # A repeated column fails level 2 from the column view, and v_2 = 1
    # is decided there whatever the answer, so neither builds a kernel.
    def refuse(*args):
        raise AssertionError("pair kernel built")
    monkeypatch.setattr(_PairKernel, "__init__", refuse)
    spec = CERTIFY_SPECS[0]
    for seed in SEEDS:
        M = _certify_sample(spec, seed)
        bad = _duplicate_last_column(M)
        assert not is_superselector(bad, spec)
        for v in ((0, 1), (1, 1)):
            narrow = SuperSelectorSpec(M.n, 2, v)
            assert is_superselector(M, narrow) == superselector_holds(M, narrow)
            assert not is_superselector(bad, narrow)


@st.composite
def planted_columns(draw):
    # A drawn matrix with one planted column: a copy of another column,
    # nested inside it, or all zero.
    n = draw(st.integers(2, 8))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    keep = {"repeated": -1, "nested": draw(st.integers(0, (1 << len(rows)) - 1)),
            "zero": 0}[draw(st.sampled_from(("repeated", "nested", "zero")))]
    planted = []
    for r, row in enumerate(rows):
        bit = (row >> a) & (keep >> r) & 1
        planted.append(row & ~(1 << b) | bit << b)
    return BitMatrix(n, planted)


@settings(max_examples=150, deadline=None)
@given(M=planted_columns(), data=st.data())
def test_column_view_level_two_matches_row_scan(M, data):
    # v_2 in {1, 2}, alone or with drawn levels above it.
    p = data.draw(st.integers(2, M.n))
    v = (data.draw(st.integers(0, 1)), data.draw(st.integers(1, 2)),
         *(data.draw(st.integers(0, i)) for i in range(3, p + 1)))
    spec = SuperSelectorSpec(M.n, p, v)
    assert is_superselector(M, spec) == superselector_holds(M, spec), v
    level_two = SuperSelectorSpec(M.n, 2, v[:2])
    assert is_superselector(M, level_two) == superselector_holds(M, level_two), v


def _covered_levels(n):
    # Every level j >= 3 of n columns with each k it settles by covered
    # columns: 1, 3 and j - 1, as far as k <= j.
    for j in range(3, n + 1):
        for k in sorted({1, 3, j - 1} & set(range(1, j + 1))):
            yield j, k


def _same_covered_answers(M):
    for j, k in _covered_levels(M.n):
        want = selector_holds(M, j, k)
        assert _PairKernel(M).holds(j, k) == want, (j, k)
        assert _PairKernel(M)._walk(j, k) == want, (j, k)


def _from_columns(m, cols):
    return BitMatrix(len(cols), [sum((x >> r & 1) << c for c, x in enumerate(cols))
                                 for r in range(m)])


# In "nested-columns" column 1 lies inside column 0 and column 4 inside
# column 3; in "equal-columns" columns 2 and 5 are equal. A prefix
# holding both columns of such a pair has a column with no row it hits
# once.
COVERED_EDGE_MATRICES = {
    "zero": BitMatrix.zeros(5, 6),
    "one-row": BitMatrix(7, [0b1011010]),
    "identity-n=j": BitMatrix.identity(5),
    "duplicate-pair": BitMatrix(6, [0b000011, 0b110100, 0b011000, 0b101100]),
    "nested-columns": _from_columns(6, [0b011110, 0b001100, 0b100001, 0b110010, 0b100010,
                                        0b000101, 0b010001]),
    "equal-columns": _from_columns(6, [0b000111, 0b101010, 0b110100, 0b011001, 0b100101,
                                       0b110100, 0b001110]),
}


@pytest.mark.parametrize("M", COVERED_EDGE_MATRICES.values(), ids=COVERED_EDGE_MATRICES.keys())
def test_covered_levels_match_walk_and_row_scan_on_edge_matrices(M):
    _same_covered_answers(M)
    for j in range(3, M.n + 1):
        for k in range(1, j + 1):
            assert _PairKernel(M)._walk(j, k) == selector_holds(M, j, k), (j, k)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 9), data=st.data())
def test_covered_levels_match_walk_and_row_scan(n, data):
    # j runs up to n, so n = j is always among the levels.
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    _same_covered_answers(BitMatrix(n, rows))


def test_covered_levels_do_not_enter_the_walk(monkeypatch):
    walked = []
    walk = _PairKernel._walk
    monkeypatch.setattr(_PairKernel, "_walk",
                        lambda self, j, k: walked.append((j, k)) or walk(self, j, k))
    M = BitMatrix.identity(8)
    for j, k in _covered_levels(M.n):
        assert _PairKernel(M).holds(j, k)
    assert walked == []
    for j, k in ((4, 2), (4, 4), (6, 6)):
        assert _PairKernel(M).holds(j, k)
    assert walked == [(4, 2), (4, 4), (6, 6)]
