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
against the row scan. The kept v_j = j levels from level 4 on go to the
row-cover search `_disjunct` first; it is checked against the row scan
under small and unbounded node budgets, and pinned to build no pair
kernel on threshold-size (p, p, n)-selector samples."""

from __future__ import annotations

import random
from functools import lru_cache
from math import comb, inf

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
    BudgetError,
    SuperSelectorSpec,
    construct_derandomized,
    derand_threshold,
    is_list_disjunct,
    is_superselector,
    sample_random_matrix,
    selector_spec,
)
from superselect import core
from superselect.core import _disjunct, _filled_v, _pair_masks, _PairKernel
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
    # v_2 = 1 is settled from the column view and level 6, with v_6 = 6,
    # by the row-cover search, so only level 6 is decided from level 3
    # on, by the search or by the pair walk.
    spec = SuperSelectorSpec(12, 6, (1, 1, 2, 4, 5, 6))
    built = construct_derandomized(spec)
    decided = []
    holds, disjunct = _PairKernel.holds, core._disjunct
    monkeypatch.setattr(_PairKernel, "holds",
                        lambda self, j, k: decided.append(j) or holds(self, j, k))

    def search(M, j, nodes):
        found = disjunct(M, j, nodes)
        if found is not None:
            decided.append(j)
        return found

    monkeypatch.setattr(core, "_disjunct", search)
    assert is_superselector(BitMatrix.identity(12), spec)
    assert is_superselector(built, spec)
    assert decided == [6, 6]


def test_pair_masks_match_their_sums():
    for n in range(2, 71):
        assert _pair_masks(n) == pair_masks_by_sums(n), n


def _refuse_kernel(*args):
    raise AssertionError("pair kernel built")


def test_duplicate_column_reject_builds_no_tables(monkeypatch):
    # A repeated column fails level 2 from the column view, and v_2 = 1
    # is decided there whatever the answer, so neither builds a kernel.
    monkeypatch.setattr(_PairKernel, "__init__", _refuse_kernel)
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


# The v_j = j levels from level 4 on go to the row-cover search,
# `_disjunct`, which covers each column with at most j-1 others and
# gives up (None) past its node budget.
#
# The 12 lines of the affine plane over Z_3 as 9-row columns. Two lines
# share at most one row, so covering a line takes three others: with
# all lines present the plane is 2-disjunct and not 3-disjunct.
AFFINE_LINES = tuple(sorted({
    sum(1 << 3 * ((x + t * dx) % 3) + (y + t * dy) % 3 for t in range(3))
    for x in range(3) for y in range(3) for dx, dy in ((0, 1), (1, 0), (1, 1), (1, 2))}))
KINDS = ("few", "few", "sparse", "dense", "zero", "repeat")


@st.composite
def disjunct_matrices(draw, n=None):
    # A third of the matrices take distinct affine lines as columns. The
    # rest draw columns one by one: 1 to w ones, w <= 3 drawn per matrix,
    # as near the threshold density, where covers need several columns;
    # sparse (each row 1 with chance 1/4); dense (3/4); zero; or a copy
    # of an earlier column. Half of them take only the first kind.
    n = n or draw(st.integers(1, 10))
    mode = draw(st.sampled_from(("lines", "few", "mixed")))
    if mode == "lines":
        return _from_columns(9, draw(st.lists(st.sampled_from(AFFINE_LINES),
                                              min_size=n, max_size=n, unique=True)))
    m = draw(st.integers(1, 14))
    word = st.integers(0, (1 << m) - 1)
    few = st.sets(st.integers(0, m - 1), min_size=1, max_size=draw(st.integers(1, 3)))
    cols = []
    for _ in range(n):
        kind = "few" if mode == "few" else draw(st.sampled_from(KINDS))
        if kind == "repeat" and cols:
            cols.append(draw(st.sampled_from(cols)))
        elif kind == "zero":
            cols.append(0)
        elif kind == "dense":
            cols.append(draw(word) | draw(word))
        elif kind == "sparse":
            cols.append(draw(word) & draw(word))
        else:
            cols.append(sum(1 << r for r in draw(few)))
    return _from_columns(m, cols)


@settings(max_examples=120, deadline=None)
@given(M=disjunct_matrices(), data=st.data())
def test_disjunct_search_matches_row_scan(M, data):
    # Every j <= n, under budgets 0, 1, a drawn one and none: the search
    # gives the row scan's answer or gives up, and never gives up unbounded.
    drawn = data.draw(st.integers(2, 200))
    for j in range(1, M.n + 1):
        want = selector_holds(M, j, j)
        for nodes in (0, 1, drawn):
            assert _disjunct(M, j, nodes) in (None, want), (j, nodes)
        assert _disjunct(M, j, inf) == want, j


@settings(max_examples=80, deadline=None)
@given(n=st.integers(4, 9), data=st.data())
def test_drawn_disjunct_specs_match_every_level_row_scan(n, data):
    # v_j = j at a drawn j >= 4, and v_i < i above it, so level j is kept.
    p = data.draw(st.integers(4, n))
    j = data.draw(st.integers(4, p))
    v = [data.draw(st.integers(0, i if i < j else i - 1)) for i in range(1, p + 1)]
    v[j - 1] = j
    spec = SuperSelectorSpec(n, p, tuple(v))
    assert _filled_v(spec.v)[j - 1] == j
    M = data.draw(disjunct_matrices(n))
    assert is_superselector(M, spec) == superselector_holds(M, spec), v


# Threshold-size (p, p, n)-selector samples whose level p the search
# decides within its budget of C(n, p-2) nodes; seeds 0-2 pass and fail.
DISJUNCT_SPECS = (
    selector_spec(6, 6, 12),
    selector_spec(7, 7, 14),
    selector_spec(8, 8, 16),
    selector_spec(6, 6, 24),
)


@pytest.mark.parametrize("spec", DISJUNCT_SPECS, ids=str)
def test_disjunct_samples_build_no_tables(spec, monkeypatch):
    inputs = [_certify_sample(spec, seed) for seed in range(3)]
    inputs.append(_duplicate_last_column(inputs[0]))
    want = [_PairKernel(M).holds(spec.p, spec.p) for M in inputs]
    assert want[-1] is False
    monkeypatch.setattr(_PairKernel, "__init__", _refuse_kernel)
    assert [is_superselector(M, spec) for M in inputs] == want


def test_corpus_disjunct_level_is_searched_within_budget(monkeypatch):
    # The build workload's (12,6,(1,1,2,4,5,6)) matrix keeps taking the
    # search: it decides level 6 within C(12, 4) nodes (87 of them).
    spec = SuperSelectorSpec(12, 6, (1, 1, 2, 4, 5, 6))
    M = construct_derandomized(spec)
    assert _disjunct(M, 6, comb(12, 4)) is True
    monkeypatch.setattr(_PairKernel, "__init__", _refuse_kernel)
    assert is_superselector(M, spec)


def test_disjunct_search_past_its_budget_falls_back_to_the_walk(monkeypatch):
    # At (5,5,20) seed 0 the search needs more than C(20, 3) nodes.
    spec = selector_spec(5, 5, 20)
    M = _certify_sample(spec, 0)
    assert _disjunct(M, 5, comb(20, 3)) is None
    walked = []
    holds = _PairKernel.holds
    monkeypatch.setattr(_PairKernel, "holds",
                        lambda self, j, k: walked.append(j) or holds(self, j, k))
    assert is_superselector(M, spec) is _disjunct(M, 5, inf) is True
    assert walked == [5]


@pytest.mark.slow
def test_at_scale_disjunct_sample_is_searched_within_budget():
    # A passing (8,8,16) sample: about 600 of the 8,008 nodes, against
    # C(16, 6) prefixes for the walk.
    spec = selector_spec(8, 8, 16)
    M = _certify_sample(spec, 0)
    assert _disjunct(M, 8, comb(16, 6)) is True
    assert _PairKernel(M).holds(8, 8)
    assert selector_holds(M, 8, 8)


def _top_level(n, k):
    return SuperSelectorSpec(n, n, (0,) * (n - 1) + (k,))


@pytest.mark.parametrize("k", [1, 2])
def test_deepest_walked_level_gets_a_verdict(k):
    # Level 500, the deepest one checked, recurses 498 deep through the
    # walk. Unit rows on columns 0 to k-1 isolate k columns of the full
    # set, and a row of ones over a zero row isolates none. k = 1 takes
    # the covered side, k = 2 counts.
    n = core._MAX_LEVEL
    assert is_superselector(BitMatrix(n, [1 << r for r in range(k)]), _top_level(n, k))
    assert not is_superselector(BitMatrix(n, [1 << r for r in range(k - 1)] + [0]),
                                _top_level(n, k))
    assert not is_superselector(BitMatrix(n, [(1 << n) - 1, 0]), _top_level(n, k))


def test_deepest_searched_level_gets_a_verdict():
    # Column 0 holds rows 0 to n-2 and column c row c-1, so only all n-1
    # other columns cover column 0: the search recurses n-1 deep.
    n = core._MAX_LEVEL
    M = BitMatrix(n, [1 | 1 << r for r in range(1, n)])
    assert _disjunct(M, n, comb(n, n - 2)) is False
    assert not is_superselector(M, _top_level(n, n))
    assert is_superselector(BitMatrix.identity(n), _top_level(n, n))


@pytest.mark.parametrize("k", [1, 2, 1101])
def test_level_past_the_deepest_is_refused(k):
    n = 1101
    ones = BitMatrix(n, [(1 << n) - 1, 0])
    with pytest.raises(BudgetError, match="^level 1101 needs a recursion 1100 deep; "
                                          "levels above 500 are refused$"):
        is_superselector(ones, _top_level(n, k))
    # A level the loop reaches first still decides: column 0 is zero.
    spec = SuperSelectorSpec(n, n, (1,) + (0,) * (n - 2) + (k,))
    assert not is_superselector(BitMatrix(n, [(1 << n) - 2, 0]), spec)
