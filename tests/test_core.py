import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superselect.core import (
    BitMatrix,
    BudgetError,
    InputError,
    ParseError,
    SuperSelectorSpec,
    arithmetic_sum,
    boolean_sum,
    count_identity_rows,
    covered_columns,
    is_covered,
    is_list_disjunct,
    is_selector,
    is_superselector,
    parse_matrix,
    parse_spec,
    parse_vector,
    selector_spec,
)


def matrix_of(entries):
    return BitMatrix.from_entries(entries)


def random_matrix(m, n, seed, density=0.5):
    rng = random.Random(seed)
    return matrix_of(
        [[1 if rng.random() < density else 0 for _ in range(n)]
         for _ in range(m)]
    )


@st.composite
def matrices(draw, max_m=8, max_n=8):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    entries = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        min_size=m, max_size=m,
    ))
    return matrix_of(entries)


@st.composite
def matrices_with_subsets(draw):
    M = draw(matrices())
    size = draw(st.integers(0, M.n))
    S = tuple(sorted(draw(st.permutations(range(M.n)))[:size]))
    return M, S


# --- sums ---

def test_boolean_sum_identity_columns():
    assert boolean_sum(BitMatrix.identity(3), (0, 2)) == (1, 0, 1)


def test_boolean_sum_empty_set_is_zero():
    M = random_matrix(5, 7, seed=1)
    assert boolean_sum(M, ()) == (0,) * 5


def test_arithmetic_sum_all_ones():
    M = matrix_of([[1, 1], [1, 1]])
    assert arithmetic_sum(M, (0, 1)) == (2, 2)


def test_arithmetic_sum_disjoint_supports():
    assert arithmetic_sum(BitMatrix.identity(3), (0, 2)) == (1, 0, 1)


def test_sums_match_naive_oracles_on_random_matrix():
    M = random_matrix(8, 12, seed=42)
    S = (1, 4, 7, 11)
    for r in range(M.m):
        row = [M.entry(r, c) for c in range(M.n)]
        assert boolean_sum(M, S)[r] == max(row[c] for c in S)
        assert arithmetic_sum(M, S)[r] == sum(row[c] for c in S)


def test_sum_rejects_out_of_range_column():
    with pytest.raises(InputError):
        boolean_sum(BitMatrix.identity(3), (0, 3))
    with pytest.raises(InputError):
        arithmetic_sum(BitMatrix.identity(3), (-1,))


@given(matrices_with_subsets())
def test_boolean_sum_is_clipped_arithmetic_sum(case):
    M, S = case
    arith = arithmetic_sum(M, S)
    assert boolean_sum(M, S) == tuple(min(a, 1) for a in arith)
    assert all(a <= len(S) for a in arith)


# --- coverage ---

def test_is_covered_examples():
    assert is_covered((0, 1, 0), (1, 1, 0))
    assert not is_covered((1, 0), (0, 1))
    assert is_covered((1, 0, 1), (1, 0, 1))


def test_is_covered_length_mismatch():
    with pytest.raises(InputError):
        is_covered((1, 0), (1, 0, 0))


def test_covered_columns_identity():
    assert covered_columns(BitMatrix.identity(3), (1, 0, 1)) == (0, 2)


def test_covered_columns_all_ones_and_zeros():
    M = matrix_of([[1, 0, 0], [0, 1, 0]])
    assert covered_columns(M, (1, 1)) == (0, 1, 2)
    # Only the all-zero column is covered by the zero observation.
    assert covered_columns(M, (0, 0)) == (2,)


@given(matrices_with_subsets())
def test_subset_growth_grows_the_boolean_sum(case):
    M, S = case
    T = tuple(sorted(set(S) | {0})) if M.n else S
    assert is_covered(boolean_sum(M, S), boolean_sum(M, T))


@given(matrices_with_subsets())
def test_covered_columns_exactly_match_definition(case):
    M, S = case
    a = boolean_sum(M, S)
    cov = covered_columns(M, a)
    for c in range(M.n):
        expected = is_covered(M.column(c), a)
        assert (c in cov) == expected
    assert set(S) <= set(cov)


# --- identity-row counting ---

def test_count_identity_rows_full_identity():
    assert count_identity_rows(BitMatrix.identity(4), (0, 1, 2, 3)) == 4


def test_count_identity_rows_zero_matrix():
    M = matrix_of([[0, 0, 0]] * 3)
    assert count_identity_rows(M, (0, 1, 2)) == 0


def test_count_identity_rows_counts_duplicates_once():
    M = matrix_of([[1, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert count_identity_rows(M, (0, 1, 2)) == 2


@given(matrices_with_subsets())
def test_count_identity_rows_bounded_by_subset_size(case):
    M, S = case
    if S:
        assert 0 <= count_identity_rows(M, S) <= len(S)


# --- selector predicates ---

def test_identity_is_a_perfect_selector():
    for p in (1, 2, 3, 4):
        assert is_selector(BitMatrix.identity(4), p, p)


def test_zero_matrix_is_no_selector():
    M = matrix_of([[0] * 4] * 3)
    assert not is_selector(M, 2, 1)


def test_selector_validates_parameters():
    with pytest.raises(InputError):
        is_selector(BitMatrix.identity(3), 4, 1)
    with pytest.raises(InputError):
        is_selector(BitMatrix.identity(3), 2, 3)


@given(matrices(), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=50)
def test_selector_is_monotone_in_k(M, p, k):
    if p > M.n or k > p:
        return
    if is_selector(M, p, k):
        for weaker in range(1, k):
            assert is_selector(M, p, weaker)


def test_superselector_identity_example():
    assert is_superselector(BitMatrix.identity(3),
                            SuperSelectorSpec(3, 2, (1, 2)))


def test_superselector_vacuous_spec_accepts_anything():
    M = matrix_of([[0, 0, 0]])
    assert is_superselector(M, SuperSelectorSpec(3, 2, (0, 0)))


def test_superselector_zero_matrix_fails_any_constraint():
    M = matrix_of([[0] * 3] * 2)
    assert not is_superselector(M, SuperSelectorSpec(3, 2, (0, 1)))


def test_superselector_rejects_width_mismatch():
    with pytest.raises(InputError):
        is_superselector(BitMatrix.identity(3), SuperSelectorSpec(4, 1, (1,)))


def test_spec_validation():
    with pytest.raises(InputError):
        SuperSelectorSpec(3, 4, (1, 1, 1, 1))     # p > n
    with pytest.raises(InputError):
        SuperSelectorSpec(4, 2, (2, 2))           # v_1 > 1
    with pytest.raises(InputError):
        SuperSelectorSpec(4, 2, (1,))             # wrong length
    assert selector_spec(3, 2, 5).v == (0, 0, 2)


# --- list-disjunct ---

def test_identity_is_list_disjunct():
    assert is_list_disjunct(BitMatrix.identity(4), 1, 1)


def test_zero_matrix_is_not_list_disjunct():
    M = matrix_of([[0] * 4] * 2)
    assert not is_list_disjunct(M, 1, 1)


def test_selector_implies_list_disjunct_exhaustively():
    # Over a pool of random matrices: whenever the (d+l, d+1) selector
    # property holds, the (d, l)-list-disjunct property must follow.
    pool = [BitMatrix.identity(8)] + \
        [random_matrix(10, 8, seed=s, density=0.35) for s in range(6)]
    pairs = [(d, l) for d in (1, 2, 3) for l in (1, 2, 3) if d + l <= 4]
    implications = 0
    for M in pool:
        for d, l in pairs:
            if is_selector(M, d + l, d + 1):
                assert is_list_disjunct(M, d, l)
                implications += 1
    assert implications > 0


# --- budget guard ---

def test_brute_force_refuses_oversized_enumeration():
    M = random_matrix(4, 30, seed=3)
    with pytest.raises(BudgetError):
        is_selector(M, 15, 2, budget=1000)


def test_list_disjunct_budget_counts_d_sets():
    # C(40, 3) = 9,880 d-sets, although the (S, T) pairs number about
    # 2.3e10; each d-set costs one scan of the rows.
    assert is_list_disjunct(BitMatrix.identity(40), 3, 6)


def test_list_disjunct_refuses_too_many_d_sets():
    with pytest.raises(BudgetError):
        is_list_disjunct(BitMatrix.identity(10), 2, 1, budget=44)


# --- matrix behaviors ---

def test_entry_column_row_consistency():
    M = random_matrix(6, 9, seed=11)
    for c in range(M.n):
        col = M.column(c)
        for r in range(M.m):
            assert col[r] == M.entry(r, c)


def test_every_public_name_resolves():
    import superselect

    namespace = {}
    # A name in __all__ that the package lacks raises AttributeError here.
    exec("from superselect import *", namespace)
    assert set(superselect.__all__) <= set(namespace)
    for gone in ("construct_stacked", "split_level"):
        assert gone not in superselect.__all__ and not hasattr(superselect, gone)


# --- text formats ---


@pytest.mark.parametrize("token", ["1_0", "\u0661", "\u00b2", "+1", "1.0", "-"],
                         ids=["underscore", "arabic-indic-one", "superscript-two",
                              "plus", "decimal-point", "bare-minus"])
def test_integer_fields_take_ascii_digits_only(token):
    # int() or str.isdigit would take some of these; every integer field
    # of the three formats rejects them all.
    with pytest.raises(ParseError) as exc:
        parse_vector(f"3\n{token}\n", source="v.txt")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_spec(f"2 2\n1 {token}\n", source="s.txt")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_spec(f"{token} 2\n1 2\n", source="s.txt")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_matrix(f"1 {token}\n0\n", source="m.txt")
    assert exc.value.line == 1


def test_negative_values_keep_their_messages():
    with pytest.raises(ParseError, match="v.txt:1: vector entries must be nonnegative"):
        parse_vector("-3\n", source="v.txt")
    with pytest.raises(ParseError, match=r"s.txt:2: v_1=-1 outside \[0, 1\]"):
        parse_spec("2 2\n-1 2\n", source="s.txt")
    assert parse_vector(" 10 \n0\n") == (10, 0)
    assert parse_spec("3 2\n1 2\n") == SuperSelectorSpec(3, 2, (1, 2))
