import gc
import itertools
import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superselect import derand_threshold, sample_random_matrix
from superselect.core import (
    BitMatrix,
    BudgetError,
    InputError,
    ParseError,
    SuperSelectorSpec,
    _subset_counts,
    arithmetic_sum,
    boolean_sum,
    format_matrix,
    identify,
    is_list_disjunct,
    is_superselector,
    parse_matrix,
    parse_spec,
    parse_vector,
    row_mask,
    rows_hit,
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


@given(matrices_with_subsets())
def test_rows_hit_is_the_mask_of_rows_the_columns_hit(case):
    M, S = case
    # The rows with a positive arithmetic sum, found from the rows.
    assert rows_hit(M.cols, S) == row_mask(arithmetic_sum(M, S))


@pytest.mark.parametrize("empty", [(), [], b"", ""])
def test_row_mask_of_an_empty_sequence_is_zero(empty):
    # int(b"", 2) used to raise ValueError here; the checked mode already
    # gave 0.
    assert row_mask(empty) == 0
    assert row_mask(empty, "word") == 0


@st.composite
def subset_count_pairs(draw):
    n = draw(st.integers(0, 80))
    js = draw(st.lists(st.integers(0, n), max_size=10))
    return n, [(j, draw(st.integers(0, j))) for j in js]


@given(subset_count_pairs())
def test_subset_counts_are_exact_in_any_order(case):
    n, pairs = case
    assert list(_subset_counts(n, pairs)) == [comb(n, j) * comb(j, r)
                                              for j, r in pairs]


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

def _covered(x, y):
    """x <= y componentwise."""
    assert len(x) == len(y)
    return all(a <= b for a, b in zip(x, y))


def covered_columns(M, a):
    """The columns whose every 1 sits in a row where a is nonzero."""
    return identify(M.cols, row_mask(a))[1]


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
    assert _covered(boolean_sum(M, S), boolean_sum(M, T))


@given(matrices_with_subsets())
def test_covered_columns_exactly_match_definition(case):
    M, S = case
    a = boolean_sum(M, S)
    cov = covered_columns(M, a)
    for c in range(M.n):
        expected = _covered([M.entry(r, c) for r in range(M.m)], a)
        assert (c in cov) == expected
    assert set(S) <= set(cov)


# --- selector predicates ---

def test_identity_is_a_perfect_selector():
    for p in (1, 2, 3, 4):
        assert is_superselector(BitMatrix.identity(4), selector_spec(p, p, 4))


def test_zero_matrix_is_no_selector():
    M = matrix_of([[0] * 4] * 3)
    assert not is_superselector(M, selector_spec(2, 1, M.n))


def test_selector_validates_parameters():
    with pytest.raises(InputError):
        selector_spec(4, 1, 3)                    # p > n
    with pytest.raises(InputError):
        selector_spec(2, 3, 3)                    # k > p


@given(matrices(), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=50)
def test_selector_is_monotone_in_k(M, p, k):
    if p > M.n or k > p:
        return
    if is_superselector(M, selector_spec(p, k, M.n)):
        for weaker in range(1, k):
            assert is_superselector(M, selector_spec(p, weaker, M.n))


def test_superselector_identity_example():
    assert is_superselector(BitMatrix.identity(3),
                            SuperSelectorSpec(3, 2, (1, 2)))


def test_superselector_vacuous_spec_accepts_anything():
    M = matrix_of([[0, 0, 0]])
    assert is_superselector(M, SuperSelectorSpec(3, 2, (0, 0)))


def test_superselector_zero_matrix_fails_any_constraint():
    M = matrix_of([[0] * 3] * 2)
    assert not is_superselector(M, SuperSelectorSpec(3, 2, (0, 1)))


@pytest.mark.parametrize("m", [1, 3, 9])
def test_zero_matrix_fails_every_constrained_spec(m):
    # The pair kernel keeps row 0 of an all-zero matrix, and its walk
    # fails the first prefix of every level j >= 3.
    for n in range(3, 7):
        M = BitMatrix.zeros(m, n)
        for p in range(1, min(n, 4) + 1):
            for v in itertools.product(*[range(i + 1) for i in range(1, p + 1)]):
                spec = SuperSelectorSpec(n, p, v)
                assert is_superselector(M, spec) == (not spec.levels())


@pytest.mark.parametrize("spec", [SuperSelectorSpec(64, 3, (1, 2, 2)),
                                  SuperSelectorSpec(12, 4, (1, 2, 2, 3)),
                                  SuperSelectorSpec(12, 6, (1, 1, 2, 4, 5, 6))], ids=str)
def test_verifiers_leave_no_reference_cycles(spec):
    # With the cyclic collector off, a verifier call must leave nothing
    # for it: the per-call pair tables are freed when the call returns,
    # and so is the row-cover search of the v_6 = 6 level.
    M = sample_random_matrix(derand_threshold(spec), spec.n, spec.p, 3)
    gc.collect()
    gc.disable()
    try:
        is_superselector(M, spec)
        is_superselector(M, selector_spec(spec.p, spec.v[-1], M.n))
        is_superselector(M, selector_spec(2, 1, M.n))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pair_kernel_memory_is_quadratic_in_n():
    # A passing level-2 check at n = 600 peaks at about 9 MB, the per-row
    # pair bitsets. A tail mask of up to n² bits kept per start column
    # (n³ bits in all) took it to 37.5 MB.
    spec = SuperSelectorSpec(600, 2, (1, 2))
    M = sample_random_matrix(derand_threshold(spec) + 12, spec.n, spec.p, 1)
    M.cols
    gc.collect()
    tracemalloc.start()
    try:
        assert is_superselector(M, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


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
    # Whole numbers only: no float or string is rounded or parsed.
    for n, p, v in [(4, 2, (1.9, '2')), (4.0, 2, (1, 2)), (4, 2.0, (1, 2)),
                    (4, 2, (1, '2'))]:
        with pytest.raises(InputError):
            SuperSelectorSpec(n, p, v)
    assert selector_spec(3, 2, 5).v == (0, 0, 2)


# --- list-disjunct ---

def test_identity_is_list_disjunct():
    assert is_list_disjunct(BitMatrix.identity(4), 1, 1)


def test_list_disjunct_validates_parameters():
    for d, l in [(0, 1), (1, 0), (3, 2)]:  # d < 1, l < 1, d + l > n
        with pytest.raises(InputError):
            is_list_disjunct(BitMatrix.identity(4), d, l)


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
            if is_superselector(M, selector_spec(d + l, d + 1, M.n)):
                assert is_list_disjunct(M, d, l)
                implications += 1
    assert implications > 0


# --- budget guard ---

def test_brute_force_refuses_oversized_enumeration():
    M = random_matrix(4, 30, seed=3)
    with pytest.raises(BudgetError):
        is_superselector(M, selector_spec(15, 2, M.n), budget=1000)


def test_list_disjunct_budget_counts_d_sets():
    # C(40, 3) = 9,880 d-sets, although the (S, T) pairs number about
    # 2.3e10; each d-set costs one scan of the rows.
    assert is_list_disjunct(BitMatrix.identity(40), 3, 6)


def test_list_disjunct_refuses_too_many_d_sets():
    with pytest.raises(BudgetError):
        is_list_disjunct(BitMatrix.identity(10), 2, 1, budget=44)


# --- matrix behaviors ---

def _frozen_from_entries(entries):
    # The entry-by-entry builder the row-at-a-time one replaced: one
    # big-int OR per entry, O(n²) word work per row.
    if not entries:
        raise InputError("matrix dimensions must be positive")
    n = len(entries[0])
    rows = []
    for row in entries:
        if len(row) != n:
            raise InputError("ragged rows")
        bits = 0
        for c, e in enumerate(row):
            if e not in (0, 1):
                raise InputError(f"entry {e!r} is not a bit")
            bits |= e << c
        rows.append(bits)
    return BitMatrix(n, rows)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 1000])
def test_from_entries_matches_frozen_entrywise_builder(n):
    rng = random.Random(n)
    for density in (0.0, 0.3, 1.0):
        entries = [[int(rng.random() < density) for _ in range(n)]
                   for _ in range(4)]
        frozen = _frozen_from_entries(entries)
        assert matrix_of(entries) == frozen
        assert matrix_of([tuple(row) for row in entries]) == frozen


@pytest.mark.parametrize("entries, message", [
    ([], "matrix dimensions must be positive"),
    ([[]], "matrix dimensions must be positive"),
    ([[0, 1], [1]], "ragged rows"),
    ([[0, 2]], "row 0 entry 1 is 2, not a bit"),
    ([[1, -1]], "row 0 entry 1 is -1, not a bit"),
    ([["1", 0]], "row 0 entry 0 is '1', not a bit"),
    ([[None]], "row 0 entry 0 is None, not a bit"),
    ([[0.5]], "row 0 entry 0 is 0.5, not a bit"),
], ids=["empty", "no-columns", "ragged", "two", "minus-one", "string", "none", "half"])
def test_from_entries_keeps_its_input_errors(entries, message):
    # The frozen builder refuses the same inputs; a bit check is now
    # row_mask's, so its message names the row and the entry's index.
    with pytest.raises(InputError) as new:
        matrix_of(entries)
    with pytest.raises(InputError):
        _frozen_from_entries(entries)
    assert str(new.value) == message


def test_from_entries_reads_entries_equal_to_a_bit_as_that_bit():
    # 1.0, 0.0 and True pass the "in (0, 1)" check; the entrywise builder
    # then failed on `1.0 << c` with a TypeError. They are bits.
    assert matrix_of([[1.0, 0.0, True, False]]).rows == (0b0101,)


def test_from_entries_refuses_an_unhashable_entry_as_not_a_bit():
    # An entry that cannot be hashed is compared, not looked up in a set.
    with pytest.raises(InputError, match=r"^row 1 entry 0 is \[1\], not a bit$"):
        matrix_of([[0], [[1]]])


def test_entry_column_row_consistency():
    M = random_matrix(6, 9, seed=11)
    for c in range(M.n):
        for r in range(M.m):
            assert M.cols[c] >> r & 1 == M.entry(r, c)


@pytest.mark.parametrize("r, c", [(6, 0), (0, 9), (-1, 0), (0, -1)])
def test_entry_out_of_range_is_refused(r, c):
    with pytest.raises(InputError, match=rf"^entry \({r},{c}\) out of range$"):
        random_matrix(6, 9, seed=11).entry(r, c)


@pytest.mark.parametrize("row", [8, 9, -1])
def test_row_too_wide_for_n_is_refused(row):
    with pytest.raises(InputError, match="^row 1 does not fit in 3 columns$"):
        BitMatrix(3, [1, row])


def test_parsed_and_built_matrices_are_equal_with_one_hash():
    M = random_matrix(5, 7, seed=4)
    parsed = parse_matrix(format_matrix(M))
    assert parsed == M and M == parsed
    assert hash(parsed) == hash(M)
    assert parsed != BitMatrix.identity(7)
    assert repr(parsed) == repr(M) == "BitMatrix(m=5, n=7)"


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


def test_spec_refuses_trailing_content():
    # Like a matrix, a spec ends at its last line: a second v line is an
    # error, not ignored, so two different files cannot read as one spec.
    with pytest.raises(ParseError, match="s.txt:3: trailing content after spec"):
        parse_spec("12 3\n1 2 2\n4 5 6\n", source="s.txt")
    with pytest.raises(ParseError, match="s.txt:5: trailing content after spec"):
        parse_spec("12 3\n1 2 2\n\n \nx", source="s.txt")
    # A bad line 2 is reported first, as a bad row is before a matrix's tail.
    with pytest.raises(ParseError, match=r"s.txt:2: v_1=2 outside \[0, 1\]"):
        parse_spec("12 3\n2 2 2\n4 5 6\n", source="s.txt")
    spec = SuperSelectorSpec(12, 3, (1, 2, 2))
    assert parse_spec("12 3\r\n1 2 2\r\n\r\n \n\n") == spec
    assert parse_spec("12 3\n1 2 2") == spec
