"""Tests for the randomized and deterministic constructions."""

from __future__ import annotations

import copy
import gc
import hashlib
import itertools
import random
import re
import tracemalloc
from fractions import Fraction
from math import comb, ulp

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fill_probe import code_of, codes, current, masks, work, xcur
from superselect import (
    DEFAULT_SUBSET_BUDGET,
    BudgetError,
    ConstructionFailure,
    DerandState,
    InputError,
    PrecisionFault,
    SuperSelectorSpec,
    construct_derandomized,
    construct_randomized,
    derand_threshold,
    fill_spec,
    format_matrix,
    is_superselector,
    sample_random_matrix,
    selector_spec,
)
from superselect import construct
from superselect.construct import success_table
from superselect.sizing import level_alpha
from test_acceptance import SUITE
from test_fill_kernel_reference import _drawn_spec, _random_bits
from test_fill_reference import APP_SPECS, CORPUS_DIGESTS


# ---------------------------------------------------------------- f-table


def _f_table(m: int, j: int, vj: int) -> tuple:
    """The level-j table of a width-j matrix, with its alpha, and a
    reader f(a, b, c) for the points on its diagonal c - b = j - vj."""
    alpha = level_alpha(j, j)
    tab = success_table(m, j, vj, alpha)

    def f(a, b, c):
        assert c - b == j - vj
        return tab[a][b]
    return tab, alpha, f


def test_f_table_boundaries():
    _, _, f = _f_table(5, 3, 3)
    assert f(0, 0, 0) == 1.0
    assert f(4, 0, 0) == 1.0
    assert f(2, 3, 3) == 0.0  # more patterns than rows
    _, _, f = _f_table(5, 3, 2)
    assert f(4, 0, 1) == 1.0
    assert f(1, 2, 3) == 0.0  # more patterns than rows


def test_f_table_single_step_is_alpha():
    _, alpha, f = _f_table(3, 2, 2)
    assert f(1, 1, 1) == pytest.approx(alpha)
    _, alpha, f = _f_table(3, 2, 1)
    assert f(1, 1, 2) == pytest.approx(2 * alpha)


def test_f_table_recurrence_residual():
    for vj in range(1, 5):
        tab, alpha, _ = _f_table(8, 4, vj)
        for a in range(1, 9):
            for b in range(1, vj + 1):
                c = b + 4 - vj
                step = (1 - alpha * c) * tab[a - 1][b] \
                    + alpha * c * tab[a - 1][b - 1]
                assert tab[a][b] == pytest.approx(step, abs=1e-12)


def test_f_table_monotonicity():
    for vj in range(1, 4):
        tab, _, _ = _f_table(10, 3, vj)
        for a in range(1, 11):
            for b in range(1, vj + 1):
                assert tab[a][b] >= tab[a - 1][b] - 1e-12
                assert tab[a][b] <= tab[a][b - 1] + 1e-12


def test_f_table_range_checks():
    # One row per row count a <= m, one entry per need b <= v_j: the
    # table holds (m+1)*(v_j+1) values, not (m+1)*(v_j+1)*(j+1).
    tab, _, _ = _f_table(4, 3, 2)
    assert len(tab) == 5
    assert all(len(row) == 3 for row in tab)
    with pytest.raises(IndexError):
        tab[2][3]


def test_f_table_against_simulation():
    # Count distinct designated unit rows among a = 6 samples of width 3.
    width, a, samples = 3, 6, 100_000
    x = (width - 1) / width
    rng = random.Random(1009)
    hits = {(1, 2): 0, (2, 3): 0, (1, 1): 0}
    for _ in range(samples):
        seen = set()
        for _ in range(a):
            row = tuple(0 if rng.random() < x else 1 for _ in range(width))
            if sum(row) == 1:
                seen.add(row.index(1))
        for b, c in hits:
            if len(seen & set(range(c))) >= b:
                hits[(b, c)] += 1
    for (b, c), count in hits.items():
        # (b, c) lies on the diagonal of level width with v = width - c + b.
        _, _, f = _f_table(a, width, width - c + b)
        est = count / samples
        want = f(a, b, c)
        sigma = (want * (1 - want) / samples) ** 0.5
        assert abs(est - want) <= 3.5 * sigma + 1e-9


# ------------------------------------------------------- random sampling


def test_sample_all_ones_when_p_is_one():
    M = sample_random_matrix(4, 6, 1, seed=7)
    assert all(M.entry(r, c) == 1 for r in range(4) for c in range(6))


def test_sample_is_deterministic_in_seed():
    a = sample_random_matrix(8, 10, 3, seed=5)
    b = sample_random_matrix(8, 10, 3, seed=5)
    c = sample_random_matrix(8, 10, 3, seed=6)
    assert a.rows == b.rows
    assert a.rows != c.rows


def _frozen_sample_rows(m, n, p, seed):
    # The entry-by-entry sampler the row-at-a-time one replaced: the
    # same draws, one big-int OR per 1.
    x = (p - 1) / p
    rng = random.Random(seed)
    rows = []
    for _ in range(m):
        bits = 0
        for c in range(n):
            if rng.random() >= x:
                bits |= 1 << c
        rows.append(bits)
    return tuple(rows)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 1000])
def test_sample_matches_frozen_entrywise_sampler(n):
    for p in (1, 2, 3, 7):
        for seed in (0, 1, 2010):
            M = sample_random_matrix(5, n, p, seed)
            assert M.rows == _frozen_sample_rows(5, n, p, seed), (p, seed)


def test_sample_zero_fraction():
    M = sample_random_matrix(1000, 100, 4, seed=11)
    zeros = sum(1 for r in range(1000) for c in range(100)
                if M.entry(r, c) == 0)
    mean = 100_000 * 0.75
    sigma = (100_000 * 0.75 * 0.25) ** 0.5
    assert abs(zeros - mean) <= 4 * sigma


def test_sample_rejects_bad_shapes():
    with pytest.raises(InputError):
        sample_random_matrix(0, 4, 2, seed=0)
    with pytest.raises(InputError):
        sample_random_matrix(4, 0, 2, seed=0)
    with pytest.raises(InputError):
        sample_random_matrix(4, 4, 0, seed=0)


# -------------------------------------------------- randomized construction


def test_randomized_trivial_level_one():
    spec = SuperSelectorSpec(3, 1, (1,))
    M, attempts = construct_randomized(spec, seed=0)
    assert attempts == 1
    assert is_superselector(M, spec)


def test_randomized_two_level():
    spec = SuperSelectorSpec(10, 2, (1, 2))
    M, attempts = construct_randomized(spec, seed=42)
    assert M.m == derand_threshold(spec)
    assert attempts >= 1
    assert is_superselector(M, spec)


@pytest.mark.parametrize("spec", [
    SuperSelectorSpec(12, 6, (1, 1, 2, 4, 5, 6)),
    SuperSelectorSpec(20, 4, (1, 2, 2, 3)),
    SuperSelectorSpec(16, 3, (1, 2, 3)),
], ids=str)
def test_randomized_at_filled_threshold_passes_full_spec(spec):
    # The threshold counts only the levels fill_spec keeps; the sample
    # that is returned still passes every level of the spec.
    assert fill_spec(spec) != spec
    M, _ = construct_randomized(spec, seed=0)
    assert M.m == derand_threshold(spec) == derand_threshold(fill_spec(spec))
    assert is_superselector(M, spec)


def test_randomized_single_attempt_outcomes():
    # At the threshold a single sample passes for some seeds and not for
    # others; both branches are pinned.
    spec = SuperSelectorSpec(12, 2, (1, 2))
    M, attempts = construct_randomized(spec, seed=0, max_attempts=1)
    assert attempts == 1
    with pytest.raises(ConstructionFailure) as info:
        construct_randomized(spec, seed=1, max_attempts=1)
    assert info.value.attempts == 1
    with pytest.raises(InputError):
        construct_randomized(spec, seed=0, max_attempts=0)


def test_randomized_budget_guard_precedes_sampling(monkeypatch):
    import superselect.construct

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled an over-budget spec")

    monkeypatch.setattr(superselect.construct, "sample_random_matrix", no_sampling)
    with pytest.raises(BudgetError):
        construct_randomized(SuperSelectorSpec(200_000, 2, (1, 2)), seed=0)
    with pytest.raises(BudgetError):
        construct_randomized(SuperSelectorSpec(12, 3, (1, 2, 3)), seed=0, budget=10)


def test_randomized_retries_past_bad_seed():
    spec = SuperSelectorSpec(12, 2, (1, 2))
    M, attempts = construct_randomized(spec, seed=1, max_attempts=100)
    assert attempts > 1
    assert is_superselector(M, spec)


# ----------------------------------------------- conditional probabilities


def _forced(state, bit):
    """A copy of `state` with its next entry fixed to `bit`, from which
    `current`/`xcur` read each subset's probability given that bit."""
    trial = copy.deepcopy(state)
    trial.step(bit)
    return trial


def _index(state, *S):
    """Position of the subset S in the state, found by its column mask."""
    return masks(state).index(sum(1 << c for c in S))


def _greedy_trace(state):
    """Run the greedy fill to the end; the expectation after every entry."""
    trace = [state.expectation]
    while state.r < state.m:
        state.step()
        trace.append(state.expectation)
    return trace


def test_conditional_satisfied_subset_is_certain():
    # v_2 = 1 does not imply level 1, so the fill tracks the singletons.
    spec = SuperSelectorSpec(2, 2, (1, 1))
    state = DerandState(spec)
    state.step(1)
    state.step(0)
    # Row [1, 0] realizes the singleton {0} and one unit row of the pair.
    i = _index(state, 0)
    assert current(state, i) == 1.0
    for bit in (0, 1):
        assert current(_forced(state, bit), i) == 1.0


def test_conditional_dead_row_ignores_bit():
    spec = SuperSelectorSpec(3, 3, (0, 0, 1))
    state = DerandState(spec)
    state.step(1)
    state.step(1)
    # Two ones in the row over S: it can no longer be a unit row.
    i = _index(state, 0, 1, 2)
    rem = state.m - 1
    stuck = state._tables[3][rem][1]
    assert current(state, i) == pytest.approx(stuck)
    for bit in (0, 1):
        assert current(_forced(state, bit), i) == pytest.approx(stuck)


def test_conditional_last_singleton_column():
    spec = SuperSelectorSpec(2, 2, (1, 0))
    state = DerandState(spec)
    rem = state.m - 1
    i = _index(state, 0)
    assert current(_forced(state, 1), i) == 1.0
    assert current(_forced(state, 0), i) == pytest.approx(1 - 0.5 ** rem)


def test_conditional_matches_step_totals():
    # The conditional sums of both bits, read off forced copies, must
    # reproduce the greedy choice and the incremental expectation.
    spec = SuperSelectorSpec(6, 2, (1, 2))
    state = DerandState(spec)
    for _ in range(3 * spec.n):
        totals = [sum(xcur(_forced(state, bit))) for bit in (0, 1)]
        bit = state.step()
        assert state.expectation == pytest.approx(totals[bit], rel=1e-12)
        assert state.expectation == pytest.approx(sum(xcur(state)), rel=1e-12)
        assert totals[bit] >= totals[1 - bit] - 1e-9


# --------------------------------------------- deterministic construction


def test_derandomized_meets_threshold():
    spec = SuperSelectorSpec(6, 2, (1, 2))
    M = construct_derandomized(spec)
    assert M.m == derand_threshold(spec)
    assert M.n == 6
    assert is_superselector(M, spec)


def test_derandomized_trivial_spec_is_all_ones():
    M = construct_derandomized(SuperSelectorSpec(2, 1, (1,)))
    assert M.m == 1
    assert M.entry(0, 0) == 1 and M.entry(0, 1) == 1


def test_derandomized_relaxed_spec_is_smaller():
    full = construct_derandomized(SuperSelectorSpec(8, 2, (1, 2)))
    relaxed = construct_derandomized(SuperSelectorSpec(8, 2, (0, 1)))
    assert relaxed.m < full.m


def test_derandomized_is_deterministic():
    spec = SuperSelectorSpec(7, 2, (1, 2))
    assert construct_derandomized(spec).rows == construct_derandomized(spec).rows


def test_derandomized_expectation_never_drops():
    spec = SuperSelectorSpec(5, 2, (1, 2))
    state = DerandState(spec)
    trace = _greedy_trace(state)
    tol = 1e-9 * state.ns
    for before, after in zip(trace, trace[1:]):
        assert after >= before - tol
    assert state.expectation > state.ns - 1


def test_expectation_stays_above_invariant_on_tightest_spec():
    # The tightest corpus spec starts only 3.9e-3 above #subsets - 1; the
    # proof's invariant must hold after every entry, not just on average.
    spec = SuperSelectorSpec(8, 2, (1, 2))
    state = DerandState(spec)
    assert 0 < state.expectation - (state.ns - 1) < 5e-3
    trace = _greedy_trace(state)
    assert len(trace) == state.m * spec.n + 1
    assert all(value > state.ns - 1 for value in trace)


def _near_floor_before_a_one():
    # Advance greedily to an entry where bit 1 is clearly better, then
    # put the expectation just above #subsets - 1.
    spec = SuperSelectorSpec(6, 2, (1, 2))
    state = DerandState(spec)
    while True:
        totals = [sum(xcur(_forced(state, bit))) for bit in (0, 1)]
        if totals[1] > totals[0] + 1e-6:
            break
        state.step()
    state.expectation = state.ns - 1 + 1e-12
    return state


def test_greedy_step_below_invariant_raises():
    state = _near_floor_before_a_one()
    # An unbounded tie slack makes the greedy choice take the losing bit,
    # as a float overturn of the comparison would.
    state._tie_tol = float("inf")
    position = (state.r, state.c)
    with pytest.raises(PrecisionFault):
        state.step()
    assert (state.r, state.c) == position


def test_forced_step_is_exempt_from_invariant():
    state = _near_floor_before_a_one()
    assert state.step(0) == 0
    assert state.expectation <= state.ns - 1


def test_greedy_step_after_a_forced_one_below_invariant_raises():
    # The check judges the value a greedy entry leaves, not a crossing:
    # an entry that starts at or below #subsets - 1 is no excuse. Find an
    # entry where forcing the losing bit costs more than the next greedy
    # entry gains, start it between the two above the floor, and force.
    state = DerandState(SuperSelectorSpec(6, 2, (1, 2)))
    while True:
        losing = 1 - copy.deepcopy(state).step()
        forced = _forced(state, losing)
        loss = state.expectation - forced.expectation
        gain = _forced(forced, None).expectation - forced.expectation
        if loss > gain + 1e-6:
            break
        state.step()
    state.expectation = state.ns - 1 + (loss - gain) / 2
    state.step(losing)
    assert state.expectation <= state.ns - 1
    position = (state.r, state.c)
    with pytest.raises(PrecisionFault, match=r"greedy entry \(\d+,\d+\) leaves"):
        state.step()
    assert (state.r, state.c) == position


def _starts_at_floor(spec, budget=DEFAULT_SUBSET_BUDGET):
    state = DerandState(spec, budget)
    state.expectation = state.ns - 1
    return state


def test_first_greedy_entry_judges_the_start():
    state = _starts_at_floor(SuperSelectorSpec(6, 2, (1, 2)))
    with pytest.raises(PrecisionFault):
        state.run()
    assert (state.r, state.c) == (0, 0)


def test_derandomized_refuses_a_matrix_the_final_check_fails(monkeypatch):
    monkeypatch.setattr(construct, "is_superselector", lambda M, spec, budget: False)
    with pytest.raises(PrecisionFault, match="^verification failed on the finished matrix$"):
        construct_derandomized(SuperSelectorSpec(6, 2, (1, 2)))


def test_derandomized_start_at_floor_raises(monkeypatch):
    # construct_derandomized has no start check of its own: the fill's
    # first greedy entry refuses a start at #subsets - 1.
    monkeypatch.setattr(construct, "DerandState", _starts_at_floor)
    with pytest.raises(PrecisionFault, match=r"greedy entry \(0,0\)"):
        construct_derandomized(SuperSelectorSpec(6, 2, (1, 2)))


@pytest.mark.parametrize("spec", [*CORPUS_DIGESTS, SuperSelectorSpec(64, 3, (1, 2, 2))],
                         ids=str)
def test_start_expectation_is_exact_to_a_few_ulps(spec):
    # One product per level: at most one rounding per level for the
    # product and one for the sum, against the exact sum_j C(n,j) f_j.
    state = DerandState(spec)
    levels = state.spec.levels()
    exact = sum(Fraction(state._tables[j][state.m][state.spec.v[j - 1]]) * comb(spec.n, j)
                for j in levels)
    assert abs(Fraction(state.expectation) - exact) <= len(levels) * ulp(state.ns)


def test_derandomized_heavier_spec():
    spec = SuperSelectorSpec(9, 3, (1, 2, 2))
    M = construct_derandomized(spec)
    assert is_superselector(M, spec)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(4, 9), data=st.data())
def test_derandomized_random_small_specs(n, data):
    p = data.draw(st.integers(1, min(3, n - 1)))
    v = tuple(
        data.draw(st.integers(0, j), label=f"v_{j}") for j in range(1, p + 1)
    )
    spec = SuperSelectorSpec(n, p, v)
    M = construct_derandomized(spec)
    assert M.m == derand_threshold(spec)
    assert is_superselector(M, spec)


def test_derandomized_sweep_passes_full_specs():
    # Every spec with p <= 4 and n <= 10, 635 of the 1,106 with implied
    # levels: the fill tracks only the levels fill_spec keeps, and each
    # matrix passes the full spec.
    reduced = 0
    for p in range(1, 5):
        for n in range(p, 11):
            for v in itertools.product(*(range(j + 1) for j in range(1, p + 1))):
                spec = SuperSelectorSpec(n, p, v)
                reduced += fill_spec(spec) != spec
                M = construct_derandomized(spec)
                assert M.m == derand_threshold(spec)
                assert is_superselector(M, spec), spec
    assert reduced == 635


def test_derandomized_budget_guard():
    spec = SuperSelectorSpec(12, 3, (1, 2, 3))
    with pytest.raises(BudgetError):
        construct_derandomized(spec, budget=10)


def test_derandomized_budget_charges_the_code_tables():
    # One level with m = 45: the index work is 45 * 16 = 720, but the
    # per-code tables hold 16 * sum_{a <= 9} C(16, a) = 810,288 entries
    # each, and the charge counts both before anything is allocated.
    spec = selector_spec(16, 9, 16)
    with pytest.raises(BudgetError, match="811008 fill evaluations and table entries "
                                          "exceed the budget of 100000; the derandomized fill"):
        construct_derandomized(spec, budget=100_000)


@pytest.mark.parametrize("spec, budget, message", [
    (SuperSelectorSpec(100, 3, (0, 0, 1)), 100_000,
     "485100 fill evaluations per row exceed the budget of 100000; "
     "the derandomized fill is desk scale only"),
    # The first level of the (2000, 1000) monotone chain: 2,000 levels,
    # with tables of sum_j sum_{a <= v_j} C(j, a) entries.
    (SuperSelectorSpec(2000, 2000, tuple(i // 2 + 1 for i in range(1, 2001))),
     DEFAULT_SUBSET_BUDGET, "at least 2^2008 fill evaluations per row exceed"),
], ids=["exact-count", "monotone-chain-level"])
def test_derandomized_budget_refuses_before_the_threshold(monkeypatch, spec,
                                                          budget, message):
    # A fill makes m >= 1 rows of sum_j j*C(n,j) evaluations each, so a
    # spec whose one row is over budget is refused before its threshold
    # (or its per-code table sizes) is computed.
    def threshold(spec):
        raise AssertionError("computed the threshold of an over-budget spec")

    monkeypatch.setattr(construct, "derand_threshold", threshold)
    with pytest.raises(BudgetError, match=re.escape(message)):
        construct_derandomized(spec, budget=budget)


def test_derandomized_budget_charges_the_index_work():
    # v_2 = 2 implies level 1, so the fill makes m * 2*C(200, 2) =
    # 1,472,600 subset evaluations at m = 37, well under the default
    # budget; the scan's m * n * #subsets would have been 147,260,000.
    spec = SuperSelectorSpec(200, 2, (1, 2))
    M = construct_derandomized(spec)
    assert M.m == derand_threshold(spec) == 37
    assert is_superselector(M, spec)


def _numbers_only_reached_codes(state):
    # After every entry the codes the fill has numbered are exactly the
    # codes some subset has held so far, the dead key aside; the kernel's
    # tables hold one entry per key (in _next a p-entry edge list per
    # code, None for the lone keys and the dead key), the per-code ones
    # one per code.
    dead = state._dead
    reached = set(state._code) - {dead}
    while state.r < state.m:
        assert set(codes(state)) == reached, (state.spec, state.r, state.c)
        state.step()
        reached.update(state._code)
        reached.discard(dead)
    assert set(codes(state)) == reached, state.spec
    keys, p = dead + 1 + len(reached), state.spec.p
    assert len(state._real[0]) == len(state._real[1]) == keys
    assert len(state._next) == keys
    assert state._next[:dead + 1] == [None] * (dead + 1)
    assert [len(e) for e in state._next[dead + 1:]] == [p] * len(reached)
    assert [len(t) for t in state._turn] == [keys] * p
    assert len(state._code_cls) == len(state._code_u) == len(reached)
    assert [len(w) for w in state._w] == [len(reached)] * p
    return reached


@pytest.mark.parametrize("p, k", [(22, 1), (20, 2)])
def test_code_tables_hold_only_reachable_codes(p, k):
    # A plain selector on its own p columns has one level, and its
    # unsatisfied codes are the patterns with fewer than k of p columns
    # realized: 1 and 21 here, not 2^p. The fill numbers only those it
    # reaches.
    spec = selector_spec(p, k, p)
    reached = _numbers_only_reached_codes(DerandState(spec))
    assert len(reached) <= sum(comb(p, a) for a in range(k))
    M = construct_derandomized(spec)
    assert M.m == derand_threshold(spec)
    assert is_superselector(M, spec)


@pytest.mark.parametrize("spec", SUITE + APP_SPECS, ids=str)
def test_fill_numbers_only_the_codes_it_reaches(spec):
    _numbers_only_reached_codes(DerandState(spec))


def _fill_resolving_edges(spec, replay=()):
    # A fill, greedy or forcing `replay`, with `_reach` wrapped: each
    # (code, column) edge reaches it at most once, since it writes the
    # edge, and every code but the start codes init numbers is numbered
    # there. Returns the rows.
    state = DerandState(spec)
    dead, reach = state._dead, state._reach
    start, taken, numbered = set(codes(state)), set(), set()

    def once(s, t):
        assert (s, t) not in taken, (spec, s, t)
        taken.add((s, t))
        before = len(state._code_cls)
        to = reach(s, t)
        numbered.update(range(dead + 1 + before, dead + 1 + len(state._code_cls)))
        assert to > dead and state._next[s][t] == to, (spec, s, t)
        return to

    state._reach = once
    if replay:
        for bit in replay:
            state.step(bit)
    else:
        state.run()
    assert set(codes(state)) == start | numbered, spec
    return state.rows


@settings(deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_drawn_spec_fill_resolves_each_edge_once(n, data):
    spec = _drawn_spec(n, data)
    plain = DerandState(spec)
    plain.run()
    assert _fill_resolving_edges(spec) == plain.rows, spec
    bits = _random_bits(spec, data.draw(st.integers(0, 2 ** 32)),
                        data.draw(st.sampled_from((0.1, 0.3, 0.5, 0.8))))
    plain = DerandState(spec)
    for bit in bits:
        plain.step(bit)
    assert _fill_resolving_edges(spec, bits) == plain.rows, spec


@pytest.mark.parametrize("spec", SUITE + APP_SPECS, ids=str)
def test_no_lone_key_of_column_zero_ever_occurs(spec):
    # Keys turn only in buckets q >= 1, so a lone key (t, class) always
    # has t >= 1: after every entry, greedy or of a sparse forced replay,
    # no key lies below K, the number of unsatisfied classes, and the
    # first block of lone keys, `_turn[0]` and every `_terms[0]`'s first
    # K entries go unread.
    for replay in ((), _random_bits(spec, 0, 1 / spec.p)):
        state = DerandState(spec)
        floor, replay = len(state._classes), iter(replay)
        while state.r < state.m:
            state.step(next(replay, None))
            assert min(state._key) >= floor, (spec, state.r, state.c)


def test_selector_16_9_16_builds_from_the_codes_it_reaches():
    # One tracked subset whose class space holds sum_{a <= 9} C(16, a) =
    # 50,643 codes, of which the fill reaches 9: it numbers no code of
    # the satisfied class. Tabulating them all took 64 MB at init;
    # numbering only those reached keeps init near 0.2 MB. The budget still charges the whole code space (see
    # test_derandomized_budget_charges_the_code_tables), and the default
    # budget admits it.
    spec = selector_spec(16, 9, 16)
    gc.collect()
    tracemalloc.start()
    try:
        DerandState(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    M = construct_derandomized(spec)
    assert M.m == 45
    assert hashlib.sha256(format_matrix(M).encode()).hexdigest()[:12] == "19fd565f1b36"


def test_fill_state_bytes_per_subset():
    # One per-column index of q-buckets and no per-subset column mask:
    # about 88 B per subset here; with the masks it took 127 B, and three
    # parallel lists per column (hits, after, ends) 170 B.
    spec = SuperSelectorSpec(20, 4, (1, 2, 2, 3))
    gc.collect()
    tracemalloc.start()
    try:
        state = DerandState(spec)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size / state.ns < 95
    # The start value is one product per level, not an ns-long list, so
    # init peaks at about the state it keeps (88 B per subset here).
    assert peak / state.ns < 95


def _frozen_hits(masks, n, p):
    # The per-bit index builder the combinations walk replaced: each
    # subset's columns read off its mask, lowest first, so the column
    # with q columns after it comes when q bits are left.
    hits = [[[] for _ in range(p)] for _ in range(n)]
    for i, mask in enumerate(masks):
        q = mask.bit_count()
        while mask:
            low = mask & -mask
            mask ^= low
            q -= 1
            hits[low.bit_length() - 1][q].append(i)
    return hits


@pytest.mark.parametrize("spec", SUITE + APP_SPECS, ids=str)
def test_index_matches_frozen_per_bit_builder(spec):
    state = DerandState(spec)
    assert state._hits == _frozen_hits(masks(state), spec.n, spec.p)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_index_matches_frozen_per_bit_builder_on_drawn_specs(n, data):
    p = data.draw(st.integers(1, min(6, n)))
    v = [data.draw(st.integers(0, j), label=f"v_{j}") for j in range(1, p + 1)]
    if not any(v):
        v[data.draw(st.integers(0, p - 1))] = 1
    state = DerandState(SuperSelectorSpec(n, p, tuple(v)))
    assert state._hits == _frozen_hits(masks(state), n, p)


@pytest.mark.parametrize("spec", SUITE + APP_SPECS, ids=str)
def test_rebuild_drops_every_satisfied_subset(spec):
    # A column is rebuilt by the rent-or-buy count, not on every visit;
    # when an entry at column c does rebuild _hits[c], no subset
    # satisfied before that entry may be left in it. The count's terms
    # stay within one scan: _unsat and the owed waste lie in 0 .. since[c].
    state = DerandState(spec)
    while state.r < state.m:
        c = state.c
        assert 0 <= state._unsat <= state._since[c], (spec, state.r, c)
        assert 0 <= state._owed[c] <= state._since[c], (spec, state.r, c)
        satisfied = {i for i, s in enumerate(state._code) if s == state._dead}
        old = state._hits[c]
        state.step()
        if state._hits[c] is not old:
            left = satisfied.intersection(i for b in state._hits[c] for i in b)
            assert not left, (spec, state.r, c, sorted(left))


def _listed_satisfied_are_inert(spec, replay=()):
    # Digests cannot see a satisfied subset left in the buckets, so check
    # at every visit that its key is the dead key, which adds 0.0 to d,
    # stays dead under a 1 and realizes nothing under either bit. Return
    # how many such visits there were. `replay` forces the first entries.
    state = DerandState(spec)
    dead, replay = state._dead, iter(replay)
    real0, real1 = state._real
    listed = 0
    while state.r < state.m:
        for q, b in enumerate(state._hits[state.c]):
            for i in b:
                if state._code[i] == dead:
                    k = state._key[i]
                    assert k == dead, (spec, i, k)
                    assert state._terms[q][k] == 0.0, (spec, i, k)
                    assert {turn[k] for turn in state._turn} == {dead}
                    assert real0[k] is None and real1[k] is None, (spec, i, k)
                    listed += 1
        state.step(next(replay, None))
    return listed


@pytest.mark.parametrize("spec", SUITE + APP_SPECS, ids=str)
def test_listed_satisfied_subsets_are_inert(spec):
    assert _listed_satisfied_are_inert(spec), spec


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_drawn_spec_listed_satisfied_subsets_are_inert(n, data):
    spec = _drawn_spec(n, data)
    _listed_satisfied_are_inert(spec)
    _listed_satisfied_are_inert(spec, _random_bits(
        spec, data.draw(st.integers(0, 2 ** 32)),
        data.draw(st.sampled_from((0.1, 0.3, 0.5, 0.8)))))


def _satisfied_hold_the_dead_key(spec, replay=()):
    # At every row end, counted from the rows and the subsets' masks: a
    # subset holds the dead key exactly when the rows so far give it v_j
    # distinct unit rows, and otherwise a code of class (j, that count)
    # whose alive pattern marks the columns no unit row has hit; _unsat
    # counts the subsets off the dead key, and no numbered code is of a
    # satisfied class. `replay` forces the first entries.
    state = DerandState(spec)
    v, dead, replay = state.spec.v, state._dead, iter(replay)
    cols = [[c for c in range(spec.n) if mask >> c & 1][::-1]
            for mask in masks(state)]
    unit = [0] * len(cols)
    while state.r < state.m:
        for _ in range(spec.n):
            state.step(next(replay, None))
        row = state.rows[-1]
        for i, S in enumerate(cols):
            hit = [c for c in S if row >> c & 1]
            if len(hit) == 1:
                unit[i] |= 1 << hit[0]
            got = unit[i].bit_count()
            if got >= v[len(S) - 1]:
                assert state._code[i] == dead, (spec, state.r, i)
                continue
            k, u = code_of(state, state._code[i])
            alive = sum(1 << t for t, c in enumerate(S) if not unit[i] >> c & 1)
            assert (state._classes[k], u) == ((len(S), got), alive), \
                (spec, state.r, i)
        assert state._unsat == len(cols) - state._code.count(dead), spec
        assert all(a < v[j - 1] for j, a in
                   (state._classes[k] for k, _ in codes(state).values())), spec


@pytest.mark.parametrize("spec", SUITE + APP_SPECS, ids=str)
def test_satisfied_subsets_hold_the_dead_key(spec):
    _satisfied_hold_the_dead_key(spec)
    _satisfied_hold_the_dead_key(spec, _random_bits(spec, 0, 1 / spec.p))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_drawn_spec_satisfied_subsets_hold_the_dead_key(n, data):
    spec = _drawn_spec(n, data)
    _satisfied_hold_the_dead_key(spec)
    _satisfied_hold_the_dead_key(spec, _random_bits(
        spec, data.draw(st.integers(0, 2 ** 32)),
        data.draw(st.sampled_from((0.1, 0.3, 0.5, 0.8)))))


def test_fill_work_on_the_corpus():
    # Evaluations plus rebuild scans over one corpus pass: 527,365 under
    # the rent-or-buy rebuild, 807,661 when every visit rebuilds,
    # 953,850 when nothing is ever rebuilt.
    totals = [work(DerandState(spec)) for spec in CORPUS_DIGESTS]
    assert sum(map(sum, totals)) <= 550_000, totals


def test_step_past_completion_fails():
    spec = SuperSelectorSpec(2, 1, (1,))
    state = DerandState(spec)
    state.run()
    with pytest.raises(InputError):
        state.step()
