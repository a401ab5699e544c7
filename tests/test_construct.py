"""Tests for the randomized and deterministic constructions."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superselect import (
    BudgetError,
    ConstructionFailure,
    DerandState,
    FTable,
    InputError,
    PrecisionFault,
    SampleDistribution,
    SuperSelectorSpec,
    construct_derandomized,
    construct_randomized,
    derand_threshold,
    is_superselector,
    sample_random_matrix,
)


# ---------------------------------------------------------------- f-table


def test_f_table_boundaries():
    tab = FTable(5, 3, 3, SampleDistribution(3))
    assert tab.f(0, 0, 0) == 1.0
    assert tab.f(4, 0, 2) == 1.0
    assert tab.f(2, 3, 3) == 0.0  # more patterns than rows
    assert tab.f(4, 3, 2) == 0.0  # more patterns than columns
    assert tab.f(5, -1, 1) == 1.0


def test_f_table_single_step_is_alpha():
    tab = FTable(3, 2, 2, SampleDistribution(2))
    alpha = tab.distribution.alpha
    assert tab.f(1, 1, 1) == pytest.approx(alpha)
    assert tab.f(1, 1, 2) == pytest.approx(2 * alpha)


def test_f_table_recurrence_residual():
    tab = FTable(8, 4, 4, SampleDistribution(4))
    alpha = tab.distribution.alpha
    for a in range(1, 9):
        for b in range(1, 5):
            for c in range(b, 5):
                step = (1 - alpha * c) * tab.f(a - 1, b, c) \
                    + alpha * c * tab.f(a - 1, b - 1, c - 1)
                assert tab.f(a, b, c) == pytest.approx(step, abs=1e-12)


def test_f_table_monotonicity():
    tab = FTable(10, 3, 3, SampleDistribution(3))
    for b in range(1, 4):
        for c in range(b, 4):
            for a in range(1, 11):
                assert tab.f(a, b, c) >= tab.f(a - 1, b, c) - 1e-12
    for a in range(11):
        for c in range(4):
            for b in range(1, 4):
                assert tab.f(a, b, c) <= tab.f(a, b - 1, max(0, c - 1)) + 1e-12


def test_f_table_range_checks():
    tab = FTable(4, 3, 2, SampleDistribution(3))
    with pytest.raises(InputError):
        tab.f(5, 1, 2)
    with pytest.raises(InputError):
        tab.f(2, 1, 4)
    with pytest.raises(InputError):
        tab.f(2, 3, 3)
    with pytest.raises(InputError):
        FTable(3, 2, 5, SampleDistribution(2))


def test_f_table_against_simulation():
    # Count distinct designated unit rows among a = 6 samples of width 3.
    width, a, samples = 3, 6, 100_000
    tab = FTable(a, width, width, SampleDistribution(width))
    x = tab.distribution.x
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
        est = count / samples
        want = tab.f(a, b, c)
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
    """A copy of `state` with its next entry fixed to `bit`; its `xcur`
    holds each subset's probability conditioned on that bit."""
    trial = copy.deepcopy(state)
    trial.step(bit)
    return trial


def _index(state, *S):
    """Position of the subset S in the state, found by its column mask."""
    return state._mask.index(sum(1 << c for c in S))


def _greedy_trace(state):
    """Run the greedy fill to the end; the expectation after every entry."""
    trace = [state.expectation]
    while state.r < state.m:
        state.step()
        trace.append(state.expectation)
    return trace


def test_conditional_satisfied_subset_is_certain():
    spec = SuperSelectorSpec(2, 2, (1, 2))
    state = DerandState(spec)
    state.step(1)
    state.step(0)
    # Row [1, 0] realizes the singleton {0} and one unit row of the pair.
    i = _index(state, 0)
    assert state.xcur[i] == 1.0
    for bit in (0, 1):
        assert _forced(state, bit).xcur[i] == 1.0


def test_conditional_dead_row_ignores_bit():
    spec = SuperSelectorSpec(3, 3, (0, 0, 1))
    state = DerandState(spec)
    state.step(1)
    state.step(1)
    # Two ones in the row over S: it can no longer be a unit row.
    i = _index(state, 0, 1, 2)
    rem = state.m - 1
    stuck = state._tables[3].f(rem, 1, 3)
    assert state.xcur[i] == pytest.approx(stuck)
    for bit in (0, 1):
        assert _forced(state, bit).xcur[i] == pytest.approx(stuck)


def test_conditional_last_singleton_column():
    spec = SuperSelectorSpec(2, 2, (1, 0))
    state = DerandState(spec)
    rem = state.m - 1
    i = _index(state, 0)
    assert _forced(state, 1).xcur[i] == 1.0
    assert _forced(state, 0).xcur[i] == pytest.approx(1 - 0.5 ** rem)


def test_conditional_matches_step_totals():
    # The conditional sums of both bits, read off forced copies, must
    # reproduce the greedy choice and the incremental expectation.
    spec = SuperSelectorSpec(6, 2, (1, 2))
    state = DerandState(spec)
    for _ in range(3 * spec.n):
        totals = [sum(_forced(state, bit).xcur) for bit in (0, 1)]
        bit = state.step()
        assert state.expectation == pytest.approx(totals[bit], rel=1e-12)
        assert state.expectation == pytest.approx(sum(state.xcur), rel=1e-12)
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
    # The tightest corpus spec starts only 1.9e-4 above #subsets - 1; the
    # proof's invariant must hold after every entry, not just on average.
    spec = SuperSelectorSpec(12, 6, (1, 1, 2, 4, 5, 6))
    state = DerandState(spec)
    assert 0 < state.expectation - (state.ns - 1) < 1e-3
    trace = _greedy_trace(state)
    assert len(trace) == state.m * spec.n + 1
    assert all(value > state.ns - 1 for value in trace)


def _near_floor_before_a_one():
    # Advance greedily to an entry where bit 1 is clearly better, then
    # put the expectation just above #subsets - 1.
    spec = SuperSelectorSpec(6, 2, (1, 2))
    state = DerandState(spec)
    while True:
        totals = [sum(_forced(state, bit).xcur) for bit in (0, 1)]
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


def test_derandomized_budget_guard():
    spec = SuperSelectorSpec(12, 3, (1, 2, 3))
    with pytest.raises(BudgetError):
        construct_derandomized(spec, budget=10)


def test_derandomized_budget_charges_the_index_work():
    # The fill makes m * (200 + 2*C(200, 2)) = 1,480,000 subset
    # evaluations at m = 37, well under the default budget; the scan's
    # m * n * #subsets would have been 148,740,000.
    spec = SuperSelectorSpec(200, 2, (1, 2))
    M = construct_derandomized(spec)
    assert M.m == derand_threshold(spec) == 37
    assert is_superselector(M, spec)


def test_step_past_completion_fails():
    spec = SuperSelectorSpec(2, 1, (1,))
    state = DerandState(spec)
    state.run()
    with pytest.raises(InputError):
        state.step()
