from math import ceil, comb, e, exp, log, log2

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superselect.core import InputError, SuperSelectorSpec, selector_spec
from superselect.sizing import (
    LOG2_E,
    derand_threshold,
    fill_spec,
    level_alpha,
    selector_upper_bound,
    superselector_lower_bound,
    superselector_upper_bound,
)


# --- row hit probability ---

@given(st.integers(1, 64))
def test_alpha_matches_closed_form(p):
    x = (p - 1) / p
    for j in range(1, p + 1):
        assert abs(level_alpha(p, j) - x ** (j - 1) * (1 - x)) < 1e-12


# --- upper bounds ---

def test_upper_bound_full_strength_level_uses_quadratic_coefficient():
    # At v_p = p the linear branch 3pej/(j-v_j+1) = 3ep^2 always exceeds
    # e*p^2/log2(e), so the quadratic coefficient wins.
    for p in (2, 3, 5, 8):
        spec = selector_spec(p, p, 64)
        bound = superselector_upper_bound(spec)
        k_p = dict(bound.per_level)[p]
        assert abs(k_p - e * p * p / LOG2_E) < 1e-9
        assert bound.m == max(1, ceil(k_p * log2(64 / p)))


def test_upper_bound_single_selection_uses_linear_coefficient():
    spec = SuperSelectorSpec(32, 4, (1, 1, 1, 1))
    bound = superselector_upper_bound(spec)
    for j, k_j in bound.per_level:
        assert abs(k_j - min(3 * 4 * e, e * j * j / LOG2_E)) < 1e-9


def test_upper_bound_vacuous_spec_is_one_row():
    assert superselector_upper_bound(SuperSelectorSpec(8, 2, (0, 0))).m == 1


def test_selector_coefficient_half_strength():
    bound = selector_upper_bound(8, 4, 64)
    coeff = bound.per_level[0][1]
    assert coeff <= 3.411


def test_selector_coefficient_full_strength_limit():
    bound = selector_upper_bound(6, 6, 64)
    assert abs(bound.per_level[0][1] - e * 6 / LOG2_E) < 1e-9


def test_selector_rejects_bad_parameters():
    with pytest.raises(InputError):
        selector_upper_bound(4, 5, 16)
    with pytest.raises(InputError):
        selector_upper_bound(4, 0, 16)
    with pytest.raises(InputError):
        selector_upper_bound(4, 2, 3)  # n < p


def test_selector_coefficient_dominated_by_simple_bound():
    # The exact row-count coefficient 1/log2(1/(1-(p-k+1)*alpha)) never
    # beats 2p/(p-k+1).  The closed-form e/(e-eps) surrogate does not
    # share this property near k = p, so test the exact form.
    for p in range(2, 65):
        x = (p - 1) / p
        alpha = x ** (p - 1) * (1 - x)
        for k in range(1, p + 1):
            exact = 1.0 / log2(1.0 / (1.0 - (p - k + 1) * alpha))
            assert exact <= 2 * p / (p - k + 1) + 1e-9
    surrogate = selector_upper_bound(64, 63, 130).per_level[0][1]
    assert surrogate > 2 * 64 / 2


def test_tail_probability_coefficient_chain():
    # For p up to 256 and fractional strengths eps, the exact row-count
    # coefficient sits below the e/(e-eps) form and below 2p/(1+p*eps).
    # The two upper estimates are incomparable: e/(e-eps) exceeds
    # 2p/(1+p*eps) whenever p is small relative to 1/eps.
    for p in range(2, 257, 2):
        x = (p - 1) / p
        alpha = x ** (p - 1) * (1 - x)
        for tenths in range(1, 10):
            eps = tenths / 10
            exact = 1.0 / log2(1.0 / (1.0 - (eps * p + 1) * alpha))
            mid = 1.0 / log2(e / (e - eps))
            assert exact <= mid + 1e-9
            assert exact < 2 * p / (1 + p * eps)
    small_mid = 1.0 / log2(e / (e - 0.5))
    assert small_mid > 2 * 2 / (1 + 2 * 0.5)


def test_union_bound_exponent_inequality():
    # (1 - r*alpha_j)^(c_j*j*log2(n/j)) <= (n/j)^(-r*c_j*j/(e*p)) reduces
    # to log2(1 - r*alpha_j) <= -r/(e*p); checked with the concrete n too.
    # p = 1 is excluded: there x = 0 and the level-1 miss probability is
    # exactly zero, so the bound is vacuous.
    n = 64
    for p in range(2, 33):
        x = (p - 1) / p
        for j in range(1, p + 1):
            alpha = x ** (j - 1) * (1 - x)
            for vj in range(1, j + 1):
                r = j - vj + 1
                k_j = min(3 * p * e * j / r, e * j * j / LOG2_E)
                c_j = k_j / j
                lhs = c_j * j * log2(n / j) * log2(1 - r * alpha)
                rhs = -(r * c_j * j / (e * p)) * log2(n / j)
                assert lhs <= rhs + 1e-9


def test_counting_inequality():
    # C(n,j)*C(j,r) <= n^j * 2^(j/2) * e^(3j/2) * j^(-j), in log space.
    n = 64
    for p in range(1, 33):
        for j in range(1, p + 1):
            for vj in range(1, j + 1):
                r = j - vj + 1
                lhs = log(comb(n, j)) + log(comb(j, r))
                rhs = j * log(n) + (j / 2) * log(2) + (3 * j / 2) - j * log(j)
                assert lhs <= rhs + 1e-9


# --- lower bound ---

def test_lower_bound_substitutions():
    # v_j = j collapses the denominator to log2(j) + 1; v_j = 1 gives
    # j*log2(n/j) exactly.
    spec = selector_spec(4, 4, 32)
    got = superselector_lower_bound(spec)
    want = (16 / 1) * log2(32 / 4) / (log2(4) + 1)
    assert got.m == ceil(want)

    spec = SuperSelectorSpec(32, 4, (0, 0, 0, 1))
    got = superselector_lower_bound(spec)
    assert got.m == ceil(4 * log2(32 / 4))


def test_lower_bound_vanishes_at_n_equal_p():
    assert superselector_lower_bound(selector_spec(6, 3, 6)).m == 0


# --- implied levels ---

@pytest.mark.parametrize("spec, kept", [
    (SuperSelectorSpec(20, 4, (1, 2, 2, 3)), (0, 2, 0, 3)),
    (SuperSelectorSpec(12, 6, (1, 1, 2, 4, 5, 6)), (0, 0, 0, 0, 0, 6)),
    (SuperSelectorSpec(16, 3, (1, 2, 3)), (0, 0, 3)),
    (SuperSelectorSpec(8, 8, (1, 2, 2, 3, 3, 4, 4, 5)), (0, 2, 0, 3, 0, 4, 0, 5)),
    (selector_spec(4, 3, 12), (0, 0, 0, 3)),
    (SuperSelectorSpec(8, 2, (0, 1)), (0, 1)),
    (SuperSelectorSpec(14, 3, (1, 1, 1)), (1, 1, 1)),
], ids=str)
def test_fill_spec_zeroes_exactly_the_implied_levels(spec, kept):
    filled = fill_spec(spec)
    assert (filled.n, filled.p, filled.v) == (spec.n, spec.p, kept)
    assert fill_spec(filled) == filled


@given(st.integers(1, 7), st.data())
def test_fill_spec_follows_the_definition(p, data):
    # Level i is zeroed exactly when some higher level j has
    # v_j - (j - i) >= v_i; the top level is never zeroed.
    v = tuple(data.draw(st.integers(0, j)) for j in range(1, p + 1))
    filled = fill_spec(SuperSelectorSpec(p, p, v)).v
    for i in range(1, p + 1):
        implied = any(v[j - 1] - (j - i) >= v[i - 1] for j in range(i + 1, p + 1))
        assert filled[i - 1] == (0 if implied else v[i - 1])


# --- derandomization threshold ---

def test_threshold_single_column_spec():
    assert derand_threshold(SuperSelectorSpec(2, 1, (1,))) == 1


def test_threshold_vacuous_spec():
    assert derand_threshold(SuperSelectorSpec(9, 3, (0, 0, 0))) == 1


def test_threshold_matches_direct_mass_evaluation():
    # The returned m is the first where the union-bound failure mass
    # drops below one, summed over the levels fill_spec keeps: v_2 = 2
    # implies level 1.
    spec = SuperSelectorSpec(10, 3, (1, 2, 2))
    m = derand_threshold(spec)
    x = 2 / 3

    def mass(rows):
        total = 0.0
        for j, vj in ((2, 2), (3, 2)):
            r = j - vj + 1
            alpha = x ** (j - 1) * (1 - x)
            total += comb(10, j) * comb(j, r) * (1 - r * alpha) ** rows
        return total

    assert mass(m) < 1
    assert mass(m - 1) >= 1


def test_threshold_monotone_in_constraint_strength():
    base = SuperSelectorSpec(12, 2, (1, 2))
    weaker = [SuperSelectorSpec(12, 2, (1, 1)),
              SuperSelectorSpec(12, 2, (0, 2)),
              SuperSelectorSpec(12, 2, (0, 1))]
    t = derand_threshold(base)
    for spec in weaker:
        assert derand_threshold(spec) <= t


@given(st.integers(4, 32), st.integers(1, 3))
def test_threshold_monotone_under_single_level_decrease(n, p):
    if p > n:
        return
    v = tuple(range(1, p + 1))
    t_full = derand_threshold(SuperSelectorSpec(n, p, v))
    weaker = tuple(max(0, t - 1) for t in v)
    assert derand_threshold(SuperSelectorSpec(n, p, weaker)) <= t_full


def test_threshold_within_upper_bound_on_working_range():
    # Holds whenever every constrained level keeps v_j < j; levels with
    # v_j = j can defeat the closed-form bound at small n/j (see the
    # pinned counterexample below).
    for n in (8, 12, 16, 24):
        for p in (2, 3):
            for v in {(1, 1), (0, 1)} if p == 2 else {(1, 1, 1), (1, 2, 2),
                                                      (0, 1, 2), (0, 0, 2)}:
                spec = SuperSelectorSpec(n, p, v)
                assert derand_threshold(spec) <= \
                    superselector_upper_bound(spec).m


def test_threshold_can_exceed_upper_bound_at_full_strength_levels():
    # Documented deviation: the closed-form bound has no slack at levels
    # with v_j = j when n/j is small, and the union-bound threshold
    # genuinely exceeds it there.
    spec = SuperSelectorSpec(10, 3, (1, 2, 3))
    assert derand_threshold(spec) > superselector_upper_bound(spec).m

