"""Row-count formulas: closed-form upper and lower bounds, per-level
selector sizes, and the exact union-bound threshold the constructors use,
with the per-row unit-pattern chance alpha_j it shares with the fill.

All logarithms here are base 2. Bounds are returned as ceilings since row
counts are integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, e, exp, inf, log2

from .core import InputError, SuperSelectorSpec, _subset_counts

LOG2_E = log2(e)


@dataclass(frozen=True)
class SizeBound:
    """An evaluated bound: m rows, with the per-level coefficients that
    produced it."""

    m: int
    per_level: tuple


def level_alpha(p: int, j: int) -> float:
    """alpha_j = x^(j-1) * (1-x), x = (p-1)/p: the chance that a row of a
    random matrix with outer level p is one given unit row over j columns.

    The threshold's failure mass and the fill's success tables both use
    it; the fill's start expectation clears #subsets - 1 only because the
    two agree.
    """
    x = (p - 1) / p
    return x ** (j - 1) * (1.0 - x)


def _log2_ratio(n: int, j: int) -> float:
    try:
        return log2(n / j)
    except OverflowError:  # n / j is past the float range
        return log2(n) - log2(j)


def _filled_v(v: tuple) -> tuple:
    """v with every implied level's v_i set to 0.

    Level i is implied when v_i <= max over j > i of v_j - (j - i): drop a
    column from a j-set and the same rows still isolate at least v_j - 1
    of the columns that remain, and p <= n, so every i-set extends to a
    j-set. Walking down from level p, `best` is that maximum.
    """
    v = list(v)
    best = 0
    for i in range(len(v) - 1, -1, -1):
        vi = v[i]
        if vi <= best:
            v[i] = 0
        best = max(best, vi) - 1
    return tuple(v)


def fill_spec(spec: SuperSelectorSpec) -> SuperSelectorSpec:
    """The spec with every implied level's v_i set to 0 (`_filled_v`); p,
    and with it x = (p-1)/p, stay."""
    return SuperSelectorSpec(spec.n, spec.p, _filled_v(spec.v))


def _constrained(spec: SuperSelectorSpec) -> list:
    return [(j, spec.v[j - 1]) for j in spec.levels()]


def superselector_upper_bound(spec: SuperSelectorSpec) -> SizeBound:
    """Rows sufficient for a (p, v, n)-superselector to exist:
    ceil(max over constrained j of k_j * log2(n/j)), with
    k_j = min(3*p*e*j / (j - v_j + 1), e * j^2 / log2(e)).
    """
    per_level = []
    best = 0.0
    for j, vj in _constrained(spec):
        r = j - vj + 1
        kj = min(3.0 * spec.p * e * j / r, e * j * j / LOG2_E)
        per_level.append((j, kj))
        best = max(best, kj * _log2_ratio(spec.n, j))
    return SizeBound(max(1, ceil(best)), tuple(per_level))


def selector_upper_bound(p: int, k: int, n: int) -> SizeBound:
    """Rows sufficient for a (p, k, n)-selector:
    coeff * (p * log2(n/p) + A), where coeff = 1 / log2(e / (e - 1 + k/p))
    (replaced by its k = p limit e*p/log2(e) when the general form
    degenerates) and A = (2p-k+1) * log2(e) + (p-k+1) * log2(p/(p-k+1))
    is the additive threshold constant.
    """
    if not 1 <= k <= p:
        raise InputError(f"need 1 <= k <= p, got k={k}, p={p}")
    if n < p:
        raise InputError(f"need n >= p, got n={n}, p={p}")
    if k == p:
        coeff = e * p / LOG2_E
    else:
        coeff = 1.0 / log2(e / (e - 1.0 + k / p))
    a_const = (2 * p - k + 1) * LOG2_E + (p - k + 1) * log2(p / (p - k + 1))
    m = coeff * (p * _log2_ratio(n, p) + a_const)
    return SizeBound(max(1, ceil(m)), ((p, coeff),))


def superselector_lower_bound(spec: SuperSelectorSpec) -> SizeBound:
    """Advisory necessary size:
    max over constrained j of (j^2 / (j-v_j+1)) * log2(n/j) /
    (log2(j/(j-v_j+1)) + 1), with the additive constant fixed at 1.

    Never used for construction; may be 0 when log2(n/j) vanishes at
    every constrained level.
    """
    per_level = []
    best = 0.0
    for j, vj in _constrained(spec):
        r = j - vj + 1
        value = (j * j / r) * _log2_ratio(spec.n, j) / (log2(j / r) + 1.0)
        per_level.append((j, value))
        best = max(best, value)
    return SizeBound(max(0, ceil(best)), tuple(per_level))


def _log_failure_terms(n: int, p: int, v: tuple) -> list:
    """Per constrained level j of (n, p, v): (log of the count factor,
    log(1 - r*alpha_j)).

    The union-bound failure mass at m rows is
    sum_j C(n,j) * C(j, r) * (1 - r * alpha_j)^m, r = j - v_j + 1,
    with alpha_j from `level_alpha`, its x fixed by the outer p. The
    counts come from one running product (`core._subset_counts`).
    """
    pairs = [(j, j - vj + 1) for j, vj in enumerate(v, start=1) if vj >= 1]
    terms = []
    for (j, r), count in zip(pairs, _subset_counts(n, pairs)):
        base = 1.0 - r * level_alpha(p, j)
        # At base <= 0 the per-row hit probability already covers the
        # whole event; any m >= 1 kills the term, marked by log base None.
        terms.append((log2(count), log2(base) if base > 0.0 else None))
    return terms


def _failure_mass(terms: list, m: int) -> float:
    total = 0.0
    for log_count, log_base in terms:
        if log_base is None:
            continue
        log_term = (log_count + m * log_base) / LOG2_E
        total += exp(log_term) if log_term < 0.0 else inf  # exp may overflow
    return total


def derand_threshold(spec: SuperSelectorSpec) -> int:
    """Smallest m for which the union-bound failure mass of
    `fill_spec(spec)` drops below 1.

    The implied levels are left out of the mass: a matrix that meets the
    levels `fill_spec` keeps meets the full spec. At this m a random
    matrix succeeds with positive probability, and the
    conditional-expectations construction is guaranteed to succeed.
    """
    terms = _log_failure_terms(spec.n, spec.p, _filled_v(spec.v))
    if not terms:
        return 1
    if _failure_mass(terms, 1) < 1.0:
        return 1
    hi = 2
    while _failure_mass(terms, hi) >= 1.0:
        hi *= 2
        if hi > 1 << 40:
            raise InputError("threshold search diverged; spec out of range")
    lo = hi // 2  # mass(lo) >= 1, mass(hi) < 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _failure_mass(terms, mid) < 1.0:
            hi = mid
        else:
            lo = mid
    return hi
