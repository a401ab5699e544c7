"""Per-subset success probabilities of a `DerandState`, read off its
fill state, for the tests that compare them with the frozen scan kernel
and with forced-bit copies. The fill itself never needs them: it only
sums greedy differences.
"""

from __future__ import annotations


def current(state, i: int) -> float:
    """Success probability of subset i given the entries fixed so far."""
    code = state._code[i]
    if state._done[code]:
        return 1.0
    c, mask = state.c, state._mask[i]
    # The still-needed columns: bit t of the code's local pattern stands
    # for the t-th column of S from the end.
    u = state._code_u[code]
    cols = [col for col in range(state.n) if mask >> col & 1]
    alive = sum(1 << col for t, col in enumerate(reversed(cols)) if u >> t & 1)
    j, a = state._classes[state._code_cls[code]]
    need = state.spec.v[j - 1] - a
    tab = state._tables[j]
    unfixed = (mask >> c).bit_count()
    if unfixed == 0 or unfixed == j:
        # Row r over S is complete, or not begun: whole rows remain.
        rows = state.m - state.r - (1 if unfixed == 0 else 0)
        return tab[rows][need]
    rem = state.m - state.r - 1
    # f(rem, need, j - a) and f(rem, need - 1, j - a - 1).
    f0 = tab[rem][need]
    f1 = tab[rem][need - 1]
    pre = state.row_bits & mask
    if not pre:
        pr = (alive >> c).bit_count() * state.x ** (unfixed - 1) * state._omx
        return pr * f1 + (1.0 - pr) * f0
    if pre & (pre - 1) or not pre & alive:
        return f0
    xq = state.x ** unfixed
    return xq * f1 + (1.0 - xq) * f0


def xcur(state) -> list:
    """Per tracked subset, its success probability given the entries
    fixed so far."""
    return [current(state, i) for i in range(state.ns)]
