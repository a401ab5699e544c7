"""Per-subset success probabilities of a `DerandState`, read off its
fill state, for the tests that compare them with the frozen scan kernel
and with forced-bit copies. The fill itself never needs them: it only
sums greedy differences.
"""

from __future__ import annotations

from itertools import combinations


def masks(state) -> list:
    """Column mask of every tracked subset, in the fill's numbering: level
    by level, each level's masks ascending (colex order)."""
    bits = [1 << c for c in range(state.n)]
    return [mask for j in state.spec.levels()
            for mask in sorted(map(sum, combinations(bits, j)))]


def code_of(state, s: int) -> tuple:
    """(class, alive pattern u) of code s, the class indexing
    `state._classes`; bit t of u is set while the t-th column of the
    subset from the end is still needed."""
    i = s - state._dead - 1
    return state._code_cls[i], state._code_u[i]


def weights(state, s: int) -> list:
    """The weight w of code s in each bucket q: its row term there is
    w times its class's g."""
    i = s - state._dead - 1
    return [w[i] for w in state._w]


def codes(state) -> dict:
    """{number: (class, u)} of every code the fill has numbered, all of
    unsatisfied classes: a satisfied subset holds the dead key. Codes
    follow the p blocks of lone keys and the dead key, in the order the
    fill first reached them, so fills that reach them in another order
    number them differently: compare codes by (class, u). The kernel's
    tables (`_next`, `_turn`, `_real` and each row's `_terms`) are
    indexed by these numbers; `_next` holds a code's p edges as one
    list, and None for a lone key or the dead key."""
    return dict(enumerate(zip(state._code_cls, state._code_u), state._dead + 1))


def current(state, i: int, mask: int = None) -> float:
    """Success probability of subset i, whose column mask is `mask`
    (looked up when not given), given the entries fixed so far."""
    code = state._code[i]
    if code == state._dead:
        return 1.0
    c = state.c
    if mask is None:
        mask = masks(state)[i]
    # The still-needed columns: bit t of the code's local pattern stands
    # for the t-th column of S from the end.
    k, u = code_of(state, code)
    cols = [col for col in range(state.n) if mask >> col & 1]
    alive = sum(1 << col for t, col in enumerate(reversed(cols)) if u >> t & 1)
    j, a = state._classes[k]
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
    return [current(state, i, mask) for i, mask in enumerate(masks(state))]


def work(state) -> tuple:
    """Step the fill as `run` does, up to the point where no unsatisfied
    subset is left, and count its element operations: the evaluations,
    sum of len over `_hits[c]` after each entry, and the scans, the old
    length of `_hits[c]` whenever an entry rebuilt it."""
    evals = scans = 0
    while state.r < state.m and not (state.c == 0 and state._unsat == 0):
        c = state.c
        old = state._hits[c]
        state.step()
        new = state._hits[c]
        evals += sum(map(len, new))
        if new is not old:
            scans += sum(map(len, old))
    return evals, scans
