"""Frozen reference for the differential tests: the original row-scan
verifiers.

`selector_holds` walks every p-set of columns and, for each one, scans
all m rows for unit rows within the set. `list_disjunct_holds`
enumerates every l-set T outside each d-set S. `list_disjunct_counts`
is the counting form that scanned the rows once per d-set S, before
`is_list_disjunct` moved onto the column view. `column_view_holds` is
the depth-first column-view walk that settled each j-set at its own
leaf, before the selector check moved onto pair bitsets. All are slow
and are kept only so the kernels in `superselect.core` can be checked
against them. None checks its arguments or a budget. Do not use them
outside the tests.
"""

from __future__ import annotations

import itertools

from superselect import BitMatrix


def selector_holds(M: BitMatrix, p: int, k: int) -> bool:
    """Every p-set of columns keeps >= k distinct unit rows."""
    for S in itertools.combinations(range(M.n), p):
        mask = 0
        for c in S:
            mask |= 1 << c
        seen = 0
        for row in M.rows:
            z = row & mask
            if z and not (z & (z - 1)):
                seen |= z
        if seen.bit_count() < k:
            return False
    return True


def column_view_holds(cols: tuple, j: int, k: int) -> bool:
    """Every j-set of the column view `cols` has >= k isolated columns
    (columns owning a row where they hold the only 1 within the set).

    The j-sets are visited depth first in the order of
    itertools.combinations. A prefix carries `hit`, the rows it hits
    (once | multi), and `alone`, the nonzero cols[a] & once of its
    columns a, where `once` is the rows it hits exactly once. Adding
    column x keeps y & ~x of each y in `alone` and appends x & ~hit.
    """
    n = len(cols)

    def extend(start, depth, hit, alone):
        free = ~hit
        if depth == j - 1:
            for c in range(start, n):
                x = cols[c]
                need = k - 1 if x & free else k
                if need:
                    nx = ~x
                    for y in alone:
                        if y & nx:
                            need -= 1
                            if not need:
                                break
                    else:
                        return False
            return True
        for a in range(start, n - j + depth + 1):
            x = cols[a]
            nx = ~x
            nxt = [z for y in alone if (z := y & nx)]
            if x & free:
                nxt.append(x & free)
            if not extend(a + 1, depth + 1, hit | x, nxt):
                return False
        return True

    return extend(0, 0, 0, [])


def superselector_holds(M: BitMatrix, spec) -> bool:
    """Every constrained level of the spec holds, level by level."""
    return all(selector_holds(M, j, spec.v[j - 1]) for j in spec.levels())


def list_disjunct_holds(M: BitMatrix, d: int, l: int) -> bool:
    """For all disjoint S, T with |S| = d, |T| = l: some row hits T and
    misses S."""
    cols = range(M.n)
    for S in itertools.combinations(cols, d):
        smask = 0
        for c in S:
            smask |= 1 << c
        rest = [c for c in cols if not (smask >> c) & 1]
        # Rows that miss S; T must be hit by one of them.
        free = 0
        for row in M.rows:
            if not row & smask:
                free |= row
        for T in itertools.combinations(rest, l):
            if not any((free >> c) & 1 for c in T):
                return False
    return True


def list_disjunct_counts(M: BitMatrix, d: int, l: int) -> bool:
    """A d-set S fails when at least l columns outside S are uncovered by
    the rows that miss S; one scan of the rows per S."""
    full = (1 << M.n) - 1
    for S in itertools.combinations(range(M.n), d):
        smask = 0
        for c in S:
            smask |= 1 << c
        free = 0
        for row in M.rows:
            if not row & smask:
                free |= row
        if (full & ~free & ~smask).bit_count() >= l:
            return False
    return True
