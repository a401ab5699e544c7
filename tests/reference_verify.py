"""Frozen reference for the differential tests: the original row-scan
verifiers.

`selector_holds` walks every p-set of columns and, for each one, scans
all m rows for unit rows within the set. `list_disjunct_holds`
enumerates every l-set T outside each d-set S. Both are slow and are
kept only so the column-view kernel and the counting form of
`is_list_disjunct` in `superselect.core` can be checked against them.
Neither checks its arguments or a budget. Do not use them outside the
tests.
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
