"""Frozen reference for the differential tests: the original scan kernel
of the conditional-expectations fill.

At every entry this kernel visits every tracked subset and re-evaluates
the ones whose next column is the current one, keeping twelve parallel
per-subset lists that it resets at each row start. It is slow (work
m * n * #subsets) and is kept only so the per-column kernel in
`superselect.construct` can be checked against it row for row. Do not
use it outside the tests.
"""

from __future__ import annotations

import itertools

from reference_ftable import FTable, SampleDistribution
from superselect import SuperSelectorSpec, derand_threshold


def _colex_combinations(n: int, j: int) -> list:
    return sorted(itertools.combinations(range(n), j), key=lambda s: s[::-1])


class ScanState:
    """The original `DerandState` fill: same greedy choice, same
    tie-breaking, same f-table arithmetic, without the testing hooks."""

    def __init__(self, spec: SuperSelectorSpec, m: int = None):
        self.spec = spec
        self.m = derand_threshold(spec) if m is None else m
        n, p = spec.n, spec.p
        self.n = n
        self.x = (p - 1) / p
        self.cols = []
        self.vj = []
        for j in spec.levels():
            for cols in _colex_combinations(n, j):
                self.cols.append(cols)
                self.vj.append(spec.v[j - 1])
        self.ns = len(self.cols)
        tables = {
            j: FTable(self.m, j, spec.v[j - 1], SampleDistribution(j, self.x))
            for j in spec.levels()
        }
        self._tab = [tables[len(cols)]._tab for cols in self.cols]
        self._xpow = [self.x ** q for q in range(p + 1)]
        self.realized = [0] * self.ns
        self.acount = [0] * self.ns
        self.ptr = [0] * self.ns
        self.nextcol = [cols[0] if cols else n for cols in self.cols]
        self.cnt1 = [0] * self.ns
        self.onecol = [-1] * self.ns
        self.onealive = [False] * self.ns
        self.ua = [len(cols) for cols in self.cols]
        self.xcur = [
            tables[len(cols)].f(self.m, self.vj[i], len(cols))
            for i, cols in enumerate(self.cols)
        ]
        self.expectation = sum(self.xcur)
        self._tie_tol = 1e-12 * max(1, self.ns)
        self.r = 0
        self.c = 0
        self.row_bits = 0
        self.rows = []
        self._start_row()

    def _hypotheses(self, i: int, c: int) -> tuple:
        cols = self.cols[i]
        j = len(cols)
        a = self.acount[i]
        need = self.vj[i] - a
        pool = j - a
        rem = self.m - self.r - 1
        tab = self._tab[i]
        if need <= 0:
            return (1.0, 1.0)
        f0 = 0.0 if (need > pool or need > rem) else tab[rem][need][pool]
        if need - 1 <= 0:
            f1 = 1.0
        elif need - 1 > pool - 1 or need - 1 > rem:
            f1 = 0.0
        else:
            f1 = tab[rem][need - 1][pool - 1]
        cnt1 = self.cnt1[i]
        if cnt1 >= 2:
            return (f0, f0)
        q_after = j - self.ptr[i] - 1
        xq = self._xpow[q_after]
        c_alive = not (self.realized[i] >> c) & 1
        if cnt1 == 1:
            if self.onealive[i]:
                x0 = xq * f1 + (1.0 - xq) * f0
            else:
                x0 = f0
            return (x0, f0)
        x1 = xq * f1 + (1.0 - xq) * f0 if c_alive else f0
        if q_after == 0:
            x0 = f0
        else:
            b_cand = self.ua[i] - (1 if c_alive else 0)
            pr_new = b_cand * self._xpow[q_after - 1] * (1.0 - self.x)
            x0 = pr_new * f1 + (1.0 - pr_new) * f0
        return (x0, x1)

    def _apply(self, i: int, c: int, bit: int, value: float):
        c_alive = not (self.realized[i] >> c) & 1
        if bit:
            cnt1 = self.cnt1[i]
            if cnt1 == 0:
                self.cnt1[i] = 1
                self.onecol[i] = c
                self.onealive[i] = c_alive
            elif cnt1 == 1:
                self.cnt1[i] = 2
        if c_alive:
            self.ua[i] -= 1
        self.ptr[i] += 1
        cols = self.cols[i]
        if self.ptr[i] < len(cols):
            self.nextcol[i] = cols[self.ptr[i]]
        else:
            self.nextcol[i] = self.n
            if self.cnt1[i] == 1 and self.onealive[i]:
                self.realized[i] |= 1 << self.onecol[i]
                self.acount[i] += 1
        self.xcur[i] = value

    def _start_row(self):
        for i, cols in enumerate(self.cols):
            self.ptr[i] = 0
            self.nextcol[i] = cols[0]
            self.cnt1[i] = 0
            self.onecol[i] = -1
            self.onealive[i] = False
            self.ua[i] = len(cols) - self.acount[i]
        self.row_bits = 0

    def step(self) -> int:
        c = self.c
        nextcol = self.nextcol
        xcur = self.xcur
        base = 0.0
        touched = []
        t0 = 0.0
        t1 = 0.0
        for i in range(self.ns):
            if nextcol[i] != c:
                base += xcur[i]
            else:
                h0, h1 = self._hypotheses(i, c)
                t0 += h0
                t1 += h1
                touched.append((i, h0, h1))
        t0 += base
        t1 += base
        bit = 0 if t0 >= t1 - self._tie_tol else 1
        self.expectation = t0 if bit == 0 else t1
        if bit:
            self.row_bits |= 1 << c
        for i, h0, h1 in touched:
            self._apply(i, c, bit, h1 if bit else h0)
        self.c += 1
        if self.c == self.n:
            self.rows.append(self.row_bits)
            self.c = 0
            self.r += 1
            self._start_row()
        return bit

    def run(self) -> list:
        """Fill the whole matrix; returns its rows as column bitmasks."""
        while self.r < self.m:
            self.step()
        return self.rows
