"""Frozen reference for the differential row-table tests: the per-row
term tables of the derandomized fill as they were built from deduped
(class, w) pairs.

At init, for every bucket q, each code is mapped to a pair keyed
(class << 1 | c alive) << p | alive columns after c, and each class to
its lone-one pair; a row multiplies every distinct pair's w by its
class's g and expands the products back to one entry per code and one
per class. `superselect.construct.DerandState` now keeps w per code and
scales it by g directly; it is checked against this table for table,
float for float.

It also keeps the code numbering and transition table as they were
built by scanning all 2^j local patterns of each level: the (class,
alive pattern u) pairs numbered densely in class order through an index
dict, and `next[s * p + t]`, the code after code s realizes its local
column t, looked up in that index (0 where no code follows). The fill
now numbers a code when it first reaches it and never one of a
satisfied class; the tests check, code by (class, u), that each one it
numbers is an unsatisfied code of this scan with the same class and
transitions, an edge into a satisfied class pointing at the fill's dead
key. Do not use it outside the tests.
"""

from __future__ import annotations

from math import comb
from operator import mul

from reference_ftable import FTable, SampleDistribution
from superselect import SuperSelectorSpec, derand_threshold


class ReferenceTerms:
    """Classes, codes, transitions and pair tables of one spec, built the
    old way. `start` holds each subset's first code, in subset order."""

    def __init__(self, spec: SuperSelectorSpec):
        self.spec = spec
        self.m = derand_threshold(spec)
        p = spec.p
        x = (p - 1) / p
        omx = 1.0 - x
        levels = spec.levels()
        self.tables = {
            j: FTable(self.m, j, spec.v[j - 1], SampleDistribution(j, x))
            for j in levels
        }
        xpow = [x ** q for q in range(p + 1)]
        self.classes, code_cls, code_u, self.start = [], [], [], []
        index = {}
        for j in levels:
            self.start.extend([len(code_u)] * comb(spec.n, j))
            for a in range(spec.v[j - 1] + 1):
                for u in range(1 << j):
                    if u.bit_count() == j - a:
                        index[len(self.classes) << p | u] = len(code_u)
                        code_cls.append(len(self.classes))
                        code_u.append(u)
                self.classes.append((j, a))
        self.code_cls, self.code_u, self.index = code_cls, code_u, index
        self.done = [a == spec.v[j - 1] for j, a in
                     map(self.classes.__getitem__, code_cls)]
        self.next = [index.get((k + 1) << p | u ^ 1 << t, 0)
                     for k, u in zip(code_cls, code_u) for t in range(p)]
        self.wterms = []
        for q in range(p):
            pairs = {}
            codes = [pairs.setdefault((k << 1 | u >> q & 1) << p
                                      | (u & ((1 << q) - 1)).bit_count(),
                                      len(pairs))
                     for k, u in zip(code_cls, code_u)]
            lone = [pairs.setdefault((k << 1 | 1) << p, len(pairs))
                    for k in range(len(self.classes))]
            ws = [(xpow[q] if key >> p & 1 else 0.0)
                  - (key & ((1 << p) - 1)) * xpow[q - 1] * omx
                  for key in pairs]
            ks = [key >> p + 1 for key in pairs]
            self.wterms.append((ks, ws, codes, lone))

    def row_tables(self, r: int) -> tuple:
        """(wg, xg) of row r: wg[q][code] = w * g, xg[q][class] = x^q * g."""
        rem = self.m - r - 1
        g = [0.0] * len(self.classes)
        for k, (j, a) in enumerate(self.classes):
            need = self.spec.v[j - 1] - a
            if need > 0:
                row = self.tables[j]._tab[rem]
                g[k] = row[need - 1][j - a - 1] - row[need][j - a]
        wg, xg = [], []
        for ks, ws, codes, lone in self.wterms:
            terms = list(map(mul, ws, map(g.__getitem__, ks)))
            wg.append([terms[key] for key in codes])
            xg.append([terms[key] for key in lone])
        return wg, xg
