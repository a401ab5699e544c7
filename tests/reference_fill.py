"""Frozen reference for the differential fill tests: the branchy
per-column kernel of the derandomized fill, as it was before per-row
subset keys.

Each subset kept an alive mask, the columns whose unit pattern no
completed row had realized, and every visit read the row's prefix over
the subset, `row_bits & mask`, and branched three ways on it: no ones
yet (add the code's w * g), one lone alive one (subtract x^q * g), or
dead (skip). The row tables were two lists per bucket, `_wg[q][code]`
and `_xg[q][class]`; here both are indexed by code number. `BranchState`
is `DerandState` with that row loading and that kernel put back, so the
tests can compare the two entry by entry. The fill keeps no column
masks, so `BranchState` builds its own from `fill_probe.masks`. It reads
the fill's codes through `fill_probe.codes` and `fill_probe.weights`,
and numbers a code it reaches first through the fill's own `_reach`, as
the keyed kernel does; a subset that a realization satisfies moves to
the fill's dead key, as there. It keeps its own exact staleness, a
column mask rebuilt at its next visit, where the fill rebuilds by its
rent-or-buy count; a listed satisfied subset adds nothing to either
kernel, so the two fills agree. Do not use it outside the tests.
"""

from __future__ import annotations

from fill_probe import codes, masks, weights
from superselect import DerandState, PrecisionFault


class BranchState(DerandState):
    """`DerandState` filled by the frozen branchy kernel over alive masks."""

    def __init__(self, spec, **kwargs):
        super().__init__(spec, **kwargs)
        # The frozen kernel's own staleness marks (see the module docstring).
        self._stale = 0
        self._mask = masks(self)
        self._alive = list(self._mask)

    def _load_row(self):
        rem = self.m - self.r - 1
        g = [0.0] * len(self._classes)
        for k, (j, a) in enumerate(self._classes):
            need = self.spec.v[j - 1] - a
            if need > 0:
                row = self._tables[j][rem]
                g[k] = row[need - 1] - row[need]
        # w * g and x^q * g of each code's class, both by code number.
        keys = self._dead + 1 + len(self._code_cls)
        self._wg = [[0.0] * keys for _ in self._xpow]
        self._xg = [[0.0] * keys for _ in self._xpow]
        for s, (k, _) in codes(self).items():
            for wg, xg, w, xq in zip(self._wg, self._xg, weights(self, s),
                                     self._xpow):
                wg[s], xg[s] = w * g[k], xq * g[k]

    def _advance(self, count: int, bit: int = None) -> int:
        n, p, x, omx = self.n, self.spec.p, self.x, self._omx
        masks, alive, code = self._mask, self._alive, self._code
        hits, nxt, dead = self._hits, self._next, self._dead
        wg, xg = self._wg, self._xg
        tie, floor = self._tie_tol, self.ns - 1
        forced = bit is not None
        r, c, rb = self.r, self.c, self.row_bits
        e, stale, unsat = self.expectation, self._stale, self._unsat
        try:
            for _ in range(count):
                cbit = 1 << c
                buckets = hits[c]
                if stale & cbit:
                    buckets = hits[c] = [[i for i in b if alive[i]]
                                         for b in buckets]
                    stale ^= cbit
                d = 0.0
                real0, real1 = [], []
                w0, x0 = wg[0], xg[0]
                for i in buckets[0]:
                    pre = rb & masks[i]
                    if pre:
                        if pre & (pre - 1) or not pre & alive[i]:
                            continue
                        d -= x0[code[i]]
                        real0.append(i)
                    else:
                        d += w0[code[i]]
                        if alive[i] & cbit:
                            real1.append(i)
                for q in range(1, len(buckets)):
                    wq, xq = wg[q], xg[q]
                    for i in buckets[q]:
                        pre = rb & masks[i]
                        if pre:
                            if pre & (pre - 1) or not pre & alive[i]:
                                continue
                            d -= xq[code[i]]
                        else:
                            d += wq[code[i]]
                if not forced:
                    bit = 0 if d <= tie else 1
                after = e + (x * d if bit else -omx * d)
                if not forced and after <= floor:
                    raise PrecisionFault(
                        f"greedy entry ({r},{c}) leaves the expectation at "
                        f"{after} <= {floor}, from {e}"
                    )
                e = after
                if bit:
                    rb |= cbit
                for i in real1 if bit else real0:
                    mask = masks[i]
                    pre = rb & mask
                    alive[i] ^= pre
                    t = (mask >> pre.bit_length()).bit_count()
                    s = nxt[code[i] * p + t]
                    if s < dead:
                        s = self._reach(code[i], t)
                    code[i] = s
                    if s == dead:
                        alive[i] = 0
                        stale |= mask
                        unsat -= 1
                c += 1
                if c == n:
                    self.rows.append(rb)
                    rb = c = 0
                    r += 1
                    if r < self.m:
                        self.r = r
                        self._load_row()
                        wg, xg = self._wg, self._xg
        finally:
            self.r, self.c, self.row_bits = r, c, rb
            self.expectation, self._stale, self._unsat = e, stale, unsat
        return bit
