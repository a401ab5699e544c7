"""Frozen reference for the differential fill tests: the branchy
per-column kernel of the derandomized fill, as it was before per-row
subset keys.

Each subset kept an alive mask, the columns whose unit pattern no
completed row had realized, and every visit read the row's prefix over
the subset, `row_bits & mask`, and branched three ways on it: no ones
yet (add the code's w * g), one lone alive one (subtract x^q * g), or
dead (skip). The row tables were two lists per bucket, `_wg[q][code]`
and `_xg[q][class]`. `BranchState` is `DerandState` with that row
loading and that kernel put back, so the tests can compare the two entry
by entry. Do not use it outside the tests.
"""

from __future__ import annotations

from operator import mul

from superselect import DerandState, PrecisionFault


class BranchState(DerandState):
    """`DerandState` filled by the frozen branchy kernel over alive masks."""

    def __init__(self, spec, **kwargs):
        super().__init__(spec, **kwargs)
        self._alive = list(self._mask)

    def _load_row(self):
        rem = self.m - self.r - 1
        g = [0.0] * len(self._classes)
        for k, (j, a) in enumerate(self._classes):
            need = self.spec.v[j - 1] - a
            if need > 0:
                row = self._tables[j][rem]
                g[k] = row[need - 1] - row[need]
        gc = list(map(g.__getitem__, self._code_cls))
        self._wg = [list(map(mul, w, gc)) for w in self._w]
        self._xg = [[xq * gk for gk in g] for xq in self._xpow]

    def _advance(self, count: int, bit: int = None) -> int:
        n, p, x, omx = self.n, self.spec.p, self.x, self._omx
        masks, alive, code = self._mask, self._alive, self._code
        hits, nxt, done, cls = self._hits, self._next, self._done, self._code_cls
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
                        d -= x0[cls[code[i]]]
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
                            d -= xq[cls[code[i]]]
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
                    s = code[i] = nxt[code[i] * p + t]
                    if done[s]:
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
