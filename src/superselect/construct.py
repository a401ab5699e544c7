"""Superselector constructions: random sampling with verification, and
the fully deterministic conditional-expectations fill.

The deterministic fill fixes entries in row-major order. For every
tracked column subset S, identified by its column mask, it maintains the
exact probability that a random completion of the matrix still realizes
enough distinct unit rows inside M(S), read off one `success_table` per
level, and it picks each bit to maximize the sum of those
probabilities: bit 1 exactly when the difference d of the two
hypothesis sums exceeds a tie slack. At the threshold row count
the sum starts above (number of subsets) - 1 and a greedy choice never
lowers it, so it ends with every subset satisfied; the fill checks that
invariant after every greedy entry. Entry (r, c) can change only the subsets
that contain column c, and a static per-column index lists exactly those
by how many of their columns follow c, so a fill costs at most
m * sum_j j*C(n,j) subset evaluations over the levels j that
`sizing.fill_spec` keeps: the implied levels hold once the kept ones do,
so the fill tracks none of their subsets, while the exhaustive check of
the finished matrix still judges the full spec.
"""

from __future__ import annotations

import itertools
import random
from array import array
from functools import reduce
from math import comb
from operator import add, mul

from .core import (
    DEFAULT_SUBSET_BUDGET,
    BitMatrix,
    InputError,
    SuperSelectorSpec,
    _TO_DIGITS,
    _budget_guard,
    _subset_counts,
    is_superselector,
)
from .sizing import derand_threshold, fill_spec, level_alpha


class ConstructionFailure(RuntimeError):
    """Randomized construction exhausted its attempts."""

    def __init__(self, attempts: int):
        super().__init__(f"no valid matrix after {attempts} attempts")
        self.attempts = attempts


class PrecisionFault(RuntimeError):
    """The derandomized construction lost its guarantee: a greedy step
    left the expectation E at or below #subsets - 1, breaking the proof's
    invariant E > #subsets - 1 (so a start already at or below it fails
    the first greedy step), or the finished matrix failed the exhaustive
    check. The construction stops; nothing retries, and the CLI exits 1."""


def success_table(m: int, j: int, vj: int, alpha: float) -> list:
    """tab[a][b] = f(a, b, b + j - vj) for a <= m and b <= vj: one
    diagonal of f(a, b, c), the chance that a random rows, each one given
    unit row with chance alpha, realize at least b of c designated unit
    patterns.

    f(a, 0, c) = 1, and f(a, b, c) = (1 - alpha*c) f(a-1, b, c)
    + alpha*c f(a-1, b-1, c-1), which stays on its diagonal c - b. The
    fill reads no other: a subset of level j with a of its j patterns
    realized still needs b = vj - a of its c = j - a unrealized ones, so
    c - b = j - vj, and realizing one more moves it to (b - 1, c - 1),
    the same diagonal; the start value f(m, vj, j) lies on it too.
    Entries with b > a come out exactly 0.0.
    """
    gap = j - vj
    tab = [[1.0] + [0.0] * vj]
    for _ in range(m):
        prev = tab[-1]
        cur = [1.0]
        for b in range(1, vj + 1):
            ac = alpha * (b + gap)
            cur.append((1.0 - ac) * prev[b] + ac * prev[b - 1])
        tab.append(cur)
    return tab


class DerandState:
    """Fill state of the deterministic construction.

    Entries are fixed row-major. Only the subsets S that contain the
    current column c can change at entry (r, c), so a static per-column
    index lists, for every column c, those subsets in p buckets: bucket q
    holds the subsets with q columns after c, so bucket 0 holds those
    whose row over S ends at c. An entry sums the greedy difference
    d = T1 - T0 of the two hypotheses over the listed subsets only,
    bucket 0 first, each bucket in ascending subset order; the untouched
    subsets add the same to both sides. A fill therefore does at most
    m * sum_j j*C(n,j) subset evaluations. The per-code tables hold
    p * sum_j sum_{a <= v_j} C(j, a) entries each; the budget guard
    charges the sum of the two before allocating, and one row's
    evaluations alone before computing m or the tables.

    A subset is identified by its column mask (subsets are numbered level
    by level in ascending mask order, which is colex order). Across rows
    its state is one small int, its code, which stands for its class
    (level j, patterns realized) and its local alive pattern: bit t set
    while its t-th column from the end is unrealized, that is, still
    needed. Within a row it also has a key, which says how the row's
    fixed bits over S stand: its code while the row has no 1 in S, its
    class's lone key once the row holds one lone 1 in a column S still
    needs, and one shared dead key otherwise, when the row can realize
    nothing new for S. A subset adds to d one lookup, by its key, in its
    bucket's term table for the row: (w1 - w0)*g for a code, where w is
    the chance that the row realizes a new unit pattern and g = f1 - f0
    is read off the level's `success_table` once per class and row;
    -x^q * g for a lone key, since bit 1 kills the lone one; 0.0 for
    dead. w1 - w0 depends on q and on the alive pattern from c on, so w
    is a per-code table made at init for every bucket, and each row
    scales it by g.

    Keys change only where a 1 is fixed: the subsets in buckets q >= 1 of
    its column step through a static table per q, a code to its lone key
    if that column is still needed, else to dead, and a lone key to dead.
    Bucket 0's subsets end at c, so two static flag tables read the chosen
    bit's realizations off it (lone keys under 0, codes whose last column
    is still needed under 1), and a static transition table gives each
    realizer's next code. At the row's end every key is reset to its
    code. A satisfied subset's terms are 0, its keys realize nothing, and
    it leaves each column's buckets when that column is next visited;
    once no unsatisfied subset is left, every later d is exactly 0.0 and
    `run` appends the all-zero rows.

    `expectation` is the running sum of per-subset success probabilities
    under the bits fixed so far, from sum_j C(n,j) * f(m, v_j, j). Each
    subset's current probability is the average of its two hypotheses
    weighted by Pr[entry = 0] = x, so fixing the bit to 1 adds x*d and
    fixing it to 0 adds -(1-x)*d. A greedy entry that leaves it at most
    #subsets - 1 raises PrecisionFault, so the first one judges the start.
    """

    def __init__(self, spec: SuperSelectorSpec,
                 budget: int = DEFAULT_SUBSET_BUDGET):
        # Only the levels fill_spec keeps are tracked; meeting them meets
        # the spec given.
        self.spec = spec = fill_spec(spec)
        n, p = spec.n, spec.p
        levels = spec.levels()
        # The per-column index makes at most m * sum_j j*C(n,j) subset
        # evaluations, and _w, _next, _turn and each row's _terms hold p
        # entries per code; charge both before allocating either. A fill
        # has m >= 1 rows, so one row's evaluations alone can refuse it,
        # before the threshold and the table sizes are computed.
        counts = list(_subset_counts(n, [(j, 0) for j in levels]))
        per_row = sum(map(mul, levels, counts))
        _budget_guard(per_row, budget, "fill evaluations per row",
                      "the derandomized fill")
        self.m = derand_threshold(spec)
        self.n = n
        self.x = (p - 1) / p
        self._omx = omx = 1.0 - self.x
        _budget_guard(self.m * per_row
                      + p * sum(comb(j, a) for j in levels
                                for a in range(spec.v[j - 1] + 1)), budget,
                      "fill evaluations and table entries", "the derandomized fill")
        self._tables = {j: success_table(self.m, j, spec.v[j - 1],
                                         level_alpha(p, j)) for j in levels}
        xpow = [self.x ** q for q in range(p + 1)]
        # Classes (level j, patterns realized a) for a = 0 .. v_j; the last
        # one of each level is satisfied. Codes are the (class k, alive
        # pattern u with j - a bits) pairs in that order, keyed k << p | u,
        # so a subset starts at the first code of its level. The u of a
        # class come, ascending, from its a realized columns, so the tables
        # hold sum_j sum_{a <= v_j} C(j, a) codes, not 2^j per level.
        self._classes, self._code, self._mask = [], [], []
        index, code_cls, code_u = {}, [], []
        bits = [1 << c for c in range(n)]
        for j, count in zip(levels, counts):
            self._code.extend([len(code_u)] * count)
            for a in range(spec.v[j - 1] + 1):
                for u in sorted((1 << j) - 1 ^ sum(realized) for realized
                                in itertools.combinations(bits[:j], a)):
                    index[len(self._classes) << p | u] = len(code_u)
                    code_cls.append(len(self._classes))
                    code_u.append(u)
                self._classes.append((j, a))
            # Ascending masks are colex order, the order of every sum.
            self._mask.extend(sorted(map(sum,
                                         itertools.combinations(bits, j))))
        self._code_cls, self._code_u = code_cls, code_u
        self._done = [a == spec.v[j - 1] for j, a in
                      map(self._classes.__getitem__, code_cls)]
        # _next[s * p + t]: the code after code s realizes its local
        # column t (0 where that column is not alive; no code leads to 0).
        self._next = array("I", [index.get((k + 1) << p | u ^ 1 << t, 0)
                                 for k, u in zip(code_cls, code_u)
                                 for t in range(p)])
        # _w[q][code], a per-code table made once here: in bucket q a code
        # with no ones yet in the row adds w * g, w being x^q if c is alive,
        # minus x^(q-1)*(1-x) per alive column after c (none at q = 0, so
        # xpow[-1] adds 0). A lone alive one before c adds -x^q * g, the
        # term of w with only c alive. Each row scales these by g.
        self._w = [[(xpow[q] if u >> q & 1 else 0.0)
                    - (u & ((1 << q) - 1)).bit_count() * xpow[q - 1] * omx
                    for u in code_u] for q in range(p)]
        self._xpow = xpow[:p]
        self.ns = self._unsat = len(self._mask)
        # Keys: past the codes come one lone key per class and one dead
        # key. _turn[q][key] is a key after a 1 at the subset's column
        # with q columns after it: a code goes to its lone key if that
        # column is still needed, that is, if _next has a code for it,
        # else to dead, and a lone key goes dead.
        # _real[bit] flags the keys that realize a pattern when the
        # subset's last column gets bit: lone keys under 0, codes whose
        # last column is still needed under 1.
        codes, lone = len(code_u), len(self._classes)
        dead = codes + lone
        lone_key = [dead if done else codes + k
                    for k, done in zip(code_cls, self._done)]
        self._turn = [[k if s else dead for k, s in
                       zip(lone_key, self._next[q::p])] + [dead] * (lone + 1)
                      for q in range(p)]
        self._real = ([False] * codes + [True] * lone + [False],
                      [k != dead for k in self._turn[0]])
        # Per-column index: _hits[c][q] lists, ascending, the subsets that
        # contain c and have q columns after it. Descending combinations
        # come in descending mask order, column c at place q: fill, reverse.
        self._hits = hits = [[[] for _ in range(p)] for _ in range(n)]
        i = len(self._mask)
        for j in reversed(levels):
            for S in itertools.combinations(range(n - 1, -1, -1), j):
                i -= 1
                for q, c in enumerate(S):
                    hits[c][q].append(i)
        for bucket in itertools.chain.from_iterable(hits):
            bucket.reverse()
        self._key = list(self._code)
        # Columns whose index still lists a subset that became satisfied.
        self._stale = 0
        # A greedy difference d within this slack resolves to bit 0; it
        # absorbs summation-order noise so exact ties do so reproducibly.
        self._tie_tol = 1e-12 * max(1, self.ns)
        self.r = self.c = self.row_bits = 0
        self.rows = []
        self._load_row()
        # A level's subsets all start at f(m, v_j, j): one product a level.
        # reduce, not sum: from Python 3.12 sum() of floats is compensated.
        self.expectation = reduce(add, [
            count * self._tables[j][self.m][spec.v[j - 1]]
            for j, count in zip(levels, counts)], 0)

    def _load_row(self):
        """Tabulate the terms of the current row, rem rows after it, from
        g = f(rem, need-1, pool-1) - f(rem, need, pool) of each class, two
        neighbours on its level's success table: _terms[q][key] is w * g
        for a code, -x^q * g for a class's lone key and 0.0 for dead."""
        rem = self.m - self.r - 1
        g = [0.0] * len(self._classes)
        for k, (j, a) in enumerate(self._classes):
            need = self.spec.v[j - 1] - a
            if need > 0:
                # The table holds exact zeros where need > rem, so no
                # boundary cases remain.
                row = self._tables[j][rem]
                g[k] = row[need - 1] - row[need]
        gc = list(map(g.__getitem__, self._code_cls))
        self._terms = terms = []
        for w, xq in zip(self._w, self._xpow):
            t = list(map(mul, w, gc))
            t += [-xq * gk for gk in g]
            t.append(0.0)
            terms.append(t)

    def _advance(self, count: int, bit: int = None) -> int:
        """Fix the next `count` entries, each greedily or to the forced
        `bit`, with the fill state in locals; return the last bit."""
        n, p, x, omx = self.n, self.spec.p, self.x, self._omx
        masks, code, key = self._mask, self._code, self._key
        hits, nxt, done = self._hits, self._next, self._done
        turn, (real0, real1) = self._turn, self._real
        terms = self._terms
        tie, floor = self._tie_tol, self.ns - 1
        forced = bit is not None
        r, c, rb = self.r, self.c, self.row_bits
        e, stale, unsat = self.expectation, self._stale, self._unsat
        try:
            for _ in range(count):
                cbit = 1 << c
                buckets = hits[c]
                if stale & cbit:
                    buckets = hits[c] = [[i for i in b if not done[code[i]]]
                                         for b in buckets]
                    stale ^= cbit
                d = 0.0
                for b, tq in zip(buckets, terms):
                    for i in b:
                        d += tq[key[i]]
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
                    for q in range(1, p):
                        tq = turn[q]
                        for i in buckets[q]:
                            key[i] = tq[key[i]]
                # Bucket 0's subsets end at c: the chosen bit's realizers.
                real = real1 if bit else real0
                for i in buckets[0]:
                    if real[key[i]]:
                        mask = masks[i]
                        # The realized column is the t-th of S from the end.
                        t = (mask >> (rb & mask).bit_length()).bit_count()
                        s = code[i] = nxt[code[i] * p + t]
                        if done[s]:
                            stale |= mask
                            unsat -= 1
                c += 1
                if c == n:
                    self.rows.append(rb)
                    key[:] = code
                    rb = c = 0
                    r += 1
                    if r < self.m:
                        self.r = r
                        self._load_row()
                        terms = self._terms
        finally:
            self.r, self.c, self.row_bits = r, c, rb
            self.expectation, self._stale, self._unsat = e, stale, unsat
        return bit

    def step(self, bit: int = None) -> int:
        """Fix the next entry and return the bit used. With bit=None the
        choice is greedy, and a step that leaves the expectation at most
        #subsets - 1 raises PrecisionFault (the proof's invariant), whether
        it was above that before or not. A forced bit is a replay/testing
        hook exempt from the check."""
        if self.r >= self.m:
            raise InputError("matrix already complete")
        return self._advance(1, bit)

    def run(self) -> BitMatrix:
        while self.r < self.m:
            if self.c == 0 and self._unsat == 0:
                # Every later d is exactly 0.0, so every later bit is 0.
                self.rows += [0] * (self.m - self.r)
                self.r = self.m
            else:
                self._advance(self.n - self.c)
        return BitMatrix(self.n, self.rows)


def sample_random_matrix(m: int, n: int, p: int, seed: int) -> BitMatrix:
    """m x n matrix with i.i.d. entries, zero with probability (p-1)/p.

    Entries are drawn row-major (column-ascending), so a seed pins the
    whole matrix. The m·n draws are written straight into the matrix
    text, one 0 or 1 per entry, n to a row line; the row and column views
    are read from that text when first used.
    """
    if m < 1 or n < 1 or p < 1:
        raise InputError("m, n, p must be positive")
    x = (p - 1) / p
    draw = random.Random(seed).random
    flags = bytes([draw() >= x for _ in range(m * n)]).translate(_TO_DIGITS).decode()
    text = "\n".join([flags[i:i + n] for i in range(0, m * n, n)])
    return BitMatrix._from_text(m, n, text)


def construct_randomized(spec: SuperSelectorSpec, seed: int,
                         max_attempts: int = 100,
                         budget: int = DEFAULT_SUBSET_BUDGET) -> tuple:
    """Sample threshold-size matrices (attempt i uses seed + i) until one
    passes the exhaustive check; returns (matrix, attempts used)."""
    if max_attempts < 1:
        raise InputError("max_attempts must be >= 1")
    # Each check visits sum_j C(n,j) subsets; refuse before sampling.
    _budget_guard(sum(_subset_counts(spec.n, [(j, 0) for j in spec.levels()])),
                  budget)
    m = derand_threshold(spec)
    for attempt in range(max_attempts):
        M = sample_random_matrix(m, spec.n, spec.p, seed + attempt)
        if is_superselector(M, spec, budget):
            return M, attempt + 1
    raise ConstructionFailure(max_attempts)


def construct_derandomized(spec: SuperSelectorSpec,
                           budget: int = DEFAULT_SUBSET_BUDGET) -> BitMatrix:
    """Deterministic threshold-size construction by conditional
    expectations; the fill checks the proof's invariant at every greedy
    entry, and the finished matrix is verified by brute force."""
    state = DerandState(spec, budget=budget)
    M = state.run()
    if not is_superselector(M, spec, budget):
        raise PrecisionFault("verification failed on the finished matrix")
    return M
