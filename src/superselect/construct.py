"""Superselector constructions: random sampling with verification, and
the fully deterministic conditional-expectations fill.

The deterministic fill fixes entries in row-major order. For every
tracked column subset S, numbered level by level in colex order, it
maintains the exact probability that a random completion of the matrix
still realizes enough distinct unit rows inside M(S), read off one
`success_table` per level, and it picks each bit to maximize the sum of
those probabilities: bit 1 exactly when the difference d of the two
hypothesis sums exceeds a tie slack. At the threshold row count
the sum starts above (number of subsets) - 1 and a greedy choice never
lowers it, so it ends with every subset satisfied; the fill checks that
invariant after every greedy entry. Entry (r, c) can change only the subsets
that contain column c, and a static per-column index lists exactly those
by how many of their columns follow c, so a fill costs at most
m * sum_j j*C(n,j) subset evaluations over the levels j that
`sizing.fill_spec` keeps: the implied levels hold once the kept ones do,
so the fill tracks none of their subsets, while the exhaustive check of
the finished matrix still judges the full spec. An unsatisfied
subset's state is a small code for its class and still-needed columns,
and a satisfied one holds the dead key for good. The fill numbers a code
only when it first reaches it, and never one of a satisfied class, so
its tables hold the unsatisfied codes reached, not every code of the
spec: (16,9,16) tracks one subset, whose class space holds 50,643 codes,
and reaches 9 of them.
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
    m * sum_j j*C(n,j) subset evaluations. The per-code tables hold p
    entries for each code the fill has reached, all of them unsatisfied,
    so at most p * sum_j sum_{a < v_j} C(j, a) each; the budget guard
    charges the evaluations plus p * sum_j sum_{a <= v_j} C(j, a) up
    front, a looser bound that also counts the satisfied codes, which
    are never numbered, and one row's evaluations alone before computing
    m or the tables.

    Subsets are numbered level by level in colex order, the order of every
    sum. Across rows a subset's state is one small int, its code. An
    unsatisfied subset's code stands for its class (level j, patterns
    realized a < v_j) and its local alive pattern: bit t set while its
    t-th column from the end is unrealized, that is, still needed. A
    satisfied subset holds the dead key instead, the fill's one terminal
    state. Within a row it also has a key, which says how the row's fixed
    bits over S stand: its code while the row has no 1 in S, the lone key
    (t, class) once the row holds one lone 1 in the still-needed column t
    of S, and one shared dead key otherwise, when the row can realize
    nothing new for S, and always once S is satisfied. There are
    K = sum_j v_j unsatisfied classes, so p * K lone keys. A subset adds
    to d one lookup, by its key, in its bucket's term table for the row:
    (w1 - w0)*g for a code, where w is the chance that the row realizes a
    new unit pattern and g = f1 - f0 is read off the level's
    `success_table` once per class and row; -x^q * g for a lone key,
    since bit 1 kills the lone one; 0.0 for dead. w1 - w0 depends on q
    and on the alive pattern from c on, so w is a per-code table for
    every bucket, and each row scales it by g.

    Codes are numbered in the order the fill first reaches them, after
    the p blocks of lone keys and the dead key, so the tables grow at the
    end: init numbers one start code per level, and a row's tables cover
    only the codes reached so far. A transition table gives the code
    after a code realizes one of its columns, or the dead key if that
    satisfies the subset, set when the code is numbered. An edge to a
    code not yet reached holds 0, a lone key's number, which no
    realization can lead to, so a next key at or below the dead key is
    the one rare case a realization tests for: the dead key satisfies
    the subset, and a lower one is a first reach. There the code is
    numbered, its entries are appended, its edges to the codes already
    numbered are filled and theirs to it are patched. That slow path
    runs once per code, and the evaluation, turn and realization loops
    do no extra work per subset.

    Keys change only where a 1 is fixed: the subsets in buckets q >= 1 of
    its column step through a table per q, a code to lone key
    (q, class) if that column is still needed, else to dead, and a lone
    key to dead. Bucket 0's subsets end at c, so a table per bit reads
    the chosen bit's realizations off it: the realized column, counted
    from the end of S, for lone key (t, class) under 0 (its t) and for a
    code whose last column is still needed under 1 (0, the column c
    itself), else None; the transition table gives each realizer's next
    code. At the row's end every key is reset to its code. A satisfied
    subset is inert: the dead key's terms are 0.0, a 1 keeps it dead and
    it realizes nothing, so it may stay listed at the cost of its
    evaluations until a rebuild of a column drops it: one scan of the
    column's buckets that keeps the subsets off the dead key. One integer
    rule decides every rebuild, the break-even rule of rent-or-buy. With
    since[c] the unsatisfied count at column c's last rebuild, about a
    share (since[c] - unsat)/since[c] of c's entries are stale, so in
    units of 1/since[c] of a scan a visit wastes since[c] - unsat and a
    scan costs since[c]. owed[c] sums that waste over c's visits since
    its last rebuild, and the visit whose own waste would bring the sum
    to a scan, owed[c] + since[c] - unsat >= since[c], that is
    owed[c] >= unsat, rebuilds instead. So a column pays about one scan
    at most in stale evaluations between two rebuilds. The rule reads
    one global count: it costs one integer test a visit and no work per
    satisfaction, and may rebuild a column none of whose subsets was
    satisfied. Once no unsatisfied subset is left, every later d is
    exactly 0.0 and `run` appends the all-zero rows.

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
        # evaluations, and _w, _next, _turn and each row's _terms can grow
        # to p entries for every unsatisfied code; charge both, the tables
        # as p entries for every code, satisfied ones too, before
        # allocating either. A fill has m >= 1 rows, so one row's
        # evaluations alone can refuse it, before the threshold and the
        # table sizes are computed.
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
        # The unsatisfied classes (level j, patterns realized a), a < v_j.
        # A satisfied subset holds the dead key for good, so no code of a
        # satisfied class is ever numbered.
        self._classes = [(j, a) for j in levels for a in range(spec.v[j - 1])]
        ncls = len(self._classes)
        # Keys: p blocks of ncls lone keys, the dead key, then the codes.
        # Lone key t * ncls + k stands for a subset of class k whose row
        # holds one 1, in its still-needed column t, the t-th of S from
        # the end. The dead key stands for a row that can realize nothing
        # new for S, and for a satisfied S in every row. A code is
        # numbered when the fill first reaches it (_add_code), so the code
        # range grows at the end and the tables hold only the codes
        # reached. The kernel's tables are indexed by key: _next (p entries
        # a key), _turn[q] and _real[bit]. _code_cls, _code_u and _w[q]
        # hold code dead + 1 + i at index i: its class, its alive pattern u
        # (bit t set while its t-th column from the end is still needed)
        # and its weight in bucket q (see _wtab).
        self._dead = dead = p * ncls
        self._code_cls, self._code_u = [], []
        self._w = [[] for _ in range(p)]
        # _next[s * p + t]: the code after code s realizes its local column
        # t, dead if that satisfies the subset, and 0, a lone key's number
        # that no realization can target, while that code is not reached.
        self._next = array("I", [0]) * (p * (dead + 1))
        # _turn[q][key] is the key after a 1 at the subset's column with q
        # columns after it: a code goes to lone key (q, class) if that
        # column is still needed, else to dead, and a lone key goes dead.
        # _real[bit][key] is the column, counted from the end of S, that
        # the key realizes when the subset's last column gets bit, or
        # None: t for lone key (t, class) under 0, and 0 under 1 for a
        # code whose last column c is still needed.
        self._turn = [[dead] * (dead + 1) for _ in range(p)]
        self._real = ([t for t in range(p) for _ in range(ncls)] + [None],
                      [None] * (dead + 1))
        # _wtab[q][alive][b]: the weight w of a code in bucket q whose
        # column there is alive or not, with b alive columns after it. A
        # code with no ones yet in the row adds w * g: x^q if its column is
        # alive, minus x^(q-1)*(1-x) per alive column after it (none at
        # q = 0, so xpow[-1] adds 0).
        self._xpow = xpow = [self.x ** q for q in range(p)]
        self._wtab = [[[(xpow[q] if alive else 0.0) - b * xpow[q - 1] * omx
                        for b in range(p)] for alive in (0, 1)]
                      for q in range(p)]
        # _index[k << p | u] is the number of code (class k, u).
        self._index = {}
        # A subset starts at its level's first code, every column needed.
        self._code, k = [], 0
        for j, count in zip(levels, counts):
            self._code += [self._add_code(k, (1 << j) - 1)] * count
            k += spec.v[j - 1]
        self.ns = self._unsat = ns = sum(counts)
        # Per-column index: _hits[c][q] lists, ascending, the subsets that
        # contain c and have q columns after it. Subsets are numbered level
        # by level in colex order; descending combinations come in reverse
        # colex order, column c at place q: fill, reverse.
        self._hits = hits = [[[] for _ in range(p)] for _ in range(n)]
        i = ns
        for j in reversed(levels):
            for S in itertools.combinations(range(n - 1, -1, -1), j):
                i -= 1
                for q, c in enumerate(S):
                    hits[c][q].append(i)
        for bucket in itertools.chain.from_iterable(hits):
            bucket.reverse()
        self._key = list(self._code)
        # Per column, _unsat at its last rebuild and the stale evaluations,
        # in units of 1/_since[c] of a scan, its visits have owed since
        # (see _advance).
        self._since = [ns] * n
        self._owed = [0] * n
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

    def _add_code(self, k: int, u: int) -> int:
        """Number the code (class k, alive pattern u), the next key: append
        its entries to every table, fill its edges to the codes already
        numbered and point theirs at it; return its number."""
        p, dead, index, nxt = self.spec.p, self._dead, self._index, self._next
        j, a = self._classes[k]
        s = dead + 1 + len(self._code_cls)
        index[k << p | u] = s
        self._code_cls.append(k)
        self._code_u.append(u)
        self._real[0].append(None)
        self._real[1].append(0 if u & 1 else None)
        if a + 1 == self.spec.v[j - 1]:
            # Any realization satisfies the subset.
            nxt.extend([dead] * p)
        else:
            up = (k + 1) << p | u
            nxt.extend([index.get(up ^ 1 << t, 0) for t in range(p)])
        if a:
            # Its predecessors: class k - 1, one more column alive.
            down = (k - 1) << p | u
            for t in range(j):
                if not u >> t & 1:
                    pred = index.get(down | 1 << t)
                    if pred is not None:
                        nxt[pred * p + t] = s
        # Bucket by bucket: the weight, and the key after a 1 (lone key
        # q * ncls + k while column q is alive).
        after, lone, ncls = 0, k, len(self._classes)
        for w, turn, (w0, w1) in zip(self._w, self._turn, self._wtab):
            if u & 1:
                w.append(w1[after])
                turn.append(lone)
                after += 1
            else:
                w.append(w0[after])
                turn.append(dead)
            u >>= 1
            lone += ncls
        return s

    def _reach(self, s: int, t: int) -> int:
        """Number the code that code s leads to by realizing its local
        column t, which the fill has just reached for the first time."""
        i = s - self._dead - 1
        return self._add_code(self._code_cls[i] + 1, self._code_u[i] ^ 1 << t)

    def _load_row(self):
        """Tabulate the terms of the current row, rem rows after it, from
        g = f(rem, need-1, pool-1) - f(rem, need, pool) of each class, all
        with need >= 1, two neighbours on its level's success table:
        _terms[q][key] is -x^q * g for each of a class's p lone keys, 0.0
        for dead and w * g for a code. A code first reached later in the
        row gets its terms with the next row: its subset ends at the column
        that reached it, so this row visits it no more."""
        rem = self.m - self.r - 1
        # The table holds exact zeros where need > rem, so no boundary
        # cases remain.
        g = []
        for j, a in self._classes:
            need = self.spec.v[j - 1] - a
            row = self._tables[j][rem]
            g.append(row[need - 1] - row[need])
        gc = list(map(g.__getitem__, self._code_cls))
        self._terms = terms = []
        for w, xq in zip(self._w, self._xpow):
            t = [-xq * gk for gk in g] * self.spec.p
            t.append(0.0)
            t += map(mul, w, gc)
            terms.append(t)

    def _advance(self, count: int, bit: int = None) -> int:
        """Fix the next `count` entries, each greedily or to the forced
        `bit`, with the fill state in locals; return the last bit."""
        n, p, x, omx = self.n, self.spec.p, self.x, self._omx
        code, key, hits = self._code, self._key, self._hits
        nxt, dead = self._next, self._dead
        since, owed = self._since, self._owed
        turn, (real0, real1) = self._turn, self._real
        terms = self._terms
        tie, floor = self._tie_tol, self.ns - 1
        forced = bit is not None
        r, c, rb = self.r, self.c, self.row_bits
        e, unsat = self.expectation, self._unsat
        try:
            for _ in range(count):
                cbit = 1 << c
                buckets = hits[c]
                # Rent or buy: this visit wastes since[c] - unsat of a scan
                # of since[c], so rebuild once that would bring the waste
                # owed since the last rebuild to one scan.
                if owed[c] >= unsat:
                    buckets = hits[c] = [[i for i in b if code[i] != dead]
                                         for b in buckets]
                    since[c], owed[c] = unsat, 0
                else:
                    owed[c] += since[c] - unsat
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
                    t = real[key[i]]
                    if t is not None:
                        s = nxt[code[i] * p + t]
                        if s <= dead:
                            if s < dead:
                                # First reach of the code S moves to.
                                s = self._reach(code[i], t)
                            else:
                                unsat -= 1
                        code[i] = s
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
            self.expectation, self._unsat = e, unsat
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
