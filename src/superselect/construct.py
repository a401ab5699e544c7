"""Superselector constructions: random sampling with verification, and
the fully deterministic conditional-expectations fill.

The deterministic fill fixes entries in row-major order. For every
tracked column subset S, identified by its column mask, it maintains the
exact probability that a random completion of the matrix still realizes
enough distinct unit rows inside M(S), and it picks each bit to maximize
the sum of those probabilities: bit 1 exactly when the difference d of
the two hypothesis sums exceeds a tie slack. At the threshold row count
the sum starts above (number of subsets) - 1 and a greedy choice never
lowers it, so it ends with every subset satisfied; the fill checks that
invariant after every entry. Entry (r, c) can change only the subsets
that contain column c, and a static per-column index lists exactly those
by how many of their columns follow c, so a fill costs at most
m * sum_j j*C(n,j) subset evaluations over the constrained levels j.
"""

from __future__ import annotations

import itertools
import random
from math import comb

from .core import (
    DEFAULT_SUBSET_BUDGET,
    BitMatrix,
    InputError,
    SuperSelectorSpec,
    _budget_guard,
    is_superselector,
    row_mask,
)
from .sizing import SampleDistribution, derand_threshold


class ConstructionFailure(RuntimeError):
    """Randomized construction exhausted its attempts."""

    def __init__(self, attempts: int):
        super().__init__(f"no valid matrix after {attempts} attempts")
        self.attempts = attempts


class PrecisionFault(RuntimeError):
    """The derandomized construction lost its guarantee: float rounding
    broke the proof's invariant E > #subsets - 1 (at the start of the
    fill or at a greedy step), or the finished matrix failed the
    exhaustive check. The construction stops; nothing retries, and the
    CLI exits 1."""


class FTable:
    """Tabulated f(a, b, c): the probability that a rows drawn from
    `distribution` realize at least b of c designated unit patterns.

    Boundary values: f(a, 0, c) = 1; f(a, b, c) = 0 when b > a or b > c.
    Interior: f(a, b, c) = (1 - alpha*c) f(a-1, b, c)
                           + alpha*c f(a-1, b-1, c-1).
    """

    __slots__ = ("m", "width", "k_max", "distribution", "_tab")

    def __init__(self, m: int, width: int, k_max: int, distribution: SampleDistribution):
        if m < 0 or width < 1 or not 0 <= k_max <= width:
            raise InputError(
                f"bad f-table shape m={m}, width={width}, k_max={k_max}"
            )
        self.m = m
        self.width = width
        self.k_max = k_max
        self.distribution = distribution
        alpha = distribution.alpha
        tab = [
            [[1.0] * (width + 1)] + [[0.0] * (width + 1) for _ in range(k_max)]
            for _ in range(m + 1)
        ]
        for a in range(1, m + 1):
            prev = tab[a - 1]
            cur = tab[a]
            for b in range(1, k_max + 1):
                prev_b = prev[b]
                prev_b1 = prev[b - 1]
                cur_b = cur[b]
                for c in range(b, width + 1):
                    ac = alpha * c
                    cur_b[c] = (1.0 - ac) * prev_b[c] + ac * prev_b1[c - 1]
        self._tab = tab

    def f(self, a: int, b: int, c: int) -> float:
        if b <= 0:
            return 1.0
        if not 0 <= a <= self.m:
            raise InputError(f"a={a} outside [0, {self.m}]")
        if not 0 <= c <= self.width:
            raise InputError(f"c={c} outside [0, {self.width}]")
        if b > self.k_max:
            raise InputError(f"b={b} exceeds tabulated k_max={self.k_max}")
        if b > c or b > a:
            return 0.0
        return self._tab[a][b][c]


class DerandState:
    """Fill state of the deterministic construction.

    Entries are fixed row-major. Only the subsets S that contain the
    current column c can change at entry (r, c), so a static per-column
    index lists, for every column c, those subsets in p buckets: bucket q
    holds the subsets with q columns after c, so bucket 0 holds those
    whose row over S ends at c. A step sums the greedy difference
    d = T1 - T0 of the two hypotheses over the listed subsets only,
    bucket by bucket; the untouched subsets add the same to both sides.
    A fill therefore does at most m * sum_j j*C(n,j) subset evaluations
    instead of m * n * #subsets.

    A subset is identified by its column mask alone: subsets are numbered
    level by level in ascending mask order, which is colex order. Per
    subset the state is that mask, the mask of its columns whose unit
    pattern no completed row has realized yet, and its class: (level,
    patterns realized so far). The shape of the current row's prefix over
    S (no ones, one lone one, dead) is read off the row's fixed bits, so
    nothing is reset between rows. Under either bit a subset succeeds
    with probability w*f1 + (1-w)*f0, where w is the chance that the row
    realizes a new unit pattern, so it adds (w1 - w0)*g to d with
    g = f1 - f0. g is the same for a whole row and class and is looked up
    once per row. A subset that has realized enough patterns is certain
    to succeed and leaves the index.

    `expectation` is the running sum of per-subset success probabilities
    under the bits fixed so far. Each subset's current probability is the
    average of its two hypotheses weighted by Pr[entry = 0] = x, so fixing
    the bit to 1 adds x*d and fixing it to 0 adds -(1-x)*d.
    """

    def __init__(self, spec: SuperSelectorSpec,
                 budget: int = DEFAULT_SUBSET_BUDGET):
        self.spec = spec
        self.m = derand_threshold(spec)
        n, p = spec.n, spec.p
        self.n = n
        self.x = (p - 1) / p
        self._omx = 1.0 - self.x
        levels = spec.levels()
        # The per-column index makes at most m * sum_j j*C(n,j) subset
        # evaluations; charge that before enumerating the subsets.
        _budget_guard(self.m * sum(j * comb(n, j) for j in levels), budget)
        self._tables = {
            j: FTable(self.m, j, spec.v[j - 1],
                      SampleDistribution(j, self.x)) for j in levels
        }
        self._xpow = [self.x ** q for q in range(p + 1)]
        # Classes (level j, patterns realized a) for a = 0 .. v_j; the last
        # one of each level is satisfied.
        self._classes, self._cls, self._mask = [], [], []
        bits = [1 << c for c in range(n)]
        for j in levels:
            k = len(self._classes)
            self._classes.extend((j, a) for a in range(spec.v[j - 1] + 1))
            # Ascending masks are colex order, the order of `xcur` and of
            # every sum over subsets.
            masks = sorted(map(sum, itertools.combinations(bits, j)))
            self._cls.extend([k] * len(masks))
            self._mask.extend(masks)
        self._satisfied = [a == spec.v[j - 1] for j, a in self._classes]
        self.ns = len(self._mask)
        # Per-column index: _hits[c][q] lists, ascending, the subsets that
        # contain c and have q columns after it; bucket 0 holds those
        # whose last column is c.
        self._hits = hits = [[[] for _ in range(p)] for _ in range(n)]
        for i, mask in enumerate(self._mask):
            q = mask.bit_count()
            while mask:
                low = mask & -mask
                mask ^= low
                q -= 1
                hits[low.bit_length() - 1][q].append(i)
        self._alive = list(self._mask)
        # Columns whose index still lists a subset that became satisfied.
        self._stale = 0
        self._g = [0.0] * len(self._classes)
        # A greedy difference d within this slack resolves to bit 0; it
        # absorbs summation-order noise so exact ties do so reproducibly.
        self._tie_tol = 1e-12 * max(1, self.ns)
        self.r = self.c = self.row_bits = 0
        self.rows = []
        self._load_row()
        # Every subset starts at f(m, v_j, j); summed in subset order.
        self.expectation = sum([
            f for j in levels
            for f in [self._tables[j].f(self.m, spec.v[j - 1], j)] * comb(n, j)
        ])

    def _load_row(self):
        """g = f(rem, need-1, pool-1) - f(rem, need, pool) of every
        unsatisfied class for the current row, rem rows after this one."""
        rem = self.m - self.r - 1
        for k, (j, a) in enumerate(self._classes):
            need = self.spec.v[j - 1] - a
            if need > 0:
                row = self._tables[j]._tab[rem]
                # need <= pool always, and the table holds exact zeros
                # where need > rem, so no boundary cases remain.
                self._g[k] = row[need - 1][j - a - 1] - row[need][j - a]

    def _drop_satisfied(self, c: int):
        sat, cls = self._satisfied, self._cls
        self._hits[c] = [[i for i in bucket if not sat[cls[i]]]
                         for bucket in self._hits[c]]
        self._stale &= ~(1 << c)

    def _current(self, i: int) -> float:
        """Success probability of subset i given the entries fixed so far."""
        k = self._cls[i]
        if self._satisfied[k]:
            return 1.0
        c, mask, alive = self.c, self._mask[i], self._alive[i]
        j, a = self._classes[k]
        need = self.spec.v[j - 1] - a
        table = self._tables[j]
        unfixed = (mask >> c).bit_count()
        if unfixed == 0 or unfixed == j:
            # Row r over S is complete, or not begun: whole rows remain.
            rows = self.m - self.r - (1 if unfixed == 0 else 0)
            return table.f(rows, need, j - a)
        rem = self.m - self.r - 1
        f0 = table.f(rem, need, j - a)
        f1 = table.f(rem, need - 1, j - a - 1)
        pre = self.row_bits & mask
        if not pre:
            pr = (alive >> c).bit_count() * self._xpow[unfixed - 1] * self._omx
            return pr * f1 + (1.0 - pr) * f0
        if pre & (pre - 1) or not pre & alive:
            return f0
        xq = self._xpow[unfixed]
        return xq * f1 + (1.0 - xq) * f0

    @property
    def xcur(self) -> list:
        """Per tracked subset, its success probability given the entries
        fixed so far (derived from the state on each access)."""
        return [self._current(i) for i in range(self.ns)]

    def step(self, bit: int = None) -> int:
        """Fix the next entry and return the bit used. With bit=None the
        choice is greedy, and a step that takes the expectation from above
        #subsets - 1 to at most that raises PrecisionFault (the proof's
        invariant). A forced bit is a replay/testing hook exempt from the
        check."""
        if self.r >= self.m:
            raise InputError("matrix already complete")
        c = self.c
        cbit = 1 << c
        if self._stale & cbit:
            self._drop_satisfied(c)
        c1 = c + 1
        rb = self.row_bits
        masks, alive, cls = self._mask, self._alive, self._cls
        g, xpow, omx = self._g, self._xpow, self._omx
        # d = T1 - T0 over the subsets that contain c, inlined and summed
        # bucket by bucket: each adds (w1 - w0) * g, w the chance of a new
        # unit pattern in this row, with q columns of S after c.
        d = 0.0
        for q, bucket in enumerate(self._hits[c]):
            xq = xpow[q]
            # Bucket 0 has no alive column after c: its xpow[-1] term is 0.
            xq1 = xpow[q - 1]
            for i in bucket:
                pre = rb & masks[i]
                if pre:
                    # Two ones, or a lone one whose pattern is already
                    # realized: the row is dead for S and both bits agree.
                    if pre & (pre - 1) or not pre & alive[i]:
                        continue
                    # Bit 1 kills the lone one; bit 0 keeps it with x^q.
                    d -= xq * g[cls[i]]
                else:
                    am = alive[i]
                    w = xq if am & cbit else 0.0
                    w -= (am >> c1).bit_count() * xq1 * omx
                    d += w * g[cls[i]]
        forced = bit is not None
        if not forced:
            bit = 0 if d <= self._tie_tol else 1
        before = self.expectation
        after = before + (self.x * d if bit else -omx * d)
        floor = self.ns - 1
        if not forced and before > floor >= after:
            raise PrecisionFault(
                f"expectation fell to {after} <= {floor} at entry "
                f"({self.r},{c}), from {before}"
            )
        self.expectation = after
        if bit:
            rb |= cbit
            self.row_bits = rb
        # Row over S complete: a lone one at an unrealized column realizes it.
        sat = self._satisfied
        for i in self._hits[c][0]:
            pre = rb & masks[i]
            if pre and not pre & (pre - 1) and pre & alive[i]:
                alive[i] ^= pre
                k = cls[i] + 1
                cls[i] = k
                if sat[k]:
                    self._stale |= masks[i]
        self.c = c1
        if c1 == self.n:
            self.rows.append(rb)
            self.row_bits = 0
            self.c = 0
            self.r += 1
            if self.r < self.m:
                self._load_row()
        return bit

    def run(self) -> BitMatrix:
        while self.r < self.m:
            self.step()
        return BitMatrix(self.n, self.rows)


def sample_random_matrix(m: int, n: int, p: int, seed: int) -> BitMatrix:
    """m x n matrix with i.i.d. entries, zero with probability (p-1)/p.

    Entries are drawn row-major (column-ascending), so a seed pins the
    whole matrix. A row is collected as its n flags and converted to an
    int once, so it costs O(n) word work.
    """
    if m < 1 or n < 1 or p < 1:
        raise InputError("m, n, p must be positive")
    x = (p - 1) / p
    draw = random.Random(seed).random
    return BitMatrix(n, [row_mask([draw() >= x for _ in range(n)])
                         for _ in range(m)])


def construct_randomized(spec: SuperSelectorSpec, seed: int,
                         max_attempts: int = 100,
                         budget: int = DEFAULT_SUBSET_BUDGET) -> tuple:
    """Sample threshold-size matrices (attempt i uses seed + i) until one
    passes the exhaustive check; returns (matrix, attempts used)."""
    if max_attempts < 1:
        raise InputError("max_attempts must be >= 1")
    # Each check visits sum_j C(n,j) subsets; refuse before sampling.
    _budget_guard(sum(comb(spec.n, j) for j in spec.levels()), budget)
    m = derand_threshold(spec)
    for attempt in range(max_attempts):
        M = sample_random_matrix(m, spec.n, spec.p, seed + attempt)
        if is_superselector(M, spec, budget):
            return M, attempt + 1
    raise ConstructionFailure(max_attempts)


def construct_derandomized(spec: SuperSelectorSpec,
                           budget: int = DEFAULT_SUBSET_BUDGET) -> BitMatrix:
    """Deterministic threshold-size construction by conditional
    expectations; verifies its own output by brute force."""
    state = DerandState(spec, budget=budget)
    # At the threshold the expected failure mass is below one, so the
    # greedy fill cannot strand any subset.
    if not state.expectation > state.ns - 1:
        raise PrecisionFault(
            f"initial expectation {state.expectation} does not clear "
            f"{state.ns - 1}"
        )
    M = state.run()
    if not is_superselector(M, spec, budget):
        raise PrecisionFault("verification failed on the finished matrix")
    return M
