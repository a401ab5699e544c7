"""Superselector constructions: random sampling with verification, and
the fully deterministic conditional-expectations fill.

The deterministic fill fixes entries in row-major order. For every
tracked column subset S it maintains the exact probability that a random
completion of the matrix still realizes enough distinct unit rows inside
M(S), and it picks each bit to maximize the sum of those probabilities.
At the threshold row count the sum starts above (number of subsets) - 1
and a greedy choice never lowers it, so it ends with every subset
satisfied; the fill checks that invariant after every entry. Entry (r, c)
can change only the subsets that contain column c, and a static
per-column index lists exactly those, so a fill costs at most
m * sum_j j*C(n,j) subset evaluations over the constrained levels j.
"""

from __future__ import annotations

import itertools
import random
from itertools import compress
from math import comb

from .core import (
    DEFAULT_SUBSET_BUDGET,
    BitMatrix,
    InputError,
    SuperSelectorSpec,
    _budget_guard,
    is_superselector,
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
            [[0.0] * (width + 1) for _ in range(k_max + 1)] for _ in range(m + 1)
        ]
        for a in range(m + 1):
            row0 = tab[a][0]
            for c in range(width + 1):
                row0[c] = 1.0
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


def _colex_combinations(n: int, j: int) -> list:
    return sorted(itertools.combinations(range(n), j), key=lambda s: s[::-1])


class DerandState:
    """Fill state of the deterministic construction.

    Entries are fixed row-major. Only the subsets S that contain the
    current column c can change at entry (r, c), so a static per-column
    index lists, for every column c, those subsets together with the
    number of columns of S after c. A step evaluates both hypotheses for
    the listed subsets only and picks the bit from their two sums; the
    untouched subsets add the same amount to both sides. A fill therefore
    does at most m * sum_j j*C(n,j) subset evaluations instead of
    m * n * #subsets.

    Per subset S the state is its column mask, the mask of its columns
    whose unit pattern no completed row has realized yet, and its class:
    (level, patterns realized so far). The shape of the current row's
    prefix over S (no ones, one lone one, dead) is read off the row's
    fixed bits, so nothing is reset between rows. The f-values a class
    needs are the same for the whole row and are looked up once per row.
    A subset that has realized enough patterns is certain to succeed and
    leaves the index.

    `expectation` is the running sum of per-subset success probabilities
    under the bits fixed so far. Each subset's current probability is the
    average of its two hypotheses weighted by Pr[entry = 0] = x, so fixing
    the bit to 0 adds (1-x)(T0 - T1) and fixing it to 1 adds x(T1 - T0),
    where T0, T1 are the hypothesis sums over the listed subsets.
    """

    def __init__(self, spec: SuperSelectorSpec, m: int = None,
                 budget: int = DEFAULT_SUBSET_BUDGET):
        self.spec = spec
        self.m = derand_threshold(spec) if m is None else m
        if self.m < 1:
            raise InputError("row count must be positive")
        n, p = spec.n, spec.p
        self.n = n
        self.x = (p - 1) / p
        self._omx = 1.0 - self.x
        levels = spec.levels()
        # The per-column index makes at most m * sum_j j*C(n,j) subset
        # evaluations; charge that before enumerating the subsets.
        _budget_guard(self.m * sum(j * comb(n, j) for j in levels), budget)
        self.cols = [S for j in levels for S in _colex_combinations(n, j)]
        self.ns = len(self.cols)
        self._tables = {
            j: FTable(self.m, j, spec.v[j - 1],
                      SampleDistribution(j, self.x)) for j in levels
        }
        self._xpow = [self.x ** q for q in range(p + 1)]
        # Classes (level j, patterns realized a) for a = 0 .. v_j; the last
        # one of each level is satisfied.
        self._classes = []
        base = {}
        for j in levels:
            base[j] = len(self._classes)
            self._classes.extend((j, a) for a in range(spec.v[j - 1] + 1))
        self._satisfied = [a == spec.v[j - 1] for j, a in self._classes]
        self._cls = [base[len(S)] for S in self.cols]
        self._live = [True] * self.ns
        # Per-column index: subsets containing c (ascending), how many of
        # their columns follow c, and the subsets whose last column is c.
        self._hits = hits = [[] for _ in range(n)]
        self._after = after = [[] for _ in range(n)]
        self._ends = [[] for _ in range(n)]
        self._mask = []
        for i, S in enumerate(self.cols):
            j = len(S)
            mask = 0
            for pos, col in enumerate(S):
                hits[col].append(i)
                after[col].append(j - pos - 1)
                mask |= 1 << col
            self._ends[S[-1]].append(i)
            self._mask.append(mask)
        self._alive = list(self._mask)
        # Columns whose index still lists a subset that became satisfied.
        self._stale = [False] * n
        self._f0 = [1.0] * len(self._classes)
        self._f1 = [1.0] * len(self._classes)
        # Ties between the two hypotheses resolve to 0; the slack absorbs
        # summation-order noise so exact ties do so reproducibly.
        self._tie_tol = 1e-12 * max(1, self.ns)
        self.r = 0
        self.c = 0
        self.row_bits = 0
        self.rows = []
        self._load_row()
        # Every subset starts at f(m, v_j, j); summed in subset order.
        self.expectation = sum([
            f for j in levels
            for f in [self._tables[j].f(self.m, spec.v[j - 1], j)] * comb(n, j)
        ])

    def _load_row(self):
        """f-values of every class for the current row: f0 = f(rem, need,
        pool) and f1 = f(rem, need-1, pool-1), rem rows after this one."""
        rem = self.m - self.r - 1
        for k, (j, a) in enumerate(self._classes):
            need = self.spec.v[j - 1] - a
            if need > 0:
                row = self._tables[j]._tab[rem]
                # need <= pool always, and the table holds exact zeros
                # where need > rem, so no boundary cases remain.
                self._f0[k] = row[need][j - a]
                self._f1[k] = row[need - 1][j - a - 1]

    def _drop_satisfied(self, c: int):
        live = self._live.__getitem__
        hits, ends = self._hits[c], self._ends[c]
        keep = list(map(live, hits))
        self._hits[c] = list(compress(hits, keep))
        self._after[c] = list(compress(self._after[c], keep))
        self._ends[c] = list(compress(ends, map(live, ends)))
        self._stale[c] = False

    def _current(self, i: int) -> float:
        """Success probability of subset i given the entries fixed so far."""
        if not self._live[i]:
            return 1.0
        k = self._cls[i]
        c, mask, alive = self.c, self._mask[i], self._alive[i]
        j, a = self._classes[k]
        unfixed = (mask >> c).bit_count()
        if unfixed == 0 or unfixed == j:
            # Row r over S is complete, or not begun: whole rows remain.
            rows = self.m - self.r - (1 if unfixed == 0 else 0)
            return self._tables[j].f(rows, self.spec.v[j - 1] - a, j - a)
        f0, f1 = self._f0[k], self._f1[k]
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
        if self._stale[c]:
            self._drop_satisfied(c)
        cbit = 1 << c
        c1 = c + 1
        rb = self.row_bits
        masks, alive, cls = self._mask, self._alive, self._cls
        f0s, f1s, xpow, omx = self._f0, self._f1, self._xpow, self._omx
        # Hypothesis sums over the subsets that contain c, inlined.
        t0 = 0.0
        t1 = 0.0
        for i, q in zip(self._hits[c], self._after[c]):
            pre = rb & masks[i]
            k = cls[i]
            f0 = f0s[k]
            if pre:
                # Two ones, or a lone one whose pattern is already
                # realized: the row is dead for S and both bits give f0.
                if pre & (pre - 1) or not pre & alive[i]:
                    continue
                xq = xpow[q]
                t0 += xq * f1s[k] + (1.0 - xq) * f0
                t1 += f0
            else:
                f1 = f1s[k]
                am = alive[i]
                if am & cbit:
                    xq = xpow[q]
                    t1 += xq * f1 + (1.0 - xq) * f0
                else:
                    t1 += f0
                if q:
                    pr = (am >> c1).bit_count() * xpow[q - 1] * omx
                    t0 += pr * f1 + (1.0 - pr) * f0
                else:
                    t0 += f0
        forced = bit is not None
        if not forced:
            bit = 0 if t0 >= t1 - self._tie_tol else 1
        before = self.expectation
        after = before + (self.x * (t1 - t0) if bit else omx * (t0 - t1))
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
        for i in self._ends[c]:
            pre = rb & masks[i]
            if pre and not pre & (pre - 1) and pre & alive[i]:
                alive[i] ^= pre
                k = cls[i] + 1
                cls[i] = k
                if sat[k]:
                    self._live[i] = False
                    for col in self.cols[i]:
                        self._stale[col] = True
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
    whole matrix.
    """
    if m < 1 or n < 1 or p < 1:
        raise InputError("m, n, p must be positive")
    x = (p - 1) / p
    rng = random.Random(seed)
    rows = []
    for _ in range(m):
        bits = 0
        for c in range(n):
            if rng.random() >= x:
                bits |= 1 << c
        rows.append(bits)
    return BitMatrix(n, rows)


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
