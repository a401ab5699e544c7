"""Bit matrices over {0,1}: column sums, coverage, identification, and
exhaustive verification of selector-type properties.

A matrix row is stored as a Python int whose bit c is the entry M[r,c].
A matrix is also its canonical text: the m row lines that
`format_matrix` writes after its header, joined by LF. A matrix from
`parse_matrix` starts from that text and one built from rows makes it on
first use. Both views are read from it, each on first use and then
cached: the rows as n-character slices and the column view,
`BitMatrix.cols` (an int per column whose bit r is M[r,c]), as
stride-(n+1) slices of the text reversed, so a reader of one view never
pays for the other and the verifiers and the decoders share one.

Two columns have an isolated one exactly when they differ, so distinct
columns decide level 2 at k = 1 and a repeated column fails any k
there. The other selector checks walk the (j-2)-column prefixes of the
j-sets depth first, carrying the rows the prefix hits and, as one int,
those it hits once, and settle every completion of a prefix by two more
columns in one pass over bitsets indexed by column pairs. A column that
is not isolated is covered, and a j-set fails k exactly when some j-k+1
of its columns are covered: when the rows those columns hit once lie
inside the rows the other k-1 hit. For k in {1, 3, j-1} a prefix is
settled from that covered side, with one or two ORs of pair bitsets
and one masked compare; for any other k, and at level 2, the isolated
columns of each pair are counted, bit-sliced. The bitsets come from
per-call tables over the matrix's rows up to the last nonzero one, one
16-entry table per 4-row chunk for each kind of bitset a level reads,
built on first use. With m' those rows, a level j costs C(n, j-2)
prefixes times 1-2 ORs of O(m'/4) operations on n²-bit ints for k in
{1, 3, j-1}, and O(j·m'/4) operations for any other k, plus, once per
call, O(m') operations for the per-row bitsets and 4·m' entries per
table kind. No j-set is visited on its own. `is_superselector` walks a
level j >= 3 only when no higher constrained level implies it
(`_filled_v`, the rule the fill and the threshold also read), which
leaves its verdict unchanged.

A kept level j >= 4 with k = j asks that no column lie inside the rows
of j-1 others, the (j-1)-disjunct property of group testing. There
`_disjunct` tries first to cover each column with at most j-1 others,
branching on its lowest uncovered row over the columns with a 1 there.
At the threshold density 1/p a row has about n/p ones, so a node
branches few ways and the search visits far fewer nodes, at about 1 µs
each, than the walk's C(n, j-2) prefixes. It stops after C(n, j-2)
nodes, and the level is then walked as above. Level 3 keeps the covered
form: there the search lost 8× to the kernel's set-up and level.

The mask of rows that a set of columns hits, their Boolean sum, comes
from one routine, `rows_hit`, which ORs their entries of the column
view; `boolean_sum`, `is_list_disjunct` and every codec in `apps` call
it. Identification (`identify`) works on the same view from such a
mask: the candidates are the columns inside it, and a candidate is
identified when it owns a row no other candidate hits. A call costs
O(n + |candidates|) word operations.

A 0/1 sequence becomes a row mask through `row_mask` only: decoders of
counts read each entry by its truth, and the codecs pass `what` to have
any entry other than 0 or 1 refused by name.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce
from operator import and_, getitem, or_
from typing import Iterable, Sequence

DEFAULT_SUBSET_BUDGET = 10**8


class InputError(ValueError):
    """A caller-supplied value violates an operation's precondition."""


class BudgetError(RuntimeError):
    """Refusal to run a brute-force enumeration past the subset budget."""


class ParseError(ValueError):
    """Malformed matrix/spec/vector text, with the offending line number."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line


@dataclass(frozen=True)
class SuperSelectorSpec:
    """Target (n, p, v): the matrix must keep, for every i with v_i >= 1
    and every set S of i columns, at least v_i distinct unit rows in M(S).

    v_i = 0 means level i carries no constraint. Every field holds ints.
    """

    n: int
    p: int
    v: tuple

    def __post_init__(self):
        try:
            n, p, *v = map(int, map(operator.index, (self.n, self.p, *self.v)))
        except TypeError as exc:
            raise InputError(f"n, p and the v entries must be integers ({exc})") from None
        for name, value in (("n", n), ("p", p), ("v", tuple(v))):
            object.__setattr__(self, name, value)
        if self.p < 1 or self.n < self.p:
            raise InputError(f"need 1 <= p <= n, got p={self.p}, n={self.n}")
        if len(self.v) != self.p:
            raise InputError(f"v must have length p={self.p}, got {len(self.v)}")
        for i, vi in enumerate(self.v, start=1):
            if not 0 <= vi <= i:
                raise InputError(f"v_{i}={vi} outside [0, {i}]")

    def levels(self) -> list:
        """Subset sizes that carry a constraint (v_i >= 1), ascending."""
        return [i for i, vi in enumerate(self.v, start=1) if vi >= 1]


def selector_spec(p: int, k: int, n: int) -> SuperSelectorSpec:
    """Plain (p, k, n)-selector phrased as a one-constraint spec."""
    if not 1 <= k <= p <= n:  # p <= n before v, which has p entries
        raise InputError(f"need 1 <= k <= p <= n, got k={k}, p={p}, n={n}")
    return SuperSelectorSpec(n, p, (0,) * (p - 1) + (k,))


class BitMatrix:
    """Immutable m x n binary matrix. rows[r] holds row r, bit c = M[r,c].

    A matrix built from rows has its row view from the start and makes
    its text on first use. One that `parse_matrix` returns holds its
    checked text instead, and builds the row view from it on first use.
    """

    __slots__ = ("m", "n", "_rows", "_cols", "_text")

    def __init__(self, n: int, rows: Iterable[int]):
        rows = tuple(rows)
        if n < 1 or not rows:
            raise InputError("matrix dimensions must be positive")
        limit = 1 << n
        for r, bits in enumerate(rows):
            if not 0 <= bits < limit:
                raise InputError(f"row {r} does not fit in {n} columns")
        self.m = len(rows)
        self.n = n
        self._rows = rows
        self._cols = self._text = None

    @classmethod
    def _from_text(cls, m: int, n: int, text: str) -> "BitMatrix":
        """The matrix whose m rows of n characters from {0,1}, joined by
        LF, are `text`; the caller has checked them."""
        M = cls.__new__(cls)
        M.m, M.n, M._rows, M._cols, M._text = m, n, None, None, text
        return M

    def _body(self) -> str:
        """The row lines, row 0 first, each M[r,0] first, joined by LF."""
        if self._text is None:
            width = f"0{self.n}b"
            self._text = "\n".join([format(row, width)[::-1] for row in self._rows])
        return self._text

    # Reversed, the text lists every row reversed, last row first, n + 1
    # characters apart, so each n-character slice reads as its row's int;
    # every (n+1)-th character from n-1-c on spells column c, with row 0
    # as its lowest bit.

    @property
    def rows(self) -> tuple:
        """Row view: rows[r] has bit c = M[r,c]."""
        if self._rows is None:
            text, n = self._text[::-1], self.n
            self._rows = tuple([int(text[i:i + n], 2)
                                for i in range(len(text) - n, -1, -n - 1)])
        return self._rows

    @property
    def cols(self) -> tuple:
        """Column view, built on first use: cols[c] has bit r = M[r,c]."""
        if self._cols is None:
            text, n = self._body()[::-1], self.n
            self._cols = tuple([int(text[n - 1 - c::n + 1], 2) for c in range(n)])
        return self._cols

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[int]]) -> "BitMatrix":
        if not entries or not len(entries[0]):
            raise InputError("matrix dimensions must be positive")
        n = len(entries[0])
        rows = []
        for r, row in enumerate(entries):
            if len(row) != n:
                raise InputError("ragged rows")
            rows.append(row_mask(row, f"row {r}"))
        return cls(n, rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, [1 << c for c in range(n)])

    @classmethod
    def zeros(cls, m: int, n: int) -> "BitMatrix":
        return cls(n, [0] * m)

    def entry(self, r: int, c: int) -> int:
        if not (0 <= r < self.m and 0 <= c < self.n):
            raise InputError(f"entry ({r},{c}) out of range")
        return (self.rows[r] >> c) & 1

    def __eq__(self, other):
        return (
            isinstance(other, BitMatrix)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"BitMatrix(m={self.m}, n={self.n})"


def column_mask(S: Iterable[int], n: int) -> int:
    """OR of 1<<c over c in S, validating indices and duplicates."""
    mask = 0
    for c in S:
        if not 0 <= c < n:
            raise InputError(f"column index {c} out of range for n={n}")
        bit = 1 << c
        if mask & bit:
            raise InputError(f"duplicate column index {c}")
        mask |= bit
    return mask


# A 0/1 vector of length m and a row mask convert through one byte per
# row: bit r of the mask is character r of the reversed binary string.
_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = b"0" + b"1" * 255


def row_mask(a: Sequence[int], what: str | None = None) -> int:
    """Mask of the rows r where a[r] is nonzero; 0 for an empty a.

    With `what` set, a must hold bits: an entry other than 0 or 1 (True
    and 1.0 pass, 2 or "1" do not) raises InputError naming `what` and
    the entry's index. The length is taken before bytes(), which would
    allocate n bytes for an int n: an int is refused as not iterable."""
    try:
        size = len(a)
        raw = bytes(a)
    except (TypeError, ValueError):
        size, raw = -1, b""
    if len(raw) != size or what is not None and raw.translate(None, b"\x00\x01"):
        # Entries past 0..255, not ints or in items wider than a byte, or
        # a byte other than 0 or 1 where bits are asked for.
        if what is not None:
            for k, bit in enumerate(a):
                if bit not in (0, 1):
                    raise InputError(f"{what} entry {k} is {bit!r}, not a bit")
        raw = bytes(map(bool, a))
    return int(raw.translate(_TO_DIGITS)[::-1], 2) if raw else 0


def row_vector(mask: int, m: int) -> tuple:
    """The length-m 0/1 tuple whose entry r is bit r of mask."""
    return tuple(format(mask, f"0{m}b")[::-1].encode().translate(_TO_BITS))


def rows_hit(cols: Sequence[int], S: Iterable[int]) -> int:
    """Mask of the rows that the columns S of a column view hit: the OR
    of cols[c] over c in S, 0 for empty S. Indices are not checked."""
    hit = 0
    for c in S:
        hit |= cols[c]
    return hit


def boolean_sum(M: BitMatrix, S: Iterable[int]) -> tuple:
    """Componentwise OR of the columns in S; empty S gives the zero vector."""
    S = tuple(S)
    column_mask(S, M.n)
    return row_vector(rows_hit(M.cols, S), M.m)


def arithmetic_sum(M: BitMatrix, S: Iterable[int]) -> tuple:
    """Componentwise integer sum of the columns in S."""
    mask = column_mask(S, M.n)
    return tuple((row & mask).bit_count() for row in M.rows)


def identify(cols: Sequence[int], hit: int) -> tuple:
    """Private-1 identification from the mask of rows an observation hits.

    `cols` is a column view (`BitMatrix.cols`, or a selection of its
    entries). Returns (identified, candidates), ascending indices into
    cols: the candidates are the columns whose every 1 lies in `hit`,
    and the identified ones are the candidates owning a row that no
    other candidate hits. One pass accumulates the rows the candidates
    hit once and more than once, so a call costs O(n + |candidates|)
    word operations.
    """
    free = ~hit
    candidates = []
    seen = multi = 0
    for c, x in enumerate(cols):
        if not x & free:
            candidates.append(c)
            multi |= seen & x
            seen |= x
    once = seen & ~multi
    return tuple([c for c in candidates if cols[c] & once]), tuple(candidates)


def _subset_counts(n: int, pairs: Iterable[tuple]):
    """Yield C(n, j)·C(j, r), the ways to pick a j-set of n columns and r
    of its members, for each (j, r) of `pairs`; r = 0 gives C(n, j).

    That is the multinomial of the parts r, j - r and n - j, kept as one
    running product over all the pairs: moving one unit from a part of
    size x to one of size y multiplies it by x/(y + 1), exactly. A comb()
    per pair costs seconds once n and the levels run to thousands."""
    j0 = r0 = 0
    count = 1
    for j, r in pairs:
        while r0 > r:  # from r to j - r
            count = count * r0 // (j0 - r0 + 1)
            r0 -= 1
        while j0 < j:  # from n - j to j - r
            count = count * (n - j0) // (j0 - r0 + 1)
            j0 += 1
        while j0 > j:  # from j - r to n - j
            count = count * (j0 - r0) // (n - j0 + 1)
            j0 -= 1
        while r0 < r:  # from j - r to r
            count = count * (j0 - r0) // (r0 + 1)
            r0 += 1
        yield count


def _budget_guard(checks: int, budget: int, noun: str = "subset checks",
                  work: str = "brute-force verification"):
    if checks > budget:  # a count past 2^256 is given by its size: str() may fail
        count = checks if checks.bit_length() <= 256 else f"at least 2^{checks.bit_length() - 1}"
        raise BudgetError(f"{count} {noun} exceed the budget of {budget}; "
                          f"{work} is desk scale only")


# The selector checks ask of every j-set of columns that at least k of
# them be isolated: own a row where they hold the only 1 within the set.
# Level 1 reads the column view: a lone column is isolated when it is
# nonzero. From level 2 on, a depth-first walk visits the (j-2)-column
# prefixes of the j-sets in itertools.combinations order and settles
# every completion of a prefix by two more columns b < c in one pass, on
# bitsets over the pairs (b, c).
#
# The pair (b, c) is bit b*n + c of an n*n-bit int. The pairs of one b
# fill one n-bit block, so those with b >= start are the bits from
# start*n up, and the lowest set bit of a set of failing pairs is the
# first failing j-set in itertools.combinations order. Only the bits
# with c > b are ever set.

_LOW_NIBBLE = bytes(x & 15 for x in range(256))
_HIGH_NIBBLE = bytes(x >> 4 for x in range(256))


def _chunk_tables(sets: list) -> list:
    """Per 4-row chunk of `sets` (a multiple of 8 long), the 16 ORs of
    its entries over every subset of the chunk: entry x ORs the rows
    whose bits are set in x. Chunks are listed low nibbles first, then
    high nibbles, the order `_PairKernel._union` reads them in."""
    out = []
    for i in range(0, len(sets), 4):
        table = [0]
        for pairs in sets[i:i + 4]:
            table += [x | pairs for x in table]
        out.append(table)
    return out[0::2] + out[1::2]


def _pair_masks(n: int) -> tuple:
    """(every, slant, upper) for n >= 2: bit b*n and bit b*(n-1) for each
    b < n, and every pair b < c. Each is a geometric series in closed
    form; block b of `upper` holds ones - (2 << b) + 1, and the sum of
    those is every << n less twice the diagonal, bit b*(n+1) for each b."""
    ones = (1 << n) - 1
    every = ((1 << n * n) - 1) // ones
    slant = ((1 << n * (n - 1)) - 1) // (ones >> 1)
    diagonal = ((1 << n * (n + 1)) - 1) // ((ones << 1) | 1)
    return every, slant, (every << n) - (diagonal << 1)


class _PairKernel:
    """The level j >= 2 checks of one matrix, built on the first level
    the column view does not decide and shared by the rest of the call.

    The kernel reads M's rows up to the last nonzero one, or row 0 when
    all are zero (every check then fails at its first prefix), as they
    are: a zero row isolates nothing, and a repeated row only ORs the
    same bits in twice. Per row R it builds two pair bitsets:
    `solo`, whose low n*n bits mark where R has 1 at b and 0 at c and
    whose high n*n bits mark where R has 0 at b and 1 at c, and
    `neither`, where R is 0 at both. Level 2 settles the empty prefix
    with the OR of every row's `solo`.

    From level 3 on, `holds` walks the (j-2)-column prefixes of the
    j-sets (`_prefixes`), carrying the rows the prefix hits and `once`,
    the rows it hits exactly once, as one int. Each level reads ORs of
    one or two of the bitsets over a mask of rows, from a 16-entry
    table per 4-row chunk (`_chunk_tables`), built for the
    bitsets its form reads on first use: `differ`, the halves of `solo`
    ORed, marks where R tells b from c.

    A column that is not isolated is covered. A j-set fails k exactly
    when some j-k+1 of its columns are all covered, that is, when the
    rows those columns hit once lie inside the rows the other k-1 hit.
    For k in {1, 3, j-1}, `_covered` settles each prefix from that side
    with one or two ORs and one masked compare:

    - k = 3: the prefix is the j-2 covered columns and a pair (b, c)
      touching no prefix column is the other two; the set fails when no
      row the prefix hits once is 0 at both, which the `neither` OR over
      those rows shows.
    - k = j-1: the pair is the 2 covered columns and the prefix the
      rest; the set fails when no row the prefix misses tells b from c,
      which the `differ` OR over those rows shows.
    - k = 1: all j columns are covered when no row is hit once, so a
      pair above the prefix fails when neither OR holds it: `differ`
      over the rows the prefix misses, `neither` over those it hits once.

    The first two take every (j-2)-set as a prefix and every pair that
    touches none of its columns, below it or above. For any other k the
    covered side would visit C(j-2, j-k+1) times as many sets, and `_walk`
    counts isolated columns instead: per pair, b and c by the `solo` OR
    over the rows the prefix misses, each prefix column a by the
    `neither` OR over its `alone` rows, cols[a] & once, which only the
    walk's leaf derives, bit-sliced in `_settle`.
    """

    __slots__ = ("n", "size", "matrix", "solo", "neither", "every", "upper",
                 "full", "nbytes", "tables", "touch")

    def __init__(self, M: BitMatrix):
        n = self.n = M.n
        self.size = size = n * n
        self.matrix = M
        rows = list(M.rows)
        while len(rows) > 1 and not rows[-1]:
            rows.pop()
        # Zero rows, M's own and those padding the rows to whole bytes
        # of a row mask, have empty `solo` bitsets and isolate nothing.
        self.nbytes = (len(rows) + 7) // 8
        rows += [0] * (8 * self.nbytes - len(rows))
        self.full = (1 << len(rows)) - 1
        ones = (1 << n) - 1
        every, slant, upper = _pair_masks(n)
        self.every, self.upper = every, upper
        self.solo = solo = []
        self.neither = neither = []
        for row in rows:
            # Bit b*n for each 1 of the row at b: the copy of the row
            # at b*(n-1) puts its bit b there. Bit 0 is added apart, as
            # the only bit whose copies would meet.
            low = row & 1
            spread = (row ^ low) * slant & every | low
            at_b = spread * ones & upper
            at_c = row * every & upper
            both = at_b & at_c
            solo.append(at_b ^ both | (at_c ^ both) << size)
            neither.append(upper ^ (at_b | at_c))
        self.tables = {}
        self.touch = None

    def _tables(self, kind: str) -> list:
        """The chunk tables of the per-row bitsets `kind`, built on first
        use: "solo", "neither" or "differ"."""
        if kind not in self.tables:
            if kind == "differ":
                size, upper = self.size, self.upper
                bitsets = [s & upper | s >> size for s in self.solo]
            else:
                bitsets = getattr(self, kind)
            self.tables[kind] = _chunk_tables(bitsets)
        return self.tables[kind]

    def _union(self, tables: list, mask: int) -> int:
        """OR of the pair bitsets of the rows in mask."""
        raw = mask.to_bytes(self.nbytes, "little")
        index = raw.translate(_LOW_NIBBLE) + raw.translate(_HIGH_NIBBLE)
        return reduce(or_, map(getitem, tables, index))

    def holds(self, j: int, k: int) -> bool:
        """Every j-set (j >= 2) of columns has >= k isolated columns."""
        if j == 2:
            pair = reduce(or_, self.solo, 0)
            return self._settle(2 - k, 0, [pair, pair >> self.size])
        if k in (1, 3, j - 1):
            return self._covered(j, k)
        return self._walk(j, k)

    def _covered(self, j: int, k: int) -> bool:
        # Level j >= 3 with k in {1, 3, j-1}, from the covered side.
        union, full = self._union, self.full
        if k == 1:
            differ, neither = self._tables("differ"), self._tables("neither")

            def leaf(start, hit, once, avoid):
                told = union(differ, full ^ hit) | union(neither, once)
                return self._settle(0, start, [told])

            return self._prefixes(leaf, j, self.n - 2, 0)
        if k == j - 1:
            differ = self._tables("differ")

            def leaf(start, hit, once, avoid):
                return avoid & union(differ, full ^ hit) == avoid
        else:
            neither = self._tables("neither")

            def leaf(start, hit, once, avoid):
                return avoid & union(neither, once) == avoid

        if self.touch is None:
            # touch[a]: the pairs (a, c) and (b, a).
            n, ones, every = self.n, (1 << self.n) - 1, self.every
            self.touch = [ones << a * n | every << a for a in range(n)]
        return self._prefixes(leaf, j, self.n, self.upper)

    def _walk(self, j: int, k: int) -> bool:
        # Level j >= 3 for any k, counting isolated columns.
        solo, neither = self._tables("solo"), self._tables("neither")
        union, full, size = self._union, self.full, self.size
        cols = self.matrix.cols
        # quiet[s]: the rows with no 1 in columns s and up, which
        # isolate a prefix column from every pair with b >= s.
        quiet = [full] * (self.n + 1)
        for s in range(self.n - 1, -1, -1):
            q = quiet[s + 1]
            quiet[s] = q ^ (q & cols[s])
        picked = [0] * (j - 2)

        def leaf(start, hit, once, avoid):
            # Pair (b, c) gets one input per column that may be isolated:
            # b and c by the `solo` OR of the rows the prefix misses, each
            # prefix column by the `neither` OR over the rows it alone
            # hits. A column with a quiet row is isolated from every pair
            # and needs none. At least k of the len(alone) + 2 must hold.
            pair = union(solo, full ^ hit)
            q = quiet[start]
            picked[0] = cols[start - 1]
            alone = [y for x in picked if (y := x & once)]
            inputs = [pair, pair >> size]
            inputs += [union(neither, y) for y in alone if not y & q]
            return self._settle(len(alone) + 2 - k, start, inputs)

        return self._prefixes(leaf, j, self.n - 2, 0, picked)

    def _prefixes(self, leaf, j: int, stop: int, avoid: int, picked=None) -> bool:
        """Whether `leaf(start, hit, once, avoid)` holds at every (j-2)-set
        of the columns below `stop`, visited depth first in the order of
        itertools.combinations. `start` is one past the prefix's last
        column, `hit` the rows it hits and `once` the rows it hits
        exactly once; `avoid` starts as every pair and keeps the pairs
        (b, c) that touch no prefix column, or stays 0 when the leaf
        reads no such mask. A list `picked` of j-2 entries, if given,
        holds the prefix's columns of cols at each leaf, all but its last,
        cols[start - 1], which a leaf that asks for them stores in
        picked[0] itself."""
        cols, touch = self.matrix.cols, self.touch

        def extend(extend, left, start, hit, once, avoid):
            # A new column x takes its rows out of `once` and adds those
            # no earlier column hit, each written y ^ (y & x) so that no
            # operand is negative. `extend` is passed in, not read from
            # the enclosing scope: a closure over itself would be a cycle
            # that keeps the tables alive until the cyclic collector runs.
            for a in range(start, stop - left + 1):
                x = cols[a]
                nxt = once ^ (once & x) | x ^ (x & hit)
                rest = avoid ^ (avoid & touch[a]) if avoid else 0
                if left > 1:
                    if picked:
                        picked[left - 1] = x
                    ok = extend(extend, left - 1, a + 1, hit | x, nxt, rest)
                else:
                    ok = leaf(a + 1, hit | x, nxt, rest)
                if not ok:
                    return False
            return True

        return extend(extend, j - 2, 0, 0, 0, avoid)

    def _settle(self, spare: int, start: int, inputs: list) -> bool:
        # Whether every pair (b, c) with b >= start is held by all but at
        # most `spare` of the pair bitsets `inputs`; over[i] marks the
        # pairs with more than i misses so far, bit-sliced.
        if spare < 0:
            return False
        # The pairs with b >= start; a table per start would hold n³ bits.
        shift = start * self.n
        tail = self.upper >> shift << shift
        if not spare:
            return tail & reduce(and_, inputs) == tail
        over = [0] * (spare + 1)
        for x in inputs:
            miss = tail ^ (tail & x)
            for i in range(spare, 0, -1):
                over[i] |= over[i - 1] & miss
            over[0] |= miss
        return not over[spare]


def _disjunct(M: BitMatrix, j: int, nodes: int):
    """Whether every j-set of M's columns (j <= n) has all j isolated,
    that is, no column lies inside the rows of j-1 others; None once the
    search has visited `nodes` nodes without deciding.

    For each column x a depth-first search tries to cover cols[x] with
    at most j-1 other columns: a node takes the lowest row still
    uncovered and branches over every other column with a 1 there, so
    every cover is found and the answer is exact. A node is one call of
    `cover`; a column a node has tried is not offered to its later
    branches, whose covers with it the earlier branch has seen."""
    rows, cols = M.rows, M.cols
    spent = 0

    def cover(cover, need, left, others):
        # Whether at most `left` columns of `others`, a column mask, hit
        # every row of `need` (nonzero); None once `nodes` are spent.
        # `cover` is passed in, not read from the enclosing scope, so
        # that it holds no reference to itself.
        nonlocal spent
        spent += 1
        if spent > nodes:
            return None
        low = need & -need
        ones = rows[low.bit_length() - 1] & others
        while ones:
            bit = ones & -ones
            ones ^= bit
            others ^= bit
            x = cols[bit.bit_length() - 1]
            rest = need ^ (need & x)
            if not rest:
                return True
            if left > 1:
                found = cover(cover, rest, left - 1, others)
                if found is not False:
                    return found
        return False

    full = (1 << M.n) - 1
    for c, x in enumerate(cols):
        if not x:
            return False
        found = j > 1 and cover(cover, x, j - 1, full ^ (1 << c))
        if found is not False:
            return None if found is None else False
    return True


def _filled_v(v: tuple) -> tuple:
    """v with every implied level's v_i set to 0.

    Level i is implied when v_i <= max over j > i of v_j - (j - i): drop a
    column from a j-set and the same rows still isolate at least v_j - 1
    of the columns that remain, and p <= n, so every i-set extends to a
    j-set. Walking down from level p, `best` is that maximum.
    """
    v = list(v)
    best = 0
    for i in range(len(v) - 1, -1, -1):
        vi = v[i]
        if vi <= best:
            v[i] = 0
        best = max(best, vi) - 1
    return tuple(v)


def is_superselector(
    M: BitMatrix, spec: SuperSelectorSpec, budget: int = DEFAULT_SUBSET_BUDGET
) -> bool:
    """Exhaustive check of the spec: every j-set of columns has >= v_j
    isolated columns, at every constrained level j.

    Levels 1 and 2, when constrained, are always checked: they are the
    cheap early reject and need no chunk tables. Only v_2 = 2 on
    distinct columns builds the pair kernel there: distinct columns
    decide v_2 = 1, and a repeated column fails any v_2. From level 3
    on, only the levels `_filled_v` keeps are walked. The verdict is the
    same as walking them all: an implied level holds whenever the levels
    above it that are kept hold, since dropping a column keeps an
    isolated column isolated; and every walked level is a constrained
    one. A failing implied level is therefore reported as a failure of a
    level that implies it. The budget still charges every constrained
    level. The pair bitsets are built for the first level the column
    view does not decide, the tables a level reads when it starts. A
    walked level j >= 3 costs C(n, j-2) prefixes times 1-2 table ORs
    when v_j is 1, 3 or j-1, where the kernel counts covered columns (a
    j-set fails when j-v_j+1 of its columns have their once-hit rows
    inside the rows of the rest), and times up to j ORs and a bit-sliced
    count of isolated columns for any other v_j.

    A kept level j >= 4 with v_j = j goes first to the row-cover search
    `_disjunct`, which builds no kernel: it asks of each column whether
    j-1 others hit all its rows, and is exact. It visits at most
    C(n, j-2) nodes of 0.6-1.5 µs, against 4-7 µs per walked prefix,
    so a search that gives up costs a sixth to a quarter of a walk over
    every prefix, which then settles the level. On threshold-size
    samples of `selector_spec(p, p, n)` the search decides the level
    from (6,6,12) to (8,8,32), 15-200 times faster than the walk on
    passing samples; at p = 4 it gives up on most samples (n = 16:
    250-310 nodes against 120; n = 32: about 2,000 against 496), and at
    (5,5,20) on some."""
    if spec.n != M.n:
        raise InputError(f"spec width {spec.n} != matrix width {M.n}")
    levels = spec.levels()
    _budget_guard(sum(_subset_counts(M.n, [(j, 0) for j in levels])), budget)
    kept = _filled_v(spec.v)
    pairs = None
    for j in [j for j in levels if j <= 2 or kept[j - 1]]:
        k = spec.v[j - 1]
        if j == 1:
            ok = all(M.cols)
        elif j == 2 and (k == 1 or len(set(M.cols)) < M.n):
            # Two columns have an isolated one exactly when they differ.
            ok = k == 1 and len(set(M.cols)) == M.n
        else:
            ok = _disjunct(M, j, math.comb(M.n, j - 2)) if k == j >= 4 else None
            if ok is None:
                pairs = pairs or _PairKernel(M)
                ok = pairs.holds(j, k)
        if not ok:
            return False
    return True


def is_list_disjunct(
    M: BitMatrix, d: int, l: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> bool:
    """For all disjoint S, T with |S| = d, |T| = l: some row hits T, misses S.

    Checking |S| = d and |T| = l suffices: shrinking S only removes miss
    constraints, and the guarantee for larger T follows from any l-subset.
    A d-set S fails exactly when at least l columns outside S lie inside
    the rows S hits, that is, when `identify` over those rows finds at
    least d + l candidates (the columns of S are always among them). Each
    S costs one `identify` call, and the budget counts the C(n, d) sets S.
    """
    if d < 1 or l < 1:
        raise InputError("need d >= 1 and l >= 1")
    if d + l > M.n:
        raise InputError(f"d + l = {d + l} exceeds n = {M.n}")
    _budget_guard(next(_subset_counts(M.n, [(d, 0)])), budget)
    cols = M.cols
    for S in itertools.combinations(range(M.n), d):
        if len(identify(cols, rows_hit(cols, S))[1]) >= d + l:
            return False
    return True


# ---------------------------------------------------------------------------
# Text formats (the package's on-disk interchange).
#
# Matrix: first line "m n", then m lines of exactly n characters from {0,1}.
# Spec: line 1 "n p", line 2 the p integers v_1..v_p, space-separated.
# Vector: one integer per line.
# All parsers accept CRLF input; writers emit LF.
# ---------------------------------------------------------------------------


# Deletes 0, 1 and LF, leaving the characters the rows of a matrix, or
# their text joined by LF, may not hold.
_NOT_ROWS = str.maketrans("", "", "01\n")


def _is_digits(token: str) -> bool:
    """Whether token is one or more ASCII digits: the check every integer
    field of the three formats passes (one leading '-' removed where a
    range message reports negatives). str.isdigit alone takes superscript
    digits, which int() rejects; int() takes '_', '+' and non-ASCII digits."""
    return token.isascii() and token.isdigit()


def _int(token: str, source: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:  # past int()'s digit limit
        raise ParseError(source, line, f"integer of {len(token)} digits is too long") from None


def _lines(text: str) -> list:
    """The lines of text, every CRLF and lone CR read as LF."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _header(lines: list, source: str, label: str) -> tuple:
    """The two integers of line 1, whose fields `label` names."""
    if not lines or not lines[0].strip():
        raise ParseError(source, 1, f"missing '{label}' header")
    head = lines[0].split()
    if len(head) != 2 or not all(map(_is_digits, head)):
        raise ParseError(source, 1, f"bad header {lines[0]!r}, expected '{label}'")
    return _int(head[0], source, 1), _int(head[1], source, 1)


def parse_matrix(text: str, source: str = "<matrix>") -> BitMatrix:
    """The matrix in `text`, holding its checked rows joined by LF as its
    text, which `format_matrix` writes back after the header; each view
    is built from it when first read. The rows are checked together; the
    first bad one is found only then."""
    lines = _lines(text)
    m, n = _header(lines, source, "m n")
    if m < 1 or n < 1:
        raise ParseError(source, 1, "dimensions must be positive")
    rows = lines[1:m + 1]
    body = "\n".join(rows)
    # int(_, 2) would also take "_", spaces and non-ASCII digits, so
    # every character other than 0 and 1 is rejected first.
    if len(rows) != m or {*map(len, rows)} != {n} or body.translate(_NOT_ROWS):
        for ln, raw in enumerate(rows, start=2):
            if len(raw) != n:
                raise ParseError(source, ln, f"row has {len(raw)} characters, expected {n}")
            bad = raw.translate(_NOT_ROWS)
            if bad:
                raise ParseError(source, ln, f"invalid character {bad[0]!r}")
        raise ParseError(source, len(rows) + 2, f"expected {m} rows, file ends early")
    for extra in range(m + 1, len(lines)):
        if lines[extra].strip():
            raise ParseError(source, extra + 1, "trailing content after matrix")
    return BitMatrix._from_text(m, n, body)


def format_matrix(M: BitMatrix) -> str:
    return f"{M.m} {M.n}\n{M._body()}\n"


def parse_spec(text: str, source: str = "<spec>") -> SuperSelectorSpec:
    lines = _lines(text)
    n, p = _header(lines, source, "n p")
    if len(lines) < 2 or not lines[1].strip():
        raise ParseError(source, 2, "missing v line")
    parts = lines[1].split()
    if len(parts) != p:
        raise ParseError(source, 2, f"expected {p} values, got {len(parts)}")
    if not all(_is_digits(t.removeprefix("-")) for t in parts):
        raise ParseError(source, 2, f"non-integer entry in {lines[1]!r}")
    try:
        spec = SuperSelectorSpec(n, p, tuple(_int(t, source, 2) for t in parts))
    except InputError as exc:
        raise ParseError(source, 2, str(exc))
    for extra in range(2, len(lines)):
        if lines[extra].strip():
            raise ParseError(source, extra + 1, "trailing content after spec")
    return spec


def format_spec(spec: SuperSelectorSpec) -> str:
    return f"{spec.n} {spec.p}\n" + " ".join(str(t) for t in spec.v) + "\n"


def parse_vector(text: str, source: str = "<vector>") -> tuple:
    # LF-terminated lines of ASCII digits only, none blank, are decided
    # by one check; any other text takes the line-by-line loop.
    lines = text.split("\n")
    if lines.pop() == "" and "" not in lines and _is_digits("".join(lines)):
        try:
            return tuple(map(int, lines))
        except ValueError:  # a line past int()'s digit limit: see below
            pass
    values = []
    for ln, raw in enumerate(_lines(text), start=1):
        s = raw.strip()
        if not s:
            continue
        if not _is_digits(s.removeprefix("-")):
            raise ParseError(source, ln, f"non-integer line {raw!r}")
        val = _int(s, source, ln)
        if val < 0:
            raise ParseError(source, ln, "vector entries must be nonnegative")
        values.append(val)
    if not values:
        raise ParseError(source, 1, "empty vector")
    return tuple(values)


def format_vector(vec: Sequence[int]) -> str:
    return "\n".join(str(int(t)) for t in vec) + "\n"
