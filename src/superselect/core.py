"""Bit matrices over {0,1}: column sums, coverage, identification, and
exhaustive verification of selector-type properties.

A matrix row is stored as a Python int whose bit c is the entry M[r,c].
Each matrix also carries one column view, `BitMatrix.cols` (an int per
column whose bit r is M[r,c]), built on first use and then cached; the
verifiers and the decoders share it.

The exhaustive selector checks walk the j-sets of columns of that view
depth first, carrying the rows the current prefix hits once and more
than once. A level j then costs C(n,j) subsets times O(j) word
operations, with no per-subset scan of the m rows, which keeps the
verifiers usable at desk scale.

Identification (`identify`) works on the same view from the mask of
rows an observation hits: the candidates are the columns inside that
mask, and a candidate is identified when it owns a row no other
candidate hits. A call costs O(n + |candidates|) word operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
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

    v_i = 0 means level i carries no constraint.
    """

    n: int
    p: int
    v: tuple

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(int(t) for t in self.v))
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
    if not 1 <= k <= p:
        raise InputError(f"need 1 <= k <= p, got k={k}, p={p}")
    return SuperSelectorSpec(n, p, (0,) * (p - 1) + (k,))


class BitMatrix:
    """Immutable m x n binary matrix. rows[r] holds row r, bit c = M[r,c]."""

    __slots__ = ("m", "n", "rows", "_cols")

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
        self.rows = rows
        self._cols = None

    @property
    def cols(self) -> tuple:
        """Column view, built on first use: cols[c] has bit r = M[r,c]."""
        if self._cols is None:
            self._cols = _columns(self)
        return self._cols

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[int]]) -> "BitMatrix":
        if not entries:
            raise InputError("matrix dimensions must be positive")
        n = len(entries[0])
        rows = []
        for row in entries:
            if len(row) != n:
                raise InputError("ragged rows")
            bits = 0
            for c, e in enumerate(row):
                if e not in (0, 1):
                    raise InputError(f"entry {e!r} is not a bit")
                bits |= e << c
            rows.append(bits)
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

    def column(self, c: int) -> tuple:
        """Column c as a length-m 0/1 tuple."""
        if not 0 <= c < self.n:
            raise InputError(f"column {c} out of range")
        return tuple((row >> c) & 1 for row in self.rows)

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


def row_mask(a: Sequence[int]) -> int:
    """Mask of the rows r where a[r] is nonzero."""
    try:
        raw = bytes(a)
    except (TypeError, ValueError):
        raw = b""
    if len(raw) != len(a):
        # Entries outside 0..255 or not integers, or a buffer of items
        # wider than a byte: only the truth of each entry counts.
        raw = bytes(map(bool, a))
    return int(raw.translate(_TO_DIGITS)[::-1], 2)


def row_vector(mask: int, m: int) -> tuple:
    """The length-m 0/1 tuple whose entry r is bit r of mask."""
    return tuple(format(mask, f"0{m}b")[::-1].encode().translate(_TO_BITS))


def boolean_sum(M: BitMatrix, S: Iterable[int]) -> tuple:
    """Componentwise OR of the columns in S; empty S gives the zero vector."""
    S = tuple(S)
    column_mask(S, M.n)
    cols = M.cols
    hit = 0
    for c in S:
        hit |= cols[c]
    return row_vector(hit, M.m)


def arithmetic_sum(M: BitMatrix, S: Iterable[int]) -> tuple:
    """Componentwise integer sum of the columns in S."""
    mask = column_mask(S, M.n)
    return tuple((row & mask).bit_count() for row in M.rows)


def is_covered(x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff x <= y componentwise."""
    if len(x) != len(y):
        raise InputError(f"length mismatch: {len(x)} vs {len(y)}")
    return all(a <= b for a, b in zip(x, y))


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


def covered_columns(M: BitMatrix, a: Sequence[int]) -> tuple:
    """Columns whose every 1 sits in a row where a is nonzero.

    Works for Boolean and arithmetic observations alike: a binary column
    is componentwise <= a exactly when it avoids all rows with a[r] = 0.
    """
    if len(a) != M.m:
        raise InputError(f"observation length {len(a)} != m={M.m}")
    return identify(M.cols, row_mask(a))[1]


def count_identity_rows(M: BitMatrix, S: Iterable[int]) -> int:
    """Number of distinct unit rows of I_|S| present in M restricted to S.

    Duplicated unit rows count once; equivalently, the number of columns
    of S owning a row where they hold the only 1 within S.
    """
    S = tuple(S)
    if column_mask(S, M.n) == 0:
        raise InputError("S must be nonempty")
    # With every row hit, each column of S is a candidate, and identify
    # keeps those owning a row no other column of S hits.
    cols = M.cols
    return len(identify([cols[c] for c in S], -1)[0])


def _budget_guard(checks: int, budget: int):
    if checks > budget:
        raise BudgetError(
            f"{checks} subset checks exceed the budget of {budget}; "
            "brute-force verification is desk scale only"
        )


def _columns(M: BitMatrix) -> tuple:
    """Transpose M into its column view; `BitMatrix.cols` caches it."""
    cols = [0] * M.n
    for r, row in enumerate(M.rows):
        bit = 1 << r
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(cols)


def _selector_holds(cols: tuple, j: int, k: int) -> bool:
    # Unguarded kernel shared by the verifiers: every j-set of columns has
    # >= k isolated columns (columns owning a row where they hold the only
    # 1 within the set). The j-sets are visited depth first in the order
    # of itertools.combinations. A prefix carries `hit`, the rows it hits
    # (once | multi), and `alone`, the nonzero cols[a] & once of its
    # columns a, where `once` is the rows it hits exactly once. Adding
    # column x keeps y & ~x of each y in `alone` and appends x & ~hit.
    n = len(cols)

    def extend(start, depth, hit, alone):
        free = ~hit
        if depth == j - 1:
            for c in range(start, n):
                x = cols[c]
                need = k - 1 if x & free else k
                if need:
                    nx = ~x
                    for y in alone:
                        if y & nx:
                            need -= 1
                            if not need:
                                break
                    else:
                        return False
            return True
        for a in range(start, n - j + depth + 1):
            x = cols[a]
            nx = ~x
            nxt = [z for y in alone if (z := y & nx)]
            if x & free:
                nxt.append(x & free)
            if not extend(a + 1, depth + 1, hit | x, nxt):
                return False
        return True

    return extend(0, 0, 0, [])


def is_selector(
    M: BitMatrix, p: int, k: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> bool:
    """Exhaustive check: every p-column set keeps >= k distinct unit rows."""
    if not 1 <= k <= p:
        raise InputError(f"need 1 <= k <= p, got k={k}, p={p}")
    if p > M.n:
        raise InputError(f"p={p} exceeds n={M.n}")
    _budget_guard(comb(M.n, p), budget)
    return _selector_holds(M.cols, p, k)


def is_superselector(
    M: BitMatrix, spec: SuperSelectorSpec, budget: int = DEFAULT_SUBSET_BUDGET
) -> bool:
    """Exhaustive check of every constrained level of the spec."""
    if spec.n != M.n:
        raise InputError(f"spec width {spec.n} != matrix width {M.n}")
    levels = spec.levels()
    _budget_guard(sum(comb(M.n, j) for j in levels), budget)
    return all(_selector_holds(M.cols, j, spec.v[j - 1]) for j in levels)


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
    _budget_guard(comb(M.n, d), budget)
    cols = M.cols
    for S in itertools.combinations(cols, d):
        hit = 0
        for x in S:
            hit |= x
        if len(identify(cols, hit)[1]) >= d + l:
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


# Deletes 0 and 1, leaving the characters a matrix row may not hold.
_NOT_BITS = str.maketrans("", "", "01")


def _is_digits(token: str) -> bool:
    """Whether token is one or more ASCII digits: the check every integer
    field of the three formats passes (one leading '-' removed where a
    range message reports negatives). str.isdigit alone takes superscript
    digits, which int() rejects; int() takes '_', '+' and non-ASCII digits."""
    return token.isascii() and token.isdigit()


def _lines(text: str) -> list:
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_matrix(text: str, source: str = "<matrix>") -> BitMatrix:
    lines = _lines(text)
    if not lines or not lines[0].strip():
        raise ParseError(source, 1, "missing 'm n' header")
    head = lines[0].split()
    if len(head) != 2 or not all(map(_is_digits, head)):
        raise ParseError(source, 1, f"bad header {lines[0]!r}, expected 'm n'")
    m, n = int(head[0]), int(head[1])
    if m < 1 or n < 1:
        raise ParseError(source, 1, "dimensions must be positive")
    rows = []
    for r in range(m):
        ln = r + 2
        if ln - 1 >= len(lines):
            raise ParseError(source, ln, f"expected {m} rows, file ends early")
        raw = lines[ln - 1]
        if len(raw) != n:
            raise ParseError(source, ln, f"row has {len(raw)} characters, expected {n}")
        # int(_, 2) would also take "_", spaces and non-ASCII digits, so
        # every character other than 0 and 1 is rejected first.
        bad = raw.translate(_NOT_BITS)
        if bad:
            raise ParseError(source, ln, f"invalid character {bad[0]!r}")
        rows.append(int(raw[::-1], 2))
    for extra in range(m + 1, len(lines)):
        if lines[extra].strip():
            raise ParseError(source, extra + 1, "trailing content after matrix")
    return BitMatrix(n, rows)


def format_matrix(M: BitMatrix) -> str:
    width = f"0{M.n}b"
    return f"{M.m} {M.n}\n" + "".join(
        format(row, width)[::-1] + "\n" for row in M.rows
    )


def parse_spec(text: str, source: str = "<spec>") -> SuperSelectorSpec:
    lines = _lines(text)
    if not lines or not lines[0].strip():
        raise ParseError(source, 1, "missing 'n p' header")
    head = lines[0].split()
    if len(head) != 2 or not all(map(_is_digits, head)):
        raise ParseError(source, 1, f"bad header {lines[0]!r}, expected 'n p'")
    n, p = int(head[0]), int(head[1])
    if len(lines) < 2 or not lines[1].strip():
        raise ParseError(source, 2, "missing v line")
    parts = lines[1].split()
    if len(parts) != p:
        raise ParseError(source, 2, f"expected {p} values, got {len(parts)}")
    if not all(_is_digits(t.removeprefix("-")) for t in parts):
        raise ParseError(source, 2, f"non-integer entry in {lines[1]!r}")
    try:
        return SuperSelectorSpec(n, p, tuple(map(int, parts)))
    except InputError as exc:
        raise ParseError(source, 2, str(exc))


def format_spec(spec: SuperSelectorSpec) -> str:
    return f"{spec.n} {spec.p}\n" + " ".join(str(t) for t in spec.v) + "\n"


def parse_vector(text: str, source: str = "<vector>") -> tuple:
    values = []
    for ln, raw in enumerate(_lines(text), start=1):
        s = raw.strip()
        if not s:
            continue
        if not _is_digits(s.removeprefix("-")):
            raise ParseError(source, ln, f"non-integer line {raw!r}")
        val = int(s)
        if val < 0:
            raise ParseError(source, ln, "vector entries must be nonnegative")
        values.append(val)
    if not values:
        raise ParseError(source, 1, "empty vector")
    return tuple(values)


def format_vector(vec: Sequence[int]) -> str:
    return "\n".join(str(int(t)) for t in vec) + "\n"
