"""Application-level builders and codecs on top of superselectors:
group testing with bounded error, exact additive group testing, monotone
set encodings, sparse-vector compression, multi-user tracing, and
list-disjunct matrix parameters.

Each application reduces to choosing the right constraint vector; the
decoding side is always the private-1 identification from decode. The
codecs take the Boolean sum of a column set from `core.rows_hit` and
read every word and vector they are given through `core.row_mask` with
`what` set, which refuses any entry other than 0 or 1. Tracing has no
decoder of its own: `mut_decode` is `identify_from_union`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Sequence

from .core import (
    BitMatrix,
    InputError,
    SuperSelectorSpec,
    column_mask,
    identify,
    row_mask,
    row_vector,
    rows_hit,
)
from .construct import construct_derandomized
from .decode import InconsistentObservationError, identify_from_union


def approx_gt_spec(p: int, e0: int, e1: int, n: int) -> SuperSelectorSpec:
    """Spec for recovering P up to e0 false positives and e1 false
    negatives: outer level p + e0 with v_i = i - min(e0, e1) + 1,
    clamped into [0, i]."""
    if p < 1 or e0 < 0 or e1 < 0:
        raise InputError("need p >= 1 and nonnegative error budgets")
    if p + e0 > n:
        raise InputError(f"outer level {p + e0} exceeds n={n}")
    shift = min(e0, e1) - 1
    v = tuple(min(i, max(0, i - shift)) for i in range(1, p + e0 + 1))
    return SuperSelectorSpec(n, p + e0, v)


def additive_gt_spec(p: int, n: int) -> SuperSelectorSpec:
    """Spec whose matrices recover any P with |P| <= p from the
    arithmetic sum of its columns: outer level 2p, v_i = i up to
    floor(sqrt(p)), then ceil(i/2) + 1."""
    if p < 1:
        raise InputError("need p >= 1")
    if 2 * p > n:
        raise InputError(f"outer level {2 * p} exceeds n={n}")
    root = isqrt(p)
    v = tuple(i if i <= root else (i + 1) // 2 + 1 for i in range(1, 2 * p + 1))
    return SuperSelectorSpec(n, 2 * p, v)


def mut_spec(r: int, k: int, n: int) -> SuperSelectorSpec:
    """Spec for multi-user tracing: from a union of l <= r member sets,
    identify at least k (all of them when l < k).

    The union is decoded as any Boolean sum is: `mut_decode` is
    `identify_from_union`, and on a matrix that passes this spec it
    returns at least k members of the union, every member when fewer
    than k sets are active."""
    if not 1 <= k <= r:
        raise InputError(f"need 1 <= k <= r, got k={k}, r={r}")
    if 2 * r > n:
        raise InputError(f"outer level {2 * r} exceeds n={n}")
    v = tuple(range(1, k + 1)) + (k,) * (2 * r - 1 - k) + (r + 1,)
    return SuperSelectorSpec(n, 2 * r, v)


def list_disjunct_params(d: int, l: int, n: int) -> tuple:
    """Selector parameters (p, k, n) whose matrices are (d, l)-list
    disjunct: (d+l, d+1, n) when d >= l, else (2d, d+1, n)."""
    if d < 1 or l < 1:
        raise InputError("need d >= 1 and l >= 1")
    p = d + l if d >= l else 2 * d
    return (p, d + 1, n)


# Tracing decodes a union as any union is; mut_spec states its guarantee.
mut_decode = identify_from_union


def _me_level_sizes(k: int) -> tuple:
    """Outer levels of the encoding chain: 2k halving (rounded up) to 2."""
    sizes = [2 * k]
    while sizes[-1] > 2:
        sizes.append((sizes[-1] + 1) // 2)
    return tuple(sizes)


class MonotoneEncoding:
    """Monotone injective encoding of <= k-subsets of [n].

    The chain holds one matrix per level t = 2k, ceil(2k/2), ..., 2 with
    constraints v_i = floor(i/2) + 1. Encoding takes the Boolean sum of
    the still-unidentified members at each level; every level pins more
    than half of what remains, so the residual empties by the last one.
    The concatenated sums are componentwise monotone in S and invertible.
    """

    def __init__(self, n: int, k: int):
        if k < 1:
            raise InputError("need k >= 1")
        if 2 * k > n:
            raise InputError(f"chain level {2 * k} exceeds n={n}")
        self.n = n
        self.k = k
        levels = []
        for t in _me_level_sizes(k):
            spec = SuperSelectorSpec(
                n, t, tuple(i // 2 + 1 for i in range(1, t + 1))
            )
            levels.append((construct_derandomized(spec), spec))
        self.levels = tuple(levels)
        # Each level's column view and row count, in codeword order.
        self._blocks = tuple((M.cols, M.m) for M, _ in levels)
        self.total_length = sum(M.m for M, _ in levels)

    def encode(self, S: Sequence[int]) -> tuple:
        S = tuple(S)
        column_mask(S, self.n)  # rejects out-of-range and repeated members
        residual = set(S)
        if len(residual) > self.k:
            raise InputError(f"|S| = {len(residual)} exceeds k = {self.k}")
        # Once the residual is empty every later block is 0.
        word = offset = 0
        for cols, m in self._blocks:
            if not residual:
                break
            hit = rows_hit(cols, residual)
            word |= hit << offset
            offset += m
            residual.difference_update(identify(cols, hit)[0])
        if residual:
            raise RuntimeError(f"chain failed to drain {sorted(residual)}")
        return row_vector(word, self.total_length)

    def decode(self, word: Sequence[int]) -> tuple:
        """Invert encode. An entry other than 0 or 1 raises InputError. A
        word that encode gives for no set of at most k members raises
        InconsistentObservationError: it pins more than k members, or a
        level's block is not the Boolean sum of the members still
        unpinned there. With each block that sum, identify pins only
        unpinned members, as in encode, so an accepted word is encode's
        word for the set returned."""
        rest = row_mask(word, "word")
        if len(word) != self.total_length:
            raise InputError(
                f"codeword length {len(word)} != {self.total_length}"
            )
        members = set()
        blocks = []
        for cols, m in self._blocks:
            hit = rest & ((1 << m) - 1)
            rest >>= m
            # An empty block pins nothing: a zero column owns no row.
            pinned = identify(cols, hit)[0] if hit else ()
            members.update(pinned)
            blocks.append((cols, hit, pinned))
        if len(members) > self.k:
            raise InconsistentObservationError(
                f"word pins {len(members)} members, more than k = {self.k}"
            )
        residual = set(members)
        for level, (cols, hit, pinned) in enumerate(blocks):
            if rows_hit(cols, residual) != hit:
                raise InconsistentObservationError(
                    f"block {level} is not the sum of the members "
                    f"unpinned before it"
                )
            residual.difference_update(pinned)
        return tuple(sorted(members))


@lru_cache(maxsize=None)
def monotone_chain(n: int, k: int) -> MonotoneEncoding:
    """Build (once) and cache the encoding chain for (n, k)."""
    return MonotoneEncoding(n, k)


def monotone_encode(n: int, k: int, S: Sequence[int]) -> tuple:
    return monotone_chain(n, k).encode(S)


def monotone_decode(n: int, k: int, word: Sequence[int]) -> tuple:
    return monotone_chain(n, k).decode(word)


@dataclass(frozen=True)
class CompressedWord:
    """Compressed form of a sparse binary vector: the Boolean sum y of
    the support columns, plus a 2p-bit mask z selecting the true support
    inside the sorted candidate list that y determines."""

    y: tuple
    z: tuple

    @property
    def bits(self) -> tuple:
        return self.y + self.z


def _check_p(M: BitMatrix, p: int):
    """The codecs' range for p: 1 <= p and 2p <= n, else InputError."""
    if p < 1:
        raise InputError(f"need p >= 1, got p={p}")
    if 2 * p > M.n:
        raise InputError(f"2p = {2 * p} exceeds n = {M.n}: no (2p, p+1, n)-selector")


def compress(M: BitMatrix, p: int, x: Sequence[int]) -> CompressedWord:
    """Compress an n-bit vector with at most p ones to m + 2p bits.

    M must be a certified (2p, p+1, n)-selector; that caps the candidate
    list at 2p - 1 entries, so the fixed-size mask always fits. It needs
    1 <= p and 2p <= n, and a list longer than 2p shows that M is not
    such a selector: InputError. So does an entry of x other than 0 or 1.
    """
    _check_p(M, p)
    if len(x) != M.n:
        raise InputError(f"vector length {len(x)} != n={M.n}")
    mask = row_mask(x, "vector")
    if mask.bit_count() > p:
        raise InputError(f"support size {mask.bit_count()} exceeds p={p}")
    cols = M.cols
    hit = rows_hit(cols, [c for c in range(M.n) if mask >> c & 1])
    L = identify(cols, hit)[1]
    if len(L) > 2 * p:
        raise InputError(
            f"candidate list has {len(L)} entries; matrix is not a "
            f"(2p, p+1) selector for p={p}"
        )
    z = tuple(
        1 if k < len(L) and mask >> L[k] & 1 else 0 for k in range(2 * p)
    )
    return CompressedWord(row_vector(hit, M.m), z)


def decompress(M: BitMatrix, p: int, w: CompressedWord) -> tuple:
    """Invert compress: recompute the candidate list from y and read the
    support off the mask. It needs 1 <= p and 2p <= n; a p outside that,
    a part of the wrong length or an entry other than 0 or 1 raises
    InputError. A word that compress gives for no vector with at most p
    ones raises InconsistentObservationError: more than 2p candidates, a
    mask bit beyond them, more than p bits set, or a support whose
    columns do not OR to y. Otherwise compress gives w back, since the
    candidates and the mask are the same."""
    _check_p(M, p)
    if len(w.y) != M.m:
        raise InputError(f"union part has length {len(w.y)}, matrix m={M.m}")
    if len(w.z) != 2 * p:
        raise InputError(f"mask length {len(w.z)} != 2p = {2 * p}")
    cols = M.cols
    hit = row_mask((*w.y, *w.z), "word") & ((1 << M.m) - 1)
    L = identify(cols, hit)[1]
    if len(L) > 2 * p:
        raise InconsistentObservationError(
            f"union part covers {len(L)} candidates, more than 2p = {2 * p}"
        )
    support = set()
    for k, bit in enumerate(w.z):
        if not bit:
            continue
        if k >= len(L):
            raise InconsistentObservationError(
                f"mask bit {k} selects beyond the {len(L)} candidates"
            )
        support.add(L[k])
    if len(support) > p:
        raise InconsistentObservationError(
            f"mask selects {len(support)} columns, more than p = {p}"
        )
    if rows_hit(cols, support) != hit:
        raise InconsistentObservationError(
            "the selected columns do not OR to the union part"
        )
    return tuple(1 if c in support else 0 for c in range(M.n))
