"""Frozen reference for the differential tests: the original row-scan
decoders and the character-at-a-time matrix text codec.

`covered_columns` and `identify_from_union` scan all m rows of the
matrix per call, `additive_decode` scans them again for every column it
pins, and `boolean_sum` tests the column mask against every row.
`monotone_encode`/`monotone_decode` and `compress`/`decompress` are the
application codecs written over those scans, the decoders with the same
word checks, and messages, as the package's. `parse_matrix` and
`format_matrix` read and write one character at a time. They are slow
and are kept only so the column-view decoders and the word-at-a-time
codec in `superselect` can be checked against them. Do not use them
outside the tests.
"""

from __future__ import annotations

from superselect import (
    BitMatrix,
    CompressedWord,
    DecodeResult,
    InconsistentObservationError,
    InputError,
    ParseError,
)
from superselect.core import column_mask


def _bits_to_columns(mask: int) -> tuple:
    cols = []
    c = 0
    while mask:
        if mask & 1:
            cols.append(c)
        mask >>= 1
        c += 1
    return tuple(cols)


def boolean_sum(M: BitMatrix, S) -> tuple:
    mask = column_mask(S, M.n)
    return tuple(1 if row & mask else 0 for row in M.rows)


def covered_columns(M: BitMatrix, a) -> tuple:
    if len(a) != M.m:
        raise InputError(f"observation length {len(a)} != m={M.m}")
    blocked = 0
    for r, row in enumerate(M.rows):
        if not a[r]:
            blocked |= row
    full = (1 << M.n) - 1
    return _bits_to_columns(full & ~blocked)


def _check_observation(M: BitMatrix, spec, a):
    if spec.n != M.n:
        raise InputError(f"spec is for n={spec.n}, matrix has n={M.n}")
    if len(a) != M.m:
        raise InputError(f"observation length {len(a)} != m={M.m}")


def identify_from_union(M: BitMatrix, spec, a) -> DecodeResult:
    _check_observation(M, spec, a)
    candidates = covered_columns(M, a)
    cand_mask = 0
    for c in candidates:
        cand_mask |= 1 << c
    ident_mask = 0
    for r, row in enumerate(M.rows):
        if not a[r]:
            continue
        z = row & cand_mask
        if z and not z & (z - 1):
            ident_mask |= z
    identified = tuple(c for c in candidates if (ident_mask >> c) & 1)
    return DecodeResult(identified, candidates,
                        len(candidates) - len(identified))


def additive_decode(M: BitMatrix, spec, s) -> tuple:
    _check_observation(M, spec, s)
    if any(e < 0 for e in s):
        raise InconsistentObservationError("negative count in observation")
    residual = list(s)
    found = set()
    for _ in range(M.n + 1):
        if not any(residual):
            return tuple(sorted(found))
        shadow = tuple(1 if e else 0 for e in residual)
        newly = identify_from_union(M, spec, shadow).identified
        if not newly:
            raise InconsistentObservationError(
                "residual nonzero but no column identifiable"
            )
        for c in newly:
            if c in found:
                raise InconsistentObservationError(
                    f"column {c} identified twice"
                )
            found.add(c)
            for r, row in enumerate(M.rows):
                if (row >> c) & 1:
                    residual[r] -= 1
                    if residual[r] < 0:
                        raise InconsistentObservationError(
                            f"residual went negative at row {r}"
                        )
    raise InconsistentObservationError("decode did not converge")


def monotone_encode(chain, S) -> tuple:
    """The chain's encoder over the row scans; S is already validated."""
    residual = set(S)
    word = []
    for M, spec in chain.levels:
        a = boolean_sum(M, sorted(residual))
        word.extend(a)
        residual -= set(identify_from_union(M, spec, a).identified)
    if residual:
        raise RuntimeError(f"chain failed to drain {sorted(residual)}")
    return tuple(word)


def monotone_decode(chain, word) -> tuple:
    """The chain's decoder over the row scans, with its checks: at most k
    members, and each block the Boolean sum of the members still
    unpinned at its level."""
    members = set()
    pinned = []
    offset = 0
    for M, spec in chain.levels:
        block = tuple(word[offset:offset + M.m])
        offset += M.m
        pinned.append(set(identify_from_union(M, spec, block).identified))
        members |= pinned[-1]
    if len(members) > chain.k:
        raise InconsistentObservationError(
            f"word pins {len(members)} members, more than k = {chain.k}"
        )
    residual = set(members)
    offset = 0
    for level, (M, _) in enumerate(chain.levels):
        if boolean_sum(M, sorted(residual)) != tuple(word[offset:offset + M.m]):
            raise InconsistentObservationError(
                f"block {level} is not the sum of the members "
                f"unpinned before it"
            )
        offset += M.m
        residual -= pinned[level]
    return tuple(sorted(members))


def compress(M: BitMatrix, p: int, x) -> CompressedWord:
    """Compress over the row scans, for 0/1 vectors of length n."""
    support = [c for c, bit in enumerate(x) if bit]
    if len(support) > p:
        raise InputError(f"support size {len(support)} exceeds p={p}")
    y = boolean_sum(M, support)
    L = covered_columns(M, y)
    if len(L) > 2 * p:
        raise InputError(
            f"candidate list has {len(L)} entries; matrix is not a "
            f"(2p, p+1) selector for p={p}"
        )
    in_support = set(support)
    z = tuple(
        1 if k < len(L) and L[k] in in_support else 0 for k in range(2 * p)
    )
    return CompressedWord(tuple(y), z)


def decompress(M: BitMatrix, p: int, w: CompressedWord) -> tuple:
    L = covered_columns(M, w.y)
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
    if boolean_sum(M, sorted(support)) != tuple(w.y):
        raise InconsistentObservationError(
            "the selected columns do not OR to the union part"
        )
    return tuple(1 if c in support else 0 for c in range(M.n))


def _lines(text: str) -> list:
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_matrix(text: str, source: str = "<matrix>") -> BitMatrix:
    lines = _lines(text)
    if not lines or not lines[0].strip():
        raise ParseError(source, 1, "missing 'm n' header")
    head = lines[0].split()
    if len(head) != 2 or not all(t.isdigit() for t in head):
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
        bits = 0
        for c, ch in enumerate(raw):
            if ch == "1":
                bits |= 1 << c
            elif ch != "0":
                raise ParseError(source, ln, f"invalid character {ch!r}")
        rows.append(bits)
    for extra in range(m + 1, len(lines)):
        if lines[extra].strip():
            raise ParseError(source, extra + 1, "trailing content after matrix")
    return BitMatrix(n, rows)


def format_matrix(M: BitMatrix) -> str:
    out = [f"{M.m} {M.n}"]
    for row in M.rows:
        out.append("".join("1" if (row >> c) & 1 else "0" for c in range(M.n)))
    return "\n".join(out) + "\n"
