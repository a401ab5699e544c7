"""Decoders for superselector observations.

From a Boolean sum of an unknown column set S, the covered columns form
a superset of S, and any row with a 1 whose only covered support is a
single column pins that column inside S. Arithmetic sums allow more: the
pinned columns can be subtracted from the observation and the residual
decoded again, which recovers S exactly on matrices built for it.

Every decoder reduces its observation to the mask of rows it hits and
calls `core.identify`, which reads the matrix's cached column view: one
identification costs O(n + |candidates|) word operations, not a pass
over the m rows. A decoder call costs one `row_mask` and one `identify`
per round (`additive_decode` runs one round per batch of pinned columns,
the others one) plus O(1) Python work, apart from `additive_decode`'s
subtraction of each pinned column one 1 at a time. `DecodeResult` is a
named tuple: immutable, and equal to the plain tuple of its fields.
"""

from __future__ import annotations

from itertools import repeat
from operator import lt
from typing import NamedTuple, Sequence

from .core import (
    BitMatrix,
    InputError,
    SuperSelectorSpec,
    identify,
    row_mask,
)


class InconsistentObservationError(InputError):
    """The observation cannot be a valid sum under the stated promise."""


class DecodeResult(NamedTuple):
    """Outcome of one identification pass.

    identified: columns provably in S (each owns a private 1).
    candidates: all covered columns, a superset of S.
    spurious_bound: candidates not pinned down, |candidates| - |identified|.
    """

    identified: tuple
    candidates: tuple
    spurious_bound: int


def _check_observation(M: BitMatrix, spec: SuperSelectorSpec, a: Sequence[int]):
    if spec.n != M.n:
        raise InputError(f"spec is for n={spec.n}, matrix has n={M.n}")
    if len(a) != M.m:
        raise InputError(f"observation length {len(a)} != m={M.m}")


def identify_from_union(M: BitMatrix, spec: SuperSelectorSpec,
                        a: Sequence[int]) -> DecodeResult:
    """Identify members of S from its Boolean sum.

    Total on arbitrary observations. When a really is a Boolean sum of
    some S with |S| < v_p and M passes the spec, at least v_{|S|+y}
    members are identified, where y counts the spurious candidates.
    """
    _check_observation(M, spec, a)
    identified, candidates = identify(M.cols, row_mask(a))
    return DecodeResult(identified, candidates,
                        len(candidates) - len(identified))


def approx_decode(M: BitMatrix, spec: SuperSelectorSpec, a: Sequence[int],
                  e0: int, e1: int) -> tuple:
    """Two-sided approximation of P from its Boolean sum.

    Returns (P_low, P_high) with P_low subset of P subset of P_high. The
    budgets e0, e1 certify the matrix family (|P_high \\ P| <= e0,
    |P \\ P_low| <= e1); they do not enter the computation.
    """
    if e0 < 0 or e1 < 0:
        raise InputError("error budgets must be nonnegative")
    _check_observation(M, spec, a)
    return identify(M.cols, row_mask(a))


def additive_decode(M: BitMatrix, spec: SuperSelectorSpec,
                    s: Sequence[int]) -> tuple:
    """Recover P exactly from its arithmetic sum.

    Each round restricts to columns componentwise below the residual,
    pins the private-1 columns, and subtracts them. On a matrix built
    for additive group testing every round clears at least half of the
    remaining members, so the loop drains the residual. On any input the
    loop ends: a round that does not raise pins at least one column not
    pinned before, so at most n + 1 rounds run.
    """
    _check_observation(M, spec, s)
    # The generator's verdict and TypeError text, without its frames;
    # min(s) < 0 would miss a -1 after a NaN.
    if any(map(lt, s, repeat(0))):
        raise InconsistentObservationError("negative count in observation")
    residual = list(s)
    found = set()
    cols = M.cols
    while hit := row_mask(residual):
        newly = identify(cols, hit)[0]
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
            # Lowest row first, so an error names the first row to go
            # negative.
            x = cols[c]
            while x:
                low = x & -x
                r = low.bit_length() - 1
                residual[r] -= 1
                if residual[r] < 0:
                    raise InconsistentObservationError(
                        f"residual went negative at row {r}"
                    )
                x ^= low
    return tuple(sorted(found))
