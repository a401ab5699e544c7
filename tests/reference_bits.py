"""Frozen reference for the differential 0/1 reader tests: `row_mask`
as `superselect.core` had it, and the two codec helpers `_check_bits`
and `_bits_mask` that `superselect.apps` had before the checked mode
moved into `row_mask`.

`row_mask` reads each entry by its truth and fails on an empty
sequence; `_bits_mask` first refuses any entry other than 0 or 1 with
the `InputError` the codecs raise. They are kept only so the merged
reader can be checked against them. Do not use them outside the tests.
"""

from __future__ import annotations

from typing import Sequence

from superselect import InputError

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


def _check_bits(values: Sequence[int], what: str):
    if not {0, 1}.issuperset(values):
        k, bit = next((k, bit) for k, bit in enumerate(values)
                      if bit not in (0, 1))
        raise InputError(f"{what} entry {k} is {bit!r}, not a bit")


def _bits_mask(values: Sequence[int], what: str) -> int:
    """row_mask(values) once _check_bits(values, what) passes, in one
    conversion where bytes() takes the entries and leaves only the bytes
    0 and 1. Any other entry (True and 1.0 pass, 2 or "1" do not) goes
    through _check_bits and then counts by its truth, as in row_mask.
    The length is taken first: bytes() of an int n would allocate n
    bytes, where _check_bits refuses it at once."""
    try:
        size = len(values)
        raw = bytes(values)
        bits = len(raw) == size and not raw.translate(None, b"\x00\x01")
    except (TypeError, ValueError):
        bits = False
    if not bits:
        _check_bits(values, what)
        raw = bytes(map(bool, values))
    return row_mask(raw) if raw else 0
