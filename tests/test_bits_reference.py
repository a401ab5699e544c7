"""Differential tests of `core.row_mask` against the frozen reader and
codec helpers in `reference_bits.py`: in its plain mode it matches the
old `row_mask`, and with `what` set it matches the old `_bits_mask`, on
every container and odd entry the codecs and decoders have been handed.
Each case gives the same mask, or raises the same exception class with
the same message."""

from __future__ import annotations

import random
from array import array

import pytest

import reference_bits
from superselect.core import row_mask
from test_apps import ODD_ENTRIES

LENGTHS = (0, 1, 8, 300)

CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "bytes": bytes,
    "bytearray": bytearray,
    "array-b": lambda word: array("b", word),
    "str": lambda word: "".join(map(str, word)),
    "int": len,
}


def _words():
    """Random 0/1 words of each length, and each with one odd entry at
    its first or last place."""
    for size in LENGTHS:
        rng = random.Random(size)
        word = [rng.randrange(2) for _ in range(size)]
        yield word
        for value in ODD_ENTRIES:
            for k in {0, size - 1} - {-1}:
                yield word[:k] + [value] + word[k + 1:]


def _cases(make):
    """The words the container can hold, each once: bytes() refuses a
    0.5 and a str of "True" is four entries long."""
    seen = []
    for word in _words():
        try:
            a = make(word)
        except (TypeError, ValueError, OverflowError):
            continue
        if make is not len and len(a) != len(word):
            continue
        if (type(a), a) not in seen:
            seen.append((type(a), a))
            yield a


def _outcome(read, a):
    try:
        return "mask", read(a)
    except Exception as exc:  # any class: it is compared
        return type(exc), str(exc)


def _differs_on_purpose(a) -> bool:
    # The old reader failed on an empty sequence (int(b"", 2)); the new
    # one gives 0. It also sized an int n as bytes(n) before asking its
    # length, where the new one takes the length first and reads an int
    # as not iterable, the checked mode's error: a TypeError either way.
    return isinstance(a, int) or not len(a)


@pytest.mark.parametrize("container", CONTAINERS)
def test_plain_row_mask_matches_frozen_row_mask(container):
    cases = list(_cases(CONTAINERS[container]))
    assert cases
    for a in cases:
        new = _outcome(row_mask, a)
        old = _outcome(reference_bits.row_mask, a)
        if _differs_on_purpose(a):
            assert old[0] in (TypeError, ValueError)
            assert new == (("mask", 0) if old[0] is ValueError
                           else (TypeError, "'int' object is not iterable"))
        else:
            assert new == old, a


@pytest.mark.parametrize("what", ["word", "vector"])
@pytest.mark.parametrize("container", CONTAINERS)
def test_checked_row_mask_matches_frozen_bits_mask(container, what):
    cases = list(_cases(CONTAINERS[container]))
    assert cases
    for a in cases:
        assert (_outcome(lambda a: row_mask(a, what), a)
                == _outcome(lambda a: reference_bits._bits_mask(a, what), a)), a
