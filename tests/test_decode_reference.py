"""Differential tests of the column-view decoders and the word-at-a-time
matrix codec against the frozen row-scan versions in
`reference_decode.py`.

Every comparison asks for the same result, or for the same exception
class with the same message.
"""

from __future__ import annotations

import itertools
import random
from array import array
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_decode as ref
import reference_parse
from superselect import (
    BitMatrix,
    CompressedWord,
    InconsistentObservationError,
    ParseError,
    SuperSelectorSpec,
    additive_decode,
    additive_gt_spec,
    approx_gt_spec,
    arithmetic_sum,
    boolean_sum,
    compress,
    construct_derandomized,
    decompress,
    format_matrix,
    identify,
    identify_from_union,
    is_superselector,
    monotone_chain,
    mut_spec,
    parse_matrix,
    row_mask,
    selector_spec,
)


def outcome(f, *args):
    """f's result, or the class and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # the reference may raise anything
        return type(exc), str(exc)


def assert_same_decodes(M, a):
    """Every decoder gives the reference's answer on observation a."""
    spec = SuperSelectorSpec(M.n, 1, (1,))
    if len(a) == M.m:
        assert identify(M.cols, row_mask(a))[1] == ref.covered_columns(M, a)
    assert (outcome(identify_from_union, M, spec, a)
            == outcome(ref.identify_from_union, M, spec, a))
    assert (outcome(additive_decode, M, spec, a)
            == outcome(ref.additive_decode, M, spec, a))


def assert_same_on_set(M, S):
    """Sums of S, the decoders on them and on a broken arithmetic sum."""
    assert boolean_sum(M, S) == ref.boolean_sum(M, S)
    assert_same_decodes(M, boolean_sum(M, S))
    s = list(arithmetic_sum(M, S))
    assert_same_decodes(M, s)
    for r in (0, len(s) - 1):
        broken = list(s)
        broken[r] += 1
        assert_same_decodes(M, broken)
        if broken[r] > 1:
            broken[r] -= 2
            assert_same_decodes(M, broken)


# ------------------------------------------------ drawn and seeded inputs


def random_matrix(rng, n, m, density):
    return BitMatrix(n, [sum((rng.random() < density) << c for c in range(n))
                         for _ in range(m)])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 14), data=st.data())
def test_drawn_matrices_decode_like_row_scan(n, data):
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    M = BitMatrix(n, rows)
    S = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 5)))
    assert_same_on_set(M, S)
    # Observations that are no sum at all, counts above one, entries past
    # a byte and negative entries included.
    values = st.sampled_from((0, 0, 1, 1, 2, 3, 255, 256, 1000, -1))
    a = data.draw(st.lists(values, min_size=M.m, max_size=M.m))
    assert_same_decodes(M, a)
    assert_same_decodes(M, tuple(a))
    assert_same_decodes(M, a[:-1])
    # Buffers hand bytes() their raw items, one byte wide or wider.
    assert_same_decodes(M, array("q", a))
    assert_same_decodes(M, array("b", [max(-128, min(e, 127)) for e in a]))
    assert_same_decodes(M, bytes(e & 0xFF for e in a))


def test_seeded_pool_decodes_like_row_scan():
    rng = random.Random(2010)
    errors = 0
    for case in range(1500):
        n, m = rng.randint(1, 14), rng.randint(1, 20)
        M = random_matrix(rng, n, m, rng.uniform(0.05, 0.7))
        if case % 5 == 0:
            # A zero row and a zero column.
            zero = rng.randrange(n)
            rows = [row & ~(1 << zero) for row in M.rows]
            rows[rng.randrange(m)] = 0
            M = BitMatrix(n, rows)
        S = rng.sample(range(n), rng.randint(0, min(n, 5)))
        assert_same_on_set(M, S)
        a = [rng.choice((0, 0, 1, 1, 2, 5)) for _ in range(m)]
        assert_same_decodes(M, a)
        try:
            additive_decode(M, SuperSelectorSpec(n, 1, (1,)), a)
        except InconsistentObservationError:
            errors += 1
    # The pool reaches the error paths of additive_decode, not just results.
    assert errors >= 300, errors


@pytest.mark.parametrize("M", [
    BitMatrix.zeros(3, 4),
    BitMatrix.identity(1),
    BitMatrix(5, [0b11111] * 4),
    BitMatrix(6, [0, *(1 << c for c in range(6)), 0]),
], ids=["zeros", "one-column", "all-ones", "identity-plus-zero-rows"])
def test_edge_matrices_decode_like_row_scan(M):
    for j in range(min(M.n, 3) + 1):
        for S in itertools.combinations(range(M.n), j):
            assert_same_on_set(M, S)


# ------------------------------------------- the benchmark's decoder specs


DECODER_SPECS = {
    "union": (SuperSelectorSpec(16, 3, (1, 2, 3)), 2),
    "approx": (approx_gt_spec(2, 1, 1, 12), 2),
    "additive": (additive_gt_spec(2, 12), 2),
    "mut": (mut_spec(3, 2, 10), 3),
    "compress": (selector_spec(4, 3, 12), 2),
}


@lru_cache(maxsize=None)
def decoder_matrix(key):
    return construct_derandomized(DECODER_SPECS[key][0])


@pytest.mark.parametrize("key", DECODER_SPECS)
def test_decoder_specs_decode_planted_sets_like_row_scan(key):
    spec, most = DECODER_SPECS[key]
    M = decoder_matrix(key)
    for j in range(most + 1):
        for S in itertools.combinations(range(spec.n), j):
            a = boolean_sum(M, S)
            assert identify_from_union(M, spec, a) == ref.identify_from_union(M, spec, a)
            s = arithmetic_sum(M, S)
            assert (outcome(additive_decode, M, spec, s)
                    == outcome(ref.additive_decode, M, spec, s))
            if key == "additive":
                assert additive_decode(M, spec, s) == S


def _signed_observations(s):
    """Variants of the additive sum s that test the sign check: negative
    floats, -0.0, a NaN ahead of a -1, and a str before and after a
    negative count."""
    nan, last = float("nan"), len(s) - 1

    def put(changes):
        a = list(s)
        for r, e in changes.items():
            a[r] = e
        return a

    yield put({0: -0.5})
    yield put({last: -1e-300})
    yield [float(e) for e in s[:-1]] + [-2.0]
    yield put({0: -0.0})
    yield [-0.0] * len(s)
    yield [-0.0 if e == 0 else e for e in s]
    yield put({0: nan, 1: -1})
    yield put({0: nan, last: -1})
    yield put({0: nan})
    yield put({1: nan, 2: -1})
    yield put({0: "x", 1: -1})
    yield put({0: -1, 1: "x"})
    yield put({0: "1"})
    yield put({1: -1.5, last: "2"})


def test_sign_check_matches_reference():
    spec = DECODER_SPECS["additive"][0]
    M = decoder_matrix("additive")
    assert M.m >= 3
    for S in ((), (4,), (2, 9)):
        for a in _signed_observations(arithmetic_sum(M, S)):
            for obs in (a, tuple(a)):
                assert (outcome(additive_decode, M, spec, obs)
                        == outcome(ref.additive_decode, M, spec, obs)), a


# ------------------------------------------------------- application codecs


def test_monotone_chain_gives_the_row_scan_codewords():
    # Three to four levels each; every chain builds in under 0.05 s.
    for n, k in [(8, 4), (12, 3), (10, 5)]:
        _check_monotone_chain_against_row_scan(n, k)


def _check_monotone_chain_against_row_scan(n, k):
    chain = monotone_chain(n, k)
    for j in range(k + 1):
        for S in itertools.combinations(range(n), j):
            word = chain.encode(S)
            assert word == ref.monotone_encode(chain, S)
            assert chain.decode(word) == ref.monotone_decode(chain, word) == S
    # Random words, and codewords with one or two bits flipped: both
    # decoders accept the same words and reject the rest alike.
    rng = random.Random(7)
    for _ in range(300):
        word = tuple(rng.randint(0, 1) for _ in range(chain.total_length))
        assert outcome(chain.decode, word) == outcome(ref.monotone_decode, chain, word)
        word = list(chain.encode(rng.sample(range(n), rng.randint(0, k))))
        for r in rng.sample(range(chain.total_length), rng.randint(1, 2)):
            word[r] ^= 1
        assert outcome(chain.decode, word) == outcome(ref.monotone_decode, chain, word)
    # One bit flipped inside each level's block, its first and last bits
    # included, so a block read at the wrong offset decodes differently.
    offset = 0
    for M, _ in chain.levels:
        for r in {offset, offset + M.m - 1, offset + rng.randrange(M.m)}:
            for _ in range(20):
                word = list(chain.encode(rng.sample(range(n), rng.randint(0, k))))
                word[r] ^= 1
                assert (outcome(chain.decode, word)
                        == outcome(ref.monotone_decode, chain, word))
        offset += M.m


def test_compress_gives_the_row_scan_words():
    p = 2
    M = decoder_matrix("compress")
    for j in range(p + 1):
        for S in itertools.combinations(range(M.n), j):
            x = tuple(1 if c in S else 0 for c in range(M.n))
            w = compress(M, p, x)
            assert w == ref.compress(M, p, x)
            assert decompress(M, p, w) == ref.decompress(M, p, w) == x
    rng = random.Random(11)
    for _ in range(300):
        w = CompressedWord(tuple(rng.randint(0, 1) for _ in range(M.m)),
                           tuple(rng.randint(0, 1) for _ in range(2 * p)))
        assert outcome(decompress, M, p, w) == outcome(ref.decompress, M, p, w)
        x = [0] * M.n
        for c in rng.sample(range(M.n), rng.randint(0, p)):
            x[c] = 1
        bits = list(compress(M, p, x).bits)
        for r in rng.sample(range(len(bits)), rng.randint(1, 2)):
            bits[r] ^= 1
        w = CompressedWord(tuple(bits[:M.m]), tuple(bits[M.m:]))
        assert outcome(decompress, M, p, w) == outcome(ref.decompress, M, p, w)


# ----------------------------------------------------------- matrix codec


def test_codec_matches_character_codec_on_random_matrices():
    rng = random.Random(3)
    for _ in range(500):
        n, m = rng.randint(1, 70), rng.randint(1, 30)
        M = random_matrix(rng, n, m, rng.random())
        text = format_matrix(M)
        assert text == ref.format_matrix(M)
        assert parse_matrix(text) == ref.parse_matrix(text) == M
        crlf = text.replace("\n", "\r\n")
        assert parse_matrix(crlf) == M


@pytest.mark.parametrize("row", [
    "0120", "01_0", " 101", "1١01", "\t101", "1 1\t", "010", "01010", "0b10",
], ids=["two", "underscore", "leading-space", "arabic-indic-one", "tab",
        "inner-space", "short", "long", "prefix"])
def test_codec_rejects_malformed_rows_like_character_codec(row):
    lines = ["3 4", "0110", "1001", "0000"]
    for r in (1, 3):
        bad = list(lines)
        bad[r] = row
        text = "\n".join(bad) + "\n"
        with pytest.raises(ParseError) as got:
            parse_matrix(text, source="m.txt")
        with pytest.raises(ParseError) as want:
            ref.parse_matrix(text, source="m.txt")
        assert str(got.value) == str(want.value)
        assert got.value.line == want.value.line == r + 1


# ------------------------------------------------------------ column view


def test_column_view_is_the_transposition():
    rng = random.Random(5)
    for _ in range(200):
        M = random_matrix(rng, rng.randint(1, 14), rng.randint(1, 20), rng.random())
        assert M.cols == reference_parse._columns(M)
        assert all(M.cols[c] >> r & 1 == M.entry(r, c)
                   for c in range(M.n) for r in range(M.m))


def test_column_view_is_built_once_per_matrix(monkeypatch):
    # A read of the view builds it only while the cache is empty.
    calls = []
    view = BitMatrix.cols

    def counting(M):
        if M._cols is None:
            calls.append(M)
        return view.fget(M)

    monkeypatch.setattr(BitMatrix, "cols", property(counting))
    # (10,3,(1,2,2)) has zero rows between nonzero ones and reaches the
    # level-3 tables, which read the view of M itself.
    for spec in (SuperSelectorSpec(8, 2, (1, 2)), SuperSelectorSpec(10, 3, (1, 2, 2))):
        M = BitMatrix(spec.n, construct_derandomized(spec).rows)
        calls.clear()
        assert is_superselector(M, spec)
        assert calls == [M]
        # The second check, the selector check and a decode reuse the view.
        assert is_superselector(M, spec)
        assert is_superselector(M, selector_spec(2, 1, M.n))
        identify_from_union(M, spec, boolean_sum(M, (1, 5)))
        assert calls == [M] and M.cols is M._cols
