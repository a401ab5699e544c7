"""Tests for the application builders and codecs."""

from __future__ import annotations

import inspect
import itertools
import random
import re

import pytest

from superselect import apps
from superselect import (
    BitMatrix,
    CompressedWord,
    InconsistentObservationError,
    InputError,
    MonotoneEncoding,
    SuperSelectorSpec,
    additive_gt_spec,
    approx_decode,
    approx_gt_spec,
    arithmetic_sum,
    additive_decode,
    boolean_sum,
    compress,
    construct_derandomized,
    decompress,
    is_list_disjunct,
    is_superselector,
    list_disjunct_params,
    monotone_chain,
    monotone_decode,
    monotone_encode,
    mut_decode,
    mut_spec,
    selector_spec,
)


def _flipped(rng, bits):
    """bits with one or two of them, drawn by rng, flipped."""
    bits = list(bits)
    for r in rng.sample(range(len(bits)), rng.randint(1, 2)):
        bits[r] ^= 1
    return bits


# ------------------------------------------------------------ constraint shapes


def test_approx_spec_shape():
    assert approx_gt_spec(4, 2, 2, 12).v == (0, 1, 2, 3, 4, 5)
    assert approx_gt_spec(4, 2, 2, 12).p == 6


def test_approx_spec_zero_budgets_demand_everything():
    spec = approx_gt_spec(3, 0, 0, 8)
    assert spec.p == 3
    assert spec.v == (1, 2, 3)


def test_approx_spec_uses_smaller_budget():
    assert approx_gt_spec(3, 1, 2, 8).v == (1, 2, 3, 4)
    assert approx_gt_spec(3, 2, 1, 8).v == (1, 2, 3, 4, 5)


def test_approx_spec_rejects_bad_parameters():
    with pytest.raises(InputError):
        approx_gt_spec(0, 1, 1, 8)
    with pytest.raises(InputError):
        approx_gt_spec(3, -1, 0, 8)
    with pytest.raises(InputError):
        approx_gt_spec(6, 3, 0, 8)


def test_additive_spec_shape():
    assert additive_gt_spec(4, 12).v == (1, 2, 3, 3, 4, 4, 5, 5)
    assert additive_gt_spec(1, 4).v == (1, 2)
    assert additive_gt_spec(2, 10).v == (1, 2, 3, 3)


def test_additive_spec_rejects_bad_parameters():
    with pytest.raises(InputError):
        additive_gt_spec(0, 8)
    with pytest.raises(InputError):
        additive_gt_spec(5, 8)


def test_mut_spec_shape():
    assert mut_spec(4, 2, 10).v == (1, 2, 2, 2, 2, 2, 2, 5)
    assert mut_spec(2, 1, 6).v == (1, 1, 1, 3)
    assert mut_spec(3, 3, 8).v == (1, 2, 3, 3, 3, 4)


def test_mut_spec_rejects_bad_parameters():
    with pytest.raises(InputError):
        mut_spec(2, 3, 10)
    with pytest.raises(InputError):
        mut_spec(2, 0, 10)
    with pytest.raises(InputError):
        mut_spec(4, 2, 7)


def test_list_disjunct_params_branches():
    assert list_disjunct_params(2, 2, 8) == (4, 3, 8)
    assert list_disjunct_params(3, 1, 8) == (4, 4, 8)
    assert list_disjunct_params(1, 3, 8) == (2, 2, 8)
    with pytest.raises(InputError):
        list_disjunct_params(0, 1, 8)
    with pytest.raises(InputError):
        list_disjunct_params(1, 0, 8)


# ----------------------------------------------------------- multi-user tracing


def test_mut_identifies_enough_members():
    spec = mut_spec(3, 2, 8)
    M = construct_derandomized(spec)
    for size in (1, 2, 3):
        for S in itertools.combinations(range(8), size):
            res = mut_decode(M, spec, boolean_sum(M, S))
            assert set(res.identified) <= set(S)
            if size < 2:
                assert res.identified == S
            else:
                assert len(res.identified) >= 2


# ----------------------------------------------------------- monotone encoding


def test_chain_level_shapes():
    enc = MonotoneEncoding(8, 3)
    assert tuple(spec.p for _, spec in enc.levels) == (6, 3, 2)
    for _, spec in enc.levels:
        assert spec.v == tuple(i // 2 + 1 for i in range(1, spec.p + 1))
    assert enc.total_length == sum(M.m for M, _ in enc.levels)


def test_encode_empty_set_is_zero_word():
    enc = monotone_chain(6, 2)
    assert set(enc.encode(())) == {0}


def test_encode_singleton_drains_at_first_level():
    enc = monotone_chain(6, 2)
    tail = enc.levels[-1][0].m
    for c in range(6):
        word = enc.encode((c,))
        assert set(word[-tail:]) == {0}
        assert enc.decode(word) == (c,)


def test_roundtrip_exhaustive_small():
    for size in (0, 1, 2):
        for S in itertools.combinations(range(6), size):
            assert monotone_decode(6, 2, monotone_encode(6, 2, S)) == S


def test_encoding_is_injective_and_monotone():
    words = {}
    for size in (0, 1, 2):
        for S in itertools.combinations(range(6), size):
            words[S] = monotone_encode(6, 2, S)
    assert len(set(words.values())) == len(words)
    for S in words:
        for T in words:
            if set(S) <= set(T):
                assert all(a <= b for a, b in zip(words[S], words[T]))


def test_encode_rejects_oversized_sets():
    with pytest.raises(InputError):
        monotone_encode(6, 2, (0, 1, 2))


@pytest.mark.parametrize("S", [(1, 1), (0, 3, 0)], ids=str)
def test_encode_rejects_repeated_members(S):
    with pytest.raises(InputError):
        monotone_encode(6, 3, S)


def test_every_accepted_chain_word_is_a_codeword():
    # Codewords with one or two bits flipped, and random words: decode
    # accepts exactly the words that encode gives back.
    chain = monotone_chain(8, 4)
    rng = random.Random(3)
    accepted = rejected = 0
    for _ in range(1000):
        if rng.random() < 0.1:
            word = [rng.randint(0, 1) for _ in range(chain.total_length)]
        else:
            S = rng.sample(range(8), rng.randint(0, 4))
            word = _flipped(rng, chain.encode(S))
        try:
            S = chain.decode(word)
        except InconsistentObservationError:
            rejected += 1
            continue
        accepted += 1
        assert chain.encode(S) == tuple(word)
    assert accepted and rejected


def test_decode_rejects_more_than_k_members():
    chain = monotone_chain(8, 4)
    with pytest.raises(InconsistentObservationError, match="more than k = 4"):
        chain.decode((1,) * chain.total_length)


# True and 1.0 equal 1 and are read as 1; every other value is refused
# by name, whether or not bytes() takes it.
ODD_ENTRIES = [2, -1, 0.5, 256, "1", True, 1.0]


def _refused(what, k, value):
    return pytest.raises(
        InputError, match=re.escape(f"{what} entry {k} is {value!r}, not a bit"))


@pytest.mark.parametrize("value", ODD_ENTRIES)
def test_decode_rejects_entries_that_are_not_bits(value):
    # A 2, a -1 or a 0.5 in place of a 1 used to read as that 1, so the
    # word decoded to (1, 5) although encode((1, 5)) is not that word.
    chain = monotone_chain(8, 4)
    word = list(chain.encode((1, 5)))
    k = word.index(1)
    word[k] = value
    if value == 1:
        assert monotone_decode(8, 4, word) == (1, 5)
        return
    with _refused("word", k, value):
        monotone_decode(8, 4, word)


def test_decode_rejects_a_string_word():
    # Every character of a str is truthy, so "00...0" used to decode as
    # the all-ones word.
    chain = monotone_chain(8, 4)
    with pytest.raises(InputError, match="word entry 0 is '0', not a bit"):
        chain.decode("0" * chain.total_length)
    with pytest.raises(InputError, match="not a bit"):
        monotone_decode(8, 4, "1" + "0" * (chain.total_length - 1))


def test_decode_refuses_an_int_word_before_sizing_it():
    # bytes() of an int n allocates n bytes; the int is refused first as
    # not iterable.
    with pytest.raises(TypeError, match="not iterable"):
        monotone_chain(8, 4).decode(2**62)


def test_decode_rejects_wrong_length():
    enc = monotone_chain(6, 2)
    with pytest.raises(InputError):
        enc.decode((0,) * (enc.total_length + 1))


def test_chain_rejects_bad_parameters():
    with pytest.raises(InputError):
        MonotoneEncoding(6, 0)
    with pytest.raises(InputError):
        MonotoneEncoding(5, 3)


def test_chain_is_cached():
    assert monotone_chain(6, 2) is monotone_chain(6, 2)


def test_chain_that_fails_to_drain_raises(monkeypatch):
    # Every level pins over half of what remains on a certified chain; a
    # level that pins nothing leaves members after the last one.
    monkeypatch.setattr(apps, "identify", lambda cols, hit: ((), ()))
    with pytest.raises(RuntimeError, match=r"^chain failed to drain \[1, 4\]$"):
        monotone_chain(6, 2).encode((4, 1))


# --------------------------------------------------------------- compression


@pytest.fixture(scope="module")
def compressor():
    p, n = 2, 10
    spec = selector_spec(2 * p, p + 1, n)
    return construct_derandomized(spec), p


def test_compress_roundtrip_exhaustive(compressor):
    M, p = compressor
    n = M.n
    supports = [()]
    supports += list(itertools.combinations(range(n), 1))
    supports += list(itertools.combinations(range(n), 2))
    for S in supports:
        x = tuple(1 if c in S else 0 for c in range(n))
        w = compress(M, p, x)
        assert len(w.bits) == M.m + 2 * p
        assert decompress(M, p, w) == x


def test_compress_zero_vector(compressor):
    M, p = compressor
    w = compress(M, p, (0,) * M.n)
    assert set(w.y) == {0}
    assert set(w.z) == {0}


def test_compress_rejects_dense_vectors(compressor):
    M, p = compressor
    x = tuple(1 if c < p + 1 else 0 for c in range(M.n))
    with pytest.raises(InputError):
        compress(M, p, x)
    with pytest.raises(InputError):
        compress(M, p, (0,) * (M.n - 1))


def test_compress_rejects_matrix_that_is_not_a_selector():
    # All-ones rows cover every column, so the candidate list (3) is longer
    # than the 2p = 2 bit mask.
    M = BitMatrix.from_entries([[1, 1, 1], [1, 1, 1]])
    with pytest.raises(InputError, match="candidate list has 3 entries"):
        compress(M, 1, (1, 0, 0))


@pytest.mark.parametrize("p", [6, 10**400])
def test_compress_rejects_p_past_half_n(compressor, p):
    # A (2p, p+1, n)-selector needs 2p <= n; a larger p is refused before
    # the 2p-bit mask is built, however large p is.
    M, _ = compressor
    with pytest.raises(InputError, match=f"exceeds n = {M.n}"):
        compress(M, p, (0,) * M.n)


@pytest.mark.parametrize("p", [6, 10**400], ids=["6", "10**400"])
def test_decompress_rejects_p_past_half_n(compressor, p):
    # p is checked before the word's parts, so the error names p, not the
    # length of z.
    M, q = compressor
    w = compress(M, q, (0,) * M.n)
    with pytest.raises(InputError, match=rf"^2p = {2 * p} exceeds n = {M.n}: "):
        decompress(M, p, w)


@pytest.mark.parametrize("p", [0, -1, -3])
def test_codecs_refuse_p_below_one(compressor, p):
    # compress(M, -1, zeros) used to say "support size 0 exceeds p=-1",
    # and decompress took p = 0 as a promise of an empty support.
    M, _ = compressor
    message = rf"^need p >= 1, got p={p}$"
    with pytest.raises(InputError, match=message):
        compress(M, p, (0,) * M.n)
    for z in [(), (0, 0)]:
        with pytest.raises(InputError, match=message):
            decompress(M, p, CompressedWord((0,) * M.m, z))


@pytest.mark.parametrize("value", ODD_ENTRIES)
def test_compress_rejects_entries_that_are_not_bits(compressor, value):
    # A 2 or a -1 used to count as a one, so the round trip was lossy.
    M, p = compressor
    x = [0] * M.n
    x[0], x[3] = value, 1
    if value == 1:
        assert compress(M, p, x) == compress(M, p, [int(e) for e in x])
        return
    with _refused("vector", 0, value):
        compress(M, p, x)


def test_decompress_rejects_entries_that_are_not_bits(compressor):
    for value in ODD_ENTRIES:
        _check_decompress_entry(compressor, value)


def _check_decompress_entry(compressor, value):
    M, p = compressor
    x = tuple(1 if c in (1, 4) else 0 for c in range(M.n))
    w = compress(M, p, x)
    k = w.z.index(1)
    z = list(w.z)
    z[k] = value
    y = list(w.y)
    y[y.index(1)] = value
    if value == 1:
        assert decompress(M, p, CompressedWord(w.y, tuple(z))) == x
        assert decompress(M, p, CompressedWord(tuple(y), w.z)) == x
        return
    with _refused("word", M.m + k, value):
        decompress(M, p, CompressedWord(w.y, tuple(z)))
    with _refused("word", w.y.index(1), value):
        decompress(M, p, CompressedWord(tuple(y), w.z))


def test_tampered_mask_is_rejected(compressor):
    # A mask bit flipped on a support of p columns used to decode to x with
    # one column flipped. Setting a bit now selects more than p columns;
    # clearing one leaves a support that is rejected or really compresses
    # to the tampered word.
    M, p = compressor
    x = tuple(1 if c in (1, 4) else 0 for c in range(M.n))
    w = compress(M, p, x)
    for k in range(2 * p):
        z = list(w.z)
        z[k] ^= 1
        tampered = CompressedWord(w.y, tuple(z))
        if z[k]:
            with pytest.raises(InconsistentObservationError):
                decompress(M, p, tampered)
        else:
            try:
                assert compress(M, p, decompress(M, p, tampered)) == tampered
            except InconsistentObservationError:
                pass


def test_every_accepted_word_is_a_compressed_word(compressor):
    # Codewords with one or two bits flipped, and random words: decompress
    # accepts exactly the words that compress gives back.
    M, p = compressor
    rng = random.Random(2)
    accepted = rejected = 0
    for _ in range(2000):
        if rng.random() < 0.1:
            bits = [rng.randint(0, 1) for _ in range(M.m + 2 * p)]
        else:
            x = [0] * M.n
            for c in rng.sample(range(M.n), rng.randint(0, p)):
                x[c] = 1
            bits = _flipped(rng, compress(M, p, x).bits)
        w = CompressedWord(tuple(bits[:M.m]), tuple(bits[M.m:]))
        try:
            x = decompress(M, p, w)
        except InconsistentObservationError:
            rejected += 1
            continue
        accepted += 1
        assert compress(M, p, x) == w
    assert accepted and rejected


def test_decompress_rejects_malformed_words(compressor):
    M, p = compressor
    w = compress(M, p, (0,) * M.n)
    with pytest.raises(InputError):
        decompress(M, p, CompressedWord(w.y[:-1], w.z))
    with pytest.raises(InputError):
        decompress(M, p, CompressedWord(w.y, w.z[:-1]))
    bad = list(w.z)
    bad[-1] = 1  # the zero union has no candidates at all
    with pytest.raises(InputError):
        decompress(M, p, CompressedWord(w.y, tuple(bad)))


def test_compressed_word_concatenates_parts():
    w = CompressedWord((1, 0, 1), (0, 1))
    assert w.bits == (1, 0, 1, 0, 1)


def test_compressed_word_contract(compressor):
    # Fields y then z, by position or by keyword; bits is derived, not a
    # field; read-only; equal words compare and hash alike.
    assert list(inspect.signature(CompressedWord).parameters) == ["y", "z"]
    w = CompressedWord((1, 0, 1), (0, 1))
    assert w == CompressedWord(y=(1, 0, 1), z=(0, 1))
    assert w == CompressedWord((1, 0, 1), z=(0, 1))
    assert (w.y, w.z) == ((1, 0, 1), (0, 1))
    assert w.bits == w.y + w.z
    for field in ("y", "z", "bits"):
        with pytest.raises(AttributeError):
            setattr(w, field, ())
    assert w != CompressedWord((1, 0, 1), (1, 0))
    M, p = compressor
    x = tuple(1 if c in (2, 5) else 0 for c in range(M.n))
    made = compress(M, p, x)
    built = CompressedWord(made.y, made.z)
    assert made == built and hash(made) == hash(built)
    assert made.bits == made.y + made.z
    assert len({made, built, w}) == 2


def test_compressed_word_is_the_tuple_of_its_fields():
    w = CompressedWord((1, 0, 1), (0, 1))
    assert w == ((1, 0, 1), (0, 1))
    y, z = w
    assert (y, z) == tuple(w)
    assert hash(w) == hash(((1, 0, 1), (0, 1)))


# ------------------------------------------------------------- list disjunct


def test_selector_parameters_yield_list_disjunct_matrix():
    d, l, n = 2, 2, 8
    p, k, _ = list_disjunct_params(d, l, n)
    M = construct_derandomized(selector_spec(p, k, n))
    assert is_list_disjunct(M, d, l)


# ------------------------------------------------- cross-application sanity


def test_app_specs_build_and_certify():
    for spec in (
        approx_gt_spec(2, 1, 1, 8),
        additive_gt_spec(2, 8),
        mut_spec(2, 1, 8),
        SuperSelectorSpec(8, 4, (1, 2, 2, 3)),
    ):
        M = construct_derandomized(spec)
        assert is_superselector(M, spec)


def test_additive_spec_supports_exact_recovery():
    spec = additive_gt_spec(2, 8)
    M = construct_derandomized(spec)
    for size in (0, 1, 2):
        for S in itertools.combinations(range(8), size):
            assert additive_decode(M, spec, arithmetic_sum(M, S)) == S


def test_approx_spec_bounds_decode_errors():
    p, e0, e1, n = 2, 1, 1, 10
    spec = approx_gt_spec(p, e0, e1, n)
    M = construct_derandomized(spec)
    for size in range(0, p + 1):
        for S in itertools.combinations(range(n), size):
            low, high = approx_decode(M, spec, boolean_sum(M, S), e0, e1)
            assert set(low) <= set(S) <= set(high)
            assert len(set(high) - set(S)) <= e0
            assert len(set(S) - set(low)) <= e1
