"""Tests for union and arithmetic-sum decoding."""

from __future__ import annotations

import inspect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superselect import (
    BitMatrix,
    DecodeResult,
    InconsistentObservationError,
    InputError,
    SuperSelectorSpec,
    additive_decode,
    approx_decode,
    arithmetic_sum,
    boolean_sum,
    construct_derandomized,
    identify_from_union,
)
from superselect import decode
from superselect.core import identify


@pytest.fixture(scope="module")
def certified():
    spec = SuperSelectorSpec(10, 3, (1, 2, 2))
    return construct_derandomized(spec), spec


# ------------------------------------------------------------ union decode


def test_union_identity_matrix_pins_everything():
    M = BitMatrix.identity(5)
    spec = SuperSelectorSpec(5, 2, (1, 2))
    res = identify_from_union(M, spec, boolean_sum(M, (1, 3)))
    assert res.identified == (1, 3)
    assert res.candidates == (1, 3)
    assert res.spurious_bound == 0


def test_union_zero_observation():
    M = BitMatrix.identity(4)
    spec = SuperSelectorSpec(4, 2, (1, 2))
    res = identify_from_union(M, spec, (0, 0, 0, 0))
    assert res.identified == ()
    assert res.candidates == ()
    assert res.spurious_bound == 0


def test_union_zero_column_is_candidate_but_unidentified():
    M = BitMatrix(3, [0b001, 0b001])
    spec = SuperSelectorSpec(3, 1, (1,))
    res = identify_from_union(M, spec, boolean_sum(M, (0,)))
    # Columns 1 and 2 have no ones at all, so any observation covers them.
    assert res.candidates == (0, 1, 2)
    assert res.identified == (0,)
    assert res.spurious_bound == 2


def test_union_rejects_shape_mismatches():
    M = BitMatrix.identity(4)
    with pytest.raises(InputError):
        identify_from_union(M, SuperSelectorSpec(5, 2, (1, 2)), (1,) * 4)
    with pytest.raises(InputError):
        identify_from_union(M, SuperSelectorSpec(4, 2, (1, 2)), (1,) * 3)


def test_union_guarantee_exhaustive(certified):
    # On a certified matrix, whenever the candidate set stays within the
    # outer width, at least v_{|candidates|} members get pinned.
    M, spec = certified
    for size in range(1, spec.p + 1):
        for S in itertools.combinations(range(spec.n), size):
            res = identify_from_union(M, spec, boolean_sum(M, S))
            assert set(S) <= set(res.candidates)
            assert set(res.identified) <= set(S)
            t = len(res.candidates)
            if t <= spec.p:
                assert len(res.identified) >= spec.v[t - 1]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_union_soundness_on_arbitrary_matrices(data):
    seed = data.draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    m, n = 8, 12
    M = BitMatrix(n, [rng.getrandbits(n) for _ in range(m)])
    size = data.draw(st.integers(0, 4))
    S = tuple(sorted(rng.sample(range(n), size)))
    spec = SuperSelectorSpec(n, 4, (1, 1, 2, 3))
    res = identify_from_union(M, spec, boolean_sum(M, S))
    assert set(res.identified) <= set(S) <= set(res.candidates)
    assert res.spurious_bound == len(res.candidates) - len(res.identified)


# ----------------------------------------------------------- approx decode


def test_approx_decode_sandwiches_the_support(certified):
    M, spec = certified
    low, high = approx_decode(M, spec, boolean_sum(M, (2, 7)), 1, 1)
    assert set(low) <= {2, 7} <= set(high)


def test_approx_decode_empty_support(certified):
    M, spec = certified
    low, high = approx_decode(M, spec, (0,) * M.m, 1, 1)
    assert low == ()
    assert high == ()


def test_approx_decode_rejects_negative_budgets(certified):
    M, spec = certified
    with pytest.raises(InputError):
        approx_decode(M, spec, (0,) * M.m, -1, 0)
    with pytest.raises(InputError):
        approx_decode(M, spec, (0,) * M.m, 0, -1)


# ------------------------------------------------------------ result type


def test_decode_result_contract():
    # Fields in this order, by position or by keyword; read-only; equal
    # results compare and hash alike, whether built or decoded.
    assert list(inspect.signature(DecodeResult).parameters) == [
        "identified", "candidates", "spurious_bound"]
    res = DecodeResult((1, 3), (1, 3, 4), 1)
    assert res == DecodeResult(identified=(1, 3), candidates=(1, 3, 4),
                               spurious_bound=1)
    assert res == DecodeResult((1, 3), candidates=(1, 3, 4), spurious_bound=1)
    assert (res.identified, res.candidates, res.spurious_bound) == (
        (1, 3), (1, 3, 4), 1)
    for field in ("identified", "candidates", "spurious_bound"):
        with pytest.raises(AttributeError):
            setattr(res, field, ())
    assert res != DecodeResult((1, 3), (1, 3, 4), 0)
    M = BitMatrix.identity(5)
    decoded = identify_from_union(M, SuperSelectorSpec(5, 2, (1, 2)),
                                  boolean_sum(M, (1, 3)))
    built = DecodeResult((1, 3), (1, 3), 0)
    assert decoded == built and hash(decoded) == hash(built)
    assert len({decoded, built, res}) == 2


def test_decode_result_is_the_tuple_of_its_fields():
    res = DecodeResult((1, 3), (1, 3, 4), 1)
    assert res == ((1, 3), (1, 3, 4), 1)
    identified, candidates, spurious = res
    assert (identified, candidates, spurious) == tuple(res)
    assert hash(res) == hash(((1, 3), (1, 3, 4), 1))


# --------------------------------------------------------- additive decode


def test_additive_identity_matrix():
    M = BitMatrix.identity(6)
    spec = SuperSelectorSpec(6, 3, (1, 2, 3))
    assert additive_decode(M, spec, arithmetic_sum(M, (0, 4, 5))) == (0, 4, 5)
    assert additive_decode(M, spec, (0,) * 6) == ()


def test_additive_exhaustive_on_halving_matrix():
    # The doubled-width shape with v_i just above i/2 guarantees each
    # round pins over half of the remaining members, so every support of
    # size <= 2 decodes exactly.
    spec = SuperSelectorSpec(10, 4, (1, 2, 3, 3))
    M = construct_derandomized(spec)
    for size in range(0, 3):
        for S in itertools.combinations(range(spec.n), size):
            assert additive_decode(M, spec, arithmetic_sum(M, S)) == S


def test_additive_rejects_negative_counts():
    M = BitMatrix.identity(3)
    spec = SuperSelectorSpec(3, 1, (1,))
    with pytest.raises(InconsistentObservationError):
        additive_decode(M, spec, (0, -1, 0))


def test_additive_rejects_unexplainable_residual():
    M = BitMatrix.zeros(3, 4)
    spec = SuperSelectorSpec(4, 2, (1, 2))
    with pytest.raises(InconsistentObservationError):
        additive_decode(M, spec, (1, 1, 1))


def test_additive_rejects_repeated_column():
    M = BitMatrix.identity(2)
    spec = SuperSelectorSpec(2, 1, (1,))
    with pytest.raises(InconsistentObservationError):
        additive_decode(M, spec, (2, 1))


def test_additive_rejects_oversubscribed_row():
    M = BitMatrix(2, [0b11, 0b01, 0b10])
    spec = SuperSelectorSpec(2, 2, (1, 2))
    with pytest.raises(InconsistentObservationError):
        additive_decode(M, spec, (1, 1, 1))


def test_additive_decode_ends_within_n_plus_one_rounds(monkeypatch):
    # The loop has no round cap: a round that does not raise pins a column
    # not pinned before, so at most n + 1 rounds (identify calls) run.
    rounds = []

    def counted(cols, hit):
        rounds[-1] += 1
        return identify(cols, hit)

    monkeypatch.setattr(decode, "identify", counted)
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 8)
        M = BitMatrix(n, [rng.getrandbits(n) for _ in range(rng.randint(1, 10))])
        spec = SuperSelectorSpec(n, 1, (1,))
        s = rng.choice([arithmetic_sum(M, rng.sample(range(n), rng.randint(0, n))),
                        [rng.randint(0, 3) for _ in range(M.m)]])
        rounds.append(0)
        try:
            additive_decode(M, spec, s)
        except InconsistentObservationError:
            pass
        assert rounds[-1] <= n + 1
    assert max(rounds) >= 2


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_additive_roundtrip_is_exact_when_it_returns(data):
    # On arbitrary matrices the decoder may reject, but a clean return
    # must reproduce a set whose arithmetic sum matches the observation.
    seed = data.draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    m, n = 10, 8
    M = BitMatrix(n, [rng.getrandbits(n) for _ in range(m)])
    size = data.draw(st.integers(0, 3))
    S = tuple(sorted(rng.sample(range(n), size)))
    spec = SuperSelectorSpec(n, 3, (1, 2, 3))
    s = arithmetic_sum(M, S)
    try:
        out = additive_decode(M, spec, s)
    except InconsistentObservationError:
        return
    assert arithmetic_sum(M, out) == s
