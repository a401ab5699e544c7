"""Differential tests of the keyed fill kernel against the frozen branchy
kernel in `reference_fill.py`: entry by entry, the same bit, a
bit-identical expectation, the same count of unsatisfied subsets and the
same rows, under greedy choice and under forced-bit replays through
`step(bit)`, on the suite, the application specs and drawn specs."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_fill import BranchState
from superselect import DerandState, PrecisionFault, SuperSelectorSpec
from test_acceptance import SUITE
from test_fill_reference import APP_SPECS


def _outcome(state, bit):
    try:
        return state.step(bit)
    except PrecisionFault as fault:
        return str(fault)


def _lockstep(spec, replay=()):
    """Step both kernels to the end, forcing the bits of `replay` first
    and choosing greedily after them; a PrecisionFault must come at the
    same entry with the same message in both."""
    new, ref = DerandState(spec), BranchState(spec)
    replay = iter(replay)
    while ref.r < ref.m:
        bit = next(replay, None)
        got, want = _outcome(new, bit), _outcome(ref, bit)
        assert got == want, (spec, ref.r, ref.c)
        if isinstance(want, str):
            return
        assert new.expectation == ref.expectation, (spec, ref.r, ref.c)
        assert new._unsat == ref._unsat, (spec, ref.r, ref.c)
        assert new.row_bits == ref.row_bits, (spec, ref.r, ref.c)
    assert new.rows == ref.rows, spec


def _random_bits(spec, seed, density):
    draw = random.Random(seed).random
    return [int(draw() < density) for _ in range(BranchState(spec).m * spec.n)]


def _drawn_spec(n, data):
    p = data.draw(st.integers(1, min(6, n)))
    v = tuple(data.draw(st.integers(0, j), label=f"v_{j}")
              for j in range(1, p + 1))
    return SuperSelectorSpec(n, p, v)


@pytest.mark.parametrize("spec", SUITE + APP_SPECS, ids=str)
def test_greedy_fill_matches_branch_kernel(spec):
    _lockstep(spec)
    ran, ref = DerandState(spec), BranchState(spec)
    assert ran.run() == ref.run(), spec
    assert ran.expectation == ref.expectation, spec


@pytest.mark.parametrize("spec", SUITE + APP_SPECS, ids=str)
def test_forced_replay_matches_branch_kernel(spec):
    # A dense replay puts two ones in most subsets' rows; a sparse one
    # leaves lone ones, and the greedy tail after a prefix goes on from
    # states the greedy fill would not reach.
    for seed, density in ((0, 1 / spec.p), (1, 0.5)):
        bits = _random_bits(spec, seed, density)
        _lockstep(spec, bits)
        _lockstep(spec, bits[:2 * spec.n + 3])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_drawn_spec_greedy_fill_matches_branch_kernel(n, data):
    _lockstep(_drawn_spec(n, data))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_drawn_spec_forced_replay_matches_branch_kernel(n, data):
    spec = _drawn_spec(n, data)
    bits = _random_bits(spec, data.draw(st.integers(0, 2 ** 32)),
                        data.draw(st.sampled_from((0.1, 0.3, 0.5, 0.8))))
    _lockstep(spec, bits[:data.draw(st.integers(0, len(bits)))])
