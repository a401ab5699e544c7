"""Differential tests of the per-column fill kernel against the frozen
scan kernel in `reference_scan.py`, of its per-row term tables and its
code numbering against the frozen pair tables and pattern scan in
`reference_terms.py`, of its success tables against the frozen 3-D
f-table in `reference_ftable.py`, plus digests of the matrices the
benchmark workloads and the monotone chain build.

The fill tracks only the levels `fill_spec` keeps, so every reference
is fed `fill_spec(spec)`: the kernel is compared entry by entry on the
spec it actually fills.

The at-scale pins carry the `slow` marker (about 1 s each), which the
default run deselects; `python -m pytest -m slow` runs them."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fill_probe import code_of, codes, xcur
from reference_scan import ScanState
from reference_terms import ReferenceTerms
from superselect import (
    DerandState,
    SuperSelectorSpec,
    additive_gt_spec,
    approx_gt_spec,
    construct_derandomized,
    derand_threshold,
    fill_spec,
    format_matrix,
    monotone_chain,
    mut_spec,
    selector_spec,
)
from test_acceptance import SUITE

APP_SPECS = (
    approx_gt_spec(2, 1, 1, 8),
    additive_gt_spec(2, 8),
    mut_spec(2, 1, 8),
    SuperSelectorSpec(8, 4, (1, 2, 2, 3)),
    additive_gt_spec(3, 12),
    mut_spec(3, 2, 10),
    approx_gt_spec(2, 1, 1, 12),
    selector_spec(4, 3, 12),
)

# sha256(format_matrix(M))[:12] of the derandomized matrices on the
# benchmark corpus, filled over the levels fill_spec keeps.
CORPUS_DIGESTS = {
    SuperSelectorSpec(6, 2, (1, 2)): "eb7076648e4a",
    SuperSelectorSpec(8, 2, (1, 2)): "35a15530a321",
    SuperSelectorSpec(8, 2, (0, 1)): "067f7ef0bcce",
    SuperSelectorSpec(12, 2, (1, 2)): "9f4ab64c1ccc",
    SuperSelectorSpec(10, 3, (1, 2, 2)): "52dc71b61b29",
    SuperSelectorSpec(14, 3, (1, 1, 1)): "93223c966f63",
    SuperSelectorSpec(14, 3, (1, 2, 2)): "69f02cf1f08a",
    SuperSelectorSpec(20, 4, (1, 2, 2, 3)): "1710d09f4123",
    SuperSelectorSpec(64, 2, (1, 2)): "169e5e1e4dc4",
    SuperSelectorSpec(12, 6, (1, 1, 2, 4, 5, 6)): "463dda563ed7",
    SuperSelectorSpec(12, 6, (1, 2, 3, 3, 4, 4)): "839227b506d5",
    SuperSelectorSpec(10, 6, (1, 2, 2, 2, 2, 4)): "a6ee6bf1f44b",
    SuperSelectorSpec(12, 3, (1, 2, 3)): "31f8c4712038",
}

# (rows, sha256(format_matrix(M))[:12]) of the derandomized matrices of
# the certify workload's specs and of the decode and cli workloads'
# decoder specs (union, approx, additive, mut, compress), from the same
# fill.
WORKLOAD_DIGESTS = {
    SuperSelectorSpec(40, 3, (1, 2, 3)): (65, "bac279d6009c"),
    SuperSelectorSpec(64, 3, (1, 2, 2)): (36, "393b8af9b914"),
    SuperSelectorSpec(24, 4, (1, 2, 2, 3)): (47, "20701625ac4b"),
    SuperSelectorSpec(16, 3, (1, 2, 3)): (47, "103d3e23ed58"),
    approx_gt_spec(2, 1, 1, 12): (41, "31f8c4712038"),
    additive_gt_spec(2, 12): (44, "59296bc6fba3"),
    mut_spec(3, 2, 10): (39, "a6ee6bf1f44b"),
    selector_spec(4, 3, 12): (34, "5fa2479ed17c"),
}

# The levels t = 8, 4, 2 of the (8, 4) monotone chain, from the same fill.
CHAIN_DIGESTS = ((40, "4b00f6f485ea"), (27, "e4d95b7e91ef"), (14, "35a15530a321"))

# The levels t = 14, 7, 4, 2 of the (16, 7) monotone chain, from the same
# fill; its widest level tracks 14 columns with v_i = i // 2 + 1.
WIDE_CHAIN_DIGESTS = ((89, "f53552b1d8e3"), (57, "9907a2d2b289"),
                      (40, "03996ecda00b"), (20, "4516072afb7a"))

# At-scale specs, from the same fill; each builds and verifies in about
# 1 s. (128,3,(1,2,3)) is the union spec at the size where the fill's
# nonzero prefix (37 rows) is well below n.
SLOW_DIGESTS = {
    SuperSelectorSpec(128, 3, (1, 2, 2)): (42, "47fe707bac3d"),
    SuperSelectorSpec(32, 5, (1, 2, 2, 3, 3)): (56, "1900518eda90"),
    SuperSelectorSpec(128, 3, (1, 2, 3)): (87, "ab1db9447db7"),
}


def _pin(M):
    return M.m, hashlib.sha256(format_matrix(M).encode()).hexdigest()[:12]


def _same_rows(spec):
    assert list(DerandState(spec).run().rows) == \
        ScanState(fill_spec(spec)).run(), spec


@pytest.mark.parametrize("spec", SUITE, ids=str)
def test_suite_rows_match_scan_kernel(spec):
    _same_rows(spec)


@pytest.mark.parametrize("spec", APP_SPECS, ids=str)
def test_app_spec_rows_match_scan_kernel(spec):
    _same_rows(spec)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 10), data=st.data())
def test_small_spec_rows_match_scan_kernel(n, data):
    # p up to 6 exercises every bucket width of the per-row term tables.
    p = data.draw(st.integers(1, min(6, n - 1)))
    v = tuple(
        data.draw(st.integers(0, j), label=f"v_{j}") for j in range(1, p + 1)
    )
    _same_rows(SuperSelectorSpec(n, p, v))


def _live_classes(state, ref) -> list:
    # The scan's number of each of the fill's classes: the fill keeps the
    # unsatisfied ones only, in the scan's order.
    return [k for k, (j, a) in enumerate(ref.classes)
            if a < state.spec.v[j - 1]]


def _same_row_tables(spec):
    # Every row's tables, loaded by step() at each row boundary, equal
    # the pair-expanded ones float for float: the term of each code the
    # fill has numbered is the w * g of the scan's code with the same
    # (class, u), each of the p lone-key blocks holds one key per
    # unsatisfied class, K = sum_j v_j in all, with -x^q * g, and the dead
    # key 0.0. Every numbered key has a term.
    state, ref = DerandState(spec), ReferenceTerms(fill_spec(spec))
    p, dead = spec.p, state._dead
    live, lone = _live_classes(state, ref), sum(state.spec.v)
    assert state._classes == [ref.classes[k] for k in live], spec
    assert dead == p * lone == p * len(live), spec
    for r in range(state.m):
        assert state.r == r and state.c == 0
        wg, xg = ref.row_tables(r)
        for s, (k, u) in codes(state).items():
            at = ref.index[live[k] << p | u]
            assert [tq[s] for tq in state._terms] == [w[at] for w in wg], \
                (spec, r, k, u)
        for t in range(p):
            block = slice(t * lone, (t + 1) * lone)
            assert [[-y for y in tq[block]] for tq in state._terms] == \
                [[xq[k] for k in live] for xq in xg], (spec, r, t)
        keys = dead + 1 + len(state._code_cls)
        assert all(len(tq) == keys and tq[dead] == 0.0
                   for tq in state._terms), (spec, r)
        for _ in range(spec.n):
            state.step()


@pytest.mark.parametrize("spec", SUITE + APP_SPECS, ids=str)
def test_row_tables_match_pair_tables(spec):
    _same_row_tables(spec)


@pytest.mark.parametrize("spec", SUITE + APP_SPECS, ids=str)
def test_success_tables_match_f_table_diagonal(spec):
    # Each level's table is the diagonal c - b = j - v_j of the frozen
    # 3-D f-table, float for float, the start value f(m, v_j, j) included.
    state, ref = DerandState(spec), ReferenceTerms(fill_spec(spec))
    for j, tab in state._tables.items():
        vj = state.spec.v[j - 1]
        full = ref.tables[j]._tab
        assert tab == [[full[a][b][b + j - vj] for b in range(vj + 1)]
                       for a in range(state.m + 1)], (spec, j)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 10), data=st.data())
def test_small_spec_row_tables_match_pair_tables(n, data):
    p = data.draw(st.integers(1, min(6, n - 1)))
    v = tuple(
        data.draw(st.integers(0, j), label=f"v_{j}") for j in range(1, p + 1)
    )
    _same_row_tables(SuperSelectorSpec(n, p, v))


def _same_codes(state, ref, resolve=False):
    # Every code the fill has numbered is one unsatisfied code of the
    # scan of all 2^j patterns, found by (class, u). Each edge a
    # realization can take (a still-needed column) points at the dead
    # key when the scan's next code is satisfied, from the moment the
    # code is numbered; otherwise at 0 until a realization first takes
    # it, then at the code with the scan's next (class, u). With
    # `resolve`, each such edge still at 0 is resolved through `_reach`
    # first, so every edge is checked against the scan. Every other
    # entry holds a lone key or the dead key, never a code. A subset
    # holds the dead key or a numbered code.
    p, dead = state.spec.p, state._dead
    live = _live_classes(state, ref)
    numbered = codes(state)
    assert len(set(numbered.values())) == len(numbered), state.spec
    for s, (k, u) in numbered.items():
        at = ref.index[live[k] << p | u]
        assert not ref.done[at], (state.spec, k, u)
        for t in range(p):
            edge = state._next[s][t]
            if not u >> t & 1:
                assert edge <= dead, (state.spec, k, u, t)
                continue
            to = ref.next[at * p + t]
            if ref.done[to]:
                assert edge == dead, (state.spec, k, u, t)
                continue
            if edge == 0 and resolve:
                edge = state._reach(s, t)
            if edge or resolve:
                kt, ut = code_of(state, edge)
                assert (live[kt], ut) == (ref.code_cls[to], ref.code_u[to]), \
                    (state.spec, k, u, t)
    assert all(s == dead or s in numbered for s in state._code), state.spec


def _same_codes_as_the_fill_goes(spec):
    # At the start each subset holds the scan's start code; then the
    # codes are checked after a greedy fill, and after a forced replay
    # of random bits, which reaches codes in another order, each time
    # with the edges not yet taken resolved.
    ref = ReferenceTerms(fill_spec(spec))
    state = DerandState(spec)
    live = _live_classes(state, ref)
    start = [code_of(state, s) for s in state._code]
    assert [(live[k], u) for k, u in start] == \
        [(ref.code_cls[s], ref.code_u[s]) for s in ref.start], spec
    _same_codes(state, ref)
    state.run()
    _same_codes(state, ref)
    _same_codes(state, ref, resolve=True)
    draw = random.Random(spec.n).random
    state = DerandState(spec)
    while state.r < state.m:
        state.step(int(draw() < 0.5))
    _same_codes(state, ref)
    _same_codes(state, ref, resolve=True)


@pytest.mark.parametrize("spec", SUITE + APP_SPECS, ids=str)
def test_codes_match_frozen_pattern_scan(spec):
    _same_codes_as_the_fill_goes(spec)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 10), data=st.data())
def test_small_spec_codes_match_frozen_pattern_scan(n, data):
    p = data.draw(st.integers(1, min(6, n - 1)))
    v = tuple(
        data.draw(st.integers(0, j), label=f"v_{j}") for j in range(1, p + 1)
    )
    _same_codes_as_the_fill_goes(SuperSelectorSpec(n, p, v))


@pytest.mark.parametrize("spec", SUITE + APP_SPECS, ids=str)
def test_run_matches_stepping_to_the_end(spec):
    # run() appends the all-zero rows once every subset is satisfied,
    # also when it starts mid-row; stepping through them must give the
    # same rows and the same expectation, bit for bit.
    stepped, ran, resumed = (DerandState(spec) for _ in range(3))
    while stepped.r < stepped.m:
        stepped.step()
    for _ in range(spec.n + 1):
        resumed.step()
    for state in (ran, resumed):
        assert list(state.run().rows) == stepped.rows, spec
        assert state.expectation == stepped.expectation, spec


@pytest.mark.parametrize("spec", [
    SuperSelectorSpec(10, 3, (1, 2, 2)),
    SuperSelectorSpec(8, 5, (1, 2, 3, 1, 1)),
    SuperSelectorSpec(9, 4, (1, 1, 2, 4)),
], ids=str)
def test_lockstep_probabilities_match_scan_kernel(spec):
    # Same bit at every entry, the per-subset probabilities bit for bit,
    # and the incremental expectation within rounding of the full sum.
    new, ref = DerandState(spec), ScanState(fill_spec(spec))
    while ref.r < ref.m:
        assert new.step() == ref.step(), (ref.r, ref.c)
        assert xcur(new) == ref.xcur, (ref.r, ref.c)
        assert abs(new.expectation - ref.expectation) <= 1e-12 * ref.ns


@pytest.mark.parametrize("spec", list(CORPUS_DIGESTS), ids=str)
def test_corpus_digest_is_pinned(spec):
    M = construct_derandomized(spec)
    assert M.m == derand_threshold(spec)
    assert _pin(M)[1] == CORPUS_DIGESTS[spec]


@pytest.mark.parametrize("spec", list(WORKLOAD_DIGESTS), ids=str)
def test_workload_digest_is_pinned(spec):
    assert _pin(construct_derandomized(spec)) == WORKLOAD_DIGESTS[spec]


def test_chain_level_digests_are_pinned():
    chain = monotone_chain(8, 4)
    assert tuple(_pin(M) for M, _ in chain.levels) == CHAIN_DIGESTS


@pytest.mark.slow
@pytest.mark.parametrize("spec", list(SLOW_DIGESTS), ids=str)
def test_at_scale_digest_is_pinned(spec):
    assert _pin(construct_derandomized(spec)) == SLOW_DIGESTS[spec]


@pytest.mark.slow
def test_wide_chain_level_digests_are_pinned():
    chain = monotone_chain(16, 7)
    assert tuple(_pin(M) for M, _ in chain.levels) == WIDE_CHAIN_DIGESTS
    assert chain.total_length == 206
