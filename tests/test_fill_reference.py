"""Differential tests of the per-column fill kernel against the frozen
scan kernel in `reference_scan.py`, of its per-row term tables and its
code numbering against the frozen pair tables and pattern scan in
`reference_terms.py`, of its success tables against the frozen 3-D
f-table in `reference_ftable.py`, plus digests of the matrices the
benchmark workloads and the monotone chain build.

The fill tracks only the levels `fill_spec` keeps, so every reference
is fed `fill_spec(spec)`: the kernel is compared entry by entry on the
spec it actually fills.

The two at-scale pins carry the `slow` marker (about 8 s each), which
the default run deselects; `python -m pytest -m slow` runs them."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fill_probe import xcur
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

# At-scale specs, from the same fill; each builds in about 8 s.
SLOW_DIGESTS = {
    SuperSelectorSpec(128, 3, (1, 2, 2)): (42, "47fe707bac3d"),
    SuperSelectorSpec(32, 5, (1, 2, 2, 3, 3)): (56, "1900518eda90"),
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


def _same_row_tables(spec):
    # Every row's tables, loaded by step() at each row boundary, equal
    # the pair-expanded ones float for float: the code slice of each
    # bucket's term table is w * g, the lone-key slice -x^q * g, and the
    # dead key 0.0.
    state, ref = DerandState(spec), ReferenceTerms(fill_spec(spec))
    codes, lone = len(state._code_cls), len(state._classes)
    for r in range(state.m):
        assert state.r == r and state.c == 0
        wg, xg = ref.row_tables(r)
        assert [t[:codes] for t in state._terms] == wg, (spec, r)
        assert [[-y for y in t[codes:-1]] for t in state._terms] == xg, (spec, r)
        assert all(len(t) == codes + lone + 1 and t[-1] == 0.0
                   for t in state._terms), (spec, r)
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


def _same_codes(spec):
    # Listing each class's patterns from its realized columns numbers the
    # same codes as the scan of all 2^j patterns: the same start code per
    # subset, class and satisfied flag per code, and transition table.
    state, ref = DerandState(spec), ReferenceTerms(fill_spec(spec))
    assert state._code == ref.start, spec
    assert state._code_cls == ref.code_cls, spec
    assert state._done == ref.done, spec
    assert list(state._next) == ref.next, spec


@pytest.mark.parametrize("spec", SUITE + APP_SPECS, ids=str)
def test_codes_match_frozen_pattern_scan(spec):
    _same_codes(spec)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 10), data=st.data())
def test_small_spec_codes_match_frozen_pattern_scan(n, data):
    p = data.draw(st.integers(1, min(6, n - 1)))
    v = tuple(
        data.draw(st.integers(0, j), label=f"v_{j}") for j in range(1, p + 1)
    )
    _same_codes(SuperSelectorSpec(n, p, v))


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
