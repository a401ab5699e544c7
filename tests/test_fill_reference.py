"""Differential tests of the per-column fill kernel against the frozen
scan kernel in `reference_scan.py`, plus digests of the benchmark
corpus pinned from the scan kernel's output and of the other matrices
the benchmark workloads and the monotone chain build.

The two at-scale pins carry the `slow` marker (about 8 s each), which
the default run deselects; `python -m pytest -m slow` runs them."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_scan import ScanState
from superselect import (
    DerandState,
    SuperSelectorSpec,
    additive_gt_spec,
    approx_gt_spec,
    construct_derandomized,
    derand_threshold,
    format_matrix,
    fut_spec,
    monotone_chain,
    mut_spec,
    selector_spec,
)
from test_acceptance import SUITE

APP_SPECS = (
    approx_gt_spec(2, 1, 1, 8),
    additive_gt_spec(2, 8),
    mut_spec(2, 1, 8),
    fut_spec(2, 0.5, 8),
    additive_gt_spec(3, 12),
    mut_spec(3, 2, 10),
    approx_gt_spec(2, 1, 1, 12),
    selector_spec(4, 3, 12),
)

# sha256(format_matrix(M))[:12] of the scan kernel's matrices on the
# benchmark corpus (perfbench/trajectory/BENCH_00_baseline.json).
CORPUS_DIGESTS = {
    SuperSelectorSpec(6, 2, (1, 2)): "c593d7963d07",
    SuperSelectorSpec(8, 2, (1, 2)): "2c68fe0d2f7c",
    SuperSelectorSpec(8, 2, (0, 1)): "067f7ef0bcce",
    SuperSelectorSpec(12, 2, (1, 2)): "df04b0bdafa4",
    SuperSelectorSpec(10, 3, (1, 2, 2)): "52dc71b61b29",
    SuperSelectorSpec(14, 3, (1, 1, 1)): "93223c966f63",
    SuperSelectorSpec(14, 3, (1, 2, 2)): "69f02cf1f08a",
    SuperSelectorSpec(20, 4, (1, 2, 2, 3)): "19dba4fa1454",
    SuperSelectorSpec(64, 2, (1, 2)): "46f21ad2a98a",
    SuperSelectorSpec(12, 6, (1, 1, 2, 4, 5, 6)): "9826849a8d9f",
    SuperSelectorSpec(12, 6, (1, 2, 3, 3, 4, 4)): "fdbf79aa81dd",
    SuperSelectorSpec(10, 6, (1, 2, 2, 2, 2, 4)): "491cc7fd1762",
    SuperSelectorSpec(12, 3, (1, 2, 3)): "928d439c96fc",
}

# (rows, sha256(format_matrix(M))[:12]) of the derandomized matrices of
# the certify workload's specs and of the decode and cli workloads'
# decoder specs (union, approx, additive, mut, compress), pinned from the
# fill that summed both hypotheses before it summed their difference.
WORKLOAD_DIGESTS = {
    SuperSelectorSpec(40, 3, (1, 2, 3)): (65, "292917f051da"),
    SuperSelectorSpec(64, 3, (1, 2, 2)): (36, "393b8af9b914"),
    SuperSelectorSpec(24, 4, (1, 2, 2, 3)): (47, "20701625ac4b"),
    SuperSelectorSpec(16, 3, (1, 2, 3)): (47, "21991d9f0d78"),
    approx_gt_spec(2, 1, 1, 12): (41, "928d439c96fc"),
    additive_gt_spec(2, 12): (44, "2b150c0fb64c"),
    mut_spec(3, 2, 10): (39, "491cc7fd1762"),
    selector_spec(4, 3, 12): (34, "5fa2479ed17c"),
}

# The levels t = 8, 4, 2 of the (8, 4) monotone chain, from the same fill.
CHAIN_DIGESTS = ((41, "27aab001e4ba"), (27, "6336e8027744"), (14, "2c68fe0d2f7c"))

# At-scale specs, from the same fill; each builds in about 8 s.
SLOW_DIGESTS = {
    SuperSelectorSpec(128, 3, (1, 2, 2)): (42, "3c22ae2bd2ee"),
    SuperSelectorSpec(32, 5, (1, 2, 2, 3, 3)): (56, "1900518eda90"),
}


def _pin(M):
    return M.m, hashlib.sha256(format_matrix(M).encode()).hexdigest()[:12]


def _same_rows(spec):
    assert list(DerandState(spec).run().rows) == ScanState(spec).run(), spec


@pytest.mark.parametrize("spec", SUITE, ids=str)
def test_suite_rows_match_scan_kernel(spec):
    _same_rows(spec)


@pytest.mark.parametrize("spec", APP_SPECS, ids=str)
def test_app_spec_rows_match_scan_kernel(spec):
    _same_rows(spec)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 9), data=st.data())
def test_small_spec_rows_match_scan_kernel(n, data):
    p = data.draw(st.integers(1, min(4, n - 1)))
    v = tuple(
        data.draw(st.integers(0, j), label=f"v_{j}") for j in range(1, p + 1)
    )
    _same_rows(SuperSelectorSpec(n, p, v))


@pytest.mark.parametrize("spec", [
    SuperSelectorSpec(10, 3, (1, 2, 2)),
    SuperSelectorSpec(8, 5, (1, 2, 3, 1, 1)),
    SuperSelectorSpec(9, 4, (1, 1, 2, 4)),
], ids=str)
def test_lockstep_probabilities_match_scan_kernel(spec):
    # Same bit at every entry, the per-subset probabilities bit for bit,
    # and the incremental expectation within rounding of the full sum.
    new, ref = DerandState(spec), ScanState(spec)
    while ref.r < ref.m:
        assert new.step() == ref.step(), (ref.r, ref.c)
        assert new.xcur == ref.xcur, (ref.r, ref.c)
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
