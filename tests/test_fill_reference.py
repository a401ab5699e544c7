"""Differential tests of the per-column fill kernel against the frozen
scan kernel in `reference_scan.py`, plus digests of the benchmark
corpus pinned from the scan kernel's output."""

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
    digest = hashlib.sha256(format_matrix(M).encode()).hexdigest()[:12]
    assert digest == CORPUS_DIGESTS[spec]
