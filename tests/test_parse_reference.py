"""Differential tests of `parse_matrix` and `parse_vector` against the
frozen per-line parsers in `reference_parse.py`: on drawn texts, both
return the same value or raise a `ParseError` with the same source, line
and message, and every parsed matrix gives, in whichever order its views
are read, the rows of the reference and the column view that the frozen
`_columns` computes from them. Matrices built and parsed give the rows,
the column view and the text of the frozen views and writer."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parse
from superselect import BitMatrix, ParseError, format_matrix, format_vector, core

# Characters a row or a vector line may not hold, each once rejected
# or misread by a per-character shortcut: int() reads "_" and non-ASCII
# digits, str.isdigit takes superscripts.
ODD = ("2", "_", "١", "²", " ", "a", "-")
ENDINGS = ("\n", "\r\n", "\r")


def _outcome(parse, text):
    try:
        return "value", parse(text, source="f.txt")
    except ParseError as exc:
        return "error", (exc.source, exc.line, str(exc))


def _joined(draw, lines, final):
    sep = [draw(st.sampled_from(ENDINGS)) for _ in lines]
    if not final:
        sep[-1] = ""
    return "".join(a + b for a, b in zip(lines, sep))


@st.composite
def matrix_texts(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 70))
    # Mostly well-formed headers and rows, so that the row checks and
    # the successful parses are reached often.
    header = draw(st.sampled_from([f"{m} {n}"] * 6 + [
        f" {m}  {n} ", f"{m}\t{n}", f"{m} {n} 1", f"-{m} {n}", f"0 {n}",
        f"{m}", "", f"{m} {n}²"]))
    rows = []
    for _ in range(max(0, m + draw(st.sampled_from([0] * 5 + [-2, -1, 1])))):
        row = format(draw(st.integers(0, (1 << n) - 1)), f"0{n}b")
        fault = draw(st.sampled_from(
            ["none"] * 20 + ["long", "short", "odd", "blank", "padded"]))
        if fault == "long":
            row += "0"
        elif fault == "short":
            row = row[1:]
        elif fault == "odd":
            at = draw(st.integers(0, n - 1))
            row = row[:at] + draw(st.sampled_from(ODD)) + row[at + 1:]
        elif fault == "blank":
            row = ""
        elif fault == "padded":
            row = f" {row}"
        rows.append(row)
    trailing = draw(st.sampled_from(
        [[]] * 4 + [[""], ["  "], ["x"], [" 1"], ["", ""], ["", "0"]]))
    return _joined(draw, [header, *rows, *trailing], draw(st.booleans()))


@st.composite
def vector_texts(draw):
    token = st.one_of(
        st.integers(0, 10**6).map(str),
        st.sampled_from(["007", "0", "-0", "-3", " 5", "5 ", "\t2", "",
                         "  ", "x", "1_0", "١", "²", "+1",
                         "1 2"]))
    lines = draw(st.lists(token, min_size=1, max_size=12))
    return _joined(draw, lines, draw(st.booleans()))


@st.composite
def canonical_matrices(draw):
    n = draw(st.integers(1, 70))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=70))
    return BitMatrix(n, rows)


def _same_matrix_outcome(text):
    new = _outcome(core.parse_matrix, text)
    old = _outcome(reference_parse.parse_matrix, text)
    assert new[0] == old[0], (text, new, old)
    if new[0] == "error":
        assert new == old, text
    else:
        R = old[1]
        want = (R.m, R.n, R.rows, reference_parse._columns(R))
        # A parsed matrix builds each view from its text when first read;
        # read them in both orders.
        M = new[1]
        cols = M.cols
        assert (M.m, M.n, M.rows, cols) == want, text
        M = core.parse_matrix(text, source="f.txt")
        rows = M.rows
        assert (M.m, M.n, rows, M.cols) == want, text


@settings(max_examples=250, deadline=None)
@given(text=matrix_texts())
def test_drawn_matrix_texts_match_per_line_parser(text):
    _same_matrix_outcome(text)


@settings(max_examples=60, deadline=None)
@given(M=canonical_matrices(), ending=st.sampled_from(ENDINGS))
def test_canonical_matrix_texts_match_per_line_parser(M, ending):
    text = format_matrix(M).replace("\n", ending)
    _same_matrix_outcome(text)
    assert core.parse_matrix(text) == M


@settings(max_examples=250, deadline=None)
@given(text=vector_texts())
def test_drawn_vector_texts_match_per_line_parser(text):
    assert (_outcome(core.parse_vector, text)
            == _outcome(reference_parse.parse_vector, text)), text


@settings(max_examples=60, deadline=None)
@given(vec=st.lists(st.integers(0, 10**9), min_size=1, max_size=60))
def test_canonical_vector_texts_match_per_line_parser(vec):
    text = format_vector(vec)
    assert core.parse_vector(text) == reference_parse.parse_vector(text) == tuple(vec)


@pytest.mark.parametrize("text", [
    "", "\n", "\n\n", "1", "1\n", "1\n\n", "\n1\n", "1\n\n2\n", "-0\n",
    "0\n-0\n", "1\r\n2\r\n", "1\r2\r", " 1\n", "1 \n", "١\n", "²\n",
])
def test_vector_edge_texts_match_per_line_parser(text):
    assert (_outcome(core.parse_vector, text)
            == _outcome(reference_parse.parse_vector, text))


@pytest.mark.parametrize("text", [
    "", "2 3\n", "2 3\n010\n", "2 3\n010", "2 3\n010\n0110\n", "2 3\n01\n011\n",
    "2 3\n012\n01_\n", "2 3\n010\n\n", "2 3\n010\n\n110\n", "2 3\n010\n110\n\nx",
    "2 3\r\n010\r\n110\r\n", "2 3\r010\r110\r", " 2  3 \n010\n110\n",
    "1 2\n1١\n", "1 2\n²1\n", "4000000000 2\n01\n",
])
def test_matrix_edge_texts_match_per_line_parser(text):
    _same_matrix_outcome(text)


@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("m", [1, 3, 80])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 2000])
def test_matrix_views_and_text_match_frozen_code(n, m, density):
    # The frozen code reads the rows given to a built matrix; the new one
    # reads every view of a built or parsed matrix from its text, so each
    # view is taken first once.
    rng = random.Random(n * 1000 + m)
    rows = tuple(sum(1 << c for c in range(n) if rng.random() < density)
                 for _ in range(m))
    R = BitMatrix(n, rows)
    text = reference_parse.format_matrix(R)
    body = "".join(text.split("\n")[m:0:-1])
    assert reference_parse._text_rows(body, n) == rows
    want = (rows, reference_parse._columns(R), text)
    views = {"rows": lambda M: M.rows, "cols": lambda M: M.cols,
             "text": format_matrix}
    for first in views:
        for M in (BitMatrix(n, rows), core.parse_matrix(text)):
            views[first](M)
            assert tuple(view(M) for view in views.values()) == want, first
