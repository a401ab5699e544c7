"""Differential tests of `parse_matrix`, `parse_vector` and `parse_spec`
against the frozen per-line parsers in `reference_parse.py`: on drawn
texts, both return the same value or raise a `ParseError` with the same
source, line and message, and every parsed matrix gives, in whichever
order its views are read, the rows of the reference and the column view
that the frozen `_columns` computes from them. Matrices built and parsed
give the rows, the column view and the text of the frozen views and
writer."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parse
from superselect import (BitMatrix, ParseError, SuperSelectorSpec, core,
                         format_matrix, format_spec, format_vector)

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


@pytest.mark.parametrize("text", [
    "1 1\n\n\n", "1 3\n0\n\n\n", "2 2\n0\n\n01\n", "2 2\n\n\n\n\n", "2 1\n0\n1",
    "2 1\n0\n1\n\n", "1 2\n01\n\n", "1 2 \n01\n", "01 02\n01\n", "1 2\n0\r\n",
    "2 2\n0\n011\n", "2 2\n011\n0\n", "1 1\n0\n0", "1 2\n01\n0", "0 2\n", "2 0\n\n\n",
])
def test_canonical_shaped_matrix_texts_match_per_line_parser(text):
    # Texts that pass some of the one-check path's tests and not the
    # others: an LF where a row character belongs, rows of the wrong
    # lengths, content or a blank line after the rows, a zero dimension.
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


# ------------------------------------------------------------------ specs

_LONG = "9" * 5000  # past int()'s default limit of 4,300 digits


def _spec_outcome(parse, text):
    # Any exception, so that a different error class shows as a mismatch.
    try:
        return "value", parse(text, source="f.txt")
    except Exception as exc:
        return "error", (type(exc), getattr(exc, "line", None), str(exc))


def _same_spec_outcome(text):
    new = _spec_outcome(core.parse_spec, text)
    assert new == _spec_outcome(reference_parse.parse_spec, text), text
    return new


@st.composite
def spec_texts(draw):
    n = draw(st.integers(1, 12))
    p = draw(st.integers(1, n))
    # Mostly well-formed lines, so that the range checks and the
    # successful parses are reached often.
    header = draw(st.sampled_from([f"{n} {p}"] * 10 + [
        f"0{n} {p}", f" {n} {p}", f"{n} {p} ", f"{n}  {p}", f"{n}\t{p}",
        f"+{n} {p}", f"-{n} {p}", f"{n} -{p}", f"{n}", f"{n} {p} 1", "",
        f"{_LONG} {p}", f"{n} {_LONG}", f"{n} {p}\u00b2", f"{p - 1} {p}",
        f"{n} 0", f"{n} \u0663"]))
    values = []
    for i in range(1, p + draw(st.sampled_from([0] * 8 + [-1, 1, -p])) + 1):
        good = str(draw(st.integers(0, i)))
        values.append(draw(st.sampled_from([good] * 12 + [
            "0" + good, "+" + good, "-" + good, "-0", str(i + 1), _LONG,
            "x", "\u00b2", "1_0"])))
    v_line = draw(st.sampled_from([" "] * 8 + ["  ", "\t", " \t"])).join(values)
    v_line = draw(st.sampled_from([v_line] * 8 + [f" {v_line}", f"{v_line} ",
                                                  f"{v_line}\t"]))
    lines = [header, v_line][:draw(st.sampled_from([2] * 8 + [1]))]
    lines += draw(st.sampled_from([[]] * 6 + [
        [""], ["  "], ["\t"], ["x"], ["", ""], ["", "1"], ["1 2"]]))
    ends = [draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])) for _ in lines]
    if not draw(st.sampled_from([True] * 4 + [False])):
        ends[-1] = ""
    return "".join(a + b for a, b in zip(lines, ends))


@settings(deadline=None)
@given(text=spec_texts())
def test_drawn_spec_texts_match_per_line_parser(text):
    _same_spec_outcome(text)


@settings(deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_canonical_spec_texts_match_per_line_parser(data, n):
    p = data.draw(st.integers(1, n))
    spec = SuperSelectorSpec(n, p, tuple(data.draw(st.integers(0, i))
                                         for i in range(1, p + 1)))
    assert _same_spec_outcome(format_spec(spec)) == ("value", spec)


@pytest.mark.parametrize("text", [
    "", "\n", "\n\n", "3 2", "3 2\n", "3 2\n1 2", "3 2\n1 2\n\n", "3 2\n1 2\n\nx",
    "3 2\n1 2\n\n\n", "3 2\n1 2\n \n", "3 2\r\n1 2\r\n", "3 2\r1 2\r", "3\n1 2\n",
    "3 2 1\n1 2\n", "3 2\n\n",
    "3 2\n1  2\n", "3 2\n 1 2\n", "3 2\n1 2 \n", "3 2\n1\t2\n", " 3 2\n1 2\n",
    "3 2 \n1 2\n", "3\t2\n1 2\n", "3 2\n1 3\n", "3 2\n1\n", "3 2\n1 2 2\n",
    "2 3\n1 2 3\n", "3 0\n\n", "3 0\n0\n", "0 0\n\n", "03 2\n01 02\n",
    "3 2\n-1 2\n", "3 2\n+1 2\n", "3 2\n-0 2\n", "+3 2\n1 2\n", "3 2\n\u0661 2\n",
    f"{_LONG} 2\n1 2\n", f"3 {_LONG}\n1 2\n", f"3 2\n1 {_LONG}\n",
    f"3 2\n1 -{_LONG}\n", "3 2\n1 2\n\u00a0\n", "3 2\n1 2\x0b\n",
])
def test_spec_edge_texts_match_per_line_parser(text):
    _same_spec_outcome(text)
