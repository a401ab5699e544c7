"""Frozen reference for the differential parser tests: `parse_matrix`
and `parse_vector` as they were before the matrix rows were checked
together and the vector got its one-check path, `parse_spec` as it was
before canonical spec text got its one-check path, and the matrix views
and writer as they were before a matrix held its canonical text.

`parse_matrix` checks one row line at a time and leaves the column view
to be built on first use; `parse_vector` reads one line at a time, and
`parse_spec` its header, its v line and then every later line. All three
raise the same `ParseError` (source, line, message) the package does.
`_columns` transposes a matrix's rows into its column view, `_text_rows`
reads the rows from a body of row lines joined last row first, and
`format_matrix` writes the header and one line per row. They are kept
only so the code in `superselect.core` can be checked against them. Do
not use them outside the tests.
"""

from __future__ import annotations

from superselect import BitMatrix, InputError, ParseError, SuperSelectorSpec

_NOT_BITS = str.maketrans("", "", "01")


def _is_digits(token: str) -> bool:
    return token.isascii() and token.isdigit()


def _lines(text: str) -> list:
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_matrix(text: str, source: str = "<matrix>") -> BitMatrix:
    lines = _lines(text)
    if not lines or not lines[0].strip():
        raise ParseError(source, 1, "missing 'm n' header")
    head = lines[0].split()
    if len(head) != 2 or not all(map(_is_digits, head)):
        raise ParseError(source, 1, f"bad header {lines[0]!r}, expected 'm n'")
    m, n = int(head[0]), int(head[1])
    if m < 1 or n < 1:
        raise ParseError(source, 1, "dimensions must be positive")
    rows = []
    for r in range(m):
        ln = r + 2
        if ln - 1 >= len(lines):
            raise ParseError(source, ln, f"expected {m} rows, file ends early")
        raw = lines[ln - 1]
        if len(raw) != n:
            raise ParseError(source, ln, f"row has {len(raw)} characters, expected {n}")
        bad = raw.translate(_NOT_BITS)
        if bad:
            raise ParseError(source, ln, f"invalid character {bad[0]!r}")
        rows.append(int(raw[::-1], 2))
    for extra in range(m + 1, len(lines)):
        if lines[extra].strip():
            raise ParseError(source, extra + 1, "trailing content after matrix")
    return BitMatrix(n, rows)


def _int(token: str, source: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:  # past int()'s digit limit
        raise ParseError(source, line, f"integer of {len(token)} digits is too long") from None


def parse_spec(text: str, source: str = "<spec>") -> SuperSelectorSpec:
    lines = _lines(text)
    if not lines or not lines[0].strip():
        raise ParseError(source, 1, "missing 'n p' header")
    head = lines[0].split()
    if len(head) != 2 or not all(map(_is_digits, head)):
        raise ParseError(source, 1, f"bad header {lines[0]!r}, expected 'n p'")
    n, p = _int(head[0], source, 1), _int(head[1], source, 1)
    if len(lines) < 2 or not lines[1].strip():
        raise ParseError(source, 2, "missing v line")
    parts = lines[1].split()
    if len(parts) != p:
        raise ParseError(source, 2, f"expected {p} values, got {len(parts)}")
    if not all(_is_digits(t.removeprefix("-")) for t in parts):
        raise ParseError(source, 2, f"non-integer entry in {lines[1]!r}")
    try:
        spec = SuperSelectorSpec(n, p, tuple(_int(t, source, 2) for t in parts))
    except InputError as exc:
        raise ParseError(source, 2, str(exc))
    for extra in range(2, len(lines)):
        if lines[extra].strip():
            raise ParseError(source, extra + 1, "trailing content after spec")
    return spec


def parse_vector(text: str, source: str = "<vector>") -> tuple:
    values = []
    for ln, raw in enumerate(_lines(text), start=1):
        s = raw.strip()
        if not s:
            continue
        if not _is_digits(s.removeprefix("-")):
            raise ParseError(source, ln, f"non-integer line {raw!r}")
        val = int(s)
        if val < 0:
            raise ParseError(source, ln, "vector entries must be nonnegative")
        values.append(val)
    if not values:
        raise ParseError(source, 1, "empty vector")
    return tuple(values)


def _columns(M: BitMatrix) -> tuple:
    """Transpose M into its column view; `BitMatrix.cols` caches it.

    The rows are written out as one binary string, last row first, so
    every n-th character from position n-1-c spells column c with row 0
    as its lowest bit."""
    n = M.n
    width = f"0{n}b"
    text = "".join([format(row, width) for row in reversed(M.rows)])
    return tuple([int(text[n - 1 - c::n], 2) for c in range(n)])


# A parsed matrix's body: its rows as text, joined last row first.
# Reversed whole, it lists every row reversed, first row first, so each
# n-character slice reads as its row's int; every n-th character from c
# on spells column c, with row 0 as its lowest bit.
def _text_rows(body: str, n: int) -> tuple:
    text = body[::-1]
    return tuple([int(text[i:i + n], 2) for i in range(0, len(text), n)])


def format_matrix(M: BitMatrix) -> str:
    width = f"0{M.n}b"
    return f"{M.m} {M.n}\n" + "".join(
        format(row, width)[::-1] + "\n" for row in M.rows
    )
