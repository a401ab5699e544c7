"""End-to-end tests of the command-line interface.

Every test drives main() as a plain function with explicit argv and a
manifest path under tmp_path, so nothing leaks between tests.
"""

from __future__ import annotations

import argparse
import errno
import gc
import itertools
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from superselect import (
    DEFAULT_SUBSET_BUDGET,
    BitMatrix,
    SuperSelectorSpec,
    arithmetic_sum,
    boolean_sum,
    compress,
    construct_derandomized,
    derand_threshold,
    format_matrix,
    format_spec,
    format_vector,
    is_superselector,
    parse_matrix,
    parse_vector,
    selector_spec,
    superselector_lower_bound,
    superselector_upper_bound,
)
from superselect import cli
from superselect.cli import _digest, main


@pytest.fixture()
def manifest(tmp_path):
    return str(tmp_path / "runs.tsv")


def write(path, text):
    path.write_text(text)
    return str(path)


def write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


def spec_file(tmp_path, spec, name="spec.txt"):
    return write(tmp_path / name, format_spec(spec))


def matrix_file(tmp_path, M, name="matrix.txt"):
    return write(tmp_path / name, format_matrix(M))


def vector_file(tmp_path, vec, name="vec.txt"):
    return write(tmp_path / name, format_vector(vec))


# ----------------------------------------------------------------- bounds


def test_bounds_output(tmp_path, manifest, capsys):
    for spec in [SuperSelectorSpec(8, 2, (1, 2)), SuperSelectorSpec(8, 2, (0, 0))]:
        rc = main(["bounds", "--spec", spec_file(tmp_path, spec),
                   "--manifest", manifest])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == f"upper={superselector_upper_bound(spec).m}"
        assert lines[1] == f"lower={superselector_lower_bound(spec).m}"
        assert lines[2] == f"threshold={derand_threshold(spec)}"
        assert lines[3].startswith("selector=")
    # The last spec has no constrained level, so no selector level to read.
    assert lines[3] == "selector=1"


def test_bounds_accepts_crlf_files(tmp_path, manifest, capsys):
    path = write(tmp_path / "spec.txt", "8 2\r\n1 2\r\n")
    assert main(["bounds", "--spec", path, "--manifest", manifest]) == 0
    assert "threshold=" in capsys.readouterr().out


def test_bounds_refuses_trailing_spec_content(tmp_path, manifest, capsys):
    # A second v line would otherwise be ignored, and two different files
    # would share one spec; blank trailing lines stay accepted.
    path = write(tmp_path / "spec.txt", "8 2\n1 2\n2 2\n")
    assert main(["bounds", "--spec", path, "--manifest", manifest]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}:3: trailing content after spec\n")
    assert (tmp_path / "runs.tsv").read_text().endswith("\terror:ParseError\n")
    path = write(tmp_path / "spec.txt", "8 2\r\n1 2\r\n\r\n \n")
    assert main(["bounds", "--spec", path, "--manifest", manifest]) == 0


# ------------------------------------------------------------------ build


def test_build_derand_is_deterministic(tmp_path, manifest, capsys):
    spec = SuperSelectorSpec(7, 2, (1, 2))
    spath = spec_file(tmp_path, spec)
    out1 = str(tmp_path / "m1.txt")
    out2 = str(tmp_path / "m2.txt")
    assert main(["build", "--spec", spath, "--out", out1,
                 "--manifest", manifest]) == 0
    assert main(["build", "--spec", spath, "--out", out2,
                 "--manifest", manifest]) == 0
    assert (tmp_path / "m1.txt").read_bytes() == (tmp_path / "m2.txt").read_bytes()
    out = capsys.readouterr().out
    assert "verify=ok" in out
    M = parse_matrix((tmp_path / "m1.txt").read_text())
    assert is_superselector(M, spec)


def test_build_random_and_stacked(tmp_path, manifest, capsys):
    # Random builds; argparse rejects stacked, which is not a method,
    # before a run starts, so no output and no manifest line appear.
    spec = SuperSelectorSpec(8, 2, (1, 2))
    spath = spec_file(tmp_path, spec)
    out = tmp_path / "random.txt"
    assert main(["build", "--spec", spath, "--method", "random",
                 "--out", str(out), "--seed", "3", "--manifest", manifest]) == 0
    assert is_superselector(parse_matrix(out.read_text()), spec)
    capsys.readouterr()
    rc = main(["build", "--spec", spath, "--method", "stacked",
               "--out", str(tmp_path / "stacked.txt"), "--manifest", manifest])
    assert rc == 2
    assert "invalid choice: 'stacked'" in capsys.readouterr().err
    assert not (tmp_path / "stacked.txt").exists()
    assert len((tmp_path / "runs.tsv").read_text().splitlines()) == 1


@pytest.mark.parametrize("method, spec", [
    ("derand", SuperSelectorSpec(8, 2, (1, 2))),
    ("random", SuperSelectorSpec(8, 2, (1, 2))),
])
def test_build_verifies_emitted_matrix_once(tmp_path, manifest, capsys,
                                            monkeypatch, method, spec):
    import superselect.cli
    import superselect.construct

    checked = []

    def counting(M, spec, *args, **kwargs):
        checked.append(M)
        return is_superselector(M, spec, *args, **kwargs)

    monkeypatch.setattr(superselect.construct, "is_superselector", counting)
    monkeypatch.setattr(superselect.cli, "is_superselector", counting)
    out = tmp_path / "m.txt"
    # Seed 2 passes on its first sample, so only the emitted matrix is
    # checked on every method.
    rc = main(["build", "--spec", spec_file(tmp_path, spec), "--method",
               method, "--seed", "2", "--out", str(out),
               "--manifest", manifest])
    assert rc == 0
    assert "verify=ok" in capsys.readouterr().out
    assert checked == [parse_matrix(out.read_text())]


def test_build_random_exhausts_attempts(tmp_path, manifest, capsys):
    spec = SuperSelectorSpec(12, 2, (1, 2))
    rc = main(["build", "--spec", spec_file(tmp_path, spec),
               "--method", "random", "--seed", "1", "--max-attempts", "1",
               "--out", str(tmp_path / "m.txt"), "--manifest", manifest])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_build_start_at_floor_is_a_precision_fault(tmp_path, manifest,
                                                  capsys, monkeypatch):
    # A start at #subsets - 1 is refused by the fill's first greedy entry:
    # exit 1, one error line, verdict error:PrecisionFault.
    import superselect.construct
    from test_construct import _starts_at_floor

    monkeypatch.setattr(superselect.construct, "DerandState", _starts_at_floor)
    out = tmp_path / "m.txt"
    rc = main(["build", "--spec", spec_file(tmp_path, SuperSelectorSpec(6, 2, (1, 2))),
               "--out", str(out), "--manifest", manifest])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: greedy entry (0,0) leaves the expectation")
    assert captured.err.count("\n") == 1
    assert not out.exists()
    assert (tmp_path / "runs.tsv").read_text().endswith("\terror:PrecisionFault\n")


def test_build_to_dev_null(tmp_path, manifest, capsys):
    # A device is written but not truncated: truncate() fails on it.
    spec = SuperSelectorSpec(6, 2, (1, 2))
    rc = main(["build", "--spec", spec_file(tmp_path, spec), "--out",
               os.devnull, "--manifest", manifest])
    assert rc == 0
    assert f"out={os.devnull}" in capsys.readouterr().out


def test_outputs_replace_longer_files_exactly(tmp_path, manifest):
    # Outputs are rewritten in place, then cut to their new length, so
    # nothing of a longer earlier file survives.
    p = 2
    spec = selector_spec(2 * p, p + 1, 10)
    M = construct_derandomized(spec)
    x = tuple(1 if c in (3, 8) else 0 for c in range(10))
    xpath = vector_file(tmp_path, x, "x.txt")
    out = {name: tmp_path / f"{name}.txt" for name in ("M", "w", "y")}
    for path in out.values():
        path.write_text("1\n" * 5000)
    assert main(["build", "--spec", spec_file(tmp_path, spec),
                 "--out", str(out["M"]), "--manifest", manifest]) == 0
    assert out["M"].read_text() == format_matrix(M)
    assert main(["compress", "--matrix", str(out["M"]), "--p", str(p),
                 "--in", xpath, "--out", str(out["w"]),
                 "--manifest", manifest]) == 0
    assert out["w"].read_text() == format_vector(compress(M, p, x).bits)
    assert main(["decompress", "--matrix", str(out["M"]), "--p", str(p),
                 "--in", str(out["w"]), "--out", str(out["y"]),
                 "--manifest", manifest]) == 0
    assert out["y"].read_text() == format_vector(x)


# ----------------------------------------------------------------- verify


def test_verify_accepts_good_matrix(tmp_path, manifest, capsys):
    spec = SuperSelectorSpec(6, 2, (1, 2))
    M = construct_derandomized(spec)
    rc = main(["verify", "--matrix", matrix_file(tmp_path, M),
               "--spec", spec_file(tmp_path, spec), "--manifest", manifest])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_verify_rejects_bad_matrix(tmp_path, manifest, capsys):
    spec = SuperSelectorSpec(4, 2, (1, 2))
    rc = main(["verify", "--matrix",
               matrix_file(tmp_path, BitMatrix.zeros(3, 4)),
               "--spec", spec_file(tmp_path, spec), "--manifest", manifest])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "fail"


MATRIX_LAYOUTS = {
    "lf": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "lone-cr": lambda text: text.replace("\n", "\r"),
    "trailing-blank-line": lambda text: text + "\n \n",
    "padded-header": lambda text: "  " + text.replace(" ", "   ", 1).replace("\n", " \n", 1),
    "doubled-space-header": lambda text: text.replace(" ", "  ", 1),
    "trailing-blank-lines": lambda text: text + "\n\n",
    "no-final-newline": lambda text: text[:-1],
    # As long as the canonical text, yet not canonical.
    "canonical-length": lambda text: text.replace(" ", "  ", 1)[:-1],
}


@pytest.mark.parametrize("layout", MATRIX_LAYOUTS)
def test_matrix_digest_is_the_canonical_text_digest(tmp_path, manifest, capsys,
                                                    layout):
    # The manifest digests the matrix as format_matrix writes it, however
    # the file lays out its lines.
    spec = SuperSelectorSpec(8, 2, (1, 2))
    M = construct_derandomized(spec)
    path = tmp_path / "matrix.txt"
    path.write_bytes(MATRIX_LAYOUTS[layout](format_matrix(M)).encode())
    assert main(["verify", "--matrix", str(path), "--spec",
                 spec_file(tmp_path, spec), "--manifest", manifest]) == 0
    capsys.readouterr()
    fields = (tmp_path / "runs.tsv").read_text().split("\t")
    assert fields[2] == _digest(format_matrix(M))


# ------------------------------------------------------------- file reads


def _spy_on_row_views(monkeypatch):
    """Reads of the row view that build it, and the matrices the CLI
    parses, as two lists that fill while the CLI runs."""
    built, parsed = [], []
    view, parse = BitMatrix.rows, cli.parse_matrix

    def spy_rows(M):
        if M._rows is None:
            built.append(M)
        return view.fget(M)

    def spy_parse(*args, **kwargs):
        parsed.append(parse(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(BitMatrix, "rows", property(spy_rows))
    monkeypatch.setattr(cli, "parse_matrix", spy_parse)
    return built, parsed


def test_commands_build_only_the_matrix_views_they_read(tmp_path, manifest,
                                                        capsys, monkeypatch):
    # The decoders and the codecs read the column view only; verify reads
    # both views, and builds the row view once.
    spec = selector_spec(4, 3, 10)
    M = construct_derandomized(spec)
    x = tuple(1 if c in (3, 8) else 0 for c in range(10))
    files = ["--matrix", matrix_file(tmp_path, M), "--manifest", manifest]
    decode = files + ["--spec", spec_file(tmp_path, spec)]
    union = ["--obs", vector_file(tmp_path, boolean_sum(M, (3, 8)), "u.txt")]
    additive = ["--obs", vector_file(tmp_path, arithmetic_sum(M, (3,)), "a.txt")]
    w, y = str(tmp_path / "w.txt"), str(tmp_path / "y.txt")
    built, parsed = _spy_on_row_views(monkeypatch)
    for argv in (["decode", *decode, *union],
                 ["decode", "--mode", "approx", *decode, *union],
                 ["decode", "--mode", "additive", *decode, *additive],
                 ["mut-decode", *decode, *union],
                 ["compress", *files, "--p", "2", "--in",
                  vector_file(tmp_path, x, "x.txt"), "--out", w],
                 ["decompress", *files, "--p", "2", "--in", w, "--out", y]):
        assert main(argv) == 0, argv
        assert (built, parsed[-1]._rows) == ([], None), argv
    assert main(["verify", *decode]) == 0
    assert built == [parsed[-1]] and parsed[-1].rows == M.rows
    capsys.readouterr()
    assert parse_vector((tmp_path / "y.txt").read_text()) == x


def _digest_field(tmp_path):
    return (tmp_path / "runs.tsv").read_text().splitlines()[-1].split("\t")[2]


def test_matrix_larger_than_one_read_reads_whole(tmp_path, manifest, capsys):
    M = BitMatrix(2000, [random.Random(r).getrandbits(2000) for r in range(80)])
    text = format_matrix(M)
    assert len(text) > 2 * cli._READ_CHUNK
    path = matrix_file(tmp_path, M)
    assert cli._read_text(path) == text
    assert main(["verify", "--matrix", path, "--spec",
                 spec_file(tmp_path, selector_spec(1, 1, 2000)),
                 "--manifest", manifest]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert _digest_field(tmp_path) == _digest(text)


def test_matrix_from_a_fifo_reads_as_from_a_file(tmp_path, manifest, capsys):
    spec = SuperSelectorSpec(8, 2, (1, 2))
    M = construct_derandomized(spec)
    data = format_matrix(M).replace("\n", "\r\n").encode()
    fifo = str(tmp_path / "matrix.fifo")
    os.mkfifo(fifo)

    def feed():
        # Several writes, so the reader sees the text over several reads.
        with open(fifo, "wb", buffering=0) as fh:
            for i in range(0, len(data), 7):
                fh.write(data[i:i + 7])

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    argv = ["decode", "--matrix", fifo, "--spec", spec_file(tmp_path, spec),
            "--obs", vector_file(tmp_path, boolean_sum(M, (2, 5))),
            "--manifest", manifest]
    assert main(argv) == 0
    writer.join(timeout=30)
    assert not writer.is_alive()
    from_fifo = capsys.readouterr(), _digest_field(tmp_path)
    argv[2] = write_bytes(tmp_path / "matrix.txt", data)
    assert main(argv) == 0
    assert (capsys.readouterr(), _digest_field(tmp_path)) == from_fifo
    assert from_fifo[1] == _digest(format_matrix(M))


@pytest.mark.parametrize("flag", ["--matrix", "--spec", "--manifest"])
def test_directory_path_is_one_error_line_naming_it(tmp_path, manifest,
                                                    capsys, flag):
    # Reading a directory fails in the read, not the open, and that error
    # names no file until the read path adds it.
    flags = {"--matrix": matrix_file(tmp_path, BitMatrix.identity(4)),
             "--spec": spec_file(tmp_path, SuperSelectorSpec(4, 2, (1, 2))),
             "--manifest": manifest}
    flags[flag] = str(tmp_path)
    assert main(["verify", *itertools.chain(*flags.items())]) == 2
    assert capsys.readouterr() == (
        "", f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
            f"{str(tmp_path)!r}\n")


def test_verify_budget_overrun_is_usage_error(tmp_path, manifest):
    spec = SuperSelectorSpec(6, 2, (1, 2))
    M = construct_derandomized(spec)
    rc = main(["verify", "--matrix", matrix_file(tmp_path, M),
               "--spec", spec_file(tmp_path, spec), "--budget", "1",
               "--manifest", manifest])
    assert rc == 2


# ----------------------------------------------------------------- decode


def test_decode_union(tmp_path, manifest, capsys):
    M = BitMatrix.identity(5)
    spec = SuperSelectorSpec(5, 2, (1, 2))
    obs = boolean_sum(M, (1, 3))
    rc = main(["decode", "--matrix", matrix_file(tmp_path, M),
               "--spec", spec_file(tmp_path, spec),
               "--obs", vector_file(tmp_path, obs), "--manifest", manifest])
    assert rc == 0
    assert "identified=1,3" in capsys.readouterr().out


def test_decode_additive(tmp_path, manifest, capsys):
    M = BitMatrix.identity(5)
    spec = SuperSelectorSpec(5, 2, (1, 2))
    obs = arithmetic_sum(M, (0, 4))
    rc = main(["decode", "--mode", "additive",
               "--matrix", matrix_file(tmp_path, M),
               "--spec", spec_file(tmp_path, spec),
               "--obs", vector_file(tmp_path, obs), "--manifest", manifest])
    assert rc == 0
    assert "support=0,4" in capsys.readouterr().out


def test_decode_approx(tmp_path, manifest, capsys):
    M = BitMatrix.identity(4)
    spec = SuperSelectorSpec(4, 2, (1, 2))
    obs = boolean_sum(M, (2,))
    rc = main(["decode", "--mode", "approx", "--e0", "1", "--e1", "1",
               "--matrix", matrix_file(tmp_path, M),
               "--spec", spec_file(tmp_path, spec),
               "--obs", vector_file(tmp_path, obs), "--manifest", manifest])
    assert rc == 0
    out = capsys.readouterr().out
    assert "low=2" in out and "high=2" in out


def test_decode_inconsistent_observation_fails(tmp_path, manifest, capsys):
    M = BitMatrix.identity(2)
    spec = SuperSelectorSpec(2, 1, (1,))
    rc = main(["decode", "--mode", "additive",
               "--matrix", matrix_file(tmp_path, M),
               "--spec", spec_file(tmp_path, spec),
               "--obs", vector_file(tmp_path, (2, 1)),
               "--manifest", manifest])
    assert rc == 1
    assert "error" in capsys.readouterr().err


# ------------------------------------------------- compression round trip


def test_compress_decompress_files(tmp_path, manifest, capsys):
    p = 2
    M = construct_derandomized(selector_spec(2 * p, p + 1, 10))
    mpath = matrix_file(tmp_path, M)
    x = tuple(1 if c in (3, 8) else 0 for c in range(10))
    xpath = vector_file(tmp_path, x, "x.txt")
    wpath = str(tmp_path / "w.txt")
    rc = main(["compress", "--matrix", mpath, "--p", str(p),
               "--in", xpath, "--out", wpath, "--manifest", manifest])
    assert rc == 0
    assert f"length={M.m + 2 * p}" in capsys.readouterr().out
    assert len(parse_vector((tmp_path / "w.txt").read_text())) == M.m + 2 * p
    ypath = str(tmp_path / "y.txt")
    rc = main(["decompress", "--matrix", mpath, "--p", str(p),
               "--in", wpath, "--out", ypath, "--manifest", manifest])
    assert rc == 0
    assert "support=3,8" in capsys.readouterr().out
    assert parse_vector((tmp_path / "y.txt").read_text()) == x


def test_compress_with_non_selector_matrix_is_usage_error(tmp_path, manifest,
                                                         capsys):
    M = BitMatrix.from_entries([[1, 1, 1], [1, 1, 1]])
    rc = main(["compress", "--matrix", matrix_file(tmp_path, M), "--p", "1",
               "--in", vector_file(tmp_path, (1, 0, 0), "x.txt"),
               "--out", str(tmp_path / "w.txt"), "--manifest", manifest])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: candidate list")
    lines = (tmp_path / "runs.tsv").read_text().splitlines()
    assert len(lines) == 1
    fields = lines[0].split("\t")
    assert len(fields) == 7
    assert fields[0] == "compress" and fields[6] == "error:InputError"


def _one_error_line(tmp_path, capsys, command):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert len(lines) == 1
    fields = (tmp_path / "runs.tsv").read_text().splitlines()[-1].split("\t")
    assert len(fields) == 7
    assert fields[0] == command and fields[6] == "error:InputError"
    return lines[0]


def test_compress_and_decompress_reject_entries_that_are_not_bits(
        tmp_path, manifest, capsys):
    # On a (4,3,12) selector a 2 in the input vector used to compress with
    # exit 0 and decompress to a 1: a lossy round trip with no error.
    p = 2
    M = construct_derandomized(selector_spec(2 * p, p + 1, 12))
    mpath = matrix_file(tmp_path, M)
    x = (2, 0, 0, 1) + (0,) * 8
    rc = main(["compress", "--matrix", mpath, "--p", str(p),
               "--in", vector_file(tmp_path, x, "x.txt"),
               "--out", str(tmp_path / "w.txt"), "--manifest", manifest])
    assert rc == 2
    line = _one_error_line(tmp_path, capsys, "compress")
    assert line == "error: vector entry 0 is 2, not a bit"
    assert not (tmp_path / "w.txt").exists()
    word = list(compress(M, p, (1, 0, 0, 1) + (0,) * 8).bits)
    word[M.m] = 2  # first bit of the mask part
    rc = main(["decompress", "--matrix", mpath, "--p", str(p),
               "--in", vector_file(tmp_path, word, "w.txt"),
               "--out", str(tmp_path / "y.txt"), "--manifest", manifest])
    assert rc == 2
    line = _one_error_line(tmp_path, capsys, "decompress")
    assert line == f"error: word entry {M.m} is 2, not a bit"
    assert not (tmp_path / "y.txt").exists()


def test_decompress_rejects_a_word_compress_never_gives(tmp_path, manifest,
                                                       capsys):
    # Clearing one of the two mask bits of x = {0, 3} used to decompress,
    # with exit 0, to {0}, whose compressed word is another one.
    p = 2
    M = construct_derandomized(selector_spec(2 * p, p + 1, 12))
    word = list(compress(M, p, (1, 0, 0, 1) + (0,) * 8).bits)
    assert word[M.m:] == [1, 1, 0, 0]
    word[M.m + 1] = 0
    rc = main(["decompress", "--matrix", matrix_file(tmp_path, M),
               "--p", str(p), "--in", vector_file(tmp_path, word, "w.txt"),
               "--out", str(tmp_path / "y.txt"), "--manifest", manifest])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: the selected columns do not OR to the union part\n"
    assert not (tmp_path / "y.txt").exists()


def test_decompress_rejects_wrong_length(tmp_path, manifest):
    p = 2
    M = construct_derandomized(selector_spec(2 * p, p + 1, 10))
    rc = main(["decompress", "--matrix", matrix_file(tmp_path, M),
               "--p", str(p),
               "--in", vector_file(tmp_path, (0,) * (M.m + 1)),
               "--out", str(tmp_path / "y.txt"), "--manifest", manifest])
    assert rc == 2


# -------------------------------------------------------- monotone encoding


def test_me_encode_decode_roundtrip(tmp_path, manifest, capsys):
    rc = main(["me-encode", "--n", "6", "--k", "2", "--set", "1,4",
               "--manifest", manifest])
    assert rc == 0
    word = capsys.readouterr().out.strip().removeprefix("word=")
    assert set(word) <= {"0", "1"}
    rc = main(["me-decode", "--n", "6", "--k", "2", "--word", word,
               "--manifest", manifest])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "set=1,4"


def test_me_encode_over_budget_chain_is_refused_at_once(tmp_path, manifest,
                                                      capsys):
    # The chain's first level has 2,000 constrained levels; one fill row
    # is over budget, so the refusal comes before the threshold and the
    # per-code table sizes, which took minutes to compute.
    assert main(["me-encode", "--n", "2000", "--k", "1000", "--set", "1",
                 "--manifest", manifest]) == 2
    assert capsys.readouterr() == (
        "", "error: at least 2^2008 fill evaluations per row exceed the "
            f"budget of {DEFAULT_SUBSET_BUDGET}; the derandomized fill is "
            "desk scale only\n")
    assert (tmp_path / "runs.tsv").read_text().endswith("\terror:BudgetError\n")


@pytest.mark.parametrize("command", [
    ["verify", "--matrix", "m.txt"],
    ["build", "--method", "random", "--out", "o.txt"],
], ids=["verify", "build-random"])
def test_over_budget_check_at_huge_n_is_refused_at_once(tmp_path, manifest,
                                                        capsys, command):
    # All 8,000 levels are constrained. Their subset counts come from one
    # running product; a comb() per level took over 5 s to refuse.
    n = 8000
    write(tmp_path / "s.txt",
          f"{n} {n}\n" + " ".join(str(i // 2 + 1) for i in range(1, n + 1)) + "\n")
    write(tmp_path / "m.txt", f"1 {n}\n" + "1" * n + "\n")
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in command]
    start = time.perf_counter()
    assert main(argv + ["--spec", str(tmp_path / "s.txt"),
                        "--manifest", manifest]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "", "error: at least 2^7999 subset checks exceed the budget of "
            f"{DEFAULT_SUBSET_BUDGET}; brute-force verification is desk "
            "scale only\n")
    assert (tmp_path / "runs.tsv").read_text().endswith("\terror:BudgetError\n")


def test_bounds_at_huge_n_is_quick(tmp_path, manifest, capsys):
    # All 8,000 levels are constrained. The threshold's per-level counts
    # C(n, j)·C(j, r) come from one running product; two comb() calls per
    # level took over 5 s.
    n = 8000
    write(tmp_path / "s.txt",
          f"{n} {n}\n" + " ".join(str(i // 2 + 1) for i in range(1, n + 1)) + "\n")
    start = time.perf_counter()
    assert main(["bounds", "--spec", str(tmp_path / "s.txt"),
                 "--manifest", manifest]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "upper=642131\nlower=4246\nthreshold=145429\nselector=72696\n", "")


def test_me_encode_rejects_bad_set(tmp_path, manifest):
    assert main(["me-encode", "--n", "6", "--k", "2", "--set", "1,,2",
                 "--manifest", manifest]) == 2


@pytest.mark.parametrize("members", ["1,,2", "+1,2", "1,\u0661", "1,2_0"],
                         ids=["empty-member", "plus-sign", "non-ascii-digit",
                              "underscore"])
def test_me_encode_bad_set_is_one_line_usage_error(manifest, capsys, members):
    assert main(["me-encode", "--n", "6", "--k", "2", "--set", members,
                 "--manifest", manifest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad column list {members!r}\n"


def test_me_encode_rejects_repeated_member(tmp_path, manifest, capsys):
    assert main(["me-encode", "--n", "4", "--k", "2", "--set", "1,1",
                 "--manifest", manifest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_me_decode_rejects_a_word_of_all_ones(tmp_path, manifest, capsys):
    # All 81 ones on the (8, 4) chain used to decode, with exit 0, to more
    # than k members.
    rc = main(["me-decode", "--n", "8", "--k", "4", "--word", "1" * 81,
               "--manifest", manifest])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: word pins 6 members, more than k = 4\n"
    fields = (tmp_path / "runs.tsv").read_text().splitlines()[-1].split("\t")
    assert fields[6] == "error:InconsistentObservationError"


def test_me_decode_rejects_non_binary_word(tmp_path, manifest):
    assert main(["me-decode", "--n", "6", "--k", "2", "--word", "01x",
                 "--manifest", manifest]) == 2


# ------------------------------------------------------------- mut decode


def test_mut_decode_command(tmp_path, manifest, capsys):
    from superselect import mut_spec

    spec = mut_spec(2, 2, 6)
    M = construct_derandomized(spec)
    obs = boolean_sum(M, (0, 5))
    rc = main(["mut-decode", "--matrix", matrix_file(tmp_path, M),
               "--spec", spec_file(tmp_path, spec),
               "--obs", vector_file(tmp_path, obs), "--manifest", manifest])
    assert rc == 0
    assert "identified=0,5" in capsys.readouterr().out


def test_mut_decode_runs_the_union_decode(tmp_path, manifest, capsys):
    import superselect
    from superselect import mut_spec

    assert superselect.mut_decode is superselect.identify_from_union
    spec = mut_spec(2, 2, 6)
    M = construct_derandomized(spec)
    files = ["--matrix", matrix_file(tmp_path, M), "--spec", spec_file(tmp_path, spec),
             "--obs", vector_file(tmp_path, boolean_sum(M, (0, 5))), "--manifest", manifest]
    outs = []
    for argv in (["mut-decode"], ["decode", "--mode", "union"]):
        assert main(argv + files) == 0
        outs.append(capsys.readouterr().out)
    assert outs == ["identified=0,5 candidates=0,5 spurious=0\n"] * 2
    lines = [ln.split("\t") for ln in (tmp_path / "runs.tsv").read_text().splitlines()]
    assert [f[0] for f in lines] == ["mut-decode", "decode"]
    assert lines[0][1:3] == lines[1][1:3]
    assert lines[0][1] == _digest(format_spec(spec))
    assert lines[0][2] == _digest(format_matrix(M))


# ------------------------------------------------------ manifest and errors


def test_manifest_accumulates_runs(tmp_path, manifest, capsys):
    spec = SuperSelectorSpec(6, 2, (1, 2))
    spath = spec_file(tmp_path, spec)
    out = str(tmp_path / "m.txt")
    assert main(["bounds", "--spec", spath, "--manifest", manifest]) == 0
    assert main(["build", "--spec", spath, "--out", out,
                 "--manifest", manifest]) == 0
    assert main(["verify", "--matrix", out, "--spec", spath,
                 "--manifest", manifest]) == 0
    capsys.readouterr()
    lines = (tmp_path / "runs.tsv").read_text().strip().split("\n")
    assert [ln.split("\t")[0] for ln in lines] == ["bounds", "build", "verify"]
    for ln in lines:
        assert len(ln.split("\t")) == 7
    build_fields = lines[1].split("\t")
    assert build_fields[1] != "-" and build_fields[2] != "-"
    assert build_fields[5] == out
    assert build_fields[6] == "ok"


def _malformed_matrix(tmp_path):
    spec = SuperSelectorSpec(4, 2, (1, 2))
    return ["verify", "--matrix", write(tmp_path / "bad.txt", "3 4\n0101\n01\n0101\n"),
            "--spec", spec_file(tmp_path, spec)]


def _superscript_matrix_header(tmp_path):
    # str.isdigit accepts '\u00b2', int() does not.
    spec = SuperSelectorSpec(4, 2, (1, 2))
    return ["verify", "--matrix", write(tmp_path / "bad.txt", "\u00b2 4\n0101\n0110\n"),
            "--spec", spec_file(tmp_path, spec)]


def _superscript_spec_header(tmp_path):
    return ["bounds", "--spec", write(tmp_path / "s.txt", "\u00b2 2\n1 2\n")]


def _missing_v_line(tmp_path):
    return ["bounds", "--spec", write(tmp_path / "s.txt", "2 2\n")]


def _not_utf8_spec(tmp_path):
    return ["bounds", "--spec", write_bytes(tmp_path / "s.txt", b"\xff\xfe")]


def _not_utf8_matrix(tmp_path):
    spec = SuperSelectorSpec(4, 2, (1, 2))
    return ["verify", "--matrix", write_bytes(tmp_path / "bad.txt", b"\xff\xfe"),
            "--spec", spec_file(tmp_path, spec)]


def _not_utf8_obs(tmp_path):
    spec = SuperSelectorSpec(2, 1, (1,))
    return ["decode", "--matrix", matrix_file(tmp_path, BitMatrix.identity(2)),
            "--spec", spec_file(tmp_path, spec),
            "--obs", write_bytes(tmp_path / "obs.txt", b"\xff\xfe")]


def _over_budget(tmp_path):
    spec = SuperSelectorSpec(6, 2, (1, 2))
    return ["verify", "--matrix", matrix_file(tmp_path, construct_derandomized(spec)),
            "--spec", spec_file(tmp_path, spec), "--budget", "1"]


def _attempts_exhausted(tmp_path):
    return ["build", "--spec", spec_file(tmp_path, SuperSelectorSpec(12, 2, (1, 2))),
            "--method", "random", "--seed", "1", "--max-attempts", "1",
            "--out", str(tmp_path / "m.txt")]


def _random_over_budget(tmp_path):
    # C(200000, 2) subsets per check: refused before the first sample.
    return ["build", "--spec", spec_file(tmp_path, SuperSelectorSpec(200_000, 2, (1, 2))),
            "--method", "random", "--out", str(tmp_path / "m.txt")]


def _inconsistent_additive(tmp_path):
    return ["decode", "--mode", "additive",
            "--matrix", matrix_file(tmp_path, BitMatrix.identity(2)),
            "--spec", spec_file(tmp_path, SuperSelectorSpec(2, 1, (1,))),
            "--obs", vector_file(tmp_path, (2, 1))]


# A lone surrogate outside U+DC80-U+DCFF stands for no byte, so opening
# the path fails; only a library call of main can pass one.
_SURROGATE = "c\ud800.txt"


def _surrogate_out(tmp_path):
    return ["build", "--spec", spec_file(tmp_path, SuperSelectorSpec(6, 2, (1, 2))),
            "--out", str(tmp_path / _SURROGATE)]


def _surrogate_spec(tmp_path):
    return ["bounds", "--spec", str(tmp_path / _SURROGATE)]


def _surrogate_matrix(tmp_path):
    return ["verify", "--matrix", str(tmp_path / _SURROGATE),
            "--spec", spec_file(tmp_path, SuperSelectorSpec(4, 2, (1, 2)))]


def _surrogate_in(tmp_path):
    return ["compress", "--matrix", matrix_file(tmp_path, BitMatrix.identity(2)),
            "--p", "1", "--in", str(tmp_path / _SURROGATE), "--out", str(tmp_path / "o")]


def _failing_verify(tmp_path):
    return ["verify", "--matrix", matrix_file(tmp_path, BitMatrix.zeros(3, 4)),
            "--spec", spec_file(tmp_path, SuperSelectorSpec(4, 2, (1, 2)))]


@pytest.mark.parametrize("make_argv, code, verdict", [
    (_malformed_matrix, 2, "error:ParseError"),
    (_superscript_matrix_header, 2, "error:ParseError"),
    (_superscript_spec_header, 2, "error:ParseError"),
    (_not_utf8_spec, 2, "error:ParseError"),
    (_not_utf8_matrix, 2, "error:ParseError"),
    (_not_utf8_obs, 2, "error:ParseError"),
    (_over_budget, 2, "error:BudgetError"),
    (_random_over_budget, 2, "error:BudgetError"),
    (_attempts_exhausted, 1, "error:ConstructionFailure"),
    (_inconsistent_additive, 1, "error:InconsistentObservationError"),
    (_failing_verify, 1, "fail"),
    (_surrogate_out, 2, "error:UnicodeEncodeError"),
    (_surrogate_spec, 2, "error:UnicodeEncodeError"),
    (_surrogate_matrix, 2, "error:UnicodeEncodeError"),
    (_surrogate_in, 2, "error:UnicodeEncodeError"),
    (_missing_v_line, 2, "error:ParseError"),
], ids=["malformed-matrix", "superscript-matrix-header",
        "superscript-spec-header", "not-utf8-spec", "not-utf8-matrix",
        "not-utf8-obs", "over-budget", "random-over-budget",
        "attempts-exhausted", "inconsistent-observation", "failing-verify",
        "surrogate-out", "surrogate-spec", "surrogate-matrix", "surrogate-in",
        "missing-v-line"])
def test_failed_run_writes_one_manifest_line(tmp_path, manifest, capsys,
                                             make_argv, code, verdict):
    argv = make_argv(tmp_path)
    assert main(argv + ["--manifest", manifest]) == code
    captured = capsys.readouterr()
    if verdict.startswith("error:"):
        assert captured.out == ""
        lines = captured.err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert (captured.out, captured.err) == (verdict + "\n", "")
    lines = (tmp_path / "runs.tsv").read_text().splitlines()
    assert len(lines) == 1
    fields = lines[0].split("\t")
    assert len(fields) == 7
    assert fields[0] == argv[0] and fields[6] == verdict
    assert float(fields[4]) >= 0.0


@pytest.mark.parametrize("name, escaped", [
    ("m\tx.txt", "m\\tx.txt"),
    ("m\nx.txt", "m\\nx.txt"),
    ("m\rx.txt", "m\\rx.txt"),
    ("m\\tx.txt", "m\\\\tx.txt"),
], ids=["tab", "newline", "carriage-return", "backslash"])
def test_manifest_escapes_control_characters(tmp_path, manifest, capsys,
                                             name, escaped):
    out = tmp_path / name
    assert main(["build", "--spec",
                 spec_file(tmp_path, SuperSelectorSpec(6, 2, (1, 2))),
                 "--out", str(out), "--manifest", manifest]) == 0
    capsys.readouterr()
    assert out.exists()
    lines = (tmp_path / "runs.tsv").read_text().split("\n")
    assert lines[1:] == [""]
    fields = lines[0].split("\t")
    assert len(fields) == 7
    assert fields[5] == str(tmp_path / escaped)


def test_unwritable_manifest_is_one_line_usage_error(tmp_path, capsys):
    spec_path = spec_file(tmp_path, SuperSelectorSpec(8, 2, (1, 2)))
    # A directory, and a path that cannot be encoded.
    for path in (tmp_path, tmp_path / _SURROGATE):
        assert main(["bounds", "--spec", spec_path, "--manifest", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("make_argv", [
    _malformed_matrix, _over_budget, _attempts_exhausted, _inconsistent_additive,
], ids=["malformed-matrix", "over-budget", "attempts-exhausted",
        "inconsistent-observation"])
def test_failed_run_leaves_no_reference_cycles(tmp_path, manifest, capsys, make_argv):
    # With the cyclic collector off, a failed run must leave nothing for
    # it: main keeps the error's message, not the exception, whose
    # traceback would lead back to main's frame.
    argv = make_argv(tmp_path) + ["--manifest", manifest]
    unwritable = ["bounds", "--spec", spec_file(tmp_path, SuperSelectorSpec(8, 2, (1, 2))),
                  "--manifest", str(tmp_path)]
    gc.collect()
    gc.disable()
    try:
        assert main(argv) in (1, 2)
        assert main(unwritable) == 2
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_parse_error_reports_file_and_line(tmp_path, manifest, capsys):
    bad = write(tmp_path / "bad.txt", "3 4\n0101\n01\n0101\n")
    spec = SuperSelectorSpec(4, 2, (1, 2))
    rc = main(["verify", "--matrix", bad,
               "--spec", spec_file(tmp_path, spec), "--manifest", manifest])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.txt:3" in err


def test_non_utf8_file_error_names_file_and_line(tmp_path, manifest, capsys):
    bad = write_bytes(tmp_path / "bad.txt", b"2 3\r\n011\r\n1\xff0\r\n")
    spec = SuperSelectorSpec(3, 2, (1, 2))
    assert main(["verify", "--matrix", bad, "--spec", spec_file(tmp_path, spec),
                 "--manifest", manifest]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:3: not UTF-8 text")
    assert err.count("\n") == 1


def test_missing_file_is_usage_error(tmp_path, manifest, capsys):
    rc = main(["bounds", "--spec", str(tmp_path / "nope.txt"),
               "--manifest", manifest])
    assert rc == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["build", "--out", "x.txt"]) == 2


# ------------------------------------------------------------- dispatch


@pytest.mark.parametrize("argv, prog", [
    (["-h"], "superselect"),
    (["decode", "-h"], "superselect decode"),
])
def test_help_exits_zero_and_prints_usage(tmp_path, monkeypatch, capsys,
                                          argv, prog):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {prog} [-h]")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, prog, message", [
    ([], "superselect", "the following arguments are required: command"),
    (["frobnicate"], "superselect", "invalid choice: 'frobnicate'"),
    (["decode", "--mode", "xor"], "superselect decode",
     "argument --mode: invalid choice: 'xor'"),
    (["bounds", "--spec", "s.txt", "--bogus"], "superselect",
     "unrecognized arguments: --bogus"),
], ids=["no-command", "unknown-command", "bad-choice", "unrecognized"])
def test_rejected_argv_is_usage_error_with_no_manifest_line(
        tmp_path, monkeypatch, capsys, argv, prog, message):
    # A known command's own parser rejects its flags; unrecognized
    # arguments are reported by the top-level parser, as they were when
    # it parsed every argv. The default manifest would land in tmp_path.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: {prog} [-h]")
    errors = [ln for ln in captured.err.splitlines() if ": error: " in ln]
    assert len(errors) == 1
    assert errors[0].startswith(f"{prog}: error: ") and message in errors[0]
    assert not os.listdir(tmp_path)


def test_main_without_argv_reads_sys_argv(tmp_path, monkeypatch, capsys):
    spath = spec_file(tmp_path, SuperSelectorSpec(8, 2, (1, 2)))
    mpath = str(tmp_path / "runs.tsv")
    monkeypatch.setattr(sys, "argv", ["superselect", "bounds", "--spec", spath,
                                      "--manifest", mpath])
    assert main() == 0
    assert capsys.readouterr().out.startswith("upper=")
    line = (tmp_path / "runs.tsv").read_text()
    assert line.count("\n") == 1 and line.split("\t")[0] == "bounds"


def test_manifest_first_field_is_the_command(tmp_path, manifest, capsys):
    spath = spec_file(tmp_path, SuperSelectorSpec(5, 2, (1, 2)))
    argvs = [
        ["bounds", "--spec", spath],
        ["me-encode", "--n", "8", "--k", "4", "--set", "1,2"],
        ["me-decode", "--n", "8", "--k", "4", "--word", "01a1"],
        _decode_argv(tmp_path),
    ]
    for argv in argvs:
        main(argv + ["--manifest", manifest])
    lines = (tmp_path / "runs.tsv").read_text().splitlines()
    assert [ln.split("\t")[0] for ln in lines] == [a[0] for a in argvs]


# ------------------------------------------------ one parser, many runs


def _decode_argv(tmp_path):
    M = BitMatrix.identity(5)
    spec = SuperSelectorSpec(5, 2, (1, 2))
    return ["decode", "--matrix", matrix_file(tmp_path, M),
            "--spec", spec_file(tmp_path, spec),
            "--obs", vector_file(tmp_path, boolean_sum(M, (1, 3)))]


def test_plain_decode_after_approx_decode_uses_defaults(tmp_path, manifest,
                                                        capsys):
    argv = _decode_argv(tmp_path) + ["--manifest", manifest]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert main(argv + ["--mode", "approx", "--e0", "1", "--e1", "1"]) == 0
    assert capsys.readouterr().out.startswith("low=")
    assert main(argv) == 0
    assert capsys.readouterr() == first
    assert first.out == "identified=1,3 candidates=1,3 spurious=0\n"


def test_bounds_after_argparse_rejection(tmp_path, manifest, capsys):
    spath = spec_file(tmp_path, SuperSelectorSpec(8, 2, (1, 2)), "bounds.txt")
    bounds = ["bounds", "--spec", spath, "--manifest", manifest]
    assert main(bounds) == 0
    expected = capsys.readouterr().out
    assert main(_decode_argv(tmp_path) + ["--mode", "xor",
                                          "--manifest", manifest]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(bounds) == 0
    out = capsys.readouterr().out
    assert out == expected and len(out.splitlines()) == 4
    lines = (tmp_path / "runs.tsv").read_text().splitlines()
    assert [ln.split("\t")[0] for ln in lines] == ["bounds", "bounds"]


def test_derand_build_after_random_build_records_no_seed(tmp_path, manifest,
                                                         capsys):
    build = ["build", "--spec",
             spec_file(tmp_path, SuperSelectorSpec(8, 2, (1, 2))),
             "--out", str(tmp_path / "m.txt"), "--manifest", manifest]
    assert main(build + ["--method", "random", "--seed", "5"]) == 0
    assert main(build) == 0
    assert "method=derand" in capsys.readouterr().out
    lines = (tmp_path / "runs.tsv").read_text().splitlines()
    assert [ln.split("\t")[3] for ln in lines] == ["5", "-"]


def test_main_builds_no_parser_per_call(tmp_path, manifest, monkeypatch,
                                        capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    spath = spec_file(tmp_path, SuperSelectorSpec(8, 2, (1, 2)))
    for _ in range(2):
        assert main(["bounds", "--spec", spath, "--manifest", manifest]) == 0
    assert built == []


# --------------------------------------------------- the real entry path


def _run_module(*args):
    # The process entry: `main()` reads sys.argv, and its return value
    # becomes the exit status.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "superselect.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_runs_a_command(tmp_path):
    spec = SuperSelectorSpec(8, 2, (1, 2))
    manifest = tmp_path / "runs.tsv"
    proc = _run_module("bounds", "--spec", spec_file(tmp_path, spec),
                       "--manifest", str(manifest))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [ln.partition("=")[0] for ln in lines] == [
        "upper", "lower", "threshold", "selector"]
    assert lines[0] == f"upper={superselector_upper_bound(spec).m}"
    assert proc.stderr == ""
    assert manifest.read_text().split("\t")[0] == "bounds"


def test_module_entry_exits_two_on_unknown_command():
    proc = _run_module("frobnicate")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: superselect [-h]")
    errors = [ln for ln in proc.stderr.splitlines() if ": error: " in ln]
    assert len(errors) == 1 and "invalid choice: 'frobnicate'" in errors[0]


# ------------------------------------------- oversized and huge-n inputs

_LONG = "9" * 5000  # past int()'s default limit of 4,300 digits


def _m2(tmp_path):
    return matrix_file(tmp_path, BitMatrix.identity(2))


def _huge_spec(tmp_path, n):
    return write(tmp_path / "huge.txt", f"{n} 2\n1 2\n")


@pytest.mark.parametrize("make_argv, code", [
    (lambda t: ["compress", "--matrix", _m2(t), "--p", "1", "--in",
                write(t / "v.txt", _LONG + "\n"), "--out", str(t / "o")], 2),
    (lambda t: ["decompress", "--matrix", _m2(t), "--p", "1", "--in",
                write(t / "v.txt", "0\n " + _LONG + "\n"), "--out", str(t / "o")], 2),
    (lambda t: ["me-encode", "--n", "8", "--k", "2", "--set", "1," + _LONG], 2),
    (lambda t: ["bounds", "--spec", write(t / "s.txt", _LONG + " 2\n1 2\n")], 2),
    (lambda t: ["bounds", "--spec", write(t / "s.txt", "8 2\n1 " + _LONG + "\n")], 2),
    (lambda t: ["verify", "--matrix", write(t / "m.txt", _LONG + " 2\n10\n01\n"),
                "--spec", spec_file(t, SuperSelectorSpec(2, 1, (1,)))], 2),
    (lambda t: ["bounds", "--spec", _huge_spec(t, 10**200)], 0),
    (lambda t: ["bounds", "--spec", _huge_spec(t, 10**400)], 0),
    (lambda t: ["build", "--spec", _huge_spec(t, 10**200), "--out", str(t / "o")], 2),
    (lambda t: ["build", "--spec", _huge_spec(t, 10**1500), "--out", str(t / "o")], 2),
    (lambda t: ["me-encode", "--n", str(10**200), "--k", "2", "--set", "1"], 2),
    (lambda t: ["compress", "--matrix", _m2(t), "--p", str(10**400), "--in",
                write(t / "v.txt", "1\n0\n"), "--out", str(t / "o")], 2),
    (lambda t: ["compress", "--matrix", _m2(t), "--p", _LONG, "--in",
                write(t / "v.txt", "1\n0\n"), "--out", str(t / "o")], 2),
    (lambda t: ["me-encode", "--n", "\u0668", "--k", "2"], 2),
    (lambda t: ["me-encode", "--n", "1_0", "--k", "2"], 2),
    (lambda t: ["me-encode", "--n", "8", "--k", "+2"], 2),
    (lambda t: ["build", "--spec", spec_file(t, SuperSelectorSpec(6, 2, (1, 2))),
                "--out", str(t / "o"), "--seed", "\u0663"], 2),
    (lambda t: ["build", "--spec", spec_file(t, SuperSelectorSpec(6, 2, (1, 2))),
                "--out", str(t / "o"), "--method", "random", "--seed", "-5"], 0),
], ids=["vector-fast-path", "vector-line-loop", "set-list", "spec-header",
        "spec-v-line", "matrix-header", "bounds-1e200", "bounds-1e400",
        "build-1e200", "build-1e1500", "me-encode-1e200", "compress-p-1e400",
        "compress-p-5000-digits", "flag-non-ascii-digit", "flag-underscore",
        "flag-plus-sign", "seed-non-ascii-digit", "seed-negative"])
def test_oversized_and_huge_inputs_end_in_one_line(tmp_path, manifest, capsys,
                                                   make_argv, code):
    # A 5,000-digit field is a usage error at its line; a huge n gets its
    # bounds, or a budget refusal before any enumeration; a p with no
    # (2p, p+1, n)-selector is refused before anything of size p is built.
    # An integer flag takes ASCII digits after one optional '-', as every
    # list flag and file field does.
    assert main(make_argv(tmp_path) + ["--manifest", manifest]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == (code != 0)


@pytest.mark.parametrize("argv, flag", [
    (["me-encode", "--n", "8", "--k", "+2"], "--k"),
    (["me-encode", "--n", "1_0", "--k", "2"], "--n"),
    (["decode", "--matrix", "m", "--spec", "s", "--obs", "o", "--e1", "١"], "--e1"),
])
def test_bad_integer_flag_line_names_the_flag(manifest, capsys, argv, flag):
    assert main(argv + ["--manifest", manifest]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {flag}: ") and err.count("\n") == 1
    assert not Path(manifest).exists()


def test_non_utf8_out_path_is_written_back_as_its_bytes(tmp_path, manifest,
                                                        capsys):
    out = str(tmp_path / "c\udcff.txt")
    assert main(["build", "--spec",
                 spec_file(tmp_path, SuperSelectorSpec(6, 2, (1, 2))),
                 "--out", out, "--manifest", manifest]) == 0
    # The output and the manifest keep the path's bytes; the result line,
    # printed on a strict UTF-8 stream here, shows U+FFFD in their place.
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "out=" + str(tmp_path / "c\ufffd.txt") in captured.out
    assert (tmp_path / "c\udcff.txt").exists()
    assert b"c\xff.txt\tok\n" in Path(manifest).read_bytes()


def test_module_entry_takes_a_non_utf8_out_path_as_raw_bytes(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"),
               PYTHONIOENCODING="utf-8:strict")
    manifest = tmp_path / "runs.tsv"
    proc = subprocess.run(
        [sys.executable, "-m", "superselect.cli", "build",
         "--spec", spec_file(tmp_path, SuperSelectorSpec(6, 2, (1, 2))),
         "--out", os.fsencode(tmp_path) + b"/c\xff.txt",
         "--manifest", str(manifest)],
        capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert b"/c\xef\xbf\xbd.txt verify=ok\n" in proc.stdout
    assert os.fsencode(tmp_path) + b"/c\xff.txt\tok\n" in manifest.read_bytes()


# ------------------------------------------------- argv items no shell gives


@pytest.mark.parametrize("make_argv, message", [
    (lambda t, s: ["bounds", "--spec", Path(s)], f"argv[2] is not a str ({type(Path()).__name__})"),
    (lambda t, s: ["me-encode", "--n", 8, "--k", "4"], "argv[2] is not a str (int)"),
    (lambda t, s: [b"bounds", "--spec", s], "argv[0] is not a str (bytes)"),
    (lambda t, s: ["bounds", "--spec", s + "\x00"], "argv[2] holds a NUL character"),
    (lambda t, s: ["build", "--spec", s, "--out", str(t / "o\x00")],
     "argv[4] holds a NUL character"),
    (lambda t, s: ["bounds", "--spec", s, "--manifest", str(t / "r\x00.tsv")],
     "argv[4] holds a NUL character"),
], ids=["path", "int", "bytes", "nul-spec", "nul-out", "nul-manifest"])
def test_argv_item_no_shell_gives_is_one_line_usage_error(
        tmp_path, monkeypatch, capsys, make_argv, message):
    # The default manifest would land in the working directory.
    spath = spec_file(tmp_path, SuperSelectorSpec(8, 2, (1, 2)))
    monkeypatch.chdir(tmp_path)
    assert main(make_argv(tmp_path, spath)) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert os.listdir(tmp_path) == ["spec.txt"]
