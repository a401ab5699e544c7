"""End-to-end tests of the command-line interface.

Every test drives main() as a plain function with explicit argv and a
manifest path under tmp_path, so nothing leaks between tests.
"""

from __future__ import annotations

import argparse

import pytest

from superselect import (
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
from superselect.cli import main


@pytest.fixture()
def manifest(tmp_path):
    return str(tmp_path / "runs.tsv")


def write(path, text):
    path.write_text(text)
    return str(path)


def spec_file(tmp_path, spec, name="spec.txt"):
    return write(tmp_path / name, format_spec(spec))


def matrix_file(tmp_path, M, name="matrix.txt"):
    return write(tmp_path / name, format_matrix(M))


def vector_file(tmp_path, vec, name="vec.txt"):
    return write(tmp_path / name, format_vector(vec))


# ----------------------------------------------------------------- bounds


def test_bounds_output(tmp_path, manifest, capsys):
    spec = SuperSelectorSpec(8, 2, (1, 2))
    rc = main(["bounds", "--spec", spec_file(tmp_path, spec),
               "--manifest", manifest])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == f"upper={superselector_upper_bound(spec).m}"
    assert lines[1] == f"lower={superselector_lower_bound(spec).m}"
    assert lines[2] == f"threshold={derand_threshold(spec)}"
    assert lines[3].startswith("selector=")


def test_bounds_accepts_crlf_files(tmp_path, manifest, capsys):
    path = write(tmp_path / "spec.txt", "8 2\r\n1 2\r\n")
    assert main(["bounds", "--spec", path, "--manifest", manifest]) == 0
    assert "threshold=" in capsys.readouterr().out


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


# ------------------------------------------------------------------ bench


def test_bench_reports_slope(tmp_path, manifest, capsys):
    rc = main(["bench", "--p", "2", "--n", "4,8", "--repeat", "1",
               "--manifest", manifest])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("slope=")
    assert "n=4:" in out and "n=8:" in out


def test_bench_needs_two_sizes(tmp_path, manifest):
    assert main(["bench", "--p", "2", "--n", "4",
                 "--manifest", manifest]) == 2


@pytest.mark.parametrize("flags", [
    ["--n", "8,8"],
    ["--n", "8,x"],
    ["--n", "4,8", "--repeat", "0"],
], ids=["equal-sizes", "non-integer-size", "zero-repeats"])
def test_bench_bad_input_is_one_line_usage_error(manifest, capsys, flags):
    assert main(["bench", "--p", "2", *flags, "--manifest", manifest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: ")


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


def test_me_encode_rejects_bad_set(tmp_path, manifest):
    assert main(["me-encode", "--n", "6", "--k", "2", "--set", "1,,2",
                 "--manifest", manifest]) == 2


def test_me_encode_rejects_repeated_member(tmp_path, manifest, capsys):
    assert main(["me-encode", "--n", "4", "--k", "2", "--set", "1,1",
                 "--manifest", manifest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: ")


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


def _failing_verify(tmp_path):
    return ["verify", "--matrix", matrix_file(tmp_path, BitMatrix.zeros(3, 4)),
            "--spec", spec_file(tmp_path, SuperSelectorSpec(4, 2, (1, 2)))]


@pytest.mark.parametrize("make_argv, code, verdict", [
    (_malformed_matrix, 2, "error:ParseError"),
    (_superscript_matrix_header, 2, "error:ParseError"),
    (_superscript_spec_header, 2, "error:ParseError"),
    (_over_budget, 2, "error:BudgetError"),
    (_random_over_budget, 2, "error:BudgetError"),
    (_attempts_exhausted, 1, "error:ConstructionFailure"),
    (_inconsistent_additive, 1, "error:InconsistentObservationError"),
    (_failing_verify, 1, "fail"),
], ids=["malformed-matrix", "superscript-matrix-header",
        "superscript-spec-header", "over-budget", "random-over-budget",
        "attempts-exhausted", "inconsistent-observation", "failing-verify"])
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
    assert main(["bounds", "--spec", spec_path,
                 "--manifest", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_parse_error_reports_file_and_line(tmp_path, manifest, capsys):
    bad = write(tmp_path / "bad.txt", "3 4\n0101\n01\n0101\n")
    spec = SuperSelectorSpec(4, 2, (1, 2))
    rc = main(["verify", "--matrix", bad,
               "--spec", spec_file(tmp_path, spec), "--manifest", manifest])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.txt:3" in err


def test_missing_file_is_usage_error(tmp_path, manifest, capsys):
    rc = main(["bounds", "--spec", str(tmp_path / "nope.txt"),
               "--manifest", manifest])
    assert rc == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["build", "--out", "x.txt"]) == 2


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
