"""Flag parsing of the command line: the direct parse against argparse.

`superselect.cli` parses a well-formed argv of a known command straight
from its flag table and hands every other argv to argparse. These tests
check that both give the same result, that the direct parse is the one
the benchmark's command lines take, and pin what every command's flags
parse to.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superselect import DEFAULT_SUBSET_BUDGET, cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import WORKLOADS  # noqa: E402

# A minimal valid argv per command and every dest it parses to: the
# defaults, `func`, and `mode` for mut-decode.
MINIMAL = {
    "bounds": (["--spec", "s"],
               {"manifest": "runs.tsv", "spec": "s", "func": cli.cmd_bounds}),
    "build": (["--spec", "s", "--out", "o"],
              {"manifest": "runs.tsv", "spec": "s", "method": "derand", "seed": 0,
               "max_attempts": 100, "out": "o", "verify": "on",
               "func": cli.cmd_build}),
    "verify": (["--matrix", "m", "--spec", "s"],
               {"manifest": "runs.tsv", "matrix": "m", "spec": "s",
                "budget": DEFAULT_SUBSET_BUDGET, "func": cli.cmd_verify}),
    "decode": (["--matrix", "m", "--spec", "s", "--obs", "o"],
               {"manifest": "runs.tsv", "matrix": "m", "spec": "s", "mode": "union",
                "obs": "o", "e0": 0, "e1": 0, "func": cli.cmd_decode}),
    "compress": (["--matrix", "m", "--p", "2", "--in", "i", "--out", "o"],
                 {"manifest": "runs.tsv", "matrix": "m", "p": 2, "in": "i",
                  "out": "o", "func": cli.cmd_compress}),
    "decompress": (["--matrix", "m", "--p", "2", "--in", "i", "--out", "o"],
                   {"manifest": "runs.tsv", "matrix": "m", "p": 2, "in": "i",
                    "out": "o", "func": cli.cmd_decompress}),
    "me-encode": (["--n", "8", "--k", "4"],
                  {"manifest": "runs.tsv", "n": 8, "k": 4, "set": "",
                   "func": cli.cmd_me_encode}),
    "me-decode": (["--n", "8", "--k", "4", "--word", "0"],
                  {"manifest": "runs.tsv", "n": 8, "k": 4, "word": "0",
                   "func": cli.cmd_me_decode}),
    "mut-decode": (["--matrix", "m", "--spec", "s", "--obs", "o"],
                   {"manifest": "runs.tsv", "matrix": "m", "spec": "s", "obs": "o",
                    "mode": "union", "func": cli.cmd_decode}),
}


def argparse_only(argv):
    """The reference: the command's own parser, with what it leaves over
    reported by the top-level parser."""
    args, extras = cli._COMMANDS[argv[0]].parse_known_args(argv[1:])
    if extras:
        cli._PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def outcome(parse, argv):
    """Exit code (None when parsing succeeds), stdout, stderr and, on
    success, the parsed dests."""
    out, err = io.StringIO(), io.StringIO()
    args = code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), args and vars(args)


def test_every_command_is_pinned():
    assert sorted(MINIMAL) == sorted(cli._COMMAND_TABLE) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(MINIMAL))
def test_minimal_argv_parses_to_the_pinned_dests(command):
    argv, expected = MINIMAL[command]
    assert vars(cli._direct(command, argv)) == expected
    assert vars(argparse_only([command, *argv])) == expected


@pytest.mark.parametrize("command", sorted(MINIMAL))
def test_command_help_exits_zero_and_prints_usage(command, capsys):
    assert cli.main([command, "-h"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: superselect {command} [-h]")
    assert captured.err == ""


# Tokens that the direct parse must leave to argparse, and values that
# are valid for no flag of some kind.
ODD_TOKENS = ["-h", "--bogus", "--mat", "--spec=x", "-5", "-", ""]
BAD_VALUES = ["xor", "x1", "1_0", "+2", "a b"]


@st.composite
def command_lines(draw):
    """A minimal valid argv with flags added, shuffled, and maybe an odd
    token, a bad value, a missing required flag or an odd item count."""
    command = draw(st.sampled_from(sorted(MINIMAL)))
    kinds = {flag: kind for flag, kind, *_ in cli._COMMON + cli._COMMAND_TABLE[command][3]}
    required, _ = MINIMAL[command]
    pairs = [required[i:i + 2] for i in range(0, len(required), 2)]
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(sorted(kinds)))
        kind = kinds[flag]
        good = ["8", "0"] if kind is int else ["s", ""] if kind is str else list(kind)
        if draw(st.integers(0, 3)) == 0:
            flag = draw(st.sampled_from(ODD_TOKENS))
        value = draw(st.sampled_from(good) if draw(st.integers(0, 3))
                     else st.sampled_from(BAD_VALUES + ODD_TOKENS))
        pairs.append([flag, value])
    pairs = draw(st.permutations(pairs))
    if pairs and draw(st.integers(0, 3)) == 0:  # a required flag missing, maybe
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    argv = [item for pair in pairs for item in pair]
    if argv and draw(st.integers(0, 4)) == 0:  # an odd item count
        del argv[draw(st.integers(0, len(argv) - 1))]
    return [command, *argv]


@settings(max_examples=600, deadline=None)
@given(argv=command_lines())
def test_main_parse_matches_argparse(argv):
    assert outcome(cli._parse, argv) == outcome(argparse_only, argv)


def test_bad_integer_exits_in_argv_order_like_argparse():
    # argparse classifies every item before it reads any value, so an
    # ambiguous flag later in argv wins over a bad integer before it.
    for argv in (["decode", "--e0", "x1", "--mode", "xor"],
                 ["decode", "--mode", "xor", "--e0", "x1"],
                 ["decode", "--e0", "x1", "--m", "s"],
                 ["decode", "--e0", "x1", "--spec"],
                 ["me-encode", "--n", "8", "--k", "x1", "--n", "x2"]):
        assert outcome(cli._parse, argv) == outcome(argparse_only, argv)
        assert outcome(cli._parse, argv)[0] == 2


def test_benchmark_command_lines_take_no_argparse_pass(tmp_path, monkeypatch):
    # Every argv of the cli workload's first round, and each of its
    # malformed inputs, runs without argparse except the bad --mode choice.
    passes = []
    for name in ("parse_known_args", "parse_args"):
        method = getattr(argparse.ArgumentParser, name)

        def counting(self, *args, _method=method, **kwargs):
            passes[-1] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, name, counting)
    seen = {}

    def main(argv):
        passes.append(0)
        code = cli.main(argv)
        seen[tuple(argv)] = passes[-1]
        return code

    workload = WORKLOADS["cli"](0, tmp_path / "cli")
    workload.setup()
    workload.use_entries({"main": main})
    for op in workload.round(0):
        assert op.check(op.run())
    for argv in workload.malformed:
        assert workload.cli(argv + ["--manifest", workload.manifest])[0] == 2
    assert len(seen) >= 13
    assert {argv: n for argv, n in seen.items() if n} == {
        argv: 1 for argv in seen if "xor" in argv}
    assert any("xor" in argv for argv in seen)
