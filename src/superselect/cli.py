"""Command-line front end.

Subcommands cover the whole pipeline: size bounds, matrix construction,
brute-force verification, the three decoders and the application codecs.
`main` is the one run path: it times each run from the end of flag
parsing, maps errors to exit codes, and appends one tab-separated line,
in one write on an O_APPEND file descriptor, to the manifest file for
every run that passes flag parsing, including failed runs, whose verdict
is `error:<Class>` (rejected flags write none). Input files are read
with `os.read` until their end and outputs are written through a file
descriptor, in place, with no Python file object. A spec or matrix
file in canonical form, the text `format_spec` or `format_matrix`
writes, is accepted by one check of the whole text; every other file,
and every rejection, goes through the per-line checks, which give each
error its line. Every run reads and checks its files anew. The manifest
digests a matrix as the text `format_matrix` writes for it, which a
parsed matrix holds already, so a file's layout never changes the
digest. A command prints one machine-readable result line (`bounds`
prints its four labeled lines) on standard output, or one `error: ...`
line on standard error.

Exit status: 0 on success, 1 when a verification or decode fails, 2 on
usage errors (bad flags, malformed files, out-of-range parameters).

One table, `_COMMAND_TABLE`, holds every command's flags. The argument
parsers are built from it once, when this module is imported, and every
`main` call reuses them. A known command whose flags are all exact
`--flag value` pairs, with no value starting with '-', valid choices and
every required flag given, is parsed straight from the table, with no
argparse pass, into the Namespace argparse would give. Every other
argv, help, no command and an unknown command included, goes to the
top-level parser, one argparse pass. So help and every usage error are
argparse's. An argv item that is not a str, or holds a NUL, is rejected
before any parse with one `error: ...` line, exit 2.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import stat
import sys
import time
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import repeat

from .core import (
    DEFAULT_SUBSET_BUDGET,
    BitMatrix,
    BudgetError,
    InputError,
    ParseError,
    SuperSelectorSpec,
    _TO_BITS,
    _TO_DIGITS,
    _is_digits,
    format_matrix,
    format_spec,
    format_vector,
    is_superselector,
    parse_matrix,
    parse_spec,
    parse_vector,
    selector_spec,
)
from .sizing import (
    derand_threshold,
    superselector_lower_bound,
    superselector_upper_bound,
    selector_upper_bound,
)
from .construct import (
    ConstructionFailure,
    PrecisionFault,
    construct_derandomized,
    construct_randomized,
)
from .decode import (
    InconsistentObservationError,
    additive_decode,
    approx_decode,
    identify_from_union,
)
from .apps import (
    compress,
    decompress,
    monotone_decode,
    monotone_encode,
    CompressedWord,
)

DEFAULT_MANIFEST = "runs.tsv"


@dataclass
class RunManifest:
    r"""One line of provenance per run, tab-separated in field order.

    Backslash, tab, LF and CR inside the output path are written as
    `\\`, `\t`, `\n` and `\r`, so every run is one line of exactly seven
    fields. Only that field is escaped: every other one comes from a
    closed set that holds none of those characters. The line is written
    only after `_parse` has accepted the argv, so the command is a name
    of `_COMMAND_TABLE`; a digest is 12 hex digits or '-'; the seed is
    a decimal int or '-'; the wall time is a formatted float; the
    verdict is 'ok', 'fail' or 'error:' and an exception class name.
    """

    command: str
    spec_digest: str = "-"
    matrix_digest: str = "-"
    seed: str = "-"
    wall_time: float = 0.0
    output_path: str = "-"
    verdict: str = "-"

    def line(self) -> str:
        # Backslash first, so no escape written here is escaped again.
        path = (self.output_path.replace("\\", "\\\\").replace("\t", "\\t")
                .replace("\n", "\\n").replace("\r", "\\r"))
        return "\t".join([self.command, self.spec_digest, self.matrix_digest,
                          self.seed, f"{self.wall_time:.6f}", path, self.verdict])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _append_manifest(path: str, entry: RunManifest):
    # One write on an O_APPEND fd; a non-UTF-8 argv path keeps its bytes.
    data = (entry.line() + "\n").encode("utf-8", "surrogateescape")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


# Bytes asked of each read: a file of up to 64 KiB comes in one read,
# and one more finds its end.
_READ_CHUNK = 1 << 16


def _read_text(path: str) -> str:
    """The file as UTF-8 text; bytes that are not UTF-8 are a ParseError
    at their line. The parsers read every line ending as LF."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
        raw = b"".join(chunks)
    except OSError as exc:
        # A read error (EISDIR on a directory) names no file; name it.
        exc.filename = path
        raise
    finally:
        os.close(fd)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((raw[:exc.start] + b".").splitlines())
        raise ParseError(path, line, f"not UTF-8 text ({exc.reason})") from None


def _read(path: str, parse):
    return parse(_read_text(path), source=path)


def _write(path: str, text: str):
    """Write `text` over an existing file in place, then cut it to length.
    Truncating on open instead makes ext4 start writeback on close
    (auto_da_alloc), milliseconds per rewrite in a loop. Only regular
    files are cut: ftruncate fails on /dev/null."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _read_spec(args, run: RunManifest) -> SuperSelectorSpec:
    spec = _read(args.spec, parse_spec)
    run.spec_digest = _digest(format_spec(spec))
    return spec


def _read_matrix(args, run: RunManifest) -> BitMatrix:
    M = _read(args.matrix, parse_matrix)
    run.matrix_digest = _digest(format_matrix(M))
    return M


def _int_list(text: str, what: str) -> tuple:
    """A comma-separated flag value of ASCII-digit tokens (int() alone
    takes '+', '_' and non-ASCII digits); blank is the empty list."""
    if not text.strip():
        return ()
    tokens = [t.strip() for t in text.split(",")]
    if not all(map(_is_digits, tokens)):
        raise InputError(f"bad {what} list {text!r}")
    try:
        return tuple(map(int, tokens))
    except ValueError:  # a token past int()'s digit limit
        raise InputError(f"{what} list value too long") from None


def _int_flag(flag: str, text: str) -> int:
    """The value of integer flag `flag`: ASCII digits after one optional
    '-', as in files."""
    if _is_digits(text.removeprefix("-")):
        with suppress(ValueError):  # past int()'s digit limit
            return int(text)
    _PARSER.exit(2, f"error: argument {flag}: bad integer value {text!r}\n")


def _cols(columns) -> str:
    return ",".join(map(str, columns))


def cmd_bounds(args, run) -> tuple:
    spec = _read_spec(args, run)
    levels = spec.levels()
    if levels:
        # The selector bound is read at the strongest single level.
        top = max(levels)
        sel_m = selector_upper_bound(top, spec.v[top - 1], spec.n).m
    else:
        sel_m = 1
    return 0, (f"upper={superselector_upper_bound(spec).m}\n"
               f"lower={superselector_lower_bound(spec).m}\n"
               f"threshold={derand_threshold(spec)}\n"
               f"selector={sel_m}")


def cmd_build(args, run) -> tuple:
    spec = _read_spec(args, run)
    if args.method == "random":
        M, _ = construct_randomized(spec, args.seed, args.max_attempts)
        run.seed = str(args.seed)
    else:
        M = construct_derandomized(spec)
    # Every construction has already certified M by the exhaustive check
    # (it raises otherwise), so the verdict stays "ok".
    text = format_matrix(M)
    run.matrix_digest = _digest(text)
    _write(args.out, text)
    run.output_path = args.out
    return 0, (f"m={M.m} n={M.n} method={args.method} out={args.out} "
               f"verify={run.verdict}")


def cmd_verify(args, run) -> tuple:
    spec = _read_spec(args, run)
    M = _read_matrix(args, run)
    ok = is_superselector(M, spec, args.budget)
    run.verdict = "ok" if ok else "fail"
    return (0 if ok else 1), run.verdict


def cmd_decode(args, run) -> tuple:
    spec = _read_spec(args, run)
    M = _read_matrix(args, run)
    obs = _read(args.obs, parse_vector)
    if args.mode == "union":
        res = identify_from_union(M, spec, obs)
        return 0, (f"identified={_cols(res.identified)} "
                   f"candidates={_cols(res.candidates)} "
                   f"spurious={res.spurious_bound}")
    if args.mode == "approx":
        low, high = approx_decode(M, spec, obs, args.e0, args.e1)
        return 0, f"low={_cols(low)} high={_cols(high)}"
    return 0, f"support={_cols(additive_decode(M, spec, obs))}"


def cmd_compress(args, run) -> tuple:
    M = _read_matrix(args, run)
    word = compress(M, args.p, _read(getattr(args, "in"), parse_vector))
    _write(args.out, format_vector(word.bits))
    run.output_path = args.out
    return 0, f"out={args.out} length={len(word.bits)}"


def cmd_decompress(args, run) -> tuple:
    M = _read_matrix(args, run)
    bits = _read(getattr(args, "in"), parse_vector)
    word = CompressedWord(tuple(bits[:M.m]), tuple(bits[M.m:]))
    x = decompress(M, args.p, word)
    _write(args.out, format_vector(x))
    run.output_path = args.out
    return 0, f"out={args.out} support={_cols(c for c, b in enumerate(x) if b)}"


def cmd_me_encode(args, run) -> tuple:
    word = monotone_encode(args.n, args.k, _int_list(args.set, "column"))
    return 0, "word=" + bytes(word).translate(_TO_DIGITS).decode()


def cmd_me_decode(args, run) -> tuple:
    if set(args.word) - {"0", "1"}:
        raise InputError("codeword must be a 0/1 string")
    bits = args.word.encode().translate(_TO_BITS)
    return 0, "set=" + _cols(monotone_decode(args.n, args.k, bits))


# The flags, one table for both parsers. A command maps to its help, its
# run function, its extra defaults and its flags; a flag is (name, kind,
# default[, help]), with kind str, int (read by `_int_flag`) or a tuple of
# choices, and default REQUIRED for a flag that must be given.
REQUIRED = object()
_COMMON = [("--manifest", str, DEFAULT_MANIFEST, "run-manifest file to append to")]
_MATRIX, _SPEC = ("--matrix", str, REQUIRED), ("--spec", str, REQUIRED)
_OBS, _OUT = ("--obs", str, REQUIRED), ("--out", str, REQUIRED)
_N_K = [("--n", int, REQUIRED), ("--k", int, REQUIRED)]
_CODEC = [_MATRIX, ("--p", int, REQUIRED), ("--in", str, REQUIRED), _OUT]
_COMMAND_TABLE = {
    "bounds": ("print size bounds for a spec", cmd_bounds, {}, [_SPEC]),
    "build": ("construct a matrix for a spec", cmd_build, {}, [
        _SPEC,
        ("--method", ("random", "derand"), "derand"),
        ("--seed", int, 0),
        ("--max-attempts", int, 100),
        _OUT,
        ("--verify", ("on",), "on",
         "every construction runs the exhaustive check; 'on' is the only "
         "choice"),
    ]),
    "verify": ("brute-force check matrix vs spec", cmd_verify, {}, [
        _MATRIX, _SPEC, ("--budget", int, DEFAULT_SUBSET_BUDGET)]),
    "decode": ("decode an observation vector", cmd_decode, {}, [
        _MATRIX, _SPEC, ("--mode", ("union", "additive", "approx"), "union"),
        _OBS, ("--e0", int, 0), ("--e1", int, 0)]),
    "compress": ("compress a sparse bit vector", cmd_compress, {}, _CODEC),
    "decompress": ("invert compress", cmd_decompress, {}, _CODEC),
    "me-encode": ("monotone-encode a set", cmd_me_encode, {}, [
        *_N_K, ("--set", str, "", "comma-separated columns")]),
    "me-decode": ("invert me-encode", cmd_me_decode, {}, [
        *_N_K, ("--word", str, REQUIRED, "0/1 codeword string")]),
    "mut-decode": ("identify traceable users (decode --mode union)",
                   cmd_decode, {"mode": "union"}, [_MATRIX, _SPEC, _OBS]),
}


def _add_flags(parser, flags, direct: dict, defaults: dict):
    """Add `flags` to `parser`, and to the direct parse's (dest, kind) by
    flag and its defaults, where REQUIRED marks a flag not yet given."""
    for flag, kind, default, *text in flags:
        kwargs = {"required": True} if default is REQUIRED else {"default": default}
        if kind is int:
            kwargs["type"] = partial(_int_flag, flag)
        elif kind is not str:
            kwargs["choices"] = kind
        parser.add_argument(flag, help=text[0] if text else None, **kwargs)
        dest = flag[2:].replace("-", "_")
        direct[flag] = dest, kind
        defaults[dest] = default


def _build_parser() -> tuple:
    """The top-level parser and, by command name, the direct parse's
    flags and defaults."""
    parser = argparse.ArgumentParser(
        prog="superselect",
        description="Build, verify, and decode superselector matrices.",
    )
    common, shared = argparse.ArgumentParser(add_help=False), ({}, {})
    _add_flags(common, _COMMON, *shared)
    sub = parser.add_subparsers(dest="command", required=True)
    direct = {}
    for name, (text, func, extra, flags) in _COMMAND_TABLE.items():
        q = sub.add_parser(name, parents=[common], help=text)
        direct[name] = {**shared[0]}, {**shared[1], "command": name,
                                       "func": func, **extra}
        _add_flags(q, flags, *direct[name])
        q.set_defaults(func=func, **extra)
    return parser, direct


_PARSER, _DIRECT = _build_parser()


def _direct(command: str, args: list):
    """The Namespace the parser of `command` gives for `args`, when `args`
    are `--flag value` pairs of exact flags, no value starts with '-',
    every choice is valid and every required flag is given; else None.
    Integer values go through `_int_flag` in argv order, as in argparse."""
    by_flag, defaults = _DIRECT[command]
    flags, values = args[::2], args[1::2]
    if (len(flags) != len(values) or not all(map(by_flag.__contains__, flags))
            or any(map(str.startswith, values, repeat("-")))):
        return None
    parsed = dict(defaults)
    for flag, value in zip(flags, values):
        dest, kind = by_flag[flag]
        if kind is int:
            value = _int_flag(flag, value)
        elif kind is not str and value not in kind:
            return None
        parsed[dest] = value
    return None if REQUIRED in parsed.values() else argparse.Namespace(**parsed)


def _parse(argv: list) -> argparse.Namespace:
    """Flag parsing for `main`: the direct parse when it applies, else
    one argparse pass, which raises SystemExit for help and usage errors."""
    args = _direct(argv[0], argv[1:]) if argv and argv[0] in _DIRECT else None
    return _PARSER.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A library caller can pass what no shell can: reject it like bad flags.
    # One join screens every item; the loop finds the first bad one.
    try:
        clean = "\x00" not in "".join(argv)
    except TypeError:  # an item that is not a str
        clean = False
    if not clean:
        for i, item in enumerate(argv):
            if not isinstance(item, str) or "\x00" in item:
                what = ("holds a NUL character" if isinstance(item, str)
                        else f"is not a str ({type(item).__name__})")
                print(f"error: argv[{i}] {what}", file=sys.stderr)
                return 2
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    run = RunManifest(argv[0], verdict="ok")
    start = time.perf_counter()
    # `error` keeps the message, not the exception: an exception held in
    # a local of this frame would reach the frame again through its
    # traceback, a cycle that only the cyclic collector frees.
    error = None
    try:
        code, out = args.func(args, run)
    # Inconsistent observations are decode failures, not usage errors;
    # InconsistentObservationError subclasses InputError, so this clause
    # comes first.
    except (InconsistentObservationError, ConstructionFailure,
            PrecisionFault) as exc:
        code, error, run.verdict = 1, str(exc), f"error:{type(exc).__name__}"
    # UnicodeEncodeError: a path holds a surrogate that stands for no byte.
    except (InputError, ParseError, BudgetError, OSError, UnicodeEncodeError) as exc:
        code, error, run.verdict = 2, str(exc), f"error:{type(exc).__name__}"
    run.wall_time = time.perf_counter() - start
    try:
        _append_manifest(args.manifest, run)
    except (OSError, UnicodeEncodeError) as exc:
        # A run that already failed reports its own error.
        if error is None:
            code, error = 2, str(exc)
    if error is None:
        # A non-UTF-8 path prints as U+FFFD, also on a strict UTF-8 stdout.
        print(out.encode("utf-8", "surrogateescape").decode("utf-8", "replace"))
    else:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
