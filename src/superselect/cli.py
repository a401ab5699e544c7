"""Command-line front end.

Subcommands cover the whole pipeline: size bounds, matrix construction,
brute-force verification, the three decoders and the application codecs.
`main` is the one run path: it times each run from the end of flag
parsing, maps errors to exit codes, and appends one tab-separated line,
in one unbuffered write, to the manifest file for every run that passes
flag parsing, including failed runs, whose verdict is `error:<Class>`
(rejected flags write none). A command prints one machine-readable
result line (`bounds` prints its four labeled lines) on standard output,
or one `error: ...` line on standard error.

Exit status: 0 on success, 1 when a verification or decode fails, 2 on
usage errors (bad flags, malformed files, out-of-range parameters).

The argument parsers are built once, when this module is imported, and
every `main` call reuses them. A known command's flags go straight to
that command's own parser, one argparse pass per run; help, no command
and an unknown command go to the top-level parser.
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

from .core import (
    DEFAULT_SUBSET_BUDGET,
    BitMatrix,
    BudgetError,
    InputError,
    ParseError,
    SuperSelectorSpec,
    _as_lf,
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

_FIELD_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t",
                                "\n": "\\n", "\r": "\\r"})


@dataclass
class RunManifest:
    r"""One line of provenance per run, tab-separated in field order.

    Backslash, tab, LF and CR inside a field are written as `\\`, `\t`,
    `\n` and `\r`, so every run is one line of exactly seven fields.
    """

    command: str
    spec_digest: str = "-"
    matrix_digest: str = "-"
    seed: str = "-"
    wall_time: float = 0.0
    output_path: str = "-"
    verdict: str = "-"

    def line(self) -> str:
        return "\t".join(field.translate(_FIELD_ESCAPES) for field in [
            self.command,
            self.spec_digest,
            self.matrix_digest,
            self.seed,
            f"{self.wall_time:.6f}",
            self.output_path,
            self.verdict,
        ])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _append_manifest(path: str, entry: RunManifest):
    # One unbuffered binary write; a non-UTF-8 argv path keeps its bytes.
    with open(path, "ab", buffering=0) as fh:
        fh.write((entry.line() + "\n").encode("utf-8", "surrogateescape"))


def _read_text(path: str) -> str:
    """The file as UTF-8 text with every line ending read as LF; bytes
    that are not UTF-8 are a ParseError at their line."""
    with open(path, "rb", buffering=0) as fh:
        raw = fh.read()
    try:
        return _as_lf(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = len((raw[:exc.start] + b".").splitlines())
        raise ParseError(path, line, f"not UTF-8 text ({exc.reason})") from None


def _read(path: str, parse):
    return parse(_read_text(path), source=path)


def _write(path: str, text: str):
    """Write `text` over an existing file in place, then cut it to length.
    Truncating on open instead makes ext4 start writeback on close
    (auto_da_alloc), milliseconds per rewrite in a loop. Only regular
    files are cut: truncate() fails on /dev/null."""
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(len(data))


def _read_spec(args, run: RunManifest) -> SuperSelectorSpec:
    spec = _read(args.spec, parse_spec)
    run.spec_digest = _digest(format_spec(spec))
    return spec


def _read_matrix(args, run: RunManifest) -> BitMatrix:
    # The text has every line ending as LF, and the parser accepts lines
    # 2 to m+1 only as exactly the canonical rows, so the digest of
    # format_matrix(M) needs no second formatting of M.
    text = _read_text(args.matrix)
    M = parse_matrix(text, source=args.matrix)
    rows = text.split("\n", M.m + 1)[1:M.m + 1]
    run.matrix_digest = _digest("\n".join([f"{M.m} {M.n}", *rows, ""]))
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
    # (it raises otherwise), so --verify only chooses what is reported.
    run.verdict = "ok" if args.verify == "on" else "skip"
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
    if len(bits) != M.m + 2 * args.p:
        raise InputError(
            f"expected {M.m + 2 * args.p} bits, got {len(bits)}"
        )
    word = CompressedWord(tuple(bits[:M.m]), tuple(bits[M.m:]))
    x = decompress(M, args.p, word)
    _write(args.out, format_vector(x))
    run.output_path = args.out
    return 0, f"out={args.out} support={_cols(c for c, b in enumerate(x) if b)}"


def cmd_me_encode(args, run) -> tuple:
    word = monotone_encode(args.n, args.k, _int_list(args.set, "column"))
    return 0, "word=" + "".join(map(str, word))


def cmd_me_decode(args, run) -> tuple:
    if set(args.word) - {"0", "1"}:
        raise InputError("codeword must be a 0/1 string")
    bits = tuple(int(ch) for ch in args.word)
    return 0, "set=" + _cols(monotone_decode(args.n, args.k, bits))


def _build_parser() -> tuple:
    """The top-level parser and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="superselect",
        description="Build, verify, and decode superselector matrices.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", default=DEFAULT_MANIFEST,
                        help="run-manifest file to append to")
    sub = parser.add_subparsers(dest="command", required=True)
    add = partial(sub.add_parser, parents=[common])

    def add_int(q, flag, **kwargs):
        q.add_argument(flag, type=partial(_int_flag, flag), **kwargs)

    q = add("bounds", help="print size bounds for a spec")
    q.add_argument("--spec", required=True)
    q.set_defaults(func=cmd_bounds)

    q = add("build", help="construct a matrix for a spec")
    q.add_argument("--spec", required=True)
    q.add_argument("--method", choices=["random", "derand"],
                   default="derand")
    add_int(q, "--seed", default=0)
    add_int(q, "--max-attempts", default=100)
    q.add_argument("--out", required=True)
    q.add_argument("--verify", choices=["on", "off"], default="on",
                   help="report the exhaustive check every construction "
                        "runs (on) or omit it (off)")
    q.set_defaults(func=cmd_build)

    q = add("verify", help="brute-force check matrix vs spec")
    q.add_argument("--matrix", required=True)
    q.add_argument("--spec", required=True)
    add_int(q, "--budget", default=DEFAULT_SUBSET_BUDGET)
    q.set_defaults(func=cmd_verify)

    q = add("decode", help="decode an observation vector")
    q.add_argument("--matrix", required=True)
    q.add_argument("--spec", required=True)
    q.add_argument("--mode", choices=["union", "additive", "approx"],
                   default="union")
    q.add_argument("--obs", required=True)
    add_int(q, "--e0", default=0)
    add_int(q, "--e1", default=0)
    q.set_defaults(func=cmd_decode)

    q = add("compress", help="compress a sparse bit vector")
    q.add_argument("--matrix", required=True)
    add_int(q, "--p", required=True)
    q.add_argument("--in", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_compress)

    q = add("decompress", help="invert compress")
    q.add_argument("--matrix", required=True)
    add_int(q, "--p", required=True)
    q.add_argument("--in", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_decompress)

    q = add("me-encode", help="monotone-encode a set")
    add_int(q, "--n", required=True)
    add_int(q, "--k", required=True)
    q.add_argument("--set", default="", help="comma-separated columns")
    q.set_defaults(func=cmd_me_encode)

    q = add("me-decode", help="invert me-encode")
    add_int(q, "--n", required=True)
    add_int(q, "--k", required=True)
    q.add_argument("--word", required=True, help="0/1 codeword string")
    q.set_defaults(func=cmd_me_decode)

    q = add("mut-decode", help="identify traceable users (decode --mode union)")
    q.add_argument("--matrix", required=True)
    q.add_argument("--spec", required=True)
    q.add_argument("--obs", required=True)
    q.set_defaults(func=cmd_decode, mode="union")

    return parser, sub.choices


_PARSER, _COMMANDS = _build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser reports what a command's parser leaves over,
    # as its own pass would.
    command = _COMMANDS.get(argv[0]) if argv else None
    try:
        if command is None:
            args = _PARSER.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
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
