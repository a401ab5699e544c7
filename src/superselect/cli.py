"""Command-line front end.

Subcommands cover the whole pipeline: size bounds, matrix construction,
brute-force verification, the three decoders, the application codecs,
and a scaling benchmark. Every run appends one tab-separated line to a
manifest file, and every command prints a machine-readable result line
(`bounds` prints its four labeled lines) on standard output.

Exit status: 0 on success, 1 when a verification or decode fails, 2 on
usage errors (bad flags, malformed files, out-of-range parameters).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import dataclass

from .core import (
    BitMatrix,
    BudgetError,
    InputError,
    ParseError,
    SuperSelectorSpec,
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
    construct_stacked,
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
    mut_decode,
    CompressedWord,
)

DEFAULT_MANIFEST = "runs.tsv"


@dataclass
class RunManifest:
    """One line of provenance per run, tab-separated in field order."""

    command: str
    spec_digest: str = "-"
    matrix_digest: str = "-"
    seed: str = "-"
    wall_time: float = 0.0
    output_path: str = "-"
    verdict: str = "-"

    def line(self) -> str:
        return "\t".join([
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
    with open(path, "a") as fh:
        fh.write(entry.line() + "\n")


def read_matrix(path: str) -> BitMatrix:
    with open(path) as fh:
        return parse_matrix(fh.read(), source=path)


def write_matrix(M: BitMatrix, path: str):
    with open(path, "w") as fh:
        fh.write(format_matrix(M))


def read_spec(path: str) -> SuperSelectorSpec:
    with open(path) as fh:
        return parse_spec(fh.read(), source=path)


def read_vector(path: str) -> tuple:
    with open(path) as fh:
        return parse_vector(fh.read(), source=path)


def _csv_columns(text: str) -> tuple:
    if not text.strip():
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InputError(f"bad column list {text!r}")


def cmd_bounds(args) -> int:
    spec = read_spec(args.spec)
    upper = superselector_upper_bound(spec)
    lower = superselector_lower_bound(spec)
    threshold = derand_threshold(spec)
    levels = spec.levels()
    if levels:
        # The selector bound is read at the strongest single level.
        top = max(levels)
        sel_m = selector_upper_bound(top, spec.v[top - 1], spec.n).m
    else:
        sel_m = 1
    print(f"upper={upper.m}")
    print(f"lower={lower.m}")
    print(f"threshold={threshold}")
    print(f"selector={sel_m}")
    _append_manifest(args.manifest, RunManifest(
        "bounds", spec_digest=_digest(format_spec(spec)), verdict="ok",
    ))
    return 0


def cmd_build(args) -> int:
    spec = read_spec(args.spec)
    start = time.perf_counter()
    seed = "-"
    if args.method == "random":
        M, attempts = construct_randomized(spec, args.seed,
                                           args.max_attempts)
        seed = str(args.seed)
    elif args.method == "derand":
        M = construct_derandomized(spec)
    else:
        M = construct_stacked(spec)
    # Every construction has already certified M by the exhaustive check
    # (it raises otherwise), so --verify only chooses what is reported.
    verdict = "ok" if args.verify == "on" else "skip"
    wall = time.perf_counter() - start
    write_matrix(M, args.out)
    _append_manifest(args.manifest, RunManifest(
        "build", spec_digest=_digest(format_spec(spec)),
        matrix_digest=_digest(format_matrix(M)), seed=seed,
        wall_time=wall, output_path=args.out, verdict=verdict,
    ))
    print(f"m={M.m} n={M.n} method={args.method} out={args.out} "
          f"verify={verdict}")
    return 0


def cmd_verify(args) -> int:
    spec = read_spec(args.spec)
    M = read_matrix(args.matrix)
    start = time.perf_counter()
    if args.budget is None:
        ok = is_superselector(M, spec)
    else:
        ok = is_superselector(M, spec, args.budget)
    wall = time.perf_counter() - start
    verdict = "ok" if ok else "fail"
    _append_manifest(args.manifest, RunManifest(
        "verify", spec_digest=_digest(format_spec(spec)),
        matrix_digest=_digest(format_matrix(M)), wall_time=wall,
        verdict=verdict,
    ))
    print(verdict)
    return 0 if ok else 1


def cmd_decode(args) -> int:
    spec = read_spec(args.spec)
    M = read_matrix(args.matrix)
    obs = read_vector(args.obs)
    start = time.perf_counter()
    verdict = "ok"
    if args.mode == "union":
        res = identify_from_union(M, spec, obs)
        line = (f"identified={','.join(map(str, res.identified))} "
                f"candidates={','.join(map(str, res.candidates))} "
                f"spurious={res.spurious_bound}")
    elif args.mode == "approx":
        low, high = approx_decode(M, spec, obs, args.e0, args.e1)
        line = (f"low={','.join(map(str, low))} "
                f"high={','.join(map(str, high))}")
    else:
        support = additive_decode(M, spec, obs)
        line = f"support={','.join(map(str, support))}"
    wall = time.perf_counter() - start
    _append_manifest(args.manifest, RunManifest(
        "decode", spec_digest=_digest(format_spec(spec)),
        matrix_digest=_digest(format_matrix(M)), wall_time=wall,
        verdict=verdict,
    ))
    print(line)
    return 0


def cmd_bench(args) -> int:
    try:
        sizes = [int(t) for t in args.n.split(",")]
    except ValueError:
        raise InputError(f"bad n list {args.n!r}")
    if len(set(sizes)) < 2:
        raise InputError("need at least two distinct n values to fit a slope")
    if args.repeat < 1:
        raise InputError(f"--repeat must be >= 1, got {args.repeat}")
    points = []
    for n in sizes:
        spec = SuperSelectorSpec(n, args.p, tuple(range(1, args.p + 1)))
        best = None
        for _ in range(args.repeat):
            start = time.perf_counter()
            if args.method == "derand":
                construct_derandomized(spec)
            else:
                construct_randomized(spec, args.seed)
            wall = time.perf_counter() - start
            best = wall if best is None else min(best, wall)
        points.append((n, best))
    # Least-squares slope on log-log axes.
    import math
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    slope = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / \
        sum((a - mx) ** 2 for a in xs)
    detail = " ".join(f"n={n}:{t:.6f}" for n, t in points)
    _append_manifest(args.manifest, RunManifest(
        "bench", seed=str(args.seed), wall_time=sum(t for _, t in points),
        verdict=f"slope={slope:.3f}",
    ))
    print(f"slope={slope:.3f} {detail}")
    return 0


def cmd_compress(args) -> int:
    M = read_matrix(args.matrix)
    x = read_vector(getattr(args, "in"))
    start = time.perf_counter()
    word = compress(M, args.p, x)
    wall = time.perf_counter() - start
    with open(args.out, "w") as fh:
        fh.write(format_vector(word.bits))
    _append_manifest(args.manifest, RunManifest(
        "compress", matrix_digest=_digest(format_matrix(M)),
        wall_time=wall, output_path=args.out, verdict="ok",
    ))
    print(f"out={args.out} length={len(word.bits)}")
    return 0


def cmd_decompress(args) -> int:
    M = read_matrix(args.matrix)
    bits = read_vector(getattr(args, "in"))
    if len(bits) != M.m + 2 * args.p:
        raise InputError(
            f"expected {M.m + 2 * args.p} bits, got {len(bits)}"
        )
    start = time.perf_counter()
    word = CompressedWord(tuple(bits[:M.m]), tuple(bits[M.m:]))
    x = decompress(M, args.p, word)
    wall = time.perf_counter() - start
    with open(args.out, "w") as fh:
        fh.write(format_vector(x))
    _append_manifest(args.manifest, RunManifest(
        "decompress", matrix_digest=_digest(format_matrix(M)),
        wall_time=wall, output_path=args.out, verdict="ok",
    ))
    print(f"out={args.out} support="
          f"{','.join(str(c) for c, b in enumerate(x) if b)}")
    return 0


def cmd_me_encode(args) -> int:
    S = _csv_columns(args.set)
    start = time.perf_counter()
    word = monotone_encode(args.n, args.k, S)
    wall = time.perf_counter() - start
    _append_manifest(args.manifest, RunManifest(
        "me-encode", wall_time=wall, verdict="ok",
    ))
    print("word=" + "".join(map(str, word)))
    return 0


def cmd_me_decode(args) -> int:
    if set(args.word) - {"0", "1"}:
        raise InputError("codeword must be a 0/1 string")
    bits = tuple(int(ch) for ch in args.word)
    start = time.perf_counter()
    S = monotone_decode(args.n, args.k, bits)
    wall = time.perf_counter() - start
    _append_manifest(args.manifest, RunManifest(
        "me-decode", wall_time=wall, verdict="ok",
    ))
    print("set=" + ",".join(map(str, S)))
    return 0


def cmd_mut_decode(args) -> int:
    spec = read_spec(args.spec)
    M = read_matrix(args.matrix)
    obs = read_vector(args.obs)
    start = time.perf_counter()
    res = mut_decode(M, spec, obs)
    wall = time.perf_counter() - start
    _append_manifest(args.manifest, RunManifest(
        "mut-decode", spec_digest=_digest(format_spec(spec)),
        matrix_digest=_digest(format_matrix(M)), wall_time=wall,
        verdict="ok",
    ))
    print(f"identified={','.join(map(str, res.identified))} "
          f"candidates={','.join(map(str, res.candidates))}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superselect",
        description="Build, verify, and decode superselector matrices.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", default=DEFAULT_MANIFEST,
                        help="run-manifest file to append to")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("bounds", help="print size bounds for a spec",
                       parents=[common])
    q.add_argument("--spec", required=True)
    q.set_defaults(func=cmd_bounds)

    q = sub.add_parser("build", help="construct a matrix for a spec",
                       parents=[common])
    q.add_argument("--spec", required=True)
    q.add_argument("--method", choices=["random", "derand", "stacked"],
                   default="derand")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--max-attempts", type=int, default=100)
    q.add_argument("--out", required=True)
    q.add_argument("--verify", choices=["on", "off"], default="on",
                   help="report the exhaustive check every construction "
                        "runs (on) or omit it (off)")
    q.set_defaults(func=cmd_build)

    q = sub.add_parser("verify", help="brute-force check matrix vs spec",
                       parents=[common])
    q.add_argument("--matrix", required=True)
    q.add_argument("--spec", required=True)
    q.add_argument("--budget", type=int, default=None)
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("decode", help="decode an observation vector",
                       parents=[common])
    q.add_argument("--matrix", required=True)
    q.add_argument("--spec", required=True)
    q.add_argument("--mode", choices=["union", "additive", "approx"],
                   default="union")
    q.add_argument("--obs", required=True)
    q.add_argument("--e0", type=int, default=0)
    q.add_argument("--e1", type=int, default=0)
    q.set_defaults(func=cmd_decode)

    q = sub.add_parser("bench", help="time construction across n",
                       parents=[common])
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--n", required=True, help="comma-separated n values")
    q.add_argument("--method", choices=["derand", "random"],
                   default="derand")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--repeat", type=int, default=3)
    q.set_defaults(func=cmd_bench)

    q = sub.add_parser("compress", help="compress a sparse bit vector",
                       parents=[common])
    q.add_argument("--matrix", required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--in", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_compress)

    q = sub.add_parser("decompress", help="invert compress",
                       parents=[common])
    q.add_argument("--matrix", required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--in", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_decompress)

    q = sub.add_parser("me-encode", help="monotone-encode a set",
                       parents=[common])
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--set", default="", help="comma-separated columns")
    q.set_defaults(func=cmd_me_encode)

    q = sub.add_parser("me-decode", help="invert me-encode",
                       parents=[common])
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--word", required=True, help="0/1 codeword string")
    q.set_defaults(func=cmd_me_decode)

    q = sub.add_parser("mut-decode", help="identify traceable users",
                       parents=[common])
    q.add_argument("--matrix", required=True)
    q.add_argument("--spec", required=True)
    q.add_argument("--obs", required=True)
    q.set_defaults(func=cmd_mut_decode)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.func(args)
    # Inconsistent observations are decode failures, not usage errors.
    except (InconsistentObservationError, ConstructionFailure,
            PrecisionFault) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, ParseError, BudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
