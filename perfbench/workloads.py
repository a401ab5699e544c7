"""The four benchmark workloads.

Every workload is a closed loop with one client. `setup()` makes the
inputs from the seed and is timed as setup_s; `round(r)` returns the
fixed list of ops of round r, whose inputs depend only on (seed, r). An
op is timed alone. Its outcome is checked after the clock stops, so the
checks (including the exhaustive re-verification of every emitted
matrix) never count as work.

Why these four:
- build:   the deterministic fill over the fixed corpus; the fill is
           more than 90% of the time, so fill-kernel changes show here.
- certify: random builds and exhaustive checks (pass and early reject);
           the fill does nothing, the verifier does almost everything.
- decode:  build once, decode many; decoders and codecs through the
           library, construction only in set-up.
- cli:     the scripted-shell user of the same decoders through
           `superselect.cli.main`, where per-call overhead dominates.
"""

from __future__ import annotations

import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from superselect import apps, cli, core, construct, decode, sizing
from superselect.construct import sample_random_matrix
from superselect.core import SuperSelectorSpec

Spec = SuperSelectorSpec

# ROADMAP corpus: the acceptance SUITE, three baseline specs and three
# application specs. 3.64 M hypotheses and 439 rows in all.
CORPUS = (
    Spec(6, 2, (1, 2)),
    Spec(8, 2, (1, 2)),
    Spec(8, 2, (0, 1)),
    Spec(12, 2, (1, 2)),
    Spec(10, 3, (1, 2, 2)),
    Spec(14, 3, (1, 1, 1)),
    Spec(14, 3, (1, 2, 2)),
    Spec(20, 4, (1, 2, 2, 3)),
    Spec(64, 2, (1, 2)),
    Spec(12, 6, (1, 1, 2, 4, 5, 6)),
    apps.additive_gt_spec(3, 12),
    apps.mut_spec(3, 2, 10),
    apps.approx_gt_spec(2, 1, 1, 12),
)

# Larger-n specs where threshold-size random matrices pass in a few
# attempts and one exhaustive check takes 0.08-0.31 s. All have v_2 = 2,
# so a copy with two equal columns fails at the last level-2 subset.
CERTIFY_SPECS = (
    Spec(40, 3, (1, 2, 3)),
    Spec(64, 3, (1, 2, 2)),
    Spec(24, 4, (1, 2, 2, 3)),
)

# Decoder specs shared by the decode and cli workloads, with the
# largest planted set each one promises to handle.
UNION_SPEC = Spec(16, 3, (1, 2, 3))        # |S| < v_p = 3
APPROX = (apps.approx_gt_spec(2, 1, 1, 12), 2, 1, 1)   # spec, p, e0, e1
ADDITIVE_SPEC = apps.additive_gt_spec(2, 12)           # |P| <= 2
MUT = (apps.mut_spec(3, 2, 10), 3, 2)                  # spec, r, k
COMPRESS = (core.selector_spec(4, 3, 12), 2)           # (2p, p+1, n), p
CHAIN = (8, 4)                                         # monotone (n, k)

DECODER_SPECS = {"union": UNION_SPEC, "approx": APPROX[0], "additive": ADDITIVE_SPEC,
                 "mut": MUT[0], "compress": COMPRESS[0]}

SETS_PER_DECODE_ROUND = 25
POOL = 16


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def round_rng(seed: int, r: int) -> random.Random:
    return random.Random(seed * 1_000_003 + r)


def passing_seed(rng, spec, m):
    """First seed from rng whose threshold-size sample passes the
    exhaustive check, with that sample."""
    while True:
        seed = rng.randrange(1 << 30)
        M = sample_random_matrix(m, spec.n, spec.p, seed)
        if core.is_superselector(M, spec):
            return seed, M


def decoder_matrices():
    """Build every decoder matrix and the monotone chain (cache emptied
    first, so each set-up pays for it); returns them with their total m."""
    apps.monotone_chain.cache_clear()
    M = {key: construct.construct_derandomized(spec) for key, spec in DECODER_SPECS.items()}
    chain = apps.monotone_chain(*CHAIN)
    return M, sum(m.m for m in M.values()) + chain.total_length


def planted(rng: random.Random, n: int, most: int, least: int = 0) -> tuple:
    return tuple(sorted(rng.sample(range(n), rng.randint(least, most))))


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    prepare: Optional[Callable[[], None]] = None


# ---------------------------------------------------------------- checks


def union_ok(spec, S, identified, candidates) -> bool:
    """identified <= S <= candidates, with the identification guarantee:
    fewer spurious candidates than the first level above |S| allows, and
    at least v_{|S|+y} members identified."""
    S = set(S)
    if not set(identified) <= S <= set(candidates):
        return False
    size = len(S)
    y = len(candidates) - size
    first = min(j for j in spec.levels() if spec.v[j - 1] > size)
    if y >= first - size:
        return False
    t = size + y
    return len(identified) >= (spec.v[t - 1] if t >= 1 else 0)


def approx_ok(P, low, high, e0, e1) -> bool:
    P = set(P)
    return (set(low) <= P <= set(high) and len(set(high) - P) <= e0
            and len(P - set(low)) <= e1)


def mut_ok(S, identified, k) -> bool:
    if not set(identified) <= set(S):
        return False
    return tuple(identified) == tuple(S) if len(S) < k else len(identified) >= k


# ---------------------------------------------------------------- CLI ops


class CliRunner:
    """Calls `superselect.cli.main(argv)` in-process, capturing output."""

    def __init__(self, main):
        self.main = main

    def __call__(self, argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.main(argv)
        return code, out.getvalue()


def fields(text: str) -> dict:
    """key=value tokens of a CLI result line."""
    out = {}
    for token in text.split():
        key, _, value = token.partition("=")
        out[key] = value
    return out


def columns(value: str) -> tuple:
    return tuple(int(t) for t in value.split(",")) if value else ()


class Workload:
    """Base: files live in `work`, rounds are generated from the seed."""

    name = ""
    entries = {"main": (cli, "main")}
    # Tail percentile reported as op_tail_ru: p99 where a run has well over
    # 1,000 ops, else the highest one with at least ten ops beyond it.
    tail_q = 0.99

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.call = {k: getattr(mod, attr) for k, (mod, attr) in self.entries.items()}
        self.cli = CliRunner(self.call.get("main"))
        self.manifest = str(work / "runs.tsv")
        self.rows_total = 0
        self.notes = {}

    def traced_entries(self, tracer):
        """Entry points wrapped so that each op gets a top span."""
        return {k: tracer.wrap(f"{mod.__name__.split('.')[1]}.{attr}", self.call[k])
                for k, (mod, attr) in self.entries.items()}

    def use_entries(self, call: dict):
        self.call = call
        self.cli = CliRunner(call.get("main"))

    def path(self, name: str) -> str:
        return str(self.work / name)

    def write(self, name: str, text: str) -> str:
        """Write a file, or leave it when it already holds `text`: repeated
        set-ups then time the package's work rather than file-system
        latency, which varied 2x between runs."""
        p = self.path(name)
        try:
            with open(p) as fh:
                if fh.read() == text:
                    return p
        except FileNotFoundError:
            pass
        with open(p, "w") as fh:
            fh.write(text)
        return p

    def read(self, name: str) -> str:
        with open(self.path(name)) as fh:
            return fh.read()


# ---------------------------------------------------------------- build


class Build(Workload):
    """CLI `build --method derand --verify on` over the corpus, one pass
    per round. Outputs are identical every pass."""

    name = "build"
    tail_q = 0.80     # 13 ops per pass, 4-5 passes per 20 s run

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.specs = []
        for i, spec in enumerate(CORPUS):
            self.specs.append((spec, self.write(f"spec{i}.txt", core.format_spec(spec)),
                               sizing.derand_threshold(spec)))
        self.rows_total = sum(m for _, _, m in self.specs)
        self.notes = {}

    def round(self, r):
        ops = []
        for i, (spec, spec_file, m) in enumerate(self.specs):
            out = f"M{i}.txt"
            argv = ["build", "--spec", spec_file, "--method", "derand",
                    "--verify", "on", "--out", self.path(out),
                    "--manifest", self.manifest]
            ops.append(Op("build", lambda a=argv: self.cli(a),
                          lambda res, s=spec, o=out, m=m: self.check(res, s, o, m)))
        return ops

    def check(self, res, spec, out, m):
        code, text = res
        if code != 0 or fields(text).get("verify") != "ok":
            return False
        body = self.read(out)
        M = core.parse_matrix(body)
        ok = M.m == m and core.is_superselector(M, spec)
        self.notes[spec] = (digest(body), M.m)
        return ok


# ---------------------------------------------------------------- certify


class Certify(Workload):
    """Per spec and round: CLI `build --method random --seed s`, CLI
    `verify` of the result (exit 0) and of a copy whose last column is
    duplicated into the one before (exit 1, found at level 2).

    The round draws build seeds from the run seed and keeps the first
    whose sample passes, found untimed. Every build then does the same
    work: one sample, construct_randomized's check and the CLI's
    re-check. With the 1-7 attempts free seeds need, the spread between
    runs was wider than the bounds. The retry path is therefore not
    measured here."""

    name = "certify"
    tail_q = 0.90     # 9 ops per round, about 11 rounds per 20 s run

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.specs = []
        for i, spec in enumerate(CERTIFY_SPECS):
            self.specs.append((spec, self.write(f"spec{i}.txt", core.format_spec(spec)),
                               sizing.derand_threshold(spec)))
        self.rows_total = sum(m for _, _, m in self.specs)

    def round(self, r):
        rng = round_rng(self.seed, r)
        ops = []
        for i, (spec, spec_file, m) in enumerate(self.specs):
            seed, M = passing_seed(rng, spec, m)
            out, bad = f"M{i}.txt", f"bad{i}.txt"
            build = ["build", "--spec", spec_file, "--method", "random",
                     "--seed", str(seed), "--out", self.path(out),
                     "--manifest", self.manifest]
            verify = ["verify", "--matrix", self.path(out), "--spec", spec_file,
                      "--manifest", self.manifest]
            reject = ["verify", "--matrix", self.path(bad), "--spec", spec_file,
                      "--manifest", self.manifest]
            ops.append(Op("build", lambda a=build: self.cli(a),
                          lambda res, o=out, M=M: self.check_build(res, o, M)))
            ops.append(Op("verify", lambda a=verify: self.cli(a),
                          lambda res: res == (0, "ok\n")))
            ops.append(Op("reject", lambda a=reject: self.cli(a),
                          lambda res: res == (1, "fail\n"),
                          prepare=lambda o=out, b=bad: self.corrupt(o, b)))
        return ops

    def check_build(self, res, out, M):
        """The emitted matrix must be the sample that passed the untimed
        exhaustive check when its seed was chosen."""
        code, text = res
        return (code == 0 and fields(text).get("verify") == "ok"
                and self.read(out) == core.format_matrix(M))

    def corrupt(self, out, bad):
        lines = self.read(out).split("\n")
        for r in range(1, len(lines)):
            if lines[r]:
                lines[r] = lines[r][:-2] + lines[r][-1] * 2
        self.write(bad, "\n".join(lines))


# ---------------------------------------------------------------- decode


class Decode(Workload):
    """Library decode-many: per planted set, the union, approximate,
    additive and tracing decoders, compress -> decompress and monotone
    encode -> decode, each on its own prebuilt matrix."""

    name = "decode"
    entries = {
        "union": (decode, "identify_from_union"),
        "approx": (decode, "approx_decode"),
        "additive": (decode, "additive_decode"),
        "mut": (apps, "mut_decode"),
        "compress": (apps, "compress"),
        "decompress": (apps, "decompress"),
        "me_encode": (apps, "monotone_encode"),
        "me_decode": (apps, "monotone_decode"),
    }

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.M, self.rows_total = decoder_matrices()

    def round(self, r):
        rng = round_rng(self.seed, r)
        call, M = self.call, self.M
        aspec, ap, e0, e1 = APPROX
        mspec, mr, mk = MUT
        cspec, cp = COMPRESS
        n, k = CHAIN
        ops = []
        for _ in range(SETS_PER_DECODE_ROUND):
            S = planted(rng, UNION_SPEC.n, UNION_SPEC.v[-1] - 1)
            a = core.boolean_sum(M["union"], S)
            ops.append(Op("union", lambda a=a: call["union"](M["union"], UNION_SPEC, a),
                          lambda res, S=S: union_ok(UNION_SPEC, S, res.identified,
                                                    res.candidates)))
            P = planted(rng, aspec.n, ap)
            a = core.boolean_sum(M["approx"], P)
            ops.append(Op("approx", lambda a=a: call["approx"](M["approx"], aspec, a, e0, e1),
                          lambda res, P=P: approx_ok(P, res[0], res[1], e0, e1)))
            P = planted(rng, ADDITIVE_SPEC.n, 2)
            s = core.arithmetic_sum(M["additive"], P)
            ops.append(Op("additive",
                          lambda s=s: call["additive"](M["additive"], ADDITIVE_SPEC, s),
                          lambda res, P=P: res == P))
            S = planted(rng, mspec.n, mr)
            a = core.boolean_sum(M["mut"], S)
            ops.append(Op("mut", lambda a=a: call["mut"](M["mut"], mspec, a),
                          lambda res, S=S: mut_ok(S, res.identified, mk)))
            X = planted(rng, cspec.n, cp)
            x = tuple(1 if c in X else 0 for c in range(cspec.n))
            cell = {}
            ops.append(Op("compress", lambda x=x, cell=cell: cell.setdefault(
                              "w", call["compress"](M["compress"], cp, x)),
                          lambda res: len(res.bits) == M["compress"].m + 2 * cp))
            ops.append(Op("decompress",
                          lambda cell=cell: call["decompress"](M["compress"], cp, cell["w"]),
                          lambda res, x=x: res == x))
            S = planted(rng, n, k)
            cell = {}
            ops.append(Op("me_encode", lambda S=S, cell=cell: cell.setdefault(
                              "w", call["me_encode"](n, k, S)),
                          lambda res: len(res) == apps.monotone_chain(n, k).total_length))
            ops.append(Op("me_decode", lambda cell=cell: call["me_decode"](n, k, cell["w"]),
                          lambda res, S=S: res == S))
        return ops


# ---------------------------------------------------------------- cli


class Cli(Workload):
    """A stream of short `cli.main` commands over prepared files: bounds,
    verify, the three decode modes, mut-decode, compress, decompress,
    me-encode, me-decode, one malformed input (exit 2) and one
    inconsistent additive observation (exit 1) per round of 12."""

    name = "cli"

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        rng = round_rng(self.seed, -1)
        self.M, self.rows_total = decoder_matrices()
        self.spec_file, self.matrix_file = {}, {}
        for key, spec in DECODER_SPECS.items():
            self.spec_file[key] = self.write(f"{key}.spec", core.format_spec(spec))
            self.matrix_file[key] = self.write(f"{key}.mat", core.format_matrix(self.M[key]))
        n, k = CHAIN
        self.bounds = {
            "upper": str(sizing.superselector_upper_bound(UNION_SPEC).m),
            "lower": str(sizing.superselector_lower_bound(UNION_SPEC).m),
            "threshold": str(sizing.derand_threshold(UNION_SPEC)),
        }
        vec = core.format_vector
        self.pool = {key: [] for key in ("union", "approx", "additive", "mut",
                                         "compress", "me", "inconsistent")}
        for i in range(POOL):
            S = planted(rng, UNION_SPEC.n, UNION_SPEC.v[-1] - 1)
            self.pool["union"].append(
                (S, self.write(f"u{i}.obs", vec(core.boolean_sum(self.M["union"], S)))))
            P = planted(rng, APPROX[0].n, APPROX[1])
            self.pool["approx"].append(
                (P, self.write(f"a{i}.obs", vec(core.boolean_sum(self.M["approx"], P)))))
            P = planted(rng, ADDITIVE_SPEC.n, 2)
            self.pool["additive"].append(
                (P, self.write(f"s{i}.obs", vec(core.arithmetic_sum(self.M["additive"], P)))))
            S = planted(rng, MUT[0].n, MUT[1])
            self.pool["mut"].append(
                (S, self.write(f"t{i}.obs", vec(core.boolean_sum(self.M["mut"], S)))))
            X = planted(rng, COMPRESS[0].n, COMPRESS[1])
            x = tuple(1 if c in X else 0 for c in range(COMPRESS[0].n))
            w = apps.compress(self.M["compress"], COMPRESS[1], x).bits
            self.pool["compress"].append(
                (x, w, self.write(f"x{i}.vec", vec(x)), self.write(f"w{i}.vec", vec(w))))
            S = planted(rng, n, k)
            self.pool["me"].append((S, "".join(map(str, apps.monotone_encode(n, k, S)))))
            self.pool["inconsistent"].append(self.write(f"bad{i}.obs", vec(
                self.inconsistent(rng))))
        self.malformed = self.malformed_inputs()

    def inconsistent(self, rng):
        """An arithmetic observation that additive_decode rejects: a valid
        sum with one row count raised past what any column set explains."""
        M = self.M["additive"]
        while True:
            s = list(core.arithmetic_sum(M, planted(rng, M.n, 2, 1)))
            s[rng.randrange(M.m)] += 2
            try:
                decode.additive_decode(M, ADDITIVE_SPEC, s)
            except decode.InconsistentObservationError:
                return s

    def malformed_inputs(self):
        """argv lists that must exit 2: bad files, bad flags, bad words."""
        good = self.read("union.mat").split("\n")
        bad_char = self.write("badchar.mat", "\n".join(
            [good[0], good[1][:-1] + "2"] + good[2:]))
        short = self.write("short.mat", "\n".join(good[:-3]))
        spec = self.write("badv.spec", f"{UNION_SPEC.n} {UNION_SPEC.p}\n1 2\n")
        obs = self.write("nonint.obs", "1\nx\n")
        mat, sp, o = self.matrix_file["union"], self.spec_file["union"], self.pool["union"][0][1]
        n, k = CHAIN
        return [
            ["verify", "--matrix", bad_char, "--spec", sp],
            ["verify", "--matrix", short, "--spec", sp],
            ["bounds", "--spec", spec],
            ["decode", "--matrix", mat, "--spec", sp, "--obs", obs],
            ["decode", "--matrix", mat, "--spec", sp, "--obs", o, "--mode", "xor"],
            ["me-decode", "--n", str(n), "--k", str(k), "--word", "01a1"],
        ]

    def round(self, r):
        rng = round_rng(self.seed, r)
        mf = ["--manifest", self.manifest]
        pick = lambda key: self.pool[key][rng.randrange(POOL)]  # noqa: E731
        mat, sp = self.matrix_file, self.spec_file
        ops = [
            ("bounds", ["bounds", "--spec", sp["union"]],
             lambda res: res[0] == 0 and all(
                 fields(res[1].replace("\n", " ")).get(key) == val
                 for key, val in self.bounds.items())),
            ("verify", ["verify", "--matrix", mat["union"], "--spec", sp["union"]],
             lambda res: res == (0, "ok\n")),
        ]
        S, obs = pick("union")
        ops.append(("decode_union", ["decode", "--matrix", mat["union"], "--spec", sp["union"],
                                     "--obs", obs, "--mode", "union"],
                    lambda res, S=S: res[0] == 0 and union_ok(
                        UNION_SPEC, S, columns(fields(res[1])["identified"]),
                        columns(fields(res[1])["candidates"]))))
        P, obs = pick("approx")
        _, _, e0, e1 = APPROX
        ops.append(("decode_approx", ["decode", "--matrix", mat["approx"], "--spec",
                                      sp["approx"], "--obs", obs, "--mode", "approx",
                                      "--e0", str(e0), "--e1", str(e1)],
                    lambda res, P=P: res[0] == 0 and approx_ok(
                        P, columns(fields(res[1])["low"]), columns(fields(res[1])["high"]),
                        e0, e1)))
        P, obs = pick("additive")
        ops.append(("decode_additive", ["decode", "--matrix", mat["additive"], "--spec",
                                        sp["additive"], "--obs", obs, "--mode", "additive"],
                    lambda res, P=P: res[0] == 0 and columns(fields(res[1])["support"]) == P))
        S, obs = pick("mut")
        ops.append(("mut_decode", ["mut-decode", "--matrix", mat["mut"], "--spec", sp["mut"],
                                   "--obs", obs],
                    lambda res, S=S: res[0] == 0 and mut_ok(
                        S, columns(fields(res[1])["identified"]), MUT[2])))
        x, w, xfile, wfile = pick("compress")
        p = str(COMPRESS[1])
        ops.append(("compress", ["compress", "--matrix", mat["compress"], "--p", p,
                                 "--in", xfile, "--out", self.path("cw.vec")],
                    lambda res, w=w: res[0] == 0 and core.parse_vector(
                        self.read("cw.vec")) == w))
        ops.append(("decompress", ["decompress", "--matrix", mat["compress"], "--p", p,
                                   "--in", wfile, "--out", self.path("cx.vec")],
                    lambda res, x=x: res[0] == 0 and core.parse_vector(
                        self.read("cx.vec")) == x))
        n, k = CHAIN
        S, word = pick("me")
        ops.append(("me_encode", ["me-encode", "--n", str(n), "--k", str(k),
                                  "--set", ",".join(map(str, S))],
                    lambda res, word=word: res == (0, f"word={word}\n")))
        ops.append(("me_decode", ["me-decode", "--n", str(n), "--k", str(k), "--word", word],
                    lambda res, S=S: res[0] == 0 and columns(fields(res[1])["set"]) == S))
        ops.append(("malformed", self.malformed[rng.randrange(len(self.malformed))],
                    lambda res: res[0] == 2))
        ops.append(("inconsistent", ["decode", "--matrix", mat["additive"], "--spec",
                                     sp["additive"], "--obs", pick("inconsistent"),
                                     "--mode", "additive"],
                    lambda res: res[0] == 1))
        return [Op(kind, lambda a=argv + mf: self.cli(a), check)
                for kind, argv, check in ops]


WORKLOADS = {w.name: w for w in (Build, Certify, Decode, Cli)}
