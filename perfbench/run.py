"""Benchmark of the superselect package, one workload per process.

    python3 perfbench/run.py --workload {build,certify,decode,cli} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it imports the package from `src/`
there and refuses to run (exit 2, no result) when the sources are
missing. It writes only under `.perfbench-out/` in that root.

With --trace 0 it times the workload untraced and prints the end-to-end
metrics. With --trace 1 it times half the window untraced and half with
every layer boundary wrapped, writes the spans to
`.perfbench-out/trace-<workload>-<seed>.json` and prints the per-layer
metrics, including each layer's self-time share and the tracing
overhead. Op and set-up times are gated in reference units, measured
by a timer-driven probe (see README.md). Human-readable lines come
first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import tracemalloc
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
TRAJECTORY = Path(__file__).resolve().parent / "trajectory"

# Set-up is repeated until both limits are reached (at most SETUP_MAX
# times) and reported as the median, so a one-off stall does not move it.
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX = 5, 1.0, 5000

# The end-to-end metric each layer's self time should move.
LAYER_TARGETS = {
    "sizing": "ops_per_ru (hypotheses_per_s) on build; negligible",
    "construct": "ops_per_ru (hypotheses_per_s) and peak_rss_mb on build; setup_s on decode, cli",
    "core": "ops_per_ru (wall_s) on certify; small share of build; ops_per_ru on cli",
    "decode": "ops_per_ru and op_tail_ru on decode; not cli",
    "apps": "ops_per_ru and op_tail_ru on decode; setup_s via chain build",
    "cli": "ops_per_ru on cli; not decode",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["build", "certify", "decode", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------- timing


def reference_kernel(n=1000):
    """Fixed pure-Python integer and list work, about 0.3 ms, that the
    package never touches. Its time tracks how fast this host runs Python
    at the moment."""
    acc, table = 0, _REF_TABLE
    for i in range(n):
        acc = (acc + table[i & 255] * i) & 0xFFFFFFFF
        if acc & 1:
            acc ^= i << 3
    return acc


_REF_TABLE = [(i * 2654435761) & 0xFFFF for i in range(256)]
PROBE_EVERY_S = 0.01   # reference samples per second of wall time: 100 (about 3%)
# setup_s must read in seconds: set-up time in ru, times the kernel's
# time on the host the baseline was recorded on.
RU_NOMINAL_S = 0.0003
RESERVOIR = 200_000    # op-time samples kept; fixed so memory does not track speed


class HostProbe:
    """Times the reference kernel every PROBE_EVERY_S of wall time from a
    SIGALRM handler, so the host's speed is sampled during long ops too.
    The handler's own time is summed in `stolen`, which ops leave out."""

    def __init__(self):
        self.at = array("d")      # sample midpoints, ascending
        self.took = array("d")    # reference-kernel seconds
        self.stolen = 0.0

    def sample(self, *_):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.stolen += t1 - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def ru(self, start, end):
        """Median reference time over the op's span, widened by two
        sample intervals on each side."""
        lo = bisect_left(self.at, start - 2 * PROBE_EVERY_S)
        hi = bisect_right(self.at, end + 2 * PROBE_EVERY_S)
        return statistics.median(self.took[lo:hi] if hi > lo else self.took[-1:])


class Reservoir:
    """Uniform sample of at most RESERVOIR values, in fixed memory."""

    def __init__(self):
        self.values = array("d")
        self.seen = 0
        self._pick = random.Random(0)

    def add(self, value):
        self.seen += 1
        if len(self.values) < RESERVOIR:
            self.values.append(value)
        else:
            j = self._pick.randrange(self.seen)
            if j < RESERVOIR:
                self.values[j] = value


class Segment:
    """Op timings of one timed window, raw and in reference units (ru):
    each op divided by the host probe's reference time around it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = Reservoir()      # op seconds
        self.times_ru = Reservoir()   # op times in reference units
        self.rounds = []              # summed op seconds per round
        self.rounds_ru = []           # the same in reference units
        self.ref = array("d")         # reference-kernel seconds
        self.failures = []
        self._pending = []            # (round, start, end, seconds)

    def settle(self, probe, final=False):
        """Convert the pending ops whose probe window has closed."""
        horizon = probe.at[-1] - 2 * PROBE_EVERY_S if probe.at else float("-inf")
        keep = []
        for r, start, end, dt in self._pending:
            if end > horizon and not final:
                keep.append((r, start, end, dt))
                continue
            x = dt / probe.ru(start, end)
            while len(self.rounds_ru) <= r:
                self.rounds_ru.append(0.0)
            self.rounds_ru[r] += x
            self.times_ru.add(x)
        self._pending = keep


def measure(workload, seconds, tracer=None, op_ids=None) -> Segment:
    """Run whole rounds, starting at round 0, until `seconds` have passed.
    Only the op itself is timed, minus any probe sample taken inside it."""
    seg = Segment()
    clock = time.perf_counter
    with HostProbe() as probe:
        deadline = clock() + seconds
        r = 0
        while r == 0 or clock() < deadline:
            total = 0.0
            for op in workload.round(r):
                if op.prepare is not None:
                    op.prepare()
                if tracer is not None:
                    op_ids.append((r, op.kind))
                    tracer.begin_op(len(op_ids) - 1)
                stolen = probe.stolen
                t0 = clock()
                try:
                    out, err = op.run(), None
                except Exception as exc:  # an escaped exception is a wrong outcome
                    out, err = None, exc
                t1 = clock()
                dt = t1 - t0 - (probe.stolen - stolen)
                if tracer is not None:
                    tracer.begin_op(None)
                ok = err is None
                if ok:
                    try:
                        ok = bool(op.check(out))
                    except Exception as exc:
                        ok, err = False, exc
                if not ok:
                    seg.failed += 1
                    if len(seg.failures) < 5:
                        seg.failures.append(f"round {r} {op.kind}: {err!r}" if err else
                                            f"round {r} {op.kind}: wrong output {out!r:.200}")
                seg.attempted += 1
                seg.times.add(dt)
                seg._pending.append((r, t0, t1, dt))
                total += dt
            seg.rounds.append(total)
            seg.settle(probe)
            r += 1
        probe.sample()
    seg.settle(probe, final=True)
    seg.ref = probe.took
    return seg


def setup_times(workload):
    """Repeat the set-up; return each one's wall seconds and its time in
    reference units, measured like an op."""
    spans = []
    with HostProbe() as probe:
        probe.sample()
        while len(spans) < SETUP_MAX and (len(spans) < SETUP_MIN_REPS
                                          or sum(s[2] for s in spans) < SETUP_MIN_S):
            stolen = probe.stolen
            t0 = time.perf_counter()
            workload.setup()
            t1 = time.perf_counter()
            spans.append((t0, t1, t1 - t0 - (probe.stolen - stolen)))
        probe.sample()
        probe.sample()
    return [dt for _, _, dt in spans], [dt / probe.ru(t0, t1) for t0, t1, dt in spans]


def quantile(values, q):
    """Inclusive-method quantile; q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 1000) - 1]


# ---------------------------------------------------------------- metrics


def end_to_end(wl, seg, setups, setups_ru):
    """Gated metrics (JSON) and the same figures in wall-clock units
    (report only). In the gated ones each op time is divided by the
    reference time measured next to it (one ru), which removes most of
    the host's speed drift."""
    per_round = seg.attempted // len(seg.rounds)
    wall = statistics.median(seg.rounds)
    ru = statistics.median(seg.ref)
    level = wl.tail_q
    p50, tail = quantile(seg.times.values, 0.50), quantile(seg.times.values, level)
    metrics = {
        "setup_s": (statistics.median(setups_ru) * RU_NOMINAL_S, "s"),
        "ops_per_ru": (per_round / statistics.median(seg.rounds_ru), "1/ru"),
        "op_p50_ru": (quantile(seg.times_ru.values, 0.50), "ru"),
        "op_tail_ru": (quantile(seg.times_ru.values, level), "ru"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "rows_total": (wl.rows_total, "count"),
    }
    kept = len(seg.times.values)
    n = f"n={seg.attempted} ops" + (f", {kept} kept" if seg.attempted > kept else "")
    samples = {"setup_s": f"median of {len(setups)} set-ups, in ru x {RU_NOMINAL_S * 1e3:g} ms",
               "ops_per_ru": f"{per_round} ops per round / median round time, in ru",
               "op_p50_ru": n, "op_tail_ru": f"p{100 * level:g}, {n}",
               "peak_rss_mb": "ru_maxrss of this process", "rows_total": "exact"}
    extras = {
        "ru_ms": (ru * 1e3, "ms", f"reference kernel, median of {len(seg.ref)} samples"),
        "setup_wall_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "ops_per_s": (per_round / wall, "1/s", samples["ops_per_ru"].replace(", in ru", "")),
        "op_p50_ms": (p50 * 1e3, "ms", n),
        "op_tail_ms": (tail * 1e3, "ms", f"p{100 * level:g}, {n}"),
        "wall_s": (wall, "s", f"median over {len(seg.rounds)} rounds of {per_round} ops"),
        "fail_ratio": (seg.failed / seg.attempted, "ratio",
                       f"{seg.failed} of {seg.attempted} ops"),
    }
    if wl.name == "build":
        from tracing import fill_hypotheses

        hyp = sum(fill_hypotheses(spec, m) for spec, _, m in wl.specs)
        extras["hypotheses_per_s"] = (hyp / wall, "1/s",
                                      f"{hyp} hypotheses per corpus pass")
    return metrics, extras, samples


def per_layer(wl, tracer, op_ids, plain, traced, manifest_lines):
    from tracing import LAYERS, fill_visits, self_times, spec_subsets

    spans = tracer.spans
    own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def mean(name, scale):
        idx = by_name.get(name, [])
        return sum(dur(i) for i in idx) / len(idx) * scale if idx else 0.0

    def mean_prefix(prefix, scale):
        idx = [i for n, ids in by_name.items() if n.startswith(prefix) for i in ids]
        return sum(dur(i) for i in idx) / len(idx) * scale if idx else 0.0

    timed = [i for i, s in enumerate(spans) if s[4] is not None and s[4] > 0]
    # Op spans, like every span, include probe samples taken inside them.
    timed_total = sum(dur(i) for i in timed if spans[i][3] is None)
    m = {}
    for layer in LAYERS:
        self_s = sum(own[i] for i in timed if spans[i][0].split(".")[0] == layer)
        m[f"{layer}.self_share"] = (self_s / timed_total, "ratio")
    m["sizing.threshold_ms"] = (mean("sizing.derand_threshold", 1e3), "ms")

    fills = by_name.get("construct.DerandState.run", [])
    m["construct.init_s"] = (mean("construct.DerandState.__init__", 1), "s")
    m["construct.fill_s"] = (mean("construct.DerandState.run", 1), "s")
    fill_timed = sum(dur(i) for i in fills if spans[i][4])
    m["construct.fill_share"] = (fill_timed / timed_total, "ratio")
    fill_time = sum(dur(i) for i in fills)
    hyp = sum(spans[i][5]["hypotheses"] for i in fills)
    m["construct.fill_hyp_per_s"] = (hyp / fill_time if fill_time else 0.0, "1/s")
    distinct = {(spans[i][5]["spec"], spans[i][5]["m"]): spans[i][5] for i in fills}
    visits = sum(fill_visits(spec, mm) for spec, mm in distinct)
    useful = sum(note["hypotheses"] for note in distinct.values())
    m["construct.subset_visits"] = (visits, "count")
    m["construct.useful_ratio"] = (useful / visits if visits else 0.0, "ratio")
    peak = 0.0
    if distinct:
        from superselect import construct

        spec = max(distinct, key=lambda k: spec_subsets(k[0]))[0]
        tracemalloc.start()
        try:
            construct.construct_derandomized(spec)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    m["construct.fill_peak_mb"] = (peak, "MB")

    m["construct.sample_s"] = (mean("construct.sample_random_matrix", 1), "s")
    m["construct.random_attempts"] = (sum(
        1 for i in by_name.get("construct.sample_random_matrix", [])
        if spans[i][4] and op_ids[spans[i][4]][0] == 0), "count")

    verifies = by_name.get("core.is_superselector", [])
    m["core.verify_s"] = (mean("core.is_superselector", 1), "s")
    passed = [i for i in verifies if spans[i][5]["passed"]]
    passed_time = sum(dur(i) for i in passed)
    m["core.verify_subsets_per_s"] = (
        sum(spans[i][5]["subsets"] for i in passed) / passed_time if passed_time else 0.0,
        "1/s")
    # Matrices constructed: derandomized fills plus randomized builds.
    builds = [i for name in ("construct.DerandState.run", "construct.construct_randomized")
              for i in by_name.get(name, [])]
    ops_building = {spans[i][4] for i in builds}
    checks = sum(1 for i in verifies if spans[i][4] in ops_building)
    m["core.verify_calls"] = (checks / len(builds) if builds else 0.0, "count")
    m["core.parse_ms"] = (mean_prefix("core.parse_", 1e3), "ms")
    m["core.format_ms"] = (mean_prefix("core.format_", 1e3), "ms")

    for metric, name in (("decode.union_us", "decode.identify_from_union"),
                         ("decode.approx_us", "decode.approx_decode"),
                         ("decode.additive_us", "decode.additive_decode"),
                         ("apps.compress_us", "apps.compress"),
                         ("apps.decompress_us", "apps.decompress"),
                         ("apps.me_encode_us", "apps.monotone_encode"),
                         ("apps.me_decode_us", "apps.monotone_decode")):
        m[metric] = (mean(name, 1e6), "us")
    m["apps.chain_build_s"] = (mean("apps.MonotoneEncoding.__init__", 1), "s")

    mains = by_name.get("cli.main", [])
    m["cli.self_ms"] = (sum(own[i] for i in mains) / len(mains) * 1e3 if mains else 0.0, "ms")
    m["cli.manifest_ratio"] = (manifest_lines / len(mains) if mains else 0.0, "ratio")

    common = min(len(plain.rounds_ru), len(traced.rounds_ru))
    m["trace.overhead"] = (sum(traced.rounds_ru[:common]) / sum(plain.rounds_ru[:common]),
                           "ratio")
    return dict(sorted(m.items()))


# ---------------------------------------------------------------- reports


def spec_key(spec) -> str:
    return f"n={spec.n} p={spec.p} v={','.join(map(str, spec.v))}"


def corpus_report(wl):
    """Digest and size of every corpus matrix, with computed work counts."""
    from superselect import sizing
    from tracing import fill_hypotheses, fill_visits, spec_subsets

    base = {}
    entries = sorted(TRAJECTORY.glob("BENCH_*.json"))
    if entries:
        base = json.loads(entries[0].read_text()).get("corpus", {})
    lines = ["# corpus (counts are computed, not measured): spec m lower threshold "
             "upper digest hypotheses visits useful subsets/verify"]
    for spec, _, threshold in wl.specs:
        key = spec_key(spec)
        dig, m = wl.notes.get(spec, ("-", 0))
        hyp, vis = fill_hypotheses(spec, threshold), fill_visits(spec, threshold)
        was = base.get(key, {}).get("digest")
        flag = "" if was in (None, dig) else f" CHANGED from {was}"
        lines.append(
            f"#   {key:24s} m={m} lower={sizing.superselector_lower_bound(spec).m} "
            f"threshold={threshold} upper={sizing.superselector_upper_bound(spec).m} "
            f"digest={dig}{flag} hypotheses={hyp} visits={vis} "
            f"useful={hyp / vis:.3f} subsets={spec_subsets(spec)}")
    return lines


def corpus_record(wl):
    from superselect import sizing

    return {spec_key(s): {
        "m": wl.notes.get(s, ("-", 0))[1], "digest": wl.notes.get(s, ("-", 0))[0],
        "threshold": t, "lower": sizing.superselector_lower_bound(s).m,
        "upper": sizing.superselector_upper_bound(s).m} for s, _, t in wl.specs}


def run(args, work: Path):
    from tracing import Tracer
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    env = environment(args.seed)
    lines = [f"# superselect benchmark workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             "# env " + " ".join(f"{k}={v}" for k, v in env.items())]
    record = {"workload": args.workload, "env": env}
    if not args.trace:
        setups, setups_ru = setup_times(wl)
        seg = measure(wl, args.seconds)
        metrics, extras, samples = end_to_end(wl, seg, setups, setups_ru)
        for name, (value, unit) in metrics.items():
            lines.append(f"{name:18s} {value:14.6g} {unit:6s} ({samples[name]})")
        for name, (value, unit, note) in extras.items():
            lines.append(f"{name:18s} {value:14.6g} {unit:6s} ({note})")
        if args.workload == "build":
            lines += corpus_report(wl)
            record["corpus"] = corpus_record(wl)
    else:
        tracer = Tracer()
        with tracer.patched():
            tracer.begin_op(0)
            wl.setup()
            tracer.begin_op(None)
        plain_entries = wl.call
        plain = measure(wl, args.seconds / 2)
        op_ids = [(-1, "setup")]
        manifest = Path(wl.manifest)
        before = len(manifest.read_text().splitlines()) if manifest.exists() else 0
        with tracer.patched():
            wl.use_entries(wl.traced_entries(tracer))
            seg = measure(wl, args.seconds / 2, tracer, op_ids)
            wl.use_entries(plain_entries)
        after = len(manifest.read_text().splitlines()) if manifest.exists() else 0
        metrics = per_layer(wl, tracer, op_ids, plain, seg, after - before)
        if tracer.missing:
            lines.append("# not traced (names absent): " + ", ".join(tracer.missing))
        lines.append(f"# traced: {len(tracer.spans)} spans over {seg.attempted} ops "
                     f"({len(seg.rounds)} rounds); untraced half: {len(plain.rounds)} rounds")
        for layer, target in LAYER_TARGETS.items():
            share = metrics[f"{layer}.self_share"][0]
            lines.append(f"# self  {layer:10s} {share:8.2%} of op time -> {target}")
        for name, (value, unit) in metrics.items():
            lines.append(f"{name:28s} {value:14.6g} {unit}")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op", "note"],
            "ops": op_ids,
            "spans": [[s[0], s[1], s[2], s[3], s[4],
                       {k: v for k, v in (s[5] or {}).items() if k != "spec"}]
                      for s in tracer.spans]}))
        lines.append(f"# spans written to {path.relative_to(ROOT)}")
        seg.attempted += plain.attempted
        seg.failed += plain.failed
        seg.failures = plain.failures + seg.failures
    for failure in seg.failures:
        lines.append(f"# FAILED {failure}")
    record["metrics"] = {k: v[0] for k, v in metrics.items()}
    result = {"correct": seg.failed == 0, "attempted": seg.attempted, "failed": seg.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return lines, record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "superselect" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC.relative_to(ROOT)}/superselect; "
              "run from the root of a superselect checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import superselect

    if Path(superselect.__file__).resolve().parent != SRC / "superselect":
        print(f"error: imported superselect from {superselect.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        lines, record, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print("# record " + json.dumps(record, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
