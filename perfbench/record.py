"""Run the benchmark over several seeds and summarise, or record, it.

    python3 perfbench/record.py --seeds 1-10 [--workloads build,cli]
        [--seconds 15] [--traced] [--out perfbench/trajectory/BENCH_NN_name.json]

Each run is its own process (`run.py`), one at a time. For every
end-to-end metric it prints the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json, and
marks a spread above a third of the bound. With --traced it adds one
traced run per workload (first seed) for the per-layer breakdown. With
--out it writes everything, environment and corpus digests included, as
one trajectory entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    record = next(json.loads(ln[len("# record "):]) for ln in lines
                  if ln.startswith("# record "))
    return json.loads(lines[-1]), record, lines


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    entry = {"run_seconds": seconds, "seeds": seeds(args.seeds), "workloads": {}}
    for workload in names:
        results = []
        for seed in seeds(args.seeds):
            result, record, _ = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} ops failed")
            results.append(result)
            entry["env"] = {k: v for k, v in record["env"].items() if k != "seed"}
            entry.setdefault("corpus", record.get("corpus"))
        w = {"failed": sum(r["failed"] for r in results),
             "attempted": sum(r["attempted"] for r in results), "end_to_end": {}}
        print(f"== {workload}: {len(results)} runs, {w['failed']} of {w['attempted']} ops failed")
        for name in bounds:
            s = summary([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            w["end_to_end"][name] = s
            flag = "" if s["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"   {name:14s} median {s['median']:12.6g} {s['unit']:6s} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.3f} (bound {bounds[name]}){flag}")
        if args.traced:
            result, record, lines = run_once(workload, seeds(args.seeds)[0], seconds, 1)
            w["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            w["traced_correct"] = result["correct"]
            for ln in lines:
                if ln.startswith("# self") or ln.startswith("# traced"):
                    print("  " + ln)
            print(f"   construct.fill_share {w['per_layer']['construct.fill_share']:.3f}  "
                  f"cli.self_share {w['per_layer']['cli.self_share']:.3f}  "
                  f"trace.overhead {w['per_layer']['trace.overhead']:.3f}")
        entry["workloads"][workload] = w
    if args.out:
        Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
