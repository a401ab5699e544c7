"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. A short untraced and traced run of every workload prints every metric
   BENCHMARK.json declares, by name and with its unit, and no op fails.
2. A deliberately wrong decoder, in the decode workload and behind the
   CLI, makes ops fail (fail_ratio above 0).
3. A directory holding only BENCHMARK.json and the benchmark exits
   non-zero without printing a result.
Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def scratch() -> Path:
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    return out


def fail(message):
    print(f"FAIL {message}")
    sys.exit(1)


def declared_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench, {0: bench["end_to_end"], 1: bench["per_layer"]}


def short_runs():
    bench, declared = declared_metrics()
    for w in bench["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                fail(f"{w['name']} trace={trace} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w['name']}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                fail(f"{w['name']} trace={trace}: {result['failed']} ops failed")
            want = {m["name"]: m["unit"] for m in declared[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{w['name']} trace={trace}: metrics {got} != declared {want}")
            text = "\n".join(lines[:-1])
            missing = [k for k in want if k not in text]
            if missing:
                fail(f"{w['name']} trace={trace}: report lacks {missing}")
            print(f"ok   {w['name']} trace={trace}: {len(want)} metrics, "
                  f"{result['attempted']} ops, 0 failed")


def wrong_decoder():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    import workloads
    from superselect import cli, decode

    def dropped(M, spec, s):
        # Loses the last recovered column.
        return decode.additive_decode(M, spec, s)[:-1]

    with tempfile.TemporaryDirectory(dir=scratch()) as tmp:
        wl = workloads.Decode(7, Path(tmp))
        wl.setup()
        wl.use_entries(dict(wl.call, additive=dropped))
        seg = run.measure(wl, 0.2)
        if not seg.failed:
            fail("a wrong additive decoder left fail_ratio at 0 on decode")
        print(f"ok   decode: wrong decoder gives fail_ratio {seg.failed / seg.attempted:.3f}")

        wl = workloads.Cli(7, Path(tmp))
        wl.setup()
        saved = cli.additive_decode
        cli.additive_decode = dropped
        try:
            seg = run.measure(wl, 0.5)
        finally:
            cli.additive_decode = saved
        if not seg.failed:
            fail("a wrong additive decoder behind the CLI left fail_ratio at 0 on cli")
        print(f"ok   cli: wrong decoder gives fail_ratio {seg.failed / seg.attempted:.3f}")


def bare_directory():
    with tempfile.TemporaryDirectory(dir=scratch()) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "decode", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        print(f"ok   bare directory: exit {proc.returncode}, no result")


if __name__ == "__main__":
    short_runs()
    wrong_decoder()
    bare_directory()
    print("selfcheck passed")
