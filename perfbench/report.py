"""Run the benchmark over workloads and seeds and print every metric with its unit.

    python3 perfbench/report.py                         # every workload, seed 1, untraced and traced
    python3 perfbench/report.py --seeds 1-10 --trace 0  # ten seeds: medians and quartile spreads
    python3 perfbench/report.py --json perfbench/out/report.json

Each (workload, seed, trace) is one ``run.py`` process, run one after
another.  For every metric the table gives the median over seeds, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median.  An end-to-end metric whose spread exceeds its bound
is marked "WIDE"; one above a third of its bound is marked "wide".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, trace: int, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    result.update(json.loads(lines[-2]))
    return result


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1")
    p.add_argument("--trace", choices=("0", "1", "both"), default="both")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--json", help="also write every run and the summary statistics here")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seeds": seeds, "runs": {}, "summary": {}}
    all_correct = True
    for workload in args.workloads.split(","):
        for trace in traces:
            results = [run(workload, seed, trace, args.seconds) for seed in seeds]
            key = f"{workload} trace={trace}"
            report["runs"][key] = results
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            all_correct &= all(r["correct"] for r in results)
            print(f"== {key}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
                  f"attempted={attempted}, failed={failed}, "
                  f"wall per run {statistics.median(r['wall_s'] for r in results):.1f} s")
            summary = {}
            for name, first in results[0]["metrics"].items():
                st = stats([r["metrics"][name]["value"] for r in results])
                summary[name] = dict(st, unit=first["unit"])
                flag = ""
                if name in bounds and name != "setup_s" and len(results) > 1:
                    flag = "WIDE" if st["spread"] > bounds[name] else "wide" if st["spread"] > bounds[name] / 3 else ""
                print(f"  {name:45s} {st['median']:14.6g} {first['unit']:9s} "
                      f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  spread {st['spread']:.4f} {flag}")
            report["summary"][key] = summary
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
