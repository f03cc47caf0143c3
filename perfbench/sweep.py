"""Run the benchmark over several seeds and summarise the spread.

Run from the repository root:

    python3 perfbench/sweep.py --seeds 1,2,3,4,5 [--workloads a,b]
        [--seconds S] [--out FILE] [--baseline FILE]

Round i runs every workload once with the i-th seed, in the listed order on
even rounds and in reverse order on odd rounds, so that contention from
other jobs on the machine shows up as spread instead of favouring one
workload.  For each workload and end-to-end metric it prints the median,
the quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, next to the metric's bound in BENCHMARK.json.  With --baseline
(the --out file of an earlier sweep) it also prints how far each median
moved from the baseline median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out")
    p.add_argument("--baseline")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads.split(",")
    runs = []
    for i, seed in enumerate(seeds):
        for name in (names if i % 2 == 0 else names[::-1]):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.exit(f"{name} seed {seed} failed:\n{proc.stderr}")
            conditions = json.loads(lines[-2])["conditions"]
            result = json.loads(lines[-1])
            runs.append({"workload": name, "seed": seed, "round": i,
                         "conditions": conditions, "result": result})
            vals = " ".join(f"{k}={v['value']:.4f}"
                            for k, v in result["metrics"].items())
            print(f"round {i} {name} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {vals}",
                  flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = None
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())["summary"]
    summary = {}
    for name in names:
        mine = [r["result"]["metrics"] for r in runs if r["workload"] == name]
        summary[name] = {}
        for metric in bounds:
            s = summarise([m[metric]["value"] for m in mine])
            summary[name][metric] = s
            line = (f"{name:14s} {metric:12s} median={s['median']:.4f} "
                    f"q1={s['q1']:.4f} q3={s['q3']:.4f} "
                    f"spread={s['spread']:.4f} bound={bounds[metric]}")
            if baseline and name in baseline:
                base = baseline[name][metric]["median"]
                line += f" vs-baseline={(s['median'] - base) / base:+.4f}"
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"runs": runs, "summary": summary}, indent=1) + "\n")


if __name__ == "__main__":
    main()
