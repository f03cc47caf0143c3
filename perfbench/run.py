"""qlg2 benchmark: cold-process workloads with exact output checks.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed job runs in a fresh single-threaded Python process that imports
qlg2 from ./src, so all module memo caches are cold at its start; the
processes run one at a time.  The workloads are defined in
`workloads.py`.

--trace 0 starts 15 set-up-only processes (import qlg2, build a Context),
then repeats the workload in fresh processes while another repetition fits
in --seconds (set-up processes included), and reports medians:

- wall_ref_s: the time from qlg2 imported and Context built to the verdict
  written, normalised to the host's nominal speed.  On a shared 2-vCPU
  cloud guest the same fixed job was measured to run up to twice as slowly
  within minutes, in wall and CPU time alike, so raw times of the same code
  spread past any useful bound.  Each repetition therefore times a fixed
  Fraction computation every 0.1 s in its own process (`child.SpeedProbe`),
  and its wall time without the probe is divided by how much slower than
  nominal the probe ran.  The raw wall, CPU and set-up times and the speed
  factors are kept in the run conditions and the results file;
- setup_s: from process spawn to qlg2 imported and Context built (median
  over the set-up processes and the repetitions), normalised in the same
  way by the probe timed during the import and the Context build;
- peak_rss_mb: peak resident set size of the child.

--trace 1 repeats the workload untraced while another repetition fits in
half of --seconds (at least once), then runs it once with `tracer.Tracer`
installed, and reports the layer metrics of the traced run, its normalised
wall time and the tracing overhead (traced wall_ref_s minus the untraced
median).  Layer times are raw seconds; they include the probe's time (about
1%) when it fires inside a layer.  It also checks the traced-run invariants:
the traced outputs are correct, no wrapper is left installed, and the
workload's zero counters read 0.

Every output is checked: check reports against `golden.json` (byte-exact
report, per-check status and digests), spectrum rows against an exact
Fraction oracle.  The last stdout line is the result JSON
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
run conditions, which are also written with every repetition's raw numbers
to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 15
RUN_DEADLINE_S = 170.0
FOOTER = "# strictly increasing: True; all positive: True"


class ChildError(RuntimeError):
    pass


def _wait(proc, deadline):
    """Reap `proc` and return its resource usage; kill it past `deadline`."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise ChildError("benchmark process exceeded the run deadline")
        time.sleep(0.02)


def spawn(spec, out_dir, src, deadline):
    """Run one cold child process; return its timings and output directory."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    load_before = os.getloadavg()
    with open(out_dir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec),
             str(out_dir)],
            env=env, stdin=subprocess.DEVNULL, stdout=err, stderr=err)
        try:
            usage = _wait(proc, deadline)
        except BaseException:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            raise
    result_path = out_dir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        tail = (out_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        raise ChildError(f"benchmark process exited {proc.returncode}:\n{tail}")
    res = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(res["qlg2_file"]).resolve().is_relative_to(src.resolve()):
        raise ChildError(f"qlg2 imported from {res['qlg2_file']}, not {src}")
    setup = res["setup_probe"]
    rec = {
        "kind": spec["kind"], "trace": bool(spec.get("trace")),
        "setup_raw_s": res["t_ready"] - t_spawn,
        "setup_s": (res["t_ready"] - t_spawn - setup["probe_s"])
        / setup["speed_factor"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "load_before": load_before, "load_after": os.getloadavg(),
    }
    if "t_done" in res:
        rec["wall_s"] = res["t_done"] - res["t_ready"]
    if "job_probe" in res:
        job = res["job_probe"]
        rec["wall_s"] -= job["probe_s"]
        rec["probe_samples"] = job["samples"]
        rec["speed_factor"] = job["speed_factor"]
        rec["wall_ref_s"] = rec["wall_s"] / job["speed_factor"]
    return rec, res


def check_outputs(spec, res, out_dir, golden):
    """Number of failed ops (checks or table rows) in one repetition."""
    n = wl.ops_per_rep(spec)
    if spec["kind"] == "checks":
        report = (out_dir / "report.json").read_text(encoding="utf-8")
        return wl.failed_checks(report, golden, spec["checks"], spec["seed"])
    footer = (out_dir / "stdout.txt").read_text(encoding="utf-8").splitlines()
    if res["exit_code"] != 0 or FOOTER not in footer:
        return n
    table = (out_dir / "table.csv").read_text(encoding="utf-8")
    return wl.failed_rows(table, spec["v"], spec["shell_max"])


def run_conditions(root, args):
    src = root / "src" / "qlg2"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "hash_seed": 0, "probe_seed": wl.PROBE_SEED,
        "loadavg_before": os.getloadavg(),
        "cache_state": "cold: every repetition is a fresh process, so all "
                       "qlg2 memo caches are empty when it starts",
    }


def measure(args, root, golden, conditions):
    src = root / "src"
    base = root / ".perfbench" / "runs" / f"{args.workload}-{args.seed}"
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = wl.child_spec(args.workload)
    order = []
    setups, reps = [], []
    attempted = failed = 0
    problems = []

    def rep(traced):
        nonlocal attempted, failed
        job = dict(spec, trace=traced)
        out_dir = base / f"rep{len(reps)}"
        rec, res = spawn(job, out_dir, src, deadline)
        rec["failed"] = check_outputs(job, res, out_dir, golden)
        attempted += wl.ops_per_rep(job)
        failed += rec["failed"]
        order.append("traced" if traced else "untraced")
        reps.append(rec)
        return rec, res

    t_start = time.monotonic()
    if not args.trace:
        for i in range(SETUP_PROBES):
            rec, _res = spawn({"kind": "setup", "seed": spec["seed"]},
                              base / f"setup{i}", src, deadline)
            order.append("setup")
            setups.append(rec)

    # repeat while another repetition of the mean length fits the budget,
    # which includes the set-up processes
    budget = args.seconds / 2 if args.trace else args.seconds
    t0 = time.monotonic()
    while True:
        rep(False)
        now = time.monotonic()
        mean = (now - t0) / len(reps)
        if now - t_start + mean > budget or now + mean > deadline:
            break
    untraced_wall = statistics.median(r["wall_ref_s"] for r in reps)

    if args.trace:
        rec, res = rep(True)
        layers = res["layers"]
        for name in wl.WORKLOADS[args.workload]["zero_counters"]:
            if layers[name] != 0:
                problems.append(f"{name} = {layers[name]}, expected 0")
        if res["leftover_wrappers"]:
            problems.append(f"wrappers left installed: {res['leftover_wrappers']}")
        layers["trace.wall_ref_s"] = rec["wall_ref_s"]
        layers["trace.overhead_ref_s"] = rec["wall_ref_s"] - untraced_wall
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in sorted(layers.items())}
    else:
        metrics = {
            "wall_ref_s": {"value": statistics.median(
                r["wall_ref_s"] for r in reps), "unit": "ref_s"},
            "setup_s": {"value": statistics.median(
                r["setup_s"] for r in setups + reps), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in reps), "unit": "MB"},
        }
    untraced = [r for r in reps if not r["trace"]]
    conditions["raw_untraced_medians"] = {
        key: statistics.median(r[key] for r in untraced)
        for key in ("wall_s", "cpu_s", "speed_factor")}
    conditions["raw_untraced_medians"]["setup_s"] = statistics.median(
        r["setup_raw_s"] for r in setups + untraced)
    conditions["loadavg_after"] = os.getloadavg()
    conditions["process_order"] = order
    conditions["repetitions"] = len(reps)
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"conditions": conditions, "setup_processes": setups,
              "repetitions": reps, "problems": problems, "result": result}
    return result, record, problems


def _unit(name):
    if name.endswith("_ref_s"):
        return "ref_s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "qlg2" / "__init__.py").is_file():
        print("perfbench: src/qlg2 not found; run from the repository root",
              file=sys.stderr)
        return 2
    golden = wl.load_golden()
    conditions = run_conditions(root, args)
    try:
        result, record, problems = measure(args, root, golden, conditions)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    out = root / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n",
                            encoding="utf-8")
    print(json.dumps({"conditions": conditions}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
